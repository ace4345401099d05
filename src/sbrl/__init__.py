"""Certification and simulation toolkit for discrete-time stochastic
l2-gain analysis of nonlinear systems with multiplicative noise.

The public names and the submodules load lazily (PEP 562), so ``import
sbrl`` loads no module, numpy included: ``sbrl.cli`` must set the BLAS
thread count before numpy first loads.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": ["Certificate"],
    "dynamics": ["AffineSystem", "DisturbanceEnsemble", "DisturbancePolicy",
                 "GeneralSystem", "LinearSystem", "Trajectory", "simulate",
                 "simulate_ensemble"],
    "noise": ["Estimate", "ExpectationScheme", "NoiseModel", "derive_seed",
              "expect"],
    "storage": ["CustomStorage", "DomainBox", "EstimatedStorage",
                "QuadraticStorage", "SeparableStorage", "StorageFunction",
                "check_convex", "quad_bound"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif importlib.util.find_spec(f"{__name__}.{name}") is not None:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module 'sbrl' has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value
