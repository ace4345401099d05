"""Certification and simulation toolkit for discrete-time stochastic
l2-gain analysis of nonlinear systems with multiplicative noise."""

__version__ = "0.1.0"

from .certificates import Certificate
from .dynamics import (AffineSystem, DisturbanceEnsemble, DisturbancePolicy,
                       GeneralSystem, LinearSystem, Trajectory, energy_ratio,
                       simulate, simulate_ensemble)
from .noise import Estimate, ExpectationScheme, NoiseModel, derive_seed, expect
from .storage import (CustomStorage, DomainBox, EstimatedStorage,
                      QuadraticStorage, SeparableStorage, StorageFunction,
                      check_convex, quad_bound)

__all__ = [
    "AffineSystem", "Certificate", "CustomStorage", "DisturbanceEnsemble",
    "DisturbancePolicy", "DomainBox", "Estimate", "EstimatedStorage",
    "ExpectationScheme", "GeneralSystem", "LinearSystem", "NoiseModel",
    "QuadraticStorage", "SeparableStorage", "StorageFunction", "Trajectory",
    "check_convex", "derive_seed", "energy_ratio", "expect", "quad_bound",
    "simulate", "simulate_ensemble",
]
