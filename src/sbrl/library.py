"""Built-in benchmark systems, storage candidates and feedback laws.

Two nonlinear benchmarks ship with the toolkit:

* ``example1`` -- the scalar system x+ = a x + b cos(x) w v with output
  (c x; c1 v).  The drift ignores the noise, which multiplies the
  disturbance channel only; the storage family is V = p x^2.

* ``example2`` -- a three-state plant, an affine system with a
  two-channel control (n_u = 2), driven by five independent uniform
  coefficients, with a constant gain matrix feeding states 1 and 3, a
  mixed quadratic/quartic separable storage V = p1 x1^2 + p2 x2^4 +
  p3 x3^2 and an explicit stabilising law.

Both write each map, and the affine-in-noise structure they declare for
the exact expectation paths, once over leading dimensions
(``X[..., i]``).  The linear tier is built directly from config matrices.
"""

import numpy as np

from .dynamics import (AffineSystem, DisturbanceEnsemble, DisturbancePolicy,
                       LinearSystem)
from .errors import ConfigurationError
from .noise import NoiseModel, Uniform, gaussian_noise
from .storage import QuadraticStorage, SeparableStorage
from .synth import FeedbackLaw

EXAMPLE2_BETA = (8.0 / 5.0) ** (1.0 / 3.0)
EXAMPLE2_P = 1.0 / 16.0


def example1_system(a=0.99, b=0.01, c=0.2, c1=0.2, noise=None) -> AffineSystem:
    """Scalar benchmark: x+ = a x + b cos(x) w v, z = (c x; c1 v), |a| < 1.

    The driving noise is not fixed by the benchmark beyond E[w] = 0 and
    E[w^2] = 1; the default is standard gaussian.
    """
    if abs(a) >= 1:
        raise ConfigurationError("example1 requires |a| < 1")
    noise = noise if noise is not None else gaussian_noise(0.0, 1.0, 1)

    def g(X, W):
        return (b * np.cos(X[..., 0]) * W[..., 0])[..., None, None]

    return AffineSystem(
        1, 1,
        f=lambda X, W: a * X,
        g=g,
        m=lambda X: c * X,
        m1=lambda X: np.array([[c1]]),
        noise=noise,
        f_parts=lambda X: (a * X, [np.zeros(1)]),
        g_parts=lambda X: (np.zeros((1, 1)),
                           [(b * np.cos(X[..., 0]))[..., None, None]]),
        name="example1",
    )


def example1_storage(p=4.0) -> QuadraticStorage:
    return QuadraticStorage([[p]])


def example1_ensembles():
    """The two default disturbance families for the scalar benchmark.

    A decaying-envelope sinusoid with per-member random amplitude, plus an
    i.i.d. gaussian ensemble; both have finite energy on any horizon.
    """
    return {
        "decaying-sine": DisturbanceEnsemble.decaying_sine(
            1, decay=0.98, freqs=[0.3], phases=[0.0], amp_range=(0.5, 1.5)),
        "white": DisturbanceEnsemble.white(1, std=0.5),
    }


_E2_NOISE = NoiseModel((
    Uniform(0.0, 1.0),
    Uniform(-0.5, 0.5),
    Uniform(0.0, 1.0),
    Uniform(0.0, 1.0),
    Uniform(0.0, 1.0),
))

_E2_G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def _saturation(t):
    return t / (1.0 + np.abs(t))


def example2_plant() -> AffineSystem:
    """Three-state controlled benchmark driven by five uniform coefficients."""

    def f(X, U, W):
        x1, x2, x3 = X[..., 0], X[..., 1], X[..., 2]
        return np.stack([W[..., 0] * x1 + W[..., 1] * x2 ** 2 + U[..., 0],
                         W[..., 2] * x2 + W[..., 3] * _saturation(x3)
                         + U[..., 1],
                         W[..., 4] * x3 * np.cos(x2) + U[..., 0]], axis=-1)

    def f_parts(X, U):
        x1, x2, x3 = X[..., 0], X[..., 1], X[..., 2]
        zero = np.zeros_like(x1)
        return np.stack([U[..., 0], U[..., 1], U[..., 0]], axis=-1), [
            np.stack(column, axis=-1) for column in (
                (x1, zero, zero), (x2 * x2, zero, zero), (zero, x2, zero),
                (zero, _saturation(x3), zero), (zero, zero, x3 * np.cos(x2)))]

    def m(X, U):
        x1, x2, x3 = X[..., 0], X[..., 1], X[..., 2]
        # a fixed control (1, n_u) broadcasts against a block of states
        return np.stack(np.broadcast_arrays(
            0.1 * x1 + 0.1 * x3 * np.cos(x2), x2 ** 2 / 7.0, U[..., 0]),
            axis=-1)

    return AffineSystem(
        3, 2,
        f=f,
        g=lambda X, W: _E2_G,
        m=m,
        m1=lambda X: np.zeros((0, 2)),
        noise=_E2_NOISE,
        f_parts=f_parts,
        g_parts=lambda X: (_E2_G, [np.zeros((3, 2))] * 5),
        name="example2",
        n_u=2,
    )


def example2_storage() -> SeparableStorage:
    return SeparableStorage((EXAMPLE2_P,) * 3, (2, 4, 2))


def example2_law() -> FeedbackLaw:
    """The explicit stabilising law for the three-state benchmark.

    u1 = -(b^3 p / (4 b^3 p + 2)) (x1 + x3 cos x2) completes the square in
    the first channel; u2 = -(x2 + x3/(1+|x3|)) / 2 centres the quartic
    channel.  With b^3 = 8/5 and p = 1/16 the first coefficient is exactly
    1/24.
    """
    b3p = EXAMPLE2_BETA ** 3 * EXAMPLE2_P
    coef = b3p / (4.0 * b3p + 2.0)

    def fn(X, k):
        x1, x2, x3 = X[..., 0], X[..., 1], X[..., 2]
        return np.stack([
            -coef * (x1 + x3 * np.cos(x2)),
            -0.5 * (x2 + _saturation(x3)),
        ], axis=-1)

    return FeedbackLaw(fn, 2, kind="builtin-example2",
                       spec={"kind": "builtin-example2",
                             "beta": EXAMPLE2_BETA, "p": EXAMPLE2_P,
                             "u1_coef": coef})


def example2_ensemble():
    """Default two-channel disturbance family for the closed-loop runs."""
    return DisturbanceEnsemble.decaying_sine(
        2, decay=0.98, freqs=[0.3, 0.37], phases=[0.0, 0.9],
        amp_range=(0.5, 1.5))


def noise_from_config(block) -> NoiseModel:
    return NoiseModel.from_spec(block)


def system_from_config(block, noise=None):
    """Resolve a schema-valid config system block to (system, tier name).

    ``noise`` is an optional NoiseModel from the top-level noise block; it
    overrides the default driving noise where the benchmark leaves it open.
    Callers read the tier as ``n_u`` and ``LinearSystem``; the name stays
    only because bench/setup_probe.py unpacks a pair.
    """
    if "linear" in block:
        lin = block["linear"]
        return LinearSystem(lin["A"], lin["A0"], lin["B"], lin["C"], lin["D"],
                            noise=noise), "linear"
    if block["builtin"] == "example1":
        return example1_system(**block.get("params", {}), noise=noise), "affine"
    if noise is not None:
        raise ConfigurationError(
            "noise: example2's driving noise is part of the benchmark")
    return example2_plant(), "controlled"


def storage_from_config(block):
    """The storage candidate of a schema-valid config storage block."""
    if "quadratic" in block:
        return QuadraticStorage(block["quadratic"]["P"])
    if "separable" in block:
        return SeparableStorage(block["separable"]["p"], block["separable"]["d"])
    if block["builtin"] == "example1":
        return example1_storage(float(block.get("p", 4.0)))
    return example2_storage()


def law_from_config(block) -> FeedbackLaw:
    """The feedback law of a schema-valid config law block."""
    if "linear_gain" in block:
        return FeedbackLaw.linear_gain(block["linear_gain"]["K"])
    if "zero" in block:
        return FeedbackLaw.zero(int(block["zero"]))
    return example2_law()


def ensemble_from_config(block, n_v) -> DisturbanceEnsemble:
    """The ensemble of a schema-valid config disturbance block."""
    kind = block["kind"]
    if kind == "white":
        return DisturbanceEnsemble.white(n_v, std=float(block.get("std", 0.5)))
    if kind == "zero":
        return DisturbanceEnsemble.fixed(DisturbancePolicy.zero(n_v))
    try:
        if kind == "decaying-sine":
            return DisturbanceEnsemble.decaying_sine(
                n_v,
                decay=float(block.get("decay", 0.98)),
                freqs=block.get("freqs"),
                phases=block.get("phases"),
                amp_range=tuple(block.get("amp_range", (0.5, 1.5))),
            )
        if kind == "recorded":
            key, policy = "values", DisturbancePolicy.recorded(block["values"])
        else:
            key, policy = "vector", DisturbancePolicy.impulse(
                int(block["step"]), block["vector"])
    except ConfigurationError as exc:  # the message names the key
        raise ConfigurationError(f"ensemble.disturbance.{exc}") from None
    if policy.n_v != n_v:
        raise ConfigurationError(f"ensemble.disturbance.{key}: {policy.n_v} "
                                 f"values per step for n_v = {n_v}")
    return DisturbanceEnsemble.fixed(policy)
