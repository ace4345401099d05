"""i.i.d. driving noise and the expectation engine.

The driving sequence is a d-dimensional i.i.d. process whose coordinates are
mutually independent, each drawn from one of four elementary distributions
(uniform, gaussian, point mass, rademacher).  Expectations E[phi(omega)] are
evaluated either by seeded Monte Carlo or, for integrands declared as
polynomials in omega of total degree <= 4, exactly from raw moments.

All randomness is reproducible: sampling is a pure function of
(model, seed, count) and sub-streams are derived with a splitmix64 hash so
that ensemble results do not depend on evaluation order or worker count.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EvaluationError

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 mixing step (unsigned 64-bit)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Sub-seed for stream ``index``, independent of evaluation order."""
    return splitmix64((int(seed) & _MASK64) ^ splitmix64(int(index) & _MASK64))


def hash_point(x) -> int:
    """Stable 64-bit hash of a float vector, for per-point sub-seeding."""
    buf = np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "big")


class _Distribution:
    """One scalar noise coordinate: sampling, mirroring and raw moments."""

    mirror_sum = 0.0  # twice the symmetry point: a draw w mirrors to it - w

    def moment(self, k: int) -> float:
        raise NotImplementedError

    def fill(self, rng, out):
        """Draw len(out) values into the 1-D array ``out``, in place."""
        raise NotImplementedError


class Uniform(_Distribution):
    def __init__(self, lo, hi):
        if not (lo < hi and math.isfinite(hi - lo)):  # rng.uniform's bounds
            raise ConfigurationError(f"uniform requires finite lo < hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.mirror_sum = self.lo + self.hi

    def moment(self, k):
        if k == 0:
            return 1.0
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def fill(self, rng, out):
        # lo + (hi - lo) * u, the arithmetic of rng.uniform
        rng.random(out=out)
        out *= self.hi - self.lo
        out += self.lo


class Gaussian(_Distribution):
    def __init__(self, mean, variance):
        if variance < 0:
            raise ConfigurationError(f"gaussian requires variance >= 0, got {variance}")
        self.mean = float(mean)
        self.variance = float(variance)
        self.mirror_sum = 2.0 * self.mean

    def moment(self, k):
        mu, s2 = self.mean, self.variance
        if k == 0:
            return 1.0
        if k == 1:
            return mu
        if k == 2:
            return mu * mu + s2
        if k == 3:
            return mu ** 3 + 3 * mu * s2
        if k == 4:
            return mu ** 4 + 6 * mu * mu * s2 + 3 * s2 * s2
        raise ConfigurationError(f"gaussian raw moment of order {k} not supported")

    def fill(self, rng, out):
        rng.standard_normal(out=out)
        out *= math.sqrt(self.variance)
        out += self.mean


class PointMass(_Distribution):
    def __init__(self, value):
        self.value = float(value)
        self.mirror_sum = 2.0 * self.value  # 2v - v is v exactly

    def moment(self, k):
        return self.value ** k

    def fill(self, rng, out):
        out.fill(self.value)


class Rademacher(_Distribution):
    def moment(self, k):
        return 1.0 if k % 2 == 0 else 0.0

    def fill(self, rng, out):
        np.multiply(rng.integers(0, 2, len(out)), 2.0, out=out)
        out -= 1.0


def _parse_component(entry):
    if entry == "rademacher":
        return Rademacher()
    if isinstance(entry, dict) and len(entry) == 1:
        kind, params = next(iter(entry.items()))
        if kind == "uniform":
            return Uniform(*params)
        if kind == "gaussian":
            return Gaussian(*params)
        if kind == "point_mass":
            return PointMass(params)
        if kind == "rademacher":
            return Rademacher()
    raise ConfigurationError(f"unknown noise component spec: {entry!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Distribution of one step's noise vector omega_k (independent coords)."""

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise ConfigurationError("noise model needs at least one component")
        for c in self.components:
            if not isinstance(c, _Distribution):
                raise ConfigurationError(f"not a distribution: {c!r}")

    @property
    def dim(self) -> int:
        return len(self.components)

    def moment(self, coord: int, k: int) -> float:
        return self.components[coord].moment(k)

    def sample(self, seed: int, count: int):
        """Draw ``count`` i.i.d. vectors as a read-only (count, dim) matrix.

        Deterministic in (model, seed, count); each coordinate is filled in
        place as one column of a column-major matrix.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        out = np.empty((count, self.dim), order="F")
        rng = np.random.default_rng(int(seed) & _MASK64)
        for j, c in enumerate(self.components):
            c.fill(rng, out[:, j])
        out.flags.writeable = False
        return out

    def mirror(self, draws):
        """Reflect draws about each coordinate's symmetry point (read-only)."""
        out = np.subtract([c.mirror_sum for c in self.components], draws)
        out.flags.writeable = False
        return out

    @staticmethod
    def from_spec(block):
        comps = tuple(_parse_component(e) for e in block["components"])
        if "dim" in block and int(block["dim"]) != len(comps):
            raise ConfigurationError(
                f"noise.dim = {block['dim']} but {len(comps)} components given"
            )
        return NoiseModel(comps)


def gaussian_noise(mean=0.0, variance=1.0, dim=1) -> NoiseModel:
    return NoiseModel(tuple(Gaussian(mean, variance) for _ in range(dim)))


def point_mass_noise(value=0.0, dim=1) -> NoiseModel:
    return NoiseModel(tuple(PointMass(value) for _ in range(dim)))


@dataclass(frozen=True)
class ExpectationScheme:
    """How E[.] is evaluated: seeded Monte Carlo or exact moments."""

    mode: str = "monte-carlo"
    samples: int = 10_000
    seed: int = 0
    antithetic: bool = False
    _draws: dict | None = field(default=None, init=False, compare=False,
                                repr=False)

    def __post_init__(self):
        if self.mode not in ("monte-carlo", "closed-form"):
            raise ConfigurationError(f"unknown expectation mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.samples < 1:
            raise ConfigurationError("monte-carlo needs samples >= 1")

    def with_seed(self, seed: int) -> "ExpectationScheme":
        return ExpectationScheme(self.mode, self.samples, int(seed) & _MASK64, self.antithetic)

    def at(self, point) -> "ExpectationScheme":
        """The scheme at one sweep point: Monte Carlo gets a seed derived
        from the point, so sweeps do not depend on their order, and keeps
        its draws, so H1 and G_beta at a point draw once."""
        if self.mode == "closed-form":
            return self
        scheme = self.with_seed(derive_seed(self.seed, hash_point(point)))
        object.__setattr__(scheme, "_draws", {})
        return scheme

    def draws_per_point(self) -> int:
        """Draw rows per point: ceil(samples / 2) pairs when antithetic."""
        return (self.samples + 1) // 2 if self.antithetic else self.samples

    def points_per_block(self) -> int:
        """Sweep points evaluated together: as many as SWEEP_ROWS draw rows
        hold, at least one; a closed-form scheme draws nothing and takes
        one point at a time."""
        if self.mode == "closed-form":
            return 1
        return max(1, SWEEP_ROWS // self.draws_per_point())

    def _draw(self, noise, count):
        """``noise.sample(self.seed, count)``, kept if the scheme is a point's."""
        if self._draws is None:
            return noise.sample(self.seed, count)
        if (noise, count) not in self._draws:
            self._draws[noise, count] = noise.sample(self.seed, count)
        return self._draws[noise, count]

    def spec(self):
        return {
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "antithetic": self.antithetic,
        }


@dataclass(frozen=True)
class Estimate:
    """A scalar estimate with its standard error (0 for exact paths).

    ``lower_bound_only`` marks values that bound the true quantity from
    below (sampled suprema); such values can falsify but never certify an
    upper-bound claim.
    """

    value: float
    std_error: float = 0.0
    lower_bound_only: bool = False


MAX_POLY_DEGREE = 4


class OmegaPolynomial:
    """Polynomial in the noise coordinates, as {exponent tuple: coefficient}.

    Doubles as a vectorised Monte Carlo integrand, so the same object can be
    pushed through both expectation routes.
    """

    def __init__(self, dim: int, terms):
        self.dim = int(dim)
        clean = {}
        for exps, coef in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.dim or any(e < 0 for e in exps):
                raise ConfigurationError(f"bad exponent tuple {exps}")
            clean[exps] = clean.get(exps, 0.0) + float(coef)
        self.terms = clean

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, draws):
        draws = np.asarray(draws, dtype=float)
        out = np.zeros(draws.shape[0])
        for exps, coef in self.terms.items():
            term = np.full(draws.shape[0], coef)
            for j, e in enumerate(exps):
                # repeated products, so an odd power of -w is exactly -(w^e)
                for _ in range(e):
                    term = term * draws[:, j]
            out += term
        return out

    def expectation(self, noise: NoiseModel) -> float:
        if self.degree > MAX_POLY_DEGREE:
            raise ConfigurationError(
                f"closed-form mode supports degree <= {MAX_POLY_DEGREE}, "
                f"got {self.degree}"
            )
        total = 0.0
        for exps, coef in self.terms.items():
            prod = coef
            for j, e in enumerate(exps):
                if e:
                    prod *= noise.moment(j, e)
            total += prod
        return total


def expect(noise: NoiseModel, scheme: ExpectationScheme, integrand) -> Estimate:
    """Evaluate E[integrand(omega)] under the given scheme.

    Monte Carlo integrands receive row blocks of the (N, dim) draw matrix
    and must return one value per row.  Closed-form mode requires an
    OmegaPolynomial.
    """
    if scheme.mode == "closed-form":
        if not isinstance(integrand, OmegaPolynomial):
            raise ConfigurationError(
                "closed-form expectation needs a declared polynomial integrand"
            )
        return Estimate(integrand.expectation(noise), 0.0)

    vals = sample_values(noise, scheme,
                         lambda draws: _eval_integrand(integrand, draws))
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(f"integrand non-finite at sample {i}",
                              point=scheme._draw(noise, len(vals))[i].copy())
    mean, se = mean_and_error(vals, 0)
    return Estimate(float(mean), float(se))


def mean_and_error(values, axis):
    """Sample mean and standard error std(ddof=1) / sqrt(n) along ``axis``
    (an error of 0 for one sample).  Reducing a row of a C-order block
    along its last sample axis gives the bits of reducing that row alone."""
    n = values.shape[axis]
    mean = values.mean(axis=axis)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=axis, ddof=1) / math.sqrt(n)


# Rows per ``fn`` call in ``sample_values``: blocks this size keep every
# temporary of an integrand cache-sized instead of draw-matrix-sized.
BLOCK_ROWS = 8192

# Draw rows of one block of sweep points (``ExpectationScheme.
# points_per_block``): a block pays its Python and numpy call overhead
# once for all its points.  On the sweep-mc check (8001 points x 2000
# draws, 2-vCPU x86-64 host, medians of 5 alternating in-process runs)
# blocks of 8192, 16384 and 24576 rows took 2.03, 1.60 and 1.86 s; every
# block row also costs peak memory (64 points of 2000 draws: +4.3 MB).
SWEEP_ROWS = 16384


def sample_values(noise: NoiseModel, scheme: ExpectationScheme, fn):
    """One value of ``fn`` per independent Monte Carlo sample.

    ``fn`` maps a row block of the (N, dim) draw matrix to one value of any
    shape per row; it must be row-wise, so blocks change no bit.  N is split
    into ceil(N / BLOCK_ROWS) near-equal blocks, never a small remainder,
    and N <= BLOCK_ROWS gives one call whose result is returned as is.  An
    antithetic scheme draws ceil(samples/2) vectors and returns the mean of
    each (draw, mirrored draw) pair: the pair means are the independent
    samples, so their spread gives the standard error, and an integrand
    that is odd bit for bit (a linear one; numpy's ``w ** 3`` is not)
    averages to exactly zero.
    """
    n = scheme.draws_per_point()
    draws = scheme._draw(noise, n)
    blocks = -(-n // BLOCK_ROWS)
    if blocks == 1:
        return _paired(noise, scheme, fn, draws)
    return np.concatenate([
        _paired(noise, scheme, fn, draws[n * b // blocks:n * (b + 1) // blocks])
        for b in range(blocks)])


def sample_block(noise: NoiseModel, schemes, states, fn):
    """``sample_values`` at a block of points in one call of ``fn``.

    ``schemes[i]`` is point i's scheme (all alike but for their seeds) and
    ``states[i]`` its row of per-point data.  Each point draws its own
    matrix, in point order; the draws are stacked point-major and ``fn``
    maps (the state rows, each repeated once per draw, the stacked draw
    rows) to one value per row.  Returns the values as a C-order
    (points, N, ...) array, so ``mean_and_error(values, 1)`` reduces
    each point as ``sample_values`` and ``expect`` would alone.  The
    caller keeps the block within SWEEP_ROWS draw rows.
    """
    n = schemes[0].draws_per_point()
    draws = np.stack([s._draw(noise, n) for s in schemes])
    draws = draws.reshape(-1, noise.dim)
    rows = np.repeat(states, n, axis=0)
    vals = _paired(noise, schemes[0], lambda w: fn(rows, w), draws)
    return vals.reshape(len(schemes), n, *vals.shape[1:])


def _paired(noise, scheme, fn, draws):
    """``fn`` on the draws, averaged with its mirror image when antithetic."""
    if not scheme.antithetic:
        return fn(draws)
    return 0.5 * (fn(draws) + fn(noise.mirror(draws)))


def _eval_integrand(integrand, draws):
    vals = np.asarray(integrand(draws), dtype=float)
    if vals.shape != (draws.shape[0],):
        raise ConfigurationError(
            f"integrand returned shape {vals.shape}, expected ({draws.shape[0]},)"
        )
    return vals


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(k, exps):
    num = math.factorial(k)
    for e in exps:
        num //= math.factorial(e)
    return num


def expected_affine_power(c0: float, coeffs, power: int, noise: NoiseModel) -> float:
    """Exact E[(c0 + sum_j coeffs[j] * omega_j)^power] for power <= 4."""
    if power > MAX_POLY_DEGREE:
        raise ConfigurationError(f"power {power} exceeds {MAX_POLY_DEGREE}")
    coeffs = np.asarray(coeffs, dtype=float)
    d = noise.dim
    if coeffs.shape != (d,):
        raise ConfigurationError(f"need {d} coefficients, got {coeffs.shape}")
    total = 0.0
    for exps in _compositions(power, d + 1):
        e0, erest = exps[0], exps[1:]
        term = _multinomial(power, exps) * c0 ** e0
        for j, e in enumerate(erest):
            if e:
                term *= coeffs[j] ** e * noise.moment(j, e)
        total += term
    return total


def expected_gram(P, G0, Gs, noise: NoiseModel):
    """Exact E[g^T P g] for g = G0 + sum_j Gs[j] * omega_j (matrix valued)."""
    P = np.asarray(P, dtype=float)
    G0 = np.asarray(G0, dtype=float)
    d = noise.dim
    if len(Gs) != d:
        raise ConfigurationError(f"need {d} matrix parts, got {len(Gs)}")
    m1 = [noise.moment(j, 1) for j in range(d)]
    m2 = [noise.moment(j, 2) for j in range(d)]
    total = G0.T @ P @ G0
    for j in range(d):
        Gj = np.asarray(Gs[j], dtype=float)
        total = total + m1[j] * (G0.T @ P @ Gj + Gj.T @ P @ G0)
        total = total + m2[j] * (Gj.T @ P @ Gj)
        for i in range(j):
            Gi = np.asarray(Gs[i], dtype=float)
            total = total + m1[i] * m1[j] * (Gi.T @ P @ Gj + Gj.T @ P @ Gi)
    return total
