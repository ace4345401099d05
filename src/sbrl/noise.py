"""i.i.d. driving noise and the expectation engine.

The driving sequence is a d-dimensional i.i.d. process whose coordinates are
mutually independent, each drawn from one of four elementary distributions
(uniform, gaussian, point mass, rademacher).  Expectations E[phi(omega)] are
evaluated either by seeded Monte Carlo or, for integrands declared as
polynomials in omega, exactly from raw moments of any order.  Both
take a block of sweep points, a ``PointDraws`` or one row per point, and
give each point the bits of that point evaluated alone.

All randomness is reproducible: sampling is a pure function of
(model, seed, count) and sub-streams are derived with a splitmix64 hash so
that ensemble results do not depend on evaluation order or worker count.
A seed's stream is that of ``np.random.default_rng(seed)``; a sweep seeds
all its points from one table of numpy's SeedSequence hash, computed on
all their seeds at once, instead of hashing each seed on its own.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EvaluationError

_MASK64 = (1 << 64) - 1


def splitmix64(z):
    """One splitmix64 mixing step (unsigned 64-bit), on a Python int or
    elementwise on a uint64 array."""
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


def point_seeds(seed, points):
    """``derive_seed(seed, hash_point(x))`` for each point x, as a uint64
    array: splitmix64 is pure 64-bit arithmetic, so it runs on all the
    points' hashes at once."""
    hashes = np.array([hash_point(x) for x in points], dtype=np.uint64)
    return splitmix64(np.uint64(int(seed) & _MASK64) ^ splitmix64(hashes))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def seed_table(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)``, the four words
    numpy seeds a PCG64 from, for each 64-bit seed s, as one C-order
    (len(seeds), 4) uint64 table.

    numpy's hash is uint32 arithmetic; here it runs masked in uint64
    arrays on all the seeds at once.  A seed below 2**32 is one entropy
    word; the pool then hashes a zero in place of the second word, which
    is what a zero high word hashes to, so every seed is taken as its two
    words."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(seeds & _MASK32), hashmix(seeds >> 32), hashmix(0),
            hashmix(0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])) \
                    & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    return np.stack([words[2 * k] | words[2 * k + 1] << 32
                     for k in range(4)], axis=1)


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def streams(seeds, table=None, rng=None):
    """A generator at the start of the stream of ``np.random.default_rng(s)``
    for each seed s in turn: the one seeding path of every draw.

    Given the seeds' ``seed_table`` and an owned PCG64 ``Generator``
    ``rng``, it sets ``rng`` to each seed's state, PCG64's srandom on the
    table row (about 5 us), so each generator is valid until the next is
    taken.  Without a table each seed is hashed by numpy (about 20 us),
    quicker for a lone seed than the ~150 numpy calls of a one-row table
    (about 240 us; a 256-row table takes about 320 us).
    """
    if table is None:
        for s in seeds:
            yield np.random.default_rng(int(s) & _MASK64)
        return
    for a, b, c, d in table.tolist():
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        yield rng


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
        """E[w^k] by m_k = mu m_{k-1} + (k-1) s^2 m_{k-2} from m_0 = 1 and
        m_1 = mu (Winkelbauer, arXiv:1209.4340)."""
        prev, m = 1.0, (self.mean if k else 1.0)
        for j in range(2, k + 1):
            prev, m = m, self.mean * m + (j - 1) * self.variance * prev
        return m

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

        Deterministic in (model, seed, count): the stream of
        ``np.random.default_rng(seed)``, each coordinate filled in place as
        one column of a column-major matrix.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        out = np.empty((self.dim, count))
        self.fill(next(streams([seed])), out)
        out = out.T
        out.flags.writeable = False
        return out

    def fill(self, rng, rows):
        """Draw into the (dim, count) array ``rows``, coordinate by
        coordinate, each row in place."""
        for c, row in zip(self.components, rows):
            c.fill(rng, row)

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

    def __post_init__(self):
        if self.mode not in ("monte-carlo", "closed-form"):
            raise ConfigurationError(f"unknown expectation mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.samples < 1:
            raise ConfigurationError("monte-carlo needs samples >= 1")

    def with_seed(self, seed: int) -> "ExpectationScheme":
        return ExpectationScheme(self.mode, self.samples, int(seed) & _MASK64, self.antithetic)

    def at(self, point) -> "ExpectationScheme":
        """The scheme at one sweep point: Monte Carlo gets a seed derived
        from the point, so sweeps do not depend on their order."""
        if self.mode == "closed-form":
            return self
        return self.with_seed(int(point_seeds(self.seed, [point])[0]))

    def draws_at(self, points) -> "PointDraws | None":
        """The draws of sweep points, each from its own seed; None in
        closed form."""
        if self.mode == "closed-form":
            return None
        return PointDraws(self, point_seeds(self.seed, points))

    def point_draws(self) -> "PointDraws | None":
        """The draws of this scheme's own seed; None in closed form."""
        if self.mode == "closed-form":
            return None
        return PointDraws(self, [self.seed])

    def draws_per_point(self) -> int:
        """Rows per point: ceil(samples / 2) draw pairs when antithetic,
        one in closed form."""
        if self.mode == "closed-form":
            return 1
        return (self.samples + 1) // 2 if self.antithetic else self.samples

    def points_per_block(self) -> int:
        """Sweep points evaluated together: as many as SWEEP_ROWS rows hold,
        at least one."""
        return max(1, SWEEP_ROWS // self.draws_per_point())

    def spec(self):
        """The provenance record: the mode alone in closed form, which reads
        no draw."""
        if self.mode == "closed-form":
            return {"mode": self.mode}
        return {
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "antithetic": self.antithetic,
        }


class PointDraws:
    """The Monte Carlo draws of consecutive sweep points under one scheme.

    Point i draws the stream of ``np.random.default_rng(seeds[i])``.  Two
    or more points are seeded from one ``seed_table`` and one owned
    generator, which every ``block`` of them shares; ``draws`` fills a
    noise model's draws of every point on first use, and every functional
    at the block shares them until the block is dropped.
    """

    def __init__(self, scheme, seeds, table=None, rng=None):
        self.scheme = scheme
        self.seeds = seeds
        if table is None and len(seeds) > 1:
            table = seed_table(seeds)
            rng = np.random.Generator(np.random.PCG64(0))
        self._table, self._rng = table, rng
        self._filled = {}

    def __len__(self):
        return len(self.seeds)

    def block(self, start, stop) -> "PointDraws":
        """Points start..stop-1, sharing the seeding and the draws filled
        so far."""
        if (start, stop) == (0, len(self)):
            return self
        part = PointDraws(self.scheme, self.seeds[start:stop],
                          self._table[start:stop], self._rng)
        part._filled = {noise: d[start:stop]
                        for noise, d in self._filled.items()}
        return part

    def draws(self, noise):
        """The draws of every point as a read-only (points, N, dim) view of
        one (points, dim, N) buffer: point i's coordinates are contiguous
        rows, drawn in the order of ``NoiseModel.sample``, so point i's
        (N, dim) matrix is ``noise.sample(seeds[i], N)`` bit for bit."""
        out = self._filled.get(noise)
        if out is None:
            buf = np.empty((len(self), noise.dim,
                            self.scheme.draws_per_point()))
            for rows, rng in zip(buf, streams(self.seeds, self._table,
                                              self._rng)):
                noise.fill(rng, rows)
            out = self._filled[noise] = buf.transpose(0, 2, 1)
            out.flags.writeable = False
        return out


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
    require_finite(noise, scheme.point_draws(), vals[None])
    mean, se = mean_and_error(vals, 0)
    return Estimate(float(mean), float(se))


def require_finite(noise, points, values):
    """Raise ``EvaluationError`` at the first non-finite sample of the
    (points, N) values that ``sample_block`` gave for the ``PointDraws``
    ``points``, in point order, with that sample's draw as ``point``."""
    bad = ~np.isfinite(values)
    if bad.any():
        p, i = divmod(int(np.argmax(bad)), values.shape[1])
        raise EvaluationError(f"integrand non-finite at sample {i}",
                              point=points.draws(noise)[p, i].copy())


def mean_and_error(values, axis):
    """Sample mean and standard error std(ddof=1) / sqrt(n) along ``axis``
    (an error of 0 for one sample), from one mean pass: the operations of
    ``values.mean`` and ``values.std(ddof=1)``, so the same bits.  Reducing
    a row of a C-order block along its last sample axis gives the bits of
    reducing that row alone."""
    n = values.shape[axis]
    mean = np.add.reduce(values, axis, keepdims=True) / n
    if n < 2:
        return mean.squeeze(axis), np.zeros_like(mean.squeeze(axis))
    dev = values - mean
    dev *= dev
    se = np.sqrt(np.add.reduce(dev, axis) / (n - 1)) / math.sqrt(n)
    return mean.squeeze(axis), se


# Draw rows per ``fn`` call in ``sample_block``: a block of sweep points
# (``ExpectationScheme.points_per_block``) pays its Python and numpy call
# overhead once for all its points, and a point with more draws is split
# into near-equal row chunks of at most this many, which keeps every
# temporary of an integrand cache-sized instead of draw-matrix-sized.  On
# the sweep-mc check (8001 points x 2000 draws, 2-vCPU x86-64 host,
# medians of 5 alternating in-process runs) blocks of 8192, 16384 and
# 24576 rows took 2.03, 1.60 and 1.86 s; every block row also costs peak
# memory (64 points of 2000 draws: +4.3 MB).
SWEEP_ROWS = 16384


def sample_values(noise: NoiseModel, scheme: ExpectationScheme, fn):
    """One value of ``fn(draws)`` per independent sample: ``sample_block``
    at one point, whose (N, dim) draws ``fn`` gets in row chunks."""
    return sample_block(noise, scheme.point_draws(),
                        lambda draws: fn(draws[0]))[0]


def sample_block(noise: NoiseModel, points, fn):
    """One value of ``fn`` per independent Monte Carlo sample of each point
    of a block, as a C-order (points, N, ...) array, so
    ``mean_and_error(values, 1)`` reduces each point as it would alone.

    ``points`` is the block's ``PointDraws``.  ``fn`` maps the draws as
    (points, N', dim) to one value of any shape per (point, draw) row,
    flattened point-major; it must be row-wise, so the split into calls
    changes no bit.  Its states are (points, 1, n) rows, which broadcast
    against the draws, so a state factor is formed once per point.  The
    caller keeps a block of several points within SWEEP_ROWS draw rows;
    the draws of one point are split into ceil(N / SWEEP_ROWS)
    near-equal chunks, never a small remainder, and one chunk is one call
    whose result is returned as is.  An antithetic scheme draws
    ceil(samples/2) vectors per point and returns the mean of each (draw,
    mirrored draw) pair: the pair means are the independent samples, so
    their spread gives the standard error, and an integrand that is odd
    bit for bit (a linear one; numpy's ``w ** 3`` is not) averages to
    exactly zero.
    """
    draws = points.draws(noise)
    count, n = draws.shape[:2]
    chunks = min(n, -(-count * n // SWEEP_ROWS))
    cuts = [n * c // chunks for c in range(chunks + 1)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        part = _paired(noise, points.scheme, fn, draws[:, lo:hi])
        parts.append(part.reshape(count, hi - lo, *part.shape[1:]))
    return parts[0] if chunks == 1 else np.concatenate(parts, axis=1)


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


def expected_affine_power(c0, coeffs, power: int, noise: NoiseModel):
    """Exact E[(c0 + sum_j coeffs[..., j] * omega_j)^power] at each row, c0
    (...) and coeffs (..., dim).

    The coordinates are independent, so bringing one more into y gives
    E[(y + c w)^k] = sum_r C(k, r) E[y^(k-r)] c^r E[w^r]: one pass per
    coordinate over the powers 0..power, dim * power^2 / 2 row products
    where the expansion has C(power + dim, dim) terms."""
    c0 = np.asarray(c0, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    d = noise.dim
    if coeffs.shape[-1:] != (d,):
        raise ConfigurationError(f"need {d} coefficients, got {coeffs.shape}")

    def bring_in(sums, scaled):
        # a float binomial: a Python int past 2**63 does not enter numpy
        return [sum(float(math.comb(k, r)) * (sums[k - r] * scaled[r])
                    for r in range(k + 1)) for k in range(power + 1)]

    # E[y^k] for k = 0..power, y = c0 to start
    mean = [c0 ** k for k in range(power + 1)]
    for j in range(d):
        # c^r E[w^r] for r = 0..power
        mean = bring_in(mean, [coeffs[..., j] ** r * noise.moment(j, r)
                               for r in range(power + 1)])
    return mean[power]


def _gram_rows(G, P, H=None):
    """g' P h for each (n, n_v) gain row g of G and h of H (default G), as
    the sum over (i, l) of (g_i' P_il) h_l in column ufuncs: a row has the
    same bits in a call of any size (an einsum or a matmul does not)."""
    H = G if H is None else H
    out = None
    for i, p_row in enumerate(P):
        for l, p in enumerate(p_row):
            term = (G[..., i, :, None] * p) * H[..., l, None, :]
            if out is None:
                out = term
            else:
                out += term
    return out


def expected_gram(P, G0, Gs, noise: NoiseModel):
    """Exact E[g' P g] for g = G0 + sum_j Gs[j] * omega_j at each of the
    (..., n, n_v) gain rows, each product a ``_gram_rows`` sum; a part
    that is zero at every row adds only zero terms and is skipped."""
    P = np.asarray(P, dtype=float)
    G0 = np.asarray(G0, dtype=float)
    d = noise.dim
    if len(Gs) != d:
        raise ConfigurationError(f"need {d} matrix parts, got {len(Gs)}")
    Gs = [np.asarray(G, dtype=float) for G in Gs]
    m1 = [noise.moment(j, 1) for j in range(d)]
    m2 = [noise.moment(j, 2) for j in range(d)]
    total = _gram_rows(G0, P)
    live = [j for j, G in enumerate(Gs) if G.any()]
    for n, j in enumerate(live):
        Gj = Gs[j]
        total = total + m1[j] * (_gram_rows(G0, P, Gj) + _gram_rows(Gj, P, G0))
        total = total + m2[j] * _gram_rows(Gj, P)
        for i in live[:n]:
            total = total + m1[i] * m1[j] * (_gram_rows(Gs[i], P, Gj)
                                             + _gram_rows(Gj, P, Gs[i]))
    return total
