"""Candidate storage functions and their structural checks.

Three candidate forms are supported: quadratic x'Px with P symmetric
positive definite, separable sums of positive-weighted even powers, and
arbitrary user scalar fields; each is one map over (N, dim) rows.
Convexity is checked by sampled quarter/mid/three-quarter-point
inequalities so that non-smooth candidates are admissible; the quadratic
growth bound V(x) <= c2 |x|^2 is probed by ratio sampling with an exact
eigenvalue path for quadratics.

The constructive storage function sums expected squared output norms along
zero-disturbance trajectories, truncated at a configurable horizon with a
tail-mass diagnostic.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .certificates import Certificate, Rows, _jsonable, sweep
from .dynamics import rollout
from .errors import ConfigurationError, EvaluationError
from .noise import derive_seed, hash_point

NEAR_ZERO_RADIUS = 1e-9
BOUNDARY_FRACTION = 1e-9  # a point this close, relative to the span, is on it


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned sampling box with a declared sampling plan.

    ``plan`` is ("grid", points_per_axis) or ("random", count, seed).
    The underlying inequalities quantify over all of R^n; every certificate
    in this toolkit is scoped to a box like this one.
    """

    lo: tuple
    hi: tuple
    plan: tuple = ("grid", 11)

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ConfigurationError("lo and hi must have the same length")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ConfigurationError(f"need lo < hi per axis, got [{a}, {b}]")
        if self.plan[0] == "grid":
            if int(self.plan[1]) < 1:
                raise ConfigurationError("grid needs >= 1 point per axis")
            if int(self.plan[1]) ** len(lo) > 2_000_000:
                raise ConfigurationError("grid plan exceeds 2e6 samples")
        elif self.plan[0] == "random":
            if int(self.plan[1]) < 1:
                raise ConfigurationError("random plan needs count >= 1")
        else:
            raise ConfigurationError(f"unknown sampling plan {self.plan!r}")

    @property
    def dim(self):
        return len(self.lo)

    def points(self):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if self.plan[0] == "grid":
            ppa = int(self.plan[1])
            axes = [np.linspace(lo[j], hi[j], ppa) for j in range(self.dim)]
            return np.array(list(itertools.product(*axes)))
        return self.random_points(int(self.plan[1]), int(self.plan[2]))

    def random_points(self, count, seed):
        rng = np.random.default_rng(int(seed))
        return rng.uniform(np.asarray(self.lo), np.asarray(self.hi),
                           size=(count, self.dim))

    def on_boundary(self, x):
        x = np.asarray(x, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        tol = BOUNDARY_FRACTION * (hi - lo)
        return bool(np.any((x - lo) <= tol) or np.any((hi - x) <= tol))

    def label(self):
        box = " x ".join(f"[{a:g},{b:g}]" for a, b in zip(self.lo, self.hi))
        if self.plan[0] == "grid":
            return f"{box} grid({self.plan[1]}/axis)"
        return f"{box} random(n={self.plan[1]}, seed={self.plan[2]})"

    @staticmethod
    def from_spec(block):
        if "grid" in block:
            plan = ("grid", int(block["grid"]))
        elif "random" in block:
            plan = ("random", int(block["random"]["count"]), int(block["random"].get("seed", 0)))
        else:
            plan = ("grid", 11)
        return DomainBox(tuple(block["lo"]), tuple(block["hi"]), plan)


class StorageFunction:
    """Base candidate V with its convexity claim.

    ``evaluate_batch(X)`` maps (N, dim) rows to N values and is the one
    body of a candidate; V(x) at one point is its one-row call.
    """

    def __init__(self, dim, claims_convex=False):
        self.dim = int(dim)
        self.claims_convex = bool(claims_convex)

    def evaluate_batch(self, X):
        raise NotImplementedError

    def evaluate(self, x) -> float:
        return float(self.evaluate_batch(np.atleast_2d(x))[0])

    def evaluate_with_error(self, x):
        return self.evaluate(x), 0.0


class QuadraticStorage(StorageFunction):
    """V(x) = x' P x, P symmetric positive definite."""

    def __init__(self, P):
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if P.shape[0] != P.shape[1]:
            raise ConfigurationError("P must be square")
        if np.max(np.abs(P - P.T)) > 1e-10 * (1.0 + np.max(np.abs(P))):
            raise ConfigurationError("P must be symmetric")
        eigs = np.linalg.eigvalsh(P)
        if eigs[0] <= 0:
            raise ConfigurationError(f"P must be positive definite, min eig {eigs[0]:g}")
        self.P = 0.5 * (P + P.T)
        self._p_rows = self.P.tolist()
        self.lambda_max = float(eigs[-1])
        super().__init__(P.shape[0], claims_convex=True)

    def evaluate_batch(self, X):
        """sum_i x_i (sum_j P_ij x_j) per row, in column ufuncs only: a row
        gets the same bits in a call of any size (an einsum does not)."""
        cols = np.atleast_2d(np.asarray(X, dtype=float)).T
        out = None
        for i, p_row in enumerate(self._p_rows):
            inner = p_row[0] * cols[0]
            for j in range(1, self.dim):
                inner += p_row[j] * cols[j]
            inner *= cols[i]
            if out is None:
                out = inner
            else:
                out += inner
        return out

    def describe(self):
        return f"quadratic(P {self.P.shape[0]}x{self.P.shape[0]})"


class SeparableStorage(StorageFunction):
    """V(x) = sum_i p_i * x_i^{d_i}, p_i > 0 and d_i even integers >= 2."""

    def __init__(self, p, d):
        p = tuple(float(v) for v in p)
        d = tuple(int(v) for v in d)
        if len(p) != len(d):
            raise ConfigurationError("p and d must have the same length")
        if any(v <= 0 for v in p):
            raise ConfigurationError("all weights p_i must be positive")
        if any(e < 2 or e % 2 for e in d):
            raise ConfigurationError("all powers d_i must be even integers >= 2")
        self.p = p
        self.d = d
        super().__init__(len(p), claims_convex=True)

    def evaluate_batch(self, X):
        """sum_i p_i X[:, i]^d_i, x^d = (x*x)^(d/2) by repeated squaring in
        place: numpy's ``x ** 4`` calls libm pow, 10x slower on mixed signs."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0])
        sq, term = np.empty_like(out), np.empty_like(out)
        for i, (pi, di) in enumerate(zip(self.p, self.d)):
            np.multiply(X[:, i], X[:, i], out=sq)
            term.fill(1.0)
            for k in range((di // 2).bit_length()):  # bits of d/2, lowest first
                if k:
                    sq *= sq
                if di >> (k + 1) & 1:
                    term *= sq
            term *= pi
            out += term
        return out

    def describe(self):
        return f"separable(p={list(self.p)}, d={list(self.d)})"


class CustomStorage(StorageFunction):
    """User-supplied scalar field ``fn``, a map from (N, dim) rows to N
    values or to anything that broadcasts to them."""

    def __init__(self, fn, dim, claims_convex=False, claims_V0_zero=True,
                 label="custom"):
        super().__init__(dim, claims_convex)
        self._fn = fn
        self.label = label
        if claims_V0_zero:
            v0 = self.evaluate(np.zeros(dim))
            if abs(v0) > 1e-12:
                raise ConfigurationError(f"V(0) = {v0:g}, expected 0")

    def evaluate_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        vals = np.broadcast_to(np.asarray(self._fn(X), dtype=float), len(X))
        bad = ~np.isfinite(vals)
        if bad.any():
            raise EvaluationError("storage candidate returned a non-finite value",
                                  point=X[int(np.argmax(bad))].copy())
        return vals

    def describe(self):
        return self.label


@dataclass
class StorageProbe:
    value: float
    std_error: float
    tail_mass: float
    tail_ok: bool


class EstimatedStorage(StorageFunction):
    """Monte Carlo estimator of the constructive storage function of an
    internally stable system.

    V(x) is the truncated sum over k = 0..K of E |m(x_k)|^2 along
    zero-disturbance trajectories started at x.  Each row is probed with
    its own sub-seed from (seed, hash(x)), so a row's value does not depend
    on the other rows of a call, or on the order of calls.  A non-decaying
    tail (final-quarter mass above 10% of the total) flags possible
    internal instability.
    """

    def __init__(self, system, horizon, ensemble, seed):
        if horizon < 1 or ensemble < 1:
            raise ConfigurationError("horizon and ensemble must be >= 1")
        super().__init__(system.n)
        self.system = system
        self.horizon = int(horizon)
        self.ensemble = int(ensemble)
        self.seed = int(seed)

    def probe(self, x) -> StorageProbe:
        x = np.asarray(x, dtype=float)
        sub = derive_seed(self.seed, hash_point(x))
        K = self.horizon
        run = rollout(self.system, x, np.zeros((self.ensemble, K,
                                                self.system.n_v)),
                      [derive_seed(sub, i) for i in range(self.ensemble)])
        run.raise_divergence()
        m = self.system.output_m(run.states.reshape(-1, self.system.n))
        m_sq = np.sum(m * m, axis=1).reshape(self.ensemble, K + 1)
        totals = m_sq.sum(axis=1)
        profile = m_sq.sum(axis=0) / self.ensemble
        value = float(totals.mean())
        se = 0.0 if self.ensemble < 2 else float(totals.std(ddof=1) / np.sqrt(self.ensemble))
        total = profile.sum()
        tail = profile[(3 * (K + 1)) // 4:].sum()
        tail_mass = 0.0 if total == 0.0 else float(tail / total)
        return StorageProbe(value, se, tail_mass, tail_mass <= 0.10)

    def evaluate_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self.probe(x).value for x in X])

    def evaluate_with_error(self, x):
        p = self.probe(x)
        return p.value, p.std_error

    def describe(self):
        return (f"estimated(K={self.horizon}, N={self.ensemble}, "
                f"seed={self.seed}, system={self.system.name or 'anon'})")


_ALPHAS = (0.25, 0.5, 0.75)


def check_convex(V: StorageFunction, box: DomainBox, pairs: int,
                 seed: int) -> Certificate:
    """Sampled quarter/mid/three-quarter-point convexity check for V.

    The margin V(a x + (1-a) y) - a V(x) - (1-a) V(y) must stay <= 0, up to
    three propagated standard errors per sample: none for an exact candidate.
    """
    if pairs < 1:
        raise ConfigurationError("pairs must be >= 1")
    d = box.dim

    def with_error(Z):
        return np.array([V.evaluate_with_error(z) for z in Z]).reshape(-1, 2).T

    def midpoints(XY, _):
        # three rows per pair, in the order of _ALPHAS
        a = np.tile(_ALPHAS, len(XY))
        X, Y = np.repeat(XY[:, :d], 3, axis=0), np.repeat(XY[:, d:], 3, axis=0)
        mid = a[:, None] * X + (1.0 - a[:, None]) * Y
        (fx, sx), (fy, sy) = (np.repeat(c, 3, axis=1)
                              for c in (with_error(X[::3]), with_error(Y[::3])))
        fm, sm = with_error(mid)
        rhs = a * fx + (1.0 - a) * fy
        se = sm + a * sx + (1.0 - a) * sy
        return Rows(fm, lambda i: {"x": X[i], "y": Y[i], "alpha": a[i],
                                   "lhs": fm[i], "rhs": rhs[i]},
                    rhs, se, np.maximum(np.abs(fm), np.abs(rhs)),
                    slack=3.0 * se, index=np.repeat(np.arange(len(XY)), 3),
                    point=mid)

    pairs_xy = np.hstack([box.random_points(pairs, seed),
                          box.random_points(pairs, derive_seed(seed, 1))])
    prov = {"check": "convexity", "storage": V.describe(), "pairs": pairs,
            "seed": seed, "alphas": list(_ALPHAS)}
    cert, _ = sweep(pairs_xy, None,
                    {"midpoint": midpoints},
                    "V(ax+(1-a)y) <= a V(x) + (1-a) V(y)", box.label(), prov)
    return cert


@dataclass
class QuadBoundReport:
    """Smallest sampled constant with V(x) <= c2 |x|^2 over the box."""

    c2: float
    witness: np.ndarray | None
    boundary_attained: bool
    exact: bool

    def to_dict(self):
        return _jsonable(asdict(self))


def quad_bound(V: StorageFunction, box: DomainBox) -> QuadBoundReport:
    """Probe the quadratic growth constant c2 = sup V(x)/|x|^2.

    Quadratic candidates take the exact eigenvalue path.  For sampled
    candidates the report flags when the maximising sample sits on the box
    boundary, i.e. the ratio may still be growing outside the box.
    """
    if isinstance(V, QuadraticStorage):
        return QuadBoundReport(V.lambda_max, None, False, True)
    pts = box.points()
    norms_sq = np.einsum("ij,ij->i", pts, pts)
    keep = norms_sq >= NEAR_ZERO_RADIUS ** 2
    pts = pts[keep]
    norms_sq = norms_sq[keep]
    if pts.shape[0] == 0:
        raise ConfigurationError("no samples outside the near-zero exclusion ball")
    ratios = V.evaluate_batch(pts) / norms_sq
    i = int(np.argmax(ratios))
    witness = pts[i]
    return QuadBoundReport(
        c2=float(max(ratios[i], 0.0)),
        witness=witness.copy(),
        boundary_attained=box.on_boundary(witness),
        exact=False,
    )
