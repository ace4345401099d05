"""Certificate functionals and stability checks.

Implements the one-step difference functionals used throughout the
analysis:

  H0(V(x))     = E[V(f(x,w))] - V(x) + |m(x)|^2
  H1(V(x),b)   = (1/b) E[V(b f(x,w))] - V(x) + |m(x)|^2          (b > 1)
  G_b(V(x))    = sup_{v != 0} {((b-1)/b) E[V((b/(b-1)) g(x,w) v)] / |v|^2
                               + |m1(x) v|^2 / |v|^2}
  G0(V)        = sup_{v != 0} (E[V(g(0,w) v)] + |m1(0) v|^2) / |v|^2

on top of which sit the internal/external stability checks, the gamma-star
upper-bound search, the algebraic linear-case checks, and the empirical
gain falsifier.  All quantities come back as Estimate(value, std_error);
expectations follow the caller's ExpectationScheme, so a Monte Carlo and a
closed-form route through the same functional are independent, except
that a Monte Carlo separable G_beta reads the declared ``g_parts`` and takes
the closed-form value at each row whose gain has no noise part: a block of
such rows, as in the shipped example 2, draws nothing.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .certificates import Certificate, Rows, _jsonable, sweep
from .dynamics import (AffineSystem, LinearSystem, require_uncontrolled,
                       simulate_ensemble)
from .errors import ConfigurationError, EvaluationError, PreconditionError
from .noise import (Estimate, _gram_rows, expected_affine_power,
                    expected_gram, mean_and_error, require_finite,
                    sample_block)
from .storage import (DomainBox, QuadraticStorage, SeparableStorage,
                      quad_bound)


def eig_tolerance(X) -> float:
    """Tolerance for symmetric eigenvalue checks: 1e-9 * (1 + ||X||)."""
    return 1e-9 * (1.0 + float(np.linalg.norm(X, 2)))


def _eig_verdict(X):
    """The largest eigenvalue of the symmetrised matrix (X + X') / 2, its
    tolerance ``eig_tolerance(X)`` and whether it lies within it."""
    margin = float(np.linalg.eigvalsh(0.5 * (X + X.T))[-1])
    tol = eig_tolerance(X)
    return margin, tol, margin <= tol


def _require_affine(system, routine, plants=False):
    """Refuse the general tier, and a plant with a control input unless
    the routine takes ``plants``."""
    if not isinstance(system, AffineSystem):
        raise ConfigurationError(
            f"{routine} takes an affine system (AffineSystem), got the "
            f"general tier ({type(system).__name__}): use synth.h_k_general "
            "or synth.certify_controller_general")
    if not plants:
        require_uncontrolled(system, routine)


def _require_storage_dim(V, system):
    """Refuse a storage whose dimension differs from the system's."""
    if V.dim != system.n:
        raise ConfigurationError(
            f"storage: dimension {V.dim} for a {system.n}-state system")


def _require_beta(beta):
    """Refuse a convexity weight beta that does not exceed 1 (NaN too)."""
    if not beta > 1.0:
        raise ConfigurationError(f"beta must exceed 1, got {beta}")


def expected_value_of(V, noise, points, parts_fn, batch_fn, scale=1.0):
    """E[V(scale * y_i(w))] at each point i of a block as (mean, SE) arrays:
    under Monte Carlo from the block's ``PointDraws`` ``points``, with
    ``batch_fn(draws) -> (points, N, n)`` giving y on the (points, N, dim)
    draws (a non-finite sample raises as in ``require_finite``); in closed
    form (``points`` None) from ``parts_fn() -> (C0, [C_d])``, the declared
    y_i(w) = C0[i] + sum_d C_d[i] w_d as (points, n) rows, for quadratic or
    separable V of any powers, with SE 0; without ``parts_fn`` it raises."""
    if points is not None:
        vals = sample_block(noise, points, lambda draws: V.evaluate_batch(
            (scale * batch_fn(draws)).reshape(-1, V.dim)))
        require_finite(noise, points, vals)
        return mean_and_error(vals, 1)
    if parts_fn is None:
        raise ConfigurationError(
            "closed-form expectation needs declared noise structure; use a "
            "monte-carlo scheme instead")
    c0, cs = parts_fn()
    c0, cs = scale * c0, [scale * c for c in cs]
    if isinstance(V, QuadraticStorage):
        # E[y' P y] is the one-column case of E[g' P g]
        mean = expected_gram(V.P, c0[..., None], [c[..., None] for c in cs],
                             noise)[..., 0, 0]
    elif isinstance(V, SeparableStorage):
        mean = 0.0
        for i, (p, d) in enumerate(zip(V.p, V.d)):
            mean = mean + p * expected_affine_power(
                c0[..., i], np.stack([c[..., i] for c in cs], axis=-1), d,
                noise)
    else:
        raise ConfigurationError(
            "closed-form expectation needs a quadratic or separable storage")
    return mean, np.zeros_like(mean)


def _at_row(rows, x, scheme) -> Estimate:
    """The block form ``rows`` at the one row x from the scheme's draws."""
    found = rows(np.asarray(x, dtype=float)[None], scheme.point_draws())
    return Estimate(float(found.lhs[0]), float(found.std_error[0]),
                    found.lower_bound_only)


def _split_block(V, system, X, u_row, beta, points):
    """(1/b) E[V(b f(x,[u,]w))] - V(x) + |m(x[,u])|^2, its SE, V(x) and |m|^2
    as arrays over the rows of X, at the control row ``u_row`` or None: from
    the ``PointDraws`` ``points``, in closed form (None) from ``f_parts``."""
    mean, se = expected_value_of(
        V, system.noise, points, lambda: system.drift_parts(X, u_row),
        lambda draws: system.drift(X[:, None], u_row, draws), beta)
    vx, m_sq = V.evaluate_batch(X), _sq_norms(system.output_m(X, u_row))
    return mean / beta - vx + m_sq, se / beta, vx, m_sq


def h0(V, system, x, scheme) -> Estimate:
    """Internal-stability functional E[V(f(x,w))] - V(x) + |m(x)|^2."""
    _require_affine(system, "h0")
    return _at_row(_split_rows("H0", V, system, 1.0), x, scheme)


def h1(V, system, x, beta, scheme) -> Estimate:
    """Convexity-split internal functional (1/b) E[V(b f)] - V + |m|^2."""
    _require_affine(system, "h1")
    return convexity_split(V, system, x, None, beta, scheme)


def convexity_split(V, system, x, u, beta, scheme) -> Estimate:
    """(1/b) E[V(b f(x,[u,]w))] - V(x) + |m(x[,u])|^2: H1, and at a control
    row ``u`` (any sequence) of an affine plant the design functional H."""
    _require_beta(beta)
    _require_affine(system, "convexity_split", plants=True)
    u_row = None if u is None else np.asarray(u, dtype=float)[None]
    return _at_row(_split_rows("H1", V, system, beta, u_row), x, scheme)


def _sq_norms(M):
    """|m|^2 at each row m of M: one dot product per row, so a row has the
    bits of ``m @ m`` alone."""
    M = np.ascontiguousarray(M)
    return (M[:, None, :] @ M[:, :, None])[:, 0, 0]


def _m1_gram(system, X):
    """m1(x)' m1(x) at the rows of X: (rows, n_v, n_v)."""
    M1 = system.output_m1(X)
    return M1.swapaxes(-1, -2) @ M1


def _sup_eig(M):
    """lambda_max of each symmetrised (n_v, n_v) matrix of M, in one
    stacked eigvalsh; a non-finite M raises ``EvaluationError``."""
    if not np.isfinite(M).all():
        raise EvaluationError("gain gram non-finite")
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, -1, -2)))[..., -1]


def _gram_sup(system, X, P, c, points, rows=None):
    """lambda_max(c E[g'Pg] + m1'm1) and c ||SE||_2, SE the entrywise
    standard-error matrix of E[g'Pg], at each row of X, from the
    ``PointDraws`` ``points`` or in closed form (None) from ``g_parts``
    with SE 0: the quadratic-storage supremum of ``_gain_sup`` as two
    arrays, and separable storage's over its power-2 coordinates.  The
    supremum is +inf, with SE 0, at a row of X where a gain row g_i of
    the boolean mask ``rows`` (none by default) is excited, E[g_i'g_i] !=
    0, read from the same parts or the same samples of g: under Monte
    Carlo when some sampled g_i is nonzero."""
    if points is None:
        G0, Gs = system.gain_parts(X)
        sup = _sup_eig(c * expected_gram(P, G0, Gs, system.noise)
                       + _m1_gram(system, X))
        if rows is not None:
            sup[_excited(G0, Gs, rows, system.noise)] = np.inf
        return sup, np.zeros_like(sup)
    excited = np.zeros(len(X), dtype=bool)

    def grams(draws):
        G = system.gain(X[:, None], draws).reshape(-1, system.n, system.n_v)
        if rows is not None:
            # nonzero entries, not squares: (1e-170)^2 underflows to zero
            excited[:] |= G[:, rows].reshape(len(X), -1).any(axis=1)
        return _gram_rows(G, P)

    mean, se = mean_and_error(sample_block(system.noise, points, grams), 1)
    if not np.isfinite(se).all():
        raise EvaluationError("gain gram non-finite")
    sup = _sup_eig(c * mean + _m1_gram(system, X))
    se = c * np.linalg.norm(se, 2, axis=(-2, -1))
    sup[excited], se[excited] = np.inf, 0.0
    return sup, se


def _excited(G0, Gs, rows, noise):
    """Whether a gain row g_i of the boolean mask ``rows`` is excited,
    E[g_i'g_i] != 0, at each point of the gain parts ``G0``, ``Gs``: from
    the diagonal of E[g_r'g_r] over those rows r, the parts scaled to a
    largest entry of 1 at each point, so that a gain of 1e-170 does not
    square to zero."""
    parts = [G[..., rows, :] for G in [G0, *Gs]]
    size = np.max([np.abs(G).max(axis=(-2, -1)) for G in parts], axis=0)
    size = np.where(size > 0.0, size, 1.0)[..., None, None]
    G0, *Gs = (G / size for G in parts)
    found = np.diagonal(expected_gram(np.eye(rows.sum()), G0, Gs, noise),
                        axis1=-2, axis2=-1)
    if not np.isfinite(found).all():
        raise EvaluationError("gain gram non-finite")
    return found.any(axis=-1)


def _noise_free_gain(system, X):
    """Whether the declared ``g_parts`` have no noise part at each row of X,
    only exact zeros counting; all False without them."""
    if system.g_parts is None:
        return np.zeros(len(X), dtype=bool)
    _, Gs = system.gain_parts(X)
    return ~np.any([G.reshape(len(X), -1).any(axis=1) for G in Gs], axis=0)


# the sampled v-supremum: the axes and _SPHERE_COUNT seeded unit
# directions, each at every radius in _SPHERE_RADII
_SPHERE_COUNT = 64
_SPHERE_RADII = (0.5, 1.0, 2.0)
_SPHERE_SEED = 0


def _sphere_directions(n_v):
    rng = np.random.default_rng(_SPHERE_SEED)
    dirs = rng.standard_normal((_SPHERE_COUNT, n_v))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.concatenate([np.eye(n_v), -np.eye(n_v)])
    return np.concatenate([axes, dirs])


def g_beta(V, system, x, beta, scheme) -> Estimate:
    """Disturbance-channel gain functional G_beta(V(x)).

    Quadratic storage takes the exact Rayleigh-quotient path
    lambda_max((b/(b-1)) E[g'Pg] + m1'm1).  Separable storage is exact for
    any gain, noisy or not: +inf when a coordinate of power 4 or more is
    excited (E[g_i'g_i] != 0), else the same path over its power-2
    coordinates.  Both read E[g'Pg] from ``g_parts`` in closed form and
    from the sampled gram under Monte Carlo, where separable storage is
    exact at a point whose declared gain has no noise part.  Other
    candidates take sphere sampling under Monte Carlo, which yields a
    lower bound on the supremum and is flagged as such.  The channel
    (g, m1) takes no control, so a plant with n_u > 0 qualifies as it is.
    """
    _require_beta(beta)
    _require_affine(system, "g_beta", plants=True)
    return _at_row(_g_beta_rows(V, system, beta), x, scheme)


def g0(V, system, scheme) -> Estimate:
    """Origin gain functional G0(V) from the necessity direction.

    The G_beta block form at x = 0 with scale 1, its beta -> inf limit.
    """
    _require_affine(system, "g0", plants=True)
    return _at_row(_g_beta_rows(V, system, math.inf), np.zeros(system.n),
                   scheme)


def _gain_sup(V, system, X, c, points):
    """sup_{v != 0} ((1/c) E[V(c g(x,w) v)] + |m1(x) v|^2) / |v|^2 at each
    row x of X, as arrays of the value and its SE, and whether the values
    are sampled lower bounds: under Monte Carlo from the ``PointDraws``
    ``points``, in closed form (None) from ``g_parts``."""
    if isinstance(V, QuadraticStorage):
        sup, se = _gram_sup(system, X, V.P, c, points)
    elif isinstance(V, SeparableStorage):
        # a coordinate of power d_i >= 4 makes E[(c g_i v)^d_i] / |v|^2 grow
        # without bound along some v unless g_i v = 0 almost surely; then
        # only the power-2 coordinates count
        quad = np.array(V.d) == 2
        args = (system, X, np.diag(np.where(quad, V.p, 0.0)), c)
        rows = None if quad.all() else ~quad
        # a row whose declared gain is noise free takes its exact value
        # under Monte Carlo too, and a block of such rows draws nothing
        exact = _noise_free_gain(system, X) if points is not None else None
        if exact is not None and exact.all():
            points = None
        sup, se = _gram_sup(*args, points, rows)
        if points is not None and exact.any():
            sup[exact], se[exact] = _gram_sup(*args, None, rows)[0][exact], 0.0
    elif points is None:
        raise ConfigurationError(
            "closed-form G_beta needs a quadratic or separable storage; use "
            "a monte-carlo scheme instead")
    else:
        return (*_sphere_sup(V, system, X, c, points), True)
    return sup, se, False


def _sphere_sup(V, system, X, c, points):
    """The sphere-sampled lower bound of ``_gain_sup`` at each row of X
    from the block's ``PointDraws`` ``points``, and its SE."""
    m1m1 = _m1_gram(system, X)
    sup, se = np.full(len(X), -np.inf), np.zeros(len(X))
    for direction in _sphere_directions(system.n_v):
        for r in _SPHERE_RADII:
            vv = r * direction
            mean, err = expected_value_of(
                V, system.noise, points, None,
                lambda draws: (system.gain(X[:, None], draws)
                               @ vv[:, None])[..., 0], c)
            obj = (mean / c + [float(vv @ M @ vv) for M in m1m1]) / (r * r)
            better = obj > sup
            sup[better], se[better] = obj[better], err[better] / (c * r * r)
    return sup, se


def check_internal(system, V, c2, domain: DomainBox, scheme) -> Certificate:
    """Internal-stability certificate: V <= c2 |x|^2 and H0(V) <= 0 sampled.

    Goes inconclusive instead of certifying when the growth-bound ratio is
    still rising at the box boundary, since the claim cannot be
    extrapolated outside the sampled domain; the witness is then that
    boundary point.
    """
    if c2 <= 0:
        raise ConfigurationError("c2 must be positive")
    _require_affine(system, "check_internal")
    _require_storage_dim(V, system)
    qb = quad_bound(V, domain)

    def growth(X, _):
        vx, bound = V.evaluate_batch(X), c2 * _sq_norms(X)
        return Rows(vx, {"inequality": "growth"}, bound,
                    scale=np.maximum(np.abs(vx), bound))

    notes, flagged = [f"certified only on {domain.label()}"], None
    if qb.boundary_attained:
        notes.insert(0, "growth-bound ratio attains its maximum on the box "
                     "boundary; the c2 claim does not extrapolate beyond "
                     "the sampled domain")
        flagged = {"point": qb.witness.tolist(),
                   "info": {"inequality": "growth",
                            "boundary_max_ratio": qb.c2}}
    cert, _ = sweep(
        domain.points(), scheme,
        {"growth": growth, "H0": _split_rows("H0", V, system, 1.0)},
        "V(x) <= c2 |x|^2 and H0(V(x)) <= 0", domain.label(),
        {"scheme": scheme.spec(), "c2": c2, "quad_bound": qb.to_dict()},
        notes, flagged)
    return cert


def _split_rows(name, V, system, beta, u_row=None):
    """H0 (b = 1) or H1 <= 0 as a block form, at the control row ``u_row``
    of a plant, with tolerance scale |H| + V(x) + |m(x)|^2."""
    _require_storage_dim(V, system)

    def rows(X, points):
        value, se, vx, m_sq = _split_block(V, system, X, u_row, beta, points)
        return Rows(value, {"inequality": name}, std_error=se,
                    scale=np.abs(value) + vx + m_sq)
    return rows


def _g_beta_rows(V, system, beta, gamma_sq=0.0):
    """The G_beta <= gamma^2 block form; a sampled supremum is a lower
    bound.  At beta = inf its scale b/(b-1) is its limit 1, G0's."""
    _require_storage_dim(V, system)
    c = 1.0 if beta == math.inf else beta / (beta - 1.0)

    def rows(X, points):
        sup, se, lower = _gain_sup(V, system, X, c, points)
        return Rows(sup, {"inequality": "G_beta"}, gamma_sq, se,
                    np.maximum(np.abs(sup), gamma_sq), lower_bound_only=lower)
    return rows


def check_external(system, V, beta, gamma_sq, domain: DomainBox,
                   scheme) -> Certificate:
    """External-stability certificate: H1 <= 0 and G_beta <= gamma^2 sampled.

    Requires a storage candidate that carries a convexity claim (run
    storage.check_convex first for custom candidates) and V(0) = 0.
    Certification is scoped to the sampled box; when it holds together with
    a quadratic growth bound, internal stability follows as well and a note
    records that.
    """
    _require_beta(beta)
    if gamma_sq <= 0.0:
        raise ConfigurationError("gamma_sq must be positive")
    if not V.claims_convex:
        raise PreconditionError(
            "external-stability check needs a convexity-certified storage; "
            "run check_convex and set claims_convex first"
        )
    v0 = V.evaluate(np.zeros(V.dim))
    if abs(v0) > 1e-12:
        raise PreconditionError(f"V(0) = {v0:g}, expected 0")
    _require_affine(system, "check_external")
    cert, rec = sweep(
        domain.points(), scheme,
        {"H1": _split_rows("H1", V, system, beta),
         "G_beta": _g_beta_rows(V, system, beta, gamma_sq)},
        "H1(V(x),beta) <= 0 and G_beta(V(x)) <= gamma^2", domain.label(),
        {"scheme": scheme.spec(), "beta": beta, "gamma_sq": gamma_sq})
    cert.notes.append(f"certified only on {domain.label()}")
    if rec["G_beta"].lower_bound_only:
        cert.notes.append("G_beta evaluated by sphere sampling (lower bound on "
                          "the supremum); cannot certify the upper-bound claim")
    if isinstance(V, QuadraticStorage):
        cert.notes.append(f"V <= {V.lambda_max:g} |x|^2, so certification "
                          "also implies internal stability on this domain")
    for key, r in (("g_beta_sup", rec["G_beta"]), ("h1_worst", rec["H1"])):
        cert.provenance[key] = None if r.nan else r.lhs  # NaN point: unknown
    return cert


@dataclass
class GammaStarResult:
    """Outcome of the gamma-star grid search (upper bound on the gain)."""

    status: str
    gamma_star_sq: float | None
    beta: float | None
    params: object
    sup_point: list | None
    candidates_checked: int
    feasible_count: int
    notes: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def gamma_star_search(system, candidates, beta_grid, domain: DomainBox,
                      scheme) -> GammaStarResult:
    """Minimise the sampled sup of G_beta over (beta, V) with H1 feasible.

    ``candidates`` is a finite family of (params, StorageFunction) pairs.
    Feasibility means the sampled H1 sweep certifies (it stops after the
    first block that rules that out) and G_beta is known at every point.  Ties
    are broken towards the smallest beta.  The returned value is an upper
    bound on the squared gain, scoped to the sampled domain.  Every grid
    beta must exceed 1.
    """
    _require_affine(system, "gamma_star_search")
    points = domain.points()
    best = None
    checked = feasible = 0
    lower_bound_used = False
    for beta in sorted(float(b) for b in beta_grid):
        _require_beta(beta)
        for params, V in candidates:
            checked += 1
            h1_cert, _ = sweep(points, scheme,
                               {"H1": _split_rows("H1", V, system, beta)},
                               early_exit=True)
            if not h1_cert.certified:
                continue
            _, rec = sweep(points, scheme,
                           {"G_beta": _g_beta_rows(V, system, beta)})
            sup = rec["G_beta"]
            if sup.nan:
                continue
            feasible += 1
            lower_bound_used |= sup.lower_bound_only
            if best is None or sup.lhs < best[0] - 1e-15:
                best = (sup.lhs, beta, params, sup.point)
    if best is None:
        return GammaStarResult(
            "infeasible", None, None, None, None, checked, 0,
            ["no (beta, V) candidate satisfied the sampled H1 inequality"])
    notes = [f"upper bound on the squared l2-gain, scoped to {domain.label()}"]
    if lower_bound_used:
        notes.append("sampled v-supremum used; value may understate G_beta")
    # best = (gamma_star_sq, beta, params, sup_point)
    return GammaStarResult("ok", *best, checked, feasible, notes)


def _storage_matrix(linsys: LinearSystem, P):
    """P of the ``QuadraticStorage`` P, or of the one a matrix P builds (and
    checks), refused unless it is n x n."""
    V = P if isinstance(P, QuadraticStorage) else QuadraticStorage(P)
    _require_storage_dim(V, linsys)
    return V.P


def _internal_matrix(linsys: LinearSystem, P, beta=1.0):
    """b (A'PA + A0'PA0) - P + C'C."""
    A, A0, C = linsys.A, linsys.A0, linsys.C
    return beta * (A.T @ P @ A + A0.T @ P @ A0) - P + C.T @ C


def linear_internal(linsys: LinearSystem, P) -> Certificate:
    """Exact linear internal-stability test A'PA + A0'PA0 - P + C'C <= 0 at
    P, taken as in ``_storage_matrix``."""
    P = _storage_matrix(linsys, P)
    L = _internal_matrix(linsys, P)
    margin, tol, ok = _eig_verdict(L)
    witness = None
    if not ok:
        eigvecs = np.linalg.eigh(0.5 * (L + L.T))[1]
        witness = {"direction": eigvecs[:, -1].tolist(), "margin": margin}
    return Certificate(
        status="certified" if ok else "falsified",
        inequality="A'PA + A0'PA0 - P + C'C <= 0",
        domain="matrix inequality (exact eigenvalue check)",
        worst_margin=margin,
        witness=witness,
        provenance={"P": P.tolist(), "tolerance_rule": "1e-9*(1+||X||)"},
        tolerance=tol,
        notes=[],
    )


@dataclass
class LinearBRLReport:
    """Bounded-real verification record for the linear tier."""

    status: str
    P: np.ndarray | None
    beta: float | None
    gamma_sq: float
    eq_gain_margin: float | None       # (b^2/(b-1)) B'PB + D'D - gamma^2 I
    eq_internal_margin: float | None   # b (A'PA + A0'PA0) - P + C'C
    notes: list = field(default_factory=list)

    @property
    def certified(self):
        return self.status == "certified"

    def to_dict(self):
        return _jsonable(asdict(self))


def linear_brl(linsys: LinearSystem, P, beta, gamma_sq) -> LinearBRLReport:
    """Verify the two linear bounded-real inequalities by eigenvalue margins
    at P, taken as in ``_storage_matrix``.

    Gain inequality:     (b^2/(b-1)) B'PB + D'D <= gamma^2 I
    Internal inequality: b (A'PA + A0'PA0) - P + C'C <= 0
    """
    P = _storage_matrix(linsys, P)
    _require_beta(beta)
    B, D = linsys.B, linsys.D
    m35, _, gain_ok = _eig_verdict((beta ** 2 / (beta - 1.0)) * (B.T @ P @ B)
                                   + D.T @ D - gamma_sq * np.eye(linsys.n_v))
    m36, _, internal_ok = _eig_verdict(_internal_matrix(linsys, P, beta))
    return LinearBRLReport("certified" if gain_ok and internal_ok
                           else "falsified", P, float(beta), float(gamma_sq),
                           m35, m36)


_BETA_GRID_POINTS = 40
_BRL_SLACK = 1e-10
_SEARCH_MAX_STATES = 30  # a whole grid at 30 states: ~2 s on one x86-64 core


def _transition(linsys):
    """T(P) = A'PA + A0'PA0 on the row-major vec of P: n^2 x n^2."""
    A, A0 = linsys.A, linsys.A0
    return np.kron(A.T, A.T) + np.kron(A0.T, A0.T)


def _least_storage(linsys: LinearSystem, rhs, beta):
    """The least P with beta T(P) - P + rhs <= 0 (beta rho(T) < 1), which
    solves it at equality: one solve of its vec form, n^4 entries."""
    n = linsys.n
    P = np.linalg.solve(np.eye(n * n) - beta * _transition(linsys),
                        np.ravel(rhs)).reshape(n, n)
    return 0.5 * (P + P.T)


def _radius(linsys):
    """rho(T): below 1 exactly when the system is mean-square stable."""
    return float(np.abs(np.linalg.eigvals(_transition(linsys))).max())


def linear_brl_search(linsys: LinearSystem, gamma_sq,
                      beta_grid=None) -> LinearBRLReport:
    """Bounded-real search over beta at the least storage.

    For beta in (1, 1/rho(T)), T(P) = A'PA + A0'PA0, the least P meeting
    the internal inequality with C'C + slack*I (the slack only keeps P
    positive definite) solves it at equality, one solve of n^4 entries,
    so at most ``_SEARCH_MAX_STATES`` states; the gain inequality grows
    with P, so some P passes both at that beta exactly when this one does,
    and a beta where rounding leaves P indefinite certifies nothing.  The
    default grid is log-spaced inside (1, 1/rho(T)), its points above 2
    moved to 2 (and 2 added below 1/rho(T)): P and beta^2/(beta-1) grow
    with beta above 2.  Betas go in order of increasing beta^2/(beta-1):
    the first pair ``linear_brl`` certifies is returned, else the one with
    the closest margins, inconclusive.
    """
    if linsys.n > _SEARCH_MAX_STATES:
        raise ConfigurationError(
            f"the linear-brl search takes at most {_SEARCH_MAX_STATES} states "
            f"(its solve holds n^4 entries), got {linsys.n}")
    base = LinearBRLReport("inconclusive", None, None, float(gamma_sq), None,
                           None)
    if (rho := _radius(linsys)) >= 1.0:
        base.notes.append(f"not mean-square stable: rho(T) = {rho:g} >= 1")
        return base
    cap = 1.0 / rho if rho else math.inf
    if beta_grid is None:
        grid = 1.0 + (cap - 1.0) * np.geomspace(1e-4, 0.9999, _BETA_GRID_POINTS)
        beta_grid = np.unique(np.minimum(2.0, np.append(grid, 2.0)))
    CtC = linsys.C.T @ linsys.C
    rhs = CtC + _BRL_SLACK * (1.0 + np.linalg.norm(CtC, 2)) * np.eye(linsys.n)
    tried = []
    for beta in sorted((b for b in map(float, beta_grid) if 1.0 < b < cap),
                       key=lambda b: b * b / (b - 1.0)):
        P = _least_storage(linsys, rhs, beta)
        if np.linalg.eigvalsh(P)[0] <= 0.0:  # rounding outweighed the slack
            base.notes.append(f"beta {beta:g} skipped: rounding left the "
                              "least storage indefinite")
            continue
        rep = linear_brl(linsys, P, beta, gamma_sq)
        rep.notes.append("P is the least storage at this beta: beta (A'PA + "
                         "A0'PA0) - P + C'C + slack I = 0")
        if rep.certified:
            return rep
        tried.append(rep)
    if not tried:
        base.notes.append("no admissible beta in the grid")
        return base
    rep = min(tried, key=lambda r: max(r.eq_gain_margin, r.eq_internal_margin))
    rep.status = "inconclusive"
    rep.notes += base.notes
    rep.notes.append("no grid beta certified; closest margins reported")
    return rep


@dataclass
class GainReport:
    """Empirical l2-gain ensemble record (a falsifier, never a proof)."""

    count: int
    ratios: list
    max_ratio: float | None
    mean_energy_ratio: float
    ratio_std_error: float
    gamma_sq: float
    verdict: str
    seed: int
    horizon: int
    diverged: int = 0
    ensemble_spec: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def empirical_gain(system, ensemble, horizon, count, gamma_sq,
                   seed) -> GainReport:
    """Seeded Monte Carlo falsification of a claimed squared gain.

    Simulates ``count`` disturbance realisations from the zero initial
    state and compares the ensemble energy ratio against gamma_sq.  The
    empirical ratio is a lower bound on the true squared gain, so
    "consistent" corroborates but never proves the claim; "violated" means
    the mean ratio exceeds gamma_sq by more than four standard errors.
    """
    if horizon < 1 or count < 1:
        raise ConfigurationError("horizon and count must be >= 1")
    run = simulate_ensemble(system, np.zeros(system.n), ensemble, horizon,
                            count, seed)
    z_energy, v_energy = run.energies()
    diverged = int(run.diverged.sum())
    ratios = [None if gone or v == 0.0 else z / v for z, v, gone in zip(
        z_energy.tolist(), v_energy.tolist(), run.diverged.tolist())]
    if np.all(v_energy == 0.0):
        raise ConfigurationError("disturbance ensemble has zero energy everywhere")
    mean_ratio = float(z_energy.sum() / v_energy.sum())
    # ratio-estimator standard error: std(z_i - R v_i) / (mean(v) sqrt(N))
    resid = z_energy - mean_ratio * v_energy
    se = 0.0
    if count >= 2:
        se = float(resid.std(ddof=1) / (v_energy.mean() * math.sqrt(count)))
    max_ratio = max((r for r in ratios if r is not None), default=None)
    violated = diverged > 0 or mean_ratio > gamma_sq + 4.0 * se
    return GainReport(
        count=count,
        ratios=ratios,
        max_ratio=max_ratio,
        mean_energy_ratio=mean_ratio,
        ratio_std_error=se,
        gamma_sq=float(gamma_sq),
        verdict="violated" if violated else "consistent",
        seed=int(seed),
        horizon=int(horizon),
        diverged=diverged,
        ensemble_spec=ensemble.spec(),
    )


def dissipation_profile(system, V, gamma_sq, ensemble, horizon, count, seed):
    """Per-step ensemble means of V(x+) - V(x) + |z|^2 - gamma^2 |v|^2.

    For a certified (V, beta, gamma) tuple the supply-rate inequality makes
    every step's mean nonpositive up to Monte Carlo error.  Returns
    (means, standard_errors), each of length ``horizon``.
    """
    run = simulate_ensemble(system, np.zeros(system.n), ensemble, horizon,
                            count, seed)
    run.raise_divergence()
    vals = V.evaluate_batch(run.states.reshape(-1, system.n))
    D = (np.diff(vals.reshape(count, horizon + 1), axis=1) + run.z_sq
         - gamma_sq * run.v_sq)
    means = D.mean(axis=0)
    ses = D.std(axis=0, ddof=1) / math.sqrt(count) if count >= 2 \
        else np.zeros(horizon)
    return means, ses
