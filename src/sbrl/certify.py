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
closed-form route through the same functional stay genuinely independent.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .certificates import Certificate, Row, _jsonable, sweep
from .dynamics import LinearSystem, energy_ratio, simulate_ensemble
from .errors import (ConfigurationError, DivergenceError, EvaluationError,
                     PreconditionError)
from .noise import (Estimate, _gram_rows, expected_affine_power,
                    expected_gram, mean_and_error, require_finite,
                    sample_block)
from .storage import (DomainBox, QuadraticStorage, SeparableStorage,
                      quad_bound)


def eig_tolerance(X) -> float:
    """Tolerance for symmetric eigenvalue checks: 1e-9 * (1 + ||X||)."""
    return 1e-9 * (1.0 + float(np.linalg.norm(X, 2)))


def sym_eig_max(X) -> float:
    """Largest eigenvalue of the symmetrised matrix (X + X') / 2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return float(np.linalg.eigvalsh(0.5 * (X + X.T))[-1])


def _require_uncontrolled(system, routine):
    if system.n_u:
        raise ConfigurationError(
            f"{routine} takes a system without control input, got n_u = "
            f"{system.n_u}: close the loop with synth.closed_loop first")


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


@dataclass(frozen=True)
class SplitEstimate(Estimate):
    """H0, H1 or H with the V(x) and |m(x[,u])|^2 it was formed from: with
    |H| they make the tolerance scale of the inequality H <= 0."""

    storage: float = 0.0
    output_sq: float = 0.0


def _split(V, system, x, u, beta, scheme) -> SplitEstimate:
    """(1/b) E[V(b f(x,[u,]w))] - V(x) + |m(x[,u])|^2 under the scheme, with
    ``u`` the control row or None as in ``drift``: ``_split_block`` at x."""
    x = np.asarray(x, dtype=float)
    return _split_block(V, system, x[None], None if u is None else u[None],
                        beta, scheme.point_draws())[0]


def _split_block(V, system, X, u_row, beta, points):
    """``_split`` at each row of X, ``u_row`` one control row or None: from
    the ``PointDraws`` ``points``, or in closed form (None) from
    ``f_parts``.  One ``SplitEstimate`` per row."""
    mean, se = expected_value_of(
        V, system.noise, points, lambda: system.drift_parts(X, u_row),
        lambda draws: system.drift(X[:, None], u_row, draws), beta)
    vx, m_sq = V.evaluate_batch(X), _sq_norms(system.output_m(X, u_row))
    return [SplitEstimate(v, e, storage=s, output_sq=m)
            for v, e, s, m in zip((mean / beta - vx + m_sq).tolist(),
                                  (se / beta).tolist(), vx.tolist(),
                                  m_sq.tolist())]


def h0(V, system, x, scheme) -> SplitEstimate:
    """Internal-stability functional E[V(f(x,w))] - V(x) + |m(x)|^2."""
    _require_uncontrolled(system, "h0")
    return _split(V, system, x, None, 1.0, scheme)


def h1(V, system, x, beta, scheme) -> SplitEstimate:
    """Convexity-split internal functional (1/b) E[V(b f)] - V + |m|^2."""
    _require_uncontrolled(system, "h1")
    return convexity_split(V, system, x, None, beta, scheme)


def convexity_split(V, system, x, u, beta, scheme) -> SplitEstimate:
    """(1/b) E[V(b f(x,[u,]w))] - V(x) + |m(x[,u])|^2: H1, and at a fixed
    control row ``u`` the design functional H."""
    if beta <= 1.0:
        raise ConfigurationError(f"beta must exceed 1, got {beta}")
    return _split(V, system, x, u, beta, scheme)


def _sq_norms(M):
    """|m|^2 at each row m of M: one dot product per row, so a row has the
    bits of ``m @ m`` alone."""
    M = np.ascontiguousarray(M)
    return (M[:, None, :] @ M[:, :, None])[:, 0, 0]


def _m1_gram(system, X):
    """m1(x)' m1(x) at the rows of X: (rows, n_v, n_v), or one (n_v, n_v)
    product for a constant m1, which broadcasts against the rows."""
    M1 = np.atleast_2d(np.asarray(system.m1(X), dtype=float))
    if not M1.size:
        M1 = np.zeros((0, system.n_v))
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
    if beta <= 1.0:
        raise ConfigurationError(f"beta must exceed 1, got {beta}")
    return _gain_sup(V, system, np.asarray(x, dtype=float)[None],
                     beta / (beta - 1.0), scheme.point_draws())[0]


def g0(V, system, scheme) -> Estimate:
    """Origin gain functional G0(V) from the necessity direction.

    The same supremum as G_beta, taken at x = 0 with scale 1.
    """
    return _gain_sup(V, system, np.zeros((1, system.n)), 1.0,
                     scheme.point_draws())[0]


def _gain_sup(V, system, X, c, points):
    """sup_{v != 0} ((1/c) E[V(c g(x,w) v)] + |m1(x) v|^2) / |v|^2 at each
    row x of X, one ``Estimate`` per row: under Monte Carlo from the
    ``PointDraws`` ``points``, in closed form (None) from ``g_parts``."""
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
        m1m1 = np.broadcast_to(_m1_gram(system, X),
                               (len(X), system.n_v, system.n_v))
        return [_sphere_sup(V, system, x, m1m1[i], c, points.block(i, i + 1))
                for i, x in enumerate(X)]
    return [Estimate(v, e) for v, e in zip(sup.tolist(), se.tolist())]


def _sphere_sup(V, system, x, m1m1, c, points):
    """The sphere-sampled lower bound of ``_gain_sup`` at one point x from
    its ``PointDraws`` ``points``."""
    best = Estimate(-np.inf, 0.0, lower_bound_only=True)
    for direction in _sphere_directions(system.n_v):
        for r in _SPHERE_RADII:
            vv = r * direction
            mean, se = expected_value_of(
                V, system.noise, points, None,
                lambda draws: (system.gain(x[None, None], draws)
                               @ vv[:, None])[..., 0], c)
            obj = (float(mean[0]) / c + float(vv @ m1m1 @ vv)) / (r * r)
            if obj > best.value:
                best = Estimate(obj, float(se[0]) / (c * r * r),
                                lower_bound_only=True)
    return best


def check_internal(system, V, c2, domain: DomainBox, scheme) -> Certificate:
    """Internal-stability certificate: V <= c2 |x|^2 and H0(V) <= 0 sampled.

    Goes inconclusive instead of certifying when the growth-bound ratio is
    still rising at the box boundary, since the claim cannot be
    extrapolated outside the sampled domain.
    """
    if c2 <= 0:
        raise ConfigurationError("c2 must be positive")
    _require_uncontrolled(system, "check_internal")
    qb = quad_bound(V, domain)

    def growth(X, _):
        return [Row(vx, bound, scale=max(abs(vx), bound),
                    info={"inequality": "growth"})
                for vx, bound in zip(V.evaluate_batch(X).tolist(),
                                     (c2 * _sq_norms(X)).tolist())]

    notes = [f"certified only on {domain.label()}"]
    if qb.boundary_attained:
        notes.insert(0, "growth-bound ratio attains its maximum on the box "
                     "boundary; the c2 claim does not extrapolate beyond "
                     "the sampled domain")
    cert, _ = sweep(
        domain.points(), scheme,
        {"growth": growth, "H0": _split_rows("H0", V, system, 1.0)},
        "V(x) <= c2 |x|^2 and H0(V(x)) <= 0", domain.label(),
        {"scheme": scheme.spec(), "c2": c2, "quad_bound": qb.to_dict()},
        notes, force_inconclusive=qb.boundary_attained)
    return cert


def _split_rows(name, V, system, beta):
    """H0 (b = 1) or H1 <= 0 as a block form, with tolerance scale
    |H| + V(x) + |m(x)|^2."""
    return lambda X, points: [
        Row(est.value, std_error=est.std_error,
            scale=abs(est.value) + est.storage + est.output_sq,
            info={"inequality": name})
        for est in _split_block(V, system, X, None, beta, points)]


def _g_beta_row(V, system, beta, gamma_sq=0.0):
    """The G_beta <= gamma^2 block form; a sampled supremum is a lower
    bound."""
    return lambda X, points: [
        Row(est.value, gamma_sq, est.std_error,
            max(abs(est.value), gamma_sq), {"inequality": "G_beta"},
            lower_bound_only=est.lower_bound_only)
        for est in _gain_sup(V, system, X, beta / (beta - 1.0), points)]


def check_external(system, V, beta, gamma_sq, domain: DomainBox,
                   scheme) -> Certificate:
    """External-stability certificate: H1 <= 0 and G_beta <= gamma^2 sampled.

    Requires a storage candidate that carries a convexity claim (run
    storage.check_convex first for custom candidates) and V(0) = 0.
    Certification is scoped to the sampled box; when it holds together with
    a quadratic growth bound, internal stability follows as well and a note
    records that.
    """
    if beta <= 1.0:
        raise ConfigurationError("beta must exceed 1")
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
    _require_uncontrolled(system, "check_external")
    cert, rec = sweep(
        domain.points(), scheme,
        {"H1": _split_rows("H1", V, system, beta),
         "G_beta": _g_beta_row(V, system, beta, gamma_sq)},
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
    Feasibility means the sampled H1 sweep certifies (it stops at the first
    point that rules that out) and G_beta is known at every point.  Ties
    are broken towards the smallest beta.  The returned value is an upper
    bound on the squared gain, scoped to the sampled domain.
    """
    _require_uncontrolled(system, "gamma_star_search")
    points = domain.points()
    best = None
    checked = feasible = 0
    lower_bound_used = False
    for beta in sorted(float(b) for b in beta_grid):
        if beta <= 1.0:
            continue
        for params, V in candidates:
            checked += 1
            h1_cert, _ = sweep(points, scheme,
                               {"H1": _split_rows("H1", V, system, beta)},
                               early_exit=True)
            if not h1_cert.certified:
                continue
            _, rec = sweep(points, scheme,
                           {"G_beta": _g_beta_row(V, system, beta)})
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


def _require_spd(P, what="P"):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[0] != P.shape[1] or np.max(np.abs(P - P.T)) > 1e-10 * (1 + np.max(np.abs(P))):
        raise PreconditionError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(P)[0] <= 0:
        raise PreconditionError(f"{what} must be positive definite")
    return 0.5 * (P + P.T)


def linear_internal(linsys: LinearSystem, P) -> Certificate:
    """Exact linear internal-stability test A'PA + A0'PA0 - P + C'C <= 0."""
    if isinstance(P, QuadraticStorage):
        P = P.P
    P = _require_spd(P)
    A, A0, C = linsys.A, linsys.A0, linsys.C
    L = A.T @ P @ A + A0.T @ P @ A0 - P + C.T @ C
    margin = sym_eig_max(L)
    tol = eig_tolerance(L)
    status = "certified" if margin <= tol else "falsified"
    witness = None
    if status == "falsified":
        eigvals, eigvecs = np.linalg.eigh(0.5 * (L + L.T))
        witness = {"direction": eigvecs[:, -1].tolist(), "margin": margin}
    return Certificate(
        status=status,
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
    sigma_bar: float
    sigma_min: float
    beta0_interval: tuple | None
    p0: float | None
    notes: list = field(default_factory=list)

    @property
    def certified(self):
        return self.status == "certified"

    def to_dict(self):
        return _jsonable(asdict(self))


def _structure_diagnostics(linsys):
    S = linsys.A.T @ linsys.A + linsys.A0.T @ linsys.A0
    eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(eigs[-1]), float(eigs[0])


def _construction_p0(beta, sigma_bar, sigma_min):
    """Storage scaling from the envelope construction, C_i(b) = sigma_i b^2."""
    denom = beta - sigma_bar * beta * beta
    if denom <= 0.0:
        return None
    return beta * (1.0 - sigma_min) / denom


def linear_brl(linsys: LinearSystem, P, beta, gamma_sq) -> LinearBRLReport:
    """Verify the two linear bounded-real inequalities by eigenvalue margins.

    Gain inequality:     (b^2/(b-1)) B'PB + D'D <= gamma^2 I
    Internal inequality: b (A'PA + A0'PA0) - P + C'C <= 0
    """
    if isinstance(P, QuadraticStorage):
        P = P.P
    P = _require_spd(P)
    if beta <= 1.0:
        raise ConfigurationError("beta must exceed 1")
    A, A0, B, C, D = linsys.A, linsys.A0, linsys.B, linsys.C, linsys.D
    eq35 = (beta ** 2 / (beta - 1.0)) * (B.T @ P @ B) + D.T @ D \
        - gamma_sq * np.eye(linsys.n_v)
    eq36 = beta * (A.T @ P @ A + A0.T @ P @ A0) - P + C.T @ C
    m35 = sym_eig_max(eq35)
    m36 = sym_eig_max(eq36)
    ok = m35 <= eig_tolerance(eq35) and m36 <= eig_tolerance(eq36)
    sigma_bar, sigma_min = _structure_diagnostics(linsys)
    interval = (1.0, 1.0 / sigma_bar) if sigma_bar < 1.0 else None
    p0 = None
    if interval is not None and interval[0] < beta < interval[1]:
        p0 = _construction_p0(beta, sigma_bar, sigma_min)
    return LinearBRLReport(
        status="certified" if ok else "falsified",
        P=P, beta=float(beta), gamma_sq=float(gamma_sq),
        eq_gain_margin=m35, eq_internal_margin=m36,
        sigma_bar=sigma_bar, sigma_min=sigma_min,
        beta0_interval=interval, p0=p0,
        notes=[],
    )


_SERIES_TOL = 1e-14
_SERIES_TERMS = 100_000


def series_storage_matrix(linsys: LinearSystem, rhs=None):
    """Truncated series solution of A'XA + A0'XA0 - X + rhs = 0.

    This is the linear instance of the constructive storage function: the
    sum of iterated adjoint applications of the noise-averaged transition
    to rhs (default C'C).  Requires sigma_bar(A'A + A0'A0) < 1 for
    convergence.
    """
    sigma_bar, _ = _structure_diagnostics(linsys)
    if sigma_bar >= 1.0:
        raise ConfigurationError(
            f"series diverges: sigma_bar(A'A + A0'A0) = {sigma_bar:g} >= 1"
        )
    A, A0, C = linsys.A, linsys.A0, linsys.C
    term = C.T @ C if rhs is None else np.asarray(rhs, dtype=float)
    total = term.copy()
    for _ in range(_SERIES_TERMS):
        term = A.T @ term @ A + A0.T @ term @ A0
        total += term
        if (np.linalg.norm(term, 2)
                <= _SERIES_TOL * (1.0 + np.linalg.norm(total, 2))):
            break
    return 0.5 * (total + total.T)


def _pencil_max(numerator, denominator):
    """lambda_max of the symmetric pencil (numerator, denominator > 0)."""
    L = np.linalg.cholesky(denominator)
    M = np.linalg.solve(L, np.linalg.solve(L, numerator.T).T)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


_BETA_GRID_POINTS = 40
_BRL_SLACK = 1e-2


def linear_brl_search(linsys: LinearSystem, gamma_sq,
                      beta_grid=None) -> LinearBRLReport:
    """Constructive bounded-real search: series storage scaled per beta.

    Builds the series matrix for C'C + slack*I (the slack keeps the
    internal inequality strictly feasible so a scaling exists even when
    C'C is rank deficient), then for each beta in a log-spaced grid inside
    the admissible interval picks the smallest scaling p with
    p (Pbar - beta T(Pbar)) >= C'C, which is the exact feasibility
    threshold of the internal inequality, and returns the first (P, beta)
    that also passes the gain inequality.  Betas are tried in order of
    increasing gain factor beta^2/(beta-1), so the least demanding
    candidate goes first.
    """
    sigma_bar, sigma_min = _structure_diagnostics(linsys)
    base = LinearBRLReport(
        status="inconclusive", P=None, beta=None, gamma_sq=float(gamma_sq),
        eq_gain_margin=None, eq_internal_margin=None,
        sigma_bar=sigma_bar, sigma_min=sigma_min,
        beta0_interval=(1.0, 1.0 / sigma_bar) if sigma_bar < 1.0 else None,
        p0=None, notes=[],
    )
    if sigma_bar >= 1.0:
        base.notes.append(
            f"structural contraction fails: sigma_bar = {sigma_bar:g} >= 1"
        )
        return base
    CtC = linsys.C.T @ linsys.C
    eps = _BRL_SLACK * (1.0 + np.linalg.norm(CtC, 2))
    Pbar = series_storage_matrix(linsys, rhs=CtC + eps * np.eye(linsys.n))
    T = linsys.A.T @ Pbar @ linsys.A + linsys.A0.T @ Pbar @ linsys.A0
    rho_max = _pencil_max(T, Pbar)
    if rho_max >= 1.0:
        base.notes.append(f"ratio envelope rho_max = {rho_max:g} >= 1")
        return base
    cap = 1.0 / rho_max
    if beta_grid is None:
        beta_grid = 1.0 + (cap - 1.0) * np.geomspace(1e-4, 0.9999,
                                                     _BETA_GRID_POINTS)
    best = None
    ordered = sorted((float(b) for b in beta_grid),
                     key=lambda b: b * b / (b - 1.0) if b > 1.0 else np.inf)
    for beta in ordered:
        if not 1.0 < beta < cap:
            continue
        S = Pbar - beta * T
        if np.linalg.eigvalsh(S)[0] <= 0.0:
            continue
        p0 = max(_pencil_max(CtC, S), 1e-12)
        rep = linear_brl(linsys, p0 * Pbar, beta, gamma_sq)
        rep.p0 = p0
        rep.notes.append(
            "P = p0 * (series storage of C'C + slack I); p0 is the minimal "
            "scaling satisfying the internal inequality at this beta"
        )
        if rep.certified:
            return rep
        key = max(rep.eq_gain_margin, rep.eq_internal_margin)
        if best is None or key < best[0]:
            best = (key, rep)
    if best is not None:
        rep = best[1]
        rep.status = "inconclusive"
        rep.notes.append("no grid beta certified; closest margins reported")
        return rep
    base.notes.append("no admissible beta in the grid")
    return base


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
    x0 = np.zeros(system.n)
    results = simulate_ensemble(system, x0, ensemble, horizon, count, seed)
    z_energy = np.zeros(count)
    v_energy = np.zeros(count)
    diverged = 0
    ratios = []
    for i, res in enumerate(results):
        if isinstance(res, DivergenceError):
            diverged += 1
            z_energy[i] = res.trajectory.total_output_energy()
            v_energy[i] = res.trajectory.total_disturbance_energy()
            ratios.append(None)
            continue
        z_energy[i] = res.total_output_energy()
        v_energy[i] = res.total_disturbance_energy()
        ratios.append(energy_ratio(res))
    if np.all(v_energy == 0.0):
        raise ConfigurationError("disturbance ensemble has zero energy everywhere")
    mean_ratio = float(z_energy.sum() / v_energy.sum())
    # ratio-estimator standard error: std(z_i - R v_i) / (mean(v) sqrt(N))
    resid = z_energy - mean_ratio * v_energy
    se = 0.0
    if count >= 2:
        se = float(resid.std(ddof=1) / (v_energy.mean() * math.sqrt(count)))
    finite_ratios = [r for r in ratios if r is not None]
    max_ratio = max(finite_ratios) if finite_ratios else None
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
    x0 = np.zeros(system.n)
    results = simulate_ensemble(system, x0, ensemble, horizon, count, seed)
    D = np.empty((count, horizon))
    for i, res in enumerate(results):
        if isinstance(res, DivergenceError):
            raise res
        vals = V.evaluate_batch(res.states)
        D[i] = np.diff(vals) + res.z_sq - gamma_sq * res.v_sq
    means = D.mean(axis=0)
    ses = D.std(axis=0, ddof=1) / math.sqrt(count) if count >= 2 \
        else np.zeros(horizon)
    return means, ses
