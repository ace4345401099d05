"""State-feedback laws, closed loops and controller certificates.

Substituting a feedback law into a plant, an affine system with n_u > 0,
yields a disturbance-driven one (n_u = 0), so every stability check
applies unchanged to the closed loop.  The time-invariant design functional

  H(V(x), u, b) = (1/b) E[V(b f(x,u,w))] - V(x) + |m(x,u)|^2

is the controlled analogue of H1; a law alpha certifies whenever
H(V(x), alpha(x), b) <= 0 and G_b(V(x)) <= gamma^2 over the sampled box.
The general time-varying certificate checks
H_k(x, alpha_k(x), v) - gamma^2 |v|^2 <= 0 jointly over (x, v, k), and the
second-order route verifies supplied saddle data (alpha, eta, M, N) by
finite-difference stationarity, Hessian domination and the completed
square functional.  Both read a plant only through ``transition`` and
``output``, so they take the general and the affine tier alike.
"""

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, Rows, sweep
from .certify import _sq_norms, check_external, expected_value_of
from .dynamics import AffineSystem
from .errors import ConfigurationError, PreconditionError
from .noise import Estimate
from .storage import DomainBox, StorageFunction


class FeedbackLaw:
    """State-feedback map u = alpha(x, k); time invariant unless k is used.

    ``law(X, k)`` maps (..., n) states to (..., n_u) controls, over any
    leading dimensions; ``fn`` may return fewer leading dimensions, which
    broadcast, but never a control of another width.  ``closed_loop``
    takes time-invariant laws: it calls ``law(X)``, at k = 0.  The general
    tier's worst-case disturbance map eta is one too, with n_u = n_v.
    """

    def __init__(self, fn, n_u, kind="custom", spec=None):
        self._fn = fn
        self.n_u = int(n_u)
        self.kind = kind
        self._spec = spec or {"kind": kind}

    def __call__(self, X, k=0):
        X = np.asarray(X, dtype=float)
        U = np.asarray(self._fn(X, k), dtype=float)
        if U.shape[-1:] != (self.n_u,):
            raise ConfigurationError(
                f"law {self.kind} returned shape {U.shape}, expected rows "
                f"of ({self.n_u},)")
        return np.broadcast_to(U, (*X.shape[:-1], self.n_u))

    def spec(self):
        return dict(self._spec)

    @staticmethod
    def zero(n_u):
        z = np.zeros(n_u)
        return FeedbackLaw(lambda X, k: z, n_u, kind="zero")

    @staticmethod
    def linear_gain(K):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        return FeedbackLaw(lambda X, k: (K @ X[..., None])[..., 0], K.shape[0],
                           kind="linear-gain",
                           spec={"kind": "linear-gain", "K": K.tolist()})


def closed_loop(plant: AffineSystem, law: FeedbackLaw) -> AffineSystem:
    """Fold u = alpha(x) into the plant, yielding the disturbance-driven
    loop; the law is called at k = 0, so it must be time invariant."""
    if not plant.n_u:
        raise ConfigurationError(
            "closed_loop needs a plant with a control input, got n_u = 0")
    if law.n_u != plant.n_u:
        raise ConfigurationError(
            f"law returns {law.n_u} controls, plant expects {plant.n_u}"
        )

    f_parts = None
    if plant.f_parts is not None:
        def f_parts(X):
            return plant.f_parts(X, law(X))

    return AffineSystem(
        plant.n, plant.n_v,
        f=lambda X, W: plant.f(X, law(X), W),
        g=plant.g,
        m=lambda X: plant.m(X, law(X)),
        m1=plant.m1,
        noise=plant.noise,
        f_parts=f_parts,
        g_parts=plant.g_parts,
        name=f"{plant.name or 'plant'}<{law.kind}>",
    )


def certify_controller(loop, law, V, beta, gamma_sq, domain: DomainBox,
                       scheme) -> Certificate:
    """Certify a law via the external-stability check of its closed loop
    ``loop`` = closed_loop(plant, law): check_external's statuses and
    margins with the same seeds, plus a note naming the law.
    """
    cert = check_external(loop, V, beta, gamma_sq, domain, scheme)
    cert.notes.append(f"controller certificate for law '{law.kind}'")
    return cert


def _storage_sequence(obj):
    """StorageFunction -> the same V for every k; callable -> V_k = obj(k)."""
    if isinstance(obj, StorageFunction):
        return lambda k: obj
    if callable(obj):
        return obj
    raise ConfigurationError(f"cannot interpret {obj!r} as a storage sequence")


def _h_k_block(V_of, plant, X, U, Vd, k, points):
    """H_k at each row of the states X, controls U and disturbances Vd of
    one time k, as arrays of the value and its SE, from the block's
    ``PointDraws`` ``points``: H_k reads no declared noise structure, so
    closed form (None) raises, and a point-mass noise makes Monte Carlo
    exact."""
    mean, se = expected_value_of(
        V_of(k + 1), plant.noise, points, None,
        lambda draws: plant.transition(k, X[:, None], U[:, None],
                                       Vd[:, None], draws))
    return mean - V_of(k).evaluate_batch(X) + _sq_norms(
        plant.output(k, X, U, Vd)), se


def h_k_general(V_seq, plant, x, u, v, k, scheme) -> Estimate:
    """Time-varying functional H_k = E[V_{k+1}(F_k(x,u,v,w))] - V_k(x) + |m_k|^2."""
    x, u, v = (np.atleast_1d(np.asarray(a, dtype=float))[None]
               for a in (x, u, v))
    value, se = _h_k_block(_storage_sequence(V_seq), plant, x, u, v, k,
                           scheme.point_draws())
    return Estimate(float(value[0]), float(se[0]))


def certify_controller_general(plant, alpha: FeedbackLaw, V_seq, gamma_sq,
                               domain: DomainBox, v_box: DomainBox, scheme,
                               k_window=1) -> Certificate:
    """Sampled check of H_k(x, alpha_k(x), v) - gamma^2 |v|^2 <= 0.

    Jointly sweeps the state box, the disturbance box and time indices
    k < k_window.  Certification makes alpha an attenuating feedback on the
    sampled scope; internal stability is reported separately.
    """
    if gamma_sq <= 0:
        raise ConfigurationError("gamma_sq must be positive")
    V_of = _storage_sequence(V_seq)
    for k in range(k_window + 1):
        v0 = V_of(k).evaluate(np.zeros(plant.n))
        if abs(v0) > 1e-12:
            raise PreconditionError(f"V_{k}(0) = {v0:g}, expected 0")

    def rows(P, points):
        # the points are k-major, so a block is a few runs of one k each
        ks, value, se = P[:, -1], np.empty(len(P)), np.empty(len(P))
        cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1), len(P)]
        for lo, hi in zip(cuts, cuts[1:]):
            X, Vd, k = P[lo:hi, :plant.n], P[lo:hi, plant.n:-1], int(ks[lo])
            value[lo:hi], se[lo:hi] = _h_k_block(
                V_of, plant, X, alpha(X, k), Vd, k,
                None if points is None else points.block(lo, hi))
        bound = gamma_sq * _sq_norms(P[:, plant.n:-1])
        return Rows(value, lambda i: {"k": int(ks[i])}, bound, se,
                    np.abs(value) + bound)

    points = [np.concatenate([x, v, [k]]) for k in range(k_window)
              for x in domain.points() for v in v_box.points()]
    cert, _ = sweep(
        points, scheme, {"H_k": rows},
        "H_k(x, alpha_k(x), v) - gamma^2 |v|^2 <= 0",
        f"{domain.label()} x v:{v_box.label()} x k<{k_window}",
        {"scheme": scheme.spec(), "gamma_sq": gamma_sq},
        ["certified only on the sampled (x, v, k) scope",
         "internal stability of the loop is a separate check"])
    return cert


@dataclass
class SaddleData:
    """Stationary maps and Hessian dominators for the second-order theorem."""

    alpha: FeedbackLaw     # (X, k) -> U
    eta: FeedbackLaw       # (X, k) -> V, the worst-case disturbance map
    M: np.ndarray          # symmetric positive definite, n_u x n_u
    N: np.ndarray          # symmetric, n_v x n_v, gamma^2 I - N > 0
    gamma: float

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.N = np.atleast_2d(np.asarray(self.N, dtype=float))
        if np.max(np.abs(self.M - self.M.T)) > 1e-12 * (1 + np.max(np.abs(self.M))):
            raise ConfigurationError("M must be symmetric")
        if np.linalg.eigvalsh(self.M)[0] <= 0:
            raise ConfigurationError("M must be positive definite")
        if np.max(np.abs(self.N - self.N.T)) > 1e-12 * (1 + np.max(np.abs(self.N))):
            raise ConfigurationError("N must be symmetric")
        gap = np.linalg.eigvalsh(self.gamma ** 2 * np.eye(self.N.shape[0]) - self.N)
        if gap[0] <= 0:
            raise PreconditionError(
                f"gamma^2 I - N must be positive definite (min eig {gap[0]:g})"
            )


def square_completion_matrix(saddle: SaddleData):
    """N + N (gamma^2 I - N)^{-1} N' from the completed disturbance square."""
    n_v = saddle.N.shape[0]
    gap = saddle.gamma ** 2 * np.eye(n_v) - saddle.N
    return saddle.N + saddle.N @ np.linalg.solve(gap, saddle.N.T)


def saddle_functional(plant, saddle: SaddleData, V_seq, x, k, scheme) -> Estimate:
    """Completed-square functional H_k(x, alpha, eta) + (1/2) eta' W eta."""
    x = np.asarray(x, dtype=float)
    u, v = saddle.alpha(x[None], k)[0], saddle.eta(x[None], k)[0]
    W = square_completion_matrix(saddle)
    est = h_k_general(V_seq, plant, x, u, v, k, scheme)
    return Estimate(est.value + 0.5 * float(v @ W @ v), est.std_error)


def central_gradient(fn, p0, rel_step):
    p0 = np.asarray(p0, dtype=float)
    grad = np.zeros_like(p0)
    for i in range(p0.shape[0]):
        h = rel_step * (1.0 + abs(p0[i]))
        if h < 1e-12:
            raise FloatingPointError("finite-difference step underflow")
        e = np.zeros_like(p0)
        e[i] = h
        grad[i] = (fn(p0 + e) - fn(p0 - e)) / (2.0 * h)
    return grad


def central_hessian(fn, p0, rel_step):
    p0 = np.asarray(p0, dtype=float)
    d = p0.shape[0]
    hs = np.array([rel_step * (1.0 + abs(p0[i])) for i in range(d)])
    if np.any(hs < 1e-12):
        raise FloatingPointError("finite-difference step underflow")
    H = np.zeros((d, d))
    f0 = fn(p0)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = hs[i]
        H[i, i] = (fn(p0 + ei) - 2.0 * f0 + fn(p0 - ei)) / hs[i] ** 2
        for j in range(i):
            ej = np.zeros(d)
            ej[j] = hs[j]
            H[i, j] = H[j, i] = (
                fn(p0 + ei + ej) - fn(p0 + ei - ej)
                - fn(p0 - ei + ej) + fn(p0 - ei - ej)
            ) / (4.0 * hs[i] * hs[j])
    return H


# taylor_certify's gradient bound, relative finite-difference steps and
# Monte Carlo replications per Hessian stencil value
_STATIONARITY_TOL = 1e-4
_GRAD_STEP = 1e-4
_HESS_STEP = 1e-3
_HESS_REPS = 16


def taylor_certify(plant, saddle: SaddleData, V_seq, domain: DomainBox,
                   scheme, k_window=1) -> Certificate:
    """Verify supplied saddle data for the second-order design theorem.

    Three sampled sub-checks per (x, k):
      (i)   finite-difference gradients of H_k in (u, v) vanish at
            (alpha(x), eta(x)) within _STATIONARITY_TOL;
      (ii)  the finite-difference (u, v) Hessian at (alpha(x), eta(x)) is
            dominated by blockdiag(M, N) (and gamma^2 I - N > 0, enforced
            at construction);
      (iii) H_k(x, alpha, eta) + (1/2) eta' [N + N (gamma^2 I - N)^{-1} N'] eta
            stays nonpositive.

    Stochastic plants average each Hessian stencil value over _HESS_REPS
    derived Monte Carlo replications with common random numbers across
    stencil points and sub-checks: replica r is ``PointDraws.replica(r)``
    of the sweep block, filled once for all its points, and each check
    reads point i's slice of it.  A functional that cannot be evaluated
    at a point makes that sub-check's margin NaN there (inconclusive).
    """
    n_u, n_v, V_of = plant.n_u, plant.n_v, _storage_sequence(V_seq)
    gap = saddle.gamma ** 2 * np.eye(n_v) - saddle.N
    cond = np.linalg.cond(gap)
    W = square_completion_matrix(saddle)
    blk = np.block([
        [saddle.M, np.zeros((n_u, n_v))],
        [np.zeros((n_v, n_u)), saddle.N],
    ])

    def at_block(P, points):
        """The block's states X, times ks, points p0 = (alpha_k(x),
        eta_k(x)) and H(i, p, r), the (value, SE) of H_k(x_i, p) at
        p = (u, v) from point i of the block's replica r, which is filled
        once for all its points and shared by the three checks."""
        reps = [] if points is None else [points.replica(r)
                                          for r in range(_HESS_REPS)]
        for rep in reps:
            rep.draws(plant.noise)
        X, ks = P[:, :-1], [int(k) for k in P[:, -1]]
        P0 = np.array([np.concatenate([saddle.alpha(x[None], k)[0],
                                       saddle.eta(x[None], k)[0]])
                       for x, k in zip(X, ks)])

        def H(i, p, r):
            value, se = _h_k_block(V_of, plant, X[i:i + 1], p[None, :n_u],
                                   p[None, n_u:], ks[i],
                                   reps[r].block(i, i + 1) if reps else None)
            return value[0], se[0]
        return X, ks, P0, H

    def stationarity(P, points):
        X, ks, P0, H = at_block(P, points)
        norms = []  # u then v at each point
        for i, p0 in enumerate(P0):
            grad = central_gradient(lambda p: H(i, p, 0)[0], p0, _GRAD_STEP)
            norms += [np.linalg.norm(grad[:n_u]), np.linalg.norm(grad[n_u:])]
        return Rows(np.array(norms),
                    lambda i: {"check": ("stationarity_u",
                                         "stationarity_v")[i % 2],
                               "norm": norms[i], "k": ks[i // 2]},
                    _STATIONARITY_TOL, index=np.repeat(np.arange(len(X)), 2),
                    point=np.repeat(X, 2, axis=0))

    def hessian_domination(P, points):
        X, ks, P0, H = at_block(P, points)
        dom = []
        for i, p0 in enumerate(P0):
            hess = central_hessian(lambda p: sum(
                H(i, p, r)[0] for r in range(_HESS_REPS)) / _HESS_REPS,
                p0, _HESS_STEP)
            dom.append(np.linalg.eigvalsh(0.5 * (hess + hess.T) - blk)[-1])
        return Rows(np.array(dom), lambda i: {"check": "hessian_domination",
                                              "k": ks[i],
                                              "uv": P0[i].tolist()},
                    scale=float(np.linalg.norm(blk, 2)), point=X)

    def completed_square(P, points):
        X, ks, P0, H = at_block(P, points)
        value, se = np.array([H(i, p0, 0) for i, p0 in enumerate(P0)]).T
        square = np.array([0.5 * float(v @ W @ v) for v in P0[:, n_u:]])
        return Rows(value + square, lambda i: {"check": "completed_square",
                                               "k": ks[i]},
                    std_error=se, scale=np.abs(value) + np.abs(square),
                    point=X)

    points = [np.concatenate([x, [k]]) for k in range(k_window)
              for x in domain.points()]
    cert, _ = sweep(
        points, scheme,
        {"stationarity": stationarity,
         "hessian_domination": hessian_domination,
         "completed_square": completed_square},
        "saddle stationarity, Hessian domination, completed-square <= 0",
        f"{domain.label()} x k<{k_window}",
        {"scheme": scheme.spec(), "gamma": saddle.gamma,
         "stationarity_tol": _STATIONARITY_TOL,
         "inverse_condition_number": float(cond)},
        ["finite-difference verification on the sampled scope"])
    return cert
