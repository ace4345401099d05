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

from .certificates import Certificate, Row, sweep
from .certify import _sq_norms, check_external, expected_value_of
from .dynamics import AffineSystem
from .errors import ConfigurationError, PreconditionError
from .noise import Estimate
from .storage import DomainBox, StorageFunction


class FeedbackLaw:
    """State-feedback map u = alpha(x, k); time invariant unless k is used.

    ``law(X, k)`` maps (..., n) states to (..., n_u) controls, over any
    leading dimensions.  The general
    tier's worst-case disturbance map eta is one too, with n_u = n_v.
    """

    def __init__(self, fn, n_u, kind="custom", spec=None):
        self._fn = fn
        self.n_u = int(n_u)
        self.kind = kind
        self._spec = spec or {"kind": kind}

    def __call__(self, X, k=0):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(np.asarray(self._fn(X, k), dtype=float),
                               (*X.shape[:-1], self.n_u))

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
    """Fold u = alpha(x) into the plant, yielding the disturbance-driven loop."""
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


def certify_controller(plant, law, V, beta, gamma_sq, domain: DomainBox,
                       scheme) -> Certificate:
    """Certify a law via the closed loop's external-stability check.

    By construction this returns exactly the statuses and margins of
    check_external on closed_loop(plant, law) with the same seeds.
    """
    loop = closed_loop(plant, law)
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
    one time k, one ``Estimate`` per row, from the block's ``PointDraws``
    ``points``: H_k reads no declared noise structure, so closed form
    (None) raises, and a point-mass noise makes Monte Carlo exact."""
    mean, se = expected_value_of(
        V_of(k + 1), plant.noise, points, None,
        lambda draws: plant.transition(k, X[:, None], U[:, None],
                                       Vd[:, None], draws))
    value = mean - V_of(k).evaluate_batch(X) + _sq_norms(
        plant.output(k, X, U, Vd))
    return [Estimate(v, e) for v, e in zip(value.tolist(), se.tolist())]


def h_k_general(V_seq, plant, x, u, v, k, scheme) -> Estimate:
    """Time-varying functional H_k = E[V_{k+1}(F_k(x,u,v,w))] - V_k(x) + |m_k|^2."""
    x, u, v = (np.atleast_1d(np.asarray(a, dtype=float))[None]
               for a in (x, u, v))
    return _h_k_block(_storage_sequence(V_seq), plant, x, u, v, k,
                      scheme.point_draws())[0]


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
        out, ks = [], P[:, -1]
        cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1), len(P)]
        for lo, hi in zip(cuts, cuts[1:]):
            X, Vd, k = P[lo:hi, :plant.n], P[lo:hi, plant.n:-1], int(ks[lo])
            ests = _h_k_block(V_of, plant, X, alpha(X, k), Vd, k,
                              None if points is None
                              else points.block(lo, hi))
            bounds = (gamma_sq * _sq_norms(Vd)).tolist()
            out += [Row(est.value, bound, est.std_error,
                        abs(est.value) + bound, {"k": k})
                    for est, bound in zip(ests, bounds)]
        return out

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
    stencil points and sub-checks.  A functional that cannot be evaluated
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

    replicas = {}  # point seed -> its replicas, for the current block only

    def per_point(check):
        """``check(x, k, p0, h)`` at each point of a block, as a block form:
        p0 = (alpha_k(x), eta_k(x)), and h(p, r) is the ``Estimate`` of
        H_k(x, p), p = (u, v), from replica r of the point's draws."""
        def rows(X, points):
            seeds = [None] * len(X) if points is None else points.seeds
            for seed in replicas.keys() - set(seeds):  # the last block's
                del replicas[seed]
            out = []
            for i, (pt, seed) in enumerate(zip(X, seeds)):
                x, k = pt[:-1], int(pt[-1])
                if seed not in replicas:  # the three checks share them
                    one = None if points is None else points.block(i, i + 1)
                    replicas[seed] = [None if one is None else one.replica(r)
                                      for r in range(_HESS_REPS)]
                reps = replicas[seed]

                def h(p, r):
                    return _h_k_block(
                        V_of, plant, x[None], p[None, :n_u], p[None, n_u:], k,
                        reps[r])[0]

                p0 = np.concatenate([saddle.alpha(x[None], k)[0],
                                     saddle.eta(x[None], k)[0]])
                out.append(check(x, k, p0, h))
            return out
        return rows

    def stationarity(x, k, p0, h):
        grad = central_gradient(lambda p: h(p, 0).value, p0, _GRAD_STEP)
        norms = {"u": float(np.linalg.norm(grad[:n_u])),
                 "v": float(np.linalg.norm(grad[n_u:]))}
        return [Row(norm, _STATIONARITY_TOL, point=x,
                    info={"check": f"stationarity_{name}", "norm": norm, "k": k})
                for name, norm in norms.items()]

    def hessian(x, k, p0, h):
        hess = central_hessian(
            lambda p: sum(h(p, r).value for r in range(_HESS_REPS)) / _HESS_REPS,
            p0, _HESS_STEP)
        dom = np.linalg.eigvalsh(0.5 * (hess + hess.T) - blk)[-1]
        return Row(dom, scale=float(np.linalg.norm(blk, 2)), point=x,
                   info={"check": "hessian_domination", "k": k,
                         "uv": p0.tolist()})

    def completed_square(x, k, p0, h):
        est, v_star = h(p0, 0), p0[n_u:]
        square = 0.5 * float(v_star @ W @ v_star)
        return Row(est.value + square, std_error=est.std_error,
                   scale=abs(est.value) + abs(square), point=x,
                   info={"check": "completed_square", "k": k})

    points = [np.concatenate([x, [k]]) for k in range(k_window)
              for x in domain.points()]
    cert, _ = sweep(
        points, scheme,
        {"stationarity": per_point(stationarity),
         "hessian_domination": per_point(hessian),
         "completed_square": per_point(completed_square)},
        "saddle stationarity, Hessian domination, completed-square <= 0",
        f"{domain.label()} x k<{k_window}",
        {"scheme": scheme.spec(), "gamma": saddle.gamma,
         "stationarity_tol": _STATIONARITY_TOL,
         "inverse_condition_number": float(cond)},
        ["finite-difference verification on the sampled scope"])
    return cert
