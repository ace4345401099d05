"""System tiers, trajectory simulation and energy bookkeeping.

Two tiers share one disturbance-channel core: affine-in-disturbance
systems x+ = f(x,w) + g(x,w) v with output z = (m(x); m1(x) v), and
controlled systems x+ = f(x,u,w) + g(x,w) v.  Linear multiplicative-noise
systems x+ = A x + A0 x w + B v with z = (C x; D v) are affine systems
built from their matrices.  A general time-varying tier
x+ = F(k,x,u,v,w), z = m(k,x,u,v) covers everything else.

Systems may optionally declare structure used by the exact expectation
paths: ``f_parts(x) -> (F0, [F_d])`` meaning f(x,w) = F0 + sum_d F_d w_d,
and similarly ``g_parts``.  Vectorised hooks ``f_batch(x, omegas)`` and
``gv_batch(x, v, omegas)`` speed up Monte Carlo sweeps; row-wise fallbacks
are used when they are absent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .noise import derive_seed, gaussian_noise

OVERFLOW_BOUND = 1e12

_EQ_CHECK_SEED = 0x5B11C4EC


def _as_vec(x, n, what):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ConfigurationError(f"{what} has shape {x.shape}, expected ({n},)")
    return x


class GainChannelSystem:
    """Core shared by the affine and controlled tiers.

    Both are x+ = f(x,[u,]w) + g(x,w) v with z = (m(x[,u]); m1(x) v); this
    class owns the disturbance channel (g, m1), the declared hooks, the
    output block and the equilibrium spot check.
    """

    def __init__(self, n, n_v, f, g, m, m1, noise, *, f_parts=None,
                 g_parts=None, f_batch=None, gv_batch=None, g_batch=None, name=""):
        self.n = int(n)
        self.n_v = int(n_v)
        self.f = f
        self.g = g
        self.m = m
        self.m1 = m1
        self.noise = noise
        self.f_parts = f_parts
        self.g_parts = g_parts
        self.f_batch = f_batch
        self.gv_batch = gv_batch
        self.g_batch = g_batch
        self.name = name
        zero = np.zeros(self.n)
        u0 = self._origin_controls()
        origin = ",".join(["0"] * (1 + len(u0)))
        m0 = np.atleast_1d(np.asarray(m(zero, *u0), dtype=float))
        self.n_m = m0.shape[0]
        m10 = np.atleast_2d(np.asarray(m1(zero), dtype=float))
        if m10.size == 0:
            m10 = m10.reshape(0, self.n_v)
        if m10.shape[1] != self.n_v:
            raise ConfigurationError(
                f"m1(0) has {m10.shape[1]} columns, expected n_v={self.n_v}"
            )
        self.n_z = self.n_m + m10.shape[0]
        # Equilibrium is only required for the undriven system; controlled
        # drifts generally move the origin for u != 0.
        if np.any(np.abs(m0) > 1e-12):
            raise ConfigurationError(
                f"m({origin}) != 0: origin is not an output equilibrium")
        for w in noise.sample(_EQ_CHECK_SEED, 4):
            fx = _as_vec(f(zero, *u0, w), self.n, f"f({origin},w)")
            if np.any(np.abs(fx) > 1e-9):
                raise ConfigurationError(
                    f"f({origin},w) != 0 at a sampled noise point")

    def _origin_controls(self):
        """Control arguments f and m take at the origin: none here."""
        return ()

    def gain_times_v_batch(self, x, v, omegas):
        if self.gv_batch is not None:
            return np.asarray(self.gv_batch(x, v, omegas), dtype=float)
        return np.stack(
            [np.asarray(self.g(x, w), dtype=float) @ v for w in omegas]
        )

    def gain_batch(self, x, omegas):
        if self.g_batch is not None:
            return np.asarray(self.g_batch(x, omegas), dtype=float)
        return np.stack([np.atleast_2d(np.asarray(self.g(x, w), dtype=float))
                         for w in omegas])

    def _output(self, x, u, v):
        m = np.atleast_1d(np.asarray(self.m(x, *u), dtype=float))
        m1v = np.atleast_2d(np.asarray(self.m1(x), dtype=float))
        if m1v.size == 0:
            return m
        return np.concatenate([m, m1v @ v])

    def _step(self, x, u, v, omega):
        x_next = _as_vec(self.f(x, *u, omega), self.n, "f(x,[u,]w)") + \
            np.asarray(self.g(x, omega), dtype=float) @ v
        return x_next, self._output(x, u, v)


class AffineSystem(GainChannelSystem):
    """Disturbance-driven tier: x+ = f(x,w) + g(x,w) v, z = (m(x); m1(x) v)."""

    def drift_batch(self, x, omegas):
        if self.f_batch is not None:
            return np.asarray(self.f_batch(x, omegas), dtype=float)
        return np.stack([_as_vec(self.f(x, w), self.n, "f") for w in omegas])

    def output(self, x, v):
        return self._output(x, (), v)

    def step(self, x, v, omega):
        x = _as_vec(x, self.n, "state")
        v = _as_vec(v, self.n_v, "disturbance")
        return self._step(x, (), v, omega)


class ControlledSystem(GainChannelSystem):
    """Controlled tier: x+ = f(x,u,w) + g(x,w) v, z = (m(x,u); m1(x) v)."""

    def __init__(self, n, n_u, n_v, f, g, m, m1, noise, **hooks):
        self.n_u = int(n_u)
        super().__init__(n, n_v, f, g, m, m1, noise, **hooks)

    def _origin_controls(self):
        return (np.zeros(self.n_u),)

    def output(self, x, u, v):
        return self._output(x, (u,), v)

    def step(self, x, u, v, omega):
        x = _as_vec(x, self.n, "state")
        u = _as_vec(u, self.n_u, "control")
        v = _as_vec(v, self.n_v, "disturbance")
        return self._step(x, (u,), v, omega)


class GeneralSystem:
    """General tier: x+ = F(k,x,u,v,w), z = m(k,x,u,v); k explicit."""

    def __init__(self, n, n_u, n_v, F, m, noise, *, F_batch=None, name=""):
        self.n = int(n)
        self.n_u = int(n_u)
        self.n_v = int(n_v)
        self.F = F
        self.m = m
        self.noise = noise
        self.F_batch = F_batch
        self.name = name
        zero = np.zeros(self.n)
        zu, zv = np.zeros(self.n_u), np.zeros(self.n_v)
        for w in noise.sample(_EQ_CHECK_SEED, 4):
            fx = _as_vec(F(0, zero, zu, zv, w), self.n, "F(0,0,0,0,w)")
            if np.any(np.abs(fx) > 1e-9):
                raise ConfigurationError("F(k,0,0,0,w) != 0 at a sampled noise point")
        self.n_z = np.atleast_1d(np.asarray(m(0, zero, zu, zv), dtype=float)).shape[0]

    def transition_batch(self, k, x, u, v, omegas):
        if self.F_batch is not None:
            return np.asarray(self.F_batch(k, x, u, v, omegas), dtype=float)
        return np.stack(
            [_as_vec(self.F(k, x, u, v, w), self.n, "F") for w in omegas]
        )

    def step(self, k, x, u, v, omega):
        x_next = _as_vec(self.F(k, x, u, v, omega), self.n, "F(k,x,u,v,w)")
        z = np.atleast_1d(np.asarray(self.m(k, x, u, v), dtype=float))
        return x_next, z


class LinearSystem(AffineSystem):
    """Linear tier x+ = A x + A0 x w + B v, z = (C x; D v), scalar noise.

    An affine system whose f, g, m, m1 and exact-structure hooks are built
    once from the matrices.
    """

    def __init__(self, A, A0, B, C, D, noise=None):
        self.A = A = np.atleast_2d(np.asarray(A, dtype=float))
        self.A0 = A0 = np.atleast_2d(np.asarray(A0, dtype=float))
        self.B = B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = C = np.atleast_2d(np.asarray(C, dtype=float))
        self.D = D = np.atleast_2d(np.asarray(D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n) or A0.shape != (n, n):
            raise ConfigurationError("A and A0 must be square of the same size")
        if B.shape[0] != n:
            raise ConfigurationError("B must have n rows")
        n_v = B.shape[1]
        if C.shape[1] != n:
            raise ConfigurationError("C must have n columns")
        if D.shape[1] != n_v:
            raise ConfigurationError("D must have n_v columns")
        noise = noise if noise is not None else gaussian_noise(0.0, 1.0, 1)
        if noise.dim != 1:
            raise ConfigurationError("linear tier needs 1-dimensional noise")
        if abs(noise.moment(0, 1)) > 1e-12 or abs(noise.moment(0, 2) - 1.0) > 1e-12:
            raise ConfigurationError("linear tier needs E[w]=0 and E[w^2]=1")

        def f(x, w):
            return A @ x + (A0 @ x) * float(np.atleast_1d(w)[0])

        def f_parts(x):
            return A @ x, [A0 @ x]

        def f_batch(x, omegas):
            return (A @ x)[None, :] + np.atleast_2d(omegas)[:, :1] * (A0 @ x)[None, :]

        def gv_batch(x, v, omegas):
            return np.broadcast_to(B @ v, (np.atleast_2d(omegas).shape[0], n)).copy()

        super().__init__(
            n, n_v,
            f=f,
            g=lambda x, w: B,
            m=lambda x: C @ x,
            m1=lambda x: D,
            noise=noise,
            f_parts=f_parts,
            g_parts=lambda x: (B, [np.zeros_like(B)]),
            f_batch=f_batch,
            gv_batch=gv_batch,
            g_batch=lambda x, omegas: np.broadcast_to(
                B, (np.atleast_2d(omegas).shape[0],) + B.shape
            ),
            name="linear",
        )


class DisturbancePolicy:
    """Disturbance signal: zero, recorded, state feedback, or an impulse."""

    def __init__(self, kind, fn, n_v, label=""):
        self.kind = kind
        self._fn = fn
        self.n_v = n_v
        self.label = label or kind

    def value(self, x, k):
        return self._fn(x, k)

    @staticmethod
    def zero(n_v):
        z = np.zeros(n_v)
        return DisturbancePolicy("zero", lambda x, k: z, n_v)

    @staticmethod
    def recorded(values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("recorded disturbance must have finite energy")
        n_v = values.shape[1]

        def fn(x, k):
            return values[k] if k < values.shape[0] else np.zeros(n_v)

        return DisturbancePolicy("recorded", fn, n_v)

    @staticmethod
    def feedback(fn, n_v):
        return DisturbancePolicy("state-feedback", lambda x, k: np.atleast_1d(fn(x, k)), n_v)

    @staticmethod
    def impulse(at_step, vector):
        vector = np.atleast_1d(np.asarray(vector, dtype=float))
        zero = np.zeros_like(vector)

        def fn(x, k):
            return vector if k == at_step else zero

        return DisturbancePolicy("impulse", fn, vector.shape[0], f"impulse@{at_step}")


class DisturbanceEnsemble:
    """Family of per-trajectory disturbance policies, seeded per member."""

    def __init__(self, kind, factory, n_v, spec):
        self.kind = kind
        self._factory = factory
        self.n_v = n_v
        self._spec = spec

    def make_policy(self, sub_seed) -> DisturbancePolicy:
        return self._factory(sub_seed)

    def spec(self):
        return dict(self._spec)

    @staticmethod
    def fixed(policy):
        return DisturbanceEnsemble(
            "fixed", lambda s: policy, policy.n_v, {"kind": policy.kind}
        )

    @staticmethod
    def decaying_sine(n_v, decay=0.98, freqs=None, phases=None, amp_range=(0.5, 1.5)):
        """v_k[j] = A * decay^k * sin(freq_j * k + phase_j), A ~ U[amp_range]."""
        freqs = np.asarray(freqs if freqs is not None else [0.3] * n_v, dtype=float)
        phases = np.asarray(phases if phases is not None else [0.0] * n_v, dtype=float)

        def factory(sub_seed):
            rng = np.random.default_rng(int(sub_seed))
            amp = rng.uniform(*amp_range)

            def fn(x, k):
                return amp * decay ** k * np.sin(freqs * k + phases)

            return DisturbancePolicy("decaying-sine", fn, n_v)

        return DisturbanceEnsemble(
            "decaying-sine", factory, n_v,
            {"kind": "decaying-sine", "decay": decay, "freqs": freqs.tolist(),
             "phases": phases.tolist(), "amp_range": list(amp_range)},
        )

    @staticmethod
    def white(n_v, std=0.5):
        """i.i.d. gaussian disturbance, finite energy over any finite horizon."""

        def factory(sub_seed):
            rng = np.random.default_rng(int(sub_seed))
            draws = []

            def fn(x, k):
                while len(draws) <= k:
                    draws.append(std * rng.standard_normal(n_v))
                return draws[k]

            return DisturbancePolicy("white", fn, n_v)

        return DisturbanceEnsemble(
            "white", factory, n_v, {"kind": "white", "std": std}
        )


@dataclass
class Trajectory:
    """One simulated path with per-step and cumulative energies."""

    states: np.ndarray        # (K+1, n)
    outputs: np.ndarray       # (K, n_z)
    disturbances: np.ndarray  # (K, n_v)
    controls: np.ndarray | None
    z_sq: np.ndarray
    v_sq: np.ndarray
    cum_z_sq: np.ndarray = field(init=False)
    cum_v_sq: np.ndarray = field(init=False)
    seed: int = 0

    def __post_init__(self):
        self.cum_z_sq = np.cumsum(self.z_sq)
        self.cum_v_sq = np.cumsum(self.v_sq)

    @property
    def horizon(self):
        return self.outputs.shape[0]

    def total_output_energy(self):
        return float(self.cum_z_sq[-1]) if self.z_sq.size else 0.0

    def total_disturbance_energy(self):
        return float(self.cum_v_sq[-1]) if self.v_sq.size else 0.0


def energy_ratio(traj: Trajectory):
    """Output-to-disturbance energy ratio; None when the input energy is 0."""
    denom = traj.total_disturbance_energy()
    if denom == 0.0:
        return None
    return traj.total_output_energy() / denom


def simulate(system, x0, policy_v, horizon, seed, policy_u=None,
             overflow=OVERFLOW_BOUND):
    """Roll the system forward ``horizon`` steps under seeded noise.

    ``policy_u`` is a callable u(x, k) (or None for the disturbance-only
    tiers); ``policy_v`` a DisturbancePolicy.  Raises DivergenceError with
    the partial trajectory when |x_k| exceeds ``overflow``.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    controlled = isinstance(system, (ControlledSystem, GeneralSystem))
    if controlled and policy_u is None:
        policy_u = lambda x, k: np.zeros(system.n_u)  # noqa: E731
    if not controlled and policy_u is not None:
        raise ConfigurationError("this tier takes no control input")
    if policy_v is None:
        policy_v = DisturbancePolicy.zero(system.n_v)

    x = _as_vec(x0, system.n, "x0")
    draws = system.noise.sample(seed, horizon)
    states = np.empty((horizon + 1, system.n))
    outputs = np.empty((horizon, system.n_z))
    vs = np.empty((horizon, system.n_v))
    us = np.empty((horizon, system.n_u)) if controlled else None
    states[0] = x

    for k in range(horizon):
        v = _as_vec(policy_v.value(x, k), system.n_v, "v")
        vs[k] = v
        if isinstance(system, GeneralSystem):
            u = _as_vec(policy_u(x, k), system.n_u, "u")
            us[k] = u
            x, z = system.step(k, x, u, v, draws[k])
        elif isinstance(system, ControlledSystem):
            u = _as_vec(policy_u(x, k), system.n_u, "u")
            us[k] = u
            x, z = system.step(x, u, v, draws[k])
        else:
            x, z = system.step(x, v, draws[k])
        outputs[k] = z
        states[k + 1] = x
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > overflow:
            partial = Trajectory(
                states=states[: k + 2].copy(),
                outputs=outputs[: k + 1].copy(),
                disturbances=vs[: k + 1].copy(),
                controls=us[: k + 1].copy() if us is not None else None,
                z_sq=np.einsum("ij,ij->i", outputs[: k + 1], outputs[: k + 1]),
                v_sq=np.einsum("ij,ij->i", vs[: k + 1], vs[: k + 1]),
                seed=int(seed),
            )
            raise DivergenceError(
                f"state overflow at step {k + 1}", step=k + 1, trajectory=partial
            )

    return Trajectory(
        states=states,
        outputs=outputs,
        disturbances=vs,
        controls=us,
        z_sq=np.einsum("ij,ij->i", outputs, outputs),
        v_sq=np.einsum("ij,ij->i", vs, vs),
        seed=int(seed),
    )


def simulate_ensemble(system, x0, ensemble, horizon, count, seed,
                      policy_u=None, overflow=OVERFLOW_BOUND):
    """Simulate ``count`` trajectories with derived per-member sub-seeds.

    Member i depends only on (seed, i).  Divergent members are returned as
    DivergenceError entries instead of trajectories.
    """
    results = []
    for i in range(count):
        sub = derive_seed(seed, i)
        policy = ensemble.make_policy(derive_seed(sub, 2))
        try:
            results.append(simulate(
                system, x0, policy, horizon, derive_seed(sub, 1),
                policy_u=policy_u, overflow=overflow,
            ))
        except DivergenceError as err:
            results.append(err)
    return results


@dataclass
class LasalleReport:
    tail_max: np.ndarray
    converged: np.ndarray
    fraction_converged: float
    diverged: int
    threshold: float
    tail_fraction: float


def lasalle_probe(system, x0, horizon, count, seed, tail_fraction=0.25,
                  threshold=1e-3, policy_u=None):
    """Zero-disturbance almost-sure-convergence probe.

    Simulates an ensemble with v = 0 and reports, per member, the maximum
    state norm over the final ``tail_fraction`` of the horizon; converged
    means that maximum falls below ``threshold``.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ConfigurationError("tail_fraction must be in (0,1)")
    n_v = system.n_v
    ens = DisturbanceEnsemble.fixed(DisturbancePolicy.zero(n_v))
    results = simulate_ensemble(
        system, x0, ens, horizon, count, seed, policy_u=policy_u
    )
    start = int(np.floor((1.0 - tail_fraction) * horizon))
    tail_max = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    diverged = 0
    for i, res in enumerate(results):
        if isinstance(res, DivergenceError):
            tail_max[i] = np.inf
            diverged += 1
            continue
        tail = np.linalg.norm(res.states[start:], axis=1)
        tail_max[i] = float(tail.max())
        converged[i] = tail_max[i] < threshold
    return LasalleReport(
        tail_max=tail_max,
        converged=converged,
        fraction_converged=float(converged.mean()),
        diverged=diverged,
        threshold=threshold,
        tail_fraction=tail_fraction,
    )


def trajectory_csv_header(n, n_u, n_v):
    cols = ["k"]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"u_{i + 1}" for i in range(n_u)]
    cols += [f"v_{i + 1}" for i in range(n_v)]
    cols += ["z_sq", "v_sq", "cum_z_sq", "cum_v_sq"]
    return cols


def trajectory_csv_rows(traj: Trajectory):
    """Rows for the stable trajectory CSV schema (K+1 rows).

    The final row carries only the terminal state; the step-indexed columns
    are left blank there.
    """
    n = traj.states.shape[1]
    n_u = traj.controls.shape[1] if traj.controls is not None else 0
    n_v = traj.disturbances.shape[1]
    K = traj.horizon
    rows = []
    for k in range(K + 1):
        row = [k] + [repr(float(s)) for s in traj.states[k]]
        if k < K:
            row += [repr(float(u)) for u in traj.controls[k]] if n_u else []
            row += [repr(float(v)) for v in traj.disturbances[k]]
            row += [repr(float(traj.z_sq[k])), repr(float(traj.v_sq[k])),
                    repr(float(traj.cum_z_sq[k])), repr(float(traj.cum_v_sq[k]))]
        else:
            row += [""] * (n_u + n_v + 4)
        rows.append(row)
    return trajectory_csv_header(n, n_u, n_v), rows
