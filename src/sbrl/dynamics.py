"""System tiers, trajectory simulation and energy bookkeeping.

The affine tier ``AffineSystem`` is x+ = f(x,[u,]w) + g(x,w) v with
output z = (m(x[,u]); m1(x) v), its control width ``n_u`` 0 for a
disturbance-driven system and positive for a plant that a feedback law
closes.  Linear multiplicative-noise systems x+ = A x + A0 x w + B v with
z = (C x; D v) are affine systems built from their matrices.  The general
time-varying tier x+ = F(k,x,u,v,w), z = m(k,x,u,v) covers everything else.

Every map takes arrays with leading dimensions; the last axis is the
coordinate: X is (..., n), U (..., n_u), V (..., n_v) and W (..., n_w),
and the leading shapes broadcast against each other.  A simulation passes
(M, .) rows, one per member; a Monte Carlo block passes states (B, 1, n)
against draws (B, N, n_w), so a factor of the state alone is formed once
per point, not once per draw.  A map indexes coordinates as ``X[..., i]``
and returns the broadcast leading shape, or any value that broadcasts to
it, so ``g=lambda X, W: B`` is a constant gain.  Both tiers expose
``transition(k, X, U, V, W)`` and ``output(k, X, U, V)``, so a routine
that needs only those takes either; the affine tier also gives the two
halves ``drift`` and ``gain`` that the certificate functionals need.

The affine tier may declare, over the same leading dimensions, the
affine-in-noise structure of the exact paths: ``f_parts(X[, U])`` gives
(F0, [F_d]) with f(x,[u,]w) = F0 + sum_d F_d w_d at each row, and
``g_parts(X)`` the same for g.  Both tiers check at construction that
their maps (drift, gain and parts, or F and m) give on a small block the
bits of their rows one by one.
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


def leading_shape(*arrays):
    """The broadcast of the arrays' leading shapes (all axes but the last);
    None entries are skipped."""
    lead = None
    for a in arrays:
        if a is None:
            continue
        shape = a.shape[:-1]
        if lead is None:
            lead = shape
        elif shape != lead:
            lead = np.broadcast_shapes(lead, shape)
    return lead


def _rows(value, lead, shape, what):
    """A map's return value broadcast to the leading shape ``lead`` of
    ``shape`` entries.

    The result is a fresh array unless the map already returned that
    shape; either way numpy may reuse it in place as a temporary.
    """
    value = np.asarray(value, dtype=float)
    if value.shape == (*lead, *shape):
        return value
    out = np.empty((*lead, *shape))
    try:
        out[...] = value  # faster than np.broadcast_to for small maps
    except ValueError:
        raise ConfigurationError(
            f"{what} returned shape {value.shape}, expected rows of {shape}"
        ) from None
    return out


def _probe_blocks(noise, widths):
    """The leading-dimension probe's arguments: a (2, 1, w) block of
    random rows per width w (None for a width of None) and draws W
    (2, 3, n_w), as (block arguments with W last, the six (row arguments,
    draw) pairs one at a time, the (2, w) state arguments, their two rows
    one at a time)."""
    rng = np.random.default_rng(_EQ_CHECK_SEED)
    blocks = [None if w is None else rng.uniform(-1.0, 1.0, (2, 1, w))
              for w in widths]
    W = noise.sample(_EQ_CHECK_SEED, 6).reshape(2, 3, -1)
    each_state = [[None if b is None else b[i] for b in blocks]
                  for i in range(2)]
    each_draw = [(*each_state[i], W[i, j:j + 1])
                 for i in range(2) for j in range(3)]
    states = [None if b is None else b[:, 0] for b in blocks]
    return (*blocks, W), each_draw, states, each_state


def _check_leading_dimensions(probes):
    """Raise ``ConfigurationError`` unless each map gives on its block the
    bits of its rows called one at a time: a map written for (N, n) rows
    only, as ``X[:, 0]``, or for one point, as ``x[0]``, can broadcast a
    block to wrong values without an error.  ``probes`` maps a name to
    (map, block shape, its arguments on the block, on each row)."""
    for name, (fn, shape, args, rows) in probes.items():
        with np.errstate(all="ignore"):
            try:
                ok = (fn(*args).tobytes()
                      == np.concatenate([fn(*a) for a in rows]).tobytes())
            except (ArithmeticError, LookupError, TypeError,
                    ValueError) as exc:
                raise ConfigurationError(
                    f"{name} fails on a {shape} state block: {exc}"
                ) from None
        if not ok:
            raise ConfigurationError(
                f"{name} on a {shape} state block differs from its rows "
                "one by one: index coordinates as X[..., i]")


def _stacked(c0, cs):
    """Declared parts (C0, [C_d]) as one array, the part index last."""
    return np.stack([c0, *cs], axis=-1)


class AffineSystem:
    """Affine-in-disturbance tier: x+ = f(x,[u,]w) + g(x,w) v with
    z = (m(x[,u]); m1(x) v).

    ``n_u`` is the control width; with the default 0 the maps take no
    control argument.  The class owns the maps, the declared structure,
    the output block and the equilibrium spot check.
    """

    def __init__(self, n, n_v, f, g, m, m1, noise, *, f_parts=None,
                 g_parts=None, name="", n_u=0):
        self.n = int(n)
        self.n_u = int(n_u)
        self.n_v = int(n_v)
        self.f = f
        self.g = g
        self.m = m
        self.m1 = m1
        self.noise = noise
        self.f_parts = f_parts
        self.g_parts = g_parts
        self.name = name
        zero = np.zeros((1, self.n))
        u0 = np.zeros((1, self.n_u))
        origin = "0,0" if self.n_u else "0"
        m0 = np.atleast_1d(np.asarray(m(*self._args(zero, u0)), dtype=float))
        self.n_m = m0.shape[-1]
        m10 = np.atleast_2d(np.asarray(m1(zero), dtype=float))
        if m10.size == 0:
            m10 = m10.reshape(0, self.n_v)
        if m10.shape[-1] != self.n_v:
            raise ConfigurationError(
                f"m1(0) has {m10.shape[-1]} columns, expected n_v={self.n_v}"
            )
        self.n_z = self.n_m + m10.shape[-2]
        # Equilibrium is only required for the undriven system; controlled
        # drifts generally move the origin for u != 0.
        if np.any(np.abs(m0) > 1e-12):
            raise ConfigurationError(
                f"m({origin}) != 0: origin is not an output equilibrium")
        fx = self.drift(zero, u0, noise.sample(_EQ_CHECK_SEED, 4))
        if np.any(np.abs(fx) > 1e-9):
            raise ConfigurationError(
                f"f({origin},w) != 0 at a sampled noise point")
        # the drift and the gain on states (2, 1, n) against draws
        # (2, 3, n_w), the declared parts on states (2, n)
        drawn, each_draw, states, each_state = _probe_blocks(
            noise, [self.n, self.n_u or None])
        probes = {"f": (self.drift, "(2, 1, n)", drawn, each_draw),
                  "g": (lambda x, u, w: self.gain(x, w), "(2, 1, n)",
                        drawn, each_draw)}
        for name, parts in (("f_parts", self.drift_parts),
                            ("g_parts", lambda x, u: self.gain_parts(x))):
            if getattr(self, name) is not None:
                probes[name] = (lambda x, u, p=parts: _stacked(*p(x, u)),
                                "(2, n)", states, each_state)
        _check_leading_dimensions(probes)

    def _args(self, X, U):
        return (X, U) if self.n_u else (X,)

    def drift(self, X, U, W):
        """f(X,[U,]W) over the broadcast leading dimensions, as (..., n)."""
        return _rows(self.f(*self._args(X, U), W), leading_shape(X, U, W),
                     (self.n,), "f")

    def gain(self, X, W):
        """g(X,W) over the broadcast leading dimensions, as (..., n, n_v)."""
        return _rows(self.g(X, W), leading_shape(X, W), (self.n, self.n_v),
                     "g")

    def drift_parts(self, X, U):
        """The declared ``f_parts(X[,U])`` over the broadcast leading
        dimensions: (F0, [F_d]), each (..., n)."""
        return self._parts(self.f_parts, self._args(X, U),
                           leading_shape(X, U), (self.n,), "f_parts")

    def gain_parts(self, X):
        """The declared ``g_parts(X)`` over the leading dimensions of X:
        (G0, [G_d]), each (..., n, n_v)."""
        return self._parts(self.g_parts, (X,), X.shape[:-1],
                           (self.n, self.n_v), "g_parts")

    def _parts(self, fn, args, lead, shape, what):
        if fn is None:
            raise ConfigurationError(
                f"closed-form expectation needs a declared {what}; use a "
                "monte-carlo scheme instead")
        c0, cs = fn(*args)
        return (_rows(c0, lead, shape, what),
                [_rows(c, lead, shape, what) for c in cs])

    def transition(self, k, X, U, V, W):
        """x+ = f(x,[u,]w) + g(x,w) v over rows; k is unused."""
        return self.drift(X, U, W) + (self.gain(X, W) @ V[..., None])[..., 0]

    def output_m(self, X, U=None):
        """The undisturbed output block m(X[,U]) as (..., n_m)."""
        return _rows(self.m(*self._args(X, U)), leading_shape(X, U),
                     (self.n_m,), "m")

    def output(self, k, X, U, V):
        """z = (m(x[,u]); m1(x) v) as (..., n_z); k is unused."""
        z = self.output_m(X, U)
        if self.n_z == self.n_m:
            return z
        m1v = (np.asarray(self.m1(X), dtype=float) @ V[..., None])[..., 0]
        lead = leading_shape(z, V)
        return np.concatenate([_rows(z, lead, (self.n_m,), "m"),
                               _rows(m1v, lead, (self.n_z - self.n_m,), "m1")],
                              axis=-1)


class GeneralSystem:
    """General tier: x+ = F(k,x,u,v,w), z = m(k,x,u,v); k explicit.

    F takes (B, 1, .) rows against draws (B, N, n_w) and m takes (B, .)
    rows; both are probed at construction, at k = 0."""

    def __init__(self, n, n_u, n_v, F, m, noise, *, name=""):
        self.n = int(n)
        self.n_u = int(n_u)
        self.n_v = int(n_v)
        self.F = F
        self.m = m
        self.noise = noise
        self.name = name
        zero = np.zeros((1, self.n))
        zu, zv = np.zeros((1, self.n_u)), np.zeros((1, self.n_v))
        fx = self.transition(0, zero, zu, zv, noise.sample(_EQ_CHECK_SEED, 4))
        if np.any(np.abs(fx) > 1e-9):
            raise ConfigurationError("F(k,0,0,0,w) != 0 at a sampled noise point")
        self.n_z = np.atleast_1d(np.asarray(m(0, zero, zu, zv), dtype=float)).shape[-1]
        drawn, each_draw, states, each_state = _probe_blocks(
            noise, [self.n, self.n_u, self.n_v])
        _check_leading_dimensions({
            "F": (lambda x, u, v, w: self.transition(0, x, u, v, w),
                  "(2, 1, n)", drawn, each_draw),
            "m": (lambda x, u, v: self.output(0, x, u, v), "(2, n)",
                  states, each_state)})

    def transition(self, k, X, U, V, W):
        return _rows(self.F(k, X, U, V, W), leading_shape(X, U, V, W),
                     (self.n,), "F")

    def output(self, k, X, U, V):
        return _rows(self.m(k, X, U, V), leading_shape(X, U, V), (self.n_z,),
                     "m")


class LinearSystem(AffineSystem):
    """Linear tier x+ = A x + A0 x w + B v, z = (C x; D v), scalar noise.

    An affine system whose maps and exact structure are built once from
    the matrices.
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

        def times(M, X):
            # stacked mat-vecs: bit-equal to M @ x row by row
            return (M @ X[..., None])[..., 0]

        super().__init__(
            n, n_v,
            f=lambda X, W: times(A, X) + times(A0, X) * W[..., :1],
            g=lambda X, W: B,
            m=lambda X: times(C, X),
            m1=lambda X: D,
            noise=noise,
            f_parts=lambda X: (times(A, X), [times(A0, X)]),
            g_parts=lambda X: (B, [np.zeros_like(B)]),
            name="linear",
        )


class DisturbancePolicy:
    """Open-loop disturbance signal v_0, v_1, ...: zero, recorded or impulse.

    ``sequence(K)`` is the (K, n_v) array of the first K values.
    """

    def __init__(self, kind, sequence, n_v):
        self.kind = kind
        self.sequence = sequence
        self.n_v = n_v

    def value(self, k):
        """v_k alone."""
        return self.sequence(k + 1)[k]

    @staticmethod
    def zero(n_v):
        return DisturbancePolicy("zero", lambda K: np.zeros((K, n_v)), n_v)

    @staticmethod
    def recorded(values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("recorded disturbance must have finite energy")
        n_v = values.shape[1]

        def sequence(K):
            out = np.zeros((K, n_v))
            out[: values.shape[0]] = values[:K]
            return out

        return DisturbancePolicy("recorded", sequence, n_v)

    @staticmethod
    def impulse(at_step, vector):
        vector = np.atleast_1d(np.asarray(vector, dtype=float))

        def sequence(K):
            out = np.zeros((K, vector.shape[0]))
            if 0 <= at_step < K:
                out[at_step] = vector
            return out

        return DisturbancePolicy("impulse", sequence, vector.shape[0])


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
        for key, values in (("freqs", freqs), ("phases", phases)):
            if values.shape != (n_v,):
                raise ConfigurationError(f"{key}: {values.size} values for n_v = {n_v}")
        lo, hi = amp_range
        if lo > hi:
            raise ConfigurationError(f"amp_range: low {lo!r} exceeds high {hi!r}")

        def factory(sub_seed):
            rng = np.random.default_rng(int(sub_seed))
            amp = rng.uniform(lo, hi)

            def sequence(K):
                # decay ** k stays a Python float (libm pow): numpy's
                # array power differs from it in the last bit
                envelope = np.array([amp * decay ** k for k in range(K)])
                ks = np.arange(K, dtype=float)[:, None]
                return envelope[:, None] * np.sin(freqs * ks + phases)

            return DisturbancePolicy("decaying-sine", sequence, n_v)

        return DisturbanceEnsemble(
            "decaying-sine", factory, n_v,
            {"kind": "decaying-sine", "decay": decay, "freqs": freqs.tolist(),
             "phases": phases.tolist(), "amp_range": list(amp_range)},
        )

    @staticmethod
    def white(n_v, std=0.5):
        """i.i.d. gaussian disturbance, finite energy over any finite horizon."""

        def factory(sub_seed):
            def sequence(K):
                # one stream in step order: a longer horizon extends a shorter one
                rng = np.random.default_rng(int(sub_seed))
                return std * rng.standard_normal((K, n_v))

            return DisturbancePolicy("white", sequence, n_v)

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


def rollout(system, x0, policies, seeds, horizon, policy_u=None,
            overflow=OVERFLOW_BOUND):
    """Step one member per (policy, seed) pair, all members together.

    Member i starts at x0 and is driven by ``policies[i]`` and the noise
    drawn from ``seeds[i]``; rows never mix, so member i is the same for
    any member count.  ``policy_u(X, k)`` must return one (n_u,) control
    row per member.  Returns one Trajectory per member, or a
    DivergenceError carrying the partial trajectory of a member whose
    |x_k| exceeded ``overflow``; a diverged member stops being stepped.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if not system.n_u and policy_u is not None:
        raise ConfigurationError("this system takes no control input (n_u = 0)")
    n, n_u, K, M = system.n, system.n_u, horizon, len(seeds)
    x0 = _as_vec(x0, n, "x0")
    if not M:
        return []
    vs = np.empty((M, K, system.n_v))
    ws = np.empty((M, K, system.noise.dim))
    for i, (policy, s) in enumerate(zip(policies, seeds)):
        v = policy.sequence(K)
        if v.shape != (K, system.n_v):
            raise ConfigurationError(
                f"v has shape {v.shape[1:]}, expected ({system.n_v},)")
        vs[i] = v
        ws[i] = system.noise.sample(s, K)
    states = np.empty((M, K + 1, n))
    outputs = np.empty((M, K, system.n_z))
    us = np.empty((M, K, n_u)) if n_u else None
    states[:, 0] = x0
    X = states[:, 0].copy()
    U = np.zeros((M, n_u))
    live = np.ones(M, dtype=bool)
    ends = np.full(M, K)
    for k in range(K):
        if policy_u is not None:
            U = np.asarray(policy_u(X, k), dtype=float)
            if U.shape != (M, n_u):  # no broadcasting: u must match the plant
                raise ConfigurationError(
                    f"u has shape {U.shape[1:]}, expected ({n_u},)")
        if n_u:
            us[:, k] = U
        outputs[:, k] = system.output(k, X, U, vs[:, k])
        X = system.transition(k, X, U, vs[:, k], ws[:, k])
        states[:, k + 1] = X
        with np.errstate(over="ignore", invalid="ignore"):
            # a row holding inf or nan has a non-finite norm
            dead = live & ~(np.linalg.norm(X, axis=1) <= overflow)
        if dead.any():
            ends[dead] = k + 1
            live &= ~dead
            X = np.where(live[:, None], X, 0.0)  # keep dead rows finite
    results = []
    for i in range(M):
        end = int(ends[i])
        out, v = outputs[i, :end], vs[i, :end]
        traj = Trajectory(
            states=states[i, : end + 1],
            outputs=out,
            disturbances=v,
            controls=us[i, :end] if n_u else None,
            z_sq=np.einsum("ij,ij->i", out, out),
            v_sq=np.einsum("ij,ij->i", v, v),
            seed=int(seeds[i]),
        )
        if live[i]:
            results.append(traj)
        else:
            results.append(DivergenceError(
                f"state overflow at step {end}", step=end, trajectory=traj))
    return results


def simulate(system, x0, policy_v, horizon, seed, overflow=OVERFLOW_BOUND):
    """Roll the system forward ``horizon`` steps under seeded noise.

    ``policy_v`` is a DisturbancePolicy, zero when None.  A plant with
    n_u > 0 runs at u = 0; simulate a feedback law as ``closed_loop(plant, law)``.
    Raises DivergenceError with the partial trajectory when |x_k| exceeds
    ``overflow``.
    """
    if policy_v is None:
        policy_v = DisturbancePolicy.zero(system.n_v)
    (result,) = rollout(system, x0, [policy_v], [seed], horizon,
                        overflow=overflow)
    if isinstance(result, DivergenceError):
        raise result
    return result


def simulate_ensemble(system, x0, ensemble, horizon, count, seed,
                      policy_u=None, overflow=OVERFLOW_BOUND):
    """Simulate ``count`` trajectories with derived per-member sub-seeds.

    Member i depends only on (seed, i).  Divergent members are returned as
    DivergenceError entries instead of trajectories.
    """
    subs = [derive_seed(seed, i) for i in range(count)]
    policies = [ensemble.make_policy(derive_seed(sub, 2)) for sub in subs]
    return rollout(system, x0, policies, [derive_seed(sub, 1) for sub in subs],
                   horizon, policy_u, overflow)


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
    n_u = traj.controls.shape[1] if traj.controls is not None else 0
    header = trajectory_csv_header(traj.states.shape[1], n_u,
                                   traj.disturbances.shape[1])
    rows = np.column_stack([
        traj.states[:-1], *([traj.controls] if n_u else []), traj.disturbances,
        traj.z_sq, traj.v_sq, traj.cum_z_sq, traj.cum_v_sq]).tolist()
    for k, row in enumerate(rows):  # in place, freeing each row's floats
        row[:] = [k, *map(repr, row)]
    end = [len(rows), *map(repr, traj.states[-1].tolist())]
    rows.append(end + [""] * (len(header) - len(end)))
    return header, rows
