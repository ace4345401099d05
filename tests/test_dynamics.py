import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import library
from sbrl.dynamics import (AffineSystem, DisturbanceEnsemble, DisturbancePolicy,
                           GeneralSystem, LinearSystem, energy_ratio, rollout,
                           simulate, simulate_ensemble, trajectory_csv_rows)
from sbrl.errors import ConfigurationError, DivergenceError
from sbrl.noise import (NoiseModel, PointMass, Uniform, derive_seed,
                        gaussian_noise, point_mass_noise)
from sbrl.synth import FeedbackLaw, closed_loop


def scalar_contraction(a=0.5, c=1.0):
    return AffineSystem(
        1, 1,
        f=lambda X, W: a * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: c * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )


def memoryless_feedthrough(n_v=1):
    return AffineSystem(
        1, n_v,
        f=lambda X, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, n_v)),
        m=lambda X: np.zeros(0),
        m1=lambda X: np.eye(n_v),
        noise=point_mass_noise(0.0, 1),
    )


def step(system, x, v, w):
    """One transition and output of a disturbance tier at a single row."""
    X, V, W = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (x, v, w))
    return (system.transition(0, X, None, V, W)[0],
            system.output(0, X, None, V)[0])


def test_step_linear_scalar():
    sys_lin = LinearSystem([[0.5]], [[0.0]], [[0.0]], [[1.0]], [[0.0]])
    x_next, z = step(sys_lin, [1.0], [0.0], [0.3])
    assert x_next[0] == pytest.approx(0.5)
    assert z[0] == pytest.approx(1.0)


def test_example1_step_ignores_noise_when_v_zero():
    sys1 = library.example1_system()
    for w in (-2.0, 0.0, 1.7):
        x_next, z = step(sys1, [0.8], [0.0], [w])
        assert x_next[0] == pytest.approx(0.99 * 0.8, rel=1e-14)


def test_equilibrium_step_stays_zero():
    sys1 = library.example1_system()
    x_next, z = step(sys1, [0.0], [0.0], [1.3])
    assert np.all(x_next == 0.0)
    assert np.all(z == 0.0)


def test_simulate_geometric_decay():
    sys_c = scalar_contraction(0.5)
    traj = simulate(sys_c, np.array([1.0]), None, 10, seed=4)
    expected = 0.5 ** np.arange(11)
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-12)


def test_example1_zero_disturbance_decay():
    sys1 = library.example1_system()
    traj = simulate(sys1, np.array([1.0]), DisturbancePolicy.zero(1), 100, seed=9)
    assert np.allclose(traj.states[:, 0], 0.99 ** np.arange(101), rtol=1e-12)


def test_zero_initial_state_invariance():
    sys1 = library.example1_system()
    traj = simulate(sys1, np.zeros(1), DisturbancePolicy.zero(1), 50, seed=2)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_energy_ratio_cases():
    sys_c = scalar_contraction(0.0, 1.0)
    traj = simulate(sys_c, np.array([1.0]), DisturbancePolicy.zero(1), 5, seed=1)
    # zero disturbance: ratio undefined
    assert energy_ratio(traj) is None

    ft = memoryless_feedthrough()
    policy = DisturbancePolicy.recorded(np.array([[1.0], [0.5], [-2.0]]))
    traj = simulate(ft, np.zeros(1), policy, 3, seed=1)
    assert energy_ratio(traj) == pytest.approx(1.0, abs=1e-15)


def test_unit_energy_ratio():
    # z0 = x0 (=1 via m), all later terms 0; v0 = 1, later 0
    sys_u = AffineSystem(
        1, 1,
        f=lambda X, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    policy = DisturbancePolicy.impulse(0, [1.0])
    traj = simulate(sys_u, np.array([1.0]), policy, 4, seed=0)
    assert energy_ratio(traj) == pytest.approx(1.0)


def test_cumulative_energy_is_prefix_sum():
    sys1 = library.example1_system()
    ens = library.example1_ensembles()["decaying-sine"]
    traj = simulate(sys1, np.zeros(1), ens.make_policy(3), 40, seed=12)
    assert np.array_equal(traj.cum_z_sq, np.cumsum(traj.z_sq))
    assert np.array_equal(traj.cum_v_sq, np.cumsum(traj.v_sq))


def test_divergence_error_carries_step_and_partial():
    sys_d = AffineSystem(
        1, 1,
        f=lambda X, W: 2.0 * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    with pytest.raises(DivergenceError) as err:
        simulate(sys_d, np.array([1.0]), DisturbancePolicy.zero(1), 100,
                 seed=0, overflow=1e6)
    assert err.value.step == 20  # 2^20 = 1048576 > 1e6
    assert err.value.trajectory.states.shape[0] == err.value.step + 1


def test_seed_determinism_and_thread_independence():
    sys1 = library.example1_system()
    ens = library.example1_ensembles()["white"]
    runs = [simulate_ensemble(sys1, np.zeros(1), ens, 30, 8, seed=99)
            for _ in range(2)]
    for a, b in zip(*runs):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.outputs, b.outputs)


def test_linear_deterministic_matches_matrix_iteration_exactly():
    # with A0 = 0 the noise term contributes exactly 0.0 per step, so the
    # deterministic recursion is reproduced bit for bit whatever the noise
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    sys_lin = LinearSystem(A, np.zeros((2, 2)), B, C, np.zeros((1, 1)),
                           noise=gaussian_noise(0.0, 1.0, 1))
    vs = np.array([[0.3], [-0.2], [0.0], [1.0]])
    traj = simulate(sys_lin, np.array([1.0, -1.0]),
                    DisturbancePolicy.recorded(vs), 4, seed=3)
    x = np.array([1.0, -1.0])
    for k in range(4):
        x = A @ x + B @ vs[k]
        assert np.array_equal(traj.states[k + 1], x)


def test_linear_tier_requires_unit_variance_noise():
    with pytest.raises(ConfigurationError):
        LinearSystem([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]],
                     noise=NoiseModel((PointMass(0.7),)))


def test_equilibrium_violation_rejected():
    with pytest.raises(ConfigurationError):
        AffineSystem(
            1, 1,
            f=lambda X, W: X + 1.0,
            g=lambda X, W: np.zeros((1, 1)),
            m=lambda X: X,
            m1=lambda X: np.zeros((0, 1)),
            noise=point_mass_noise(0.0, 1),
        )


def test_maps_written_for_two_dimensional_rows_are_refused():
    # on a (B, 1, n) state block against (B, N, n_w) draws, W[:, 0] picks
    # the first draw of every point: the gain broadcasts to wrong values
    # without an error, and the construction probe refuses it
    with pytest.raises(ConfigurationError, match=r"X\[\.\.\., i\]"):
        AffineSystem(
            1, 1,
            f=lambda X, W: 0.5 * X,
            g=lambda X, W: (0.1 * np.cos(X[:, 0]) * W[:, 0])[:, None, None],
            m=lambda X: X,
            m1=lambda X: np.zeros((0, 1)),
            noise=gaussian_noise(),
        )
    # the same map over leading dimensions is accepted
    AffineSystem(
        1, 1,
        f=lambda X, W: 0.5 * X,
        g=lambda X, W: (0.1 * np.cos(X[..., 0]) * W[..., 0])[..., None, None],
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=gaussian_noise(),
    )


def example1_with_parts(f_parts, g_parts):
    return AffineSystem(
        1, 1,
        f=lambda X, W: 0.99 * X,
        g=lambda X, W: (0.01 * np.cos(X[..., 0]) * W[..., 0])[..., None, None],
        m=lambda X: 0.2 * X,
        m1=lambda X: np.array([[0.2]]),
        noise=gaussian_noise(),
        f_parts=f_parts,
        g_parts=g_parts,
    )


ROW_F_PARTS = lambda X: (0.99 * X, [np.zeros(1)])  # noqa: E731
ROW_G_PARTS = lambda X: (  # noqa: E731
    np.zeros((1, 1)), [(0.01 * np.cos(X[..., 0]))[..., None, None]])


@pytest.mark.parametrize("name,f_parts,g_parts", [
    # x[0] of a (B, n) block is its first state: one row's parts would
    # spread over the whole block of a closed-form sweep without an error
    ("f_parts", lambda x: (np.array([0.99 * x[0]]), [np.zeros(1)]),
     ROW_G_PARTS),
    ("g_parts", ROW_F_PARTS,
     lambda x: (np.zeros((1, 1)), [np.array([[0.01 * np.cos(x[0])]])])),
], ids=["f_parts", "g_parts"])
def test_parts_written_per_point_are_refused(name, f_parts, g_parts):
    with pytest.raises(ConfigurationError, match=rf"^{name} .*X\[\.\.\., i\]"):
        example1_with_parts(f_parts, g_parts)
    # the same parts over leading dimensions are accepted
    example1_with_parts(ROW_F_PARTS, ROW_G_PARTS)


@pytest.mark.parametrize("fn", [
    # index 1 of a (2, 1, 3) block is out of bounds: the map raises
    lambda X, k: np.stack([-0.1 * X[:, 0], -0.5 * X[:, 1]], axis=-1),
    # a sum over axis 1 is a sum over the draws' axis on a block
    lambda X, k: -0.1 * X.sum(axis=1, keepdims=True)[..., :2] * np.ones(2),
], ids=["raises", "silent"])
def test_feedback_law_for_rows_only_is_refused_through_closed_loop(fn):
    with pytest.raises(ConfigurationError, match="state block"):
        closed_loop(library.example2_plant(), FeedbackLaw(fn, 2))


@pytest.mark.parametrize("build", [
    lambda m1: AffineSystem(
        1, 2, f=lambda X, W: np.zeros(1), g=lambda X, W: np.zeros((1, 2)),
        m=lambda X: np.zeros(1), m1=m1, noise=point_mass_noise(0.0, 1)),
    lambda m1: AffineSystem(
        1, 2, f=lambda X, U, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, 2)), m=lambda X, U: np.zeros(1), m1=m1,
        noise=point_mass_noise(0.0, 1), n_u=1),
], ids=["affine", "controlled"])
def test_m1_column_count_must_match_n_v(build):
    build(lambda X: np.eye(2))
    with pytest.raises(ConfigurationError):
        build(lambda X: np.eye(3))


def test_white_ensemble_draws_one_stream_in_step_order():
    ens = DisturbanceEnsemble.white(2, std=0.5)
    policy = ens.make_policy(17)
    late_first = [policy.value(k) for k in (5, 0, 3, 6)]
    rng = np.random.default_rng(17)
    stream = [0.5 * rng.standard_normal(2) for _ in range(7)]
    for got, k in zip(late_first, (5, 0, 3, 6)):
        assert np.array_equal(got, stream[k])


def test_trajectory_csv_schema():
    sys_c = scalar_contraction(0.5)
    traj = simulate(sys_c, np.array([1.0]), None, 3, seed=0)
    header, rows = trajectory_csv_rows(traj)
    assert header == ["k", "x_1", "v_1", "z_sq", "v_sq", "cum_z_sq", "cum_v_sq"]
    assert len(rows) == 4
    assert rows[0][0] == 0 and rows[0][1] == repr(1.0)
    assert rows[-1][2:] == [""] * 5


def test_decaying_sine_amplitude_is_member_specific():
    ens = DisturbanceEnsemble.decaying_sine(1)
    a = ens.make_policy(1).value(1)
    b = ens.make_policy(2).value(1)
    assert a[0] != b[0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32), K=st.integers(2, 25))
def test_simulation_pure_in_seed(seed, K):
    sys1 = library.example1_system()
    policy = DisturbancePolicy.recorded(np.ones((K, 1)))
    a = simulate(sys1, np.array([0.5]), policy, K, seed)
    b = simulate(sys1, np.array([0.5]), policy, K, seed)
    assert np.array_equal(a.states, b.states)


# ------------------------------------------------- batch independence

def same_trajectory(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("states", "outputs", "disturbances", "z_sq", "v_sq"))


def one_member(system, x0, ensemble, horizon, seed, i, **kwargs):
    """Member i of simulate_ensemble, simulated on its own."""
    sub = derive_seed(seed, i)
    try:
        return simulate(system, x0, ensemble.make_policy(derive_seed(sub, 2)),
                        horizon, derive_seed(sub, 1), **kwargs)
    except DivergenceError as err:
        return err


ENSEMBLE_CASES = {
    "example1-decaying-sine": lambda: (
        library.example1_system(), np.zeros(1),
        library.example1_ensembles()["decaying-sine"]),
    "example1-white": lambda: (
        library.example1_system(), np.array([0.4]),
        library.example1_ensembles()["white"]),
    "example2-closed-loop": lambda: (
        closed_loop(library.example2_plant(), library.example2_law()),
        np.array([1.0, 1.0, 0.5]), library.example2_ensemble()),
    "linear": lambda: (
        LinearSystem([[0.6, 0.2], [-0.1, 0.5]], [[0.1, 0.0], [0.0, 0.1]],
                     [[1.0], [0.5]], [[1.0, 0.0]], [[0.1]]),
        np.array([1.0, -1.0]), DisturbanceEnsemble.white(1, std=0.5)),
}


@pytest.mark.parametrize("case", sorted(ENSEMBLE_CASES))
def test_ensemble_members_equal_single_member_runs(case):
    system, x0, ens = ENSEMBLE_CASES[case]()
    batch = simulate_ensemble(system, x0, ens, 60, 6, seed=31)
    for i, traj in enumerate(batch):
        assert same_trajectory(traj, one_member(system, x0, ens, 60, 31, i))
    fewer = simulate_ensemble(system, x0, ens, 60, 2, seed=31)
    for a, b in zip(fewer, batch):
        assert same_trajectory(a, b)


def test_diverging_member_matches_its_single_run_and_spares_the_rest():
    # x+ = w x with w ~ U[0, 2.4]: E[log w] < 0, yet one of these paths
    # (member 5, at step 65) passes the overflow bound
    sys_w = AffineSystem(
        1, 1,
        f=lambda X, W: W * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=NoiseModel((Uniform(0.0, 2.4),)),
    )
    ens = DisturbanceEnsemble.fixed(DisturbancePolicy.zero(1))
    x0 = np.array([1.0])
    batch = simulate_ensemble(sys_w, x0, ens, 150, 12, seed=4, overflow=1e3)
    assert sum(isinstance(r, DivergenceError) for r in batch) == 1
    for i, res in enumerate(batch):
        alone = one_member(sys_w, x0, ens, 150, 4, i, overflow=1e3)
        assert type(alone) is type(res)
        if isinstance(res, DivergenceError):
            assert res.step == alone.step
            res, alone = res.trajectory, alone.trajectory
        assert same_trajectory(res, alone)


def test_members_overflowing_to_inf_nan_or_past_the_bound_stop_alike():
    # x+ = x + v_1^2 v_2: a v_1 of 1e200 makes the state inf (v_2 = 1) or
    # nan (v_2 = 0, as 0 * inf); 1e7 passes the bound with a finite state
    plant = GeneralSystem(1, 0, 2, F=lambda k, X, U, V, W:
                          X + V[..., :1] ** 2 * V[..., 1:],
                          m=lambda k, X, U, V: X,
                          noise=point_mass_noise(0.0, 1))
    K, x0, overflow = 6, np.array([0.5]), 1e12
    kicks = {"inf": (2, [1e200, 1.0]), "nan": (1, [1e200, 0.0]),
             "past-bound": (3, [1e7, 1.0]), "finite": (0, [1.0, 1.0])}
    vs = {}
    for name, (at, v) in kicks.items():
        vs[name] = np.zeros((K, 2))
        vs[name][at] = v
    with np.errstate(over="ignore", invalid="ignore"):
        runs = rollout(plant, x0, [DisturbancePolicy.recorded(v)
                                   for v in vs.values()],
                       [0] * len(vs), K, overflow=overflow)
        for name, res in zip(vs, runs):
            # one member alone, under the former test: any non-finite
            # coordinate, or a norm past the bound
            X, states, end = x0[None], [x0], None
            for k in range(K):
                X = plant.transition(k, X, np.zeros((1, 0)), vs[name][k:k + 1],
                                     np.zeros((1, 1)))
                states.append(X[0])
                if (not np.isfinite(X).all()
                        or np.linalg.norm(X) > overflow):
                    end = k + 1
                    break
            if name == "finite":
                assert end is None and not isinstance(res, DivergenceError)
                continue
            assert res.step == end == kicks[name][0] + 1
            traj = res.trajectory
            assert traj.states.tobytes() == np.array(states).tobytes()
            assert traj.disturbances.tobytes() == vs[name][:end].tobytes()
    assert np.isposinf(runs[0].trajectory.states[-1, 0])
    assert np.isnan(runs[1].trajectory.states[-1, 0])
    assert np.isfinite(runs[2].trajectory.states[-1, 0])


# ------------------------------------------------- declared structure

def structure_cases():
    plant = library.example2_plant()
    law = library.example2_law()
    lin = LinearSystem([[0.6, 0.2], [-0.1, 0.5]], [[0.1, 0.0], [0.0, 0.1]],
                       [[1.0], [0.5]], [[1.0, 0.0]], [[0.1]])
    return {
        "example1": library.example1_system(),
        "example2-plant": plant,
        "example2-closed-loop": closed_loop(plant, law),
        "linear": lin,
    }


@pytest.mark.parametrize("case", ["example1", "example2-plant",
                                  "example2-closed-loop", "linear"])
def test_declared_parts_agree_with_row_maps(case):
    # the parts of a block of five states (and controls), each row against
    # the maps at its state over 16 draws
    system = structure_cases()[case]
    rng = np.random.default_rng(3)
    W = system.noise.sample(8, 16)
    X = rng.uniform(-2.0, 2.0, size=(5, system.n))
    U = rng.uniform(-1.0, 1.0, size=(5, system.n_u)) if system.n_u else None
    F0, Fs = system.drift_parts(X, U)
    parts = F0[:, None] + sum(W[:, d, None] * Fd[:, None]
                              for d, Fd in enumerate(Fs))
    drift = system.drift(X[:, None], None if U is None else U[:, None], W)
    assert np.allclose(parts, drift, rtol=0.0, atol=1e-12)
    G0, Gs = system.gain_parts(X)
    gains = G0[:, None] + sum(W[:, d, None, None] * Gd[:, None]
                              for d, Gd in enumerate(Gs))
    assert np.allclose(gains, system.gain(X[:, None], W), rtol=0.0,
                       atol=1e-12)


def test_example2_drift_keeps_its_operation_order():
    # the in-place drift against the expression it replaced, bit for bit,
    # on one state against many draws and on one row per member
    plant = library.example2_plant()
    rng = np.random.default_rng(5)
    W = plant.noise.sample(3, 257)
    for X, U in ((rng.uniform(-2, 2, (1, 3)), rng.uniform(-1, 1, (1, 2))),
                 (rng.uniform(-2, 2, (257, 3)), rng.uniform(-1, 1, (257, 2)))):
        x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
        expected = np.stack([
            W[:, 0] * x1 + W[:, 1] * x2 ** 2 + U[:, 0],
            W[:, 2] * x2 + W[:, 3] * (x3 / (1.0 + np.abs(x3))) + U[:, 1],
            W[:, 4] * x3 * np.cos(x2) + U[:, 0],
        ], axis=-1)
        assert plant.f(X, U, W).tobytes(order="C") == expected.tobytes()
