import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import library
from sbrl.dynamics import (AffineSystem, ControlledSystem, DisturbanceEnsemble,
                           DisturbancePolicy, LinearSystem, energy_ratio,
                           lasalle_probe, simulate, simulate_ensemble,
                           trajectory_csv_rows)
from sbrl.errors import ConfigurationError, DivergenceError
from sbrl.noise import (NoiseModel, PointMass, Uniform, derive_seed,
                        gaussian_noise, point_mass_noise)
from sbrl.synth import closed_loop


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


def test_lasalle_contraction_converges():
    rep = lasalle_probe(scalar_contraction(0.5), np.array([1.0]), 100, 16,
                        seed=5, threshold=1e-3)
    assert rep.fraction_converged == 1.0


def test_lasalle_expansion_fails():
    sys_e = AffineSystem(
        1, 1,
        f=lambda X, W: 1.1 * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    rep = lasalle_probe(sys_e, np.array([1.0]), 100, 16, seed=5, threshold=1e-3)
    assert rep.fraction_converged == 0.0


def test_lasalle_example2_closed_loop():
    loop = closed_loop(library.example2_plant(), library.example2_law())
    rep = lasalle_probe(loop, np.array([1.0, 1.0, 0.5]), 500, 100, seed=21,
                        threshold=1e-3)
    assert rep.fraction_converged == 1.0


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


@pytest.mark.parametrize("build", [
    lambda m1: AffineSystem(
        1, 2, f=lambda X, W: np.zeros(1), g=lambda X, W: np.zeros((1, 2)),
        m=lambda X: np.zeros(1), m1=m1, noise=point_mass_noise(0.0, 1)),
    lambda m1: ControlledSystem(
        1, 1, 2, f=lambda X, U, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, 2)), m=lambda X, U: np.zeros(1), m1=m1,
        noise=point_mass_noise(0.0, 1)),
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


# ------------------------------------------------- declared structure

def structure_cases():
    plant = library.example2_plant()
    law = library.example2_law()
    lin = LinearSystem([[0.6, 0.2], [-0.1, 0.5]], [[0.1, 0.0], [0.0, 0.1]],
                       [[1.0], [0.5]], [[1.0, 0.0]], [[0.1]])
    u = np.array([0.3, -0.7])
    return {
        "example1": (library.example1_system(), ()),
        "example2-plant": (plant, (u,)),
        "example2-closed-loop": (closed_loop(plant, law), ()),
        "linear": (lin, ()),
    }


@pytest.mark.parametrize("case", ["example1", "example2-plant",
                                  "example2-closed-loop", "linear"])
def test_declared_parts_agree_with_row_maps(case):
    system, u = structure_cases()[case]
    rng = np.random.default_rng(3)
    W = system.noise.sample(8, 16)
    for x in rng.uniform(-2.0, 2.0, size=(5, system.n)):
        rows = (x[None], *(c[None] for c in u))
        F0, Fs = system.f_parts(x, *u)
        parts = F0 + sum(w[:, None] * Fd for w, Fd in zip(W.T, Fs))
        assert np.allclose(parts, system.f(*rows, W), rtol=0.0, atol=1e-12)
        G0, Gs = system.g_parts(x)
        gains = G0 + sum(w[:, None, None] * Gd for w, Gd in zip(W.T, Gs))
        assert np.allclose(gains, system.gain(x[None], W), rtol=0.0, atol=1e-12)
