import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import certify, library, noise
from sbrl.dynamics import (AffineSystem, DisturbanceEnsemble, DisturbancePolicy,
                           GeneralSystem, LinearSystem, rollout, simulate,
                           simulate_ensemble, trajectory_csv_rows)
from sbrl.errors import ConfigurationError, DivergenceError
from sbrl.noise import (NoiseModel, PointMass, Uniform, derive_seed,
                        gaussian_noise, point_mass_noise)
from sbrl.storage import DomainBox, QuadraticStorage
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
    # a rollout's energies: output energy 1 (z_0 = x_0 = 1), and a zero
    # disturbance energy, where a ratio is undefined
    sys_c = scalar_contraction(0.0, 1.0)
    z, v = rollout(sys_c, [1.0], np.zeros((1, 5, 1)), [1]).energies()
    assert z.tolist() == [1.0] and v.tolist() == [0.0]

    ft = memoryless_feedthrough()
    run = rollout(ft, np.zeros(1), np.array([[[1.0], [0.5], [-2.0]]]), [1])
    z, v = run.energies()
    assert z[0] / v[0] == pytest.approx(1.0, abs=1e-15)


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
    assert traj.cum_z_sq[-1] / traj.cum_v_sq[-1] == pytest.approx(1.0)


def test_cumulative_energy_is_prefix_sum():
    sys1 = library.example1_system()
    ens = library.example1_ensembles()["decaying-sine"]
    run = rollout(sys1, np.zeros(1), ens.draw([3], 40), [12])
    traj = run.member(0)
    assert np.array_equal(traj.cum_z_sq, np.cumsum(traj.z_sq))
    assert np.array_equal(traj.cum_v_sq, np.cumsum(traj.v_sq))
    # the rollout's energies are the last running sums, bit for bit
    z, v = run.energies()
    assert z.tobytes() == traj.cum_z_sq[-1:].tobytes()
    assert v.tobytes() == traj.cum_v_sq[-1:].tobytes()


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
    a, b = (simulate_ensemble(sys1, np.zeros(1), ens, 30, 8, seed=99)
            for _ in range(2))
    assert a.states.shape == (8, 31, 1)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.outputs.tobytes() == b.outputs.tobytes()


@pytest.mark.parametrize("system", [
    library.example1_system(),
    closed_loop(library.example2_plant(), library.example2_law()),
], ids=["example1", "example2-closed-loop"])
def test_rollout_checks_its_disturbance_array_once(system):
    n, n_v = system.n, system.n_v
    with pytest.raises(ConfigurationError,
                       match=rf"^v has shape \({n_v + 1},\), expected \({n_v},\)$"):
        rollout(system, np.zeros(n), np.zeros((2, 5, n_v + 1)), [1, 2])
    with pytest.raises(ConfigurationError, match="^1 seeds for 2 members$"):
        rollout(system, np.zeros(n), np.zeros((2, 5, n_v)), [1])
    # no member: an empty rollout, whose members' columns are empty
    run = rollout(system, np.zeros(n), np.zeros((0, 5, n_v)), [])
    assert run.states.shape == (0, 6, n) and run.z_sq.shape == (0, 5)
    assert [e.shape for e in run.energies()] == [(0,), (0,)]
    run.raise_divergence()
    for call in (lambda: simulate(system, np.zeros(n), None, 0, 1),
                 lambda: simulate_ensemble(system, np.zeros(n),
                                           DisturbanceEnsemble.white(n_v), 0,
                                           2, 1)):
        with pytest.raises(ConfigurationError,
                           match="^horizon must be >= 1, got 0$"):
            call()


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


def test_output_map_written_per_point_is_refused():
    # 5 x[0] on a (B, n) block is its first state's output at every row:
    # unprobed, it let a closed-form external check certify a claim that
    # the row-wise map falsifies
    def with_m(m):
        return AffineSystem(
            1, 1, f=lambda X, W: 0.99 * X,
            g=lambda X, W: (0.01 * np.cos(X[..., 0])
                            * W[..., 0])[..., None, None],
            m=m, m1=lambda X: np.array([[0.2]]), noise=gaussian_noise(),
            f_parts=ROW_F_PARTS, g_parts=ROW_G_PARTS)

    with pytest.raises(ConfigurationError,
                       match=r"^m on a \(2, n\) state block .*X\[\.\.\., i\]"):
        with_m(lambda X: 5.0 * X[0])
    with_m(lambda X: 5.0 * X)


def test_feedthrough_map_written_per_point_is_refused():
    # 0.1 |x[0]| on a (B, n) block is its first state's feedthrough at every
    # row: unprobed, it let a closed-form external check over a grid from 0
    # certify with G_beta sup 0.04 a claim that the row-wise map falsifies
    def with_m1(m1):
        return AffineSystem(
            1, 1, f=lambda X, W: 0.99 * X,
            g=lambda X, W: (0.01 * np.cos(X[..., 0])
                            * W[..., 0])[..., None, None],
            m=lambda X: 0.2 * X, m1=m1, noise=gaussian_noise(),
            f_parts=ROW_F_PARTS, g_parts=ROW_G_PARTS)

    with pytest.raises(ConfigurationError,
                       match=r"^m1 on a \(2, n\) state block .*X\[\.\.\., i\]"):
        with_m1(lambda X: np.array([[0.1 * abs(X[0][0])]]))
    system = with_m1(lambda X: (0.1 * np.abs(X[..., 0]))[..., None, None])
    cert = certify.check_external(
        system, QuadraticStorage([[4.0]]), 1.0 / 0.99, 0.08,
        DomainBox((0.0,), (10.0,), ("grid", 101)),
        noise.ExpectationScheme(mode="closed-form"))
    assert cert.status == "falsified"
    assert cert.provenance["g_beta_sup"] == pytest.approx(1.028, abs=5e-4)


@pytest.mark.parametrize("fn", [
    # index 1 of a (2, 1, 3) block is out of bounds: the map raises
    lambda X, k: np.stack([-0.1 * X[:, 0], -0.5 * X[:, 1]], axis=-1),
    # a sum over axis 1 is a sum over the draws' axis on a block
    lambda X, k: -0.1 * X.sum(axis=1, keepdims=True)[..., :2] * np.ones(2),
], ids=["raises", "silent"])
def test_feedback_law_for_rows_only_is_refused_through_closed_loop(fn):
    with pytest.raises(ConfigurationError, match="state block"):
        closed_loop(library.example2_plant(), FeedbackLaw(fn, 2))


def test_feedback_law_refuses_a_control_of_another_width():
    narrow = FeedbackLaw(lambda X, k: -0.1 * X[..., :1], 2)
    with pytest.raises(ConfigurationError, match=r"^law custom returned "
                       r"shape \(4, 1\), expected rows of \(2,\)$"):
        narrow(np.ones((4, 3)))
    with pytest.raises(ConfigurationError, match=r"expected rows of \(2,\)"):
        closed_loop(library.example2_plant(), narrow)
    # leading dimensions still broadcast: the zero law gives one (n_u,) row
    assert FeedbackLaw.zero(2)(np.ones((4, 3))).tolist() == [[0.0, 0.0]] * 4


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
    # an empty feedthrough states its n_v columns too
    build(lambda X: np.zeros((0, 2)))
    for m1 in (np.zeros((0, 3)), np.zeros(0)):
        with pytest.raises(ConfigurationError, match=r"^m1\(0\) has \d columns"):
            build(lambda X, m1=m1: m1)


def test_white_ensemble_draws_one_stream_in_step_order():
    ens = DisturbanceEnsemble.white(2, std=0.5)
    V = ens.draw([4, 17], 7)
    assert V.shape == (2, 7, 2)
    # member 17's steps are its own stream's draws, in step order
    rng = np.random.default_rng(17)
    stream = [0.5 * rng.standard_normal(2) for _ in range(7)]
    for k in (5, 0, 3, 6):
        assert np.array_equal(V[1, k], stream[k])
    # a shorter horizon is a prefix, and a member is the same alone
    assert ens.draw([4, 17], 4).tobytes() == V[:, :4].tobytes()
    assert ens.draw([17], 7).tobytes() == V[1:].tobytes()


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
    V = ens.draw([1, 2], 2)
    assert V[0, 1, 0] != V[1, 1, 0]
    assert ens.draw([2], 2).tobytes() == V[1:].tobytes()


def count_streams(monkeypatch):
    """The seed lists that enter ``noise.streams``, one per call."""
    calls, streams = [], noise.streams

    def counted(seeds, *args):
        calls.append(list(seeds))
        return streams(seeds, *args)

    monkeypatch.setattr(noise, "streams", counted)
    return calls


@pytest.mark.parametrize("draw", ["rollout", "decaying-sine", "white"])
def test_two_hundred_members_enter_the_streams_once(monkeypatch, draw):
    # one table seeds every member, and each member's draws are those of
    # its seed alone
    subs = [derive_seed(3, i) for i in range(200)]
    ensembles = library.example1_ensembles()
    if draw == "rollout":
        system = library.example1_system()

        def run(seeds):
            return rollout(system, [0.1], np.ones((len(seeds), 4, 1)),
                           seeds).states
    else:
        def run(seeds):
            return ensembles[draw].draw(seeds, 4)
    calls = count_streams(monkeypatch)
    together = run(subs)
    assert calls == [subs]
    for i in (0, 117, 199):
        assert run(subs[i:i + 1]).tobytes() == together[i:i + 1].tobytes()


def test_rollout_members_keep_their_bits_at_any_seed():
    # a negative seed is masked to 64 bits, as a lone seed always was
    system = library.example1_system()
    V = np.ones((2, 6, 1))
    both = rollout(system, [0.3], V, [-1, 5])
    for i, seed in enumerate((-1, 5)):
        alone = rollout(system, [0.3], V[i:i + 1], [seed])
        assert same_trajectory(both.member(i), alone.member(0))


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
    """Member i of simulate_ensemble, drawn and simulated on its own."""
    sub = derive_seed(seed, i)
    (v,) = ensemble.draw([derive_seed(sub, 2)], horizon)
    try:
        return simulate(system, x0, DisturbancePolicy.recorded(v), horizon,
                        derive_seed(sub, 1), **kwargs)
    except DivergenceError as err:
        return err


def same_energies(run, i, traj):
    z, v = run.energies()
    return (z[i].tobytes() == traj.cum_z_sq[-1].tobytes()
            and v[i].tobytes() == traj.cum_v_sq[-1].tobytes())


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
    assert not batch.diverged.any() and batch.ends.tolist() == [60] * 6
    for i in range(6):
        alone = one_member(system, x0, ens, 60, 31, i)
        assert same_trajectory(batch.member(i), alone)
        assert same_energies(batch, i, alone)
    fewer = simulate_ensemble(system, x0, ens, 60, 2, seed=31)
    for i in range(2):
        assert same_trajectory(fewer.member(i), batch.member(i))


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
    assert np.flatnonzero(batch.diverged).tolist() == [5]
    for i in range(12):
        alone = one_member(sys_w, x0, ens, 150, 4, i, overflow=1e3)
        assert isinstance(alone, DivergenceError) == batch.diverged[i]
        if batch.diverged[i]:
            assert alone.step == batch.ends[i] == 65
            alone = alone.trajectory
        assert same_trajectory(batch.member(i), alone)
        assert same_energies(batch, i, alone)
    # the batch raises its first diverged member's error
    with pytest.raises(DivergenceError, match="^state overflow at step 65$") \
            as err:
        batch.raise_divergence()
    assert err.value.step == 65
    assert same_trajectory(err.value.trajectory, batch.member(5))


def test_rollout_stops_after_its_last_member_diverges():
    # x+ = 1.5 x from x0 = 1 passes the overflow bound 1e12 at step 69
    system = LinearSystem([[1.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]])
    steps, transition = [], system.transition
    system.transition = lambda k, *args: steps.append(k) or transition(k, *args)
    run = rollout(system, [1.0], np.zeros((3, 100, 1)), [1, 2, 3])
    assert steps == list(range(69))
    assert run.ends.tolist() == [69] * 3 and run.diverged.all()
    x = [1.0]
    for _ in range(69):
        x.append(1.5 * x[-1])
    for i in range(3):
        traj = run.member(i)
        assert traj.states[:, 0].tolist() == x
        assert traj.z_sq.tolist() == [s * s for s in x[:-1]]
    # the rows after the stop hold zeros, which the energies read
    assert not run.states[:, 70:].any() and not run.z_sq[:, 69:].any()


def test_members_overflowing_to_inf_nan_or_past_the_bound_stop_alike():
    # x+ = x + v_1^2 v_2: a v_1 of 1e200 makes the state inf (v_2 = 1) or
    # nan (v_2 = 0, as 0 * inf); 1e7 passes the bound with a finite state
    plant = GeneralSystem(1, 0, 2, F=lambda k, X, U, V, W:
                          X + V[..., :1] ** 2 * V[..., 1:],
                          m=lambda k, X, U, V: X,
                          noise=point_mass_noise(0.0, 1))
    K, x0, overflow = 6, np.array([0.5]), 1e12
    kicks = {"inf": (2, [1e200, 1.0]), "nan": (1, [1e200, 0.0]),
             "past-bound": (3, [1e7, 1.0]), "finite": (0, [1.0, 1.0]),
             "past-bound-at-K": (K - 1, [1e7, 1.0])}
    vs = {}
    for name, (at, v) in kicks.items():
        vs[name] = np.zeros((K, 2))
        vs[name][at] = v
    with np.errstate(over="ignore", invalid="ignore"):
        run = rollout(plant, x0, np.stack(list(vs.values())), [0] * len(vs),
                      overflow=overflow)
        for i, name in enumerate(vs):
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
                assert end is None and not run.diverged[i]
                assert run.ends[i] == K
                continue
            # a member past the bound at the last step ends at K, as a
            # member that never diverged does: only ``diverged`` tells them
            # apart
            assert run.diverged[i]
            assert run.ends[i] == end == kicks[name][0] + 1
            traj = run.member(i)
            assert traj.states.tobytes() == np.array(states).tobytes()
            assert traj.disturbances.tobytes() == vs[name][:end].tobytes()
    assert np.isposinf(run.member(0).states[-1, 0])
    assert np.isnan(run.member(1).states[-1, 0])
    assert np.isfinite(run.member(2).states[-1, 0])


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
    # the drift against its expression written out, bit for bit, on one
    # state against many draws and on one row per member
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
