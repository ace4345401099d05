import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import certify, library, noise
from sbrl.dynamics import AffineSystem, DisturbanceEnsemble, LinearSystem
from sbrl.errors import ConfigurationError, PreconditionError
from sbrl.noise import ExpectationScheme, gaussian_noise, point_mass_noise
from sbrl.certificates import base_tolerance
from sbrl.storage import (CustomStorage, DomainBox, QuadraticStorage,
                          SeparableStorage, quad_bound)

CF = ExpectationScheme(mode="closed-form")
BETA1 = 1.0 / 0.99


def unstable_scalar(a=1.1, c=0.0):
    return AffineSystem(
        1, 1,
        f=lambda X, W: a * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: c * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        f_parts=lambda X: (a * X, [np.zeros(1)]),
        g_parts=lambda x: (np.zeros((1, 1)), [np.zeros((1, 1))]),
    )


def zero_system():
    return AffineSystem(
        1, 1,
        f=lambda X, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: np.zeros(1),
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        f_parts=lambda x: (np.zeros(1), [np.zeros(1)]),
        g_parts=lambda x: (np.zeros((1, 1)), [np.zeros((1, 1))]),
    )


def random_stable_linear(rng, n, n_v=1, n_m=1, target=0.8):
    A = rng.normal(size=(n, n))
    A0 = 0.5 * rng.normal(size=(n, n))
    S = A.T @ A + A0.T @ A0
    scale = math.sqrt(target / np.linalg.eigvalsh(S)[-1])
    A, A0 = scale * A, scale * A0
    B = rng.normal(size=(n, n_v))
    C = 0.5 * rng.normal(size=(n_m, n))
    D = 0.3 * rng.normal(size=(1, n_v))
    return LinearSystem(A, A0, B, C, D)


def random_spd(rng, n):
    R = rng.normal(size=(n, n))
    return R.T @ R + 0.5 * np.eye(n)


def sphere_scan_sup(fn, n_v, count=720, seed=0):
    """Dense direction scan as an independent supremum oracle."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, n_v))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.concatenate([dirs, np.eye(n_v), -np.eye(n_v)])
    return max(fn(d) for d in dirs)


# ------------------------------------------------------------ functionals

def test_h0_zero_at_equilibrium():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    est = certify.h0(V, sys1, [0.0], CF)
    assert est.value == 0.0


def test_h0_linear_multiplicative_noise():
    # E[(0.5 + w)^2] - 1 = 0.25 + 1 - 1 by the moment expansion; C = 0
    sys_lin = LinearSystem([[0.5]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    V = QuadraticStorage([[1.0]])
    est = certify.h0(V, sys_lin, [1.0], CF)
    assert est.value == pytest.approx(0.25, abs=1e-12)


def test_h0_example1():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    est = certify.h0(V, sys1, [1.0], CF)
    assert est.value == pytest.approx(-0.0796 + 0.04, abs=1e-12)


def test_h0_positive_for_expansion():
    sys_u = unstable_scalar(a=1.1, c=0.0)
    V = QuadraticStorage([[1.0]])
    est = certify.h0(V, sys_u, [1.0], CF)
    assert est.value == pytest.approx(0.21, abs=1e-12)


def test_h1_example1_boundary():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    for x in (-3.0, 0.0, 1.0, 7.5):
        est = certify.h1(V, sys1, [x], BETA1, CF)
        assert abs(est.value) < 1e-12 * max(1.0, x * x)


def test_h1_example2_closed_loop_nonpositive():
    from sbrl.synth import closed_loop
    loop = closed_loop(library.example2_plant(), library.example2_law())
    V = library.example2_storage()
    mc = ExpectationScheme(samples=100_000, seed=31)
    est = certify.h1(V, loop, [1.0, 1.0, 1.0], library.EXAMPLE2_BETA, mc)
    assert est.value <= 3.0 * est.std_error


def test_h1_rejects_beta_at_most_one():
    sys1 = library.example1_system()
    with pytest.raises(ConfigurationError):
        certify.h1(library.example1_storage(), sys1, [1.0], 1.0, CF)


def test_g_beta_example1_at_origin():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    est = certify.g_beta(V, sys1, [0.0], BETA1, CF)
    assert est.value == pytest.approx(0.08, abs=1e-12)


def test_g_beta_antithetic_std_error_matches_seed_spread():
    # the antithetic standard error comes from the pair means, so it must
    # match the spread of G_beta over independent seeds
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    ests = [certify.g_beta(V, sys1, [0.3], BETA1,
                           ExpectationScheme(samples=2000, seed=s,
                                             antithetic=True))
            for s in range(200)]
    spread = np.std([e.value for e in ests], ddof=1)
    mean_se = np.mean([e.std_error for e in ests])
    assert mean_se == pytest.approx(spread, rel=0.10)


def test_g_beta_example2_value_and_sphere_oracle():
    V = library.example2_storage()
    beta = library.EXAMPLE2_BETA
    est = certify.g_beta(V, library.example2_plant(), [0.7, -1.0, 0.2], beta, CF)
    expected = beta / (beta - 1.0) / 16.0
    assert est.value == pytest.approx(expected, abs=1e-12)
    # oracle: dense scan of the Rayleigh objective over unit directions
    c = beta / (beta - 1.0)
    G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])

    def objective(v):
        y = (c / 1.0) * (G @ v)
        return (1.0 / c) * V.evaluate(y)

    oracle = sphere_scan_sup(objective, 2)
    assert est.value == pytest.approx(oracle, rel=1e-3)


def test_g_beta_zero_channels():
    est = certify.g_beta(QuadraticStorage([[2.0]]), zero_system(), [0.3], 2.0, CF)
    assert est.value == 0.0


def test_g_beta_infinite_when_quartic_coordinate_excited():
    sys2 = library.example2_plant()
    V = SeparableStorage((1.0, 1.0, 1.0), (2, 2, 4))  # power 4 on a fed row
    est = certify.g_beta(V, sys2, [0.0, 0.0, 0.0], 2.0, CF)
    assert est.value == np.inf


def test_tiny_gain_noise_part_makes_g_beta_infinite():
    # g = G0 + G1 w with |G1| = 1e-9: the quartic coordinate sees
    # (c 1e-9 w v)^4, so the supremum over v is +inf, exactly, and the
    # claim is falsified
    G0, G1 = np.array([[1.0], [0.0]]), np.array([[0.0], [1e-9]])
    sys_t = AffineSystem(
        2, 1,
        f=lambda X, W: 0.1 * X,
        g=lambda X, W: G0 + G1 * W[..., 0, None, None],
        m=lambda X: np.zeros((*X.shape[:-1], 1)),
        m1=lambda X: np.zeros((0, 1)),
        noise=gaussian_noise(0.0, 1.0, 1),
        f_parts=lambda x: (0.1 * x, [np.zeros(2)]),
        g_parts=lambda x: (G0, [G1]),
    )
    V = SeparableStorage((1.0, 1.0), (2, 4))
    box = DomainBox((-1.0, -1.0), (1.0, 1.0), ("grid", 3))
    for scheme in (CF, ExpectationScheme(samples=50, seed=2)):
        est = certify.g_beta(V, sys_t, [0.0, 0.0], 2.0, scheme)
        assert (est.value, est.lower_bound_only) == (np.inf, False)
        cert = certify.check_external(sys_t, V, 2.0, 4.5, box, scheme)
        assert cert.status == "falsified"
        assert cert.provenance["g_beta_sup"] == np.inf
        assert not any("lower bound" in note for note in cert.notes)


def test_g0_quadratic_against_sphere_oracle():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(3, 2))
    M1 = rng.normal(size=(2, 2))
    sys_b = AffineSystem(
        3, 2,
        f=lambda X, W: 0.5 * X,
        g=lambda X, W: B,
        m=lambda X: X[..., :1],
        m1=lambda X: M1,
        noise=point_mass_noise(0.0, 1),
        f_parts=lambda x: (0.5 * x, [np.zeros(3)]),
        g_parts=lambda x: (B, [np.zeros((3, 2))]),
    )
    P = random_spd(rng, 3)
    est = certify.g0(QuadraticStorage(P), sys_b, CF)
    exact = np.linalg.eigvalsh(B.T @ P @ B + M1.T @ M1)[-1]
    assert est.value == pytest.approx(exact, abs=1e-12)
    oracle = sphere_scan_sup(
        lambda v: float((B @ v) @ P @ (B @ v) + (M1 @ v) @ (M1 @ v)), 2)
    assert est.value == pytest.approx(oracle, rel=1e-3)


BOX_201 = DomainBox((-10.0,), (10.0,), ("grid", 201))


@pytest.mark.parametrize("gamma_sq", [0.1, 0.08, 0.0799])
def test_separable_square_storage_gives_the_quadratic_verdicts(gamma_sq):
    # V = 4 x^2 as separable {p: [4], d: [2]}: the noisy gain b cos(x) w
    # takes the exact gram path, as quadratic storage does, so both give
    # the same verdict and the same G_beta bits
    sys1 = library.example1_system()
    quadratic, separable = (
        certify.check_external(sys1, V, BETA1, gamma_sq, BOX_201, CF)
        for V in (QuadraticStorage([[4.0]]), SeparableStorage((4.0,), (2,))))
    assert separable.status == quadratic.status \
        == ("falsified" if gamma_sq < 0.08 else "certified")
    assert repr(separable.provenance["g_beta_sup"]) \
        == repr(quadratic.provenance["g_beta_sup"])
    assert not separable.provenance.get("lower_bound_only")
    assert not any("lower bound" in note for note in separable.notes)


@pytest.mark.parametrize("scheme", [CF, ExpectationScheme(samples=200, seed=3)],
                         ids=["closed-form", "mc200"])
@pytest.mark.parametrize("d", [4, 6])
def test_quartic_storage_on_a_noisy_gain_is_falsified(scheme, d):
    # example 1's gain b cos(x) w feeds its one coordinate: with power 4 or
    # more, E[(c g v)^d] / |v|^2 grows without bound, so G_beta = +inf
    cert = certify.check_external(library.example1_system(),
                                  SeparableStorage((4.0,), (d,)), BETA1, 0.1,
                                  BOX_201, scheme)
    assert cert.status == "falsified"
    assert cert.provenance["g_beta_sup"] == np.inf
    assert cert.witness["info"] == {"inequality": "G_beta"}


@pytest.mark.parametrize("scheme", [CF, ExpectationScheme(samples=20, seed=1)],
                         ids=["closed-form", "mc20"])
@pytest.mark.parametrize("gain", [1.0, 1e-170])
def test_infinite_g_beta_falsifies_against_any_gamma(gain, scheme):
    # a noise-free gain feeding x^4: G_beta = +inf exactly, and H1 <= 0;
    # the tolerance of an infinite side must not grow to +inf with it, and
    # a gain of 1e-170, whose square underflows, is still an excitation
    s = AffineSystem(1, 1, f=lambda X, W: 0.5 * X,
                     g=lambda X, W: np.full((1, 1), gain),
                     m=lambda X: 0.0 * X, m1=lambda X: np.zeros((0, 1)),
                     noise=point_mass_noise(0.0, 1),
                     f_parts=lambda X: (0.5 * X, [np.zeros(1)]),
                     g_parts=lambda X: (np.full((1, 1), gain),
                                        [np.zeros((1, 1))]))
    cert = certify.check_external(s, SeparableStorage((1.0,), (4,)), 2.0,
                                  1e6, DomainBox((-1.0,), (1.0,), ("grid", 5)),
                                  scheme)
    assert cert.status == "falsified"
    assert cert.worst_margin == np.inf
    assert cert.tolerance == base_tolerance(np.inf) == 1e-9
    assert cert.provenance["h1_worst"] <= 0.0


def noisy_drift_system():
    """x+ = (0.6 + 0.3 w) x + 0.2 v, w ~ N(0.3, 0.5): the drift's noise
    part makes E[V(b f)] a moment sum of every order up to the power."""
    return AffineSystem(
        1, 1,
        f=lambda X, W: (0.6 + 0.3 * W) * X,
        g=lambda X, W: np.full((*np.broadcast_shapes(X.shape[:-1],
                                                     W.shape[:-1]), 1, 1),
                               0.2),
        m=lambda X: 0.5 * X,
        m1=lambda X: np.array([[0.1]]),
        noise=gaussian_noise(0.3, 0.5),
        f_parts=lambda X: (0.6 * X, [0.3 * X]),
        g_parts=lambda X: (np.array([[0.2]]), [np.zeros((1, 1))]),
    )


def test_separable_power_six_closed_form_agrees_with_monte_carlo():
    system, V = noisy_drift_system(), SeparableStorage((0.7,), (6,))
    mc = ExpectationScheme(samples=20_000, seed=5)
    for x in ([0.4], [0.9], [-1.3]):
        exact = certify.h1(V, system, x, 1.2, CF)
        sampled = certify.h1(V, system, x, 1.2, mc.at(np.array(x)))
        assert exact.std_error == 0.0 and sampled.std_error > 0.0
        assert abs(exact.value - sampled.value) <= 4.0 * sampled.std_error


def test_cancelling_expansion_keeps_a_positive_h1_falsified():
    # f = 0.6 x (w - 30) with w ~ N(30, 1): E[(b f)^4] = 3 (0.6 b x)^4 is
    # added up from raw-moment terms about 1e7 times as large, of both
    # signs; H1 = 0.3888 b^3 x^4 - x^4 > 0 by a clear margin at x = +-1
    # must falsify, whatever size the terms that cancelled had
    system = AffineSystem(
        1, 1, f=lambda X, W: 0.6 * X * (W - 30.0),
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: 0.0 * X, m1=lambda X: np.zeros((0, 1)),
        noise=gaussian_noise(30.0, 1.0),
        f_parts=lambda X: (-18.0 * X, [0.6 * X]),
        g_parts=lambda X: (np.zeros((1, 1)), [np.zeros((1, 1))]))
    V, beta = SeparableStorage((1.0,), (4,)), 1.57
    h1 = 0.3888 * beta ** 3 - 1.0
    assert certify.h1(V, system, [1.0], beta, CF).value == pytest.approx(
        h1, rel=1e-8)
    cert = certify.check_external(system, V, beta, 1.0,
                                  DomainBox((-1.0,), (1.0,), ("grid", 3)), CF)
    assert cert.status == "falsified"
    assert cert.witness["info"] == {"inequality": "H1"}
    assert cert.worst_margin == pytest.approx(h1, rel=1e-8)
    assert cert.tolerance < 1e-6


def test_closed_form_gain_parts_are_formed_once_per_block():
    # a closed-form G_beta sweep forms g_parts once per block of points,
    # for separable storage with a quartic coordinate too (the gram and the
    # excitation test read the same parts), never once per point or per
    # direction; the sphere-sampled bound is Monte Carlo only and forms no
    # parts
    sys1 = library.example1_system()
    calls = []
    parts = sys1.g_parts
    sys1.g_parts = lambda X: calls.append(X.shape) or parts(X)
    for V in (QuadraticStorage([[4.0]]), SeparableStorage((4.0,), (2,)),
              SeparableStorage((4.0,), (4,))):
        calls.clear()
        certify.check_external(sys1, V, BETA1, 0.1, BOX_201, CF)
        assert calls == [(201, 1)]
    calls.clear()
    custom = CustomStorage(lambda X: 4.0 * X[:, 0] ** 2, 1, claims_convex=True)
    with pytest.raises(ConfigurationError, match="quadratic or separable"):
        certify.g_beta(custom, sys1, [0.5], BETA1, CF)
    est = certify.g_beta(custom, sys1, [0.5], BETA1,
                         ExpectationScheme(samples=50, seed=1))
    assert est.lower_bound_only
    assert calls == []


@pytest.mark.parametrize("antithetic", [False, True])
def test_monte_carlo_separable_g_beta_samples_the_gain_once(antithetic):
    # the gram of the power-2 coordinates and the excitation test of the
    # higher ones read the same samples of g: one gain evaluation per draw
    # chunk, as quadratic storage takes
    G0 = np.array([[1.0], [0.0]])
    calls = []

    def gain(X, W):
        calls.append(W.shape)
        return G0 + np.array([[0.0], [1e-170]]) * W[..., None, :1]

    s = AffineSystem(2, 1, f=lambda X, W: 0.5 * X, g=gain,
                     m=lambda X: 0.0 * X, m1=lambda X: np.zeros((0, 2)),
                     noise=gaussian_noise(0.0, 1.0))
    scheme = ExpectationScheme(samples=400, seed=3, antithetic=antithetic)
    X = np.array([[0.0, 0.0], [0.5, -1.0], [1.0, 2.0]])
    counts = []
    for V in (QuadraticStorage(np.diag([1.0, 1.0])),
              SeparableStorage((1.0, 1.0), (2, 4))):
        calls.clear()
        est = certify._gain_sup(V, s, X, 2.0, scheme.draws_at(X))
        counts.append(len(calls))
    assert counts[0] == counts[1] == (2 if antithetic else 1)
    # a noise part of 1e-170 excites the quartic row at every point
    assert [e.value for e in est] == [np.inf] * 3


@pytest.mark.parametrize("antithetic", [False, True])
def test_monte_carlo_separable_g_beta_is_exact_where_the_gain_is_noise_free(
        antithetic):
    # g = (1, 0)' + (0, x_1)' w: noise free at x_1 = 0 only.  Those points
    # take the closed-form value with SE 0 under Monte Carlo, the others
    # the sampled gram, and each point of a mixed block has the bits it
    # has alone
    s = AffineSystem(
        2, 1, f=lambda X, W: 0.5 * X,
        g=lambda X, W: np.stack([np.ones_like(X[..., :1] * W[..., :1]),
                                 X[..., :1] * W[..., :1]], axis=-2),
        m=lambda X: 0.0 * X, m1=lambda X: np.zeros((0, 2)),
        noise=gaussian_noise(0.0, 1.0),
        g_parts=lambda X: (np.stack([np.ones_like(X[..., :1]),
                                     np.zeros_like(X[..., :1])], axis=-2),
                           [np.stack([np.zeros_like(X[..., :1]), X[..., :1]],
                                     axis=-2)]))
    V = SeparableStorage((1.5, 2.0), (2, 2))
    scheme = ExpectationScheme(samples=300, seed=8, antithetic=antithetic)
    X = np.array([[0.0, 1.0], [0.7, -1.0], [0.0, -2.0], [-1.2, 0.5]])
    block = certify._gain_sup(V, s, X, 2.0, scheme.draws_at(X))
    exact = certify._gain_sup(V, s, X, 2.0, None)
    for i, x in enumerate(X):
        alone = certify._gain_sup(V, s, x[None], 2.0, scheme.draws_at(x[None]))
        assert (block[i].value, block[i].std_error) \
            == (alone[0].value, alone[0].std_error)
        if x[0] == 0.0:
            assert (block[i].value, block[i].std_error) == (exact[i].value,
                                                            0.0)
        else:
            assert block[i].std_error > 0.0
            assert abs(block[i].value - exact[i].value) \
                <= 4.0 * block[i].std_error


def test_g0_scalar_and_zero_storage():
    sys_b = AffineSystem(
        1, 1,
        f=lambda X, W: 0.5 * X,
        g=lambda X, W: np.array([[1.0]]),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        g_parts=lambda x: (np.array([[1.0]]), [np.zeros((1, 1))]),
    )
    est = certify.g0(QuadraticStorage([[2.0]]), sys_b, CF)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    zero_V = CustomStorage(lambda x: 0.0, 1, claims_convex=True)
    mc = ExpectationScheme(samples=64, seed=5)
    est0 = certify.g0(zero_V, sys_b, mc)
    assert est0.value == 0.0
    assert est0.lower_bound_only


def test_linear_system_is_an_affine_system():
    sys_l = LinearSystem([[0.5]], [[0.3]], [[1.0]], [[0.5]], [[0.2]])
    assert isinstance(sys_l, AffineSystem)
    V = QuadraticStorage([[2.0]])
    beta, x = 1.5, np.array([1.2])
    # H1 = (b (A'PA + A0'PA0) - P + C'C) x^2,  G0 = B'PB + D'D
    h1_exact = (beta * (0.25 * 2.0 + 0.09 * 2.0) - 2.0 + 0.25) * 1.44
    assert certify.h1(V, sys_l, x, beta, CF).value == pytest.approx(
        h1_exact, abs=1e-12)
    assert certify.g0(V, sys_l, CF).value == pytest.approx(2.04, abs=1e-12)


# ----------------------------------------------------------------- checks

def test_check_internal_example1_certified():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    cert = certify.check_internal(sys1, V, 4.0, box, CF)
    assert cert.status == "certified"


def test_check_internal_expansion_falsified():
    sys_u = unstable_scalar(a=1.1, c=0.2)
    V = QuadraticStorage([[4.0]])
    box = DomainBox((-10.0,), (10.0,), ("grid", 41))
    cert = certify.check_internal(sys_u, V, 4.0, box, CF)
    assert cert.status == "falsified"
    assert cert.witness is not None


def test_check_internal_quartic_growth_inconclusive():
    sys_c = unstable_scalar(a=0.5, c=0.0)
    V = SeparableStorage((1.0,), (4,))
    box = DomainBox((-2.0,), (2.0,), ("grid", 41))
    cert = certify.check_internal(sys_c, V, 4.0, box, CF)
    assert cert.status == "inconclusive"


def test_check_external_example1_certified_and_tight():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    cert = certify.check_external(sys1, V, BETA1, 0.08, box, CF)
    assert cert.status == "certified"
    assert cert.provenance["g_beta_sup"] == pytest.approx(0.08, abs=1e-12)


def test_check_external_smaller_gamma_falsified():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    cert = certify.check_external(sys1, V, BETA1, 0.05, box, CF)
    assert cert.status == "falsified"


def test_check_external_zero_system_any_gamma():
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-5.0,), (5.0,), ("grid", 21))
    for gamma in (0.01, 1.0, 100.0):
        cert = certify.check_external(zero_system(), V, 2.0, gamma ** 2, box,
                                      CF)
        assert cert.status == "certified"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_external_overflow_is_inconclusive():
    # at |x| = 1e200 the closed-form H1 overflows to inf - inf = NaN, and
    # every tolerance comparison with NaN is false
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-1e200,), (1e200,), ("grid", 5))
    cert = certify.check_external(sys1, V, BETA1, 0.08, box, CF)
    assert cert.status == "inconclusive"
    assert math.isnan(cert.witness["margin"])
    # H1 is finite only at x = 0: its worst value is unknown, not 0.0
    assert cert.provenance["h1_worst"] is None
    assert math.isfinite(cert.provenance["g_beta_sup"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_internal_overflow_is_inconclusive():
    box = DomainBox((-1e200,), (1e200,), ("grid", 5))
    cert = certify.check_internal(library.example1_system(),
                                  library.example1_storage(4.0), 4.0, box, CF)
    assert cert.status == "inconclusive"
    assert math.isnan(cert.witness["margin"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_star_search_overflow_is_infeasible():
    # a NaN H1 must not count as feasible, or the one finite point x = 0
    # yields a "bound" of 0.0406, below the true gamma*^2 = 0.08
    box = DomainBox((-1e200,), (1e200,), ("grid", 5))
    candidates = [(p, library.example1_storage(p)) for p in (2.0, 4.0)]
    res = certify.gamma_star_search(library.example1_system(), candidates,
                                    [BETA1, 1.5], box, CF)
    assert res.status == "infeasible"
    assert res.feasible_count == 0


MC100 = ExpectationScheme(samples=100, seed=7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_external_monte_carlo_overflow_is_inconclusive():
    # the Monte Carlo H1 integrand overflows at |x| = 1e200: that point gets
    # a NaN margin carrying the message, as the closed form's inf - inf does
    box = DomainBox((-1e200,), (1e200,), ("grid", 3))
    cert = certify.check_external(library.example1_system(),
                                  library.example1_storage(4.0), BETA1,
                                  0.08, box, MC100)
    assert cert.status == "inconclusive"
    assert cert.witness["point"] == [-1e200]
    assert math.isnan(cert.witness["margin"])
    assert cert.witness["info"] == {
        "inequality": "H1", "error": "integrand non-finite at sample 0"}
    assert cert.provenance["samples_checked"] == 6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bound", [1e100, 1e200])
def test_monte_carlo_gain_gram_overflow_is_inconclusive(bound):
    # g(x, w) = x (1 + w) overflows the sampled gram E[g' P g] at 1e200 and
    # its standard error at 1e100; H1 = -V(x) stays a number at 1e100, but
    # at 1e200 V(x) overflows too, and that -inf H1 row is found first
    growing_gain = AffineSystem(
        1, 1,
        f=lambda X, W: 0.0 * X,
        g=lambda X, W: X[..., None] * (1.0 + W[..., None]),
        m=lambda X: 0.0 * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=gaussian_noise(),
    )
    box = DomainBox((-bound,), (bound,), ("grid", 3))
    cert = certify.check_external(growing_gain, QuadraticStorage([[1.0]]),
                                  2.0, 1.0, box, MC100)
    assert cert.status == "inconclusive"
    assert cert.provenance["g_beta_sup"] is None
    if bound == 1e100:
        assert cert.witness["info"] == {"inequality": "G_beta",
                                        "error": "gain gram non-finite"}
    else:
        assert cert.witness["margin"] == -math.inf
        assert cert.witness["info"] == {"inequality": "H1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", [MC100, CF], ids=["mc100", "closed-form"])
def test_overflowed_storage_value_is_inconclusive(scheme):
    # f = 0, so E[V(b f)] = 0 while V(x) = x^2 overflows at |x| = 1e200:
    # H1 = -inf there, and a -inf margin counts like NaN, not as within
    # tolerance
    system = AffineSystem(
        1, 1,
        f=lambda X, W: 0.0 * X,
        g=lambda X, W: np.full((*X.shape[:-1], 1, 1), 0.1),
        m=lambda X: 0.0 * X,
        m1=lambda X: np.array([[0.1]]),
        noise=gaussian_noise(),
        f_parts=lambda x: (np.zeros(1), [np.zeros(1)]),
        g_parts=lambda x: (np.array([[0.1]]), [np.zeros((1, 1))]),
    )
    cert = certify.check_external(system, QuadraticStorage([[1.0]]), 2.0,
                                  1.0, DomainBox((-1e200,), (1e200,),
                                                 ("grid", 3)), scheme)
    assert cert.status == "inconclusive"
    assert cert.provenance["h1_worst"] is None
    assert cert.witness["point"] == [-1e200]
    assert cert.witness["margin"] == -math.inf
    assert cert.witness["info"] == {"inequality": "H1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_internal_monte_carlo_overflow_is_inconclusive():
    box = DomainBox((-1e200,), (1e200,), ("grid", 3))
    cert = certify.check_internal(library.example1_system(),
                                  library.example1_storage(4.0), 4.0, box,
                                  MC100)
    assert cert.status == "inconclusive"
    assert math.isnan(cert.witness["margin"])
    assert cert.provenance["samples_checked"] == 6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_star_search_monte_carlo_overflow_is_infeasible():
    box = DomainBox((-1e200,), (1e200,), ("grid", 3))
    candidates = [(p, library.example1_storage(p)) for p in (2.0, 4.0)]
    res = certify.gamma_star_search(library.example1_system(), candidates,
                                    [BETA1, 1.5], box, MC100)
    assert res.status == "infeasible"
    assert res.candidates_checked == 4
    assert res.feasible_count == 0


def test_vectorised_custom_storage_non_finite_state_is_inconclusive():
    # V(x) is not finite at x = +-10 while E[V(b f(x, w))] is, so H1 there
    # must be a NaN row with the storage message, not -inf within tolerance
    V = CustomStorage(lambda X: np.where(np.abs(X[:, 0]) < 9.0, X[:, 0] ** 2,
                                         np.inf), 1, claims_convex=True)
    contracting = AffineSystem(
        1, 1,
        f=lambda X, W: 0.1 * X,
        g=lambda X, W: np.full((*X.shape[:-1], 1, 1), 0.1),
        m=lambda X: 0.0 * X,
        m1=lambda X: np.array([[0.1]]),
        noise=gaussian_noise(),
    )
    cert = certify.check_external(contracting, V, 2.0, 1.0,
                                  DomainBox((-10.0,), (10.0,), ("grid", 3)),
                                  MC100)
    assert cert.status == "inconclusive"
    assert cert.witness["point"] == [-10.0]
    assert cert.witness["info"] == {
        "inequality": "H1",
        "error": "storage candidate returned a non-finite value"}
    assert cert.provenance["h1_worst"] is None


def test_check_external_requires_convexity_claim():
    V = CustomStorage(lambda X: X[:, 0] ** 2, 1, claims_convex=False)
    box = DomainBox((-1.0,), (1.0,))
    with pytest.raises(PreconditionError):
        certify.check_external(zero_system(), V, 2.0, 1.0, box, CF)


def test_certificates_are_deterministic():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 51))
    mc = ExpectationScheme(samples=2000, seed=11)
    a = certify.check_external(sys1, V, BETA1, 0.08, box, mc)
    b = certify.check_external(sys1, V, BETA1, 0.08, box, mc)
    assert a.to_dict() == b.to_dict()


def test_certificate_records_the_tolerance_of_its_worst_margin():
    # gamma^2 just below the exact 0.08: the worst G_beta margin, 5e-9,
    # passes only against 1e-9 + 1e-7 * G_beta, not against 1e-9
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    cert = certify.check_external(sys1, V, BETA1, 0.079999995, box, CF)
    assert cert.status == "certified"
    assert cert.worst_margin == pytest.approx(5e-9, rel=1e-6)
    assert cert.tolerance == base_tolerance(cert.provenance["g_beta_sup"])
    assert cert.worst_margin <= cert.tolerance


def test_all_nan_sweep_keeps_the_absolute_tolerance():
    V = CustomStorage(lambda X: np.where(np.any(X, axis=1), math.nan, 0.0),
                      1, claims_convex=True)
    cert = certify.check_external(library.example1_system(), V, BETA1, 0.09,
                                  DomainBox((1.0,), (2.0,), ("grid", 3)),
                                  ExpectationScheme(samples=20, seed=1))
    assert cert.status == "inconclusive"
    assert cert.tolerance == 1e-9


@settings(max_examples=40, deadline=None)
@given(p=st.floats(3.5, 4.5), gamma_sq=st.floats(0.0799, 0.0801),
       c2=st.floats(3.5, 5.0), grid=st.integers(1, 41), mc=st.booleans())
def test_certified_worst_margin_is_within_the_recorded_tolerance(
        p, gamma_sq, c2, grid, mc):
    sys1, V = library.example1_system(), library.example1_storage(p)
    box = DomainBox((-10.0,), (10.0,), ("grid", grid))
    scheme = ExpectationScheme(samples=50, seed=3) if mc else CF
    for cert in (certify.check_external(sys1, V, BETA1, gamma_sq, box,
                                        scheme),
                 certify.check_internal(sys1, V, c2, box, scheme)):
        assert cert.tolerance >= 1e-9
        if cert.certified:
            assert cert.worst_margin <= cert.tolerance


# ------------------------------------------------ sweep engine guards

def reference_sweep(points, scheme, rows_at, force_inconclusive=False):
    """The per-point loop as written before the sweep engine: margins against
    1e-9 + 1e-7 * scale, falsified beyond 3 standard errors, NaN witness;
    the worst margin keeps the tolerance it was judged against."""
    worst, worst_info, violation, nan_witness, ok, count = (
        -math.inf, None, None, None, True, 0)
    worst_tol = 1e-9
    sups = {}
    for x in points:
        for name, lhs, rhs, se, scale in rows_at(x, scheme.at(x)):
            sups[name] = max(sups.get(name, -math.inf), lhs)
            margin, count = lhs - rhs, count + 1
            witness = {"point": x.tolist(), "margin": margin,
                       "std_error": se, "info": {"inequality": name}}
            if math.isnan(margin) or math.isnan(se):
                nan_witness = nan_witness or witness
                continue
            tol = base_tolerance(scale)
            if margin > worst:
                worst, worst_tol = margin, tol
                worst_info = {"point": x.tolist(),
                              "info": {"inequality": name}}
            if margin > tol + 3.0 * se:
                excess = margin - (tol + 3.0 * se)
                if violation is None or excess > violation[0]:
                    violation = (excess, witness)
            ok = ok and margin <= tol
    if violation is not None:
        status, witness = "falsified", violation[1]
    elif nan_witness is not None:
        status, witness = "inconclusive", nan_witness
    elif ok and count and not force_inconclusive:
        status, witness = "certified", None
    else:
        status, witness = "inconclusive", worst_info
    return status, witness, worst, worst_tol, count, sups


def _m_sq(system, x):
    m = system.output_m(x[None])[0]
    return float(m @ m)


def reference_external(system, V, beta, gamma_sq, domain, scheme,
                       fresh=False):
    # fresh: each functional gets its own scheme.at(x), hence its own draw
    def rows_at(x, s):
        e1 = certify.h1(V, system, x, beta, scheme.at(x) if fresh else s)
        eg = certify.g_beta(V, system, x, beta, scheme.at(x) if fresh else s)
        yield ("H1", e1.value, 0.0, e1.std_error,
               abs(e1.value) + V.evaluate(x) + _m_sq(system, x))
        yield ("G_beta", eg.value, gamma_sq, eg.std_error,
               max(abs(eg.value), gamma_sq))

    status, witness, worst, tol, count, sups = reference_sweep(
        domain.points(), scheme, rows_at)
    notes = [f"certified only on {domain.label()}"]
    if isinstance(V, QuadraticStorage):
        notes.append(f"V <= {V.lambda_max:g} |x|^2, so certification also "
                     "implies internal stability on this domain")
    return {
        "status": status,
        "inequality": "H1(V(x),beta) <= 0 and G_beta(V(x)) <= gamma^2",
        "domain": domain.label(), "worst_margin": worst, "witness": witness,
        "provenance": {"scheme": scheme.spec(), "beta": beta,
                       "gamma_sq": gamma_sq, "samples_checked": count,
                       "slack": 0.0, "g_beta_sup": sups["G_beta"],
                       "h1_worst": sups["H1"]},
        "tolerance": tol, "notes": notes,
    }


def reference_internal(system, V, c2, domain, scheme):
    def rows_at(x, s):
        vx, e0 = V.evaluate(x), certify.h0(V, system, x, s)
        yield ("growth", vx, c2 * float(x @ x), 0.0,
               max(abs(vx), c2 * float(x @ x)))
        yield ("H0", e0.value, 0.0, e0.std_error,
               abs(e0.value) + vx + _m_sq(system, x))

    qb = quad_bound(V, domain)
    status, witness, worst, tol, count, _ = reference_sweep(
        domain.points(), scheme, rows_at, qb.boundary_attained)
    notes = [f"certified only on {domain.label()}"]
    if qb.boundary_attained:
        notes.insert(0, "growth-bound ratio attains its maximum on the box "
                     "boundary; the c2 claim does not extrapolate beyond "
                     "the sampled domain")
    return {
        "status": status,
        "inequality": "V(x) <= c2 |x|^2 and H0(V(x)) <= 0",
        "domain": domain.label(), "worst_margin": worst, "witness": witness,
        "provenance": {"scheme": scheme.spec(), "c2": c2,
                       "quad_bound": qb.to_dict(), "samples_checked": count,
                       "slack": 0.0},
        "tolerance": tol, "notes": notes,
    }


EX1_BOX = DomainBox((-10.0,), (10.0,), ("grid", 41))
EX2_BOX = DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 3))
MC200 = ExpectationScheme(samples=200, seed=11)


@pytest.mark.parametrize("scheme", [CF, MC200], ids=["closed-form", "mc200"])
@pytest.mark.parametrize("gamma_sq", [0.08, 0.0799])
def test_engine_matches_reference_loop_example1(scheme, gamma_sq):
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    cert = certify.check_external(sys1, V, BETA1, gamma_sq, EX1_BOX, scheme)
    assert cert.to_dict() == reference_external(
        sys1, V, BETA1, gamma_sq, EX1_BOX, scheme)
    cert = certify.check_internal(sys1, V, 4.0, EX1_BOX, scheme)
    assert cert.to_dict() == reference_internal(sys1, V, 4.0, EX1_BOX, scheme)


@pytest.mark.parametrize("scheme", [CF, MC200], ids=["closed-form", "mc200"])
def test_engine_matches_reference_loop_example2_closed_loop(scheme):
    from sbrl import synth
    loop = synth.closed_loop(library.example2_plant(), library.example2_law())
    V = library.example2_storage()
    beta, gamma = library.EXAMPLE2_BETA, 0.75
    cert = certify.check_external(loop, V, beta, gamma * gamma, EX2_BOX,
                                  scheme)
    assert cert.to_dict() == reference_external(loop, V, beta, gamma * gamma,
                                                EX2_BOX, scheme)
    cert = certify.check_internal(loop, V, 1.0, EX2_BOX, scheme)
    assert cert.to_dict() == reference_internal(loop, V, 1.0, EX2_BOX, scheme)


def spy_on_storage(monkeypatch, V):
    """Record each V(x) at a state: the point of every ``evaluate`` call
    and the rows of every other ``evaluate_batch`` call on at most
    ``STATE_ROWS`` rows (a Monte Carlo integrand gets one row per draw)."""
    states, inside, cls = [], [], type(V)
    evaluate, evaluate_batch = cls.evaluate, cls.evaluate_batch

    def spy(self, x):
        states.append(np.array(x, dtype=float))
        inside.append(x)
        try:
            return evaluate(self, x)
        finally:
            inside.pop()

    def batch_spy(self, X):
        if not inside and len(X) <= STATE_ROWS:
            states.extend(np.array(X, dtype=float))
        return evaluate_batch(self, X)

    monkeypatch.setattr(cls, "evaluate", spy)
    monkeypatch.setattr(cls, "evaluate_batch", batch_spy)
    return states


STATE_ROWS = 11


@pytest.mark.parametrize("scheme", [CF, MC200], ids=["closed-form", "mc200"])
def test_check_internal_evaluates_storage_twice_per_point(monkeypatch, scheme):
    # the growth row and H0 each evaluate V(x) once; H0's tolerance scale
    # reuses that value instead of evaluating a third time (a Monte Carlo
    # H0 takes V(x) for a block of points from one evaluate_batch call)
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", STATE_ROWS))
    expected = reference_internal(sys1, V, 4.0, box, scheme)
    states = spy_on_storage(monkeypatch, V)
    cert = certify.check_internal(sys1, V, 4.0, box, scheme)
    assert len(states) / len(box.points()) == 2.0
    assert cert.to_dict() == expected


@pytest.mark.parametrize("scheme", [CF, MC200], ids=["closed-form", "mc200"])
def test_h1_sweeps_evaluate_storage_once_per_point(monkeypatch, scheme):
    # H1's tolerance scale reuses the V(x) that H1 itself subtracted
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", STATE_ROWS))
    expected = reference_external(sys1, V, BETA1, 0.1, box,
                                  scheme)
    states = spy_on_storage(monkeypatch, V)
    cert = certify.check_external(sys1, V, BETA1, 0.1, box, scheme)
    # one more V(0) for the V(0) = 0 precondition
    assert len(states) == len(box.points()) + 1
    assert cert.to_dict() == expected
    states.clear()
    res = certify.gamma_star_search(sys1, [(4.0, V)], [BETA1], box, scheme)
    assert res.status == "ok"
    # one H1 sweep; G_beta on quadratic storage never evaluates V
    assert len(states) == len(box.points())


def test_check_external_draws_once_per_point(monkeypatch):
    # H1 and the sampled gram of G_beta share the point's one draw matrix
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 11))
    seeds, streams = [], noise.streams

    def spy(seed_list, table=None, rng=None):
        for s, gen in zip(seed_list, streams(seed_list, table, rng)):
            seeds.append(int(s))
            yield gen

    monkeypatch.setattr(noise, "streams", spy)
    cert = certify.check_external(sys1, V, BETA1, 0.1, box, MC200)
    assert seeds == [MC200.at(x).seed for x in box.points()]
    assert cert.to_dict() == reference_external(
        sys1, V, BETA1, 0.1, box, MC200, fresh=True)
    assert len(seeds) == 2 * 11 + 11  # the reference draws twice per point


def test_closed_form_sweeps_run_one_block_per_sweep(monkeypatch):
    # a closed-form sweep of up to SWEEP_ROWS points is one block: each H1
    # and each G_beta sweep of example 1's gamma-star search is one call of
    # its block body, and no sweep calls the per-point h1 or g_beta
    names = ("h1", "g_beta", "_split_block", "_gram_sup")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(certify, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(certify, name, counted)
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    candidates = [(p, library.example1_storage(p))
                  for p in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)]
    betas = [1.002, 1.005, BETA1, 1.02, 1.05, 1.1, 1.5, 2.0]
    res = certify.gamma_star_search(library.example1_system(), candidates,
                                    betas, box, CF)
    assert (res.candidates_checked, res.feasible_count) == (48, 14)
    assert calls == {"h1": 0, "g_beta": 0, "_split_block": 48,
                     "_gram_sup": 14}
    certify.check_external(library.example1_system(),
                           library.example1_storage(4.0), BETA1,
                           0.08, EX1_BOX, CF)
    assert calls == {"h1": 0, "g_beta": 0, "_split_block": 49,
                     "_gram_sup": 15}


# ------------------------------------------------------------- gamma star

def example1_candidates(p_grid):
    return [(p, library.example1_storage(p)) for p in p_grid]


def test_gamma_star_search_example1_exact():
    sys1 = library.example1_system()
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    res = certify.gamma_star_search(
        sys1, example1_candidates([2.0, 3.0, 4.0, 5.0, 8.0]),
        [1.002, 1.005, BETA1, 1.02, 1.5], box, CF)
    assert res.status == "ok"
    assert res.gamma_star_sq == pytest.approx(0.08, abs=1e-12)
    assert res.beta == pytest.approx(BETA1)
    assert res.params == 4.0


def test_gamma_star_search_no_disturbance_path():
    sys0 = library.example1_system(b=0.0, c1=0.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 51))
    res = certify.gamma_star_search(
        sys0, example1_candidates([4.0, 5.0]), [BETA1, 1.005], box, CF)
    assert res.status == "ok"
    assert res.gamma_star_sq == pytest.approx(0.0, abs=1e-15)


def test_gamma_star_search_grid_brackets_analytic_value():
    a, b, c, c1 = 0.5, 0.1, 0.1, 0.1
    sys_v = library.example1_system(a=a, b=b, c=c, c1=c1)
    analytic = b * b * c * c / (1.0 - abs(a)) ** 2 + c1 * c1
    box = DomainBox((-10.0,), (10.0,), ("grid", 41))
    p_grid = np.geomspace(0.012, 0.05, 60)
    beta_grid = np.linspace(1.5, 2.6, 40)
    res = certify.gamma_star_search(
        sys_v, example1_candidates(p_grid), beta_grid, box, CF)
    assert res.status == "ok"
    assert analytic - 1e-12 <= res.gamma_star_sq <= 1.05 * analytic


def test_gamma_star_search_infeasible_family():
    sys_u = unstable_scalar(a=1.1, c=0.2)
    box = DomainBox((-5.0,), (5.0,), ("grid", 21))
    res = certify.gamma_star_search(
        sys_u, [(1.0, QuadraticStorage([[1.0]]))], [1.5, 2.0], box, CF)
    assert res.status == "infeasible"
    assert res.gamma_star_sq is None


# ------------------------------------------------------------- linear BRL

def scalar_brl_system():
    return LinearSystem([[0.5]], [[0.0]], [[1.0]], [[0.5]], [[0.0]])


def test_linear_internal_worked_scalar():
    cert = certify.linear_internal(scalar_brl_system(), [[0.5]])
    assert cert.status == "certified"
    assert cert.worst_margin == pytest.approx(0.125 - 0.5 + 0.25, abs=1e-12)


def test_linear_internal_expansion_falsified():
    sys_u = LinearSystem([[1.1]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])
    cert = certify.linear_internal(sys_u, [[1.0]])
    assert cert.status == "falsified"


def test_linear_internal_trivial_certified():
    sys_z = LinearSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])
    cert = certify.linear_internal(sys_z, np.eye(1))
    assert cert.status == "certified"
    assert cert.worst_margin == pytest.approx(-1.0)


def test_linear_internal_requires_spd():
    with pytest.raises(PreconditionError):
        certify.linear_internal(scalar_brl_system(), [[-1.0]])


def test_linear_brl_boundary_certifies():
    rep = certify.linear_brl(scalar_brl_system(), [[0.5]], 2.0, 2.0)
    assert rep.certified
    assert abs(rep.eq_gain_margin - (2.0 - 2.0)) <= 1e-12
    assert rep.eq_internal_margin <= 1e-12


def test_linear_brl_falsifies_below_boundary():
    rep = certify.linear_brl(scalar_brl_system(), [[0.5]], 2.0, 1.9)
    assert not rep.certified
    assert rep.eq_gain_margin == pytest.approx(0.1, abs=1e-12)


def test_linear_brl_feedthrough_dominates():
    gamma_sq = 2.0
    sys_d = LinearSystem([[0.5]], [[0.0]], [[1.0]], [[0.5]],
                         [[math.sqrt(2.0 * gamma_sq)]])
    for P, beta in (( [[0.5]], 2.0), ([[0.1]], 1.5), ([[2.0]], 3.0)):
        rep = certify.linear_brl(sys_d, P, beta, gamma_sq)
        assert not rep.certified


def test_series_storage_matches_geometric_sum():
    Pbar = certify.series_storage_matrix(scalar_brl_system())
    assert Pbar[0, 0] == pytest.approx(0.25 / 0.75, rel=1e-12)


def test_linear_brl_search_certifies_generous_gamma():
    rep = certify.linear_brl_search(scalar_brl_system(), 1000.0 ** 2)
    assert rep.certified
    assert rep.p0 is not None and rep.p0 > 0


def test_linear_brl_search_unstable_inconclusive():
    sys_u = LinearSystem([[1.1]], [[0.0]], [[1.0]], [[0.5]], [[0.0]])
    rep = certify.linear_brl_search(sys_u, 100.0)
    assert rep.status == "inconclusive"
    assert rep.sigma_bar == pytest.approx(1.21, rel=1e-12)


def test_linear_brl_search_without_a_certificate_reports_closest_margins():
    # no grid beta passes the gain inequality at gamma^2 = 2
    sys_g = LinearSystem([[0.5]], [[0.1]], [[1.0]], [[1.0]], [[0.1]])
    rep = certify.linear_brl_search(sys_g, 2.0)
    assert rep.status == "inconclusive"
    assert rep.beta == pytest.approx(1.5448, abs=1e-4)
    assert rep.eq_gain_margin > 0.0
    assert rep.notes[-1] == "no grid beta certified; closest margins reported"
    assert rep.to_dict()["P"] == np.asarray(rep.P).tolist()


def test_linear_brl_search_multistate():
    rng = np.random.default_rng(3)
    sys_r = random_stable_linear(rng, 3, n_v=2, n_m=2, target=0.6)
    rep = certify.linear_brl_search(sys_r, 1e6)
    assert rep.certified
    # the constructed pair must pass the independent verifier unchanged
    recheck = certify.linear_brl(sys_r, rep.P, rep.beta, rep.gamma_sq)
    assert recheck.certified


# ------------------------------------------------------------- oracle agreement

def test_mc_and_closed_form_agree_on_random_linear_systems():
    rng = np.random.default_rng(1234)
    mc = ExpectationScheme(samples=50_000, seed=77)
    for case in range(5):
        n = int(rng.integers(1, 4))
        sys_r = random_stable_linear(rng, n)
        V = QuadraticStorage(random_spd(rng, n))
        x = rng.normal(size=n)
        for fn, args in ((certify.h0, ()), (certify.h1, (1.7,))):
            exact = fn(V, sys_r, x, *args, CF)
            sampled = fn(V, sys_r, x, *args, mc.with_seed(1000 + case))
            assert abs(sampled.value - exact.value) <= 4.0 * sampled.std_error
        gb_exact = certify.g_beta(V, sys_r, x, 1.7, CF)
        gb_mc = certify.g_beta(V, sys_r, x, 1.7, mc.with_seed(2000 + case))
        assert gb_mc.value == pytest.approx(gb_exact.value, rel=1e-9)


def test_reduction_inequality_h1_dominates_h0():
    # (1/b) E[V(b f)] >= E[V(f)] for convex V with V(0) = 0
    from sbrl.synth import closed_loop
    loop = closed_loop(library.example2_plant(), library.example2_law())
    V = library.example2_storage()
    for x in ([0.5, -1.0, 1.5], [2.0, 2.0, 2.0], [-0.3, 0.1, 0.0]):
        d1 = certify.h1(V, loop, x, library.EXAMPLE2_BETA, CF)
        d0 = certify.h0(V, loop, x, CF)
        assert d1.value >= d0.value - 1e-12


def test_g0_gbeta_consistency_for_constant_channels():
    rng = np.random.default_rng(5)
    sys_r = random_stable_linear(rng, 2, n_v=2)
    Pbar = random_spd(rng, 2)
    beta, p0 = 1.8, 0.7
    scale = beta * p0 / (beta - 1.0)
    vals = [certify.g_beta(QuadraticStorage(p0 * Pbar), sys_r, x, beta, CF).value
            for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([3.0, 3.0]))]
    assert max(vals) - min(vals) <= 1e-12
    g0_val = certify.g0(QuadraticStorage(scale * Pbar), sys_r, CF).value
    assert vals[0] == pytest.approx(g0_val, rel=1e-12)


# ---------------------------------------------------------- empirical gain

def test_empirical_gain_feedthrough_violated():
    sys_d = LinearSystem([[0.0]], [[0.0]], [[0.0]], [[0.0]], [[1.0]])
    ens = DisturbanceEnsemble.white(1, std=1.0)
    rep = certify.empirical_gain(sys_d, ens, 50, 40, 0.5, seed=3)
    assert rep.verdict == "violated"
    assert rep.max_ratio == pytest.approx(1.0)


def test_empirical_gain_diverged_members_violate_with_no_ratio():
    sys_u = LinearSystem([[1.5]], [[0.1]], [[1.0]], [[1.0]], [[0.1]])
    ens = DisturbanceEnsemble.white(1, std=0.5)
    rep = certify.empirical_gain(sys_u, ens, 200, 5, 1.0, seed=7)
    assert (rep.verdict, rep.diverged) == ("violated", 5)
    report = rep.to_dict()
    assert report["ratios"] == [None] * 5 and report["max_ratio"] is None


def test_empirical_gain_zero_disturbance_rejected():
    from sbrl.dynamics import DisturbancePolicy
    sys1 = library.example1_system()
    ens = DisturbanceEnsemble.fixed(DisturbancePolicy.zero(1))
    with pytest.raises(ConfigurationError):
        certify.empirical_gain(sys1, ens, 20, 10, 0.08, seed=1)


def test_empirical_gain_example1_consistent():
    sys1 = library.example1_system()
    ens = library.example1_ensembles()["decaying-sine"]
    rep = certify.empirical_gain(sys1, ens, 100, 50, 0.08, seed=7)
    assert rep.verdict == "consistent"
    assert rep.mean_energy_ratio < 0.08


def test_certified_tuple_never_violated_empirically():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    box = DomainBox((-10.0,), (10.0,), ("grid", 51))
    cert = certify.check_external(sys1, V, BETA1, 0.08, box, CF)
    assert cert.certified
    for name, ens in library.example1_ensembles().items():
        rep = certify.empirical_gain(sys1, ens, 120, 60, 0.08, seed=17)
        assert rep.verdict == "consistent", name


def test_dissipation_profile_nonpositive_for_certified_tuple():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    ens = library.example1_ensembles()["decaying-sine"]
    means, ses = certify.dissipation_profile(sys1, V, 0.08, ens, 60, 64, seed=23)
    assert np.all(means <= 4.0 * ses + 1e-15)
