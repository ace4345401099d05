import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sbrl import certify, library, noise, synth
from sbrl.dynamics import (AffineSystem, DisturbanceEnsemble, GeneralSystem,
                           LinearSystem)
from sbrl.errors import ConfigurationError, PreconditionError
from sbrl.noise import ExpectationScheme, gaussian_noise, point_mass_noise
from sbrl.storage import CustomStorage, DomainBox, QuadraticStorage

CF = ExpectationScheme(mode="closed-form")
MC8 = ExpectationScheme(samples=8, seed=3)


def deterministic_general_plant():
    """x+ = 0.5 x + u + v with z = u; noise enters nowhere."""
    return GeneralSystem(
        1, 1, 1,
        F=lambda k, X, U, V, W: 0.5 * X + U + V,
        m=lambda k, X, U, V: U,
        noise=point_mass_noise(0.0, 1),
    )


def deterministic_affine_plant():
    """The same plant on the affine tier, with n_u = 1."""
    return AffineSystem(
        1, 1,
        f=lambda X, U, W: 0.5 * X + U,
        g=lambda X, W: np.ones((1, 1)),
        m=lambda X, U: U,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        n_u=1,
    )


def worked_saddle(gamma):
    return synth.SaddleData(
        alpha=synth.FeedbackLaw.zero(1),
        eta=synth.FeedbackLaw(lambda X, k: -0.5 * X, 1),
        M=[[8.0]], N=[[4.0]], gamma=gamma,
    )


def eig2x2(m):
    # closed-form eigenvalues of a symmetric 2x2, as an independent oracle
    tr, det = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr - disc) / 2.0, (tr + disc) / 2.0


# ------------------------------------------------------------ closed loop

def test_zero_law_reproduces_open_loop():
    plant = library.example2_plant()
    loop = synth.closed_loop(plant, synth.FeedbackLaw.zero(2))
    x = np.array([0.7, -1.2, 0.4])
    v = np.array([0.3, -0.1])
    X, V, W = x[None], v[None], plant.noise.sample(5, 1)
    U = np.zeros((1, 2))
    x_open = plant.transition(0, X, U, V, W)
    z_open = plant.output(0, X, U, V)
    x_loop = loop.transition(0, X, None, V, W)
    z_loop = loop.output(0, X, None, V)
    assert np.allclose(x_open, x_loop, atol=0)
    assert np.allclose(z_open, z_loop, atol=0)


def test_builtin_law_values():
    law = library.example2_law()
    u = law(np.array([[1.0, 1.0, 1.0]]))[0]
    assert u[0] == pytest.approx(-(1.0 / 24.0) * (1.0 + math.cos(1.0)), rel=1e-12)
    assert u[1] == pytest.approx(-0.75, abs=1e-15)
    assert law.spec()["u1_coef"] == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_linear_gain_composition():
    A = np.array([[0.9, 0.2], [0.0, 0.7]])
    Bu = np.array([[0.0], [1.0]])
    plant = AffineSystem(
        2, 1,
        f=lambda X, U, W: X @ A.T + U @ Bu.T,
        g=lambda X, W: np.zeros((2, 1)),
        m=lambda X, U: X[..., :1],
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        n_u=1,
    )
    K = np.array([[-0.3, -0.5]])
    loop = synth.closed_loop(plant, synth.FeedbackLaw.linear_gain(K))
    x = np.array([1.0, -2.0])
    x_next = loop.transition(0, x[None], None, np.zeros((1, 1)), np.zeros((1, 1)))
    assert np.allclose(x_next[0], (A + Bu @ K) @ x, atol=1e-15)


def test_closed_loop_dimension_mismatch():
    plant = library.example2_plant()
    with pytest.raises(ConfigurationError):
        synth.closed_loop(plant, synth.FeedbackLaw.zero(3))


def test_closed_loop_refuses_a_system_without_control():
    with pytest.raises(ConfigurationError, match="n_u = 0"):
        synth.closed_loop(library.example1_system(), synth.FeedbackLaw.zero(1))


@pytest.mark.parametrize("routine", [
    lambda plant, V, box: certify.h0(V, plant, np.zeros(3), CF),
    lambda plant, V, box: certify.h1(V, plant, np.zeros(3), 1.5, CF),
    lambda plant, V, box: certify.check_internal(plant, V, 1.0, box, CF),
    lambda plant, V, box: certify.check_external(plant, V, 1.5, 1.0, box, CF),
    lambda plant, V, box: certify.gamma_star_search(plant, [(1.0, V)], [1.5],
                                                    box, CF),
], ids=["h0", "h1", "check_internal", "check_external", "gamma_star_search"])
def test_routines_without_control_refuse_a_plant(routine):
    V = library.example2_storage()
    V.claims_convex = True
    box = DomainBox((-1.0,) * 3, (1.0,) * 3, ("grid", 2))
    with pytest.raises(ConfigurationError, match="synth.closed_loop") as exc:
        routine(library.example2_plant(), V, box)
    assert len(str(exc.value).splitlines()) == 1


# -------------------------------------------------------- design functional

def test_design_functional_zero_at_origin():
    plant = library.example2_plant()
    V = library.example2_storage()
    est = certify.convexity_split(V, plant, np.zeros(3), np.zeros(2),
                                  library.EXAMPLE2_BETA, CF)
    assert est.value == 0.0


def test_design_functional_under_builtin_law_nonpositive():
    plant = library.example2_plant()
    V = library.example2_storage()
    law = library.example2_law()
    x = np.array([1.0, 1.0, 1.0])
    mc = ExpectationScheme(samples=100_000, seed=41)
    est = certify.convexity_split(V, plant, x, law(x[None])[0],
                                  library.EXAMPLE2_BETA, mc)
    assert est.value <= 3.0 * est.std_error


def test_design_functional_law_improves_on_zero_control():
    plant = library.example2_plant()
    V = library.example2_storage()
    law = library.example2_law()
    x = np.array([0.0, 2.0, 0.0])
    with_law = certify.convexity_split(V, plant, x, law(x[None])[0],
                                       library.EXAMPLE2_BETA, CF)
    without = certify.convexity_split(V, plant, x, np.zeros(2),
                                      library.EXAMPLE2_BETA, CF)
    assert with_law.value <= without.value + 1e-12


def test_design_functional_under_law_is_h1_of_closed_loop():
    plant = library.example2_plant()
    V = library.example2_storage()
    law = library.example2_law()
    loop = synth.closed_loop(plant, law)
    beta = library.EXAMPLE2_BETA
    mc = ExpectationScheme(samples=2000, seed=17)
    for x in ([1.0, 1.0, 1.0], [0.0, 2.0, 0.0], [-1.5, 0.3, 0.7]):
        x = np.array(x)
        for scheme in (CF, mc):
            design = certify.convexity_split(V, plant, x, law(x[None])[0],
                                             beta, scheme)
            h1 = certify.h1(V, loop, x, beta, scheme)
            assert (design.value, design.std_error) == (h1.value, h1.std_error)


# -------------------------------------------------------------- controller

def test_certify_controller_example2():
    plant = library.example2_plant()
    cert = synth.certify_controller(
        plant, library.example2_law(), library.example2_storage(),
        library.EXAMPLE2_BETA, 0.5625,
        DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 5)),
        ExpectationScheme(samples=20_000, seed=6))
    assert cert.status == "certified"
    expected_g = library.EXAMPLE2_BETA / (library.EXAMPLE2_BETA - 1.0) / 16.0
    assert cert.provenance["g_beta_sup"] == pytest.approx(expected_g, abs=1e-12)


def test_certify_controller_tight_gamma_falsified():
    plant = library.example2_plant()
    cert = synth.certify_controller(
        plant, library.example2_law(), library.example2_storage(),
        library.EXAMPLE2_BETA, 0.40,
        DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 3)),
        ExpectationScheme(samples=5_000, seed=6))
    assert cert.status == "falsified"


def test_certify_controller_zero_plant_any_gamma():
    plant = AffineSystem(
        1, 1,
        f=lambda X, U, W: np.zeros(1),
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X, U: np.zeros(1),
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        f_parts=lambda x, u: (np.zeros(1), [np.zeros(1)]),
        g_parts=lambda x: (np.zeros((1, 1)), [np.zeros((1, 1))]),
        n_u=1,
    )
    for gamma in (0.05, 1.0, 50.0):
        cert = synth.certify_controller(
            plant, synth.FeedbackLaw.zero(1), QuadraticStorage([[1.0]]),
            2.0, gamma ** 2, DomainBox((-3.0,), (3.0,), ("grid", 11)), CF)
        assert cert.status == "certified"


def test_controller_certificate_matches_external_check_on_loop():
    plant = library.example2_plant()
    law = library.example2_law()
    V = library.example2_storage()
    box = DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 3))
    scheme = ExpectationScheme(samples=4_000, seed=9)
    via_controller = synth.certify_controller(
        plant, law, V, library.EXAMPLE2_BETA, 0.5625, box, scheme)
    via_loop = certify.check_external(
        synth.closed_loop(plant, law), V, library.EXAMPLE2_BETA, 0.5625,
        box, scheme)
    assert via_controller.status == via_loop.status
    assert via_controller.worst_margin == via_loop.worst_margin
    assert (via_controller.provenance["g_beta_sup"]
            == via_loop.provenance["g_beta_sup"])


# ----------------------------------------------------------- general tier

def test_h_k_general_worked_value():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    est = synth.h_k_general(V, plant, [1.0], [0.0], [0.0], 0, MC8)
    assert est.value == pytest.approx(0.25 - 1.0, abs=1e-12)


def test_h_k_general_zero_at_origin():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    est = synth.h_k_general(V, plant, [0.0], [0.0], [0.0], 0, MC8)
    assert est.value == 0.0


def test_h_k_general_time_varying_storage():
    plant = deterministic_general_plant()

    def V_seq(k):
        scale = 1.0 + 2.0 ** (-k)
        return CustomStorage(lambda X, s=scale: s * X[:, 0] ** 2, 1)

    h0_val = synth.h_k_general(V_seq, plant, [1.0], [0.0], [0.0], 0, MC8)
    h1_val = synth.h_k_general(V_seq, plant, [1.0], [0.0], [0.0], 1, MC8)
    # direct oracle: V_{k+1}(0.5) - V_k(1)
    expect_0 = 1.5 * 0.25 - 2.0
    expect_1 = 1.25 * 0.25 - 1.5
    assert h0_val.value == pytest.approx(expect_0, abs=1e-12)
    assert h1_val.value == pytest.approx(expect_1, abs=1e-12)
    assert h1_val.value - h0_val.value == pytest.approx(expect_1 - expect_0,
                                                        abs=1e-12)


def example1_general(a=0.99, b=0.01, c=0.2, c1=0.2):
    """Example 1 on the general tier, without control: F = a x + b cos(x)
    w v and z = (c x; c1 v) under standard gaussian noise."""
    return GeneralSystem(
        1, 0, 1,
        F=lambda k, X, U, V, W: a * X + b * np.cos(X) * W * V,
        m=lambda k, X, U, V: np.concatenate(
            np.broadcast_arrays(c * X, c1 * V), axis=-1),
        noise=gaussian_noise(0.0, 1.0, 1),
    )


@pytest.mark.parametrize("b", [0.01, 0.5])
@pytest.mark.parametrize("scheme", [
    ExpectationScheme(samples=5000, seed=11),
    ExpectationScheme(samples=4001, seed=29, antithetic=True)])
def test_h_k_general_under_gaussian_noise(b, scheme):
    # at v = 0 the general tier is H0 of the affine example 1, bit for bit;
    # elsewhere its mean is p (a^2 x^2 + b^2 cos^2(x) v^2) - p x^2 + c^2 x^2
    # + c1^2 v^2, as E[w] = 0 and E[w^2] = 1
    p, a, c, c1 = 4.0, 0.99, 0.2, 0.2
    plant, V = example1_general(b=b), library.example1_storage(p)
    affine = library.example1_system(b=b)
    for x in (-1.3, 0.4, 2.0):
        at_zero = synth.h_k_general(V, plant, [x], [], [0.0], 0, scheme)
        h0 = certify.h0(V, affine, [x], scheme)
        assert (repr(at_zero.value), repr(at_zero.std_error)) \
            == (repr(h0.value), repr(h0.std_error))
        for v in (-2.0, 0.5, 3.0):
            est = synth.h_k_general(V, plant, [x], [], [v], 0, scheme)
            exact = (p * (a * a * x * x + b * b * math.cos(x) ** 2 * v * v)
                     - p * x * x + c * c * x * x + c1 * c1 * v * v)
            assert est.std_error > 0.0
            assert abs(est.value - exact) <= 4.0 * est.std_error


def test_general_tier_refuses_maps_that_ignore_leading_dimensions():
    # W[:, :1] takes the first draw of a (B, N, n_w) block, not the first
    # coordinate, and U[0] the first row: each gives a block the wrong
    # values without an error, so the tier refuses it at construction
    for F, m in ((lambda k, X, U, V, W: 0.5 * X + U + V + 0.3 * X * W[:, :1],
                  lambda k, X, U, V: U),
                 (lambda k, X, U, V, W: 0.5 * X + U + V,
                  lambda k, X, U, V: U[0])):
        with pytest.raises(ConfigurationError, match="differs from its rows"):
            GeneralSystem(1, 1, 1, F=F, m=m, noise=gaussian_noise())


def test_h_k_general_on_a_plant_is_h0_of_its_closed_loop():
    # the general tier takes an affine plant as it is: at v = 0 and
    # u = alpha(x), H_k is H0 of the loop that alpha closes, bit for bit
    plant, law = library.example2_plant(), library.example2_law()
    loop, V = synth.closed_loop(plant, law), library.example2_storage()
    scheme = ExpectationScheme(samples=2000, seed=17)
    for x in np.random.default_rng(5).uniform(-2.0, 2.0, (20, 3)):
        est = synth.h_k_general(V, plant, x, law(x), [0.0, 0.0], 0, scheme)
        h0 = certify.h0(V, loop, x, scheme)
        assert (repr(est.value), repr(est.std_error)) \
            == (repr(h0.value), repr(h0.std_error))


def test_h_k_general_on_a_linear_system_is_its_h0():
    lin = LinearSystem([[0.5, 0.1], [0.0, 0.4]], [[0.1, 0.0], [0.0, 0.2]],
                       [[1.0], [0.5]], [[1.0, 0.0]], [[0.3]])
    V = QuadraticStorage([[2.0, 0.3], [0.3, 1.0]])
    scheme = ExpectationScheme(samples=2000, seed=23)
    for x in np.random.default_rng(6).uniform(-2.0, 2.0, (10, 2)):
        est = synth.h_k_general(V, lin, x, [], [0.0], 0, scheme)
        h0 = certify.h0(V, lin, x, scheme)
        assert (repr(est.value), repr(est.std_error)) \
            == (repr(h0.value), repr(h0.std_error))


@pytest.mark.parametrize("gamma, status", [(3.0, "certified"),
                                           (2.1, "falsified")])
def test_taylor_certify_takes_the_affine_form_of_its_plant(gamma, status):
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-2.0,), (2.0,), ("grid", 9))
    scheme = ExpectationScheme(samples=8, seed=20_240_817)
    general, affine = (
        json.dumps(synth.taylor_certify(plant, worked_saddle(gamma), V, box,
                                        scheme).to_dict())
        for plant in (deterministic_general_plant(),
                      deterministic_affine_plant()))
    assert json.loads(general)["status"] == status
    assert affine == general


def test_certify_controller_general_takes_the_affine_form_of_its_plant():
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-3.0,), (3.0,), ("grid", 7))
    general, affine = (
        json.dumps(synth.certify_controller_general(
            plant, synth.FeedbackLaw.zero(1), V, 9.0, box, box, MC8).to_dict())
        for plant in (deterministic_general_plant(),
                      deterministic_affine_plant()))
    assert json.loads(general)["status"] == "certified"
    assert affine == general


def test_certify_controller_general_gamma3():
    # oracle: the quadratic form matrix [[-0.75, 0.5], [0.5, -8]] is negative
    lo, hi = eig2x2([[-0.75, 0.5], [0.5, -8.0]])
    assert hi < 0 and lo < 0
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-3.0,), (3.0,), ("grid", 7))
    vbox = DomainBox((-3.0,), (3.0,), ("grid", 7))
    cert = synth.certify_controller_general(
        plant, synth.FeedbackLaw.zero(1), V, 9.0, box, vbox, MC8)
    assert cert.status == "certified"


def test_certify_controller_general_gamma04_falsified():
    lo, hi = eig2x2([[-0.75, 0.5], [0.5, 0.84]])
    assert hi > 0  # indefinite form: a violating (x, v) exists
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-3.0,), (3.0,), ("grid", 7))
    vbox = DomainBox((-3.0,), (3.0,), ("grid", 7))
    cert = synth.certify_controller_general(
        plant, synth.FeedbackLaw.zero(1), V, 0.16, box, vbox, MC8)
    assert cert.status == "falsified"
    assert cert.witness is not None


def test_certify_controller_general_empty_window_inconclusive():
    # gamma = 0.4 is falsified with k_window=1; no k at all checks nothing
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-3.0,), (3.0,), ("grid", 7))
    cert = synth.certify_controller_general(
        plant, synth.FeedbackLaw.zero(1), V, 0.16, box, box, MC8, k_window=0)
    assert cert.status == "inconclusive"
    assert cert.provenance["samples_checked"] == 0


def test_certify_controller_general_zero_plant():
    plant = GeneralSystem(
        1, 1, 1,
        F=lambda k, X, U, V, W: np.zeros(1),
        m=lambda k, X, U, V: np.zeros(1),
        noise=point_mass_noise(0.0, 1),
    )
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-1.0,), (1.0,), ("grid", 5))
    for gamma in (0.01, 10.0):
        cert = synth.certify_controller_general(
            plant, synth.FeedbackLaw.zero(1), V, gamma ** 2, box, box, MC8)
        assert cert.status == "certified"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_controller_general_monte_carlo_overflow_is_inconclusive():
    # V(F) overflows at |x| = 1e200: a NaN margin there, not an exception
    plant = deterministic_general_plant()
    box = DomainBox((-1e200,), (1e200,), ("grid", 3))
    vbox = DomainBox((-1.0,), (1.0,), ("grid", 3))
    cert = synth.certify_controller_general(
        plant, synth.FeedbackLaw.zero(1), QuadraticStorage([[1.0]]), 9.0,
        box, vbox, MC8)
    assert cert.status == "inconclusive"
    assert cert.witness["point"] == [-1e200, -1.0, 0.0]
    assert math.isnan(cert.witness["margin"])
    assert cert.witness["info"] == {
        "inequality": "H_k", "error": "integrand non-finite at sample 0"}
    assert cert.provenance["samples_checked"] == 9


def test_general_tier_maps_are_honoured_at_every_k():
    # FeedbackLaws over (X, k): zero (the certified worked law, and the
    # stationary eta = -x/2) at k = 0, u = x and eta = 0 at k = 1, which
    # only a window of two steps reaches
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-2.0,), (2.0,), ("grid", 5))
    alpha = synth.FeedbackLaw(lambda X, k: X if k else 0.0 * X, 1)
    for k_window, status in ((1, "certified"), (2, "falsified")):
        cert = synth.certify_controller_general(
            plant, alpha, V, 9.0, box, box, MC8, k_window=k_window)
        assert cert.status == status
    assert cert.witness["info"] == {"k": 1}
    eta = synth.FeedbackLaw(lambda X, k: 0.0 * X if k else -0.5 * X, 1)
    saddle = synth.SaddleData(alpha=synth.FeedbackLaw.zero(1), eta=eta,
                              M=[[8.0]], N=[[4.0]], gamma=3.0)
    for k_window, status in ((1, "certified"), (2, "falsified")):
        cert = synth.taylor_certify(plant, saddle, V, box, MC8,
                                    k_window=k_window)
        assert cert.status == status
    assert cert.witness["info"]["k"] == 1


# ----------------------------------------------------------- saddle data

def test_saddle_functional_worked_values():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    saddle = worked_saddle(3.0)
    for x in (1.0, -1.0, 2.0, -2.0):
        est = synth.saddle_functional(plant, saddle, V, [x], 0, MC8)
        assert est.value == pytest.approx(-0.1 * x * x, abs=1e-10)


def test_taylor_certify_worked_instance():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-2.0,), (2.0,), ("grid", 9))
    cert = synth.taylor_certify(plant, worked_saddle(3.0), V, box, MC8)
    assert cert.status == "certified"


def test_taylor_certify_falsifies_small_gamma():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-2.0,), (2.0,), ("grid", 9))
    cert = synth.taylor_certify(plant, worked_saddle(2.1), V, box, MC8)
    assert cert.status == "falsified"


def test_taylor_certify_fills_each_replica_once_per_check(monkeypatch):
    # one grid point of criterion 11's plant at N = 8: stationarity and the
    # completed square read replica 0, the Hessian stencil replicas 0..15,
    # and the three checks share them: one fill per replica, however many
    # stencil values or checks each feeds
    plant, started, streams = deterministic_general_plant(), [], noise.streams

    def counted(seeds, *args):
        started.extend(seeds)
        return streams(seeds, *args)

    monkeypatch.setattr(noise, "streams", counted)
    box = DomainBox((-2.0,), (2.0,), ("grid", 1))
    cert = synth.taylor_certify(plant, worked_saddle(3.0),
                                QuadraticStorage([[1.0]]), box,
                                ExpectationScheme(samples=8, seed=20_240_817))
    assert cert.status == "certified"
    assert len(started) == 16
    assert len(set(started)) == synth._HESS_REPS


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_taylor_certify_non_finite_point_is_inconclusive():
    # V(F) overflows at |x| = 1e200: NaN margins there, not an exception
    plant = deterministic_general_plant()
    box = DomainBox((-1e200,), (1e200,), ("grid", 3))
    cert = synth.taylor_certify(plant, worked_saddle(3.0),
                                QuadraticStorage([[1.0]]), box, MC8)
    assert cert.status == "inconclusive"
    assert math.isnan(cert.witness["margin"])
    assert cert.witness["info"] == {
        "inequality": "stationarity",
        "error": "integrand non-finite at sample 0"}
    # every sub-check still runs at every point: one NaN row for each
    # sub-check at the two overflowing points, four rows at the origin
    assert cert.provenance["samples_checked"] == 10


def test_taylor_hessian_domination_margin():
    # Hessian of H in (u, v) is [[4, 2], [2, 2]]; blockdiag(8, 4) dominates
    dom_lo, dom_hi = eig2x2([[4 - 8, 2], [2, 2 - 4]])
    assert dom_hi < 0
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    fn = lambda p: synth.h_k_general(  # noqa: E731
        V, plant, [1.0], [p[0]], [p[1]], 0, MC8).value
    hess = synth.central_hessian(fn, np.array([0.0, -0.5]), 1e-3)
    assert np.allclose(hess, [[4.0, 2.0], [2.0, 2.0]], atol=1e-6)


def test_saddle_conditions_hold_with_equality_at_origin():
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    saddle = worked_saddle(3.0)
    est = synth.saddle_functional(plant, saddle, V, [0.0], 0, MC8)
    assert est.value == 0.0
    fn = lambda p: synth.h_k_general(  # noqa: E731
        V, plant, [0.0], [p[0]], [p[1]], 0, MC8).value
    grad = synth.central_gradient(fn, np.array([0.0, 0.0]), 1e-4)
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_saddle_data_requires_gamma_gap():
    with pytest.raises(PreconditionError):
        synth.SaddleData(alpha=synth.FeedbackLaw.zero(1),
                         eta=synth.FeedbackLaw.zero(1),
                         M=[[1.0]], N=[[4.0]], gamma=2.0)  # gamma^2 = N


def test_stationarity_richardson_order():
    # central differences on a smooth non-quadratic functional show order >= 1.9
    plant = GeneralSystem(
        1, 1, 1,
        F=lambda k, X, U, V, W: 0.5 * X + np.sin(U) + V,
        m=lambda k, X, U, V: U,
        noise=point_mass_noise(0.0, 1),
    )
    V = QuadraticStorage([[1.0]])
    fn = lambda p: synth.h_k_general(  # noqa: E731
        V, plant, [0.7], [p[0]], [p[1]], 0, MC8).value
    p0 = np.array([0.3, -0.2])
    steps = [2e-3, 1e-3, 5e-4]
    grads = [synth.central_gradient(fn, p0, h)[0] for h in steps]
    num = abs(grads[0] - grads[1])
    den = abs(grads[1] - grads[2])
    order = math.log2(num / den)
    assert order >= 1.9


def test_taylor_gain_consistency_on_worked_instance():
    # taylor-certified law: the closed loop under alpha = 0 never violates gamma
    plant = deterministic_general_plant()
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-2.0,), (2.0,), ("grid", 5))
    cert = synth.taylor_certify(plant, worked_saddle(3.0), V, box, MC8)
    assert cert.certified
    loop = AffineSystem(
        1, 1,
        f=lambda X, W: 0.5 * X,
        g=lambda X, W: np.array([[1.0]]),
        m=lambda X: np.zeros(1),
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    ens = DisturbanceEnsemble.white(1, std=1.0)
    rep = certify.empirical_gain(loop, ens, 60, 40, 9.0, seed=13)
    assert rep.verdict == "consistent"


# ------------------------------------------------------ exact identities

def test_example2_rational_identities():
    p = Fraction(1, 16)
    beta_cubed = Fraction(8, 5)
    assert Fraction(5, 12) * p * beta_cubed + Fraction(1, 48) - p == 0
    assert 5 * 8 ** 3 * beta_cubed == 4096
    assert 4096 > 3645 == 5 * 9 ** 3
    coef = beta_cubed * p / (4 * beta_cubed * p + 2)
    assert coef == Fraction(1, 24)


def test_closed_loop_usable_by_linear_certifier():
    # a linear controlled plant closed with a gain is again linear-checkable
    A = np.array([[0.9]])
    Bu = np.array([[1.0]])
    K = np.array([[-0.5]])
    plant = AffineSystem(
        1, 1,
        f=lambda X, U, W: X @ A.T + U @ Bu.T,
        g=lambda X, W: np.array([[1.0]]),
        m=lambda X, U: 0.5 * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
        f_parts=lambda X, U: (X @ A.T + U @ Bu.T, [np.zeros(1)]),
        g_parts=lambda x: (np.array([[1.0]]), [np.zeros((1, 1))]),
        n_u=1,
    )
    loop = synth.closed_loop(plant, synth.FeedbackLaw.linear_gain(K))
    V = QuadraticStorage([[1.0]])
    box = DomainBox((-4.0,), (4.0,), ("grid", 17))
    cert = certify.check_internal(loop, V, 1.0, box, CF)
    assert cert.status == "certified"
    lin = LinearSystem(A + Bu @ K, [[0.0]], [[1.0]], [[0.5]], [[0.0]])
    ref = certify.linear_internal(lin, [[1.0]])
    assert ref.status == "certified"
