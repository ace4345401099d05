import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import library
from sbrl.dynamics import AffineSystem
from sbrl.errors import ConfigurationError
from sbrl.noise import NoiseModel, Rademacher, point_mass_noise
from sbrl.storage import (CustomStorage, DomainBox, QuadraticStorage,
                          SeparableStorage, check_convex, check_h_convex,
                          construct_storage, quad_bound)


def scalar_output_system(a=0.99, c=0.2, noise=None):
    return AffineSystem(
        1, 1,
        f=lambda X, W: a * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: c * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=noise if noise is not None else point_mass_noise(0.0, 1),
    )


def brute_force_midpoint_violation(fn, lo, hi, grid=1000):
    """Independent scan for a midpoint-convexity violation of fn."""
    xs = np.linspace(lo, hi, grid)
    worst = -np.inf
    for i in range(0, grid, 7):
        for j in range(0, grid, 7):
            x, y = xs[i], xs[j]
            mid = 0.5 * (x + y)
            worst = max(worst, fn(mid) - 0.5 * (fn(x) + fn(y)))
    return worst


# ------------------------------------------------------------- evaluation

def test_quadratic_identity_evaluation():
    V = QuadraticStorage(np.eye(2))
    assert V.evaluate([3.0, 4.0]) == pytest.approx(25.0)


def test_example2_storage_value():
    V = library.example2_storage()
    assert V.evaluate([1.0, 1.0, 1.0]) == pytest.approx(3.0 / 16.0, abs=1e-15)


def test_storage_vanishes_at_origin():
    for V in (QuadraticStorage(np.eye(3)),
              SeparableStorage((1.0, 2.0), (2, 4)),
              CustomStorage(lambda x: float(np.sum(np.abs(x))), 2)):
        assert V.evaluate(np.zeros(V.dim)) == 0.0


def test_storage_validation():
    with pytest.raises(ConfigurationError):
        QuadraticStorage([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ConfigurationError):
        QuadraticStorage([[0.0]])  # not positive definite
    with pytest.raises(ConfigurationError):
        SeparableStorage((1.0,), (3,))  # odd power
    with pytest.raises(ConfigurationError):
        SeparableStorage((-1.0,), (2,))  # negative weight


# -------------------------------------------------------------- convexity

def test_check_convex_certifies_square():
    V = SeparableStorage((1.0,), (2,))
    box = DomainBox((-5.0,), (5.0,))
    cert = check_convex(V, box, pairs=64, seed=1)
    assert cert.status == "certified"


def test_check_convex_falsifies_concave():
    V = CustomStorage(lambda x: -float(x[0] ** 2), 1)
    box = DomainBox((-5.0,), (5.0,))
    cert = check_convex(V, box, pairs=64, seed=1)
    assert cert.status == "falsified"
    assert cert.witness is not None
    assert cert.witness["margin"] > 0


def test_check_convex_certifies_example2_storage():
    V = library.example2_storage()
    box = DomainBox((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    cert = check_convex(V, box, pairs=128, seed=7)
    assert cert.status == "certified"


def test_h_convex_linear_map():
    C = np.array([[1.0, -0.5], [0.2, 2.0]])
    box = DomainBox((-3.0, -3.0), (3.0, 3.0))
    cert = check_h_convex(lambda x: C @ x, box, pairs=64, seed=3)
    assert cert.status == "certified"


def test_h_convex_sqrt_abs():
    box = DomainBox((0.0,), (4.0,))
    cert = check_h_convex(lambda x: np.array([np.sqrt(abs(x[0]))]), box,
                          pairs=64, seed=3)
    assert cert.status == "certified"


def test_h_convex_sine_falsified():
    # oracle: a violation really exists on the interval
    worst = brute_force_midpoint_violation(lambda t: np.sin(3 * t) ** 2,
                                           -2.0, 2.0)
    assert worst > 1e-3
    box = DomainBox((-2.0,), (2.0,))
    cert = check_h_convex(lambda x: np.array([np.sin(3 * x[0])]), box,
                          pairs=128, seed=3)
    assert cert.status == "falsified"


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0),
       rho=st.floats(-0.9, 0.9))
def test_random_quadratics_are_certified_convex(a, b, rho):
    P = np.array([[a, rho * np.sqrt(a * b)], [rho * np.sqrt(a * b), b]])
    V = QuadraticStorage(P)
    box = DomainBox((-4.0, -4.0), (4.0, 4.0))
    cert = check_convex(V, box, pairs=16, seed=11)
    assert cert.status == "certified"


@settings(max_examples=25, deadline=None)
@given(beta=st.floats(1.01, 8.0), x=st.floats(-3.0, 3.0),
       y=st.floats(-3.0, 3.0))
def test_scaling_inequality_for_convex_storage(beta, x, y):
    # V(beta x) >= beta V(x) for convex V with V(0) = 0
    V = library.example2_storage()
    pt = np.array([x, y, 0.5 * (x - y)])
    assert V.evaluate(beta * pt) >= beta * V.evaluate(pt) - 1e-9


# ------------------------------------------------------------- quad bound

def test_quad_bound_exact_for_quadratic():
    rep = quad_bound(QuadraticStorage(np.diag([1.0, 4.0])),
                     DomainBox((-1.0, -1.0), (1.0, 1.0)))
    assert rep.exact and rep.c2 == pytest.approx(4.0)
    assert not rep.boundary_attained


def test_quad_bound_quartic_attains_boundary():
    V = SeparableStorage((1.0,), (4,))
    rep = quad_bound(V, DomainBox((-2.0,), (2.0,), ("grid", 41)))
    assert rep.c2 == pytest.approx(4.0, rel=1e-12)
    assert rep.boundary_attained
    assert abs(rep.witness[0]) == pytest.approx(2.0)


def test_quad_bound_unit_for_norm_square():
    V = SeparableStorage((1.0,), (2,))
    rep = quad_bound(V, DomainBox((-3.0,), (3.0,), ("grid", 31)))
    assert rep.c2 == pytest.approx(1.0, rel=1e-12)


def test_quad_bound_sampled_never_exceeds_eigenvalue_bound():
    P = np.array([[2.0, 0.7], [0.7, 1.0]])
    lam_max = np.linalg.eigvalsh(P)[-1]
    # same field through the sampled path (custom form, no eigen shortcut)
    V = CustomStorage(lambda x: float(x @ P @ x), 2)
    rep = quad_bound(V, DomainBox((-3.0, -3.0), (3.0, 3.0), ("grid", 41)))
    assert rep.c2 <= lam_max + 1e-9


# ----------------------------------------------------- constructed storage

def test_construct_storage_matches_geometric_series():
    sys_s = scalar_output_system(a=0.99, c=0.2)
    Vhat = construct_storage(sys_s, horizon=2000, ensemble=1, seed=0)
    a2, c2 = 0.99 ** 2, 0.2 ** 2
    for x in (0.5, 1.0, 2.0):
        closed = c2 * x * x * (1.0 - a2 ** 2001) / (1.0 - a2)
        assert Vhat.evaluate([x]) == pytest.approx(closed, rel=1e-9)


def test_construct_storage_zero_output_and_origin():
    sys_z = AffineSystem(
        1, 1,
        f=lambda X, W: 0.5 * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: np.zeros(1),
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    Vhat = construct_storage(sys_z, horizon=50, ensemble=2, seed=1)
    assert Vhat.evaluate([1.7]) == 0.0
    sys_s = scalar_output_system()
    Vhat2 = construct_storage(sys_s, horizon=50, ensemble=2, seed=1)
    assert Vhat2.evaluate([0.0]) == 0.0


def test_constructed_storage_dominates_output_square():
    noise = NoiseModel((Rademacher(),))
    sys_r = AffineSystem(
        1, 1,
        f=lambda X, W: (0.6 + 0.2 * W) * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: 0.5 * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=noise,
    )
    Vhat = construct_storage(sys_r, horizon=80, ensemble=16, seed=5)
    for x in (-2.0, -0.5, 0.3, 1.0):
        value, se = Vhat.evaluate_with_error([x])
        assert value + 3.0 * se >= (0.5 * x) ** 2


def test_constructed_storage_tail_diagnostic_flags_instability():
    sys_u = AffineSystem(
        1, 1,
        f=lambda X, W: 1.05 * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: X,
        m1=lambda X: np.zeros((0, 1)),
        noise=point_mass_noise(0.0, 1),
    )
    probe = construct_storage(sys_u, horizon=100, ensemble=1, seed=2).probe([1.0])
    assert not probe.tail_ok


def test_constructed_storage_convex_for_h_convex_outputs():
    # linear stable system with multiplicative noise: outputs are h-convex,
    # so the constructed storage passes the convexity check at its noise level
    noise = NoiseModel((Rademacher(),))
    sys_r = AffineSystem(
        1, 1,
        f=lambda X, W: (0.6 + 0.3 * W) * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: 0.5 * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=noise,
    )
    box = DomainBox((-2.0,), (2.0,))
    for w in (-1.0, 1.0):
        cert = check_h_convex(lambda x: sys_r.m(sys_r.f(x[None], np.array([[w]])))[0],
                              box, pairs=32, seed=2)
        assert cert.status == "certified"
    Vhat = construct_storage(sys_r, horizon=60, ensemble=128, seed=9)
    cert = check_convex(Vhat, box, pairs=3, seed=13, noise_slack="auto")
    assert cert.status == "certified"


def test_domain_box_validation_and_labels():
    with pytest.raises(ConfigurationError):
        DomainBox((0.0,), (0.0,))
    box = DomainBox((-1.0, 0.0), (1.0, 2.0), ("grid", 3))
    assert box.points().shape == (9, 2)
    assert "grid" in box.label()
    rbox = DomainBox((-1.0,), (1.0,), ("random", 17, 3))
    assert rbox.points().shape == (17, 1)
