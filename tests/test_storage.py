import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import library
from sbrl.dynamics import AffineSystem
from sbrl.errors import ConfigurationError
from sbrl.noise import NoiseModel, Rademacher, point_mass_noise
from sbrl.storage import (CustomStorage, DomainBox, QuadraticStorage,
                          EstimatedStorage, SeparableStorage, check_convex,
                          quad_bound)


def scalar_output_system(a=0.99, c=0.2, noise=None):
    return AffineSystem(
        1, 1,
        f=lambda X, W: a * X,
        g=lambda X, W: np.zeros((1, 1)),
        m=lambda X: c * X,
        m1=lambda X: np.zeros((0, 1)),
        noise=noise if noise is not None else point_mass_noise(0.0, 1),
    )


# ------------------------------------------------------------- evaluation

def test_quadratic_identity_evaluation():
    V = QuadraticStorage(np.eye(2))
    assert V.evaluate([3.0, 4.0]) == pytest.approx(25.0)


def test_example2_storage_value():
    V = library.example2_storage()
    assert V.evaluate([1.0, 1.0, 1.0]) == pytest.approx(3.0 / 16.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_separable_squaring_kernel(d):
    # evaluate and evaluate_batch share one kernel, so they agree bit for bit;
    # against numpy's p * x**d (libm pow) a d-fold product may differ by the
    # rounding bound d * eps, and a square (d = 2) not at all
    rng = np.random.default_rng(d)
    X = rng.uniform(-3.0, 3.0, (1001, 2)) * 10.0 ** rng.integers(-5, 5, (1001, 2))
    V = SeparableStorage((1.0 / 16.0, 0.7), (d, d))
    batch = V.evaluate_batch(X)
    assert [V.evaluate(x) for x in X] == batch.tolist()
    reference = 1.0 / 16.0 * X[:, 0] ** d + 0.7 * X[:, 1] ** d
    rel = np.abs(batch - reference) / reference
    assert rel.max() <= (0.0 if d == 2 else d * np.finfo(float).eps)


def test_storage_vanishes_at_origin():
    for V in (QuadraticStorage(np.eye(3)),
              SeparableStorage((1.0, 2.0), (2, 4)),
              CustomStorage(lambda X: np.sum(np.abs(X), axis=1), 2)):
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
    V = CustomStorage(lambda X: -X[:, 0] ** 2, 1)
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
    V = CustomStorage(lambda X: np.einsum("ni,ij,nj->n", X, P, X), 2)
    rep = quad_bound(V, DomainBox((-3.0, -3.0), (3.0, 3.0), ("grid", 41)))
    assert rep.c2 <= lam_max + 1e-9


# ----------------------------------------------------- constructed storage

def test_construct_storage_matches_geometric_series():
    sys_s = scalar_output_system(a=0.99, c=0.2)
    Vhat = EstimatedStorage(sys_s, horizon=2000, ensemble=1, seed=0)
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
    Vhat = EstimatedStorage(sys_z, horizon=50, ensemble=2, seed=1)
    assert Vhat.evaluate([1.7]) == 0.0
    sys_s = scalar_output_system()
    Vhat2 = EstimatedStorage(sys_s, horizon=50, ensemble=2, seed=1)
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
    Vhat = EstimatedStorage(sys_r, horizon=80, ensemble=16, seed=5)
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
    probe = EstimatedStorage(sys_u, horizon=100, ensemble=1, seed=2).probe([1.0])
    assert not probe.tail_ok


def test_constructed_storage_convex_for_h_convex_outputs():
    # linear stable system with multiplicative noise: the output map
    # x -> m(f(x, w)) = 0.5 (0.6 + 0.3 w) x is linear in x, so h-convex by
    # construction, and the constructed storage passes the convexity check
    # at its noise level
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
    Vhat = EstimatedStorage(sys_r, horizon=60, ensemble=128, seed=9)
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
