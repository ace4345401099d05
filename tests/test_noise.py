import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import certify, library, noise, synth
from sbrl.dynamics import LinearSystem
from sbrl.errors import ConfigurationError, EvaluationError
from sbrl.noise import (ExpectationScheme, Gaussian, NoiseModel,
                        OmegaPolynomial, PointMass, Rademacher, Uniform,
                        derive_seed, expect, expected_affine_power,
                        expected_gram, sample_values, splitmix64)
from sbrl.storage import DomainBox, QuadraticStorage


def uniform_moment_quadrature(lo, hi, k, panels=200_001):
    # Simpson's rule, independent of the library's closed-form moments
    xs = np.linspace(lo, hi, panels)
    ys = xs ** k / (hi - lo)
    h = xs[1] - xs[0]
    w = np.ones(panels)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ ys))


def gaussian_moment_quadrature(mean, var, k):
    # Gauss-Hermite (probabilists'), independent of the moment formulas
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    xs = mean + math.sqrt(var) * nodes
    return float((weights @ xs ** k) / weights.sum())


def rademacher_expectation(poly, dims):
    # exact enumeration over the +-1 support
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=dims):
        total += poly(np.array([signs]))[0]
    return total / 2 ** dims


def test_point_mass_sample_rows_all_equal():
    model = NoiseModel((PointMass(0.7),))
    draws = model.sample(seed=1, count=3)
    assert draws.shape == (3, 1)
    assert np.all(draws == 0.7)


def test_uniform_law_of_large_numbers():
    model = NoiseModel((Uniform(0.0, 1.0),))
    draws = model.sample(seed=42, count=100_000)
    assert abs(draws.mean() - 0.5) < 0.01


def test_rademacher_moments():
    model = NoiseModel((Rademacher(),))
    draws = model.sample(seed=5, count=100_000)
    assert abs(draws.mean()) < 0.01
    assert abs((draws ** 2).mean() - 1.0) < 1e-12


def test_uniform_first_moment_closed_form():
    model = NoiseModel((Uniform(0.0, 1.0),))
    poly = OmegaPolynomial(1, {(1,): 1.0})
    est = expect(model, ExpectationScheme(mode="closed-form"), poly)
    assert est.value == pytest.approx(0.5, abs=1e-15)
    assert est.std_error == 0.0


def test_centered_uniform_second_moment():
    model = NoiseModel((Uniform(-0.5, 0.5),))
    poly = OmegaPolynomial(1, {(2,): 1.0})
    est = expect(model, ExpectationScheme(mode="closed-form"), poly)
    assert est.value == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_gaussian_second_moment_monte_carlo():
    model = NoiseModel((Gaussian(0.0, 1.0),))
    poly = OmegaPolynomial(1, {(2,): math.cos(0.0) ** 2})
    est = expect(model, ExpectationScheme(samples=100_000, seed=11), poly)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


@pytest.mark.parametrize("dist,k", [
    (Uniform(0.0, 1.0), 1), (Uniform(0.0, 1.0), 3),
    (Uniform(-0.5, 0.5), 2), (Uniform(-2.0, 3.0), 4),
])
def test_uniform_moments_against_quadrature(dist, k):
    assert dist.moment(k) == pytest.approx(
        uniform_moment_quadrature(dist.lo, dist.hi, k), rel=1e-9)


@pytest.mark.parametrize("mean,var,k", [
    (0.0, 1.0, 2), (0.0, 1.0, 4), (1.5, 0.25, 3), (-0.3, 2.0, 4),
    (0.7, 1.3, 6), (-0.3, 2.0, 7), (1.5, 0.25, 10),
])
def test_gaussian_moments_against_quadrature(mean, var, k):
    assert Gaussian(mean, var).moment(k) == pytest.approx(
        gaussian_moment_quadrature(mean, var, k), rel=1e-9)


@pytest.mark.parametrize("mean,var", [(0.0, 1.0), (0.0, 2.5), (1.5, 0.25),
                                      (-0.3, 2.0)])
def test_gaussian_moment_recurrence_keeps_the_low_orders(mean, var):
    # the closed forms of orders 0-4 that the recurrence replaced
    mu, s2 = mean, var
    old = [1.0, mu, mu * mu + s2, mu ** 3 + 3 * mu * s2,
           mu ** 4 + 6 * mu * mu * s2 + 3 * s2 * s2]
    new = [Gaussian(mean, var).moment(k) for k in range(5)]
    assert new[:3] == old[:3]  # orders 0-2 bit for bit
    assert new == pytest.approx(old, rel=1e-15, abs=1e-300)
    if mean == 0.0:
        assert new == old
        # (k - 1)!! s^k: 15 s^6 and 105 s^8, and the odd orders vanish
        assert Gaussian(mean, var).moment(6) == pytest.approx(
            15.0 * var ** 3, rel=1e-15)
        assert Gaussian(mean, var).moment(8) == pytest.approx(
            105.0 * var ** 4, rel=1e-15)
        assert Gaussian(mean, var).moment(7) == 0.0


def test_closed_form_matches_rademacher_enumeration():
    model = NoiseModel((Rademacher(), Rademacher(), Rademacher()))
    poly = OmegaPolynomial(3, {
        (0, 0, 0): 1.25, (1, 1, 0): 2.0, (2, 0, 0): -0.5,
        (1, 1, 2): 3.0, (0, 3, 1): 0.25,
    })
    exact = rademacher_expectation(poly, 3)
    est = expect(model, ExpectationScheme(mode="closed-form"), poly)
    assert est.value == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("components", [
    (Uniform(0.0, 1.0), Gaussian(0.0, 1.0)),
    (Uniform(-0.5, 0.5), Rademacher()),
    (Gaussian(1.0, 0.5), PointMass(0.3)),
])
def test_monte_carlo_within_four_std_errors_of_closed_form(components):
    model = NoiseModel(components)
    poly = OmegaPolynomial(2, {
        (0, 0): 0.5, (1, 0): 1.0, (0, 2): 2.0, (2, 1): -1.0, (1, 3): 0.25,
    })
    exact = poly.expectation(model)
    est = expect(model, ExpectationScheme(samples=20_000, seed=123), poly)
    assert abs(est.value - exact) <= 4.0 * max(est.std_error, 1e-12)


def test_antithetic_mean_exact_zero_for_odd_integrand():
    for comp in (Gaussian(0.0, 1.0), Uniform(-1.0, 1.0), Rademacher()):
        model = NoiseModel((comp,))
        est = expect(
            model,
            ExpectationScheme(samples=1000, seed=9, antithetic=True),
            lambda draws: draws[:, 0],
        )
        assert est.value == 0.0


def test_determinism_bit_identical():
    model = NoiseModel((Gaussian(0.0, 1.0), Uniform(0.0, 2.0)))
    scheme = ExpectationScheme(samples=5000, seed=77)
    fn = lambda draws: np.sin(draws[:, 0]) + draws[:, 1] ** 2  # noqa: E731
    a = expect(model, scheme, fn)
    b = expect(model, scheme, fn)
    assert a.value == b.value and a.std_error == b.std_error


def test_sampling_deterministic_and_shape():
    model = NoiseModel((Uniform(0.0, 1.0), Rademacher()))
    a = model.sample(3, 101)
    b = model.sample(3, 101)
    assert a.shape == (101, 2)
    assert np.array_equal(a, b)


def test_antithetic_pair_means_on_scalar_and_gram_paths():
    # an odd sample count gives ceil(n/2) pair means, the last pair included
    model = NoiseModel((Gaussian(0.0, 1.0),))
    scheme = ExpectationScheme(samples=101, seed=5, antithetic=True)
    base = model.sample(scheme.seed, 51)
    odd = sample_values(model, scheme, lambda draws: draws[:, 0])
    assert odd.shape == (51,)
    assert np.all(odd == 0.0)
    even = sample_values(model, scheme, lambda draws: draws[:, 0] ** 2)
    assert np.array_equal(even, 0.5 * (base[:, 0] ** 2 + (-base[:, 0]) ** 2))
    # an odd monomial is odd bit for bit, so its pair means vanish exactly
    cube = OmegaPolynomial(1, {(3,): 1.0})
    assert np.all(sample_values(model, scheme, cube) == 0.0)
    assert expect(model, scheme, cube).value == 0.0

    system = library.example1_system(noise=model)
    x = np.array([0.3])
    # the gram body's lambda_max(E[g'Pg] + m1'm1) at c = 1, scalar here
    sup, se = certify._gram_sup(system, x[None], [[4.0]], 1.0,
                                scheme.draws_at(x[None]))
    m1m1 = certify._m1_gram(system, x[None]).item()
    pairs = sample_values(
        model, scheme.at(x),
        lambda draws: 4.0 * system.gain(x[None], draws)[:, 0, 0] ** 2)
    assert pairs.shape == (51,)
    assert sup[0] - m1m1 == pytest.approx(pairs.mean(), rel=1e-12)
    assert se[0] == pytest.approx(pairs.std(ddof=1) / math.sqrt(51),
                                  rel=1e-12)


def test_invalid_parameters_raise():
    with pytest.raises(ConfigurationError):
        Uniform(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Gaussian(0.0, -0.1)
    with pytest.raises(ConfigurationError):
        NoiseModel.from_spec({"dim": 2, "components": [{"uniform": [0, 1]}]})


def test_non_finite_integrand_carries_point():
    model = NoiseModel((Uniform(0.0, 1.0),))
    def bad(draws):
        out = draws[:, 0].copy()
        out[3] = np.inf
        return out
    with pytest.raises(EvaluationError) as err:
        expect(model, ExpectationScheme(samples=10, seed=1), bad)
    assert err.value.point is not None


def test_closed_form_rejects_plain_callable():
    model = NoiseModel((Uniform(0.0, 1.0),))
    with pytest.raises(ConfigurationError):
        expect(model, ExpectationScheme(mode="closed-form"),
               lambda draws: draws[:, 0])


def test_closed_form_takes_a_polynomial_of_any_degree():
    # E[w^5] = 1/6 for w uniform on [0, 1] and E[w^6] = 15 for w ~ N(0, 1)
    poly = OmegaPolynomial(1, {(5,): 1.0})
    est = expect(NoiseModel((Uniform(0.0, 1.0),)),
                 ExpectationScheme(mode="closed-form"), poly)
    assert est.value == pytest.approx(1.0 / 6.0, rel=1e-15)
    est = expect(NoiseModel((Gaussian(0.0, 1.0),)),
                 ExpectationScheme(mode="closed-form"),
                 OmegaPolynomial(1, {(6,): 1.0}))
    assert est.value == 15.0


def test_quadratic_closed_form_against_monte_carlo():
    model = NoiseModel((Uniform(0.0, 1.0), Gaussian(0.5, 2.0)))
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    c0 = np.array([0.4, -1.0])
    cs = [np.array([1.0, 0.0]), np.array([-0.5, 2.0])]
    # one row: the closed-form route of expected_value_of
    exact, se = certify.expected_value_of(
        QuadraticStorage(P), model, None,
        lambda: (c0[None], [c[None] for c in cs]), None)
    assert se.tolist() == [0.0]
    draws = model.sample(31, 400_000)
    ys = c0[None, :] + draws[:, [0]] * cs[0][None, :] + draws[:, [1]] * cs[1][None, :]
    mc = np.einsum("ni,ij,nj->n", ys, P, ys)
    assert exact[0] == pytest.approx(mc.mean(), abs=4 * mc.std(ddof=1) / math.sqrt(len(mc)))


def test_expected_affine_power_against_enumeration():
    model = NoiseModel((Rademacher(), Rademacher()))
    c0, coeffs, k = 0.3, [1.5, -0.7], 4
    exact = expected_affine_power(c0, coeffs, k, model)
    brute = 0.0
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            brute += (c0 + coeffs[0] * s1 + coeffs[1] * s2) ** k
    assert exact == pytest.approx(brute / 4.0, rel=1e-12)


def enumerated_affine_power(c0, coeffs, power, model):
    """The multinomial expansion term by term: E[(c0 + sum_j c_j w_j)^k]
    and the sum of its absolute terms."""
    total = size = 0.0
    for exps in itertools.product(range(power + 1), repeat=model.dim + 1):
        if sum(exps) != power:
            continue
        term = math.factorial(power) * c0 ** exps[0] / math.prod(
            math.factorial(e) for e in exps)
        for j, e in enumerate(exps[1:]):
            term = term * coeffs[..., j] ** e * model.moment(j, e)
        total, size = total + term, size + np.abs(term)
    return total, size


@pytest.mark.parametrize("power", [2, 4, 6, 8])
def test_expected_affine_power_against_the_expansion(power):
    model = NoiseModel((Gaussian(0.3, 0.5), Uniform(-1.0, 2.0), Rademacher(),
                        PointMass(0.7)))
    rng = np.random.default_rng(power)
    c0, coeffs = rng.normal(size=20), rng.normal(size=(20, 4))
    mean = expected_affine_power(c0, coeffs, power, model)
    ref_mean, ref_size = enumerated_affine_power(c0, coeffs, power, model)
    # to rounding of the terms, which take both signs
    assert np.all(np.abs(mean - ref_mean) <= 1e-13 * ref_size)


def test_expected_gram_against_monte_carlo():
    model = NoiseModel((Gaussian(0.0, 1.0),))
    P = np.array([[1.0, 0.2], [0.2, 3.0]])
    G0 = np.array([[1.0, 0.0], [0.5, 1.0]])
    G1 = np.array([[0.0, 2.0], [1.0, 0.0]])
    exact = expected_gram(P, G0, [G1], model)
    draws = model.sample(13, 200_000)
    gs = G0[None] + draws[:, 0, None, None] * G1[None]
    mc = np.einsum("kij,il,klm->kjm", gs, P, gs).mean(axis=0)
    assert np.allclose(exact, mc, atol=0.05)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       index=st.integers(min_value=0, max_value=2 ** 32))
def test_derived_seeds_stay_in_range_and_spread(seed, index):
    sub = derive_seed(seed, index)
    assert 0 <= sub < 2 ** 64
    assert sub != derive_seed(seed, index + 1) or splitmix64(sub) != sub


# ------------------------------------------------ sampling-stream guard

def reference_sample(model, seed, count):
    """The draw path as first written: one generator, one array per
    coordinate from the per-kind generator call, then np.column_stack."""
    rng = np.random.default_rng(seed)
    cols = []
    for c in model.components:
        if isinstance(c, Uniform):
            cols.append(rng.uniform(c.lo, c.hi, count))
        elif isinstance(c, Gaussian):
            cols.append(c.mean + math.sqrt(c.variance)
                        * rng.standard_normal(count))
        elif isinstance(c, Rademacher):
            cols.append(rng.integers(0, 2, count) * 2.0 - 1.0)
        else:
            cols.append(np.full(count, c.value))
    return np.column_stack(cols)


def reference_mirror(model, draws):
    cols = []
    for j, c in enumerate(model.components):
        w = draws[:, j]
        if isinstance(c, Uniform):
            cols.append((c.lo + c.hi) - w)
        elif isinstance(c, Gaussian):
            cols.append(2.0 * c.mean - w)
        elif isinstance(c, Rademacher):
            cols.append(-w)
        else:
            cols.append(w)
    return np.column_stack(cols)


STREAM_COMPONENTS = [
    [{"uniform": [0.0, 1.0]}],
    [{"uniform": [-0.5, 0.5]}, {"uniform": [-3.0, 7.25]}],
    [{"gaussian": [0.0, 1.0]}],
    [{"gaussian": [-1.5, 0.3]}],
    [{"point_mass": 0.7}],
    ["rademacher"],
    [{"uniform": [0.0, 1.0]}, {"gaussian": [2.0, 0.5]}, {"point_mass": -0.25},
     "rademacher", {"uniform": [-2.0, 1e-3]}],
    # example 2's five coefficients
    [{"uniform": [0.0, 1.0]}, {"uniform": [-0.5, 0.5]}, {"uniform": [0.0, 1.0]},
     {"uniform": [0.0, 1.0]}, {"uniform": [0.0, 1.0]}],
]
STREAM_MODELS = [NoiseModel.from_spec({"components": c})
                 for c in STREAM_COMPONENTS]


def test_uniform_rejects_a_width_that_overflows():
    # rng.uniform raised OverflowError mid-run for these bounds
    for lo, hi in ((-1e308, 1e308), (0.0, math.inf)):
        with pytest.raises(ConfigurationError):
            Uniform(lo, hi)


@pytest.mark.parametrize("model", STREAM_MODELS,
                         ids=[str(c) for c in STREAM_COMPONENTS])
def test_sample_and_mirror_match_reference_stream(model):
    for seed in (0, 7, 2**63 + 5, derive_seed(11, 3)):
        for count in (1, 2, 1001):
            draws = model.sample(seed, count)
            expected = reference_sample(model, seed, count)
            assert draws.shape == expected.shape
            assert draws.tobytes() == expected.tobytes()
            assert not draws.flags.writeable
            mirrored = model.mirror(draws)
            assert (mirrored.tobytes()
                    == reference_mirror(model, expected).tobytes())
            assert not mirrored.flags.writeable


# ------------------------------------------------ one seeding path

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
KINDS = [Uniform(-0.5, 2.0), Gaussian(0.3, 2.0), Rademacher(), PointMass(0.7)]


def table_streams(seeds):
    """The sweep's seeding: one table for all the seeds, one owned PCG64."""
    return noise.streams(seeds, noise.seed_table(seeds),
                         np.random.Generator(np.random.PCG64(0)))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_table_seeding_starts_the_default_rng_stream(seeds):
    seeds = seeds + EDGE_SEEDS
    for seed, rng in zip(seeds, table_streams(seeds)):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        for kind in KINDS:  # the first draws of each distribution kind
            got, expected = np.empty(9), np.empty(9)
            kind.fill(rng, got)
            kind.fill(ref, expected)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", STREAM_MODELS,
                         ids=[str(c) for c in STREAM_COMPONENTS])
def test_block_draws_are_each_points_sample(model):
    # a block fills one buffer from one table; point i's matrix is still
    # model.sample(seed_i, N), and so is any part of the block
    for antithetic in (False, True):
        scheme = ExpectationScheme(samples=21, seed=9, antithetic=antithetic)
        points = np.linspace(-1.0, 1.0, 7)[:, None]
        block = scheme.draws_at(points)
        draws = block.draws(model)
        assert draws.shape == (7, scheme.draws_per_point(), model.dim)
        assert not draws.flags.writeable
        part = scheme.draws_at(points).block(2, 5)
        for i, x in enumerate(points):
            assert int(block.seeds[i]) == scheme.at(x).seed
            expected = model.sample(scheme.at(x).seed,
                                    scheme.draws_per_point())
            assert draws[i].tobytes() == expected.tobytes()
            if 2 <= i < 5:
                assert part.draws(model)[i - 2].tobytes() == expected.tobytes()


def test_interleaved_sweeps_keep_their_own_streams():
    # each sweep owns its generator: running two sweeps' blocks in turn
    # gives each the rows it gives alone
    from sbrl.certificates import _evaluated

    sys1, V = library.example1_system(), library.example1_storage(4.0)
    forms = {"H1": certify._split_rows("H1", V, sys1, 1.0 / 0.99),
             "G_beta": certify._g_beta_row(V, sys1, 1.0 / 0.99, 0.1)}
    runs = [(DomainBox((-10.0,), (10.0,), ("grid", 41)).points(),
             ExpectationScheme(samples=300, seed=3)),
            (DomainBox((-2.0,), (5.0,), ("grid", 29)).points(),
             ExpectationScheme(samples=501, seed=4, antithetic=True))]
    alone = [list(_evaluated(points, scheme, forms))
             for points, scheme in runs]
    mixed = [[], []]
    for pair in itertools.zip_longest(
            *(_evaluated(points, scheme, forms) for points, scheme in runs)):
        for out, item in zip(mixed, pair):
            if item is not None:
                out.append(item)
    for got, expected in zip(mixed, alone):
        assert repr(got) == repr(expected)


@pytest.mark.parametrize("shape", [(8, 2000), (1, 100_000), (8, 2000, 1, 1),
                                   (343, 7), (2000,), (3, 1)])
def test_mean_and_error_has_the_bits_of_mean_and_std(shape):
    # one mean pass forms the SE, with the operations of np.std(ddof=1)
    rng = np.random.default_rng(11)
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    axis = 1 if len(shape) > 1 else 0
    n = shape[axis]
    mean, se = noise.mean_and_error(values, axis)
    assert mean.tobytes() == values.mean(axis=axis).tobytes()
    expected = (values.std(axis=axis, ddof=1) / math.sqrt(n) if n > 1
                else np.zeros_like(values.mean(axis=axis)))
    assert np.asarray(se).tobytes() == np.asarray(expected).tobytes()


# ------------------------------------------- row blocks and per-point draws

def block_cases():
    """(name, fn(scheme) -> per-point estimates) on the three block systems."""
    lin = LinearSystem([[0.5, 0.1], [-0.2, 0.4]], [[0.1, 0.0], [0.05, 0.2]],
                       [[1.0, 0.3], [0.2, 0.7]], [[1.0, 0.0]], [[0.1, 0.2]])
    P = QuadraticStorage([[2.0, 0.3], [0.3, 1.0]])
    loop = synth.closed_loop(library.example2_plant(), library.example2_law())
    V2 = library.example2_storage()
    ex1, V1 = library.example1_system(), library.example1_storage(4.0)
    beta = 1.2
    return {
        "linear": lambda x, s: (certify.h1(P, lin, x[:2], beta, s),
                                certify.g_beta(P, lin, x[:2], beta, s)),
        "example2-closed-loop": lambda x, s: (
            certify.h1(V2, loop, x, library.EXAMPLE2_BETA, s),),
        "example1": lambda x, s: (certify.h1(V1, ex1, x[:1], beta, s),
                                  certify.g_beta(V1, ex1, x[:1], beta, s)),
    }


@pytest.mark.parametrize("block", [5, 7, 8192])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("case", ["linear", "example2-closed-loop",
                                  "example1"])
def test_row_blocks_change_no_bit(monkeypatch, block, antithetic, case):
    fn = block_cases()[case]
    x = np.array([0.7, -1.1, 0.4])
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        # an antithetic scheme of 2n samples draws n base rows
        scheme = ExpectationScheme(samples=2 * n if antithetic else n,
                                   seed=13, antithetic=antithetic)
        monkeypatch.setattr(noise, "SWEEP_ROWS", n)
        whole = fn(x, scheme.at(x))
        monkeypatch.setattr(noise, "SWEEP_ROWS", block)
        blocked = fn(x, scheme.at(x))
        assert [(e.value, e.std_error) for e in blocked] \
            == [(e.value, e.std_error) for e in whole], n


@pytest.mark.parametrize("block", [5, 7])
@pytest.mark.parametrize("antithetic", [False, True])
def test_row_blocks_change_no_sample_value(monkeypatch, block, antithetic):
    # per sample, not only per mean: a 1-2 row block would move the last
    # bit of some quadratic-form values (the einsum is not size stable)
    lin = LinearSystem([[0.5, 0.1], [-0.2, 0.4]], [[0.1, 0.0], [0.05, 0.2]],
                       [[1.0], [0.2]], [[1.0, 0.0]], [[0.1]])
    P = QuadraticStorage([[2.0, 0.3], [0.3, 1.0]])
    x = np.array([3.7, -2.9])

    def integrand(draws):
        return P.evaluate_batch(1.3 * lin.drift(x[None], None, draws))

    for n in range(1, 6 * block):
        scheme = ExpectationScheme(samples=2 * n if antithetic else n,
                                   seed=n, antithetic=antithetic).at(x)
        monkeypatch.setattr(noise, "SWEEP_ROWS", n)
        whole = sample_values(lin.noise, scheme, integrand).copy()
        monkeypatch.setattr(noise, "SWEEP_ROWS", block)
        blocked = sample_values(lin.noise, scheme, integrand)
        assert blocked.tobytes() == whole.tobytes(), n


def test_non_finite_sample_past_the_first_block_keeps_its_index(monkeypatch):
    monkeypatch.setattr(noise, "SWEEP_ROWS", 5)
    model = NoiseModel((Gaussian(0.0, 1.0), Uniform(0.0, 1.0)))
    scheme = ExpectationScheme(samples=13, seed=4).at([0.5])  # blocks 4, 4, 5
    draws = model.sample(scheme.seed, 13)
    bad = draws[9, 0]

    def integrand(block):
        return np.where(block[:, 0] == bad, np.inf, block[:, 1])

    with pytest.raises(EvaluationError, match="non-finite at sample 9$") as err:
        expect(model, scheme, integrand)
    assert np.array_equal(err.value.point, draws[9])


def spy_on_streams(monkeypatch):
    """The seeds every draw of the library starts a stream from, in order."""
    seeds, streams = [], noise.streams

    def spy(seed_list, table=None, rng=None):
        for s, gen in zip(seed_list, streams(seed_list, table, rng)):
            seeds.append(int(s))
            yield gen

    monkeypatch.setattr(noise, "streams", spy)
    return seeds


def test_interleaved_point_schemes_keep_their_own_draws(monkeypatch):
    # the one-point blocks of a sweep's block, sampled in turn
    model = NoiseModel((Gaussian(0.0, 1.0), Uniform(-1.0, 2.0)))
    base = ExpectationScheme(samples=50, seed=21)
    block = base.draws_at([[0.0], [1.0]])
    a, b = block.block(0, 1), block.block(1, 2)
    expected = {id(p): model.sample(int(p.seeds[0]), 50) for p in (a, b)}
    seeds = spy_on_streams(monkeypatch)
    for p in (a, a, b, a, b, b):
        got = noise.sample_block(model, p, lambda d: d[0].copy())[0]
        assert np.array_equal(got, expected[id(p)])
    # each point draws once, however the two interleave
    assert seeds == [int(a.seeds[0]), int(b.seeds[0])]


def test_sweep_holds_no_buffer_after_it_returns(monkeypatch):
    sys1, V = library.example1_system(), library.example1_storage(4.0)
    buffers, draws = [], noise.PointDraws.draws

    def spy(self, model):
        out = draws(self, model)
        buffers.append((id(out.base), weakref.ref(out.base)))
        return out

    monkeypatch.setattr(noise.PointDraws, "draws", spy)
    seeds = spy_on_streams(monkeypatch)
    box = DomainBox((-10.0,), (10.0,), ("grid", 5))
    scheme = ExpectationScheme(samples=300, seed=3)
    cert = certify.check_external(sys1, V, 1.0 / 0.99, 0.1, box, scheme)
    assert cert.certified
    assert len(seeds) == 5  # one stream per point
    # H1 and G_beta share the one buffer of the block
    assert len(buffers) == 2 and len({key for key, _ in buffers}) == 1
    assert all(ref() is None for _, ref in buffers)
