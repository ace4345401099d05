"""Point blocks change no bit.

A sweep evaluates H0, H1 and G_beta for a block of points in one call.
Under Monte Carlo the states are (B, 1, n) against the draws as
(B, N, n_w), so each point's state row broadcasts against its own draws;
in closed form the declared parts of the B states are (B, ...) rows.
That gives the per-point bits only if every storage kernel and every
system map is row-split invariant (a row's value does not depend on the
other rows of the call) and a single state row broadcast against N draws
equals the same row repeated N times.  The first part checks those
properties and that every block row of the H and gram bodies is its point
run alone; the second runs the sweeps at several block sizes and compares
the certificates byte for byte.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import certify, library, noise, synth
from sbrl.dynamics import AffineSystem, LinearSystem
from sbrl.errors import ConfigurationError
from sbrl.noise import ExpectationScheme, gaussian_noise
from sbrl.storage import (CustomStorage, DomainBox, EstimatedStorage,
                          QuadraticStorage, SeparableStorage)

# ------------------------------------------------------ row-split invariance

LINEAR = LinearSystem([[0.5, 0.1], [-0.2, 0.4]], [[0.1, 0.0], [0.05, 0.2]],
                      [[1.0, 0.3], [0.2, 0.7]], [[1.0, 0.0], [0.3, -0.6]],
                      [[0.1, 0.2]])

STORAGES = {
    "quadratic-1": QuadraticStorage([[4.0]]),
    "quadratic-2": QuadraticStorage([[2.0, 0.3], [0.3, 1.0]]),
    "quadratic-3": QuadraticStorage([[3.0, -0.4, 0.2], [-0.4, 1.5, 0.7],
                                     [0.2, 0.7, 2.2]]),
    "separable-example2": library.example2_storage(),
    "separable-6-2": SeparableStorage((0.7, 1.3), (6, 2)),
    "custom": CustomStorage(lambda X: np.sum(np.abs(X), axis=1), 2),
    "estimated": EstimatedStorage(LINEAR, 4, 2, 5),
}
LINEAR_3 = LinearSystem([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.1], [0.0, 0.3, 0.2]],
                        0.1 * np.eye(3), [[1.0], [0.5], [-0.2]],
                        [[1.0, 0.0, 0.5]], [[0.1]])
PLANT_2 = library.example2_plant()
LOOP_2 = synth.closed_loop(PLANT_2, library.example2_law())
EXAMPLE_1 = library.example1_system()


def system_maps(system):
    """{name: (map over rows, [row widths of its arguments])}; the drift
    and the gain take the noise draws last."""
    n, dim = system.n, system.noise.dim
    if system.n_u:
        return {
            "drift": (system.drift, [n, system.n_u, dim]),
            "gain": (system.gain, [n, dim]),
            "output_m": (system.output_m, [n, system.n_u]),
        }
    return {
        "drift": (lambda X, W: system.drift(X, None, W), [n, dim]),
        "gain": (system.gain, [n, dim]),
        "output_m": (system.output_m, [n]),
    }


MAPS = {f"{label}-{name}": entry
        for label, system in [("example1", EXAMPLE_1),
                              ("example2-plant", PLANT_2),
                              ("example2-closed-loop", LOOP_2),
                              ("linear-2", LINEAR), ("linear-3", LINEAR_3)]
        for name, entry in system_maps(system).items()}


def random_rows(seed, rows, width):
    """Rows of mixed sign whose magnitudes span six decades."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(rows, width))
            * 10.0 ** rng.uniform(-3.0, 3.0, (rows, width)))


def split_calls(fn, arrays, sizes):
    """``fn`` over consecutive row parts of the given sizes (cycled),
    joined back into one array."""
    rows, start, parts = len(arrays[0]), 0, []
    for size in itertools.cycle(sizes):
        if start >= rows:
            return np.concatenate(parts)
        parts.append(fn(*(a[start:start + size] for a in arrays)))
        start += size


splits = st.lists(st.sampled_from([1, 2, 3, 7]), min_size=1, max_size=5)


@pytest.mark.parametrize("name", sorted(STORAGES))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), sizes=splits)
def test_storage_evaluate_batch_is_row_split_invariant(name, seed, rows,
                                                       sizes):
    V = STORAGES[name]
    X = random_rows(seed, rows, V.dim)
    whole = V.evaluate_batch(X)
    assert split_calls(V.evaluate_batch, [X], sizes).tobytes() \
        == whole.tobytes()
    # V(x) at one point is the one-row batch, bit for bit
    assert np.array([V.evaluate(x) for x in X]).tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", sorted(MAPS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), sizes=splits)
def test_builtin_maps_are_row_split_invariant(name, seed, rows, sizes):
    fn, widths = MAPS[name]
    arrays = [random_rows(seed + i, rows, w) for i, w in enumerate(widths)]
    with np.errstate(over="ignore", invalid="ignore"):
        whole = fn(*arrays)
        split = split_calls(fn, arrays, sizes)
    assert whole.shape[0] == rows
    assert split.tobytes() == whole.tobytes()
    if name.endswith("output_m"):
        return
    # a sweep repeats the state (and control) rows of a point once per
    # draw where the per-point path passes them as one row
    with np.errstate(over="ignore", invalid="ignore"):
        single = fn(*(a[:1] for a in arrays[:-1]), arrays[-1])
        repeated = fn(*(np.repeat(a[:1], rows, axis=0) for a in arrays[:-1]),
                      arrays[-1])
    assert single.tobytes() == repeated.tobytes()


# ------------------------------------------- leading-dimension invariance

# (system, control row or None, storage for H, quadratic P for the gram)
LEADING_CASES = {
    "example1": (EXAMPLE_1, None, QuadraticStorage([[4.0]]), [[4.0]]),
    "example2-plant": (PLANT_2, np.array([[0.4, -0.3]]),
                       library.example2_storage(),
                       STORAGES["quadratic-3"].P),
    "example2-closed-loop": (LOOP_2, None, library.example2_storage(),
                             STORAGES["quadratic-3"].P),
    "linear-2": (LINEAR, None, STORAGES["quadratic-2"],
                 STORAGES["quadratic-2"].P),
}


@pytest.mark.parametrize("antithetic", [False, True,
                                        pytest.param(None, id="closed-form")])
@pytest.mark.parametrize("case", sorted(LEADING_CASES))
def test_block_rows_are_each_point_run_alone(case, antithetic):
    # a Monte Carlo block passes states (B, 1, n) against draws (B, N, n_w),
    # so each state factor is formed once per point, and a closed-form
    # block passes the declared parts of its states as (B, ...) rows;
    # every row must still have the bits of its point run alone
    system, u_row, V, P = LEADING_CASES[case]
    scheme = (ExpectationScheme(mode="closed-form") if antithetic is None
              else ExpectationScheme(samples=64, seed=17,
                                     antithetic=antithetic))
    X = random_rows(3, 5, system.n)
    draws = scheme.draws_at(X)
    with np.errstate(over="ignore", invalid="ignore"):
        split = certify._split_block(V, system, X, u_row, 1.3, draws)
        sup, se = certify._gram_sup(system, X, P, 2.0, draws)
        for i, x in enumerate(X):
            seed = noise.point_seeds(scheme.seed, [x])[0]
            alone = scheme.with_seed(int(seed)).point_draws()
            # value, SE, V(x) and |m|^2
            one = certify._split_block(V, system, x[None], u_row, 1.3, alone)
            assert [a.tobytes() for a in one] \
                == [a[i:i + 1].tobytes() for a in split]
            sup1, se1 = certify._gram_sup(system, x[None], P, 2.0, alone)
            assert (sup1.tobytes(), se1.tobytes()) \
                == (sup[i:i + 1].tobytes(), se[i:i + 1].tobytes())


# ------------------------------------------------------- block-size invariance

BETA1 = 1.0 / 0.99


def spiked_system():
    """A scalar system whose drift and gain overflow at x = 1 only."""
    def spike(X):
        return np.where(np.abs(X[..., :1] - 1.0) < 1e-9, 1e200, 1.0)

    return AffineSystem(
        1, 1,
        f=lambda X, W: 0.5 * X * spike(X),
        g=lambda X, W: (0.3 * X * (1.0 + W) * spike(X))[..., None],
        m=lambda X: 0.2 * X,
        m1=lambda X: np.array([[0.1]]),
        noise=gaussian_noise(),
    )


def signature(result):
    """Canonical bytes of a certificate or gamma-star result: NaN, -0.0 and
    the last bit of every float all count."""
    return json.dumps(result.to_dict(), sort_keys=True)


def at_block_sizes(monkeypatch, scheme, run):
    """``run()`` with 1, 2, 3 and 7 points per block, as canonical bytes.

    One budget drives both kinds of block, so a run at the default budget
    and one at a budget of 7 draw rows must give the same bytes; below N
    the latter runs one point per block in several row chunks."""
    default = signature(run())
    out = []
    for points in (1, 2, 3, 7):
        monkeypatch.setattr(noise, "SWEEP_ROWS",
                            points * scheme.draws_per_point())
        assert scheme.points_per_block() == points
        out.append(signature(run()))
    monkeypatch.setattr(noise, "SWEEP_ROWS", 7)
    assert signature(run()) == default
    return out


SCHEMES = {
    "n1": ExpectationScheme(samples=1, seed=5),
    "n2": ExpectationScheme(samples=2, seed=5),
    "n2-antithetic": ExpectationScheme(samples=2, seed=5, antithetic=True),
    "n60-antithetic": ExpectationScheme(samples=60, seed=9, antithetic=True),
    "n200": ExpectationScheme(samples=200, seed=11),
    "closed-form": ExpectationScheme(mode="closed-form"),
}
EX1_BOX = DomainBox((-10.0,), (10.0,), ("grid", 23))
EX2_BOX = DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 3))
LINEAR_BOX = DomainBox((-2.0, -1.0), (2.0, 1.0), ("grid", 5))
SPIKE_BOX = DomainBox((0.0,), (2.0,), ("grid", 21))  # x = 1 is point 10


def sweeps():
    sys1, V1 = EXAMPLE_1, library.example1_storage(4.0)
    V2, beta2 = library.example2_storage(), library.EXAMPLE2_BETA
    VL = QuadraticStorage([[2.0, 0.3], [0.3, 1.0]])
    spiked, VS = spiked_system(), QuadraticStorage([[1.0]])
    candidates = [(p, library.example1_storage(p)) for p in (2.0, 4.0, 8.0)]
    return {
        "example1-external": lambda s: certify.check_external(
            sys1, V1, BETA1, 0.0805, EX1_BOX, s),
        "example1-internal": lambda s: certify.check_internal(
            sys1, V1, 4.0, EX1_BOX, s),
        "example1-gamma-star": lambda s: certify.gamma_star_search(
            sys1, candidates, [1.002, BETA1, 1.5], EX1_BOX, s),
        "linear-external": lambda s: certify.check_external(
            LINEAR, VL, 1.5, 9.0, LINEAR_BOX, s),
        "linear-internal": lambda s: certify.check_internal(
            LINEAR, VL, 3.0, LINEAR_BOX, s),
        "example2-controller": lambda s: synth.certify_controller(
            LOOP_2, library.example2_law(), V2, beta2,
            0.75 ** 2, EX2_BOX, s),
        "example2-internal": lambda s: certify.check_internal(
            LOOP_2, V2, 1.0, EX2_BOX, s),
        "spike-external": lambda s: certify.check_external(
            spiked, VS, 2.0, 4.0, SPIKE_BOX, s),
        "spike-internal": lambda s: certify.check_internal(
            spiked, VS, 1.0, SPIKE_BOX, s),
        "spike-gamma-star": lambda s: certify.gamma_star_search(
            spiked, [(1.0, VS)], [2.0], SPIKE_BOX, s),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("case", sorted(sweeps()))
def test_block_size_changes_no_bit(monkeypatch, case, scheme):
    scheme = SCHEMES[scheme]
    run = sweeps()[case]
    if scheme.mode == "closed-form" and case.startswith("spike"):
        # the spiked system declares no parts for the exact path
        with pytest.raises(ConfigurationError, match="f_parts"):
            run(scheme)
        return
    results = at_block_sizes(monkeypatch, scheme, lambda: run(scheme))
    assert results[1:] == results[:1] * 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_in_the_middle_of_a_block_is_found_point_by_point(
        monkeypatch):
    # x = 1 sits inside a block of 3 and of 7 points; that block reruns
    # point by point, so the NaN rows carry the per-point messages
    scheme = SCHEMES["n200"]
    run = sweeps()["spike-external"]
    results = at_block_sizes(monkeypatch, scheme, lambda: run(scheme))
    assert results[1:] == results[:1] * 3
    cert = json.loads(results[0])
    assert cert["status"] == "inconclusive"
    assert cert["witness"]["point"] == [1.0]
    assert cert["witness"]["info"] == {
        "inequality": "H1", "error": "integrand non-finite at sample 0"}
    assert cert["provenance"]["h1_worst"] is None
    assert cert["provenance"]["g_beta_sup"] is None
    assert cert["provenance"]["samples_checked"] == 2 * 21
