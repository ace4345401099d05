"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline numbers (run with -s to see them live)."""

import math
import time
from fractions import Fraction

import numpy as np

from sbrl import certify, library, synth
from sbrl.cli import canonical_json
from sbrl.dynamics import GeneralSystem, LinearSystem
from sbrl.noise import ExpectationScheme, point_mass_noise
from sbrl.storage import DomainBox, EstimatedStorage, QuadraticStorage

CF = ExpectationScheme(mode="closed-form")
BETA1 = 1.0 / 0.99
SEED = 20_240_817


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def example1_candidates(p_grid):
    return [(p, library.example1_storage(p)) for p in p_grid]


def test_criterion_01_example1_gamma_star():
    sys1 = library.example1_system()
    box = DomainBox((-10.0,), (10.0,), ("grid", 201))
    t0 = time.perf_counter()
    res = certify.gamma_star_search(
        sys1, example1_candidates([2.0, 3.0, 4.0, 5.0, 6.0, 8.0]),
        [1.002, 1.005, BETA1, 1.02, 1.05, 1.5], box, CF)
    elapsed = time.perf_counter() - t0
    a, b, c, c1 = 0.99, 0.01, 0.2, 0.2
    analytic = b * b * c * c / (1.0 - abs(a)) ** 2 + c1 * c1
    ok = (res.status == "ok"
          and abs(res.gamma_star_sq - 0.08) < 1e-10
          and abs(res.gamma_star_sq - analytic) < 1e-10
          and elapsed < 5.0)
    report(1, ok, f"gamma*^2 = {res.gamma_star_sq!r} (analytic {analytic!r}), "
                  f"{elapsed:.2f} s")


def test_criterion_02_example1_empirical_consistency():
    sys1 = library.example1_system()
    t0 = time.perf_counter()
    worst_mean, worst_max = -np.inf, -np.inf
    verdicts = []
    for name, ens in library.example1_ensembles().items():
        rep = certify.empirical_gain(sys1, ens, 200, 200, 0.08, seed=SEED)
        verdicts.append(rep.verdict)
        worst_mean = max(worst_mean, rep.mean_energy_ratio)
        worst_max = max(worst_max, rep.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = (all(v == "consistent" for v in verdicts)
          and worst_mean <= 0.08
          and worst_max <= 0.08 * 1.05
          and elapsed < 10.0)
    report(2, ok, f"mean ratio {worst_mean:.5f} <= 0.08, "
                  f"max ratio {worst_max:.5f} <= 0.084, {elapsed:.2f} s")


def test_criterion_03_example1_h1_boundary():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    xs = DomainBox((-10.0,), (10.0,), ("random", 1000, 5)).points()
    worst = max(abs(certify.h1(V, sys1, x, BETA1, CF).value) for x in xs)
    ok = len(xs) == 1000 and worst < 1e-10
    report(3, ok, f"|H1| <= {worst:.3e} at 1000 sampled states")


def test_criterion_04_example2_controller_certificate():
    law = library.example2_law()
    beta = library.EXAMPLE2_BETA
    scheme = ExpectationScheme(samples=100_000, seed=SEED)
    box = DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 7))
    t0 = time.perf_counter()
    cert = synth.certify_controller(
        synth.closed_loop(library.example2_plant(), law), law,
        library.example2_storage(), beta, 0.5625, box, scheme)
    elapsed = time.perf_counter() - t0
    g_sup = cert.provenance["g_beta_sup"]
    expected = beta / (beta - 1.0) / 16.0  # = 0.430998734648594
    ok = (cert.status == "certified"
          and abs(g_sup - expected) < 1e-10
          and abs(g_sup - 0.430998734648594) < 1e-10
          and g_sup <= 0.5625
          and elapsed < 60.0)
    report(4, ok, f"status {cert.status}, G_beta = {g_sup!r} <= 0.5625, "
                  f"{elapsed:.1f} s (MC N=1e5)")


def test_criterion_05_example2_exact_rational_identities():
    t0 = time.perf_counter()
    p = Fraction(1, 16)
    b3 = Fraction(8, 5)
    identity = Fraction(5, 12) * p * b3 + Fraction(1, 48) - p
    power_check = 5 * 8 ** 3 * b3
    elapsed = time.perf_counter() - t0
    ok = (identity == 0 and power_check == 4096 and 4096 > 3645
          and elapsed < 1e-3)
    report(5, ok, f"(5/12)p b^3 + 1/48 - p = {identity}, "
                  f"5*8^3*b^3 = {power_check} > 3645, {elapsed * 1e6:.0f} us")


def test_criterion_06_example2_empirical_gain():
    loop = synth.closed_loop(library.example2_plant(), library.example2_law())
    t0 = time.perf_counter()
    rep = certify.empirical_gain(loop, library.example2_ensemble(), 300, 200,
                                 0.5625, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == "consistent" and elapsed < 30.0
    report(6, ok, f"verdict {rep.verdict}, mean ratio "
                  f"{rep.mean_energy_ratio:.5f} vs 0.5625, {elapsed:.1f} s")


def test_criterion_07_linear_brl_scalar_boundary():
    sys_l = LinearSystem([[0.5]], [[0.0]], [[1.0]], [[0.5]], [[0.0]])
    at_boundary = certify.linear_brl(sys_l, [[0.5]], 2.0, 2.0)
    below = certify.linear_brl(sys_l, [[0.5]], 2.0, 1.9)
    ok = (at_boundary.certified
          and abs(at_boundary.eq_gain_margin - (2.0 - 2.0)) <= 1e-12
          and not below.certified)
    report(7, ok, f"gamma^2=2: {at_boundary.status} "
                  f"(gain margin {at_boundary.eq_gain_margin:.2e}); "
                  f"gamma^2=1.9: {below.status}")


def test_criterion_08_storage_construction_oracle():
    sys_s = library.example1_system(a=0.99, b=0.0, c=0.2, c1=0.0)
    Vhat = EstimatedStorage(sys_s, horizon=2000, ensemble=1, seed=SEED)
    coef = 0.2 ** 2 / (1.0 - 0.99 ** 2)
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        rel = abs(Vhat.evaluate([x]) - coef * x * x) / (coef * x * x)
        worst = max(worst, rel)
    ok = worst < 0.005
    report(8, ok, f"V-hat vs c^2 x^2 / (1 - a^2) = {coef:.6f} x^2, "
                  f"worst rel err {worst:.2e}")


def test_criterion_09_dissipation_telescoping():
    sys1 = library.example1_system()
    V = library.example1_storage(4.0)
    worst_excess = -np.inf
    for name, ens in library.example1_ensembles().items():
        means, ses = certify.dissipation_profile(
            sys1, V, 0.08, ens, 200, 200, seed=SEED)
        worst_excess = max(worst_excess, float((means - 4.0 * ses).max()))
    ok = worst_excess <= 0.0
    report(9, ok, f"per-step mean of the supply-rate defect stays <= 4 se "
                  f"(worst excess {worst_excess:.2e})")


def test_criterion_10_oracle_agreement_suite():
    rng = np.random.default_rng(SEED)
    mc = ExpectationScheme(samples=100_000, seed=SEED)
    passes = 0
    for case in range(20):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        A0 = 0.5 * rng.normal(size=(n, n))
        S = A.T @ A + A0.T @ A0
        scale = math.sqrt(0.8 / np.linalg.eigvalsh(S)[-1])
        sys_r = LinearSystem(scale * A, scale * A0, rng.normal(size=(n, 1)),
                             0.5 * rng.normal(size=(1, n)),
                             0.3 * rng.normal(size=(1, 1)))
        R = rng.normal(size=(n, n))
        V = QuadraticStorage(R.T @ R + 0.5 * np.eye(n))
        x = rng.normal(size=n)
        agree = True
        for fn, args in ((certify.h0, ()), (certify.h1, (1.7,))):
            exact = fn(V, sys_r, x, *args, CF)
            sampled = fn(V, sys_r, x, *args, mc.with_seed(SEED + case))
            if abs(sampled.value - exact.value) > 4.0 * sampled.std_error:
                agree = False
        gb_exact = certify.g_beta(V, sys_r, x, 1.7, CF)
        gb_mc = certify.g_beta(V, sys_r, x, 1.7, mc.with_seed(SEED + case))
        if abs(gb_mc.value - gb_exact.value) > 4.0 * max(gb_mc.std_error, 1e-12):
            agree = False
        passes += agree
    ok = passes >= 19
    report(10, ok, f"{passes}/20 systems agree within 4 std errors "
                   f"(h0, h1, G_beta; MC N=1e5)")


def test_criterion_11_taylor_worked_instance():
    plant = GeneralSystem(
        1, 1, 1,
        F=lambda k, X, U, V, W: 0.5 * X + U + V,
        m=lambda k, X, U, V: U,
        noise=point_mass_noise(0.0, 1),
    )
    V = QuadraticStorage([[1.0]])
    scheme = ExpectationScheme(samples=8, seed=SEED)

    def saddle(gamma):
        return synth.SaddleData(alpha=synth.FeedbackLaw.zero(1),
                                eta=synth.FeedbackLaw(lambda X, k: -0.5 * X, 1),
                                M=[[8.0]], N=[[4.0]], gamma=gamma)

    box = DomainBox((-2.0,), (2.0,), ("grid", 9))
    cert3 = synth.taylor_certify(plant, saddle(3.0), V, box, scheme)
    cert21 = synth.taylor_certify(plant, saddle(2.1), V, box, scheme)
    worst_fd = 0.0
    for x in (1.0, -1.0, 2.0, -2.0):
        val = synth.saddle_functional(plant, saddle(3.0), V, [x], 0, scheme)
        worst_fd = max(worst_fd, abs(val.value - (-0.1 * x * x)))
    ok = (cert3.status == "certified" and cert21.status == "falsified"
          and worst_fd < 1e-3)
    report(11, ok, f"gamma=3 {cert3.status}, gamma=2.1 {cert21.status}, "
                   f"saddle functional within {worst_fd:.1e} of -0.1 x^2")


def test_criterion_12_determinism():
    sys1 = library.example1_system()
    box = DomainBox((-10.0,), (10.0,), ("grid", 101))
    searches = [
        certify.gamma_star_search(
            sys1, example1_candidates([3.0, 4.0, 5.0]), [1.005, BETA1],
            box, CF).to_dict()
        for _ in range(2)
    ]
    ens = library.example1_ensembles()["white"]
    gains = [
        certify.empirical_gain(sys1, ens, 100, 64, 0.08, seed=SEED).to_dict()
        for _ in range(2)
    ]
    plant = library.example2_plant()
    law = library.example2_law()
    scheme = ExpectationScheme(samples=10_000, seed=SEED)
    certs = [
        synth.certify_controller(
            synth.closed_loop(plant, law), law, library.example2_storage(),
            library.EXAMPLE2_BETA, 0.5625,
            DomainBox((-2.0,) * 3, (2.0,) * 3, ("grid", 3)), scheme).to_dict()
        for _ in range(2)
    ]
    ok = (canonical_json(searches[0]) == canonical_json(searches[1])
          and canonical_json(gains[0]) == canonical_json(gains[1])
          and canonical_json(certs[0]) == canonical_json(certs[1]))
    report(12, ok, "repeated runs give byte-identical serialised results")
