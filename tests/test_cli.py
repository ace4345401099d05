import contextlib
import copy
import csv
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import cli, library, noise
from sbrl.dynamics import (GeneralSystem, Trajectory,
                           rollout, simulate_ensemble, trajectory_csv_rows)
from sbrl.synth import closed_loop


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def example1_external_config(out_dir, gamma_sq=0.08):
    return {
        "seed": 7,
        "system": {"builtin": "example1"},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {
            "kind": "external",
            "beta": 1.0 / 0.99,
            "gamma_sq": gamma_sq,
            "domain": {"lo": [-10.0], "hi": [10.0], "grid": 201},
            "scheme": {"mode": "closed-form"},
        },
        "output": {"dir": str(out_dir), "formats": ["csv"]},
    }


def run(args):
    return cli.main(args)


def test_certify_example1_exit_zero(tmp_path):
    cfg = write_config(tmp_path, example1_external_config(tmp_path / "out"))
    assert run(["certify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "certified"
    margins = json.loads((tmp_path / "out" / "margins.json").read_text())
    assert abs(margins["h1_worst"]) < 1e-10


def test_certify_small_gamma_exit_one(tmp_path):
    cfg = write_config(tmp_path,
                       example1_external_config(tmp_path / "out", gamma_sq=0.05))
    assert run(["certify", "--config", cfg]) == 1


def test_malformed_config_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["certify", "--config", str(path)]) == 2


def test_schema_violation_reports_field_path(tmp_path, capsys):
    cfg = {"system": {"builtin": "nope"},
           "certificate": {"kind": "wat"}}
    path = write_config(tmp_path, cfg)
    assert run(["certify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "system.builtin" in err
    assert "certificate.kind" in err


SCHEMA_VIOLATIONS = {
    "scheme-not-object": ("certify", {"certificate": {"scheme": "mc"}},
                          "certificate.scheme"),
    "disturbance-not-object": ("gain", {"ensemble": {"disturbance": "white"}},
                               "ensemble.disturbance"),
    "key-with-line-break": ("certify", {"a\nb": 1}, "'a\\nb'"),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_VIOLATIONS))
def test_schema_violation_exits_two_with_one_line(tmp_path, capsys, name):
    command, cfg, field = SCHEMA_VIOLATIONS[name]
    cfg = dict(cfg, output={"dir": str(tmp_path / "out")})
    assert run([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violations: ")
    assert len(err.splitlines()) == 1
    assert f"{field}: " in err


@pytest.mark.parametrize("keys, field", [
    ({"amp_range": []}, "amp_range"),
    ({"amp_range": [2.0]}, "amp_range"),
    ({"amp_range": [0.5, 1.5, 3]}, "amp_range"),
    ({"amp_range": [1.5, 0.5]}, "amp_range"),
    ({"freqs": [0.3, 0.4]}, "freqs"),
    ({"phases": []}, "phases"),
], ids=["empty", "one", "three", "reversed", "freqs", "phases"])
def test_malformed_decaying_sine_exits_two_naming_the_key(tmp_path, capsys,
                                                          keys, field):
    # example 1 has one disturbance channel: freqs and phases take one entry
    cfg = {"system": {"builtin": "example1"},
           "ensemble": {"horizon": 5, "count": 2, "gamma_sq": 0.1,
                        "disturbance": {"kind": "decaying-sine", **keys}},
           "output": {"dir": str(tmp_path / "out")}}
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"ensemble.disturbance.{field}: " in err


@pytest.mark.parametrize("command, system, ensemble, expected", [
    ("gain", "example1",
     {"disturbance": {"kind": "recorded", "values": [[1.0, 2.0]]}},
     "ensemble.disturbance.values: 2 values per step for n_v = 1"),
    ("gain", "example1",
     {"disturbance": {"kind": "impulse", "step": 0,
                      "vector": [1.0, 2.0, 3.0]}},
     "ensemble.disturbance.vector: 3 values per step for n_v = 1"),
    ("simulate", "example1",
     {"x0": [1.0, 2.0], "disturbance": {"kind": "white"}},
     "ensemble.x0: 2 values for a 1-state system"),
    ("gain", "example2", {"disturbance": {"kind": "white"}},
     "law: required for 'gain'"),
    ("gain", "example1",
     {"x0": [1.0, 2.0], "disturbance": {"kind": "white"}},
     "ensemble.x0: 2 values for a 1-state system"),
    ("gain", "example1",
     {"disturbance": {"kind": "recorded", "values": [[1.0], [1.0, 2.0]]}},
     "ensemble.disturbance.values: rows of unequal length"),
], ids=["recorded-values", "impulse-vector", "x0", "gain-without-law",
        "gain-x0", "recorded-ragged"])
def test_ensemble_or_law_mismatch_exits_two_naming_the_key(
        tmp_path, capsys, command, system, ensemble, expected):
    cfg = {"system": {"builtin": system},
           "ensemble": {"horizon": 5, "count": 2, "gamma_sq": 0.1,
                        **ensemble},
           "output": {"dir": str(tmp_path / "out")}}
    assert run([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]


def test_gain_example1_consistent(tmp_path):
    cfg = {
        "seed": 5,
        "system": {"builtin": "example1"},
        "ensemble": {"horizon": 100, "count": 50, "gamma_sq": 0.08,
                     "disturbance": {"kind": "decaying-sine", "freqs": [0.3]}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 0
    reports = json.loads((tmp_path / "out" / "gain_reports.json").read_text())
    assert reports[0]["max_ratio"] < 0.08
    ratios = (tmp_path / "out" / "gain_ratios.csv").read_text().splitlines()
    assert ratios[0] == "disturbance,trajectory,energy_ratio"
    assert len(ratios) == 51


@pytest.mark.parametrize("command,csv_name", [("gain", "gain_ratios.csv"),
                                              ("simulate", "trajectory_000.csv")])
def test_format_decides_the_csv_of_every_command(tmp_path, command, csv_name):
    # one --format rule for gain and simulate, as for example: a CSV is
    # written only when the formats list csv
    cfg = {
        "seed": 5,
        "system": {"builtin": "example1"},
        "ensemble": {"horizon": 20, "count": 3, "gamma_sq": 0.08,
                     "disturbance": {"kind": "white"}},
        "output": {"dir": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, cfg)
    assert run([command, "--config", path, "--format", "svg"]) == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out" / csv_name).exists()
    assert run([command, "--config", path, "--format", "csv",
                "--out", str(tmp_path / "csv")]) == 0
    assert (tmp_path / "csv" / csv_name).exists()


def test_gain_feedthrough_counterexample_exit_one(tmp_path):
    cfg = {
        "seed": 5,
        "system": {"linear": {"A": [[0.0]], "A0": [[0.0]], "B": [[0.0]],
                              "C": [[0.0]], "D": [[1.0]]}},
        "ensemble": {"horizon": 50, "count": 30, "gamma_sq": 0.5,
                     "disturbance": {"kind": "white", "std": 1.0}},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 1


def test_gain_zero_count_rejected(tmp_path):
    cfg = {
        "system": {"builtin": "example1"},
        "ensemble": {"horizon": 10, "count": 0, "gamma_sq": 0.08,
                     "disturbance": {"kind": "white"}},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 2


def test_simulate_geometric_decay_rows(tmp_path):
    cfg = {
        "seed": 1,
        "system": {"linear": {"A": [[0.5]], "A0": [[0.0]], "B": [[0.0]],
                              "C": [[1.0]], "D": [[0.0]]}},
        "ensemble": {"horizon": 5, "count": 1, "x0": [1.0],
                     "disturbance": {"kind": "zero"}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "trajectory_000.csv").read_text().splitlines()
    assert lines[0] == "k,x_1,v_1,z_sq,v_sq,cum_z_sq,cum_v_sq"
    assert len(lines) == 7  # header + K+1 rows
    for k, line in enumerate(lines[1:]):
        assert line.split(",")[1] == repr(0.5 ** k)


def test_simulate_example2_open_loop_row_count(tmp_path):
    cfg = {
        "seed": 2,
        "system": {"builtin": "example2"},
        "ensemble": {"horizon": 12, "count": 1, "x0": [1.0, 1.0, 0.5],
                     "disturbance": {"kind": "zero"}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "trajectory_000.csv").read_text().splitlines()
    assert len(lines) == 14


def test_simulate_law_with_wrong_control_count_exits_two(tmp_path, capsys,
                                                         monkeypatch):
    # a one-row gain on the two-input plant must not broadcast u1 onto u2
    monkeypatch.delenv("SBRL_LOG", raising=False)
    cfg = {
        "seed": 2,
        "system": {"builtin": "example2"},
        "law": {"linear_gain": {"K": [[-0.1, 0.0, 0.0]]}},
        "ensemble": {"horizon": 12, "count": 2, "x0": [1.0, 1.0, 0.5],
                     "disturbance": {"kind": "zero"}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: law returns 1 controls, plant expects 2"]
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


def test_simulate_divergence_partial_csv_exit_two(tmp_path):
    cfg = {
        "seed": 1,
        "system": {"linear": {"A": [[2.0]], "A0": [[0.0]], "B": [[0.0]],
                              "C": [[1.0]], "D": [[0.0]]}},
        "ensemble": {"horizon": 200, "count": 1, "x0": [1.0],
                     "disturbance": {"kind": "zero"}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "divergence at step" in report["status"]
    assert (tmp_path / "out" / "trajectory_000.csv").exists()


# ------------------------------------------------------------- CSV bytes

def reference_csv(header, rows):
    """The csv module's text for a header and rows, as ``csv.writer``
    with a newline terminator writes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue().encode()


def reference_trajectory_rows(traj):
    """The trajectory schema's rows, one ``repr(float(.))`` per cell."""
    K, n_v = traj.horizon, traj.disturbances.shape[1]
    n_u = 0 if traj.controls is None else traj.controls.shape[1]
    rows = []
    for k in range(K + 1):
        row = [k] + [repr(float(s)) for s in traj.states[k]]
        if k < K:
            cells = [*(traj.controls[k] if n_u else []), *traj.disturbances[k],
                     traj.z_sq[k], traj.v_sq[k], traj.cum_z_sq[k],
                     traj.cum_v_sq[k]]
            row += [repr(float(c)) for c in cells]
        else:
            row += [""] * (n_u + n_v + 4)
        rows.append(row)
    return rows


def csv_trajectories():
    """A closed-loop example 2 member (control columns), members that
    overflow to inf and to nan (0 * inf), and hand-set values whose repr
    takes the exponent form, with a -0.0."""
    law = library.example2_law()
    member = simulate_ensemble(
        closed_loop(library.example2_plant(), law), [1.0, 1.0, 0.5],
        library.example2_ensemble(), 40, 1, seed=7).member(0)
    member.controls = law(member.states[:-1])
    # x+ = x + v_1^2 v_2 with v_1 = 1e200 at step 2
    plant = GeneralSystem(1, 0, 2, F=lambda k, X, U, V, W:
                          X + V[..., :1] ** 2 * V[..., 1:],
                          m=lambda k, X, U, V: X,
                          noise=noise.point_mass_noise(0.0, 1))
    kicks = np.zeros((2, 5, 2))
    kicks[:, :3] = [[[0.3, 1.0], [0.0, 0.0], [1e200, v2]] for v2 in (1.0, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = rollout(plant, [0.5], kicks, [0, 0])
    assert diverged.diverged.all() and diverged.ends.tolist() == [3, 3]
    exponent = Trajectory(
        states=np.array([[1e-05, -0.0], [1e+16, 5e-324], [-2.5e-300, 1e300]]),
        outputs=np.array([[1e+16], [-0.0]]),
        disturbances=np.array([[1e-05], [-0.0]]),
        controls=None, z_sq=np.array([1e+32, 0.0]),
        v_sq=np.array([1e-10, 0.0]))
    return [member, diverged.member(0), diverged.member(1), exponent]


def test_trajectory_csv_bytes_match_the_csv_module(tmp_path):
    writer = cli.RunWriter(tmp_path, {})
    texts = []
    for i, traj in enumerate(csv_trajectories()):
        header, rows = trajectory_csv_rows(traj)
        writer.write_csv(f"trajectory_{i:03d}.csv", header, rows)
        text = (tmp_path / f"trajectory_{i:03d}.csv").read_bytes()
        assert text == reference_csv(header,
                                     reference_trajectory_rows(traj))
        # the tracer's emit.csv.rows: one row per data line
        assert len(rows) == text.count(b"\n") - 1 == traj.horizon + 1
        texts.append(text)
    assert b"u_1" in texts[0].splitlines()[0]
    assert texts[1].endswith(b"\n3,inf,,,,,,\n")
    assert texts[2].endswith(b"\n3,nan,,,,,,\n")
    for cell in (b"1e-05", b"1e+16", b"5e-324", b"-0.0", b"1e+32"):
        assert cell in texts[3]


def test_gain_ratios_csv_bytes_with_a_blank_ratio(tmp_path):
    # x+ = (0.5 + 2 w) x + v: some members pass the overflow bound, whose
    # ratio is None and whose cell is blank
    cfg = {
        "seed": 7,
        "system": {"linear": {"A": [[0.5]], "A0": [[2.0]], "B": [[1.0]],
                              "C": [[1.0]], "D": [[0.1]]}},
        "ensemble": {"horizon": 200, "count": 6, "gamma_sq": 1.0,
                     "disturbance": {"kind": "white", "std": 0.5}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 1
    out = tmp_path / "out"
    (report,) = json.loads((out / "gain_reports.json").read_text())
    ratios = report["ratios"]
    assert None in ratios and any(r is not None for r in ratios)
    rows = [["white", i, "" if r is None else repr(float(r))]
            for i, r in enumerate(ratios)]
    text = (out / "gain_ratios.csv").read_bytes()
    assert text == reference_csv(["disturbance", "trajectory",
                                  "energy_ratio"], rows)
    assert text.count(b"\n") - 1 == len(ratios)


def test_linear_brl_boundary_and_falsification(tmp_path):
    base = {
        "system": {"linear": {"A": [[0.5]], "A0": [[0.0]], "B": [[1.0]],
                              "C": [[0.5]], "D": [[0.0]]}},
        "storage": {"quadratic": {"P": [[0.5]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0, "gamma_sq": 2.0},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["certify", "--config", write_config(tmp_path, base)]) == 0
    rep = json.loads((tmp_path / "out" / "linear_brl.json").read_text())
    assert abs(rep["eq_gain_margin"]) <= 1e-12
    base["certificate"]["gamma_sq"] = 1.9
    base["output"]["dir"] = str(tmp_path / "out2")
    assert run(["certify", "--config",
                write_config(tmp_path, base, "b.json")]) == 1


@pytest.mark.parametrize("scheme,code,status", [
    ({"mode": "monte-carlo", "samples": 200}, 2, "inconclusive"),
    ({"mode": "closed-form"}, 0, "certified"),
])
def test_infinite_standard_error_does_not_certify(tmp_path, scheme, code,
                                                  status):
    # at |x| ~ 1e150 the squared deviations of the H1 samples overflow, so
    # the Monte Carlo SE is +inf: the error bar holds no value, where the
    # exact H1 = (0.6 - 0.99) x^2 certifies
    cfg = {
        "system": {"linear": {"A": [[0.5]], "A0": [[0.5]], "B": [[0.1]],
                              "C": [[0.1]], "D": [[0.1]]}},
        "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "external", "beta": 1.2, "gamma_sq": 1.0,
                        "domain": {"lo": [1e150], "hi": [2e150], "grid": 3},
                        "scheme": scheme},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == code
    cert, = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert cert["status"] == status
    if code:
        assert cert["witness"]["std_error"] == float("inf")
        assert cert["witness"]["margin"] < 0.0
        assert cert["witness"]["info"] == {"inequality": "H1"}
        assert cert["provenance"]["h1_worst"] is None


def test_linear_brl_search_via_cli(tmp_path):
    cfg = {
        "system": {"linear": {"A": [[0.5]], "A0": [[0.0]], "B": [[1.0]],
                              "C": [[0.5]], "D": [[0.0]]}},
        "certificate": {"kind": "linear-brl", "gamma_sq": 1e6},
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0


def test_example_one_summary(tmp_path):
    out = tmp_path / "ex1"
    assert run(["example", "1", "--out", str(out), "--seed", "3"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["gamma_star_sq"] - 0.08) < 1e-12
    assert summary["certificate_status"] == "certified"
    assert (out / "trajectory_000.csv").exists()
    assert (out / "energies.svg").exists()
    # total_s spans the whole command, search and external check included
    timings = json.loads((out / "report.json").read_text())["timings"]
    assert timings["total_s"] >= (timings["certify_s"] + timings["gain_s"]
                                  + timings["simulate_s"])


def test_example_two_summary(tmp_path):
    out = tmp_path / "ex2"
    assert run(["example", "2", "--out", str(out), "--seed", "3",
                "--format", "csv"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate_status"] == "certified"
    assert abs(summary["G_beta"] - 0.430998734648594) < 1e-10
    assert summary["G_beta"] <= 0.5625
    assert summary["gain_verdict"] == "consistent"
    assert (out / "trajectory_000.csv").exists()
    assert not (out / "states.svg").exists()  # csv-only run


def test_example_builds_the_system_and_the_law_once(tmp_path, monkeypatch):
    # certificate, gain and simulate share one system and one law, so the
    # construction probes run once per plant; a small example 2 config
    from sbrl import library
    counts = dict.fromkeys(["system_from_config", "law_from_config"], 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(library, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(library, name, counted)
    cfg = cli.load_config(Path(cli.__file__).with_name("example2.json"))
    cfg["certificate"]["scheme"] = {"mode": "monte-carlo", "samples": 200}
    cfg["certificate"]["domain"]["grid"] = 2
    cfg["ensemble"].update(count=3, horizon=20)
    resolved = cli.resolve_config(cfg, out_override=tmp_path)
    assert cli.cmd_example(resolved) in (0, 1, 2)
    assert (tmp_path / "summary.json").exists()
    assert counts == {"system_from_config": 1, "law_from_config": 1}


def test_example_two_builds_its_closed_loop_once(tmp_path, monkeypatch):
    # the controller certificate, the gain ensembles and the simulated
    # member all run on one loop; a small example 2 config
    from sbrl import synth
    calls = []

    def counted(*args, _fn=synth.closed_loop):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(synth, "closed_loop", counted)
    cfg = cli.load_config(Path(cli.__file__).with_name("example2.json"))
    cfg["certificate"]["domain"]["grid"] = 2
    cfg["ensemble"].update(count=3, horizon=20)
    resolved = cli.resolve_config(cfg, out_override=tmp_path)
    assert cli.cmd_example(resolved) == 0
    assert len(calls) == 1


def test_example_two_under_monte_carlo_agrees_with_closed_form(tmp_path):
    # example 2 ships in closed form; Monte Carlo stays a stated choice and
    # samples the same separable G_beta gram
    from sbrl import certify, library, synth
    cfg = cli.load_config(Path(cli.__file__).with_name("example2.json"))
    assert cfg["certificate"]["scheme"] == {"mode": "closed-form"}
    cfg["certificate"]["domain"]["grid"] = 3
    certs = {}
    for mode, scheme in (("mc", {"mode": "monte-carlo", "samples": 2000}),
                         ("cf", {"mode": "closed-form"})):
        cfg["certificate"]["scheme"] = scheme
        path = write_config(tmp_path, cfg, f"{mode}.json")
        assert run(["certify", "--config", path,
                    "--out", str(tmp_path / mode)]) == 0
        certs[mode], = json.loads(
            (tmp_path / mode / "certificates.json").read_text())
        assert certs[mode]["status"] == "certified"
    resolved = json.loads(
        (tmp_path / "mc" / "resolved_config.json").read_text())
    scheme = cli._scheme_from(resolved["certificate"], resolved["seed"])
    loop = synth.closed_loop(library.example2_plant(), library.example2_law())
    points = cli._domain(resolved["certificate"], loop).points()
    seeds = noise.point_seeds(scheme.seed, points)
    sup = max((certify.g_beta(library.example2_storage(), loop, x,
                              library.EXAMPLE2_BETA,
                              scheme.with_seed(int(seed)))
               for x, seed in zip(points, seeds)), key=lambda est: est.value)
    mc, cf = (certs[m]["provenance"]["g_beta_sup"] for m in ("mc", "cf"))
    assert mc == sup.value
    assert abs(mc - cf) <= 3.0 * sup.std_error


def test_certificate_without_scheme_is_closed_form(tmp_path):
    # separable {p: [4], d: [2]} is example 1's quadratic p = 4 storage; a
    # certificate that names no scheme resolves to closed form, whose
    # provenance holds the mode alone
    cfg = example1_external_config(tmp_path / "out", gamma_sq=0.1)
    cfg["storage"] = {"separable": {"p": [4.0], "d": [2]}}
    del cfg["certificate"]["scheme"]
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert resolved["certificate"]["scheme"] == {"mode": "closed-form"}
    cert, = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert cert["status"] == "certified"
    assert cert["provenance"]["scheme"] == {"mode": "closed-form"}
    assert cert["provenance"]["g_beta_sup"] == pytest.approx(0.08, rel=1e-12)


def test_scheme_less_power_six_storage_reaches_a_verdict(tmp_path):
    # closed form takes any even power: d = 6 on example 1's noisy gain is
    # G_beta = +inf, falsified, not a refusal of the power
    cfg = example1_external_config(tmp_path / "out", gamma_sq=0.1)
    cfg["storage"] = {"separable": {"p": [4.0], "d": [6]}}
    del cfg["certificate"]["scheme"]
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 1
    cert, = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert cert["status"] == "falsified"
    assert cert["provenance"]["g_beta_sup"] == float("inf")


def test_example_unknown_exit_two(tmp_path):
    assert run(["example", "3", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("which", ["1", "2"])
def test_example_replays_through_the_generic_commands(tmp_path, which):
    # the example is its resolved config run through certify, gain and
    # simulate: each command rerun on the emitted config gives its bytes
    out = tmp_path / "example"
    assert run(["example", which, "--out", str(out), "--seed", "3"]) == 0
    resolved = str(out / "resolved_config.json")
    for command, names in (("certify", ["certificates.json"]),
                           ("gain", ["gain_reports.json", "gain_ratios.csv"]),
                           ("simulate", ["trajectory_000.csv"])):
        replay = tmp_path / command
        assert run([command, "--config", resolved, "--out", str(replay)]) == 0
        for name in names:
            assert (replay / name).read_bytes() == (out / name).read_bytes(), name


def test_example_one_runs_gamma_star_and_two_disturbances(tmp_path):
    out = tmp_path / "ex1"
    assert run(["example", "1", "--out", str(out), "--seed", "3",
                "--format", "svg"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma_sq"] == summary["gamma_star_sq"] == summary["G_beta"]
    assert (summary["best_beta"], summary["best_p"]) == (1.0 / 0.99, 4.0)
    assert summary["gain_verdicts"] == {"decaying-sine": "consistent",
                                        "white": "consistent"}
    assert summary["gain_verdict"] == "consistent"
    cert, = json.loads((out / "certificates.json").read_text())
    assert cert["provenance"]["gamma_star"]["gamma_star_sq"] \
        == summary["gamma_star_sq"]
    assert "gamma_star" not in json.loads((out / "report.json").read_text())
    # svg only: no CSV, and no controls plot for a plant without controls
    names = {p.name for p in out.iterdir()}
    assert {"states.svg", "energies.svg"} <= names and "controls.svg" not in names
    assert not any(name.endswith(".csv") for name in names)


def gamma_star_config(out_dir):
    return {
        "seed": 2,
        "system": {"builtin": "example1"},
        "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "gamma-star", "p_grid": [3.0, 4.0],
                        "beta_grid": [1.0 / 0.99, 1.5],
                        "domain": {"lo": [-10.0], "hi": [10.0], "grid": 21},
                        "scheme": {"mode": "closed-form"}},
        "ensemble": {"horizon": 20, "count": 4,
                     "disturbance": [{"kind": "white", "std": 0.5},
                                     {"kind": "decaying-sine"}]},
        "output": {"dir": str(out_dir)},
    }


def test_gamma_star_candidates_scale_the_configured_storage(tmp_path):
    cfg = gamma_star_config(tmp_path / "a")
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    cfg["storage"] = {"quadratic": {"P": [[2.0]]}}
    cfg["certificate"]["p_grid"] = [1.5, 2.0]
    cfg["output"]["dir"] = str(tmp_path / "b")
    assert run(["certify", "--config", write_config(tmp_path, cfg, "b.json")]) == 0
    a, = json.loads((tmp_path / "a" / "certificates.json").read_text())
    b, = json.loads((tmp_path / "b" / "certificates.json").read_text())
    assert a["provenance"]["gamma_star"]["params"] == 4.0
    assert b["provenance"]["gamma_star"]["params"] == 2.0
    assert a["worst_margin"] == b["worst_margin"]


def test_gain_judges_each_listed_disturbance(tmp_path):
    cfg = gamma_star_config(tmp_path / "out")
    assert run(["gain", "--config", write_config(tmp_path, cfg)]) == 0
    reports = json.loads((tmp_path / "out" / "gain_reports.json").read_text())
    assert [r["ensemble_spec"]["kind"] for r in reports] == ["white",
                                                           "decaying-sine"]
    assert [r["seed"] for r in reports] == [reports[0]["seed"]] * 2
    rows = (tmp_path / "out" / "gain_ratios.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["white"] * 4 \
        + ["decaying-sine"] * 4


@pytest.mark.parametrize("name", ["kind-twice", "separable-storage",
                                  "infeasible-search"])
def test_gamma_star_and_disturbance_list_refusals_exit_two(tmp_path, capsys,
                                                          name):
    cfg = gamma_star_config(tmp_path / "out")
    command = "certify"
    if name == "kind-twice":
        command = "gain"
        cfg["ensemble"]["disturbance"].append({"kind": "white", "std": 1.0})
    elif name == "separable-storage":
        cfg["storage"] = {"separable": {"p": [1.0], "d": [2]}}
    else:
        cfg["certificate"]["beta_grid"] = [1.5]  # H1 fails everywhere
    assert run([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("beta_grid", [[0.5, 1.0], [0.5, 1.0 / 0.99]],
                         ids=["none-above-one", "one-above-one"])
def test_grid_beta_at_most_one_exits_two_naming_it(tmp_path, capsys,
                                                   beta_grid):
    # a grid beta of at most 1 is refused at load: neither skipped, so
    # that the search runs on the rest, nor read as an infeasible search
    cfg = gamma_star_config(tmp_path / "out")
    cfg["certificate"]["beta_grid"] = beta_grid
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "certificate.beta_grid[0]: must be > 1, got 0.5" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["certify", "--config", "CONFIG"],
                                  ["example", "1"]])
def test_negative_seed_override_exits_two_before_computing(tmp_path, capsys,
                                                          args):
    config = write_config(tmp_path, example1_external_config(tmp_path / "x"))
    out = tmp_path / "out"
    args = [config if a == "CONFIG" else a for a in args]
    assert run(args + ["--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config schema violations: seed: must be >= 0, got -1\n"
    assert not out.exists()


def test_form_keys_of_another_form_exit_two_before_computing(tmp_path, capsys):
    cfg = {"system": {"builtin": "example2", "params": {"a": 5.0}},
           "storage": {"quadratic": {"P": [[1.0]]}, "p": 9.0},
           "certificate": {"kind": "external", "beta": 1.5, "gamma": 0.5,
                           "gamma_sq": 4.0,
                           "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3}}}
    out = tmp_path / "out"
    assert run(["certify", "--config", write_config(tmp_path, cfg),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config schema violations: system: ")
    assert len(err.splitlines()) == 1
    assert "; storage: " in err and "; certificate: " in err
    assert not out.exists()


def test_package_data_ships_every_config_file():
    # an installed `sbrl example N` reads its config from the package
    import fnmatch
    import tomllib
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["sbrl"]
    names = [p.name for p in (root / "src" / "sbrl").glob("*.json")]
    assert {"config_schema.json", "example1.json", "example2.json"} <= set(names)
    assert [n for n in names if not any(fnmatch.fnmatch(n, g) for g in globs)] == []


def test_linear_brl_reports_g0_and_the_internal_test(tmp_path):
    # the item-4 plant at gamma^2 = 30: G0 = lambda_max(B'PB + D'D)
    cfg = {"system": {"linear": {"A": [[0.6, 0.2], [-0.1, 0.5]],
                                 "A0": [[0.1, 0.0], [0.0, 0.1]],
                                 "B": [[1.0], [0.5]], "C": [[1.0, 0.0]],
                                 "D": [[0.1]]}},
           "certificate": {"kind": "linear-brl", "gamma_sq": 30.0},
           "output": {"dir": str(tmp_path / "out")}}
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "linear_brl.json").read_text())
    P, B, D = np.array(rep["P"]), np.array([[1.0], [0.5]]), np.array([[0.1]])
    assert rep["g0"] == pytest.approx(np.linalg.eigvalsh(B.T @ P @ B + D.T @ D)[-1],
                                      rel=1e-12)
    assert rep["g0"] == pytest.approx(4.44503, abs=1e-5)
    assert rep["internal"]["status"] == "certified"
    assert rep["internal"]["margin"] == pytest.approx(-0.2015, abs=1e-4)
    # an unstable plant gives no P: neither is known
    cfg["system"]["linear"]["A"] = [[1.5, 0.0], [0.0, 0.5]]
    cfg["output"]["dir"] = str(tmp_path / "none")
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 2
    rep = json.loads((tmp_path / "none" / "linear_brl.json").read_text())
    assert rep["P"] is None and rep["g0"] is None and rep["internal"] is None


def test_top_level_noise_block_overrides_example1(tmp_path):
    cfg = example1_external_config(tmp_path / "out")
    cfg["noise"] = {"dim": 1, "components": ["rademacher"]}
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert resolved["noise"]["components"] == ["rademacher"]


def test_byte_determinism_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["example", "1", "--out", str(out_a), "--seed", "3"]) == 0
    assert run(["example", "1", "--out", str(out_b), "--seed", "3"]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name == "report.json":
            ra = json.loads((out_a / name).read_text())
            rb = json.loads((out_b / name).read_text())
            ra.pop("timings")
            rb.pop("timings")
            assert ra == rb
        else:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_certify_bytes_do_not_depend_on_point_blocks(tmp_path, monkeypatch):
    # a small sweep-mc: the default blocks of points against one point per
    # block, which is the per-point path, and against one point per block
    # in row chunks of at most 7 draws
    cfg = example1_external_config(tmp_path / "blocked", gamma_sq=0.1)
    cfg["certificate"]["scheme"] = {"mode": "monte-carlo", "samples": 200}
    path = write_config(tmp_path, cfg)
    assert run(["certify", "--config", path]) == 0
    for rows, out in ((1, "pointwise"), (7, "chunked")):
        monkeypatch.setattr(noise, "SWEEP_ROWS", rows)
        assert run(["certify", "--config", path,
                    "--out", str(tmp_path / out)]) == 0
        for name in ("certificates.json", "margins.json"):
            assert (tmp_path / "blocked" / name).read_bytes() \
                == (tmp_path / out / name).read_bytes()


def test_rerun_with_emitted_resolved_config_reproduces(tmp_path):
    cfg = write_config(tmp_path, example1_external_config(tmp_path / "out"))
    assert run(["certify", "--config", cfg]) == 0
    resolved = tmp_path / "out" / "resolved_config.json"
    assert run(["certify", "--config", str(resolved),
                "--out", str(tmp_path / "out2")]) == 0
    a = (tmp_path / "out" / "certificates.json").read_bytes()
    b = (tmp_path / "out2" / "certificates.json").read_bytes()
    assert a == b


INTERNAL_FAILURES = {
    "ragged-P": ("certify", {
        "system": {"linear": {"A": [[0.5]], "A0": [[0.0]], "B": [[1.0]],
                              "C": [[0.5]], "D": [[0.0]]}},
        "storage": {"quadratic": {"P": [[1.0], [1.0, 2.0]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0, "gamma_sq": 1.0},
    }),
}


@pytest.mark.parametrize("name", sorted(INTERNAL_FAILURES))
def test_internal_failure_exits_two_with_one_line(tmp_path, capsys,
                                                  monkeypatch, name):
    monkeypatch.delenv("SBRL_LOG", raising=False)
    command, cfg = INTERNAL_FAILURES[name]
    cfg = dict(cfg, output={"dir": str(tmp_path / "out")})
    assert run([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def run_process(args, log_level):
    """Run the CLI in a fresh interpreter, so stderr shows every warning."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SBRL_LOG=log_level,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "sbrl.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def blas_env(**given):
    """The environment of a fresh interpreter that imports sbrl from src,
    with none of the BLAS thread variables but those ``given``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(env, **given)


def run_python(code, env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads in /proc/self/task")
def test_cli_pins_blas_to_one_thread_before_numpy_loads():
    # an OpenBLAS worker per further core would spin idle after loading
    threads, pinned = run_python(
        "import json, os, sbrl.cli; print(json.dumps("
        "[len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS')]))", blas_env())
    assert (threads, pinned) == (1, "1")


def test_cli_keeps_the_callers_blas_thread_count():
    values = run_python(
        "import json, os, sbrl.cli; print(json.dumps({k: os.environ.get(k) "
        "for k in sbrl.cli.BLAS_THREAD_ENV}))", blas_env(OMP_NUM_THREADS="2"))
    assert values == dict.fromkeys(cli.BLAS_THREAD_ENV) | {"OMP_NUM_THREADS": "2"}


def test_importing_the_package_leaves_the_environment_alone():
    assert run_python(
        "import json, os; before = dict(os.environ); import sbrl; "
        "from sbrl import AffineSystem; "
        "print(json.dumps(dict(os.environ) == before))", blas_env())


def test_package_attributes_load_their_submodules():
    # the lazy exports still bind each submodule as an attribute on use
    assert run_python(
        "import json, sbrl; print(json.dumps([sbrl.certify.__name__, "
        "sbrl.dynamics.__name__, hasattr(sbrl, 'no_such_module')]))",
        blas_env()) == ["sbrl.certify", "sbrl.dynamics", False]


def test_cli_sets_nothing_once_numpy_has_loaded():
    # the pin cannot act on a loaded BLAS, so it leaves children alone
    assert run_python(
        "import json, os, numpy, sbrl.cli; print(json.dumps("
        "[os.environ.get(k) for k in sbrl.cli.BLAS_THREAD_ENV]))",
        blas_env()) == [None] * 5


def test_example_one_bytes_do_not_depend_on_blas_threads(tmp_path):
    outs = {}
    for name, env in (("pinned", blas_env()),
                      ("two", blas_env(OPENBLAS_NUM_THREADS="2"))):
        outs[name] = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "sbrl.cli", "example", "1",
             "--out", str(outs[name])],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    artifacts = {name: {p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "report.json"}
                 for name, out in outs.items()}
    assert len(artifacts["pinned"]) > 1
    assert artifacts["pinned"] == artifacts["two"]


def test_internal_failure_traceback_under_debug_log(tmp_path):
    command, cfg = INTERNAL_FAILURES["ragged-P"]
    cfg = dict(cfg, output={"dir": str(tmp_path / "out")})
    proc = run_process([command, "--config", write_config(tmp_path, cfg)],
                       "DEBUG")
    assert proc.returncode == 2
    assert "Traceback" in proc.stderr


def test_certify_overflow_box_is_inconclusive_without_warnings(tmp_path):
    cfg = example1_external_config(tmp_path / "out")
    cfg["certificate"]["domain"] = {"lo": [-1e200], "hi": [1e200], "grid": 5}
    proc = run_process(["certify", "--config", write_config(tmp_path, cfg)],
                       "WARNING")
    assert proc.returncode == 2
    assert proc.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "inconclusive"


def test_certify_nan_points_write_null_worst_value(tmp_path):
    # H1 overflows to NaN at +-1e200 and is finite only at 0, so no finite
    # maximum may stand for its worst value
    cfg = example1_external_config(tmp_path / "out")
    cfg["certificate"]["domain"] = {"lo": [-1e200], "hi": [1e200], "grid": 3}
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 2
    margins = json.loads((tmp_path / "out" / "margins.json").read_text())
    assert margins["h1_worst"] is None
    assert margins["g_beta_sup"] == pytest.approx(0.08, abs=1e-12)
    certs = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert certs[-1]["provenance"]["h1_worst"] is None


def test_certificate_records_the_configured_gamma_sq(tmp_path):
    # 0.11 is judged and written as given: sqrt(0.11) ** 2 would be
    # 0.10999999999999999
    cfg = example1_external_config(tmp_path / "out", gamma_sq=0.11)
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0
    certs = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert certs[-1]["provenance"]["gamma_sq"] == 0.11


def test_config_hash_matches_resolved_config(tmp_path):
    cfg = write_config(tmp_path, example1_external_config(tmp_path / "out"))
    assert run(["certify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert report["config_hash"] == cli.config_hash(resolved)


def test_internal_certificate_via_cli(tmp_path):
    cfg = {
        "seed": 1,
        "system": {"builtin": "example1"},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {
            "kind": "internal",
            "c2": 4.0,
            "domain": {"lo": [-10.0], "hi": [10.0], "grid": 101},
            "scheme": {"mode": "closed-form"},
        },
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0


def test_controller_certificate_via_cli(tmp_path):
    cfg = {
        "seed": 1,
        "system": {"builtin": "example2"},
        "storage": {"builtin": "example2"},
        "law": {"builtin": "example2"},
        "certificate": {
            "kind": "controller",
            "beta": (8.0 / 5.0) ** (1.0 / 3.0),
            "gamma": 0.75,
            "domain": {"lo": [-2.0, -2.0, -2.0], "hi": [2.0, 2.0, 2.0],
                       "grid": 3},
            "scheme": {"mode": "monte-carlo", "samples": 4000},
        },
        "output": {"dir": str(tmp_path / "out")},
    }
    assert run(["certify", "--config", write_config(tmp_path, cfg)]) == 0


def test_svg_output_deterministic(tmp_path):
    from sbrl.svg import line_plot
    xs = list(range(10))
    ys = list(np.sin(np.arange(10) / 3.0))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot(a, [("s", xs, ys)], title="t")
    line_plot(b, [("s", xs, ys)], title="t")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


# ------------------------------------------------- exit-code contract

SCALAR_LINEAR = {"A": [[0.5]], "A0": [[0.1]], "B": [[1.0]], "C": [[0.5]],
                 "D": [[0.0]]}
SMALL_CONFIGS = {
    "certify": {
        "seed": 1,
        "system": {"builtin": "example1"},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "external", "beta": 1.0 / 0.99, "gamma_sq": 0.1,
                        "domain": {"lo": [-2.0], "hi": [2.0], "grid": 5},
                        "scheme": {"mode": "closed-form"}},
    },
    "gain": {
        "seed": 1,
        "system": {"builtin": "example1"},
        "ensemble": {"horizon": 5, "count": 3, "gamma_sq": 0.1,
                     "disturbance": {"kind": "decaying-sine", "freqs": [0.3]}},
    },
    "simulate": {
        "seed": 1,
        "system": {"linear": SCALAR_LINEAR},
        "ensemble": {"horizon": 5, "count": 2, "x0": [1.0],
                     "disturbance": {"kind": "white", "std": 0.5}},
    },
    "linear-brl": {
        "system": {"linear": SCALAR_LINEAR},
        "storage": {"quadratic": {"P": [[0.5]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0, "gamma_sq": 2.0},
    },
    "linear-brl-search": {
        "system": {"linear": SCALAR_LINEAR},
        "certificate": {"kind": "linear-brl", "gamma_sq": 2.0},
    },
}
# the command each small config runs
SMALL_COMMANDS = {"certify": "certify", "gain": "gain", "simulate": "simulate",
                  "linear-brl": "certify", "linear-brl-search": "certify"}
DELETE = object()
# small enough that no mutated size can allocate much memory
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-3, 3)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def mutated(cfg, path, value):
    """``cfg`` with the node at ``path`` deleted or replaced by ``value``."""
    if not path:
        return {} if value is DELETE else value
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


# command, config (or its JSON text), a fragment of the one stderr line
REFUSED_CONFIGS = {
    "ensemble-gamma-only": (
        "gain", mutated(SMALL_CONFIGS["gain"], ("ensemble",),
                        {"gamma": 2.0, "disturbance": {"kind": "white"}}),
        "ensemble.gamma: not allowed"),
    "gamma-sq-nan": (
        "gain", mutated(SMALL_CONFIGS["gain"], ("ensemble", "gamma_sq"),
                        float("nan")), "NaN"),
    "gamma-sq-infinity": (
        "gain", mutated(SMALL_CONFIGS["gain"], ("ensemble", "gamma_sq"),
                        float("inf")), "Infinity"),
    "gamma-sq-minus-infinity": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("certificate", "gamma_sq"),
                           float("-inf")), "-Infinity"),
    "gamma-sq-overflowing-literal": (
        "certify", json.dumps(SMALL_CONFIGS["certify"]).replace(
            '"gamma_sq": 0.1', '"gamma_sq": 1e999'), "1e999"),
    "params-noise": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("system", "params"),
                           {"noise": 1}), "system.params.noise: not allowed"),
    # a misspelt key used to run on the defaults it meant to change
    "misspelt-domain-and-scheme-keys": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("certificate",), {
            "kind": "external", "beta": 1.0 / 0.99, "gamma_sq": 0.1,
            "domain": {"lo": [-10.0], "hi": [10.0], "gird": 3},
            "scheme": {"mode": "monte-carlo", "sampels": 50}}),
        "certificate.domain.gird: not allowed; "
        "certificate.scheme.sampels: not allowed"),
    # a key of another kind used to be ignored
    "gamma-star-gamma-sq": (
        "certify", dict(mutated(SMALL_CONFIGS["certify"], ("certificate",), {
            "kind": "gamma-star", "gamma_sq": 0.001, "p_grid": [4.0],
            "beta_grid": [1.0 / 0.99],
            "domain": {"lo": [-1.0], "hi": [1.0], "grid": 3}}),
            storage={"quadratic": {"P": [[1.0]]}}),
        "certificate.gamma_sq: not allowed"),
    # the removed spellings
    "linear-brl-search-flag": (
        "certify", mutated(SMALL_CONFIGS["linear-brl"], ("certificate", "search"),
                           True), "certificate.search: not allowed"),
    "linear-brl-certificate-P": (
        "certify", mutated(SMALL_CONFIGS["linear-brl"], ("certificate", "P"),
                           [[0.5]]), "certificate.P: not allowed"),
    "linear-noise": (
        "simulate", mutated(SMALL_CONFIGS["simulate"], ("system", "linear", "noise"),
                            {"components": ["rademacher"]}),
        "system.linear.noise: not allowed"),
    # a missing key used to end in a KeyError
    "internal-without-c2": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("certificate",), {
            "kind": "internal", "domain": {"lo": [-1.0], "hi": [1.0]}}),
        "certificate.c2: required"),
    "external-without-beta": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("certificate", "beta"),
                           DELETE), "certificate.beta: required"),
    "gamma-star-without-p-grid": (
        "certify", dict(mutated(SMALL_CONFIGS["certify"], ("certificate",), {
            "kind": "gamma-star", "beta_grid": [1.5],
            "domain": {"lo": [-1.0], "hi": [1.0]}}),
            storage={"quadratic": {"P": [[1.0]]}}),
        "certificate.p_grid: required"),
    "controller-without-law": (
        "certify", {"system": {"builtin": "example2"},
                    "storage": {"builtin": "example2"},
                    "certificate": {"kind": "controller", "beta": 1.2,
                                    "gamma": 0.75,
                                    "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3,
                                               "grid": 2}}},
        "law: required for certificate kind controller"),
    "gain-partial-certificate": (
        "gain", mutated(mutated(SMALL_CONFIGS["gain"], ("ensemble", "gamma_sq"),
                                DELETE),
                        ("certificate",), {"kind": "external", "gamma": 0.75}),
        "certificate.beta: required; certificate.domain: required"),
    "domain-axes": (
        "certify", mutated(SMALL_CONFIGS["certify"], ("certificate", "domain"),
                           {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "grid": 3}),
        "certificate.domain: 2 axes for a 1-state system"),
    # a storage of another size used to read some of the state, or crash:
    # a 1-state V certified this plant, unstable in x2, as internally stable
    "storage-size-internal": (
        "certify", {"system": {"linear": {
            "A": [[0.5, 0.0], [0.0, 1.5]], "A0": [[0.0, 0.0], [0.0, 0.0]],
            "B": [[1.0], [0.0]], "C": [[0.5, 0.0]], "D": [[0.0]]}},
            "storage": {"quadratic": {"P": [[1.0]]}},
            "certificate": {"kind": "internal", "c2": 2.0,
                            "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0],
                                       "grid": 3}}},
        "storage: dimension 1 for a 2-state system"),
    "storage-size-controller": (
        "certify", {"system": {"builtin": "example2"},
                    "storage": {"builtin": "example1"},
                    "law": {"builtin": "example2"},
                    "certificate": {"kind": "controller", "beta": 1.2,
                                    "gamma": 0.75,
                                    "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3,
                                               "grid": 2},
                                    "scheme": {"mode": "closed-form"}}},
        "storage: dimension 1 for a 3-state system"),
    "storage-size-separable": (
        "certify", dict(SMALL_CONFIGS["certify"], storage={
            "separable": {"p": [1.0, 1.0], "d": [2, 2]}}),
        "storage: dimension 2 for a 1-state system"),
    "storage-size-linear-brl": (
        "certify", mutated(SMALL_CONFIGS["linear-brl"], ("system", "linear"), {
            "A": [[0.5, 0.0], [0.0, 0.4]], "A0": [[0.0, 0.0], [0.0, 0.0]],
            "B": [[1.0], [0.0]], "C": [[0.5, 0.0]], "D": [[0.0]]}),
        "storage: dimension 1 for a 2-state system"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_CONFIGS))
def test_refused_config_exits_two_before_computing(tmp_path, capsys, name):
    command, cfg, fragment = REFUSED_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert fragment in err and "KeyError" not in err
    assert not (out / "report.json").exists()


@st.composite
def mutated_configs(draw, name):
    base = SMALL_CONFIGS[name]
    path = draw(st.sampled_from(list(node_paths(base))))
    return mutated(base, path, draw(st.just(DELETE) | SMALL_JSON))


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_config_exits_zero_one_or_two(name, data):
    # exit 1 means falsified/violated, so it must never come from a bad
    # config; every failure is one stderr line and never a traceback
    cfg = data.draw(mutated_configs(name))
    command = SMALL_COMMANDS[name]
    records = _Records()
    log = logging.getLogger("sbrl")
    log.addHandler(records)
    stderr = io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            out = Path(tmp) / "out"
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            report = out / "report.json"
            status = json.loads(report.read_text())["status"] \
                if report.exists() else None
    finally:
        log.removeHandler(records)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines() + [str(w.message) for w in caught] \
        + [r.getMessage() for r in records.records]
    assert len(lines) <= 1, lines
    if code == 1:
        assert status in ("falsified", "violated")


# ------------------------------------------------- routing: system x kind x law

ROUTED_SYSTEMS = {
    # system, storage, law and the certificate parameters of each kind
    "example1": ({"builtin": "example1"}, {"quadratic": {"P": [[4.0]]}},
                 {"linear_gain": {"K": [[-5.0]]}},
                 {"c2": 4.0, "beta": 1.0 / 0.99, "gamma_sq": 0.1,
                  "p_grid": [0.5, 1.0], "beta_grid": [1.0 / 0.99, 1.5]}),
    "example2": ({"builtin": "example2"}, {"builtin": "example2"},
                 {"builtin": "example2"},
                 {"c2": 0.1, "beta": library.EXAMPLE2_BETA, "gamma_sq": 0.5625,
                  "p_grid": [1.0], "beta_grid": [library.EXAMPLE2_BETA]}),
    # the simulate-white benchmark plant
    "linear": ({"linear": {"A": [[0.6, 0.2], [-0.1, 0.5]],
                           "A0": [[0.1, 0.0], [0.0, 0.1]],
                           "B": [[1.0], [0.5]], "C": [[1.0, 0.0]],
                           "D": [[0.1]]}},
               {"quadratic": {"P": [[10.0, 0.0], [0.0, 10.0]]}},
               {"linear_gain": {"K": [[-0.1, 0.0]]}},
               {"c2": 15.0, "beta": 1.5, "gamma_sq": 40.0, "p_grid": [1.0],
                "beta_grid": [1.5]}),
}
ROUTED_KINDS = {"internal": ("c2",), "external": ("beta", "gamma_sq"),
                "gamma-star": ("p_grid", "beta_grid"),
                "controller": ("beta", "gamma_sq"),
                # the exact bounded real lemma takes no domain or scheme
                "linear-brl": ("gamma_sq",)}
# (system, kind, with law) -> the exit code and status, or exit 2 and the
# config key its one stderr line names
ROUTES = {
    ("example1", "internal", False): (0, "certified"),
    ("example1", "external", False): (0, "certified"),
    ("example1", "gamma-star", False): (0, "certified"),
    ("example1", "controller", False): (2, "certificate.kind"),
    ("example1", "linear-brl", False): (2, "certificate.kind"),
    # a law on a system without control input is refused, whatever the kind
    **{(system, kind, True): (2, "law") for kind in ROUTED_KINDS
       for system in ("example1", "linear")},
    # a plant needs its law, whatever sampled kind; linear-brl refuses
    # every system but a linear one first
    **{("example2", kind, False): (2, "law") for kind in ROUTED_KINDS
       if kind != "linear-brl"},
    ("example2", "linear-brl", False): (2, "certificate.kind"),
    # the closed loop: the quartic coordinate breaks V <= 0.1 |x|^2
    ("example2", "internal", True): (1, "falsified"),
    ("example2", "external", True): (0, "certified"),
    ("example2", "gamma-star", True): (2, "storage.quadratic"),
    ("example2", "controller", True): (0, "certified"),
    ("example2", "linear-brl", True): (2, "certificate.kind"),
    ("linear", "internal", False): (0, "certified"),
    ("linear", "external", False): (0, "certified"),
    ("linear", "gamma-star", False): (0, "certified"),
    ("linear", "controller", False): (2, "certificate.kind"),
    ("linear", "linear-brl", False): (0, "certified"),
}


@pytest.mark.parametrize("with_law", [False, True], ids=["no-law", "law"])
@pytest.mark.parametrize("kind", sorted(ROUTED_KINDS))
@pytest.mark.parametrize("system", sorted(ROUTED_SYSTEMS))
def test_routing_table(tmp_path, system, kind, with_law):
    # every sampled kind runs on the loop that the law closes: each cell
    # runs to a verdict, or exits 2 with one line naming the config key
    spec, storage, law, params = ROUTED_SYSTEMS[system]
    n = {"example1": 1, "example2": 3, "linear": 2}[system]
    cert = {"kind": kind, **{k: params[k] for k in ROUTED_KINDS[kind]}}
    if kind != "linear-brl":
        cert.update(domain={"lo": [-2.0] * n, "hi": [2.0] * n, "grid": 3},
                    scheme={"mode": "closed-form"})
    cfg = {"seed": 7, "system": spec, "storage": storage, "certificate": cert}
    if with_law:
        cfg["law"] = law
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(["certify", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
    err = stderr.getvalue().splitlines()
    expected_code, expected = ROUTES[system, kind, with_law]
    assert code == expected_code
    if code == 2:
        assert len(err) == 1 and err[0].startswith(f"error: {expected}: ")
        assert not (tmp_path / "out" / "report.json").exists()
    else:
        assert err == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == expected


def test_a_boundary_growth_bound_names_its_boundary_point(tmp_path):
    # example 2's quartic x2 puts the largest V(x)/|x|^2 on the box
    # boundary, so the internal certificate that every row would pass is
    # inconclusive, and its witness is that boundary point
    cfg = {"seed": 7, "system": {"builtin": "example2"},
           "storage": {"builtin": "example2"}, "law": {"builtin": "example2"},
           "certificate": {"kind": "internal", "c2": 1.0,
                           "domain": {"lo": [-2.0] * 3, "hi": [2.0] * 3,
                                      "grid": 3}}}
    assert run(["certify", "--config", write_config(tmp_path, cfg),
                "--out", str(tmp_path / "out")]) == 2
    (cert,) = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert cert["status"] == "inconclusive" and cert["worst_margin"] == 0.0
    bound = cert["provenance"]["quad_bound"]
    assert bound["boundary_attained"] and bound["witness"] == [0.0, -2.0, 0.0]
    assert cert["witness"] == {
        "point": [0.0, -2.0, 0.0],
        "info": {"inequality": "growth", "boundary_max_ratio": bound["c2"]}}
