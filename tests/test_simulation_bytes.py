"""The bytes a rollout writes, pinned through ``cli.main``.

Each run is a small ``gain`` or ``simulate`` config; the test compares one
sha256 over the names and bytes of every ``gain_ratios.csv``,
``gain_reports.json`` and trajectory CSV it writes with ``DIGESTS``.  A
change to how members are drawn, stepped or summed that moves a bit of a
disturbance, a state or an energy fails here, where the benchmark's
artifact digests would be the only other check.
"""

import hashlib
import json

import pytest

from sbrl import cli

EXAMPLE1 = {"builtin": "example1"}
BOTH_ENSEMBLES = [{"kind": "decaying-sine"}, {"kind": "white", "std": 0.5}]
# x+ = 1.5 x from x0 = 1 passes the overflow bound 1e12 at step 69
DIVERGING = {"linear": {"A": [[1.5]], "A0": [[0.0]], "B": [[1.0]],
                        "C": [[1.0]], "D": [[0.0]]}}

# name -> (command, system, law, ensemble block, exit code)
RUNS = {
    "example1-gain": ("gain", EXAMPLE1, None,
                      {"horizon": 50, "count": 8, "gamma_sq": 0.08,
                       "disturbance": BOTH_ENSEMBLES}, 0),
    "example1-simulate-decaying-sine": (
        "simulate", EXAMPLE1, None,
        {"horizon": 50, "count": 8, "x0": [0.5],
         "disturbance": BOTH_ENSEMBLES[0]}, 0),
    "example1-simulate-white": (
        "simulate", EXAMPLE1, None,
        {"horizon": 50, "count": 8, "x0": [0.5],
         "disturbance": BOTH_ENSEMBLES[1]}, 0),
    "example2-gain": ("gain", {"builtin": "example2"}, {"builtin": "example2"},
                      {"horizon": 40, "count": 2, "gamma_sq": 0.5625,
                       "disturbance": {"kind": "decaying-sine"}}, 0),
    "example2-simulate": ("simulate", {"builtin": "example2"},
                          {"builtin": "example2"},
                          {"horizon": 40, "count": 2, "x0": [1.0, 1.0, 0.5],
                           "disturbance": {"kind": "decaying-sine"}}, 0),
    "linear-diverging": ("simulate", DIVERGING, None,
                         {"horizon": 100, "count": 3, "x0": [1.0],
                          "disturbance": {"kind": "zero"}}, 2),
}

DIGESTS = {
    "example1-gain":
        "3a7ef879d9d3ed34a3ff5d72eec2d1a5efc09d99e5e99c7d162ef532ed595775",
    "example1-simulate-decaying-sine":
        "705e540b92f0bed88fe056a8eac8aec31a37b92e29bd2e55c2a438cae425edc3",
    "example1-simulate-white":
        "3e4fbe5271e17ff6f9031677c6812d6b8419cab306641fae3d691861ec3d4a5c",
    "example2-gain":
        "c1e1cbbce2a3039f1ef2c45ef0043cf8a3385f3351e89dc66ce8f803345c584b",
    "example2-simulate":
        "e19ffafe9a4f987fcae1ecae131b97c69859020de423a649a435886b1af25e2e",
    "linear-diverging":
        "71ac1ed254aeb5334eaacdf37f1e27e9212c30682a1c48cdefe1e4ea76e98893",
}


def run_digest(tmp_path, name):
    """The run's exit code, its pinned files and their one digest."""
    command, system, law, ensemble, _ = RUNS[name]
    cfg = {"seed": 7, "system": system, "ensemble": ensemble,
           "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]}}
    if law is not None:
        cfg["law"] = law
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path)])
    out = tmp_path / "out"
    files = sorted(p.name for p in out.iterdir()
                   if p.name in ("gain_ratios.csv", "gain_reports.json")
                   or p.name.startswith("trajectory_"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0" + (out / f).read_bytes())
    return code, files, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rollout_artifacts_keep_their_bytes(tmp_path, name):
    code, _, digest = run_digest(tmp_path, name)
    assert code == RUNS[name][4]
    assert digest == DIGESTS[name]


def test_a_diverged_member_ends_the_simulation(tmp_path):
    # the first member diverges, so it is the one CSV: 69 steps and the
    # overflowed state after the header
    code, files, _ = run_digest(tmp_path, "linear-diverging")
    assert code == 2 and files == ["trajectory_000.csv"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "divergence at step 69"
    text = (tmp_path / "out" / "trajectory_000.csv").read_text()
    assert len(text.splitlines()) == 71
