"""sbrl benchmark: the real CLI on four workloads, with a correctness gate.

Usage, from the repository root:

    python3 bench/run.py --workload example1 --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 25 --trace 0

Each workload is a closed loop with a single client: one ``sbrl`` process
at a time, the next started only after the previous one exited, so the
benchmark never runs more than one busy process.  The CLI runs from this
checkout's ``src/`` and receives the workload seed as ``--seed``; configs
are generated from the seed.  A run first times ``SETUP_PROBES`` fresh
set-ups (bench/setup_probe.py), then repeats the CLI until ``--seconds``
would be exceeded, at least once.

``--trace 0`` reports the end-to-end metrics, medians over the repeats:
``wall_s`` (spawn to exit), ``cpu_s`` (user+sys) and ``peak_rss_mb``, all
from ``os.wait4`` on that one child, and ``setup_s``.  ``--trace 1``
alternates untraced and traced repeats (bench/trace_cli.py) and reports the
per-layer metrics of bench/layers.py.  Every repeat passes the workload's
correctness gate or counts as failed; all artifacts except report.json must
be byte-identical across the repeats, and their sha256 is printed so two
commits can be compared byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(environment, per-repeat records, artifact digests) is written to
``.bench_run/<workload>/result.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120  # a hung child must not keep a run past 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# ------------------------------------------------------------- workloads

def _read_json(out, name):
    return json.loads((out / name).read_text(encoding="utf-8"))


def _example1_config(seed):
    # the built-in scalar benchmark's objects, as a config for the set-up
    # probe; `sbrl example 1` itself takes no config
    return {
        "seed": seed,
        "system": {"builtin": "example1",
                   "params": {"a": 0.99, "b": 0.01, "c": 0.2, "c1": 0.2}},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "external", "beta": 1.0 / 0.99,
                        "gamma_sq": 0.08,
                        "domain": {"lo": [-10.0], "hi": [10.0], "grid": 201},
                        "scheme": {"mode": "closed-form"}},
        "ensemble": {"horizon": 200, "count": 200,
                     "disturbance": {"kind": "decaying-sine", "decay": 0.98,
                                     "freqs": [0.3], "phases": [0.0],
                                     "amp_range": [0.5, 1.5]}},
        "output": {"formats": ["csv", "svg"]},
    }


def _example2_config(seed):
    # the built-in three-state benchmark's objects, for the set-up probe
    return {
        "seed": seed,
        "system": {"builtin": "example2"},
        "storage": {"builtin": "example2"},
        "law": {"builtin": "example2"},
        "certificate": {"kind": "controller", "beta": (8.0 / 5.0) ** (1.0 / 3.0),
                        "gamma": 0.75,
                        "domain": {"lo": [-2.0] * 3, "hi": [2.0] * 3,
                                   "grid": 7},
                        "scheme": {"mode": "monte-carlo", "samples": 100_000}},
        "ensemble": {"horizon": 300, "count": 200, "x0": [1.0, 1.0, 0.5],
                     "disturbance": {"kind": "decaying-sine", "decay": 0.98,
                                     "freqs": [0.3, 0.37],
                                     "phases": [0.0, 0.9],
                                     "amp_range": [0.5, 1.5]}},
        "output": {"formats": ["csv", "svg"]},
    }


def _sweep_mc_config(seed):
    # external check of the scalar benchmark with quadratic storage (p = 4)
    # and many points x few Monte Carlo draws.  gamma_sq is 0.1, not the
    # tight 0.08: at 0.08 the margins near |x| ~ 9.6 are correctly
    # inconclusive, which exits 2 like an error would.
    return {
        "seed": seed,
        "system": {"builtin": "example1"},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "external", "beta": 1.0 / 0.99,
                        "gamma_sq": 0.1,
                        "domain": {"lo": [-10.0], "hi": [10.0], "grid": 8001},
                        "scheme": {"mode": "monte-carlo", "samples": 2000}},
        "output": {"formats": ["csv"]},
    }


SIM_COUNT, SIM_HORIZON = 20, 2000


def _simulate_white_config(seed):
    return {
        "seed": seed,
        "system": {"linear": {"A": [[0.6, 0.2], [-0.1, 0.5]],
                              "A0": [[0.1, 0.0], [0.0, 0.1]],
                              "B": [[1.0], [0.5]], "C": [[1.0, 0.0]],
                              "D": [[0.1]]}},
        "ensemble": {"horizon": SIM_HORIZON, "count": SIM_COUNT,
                     "x0": [1.0, -1.0],
                     "disturbance": {"kind": "white", "std": 0.5}},
        "output": {"formats": ["csv"]},
    }


def _check_example1(out):
    s = _read_json(out, "summary.json")
    problems = []
    if not math.isclose(s["gamma_star_sq"], 0.08, rel_tol=1e-9, abs_tol=0.0):
        problems.append(f"gamma_star_sq {s['gamma_star_sq']!r} != 0.08")
    if s["certificate_status"] != "certified":
        problems.append(f"certificate {s['certificate_status']}")
    if sorted(s["gain_verdicts"].values()) != ["consistent", "consistent"]:
        problems.append(f"gain verdicts {s['gain_verdicts']}")
    return problems


def _check_example2(out):
    s = _read_json(out, "summary.json")
    problems = []
    if s["certificate_status"] != "certified":
        problems.append(f"certificate {s['certificate_status']}")
    if s["gain_verdict"] != "consistent":
        problems.append(f"gain verdict {s['gain_verdict']}")
    return problems


def _check_sweep_mc(out):
    certs = _read_json(out, "certificates.json")
    statuses = [c["status"] for c in certs]
    return [] if statuses == ["certified"] else [f"certificates {statuses}"]


def _check_simulate_white(out):
    files = sorted(out.glob("trajectory_*.csv"))
    problems = []
    if [f.name for f in files] != [f"trajectory_{i:03d}.csv"
                                   for i in range(SIM_COUNT)]:
        problems.append(f"{len(files)} trajectory CSVs, expected {SIM_COUNT}")
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != SIM_HORIZON + 1:
            problems.append(f"{f.name}: {rows} data rows")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # CLI words before the common flags
    config: object          # seed -> config dict
    check: object           # output dir -> list of problems
    takes_config: bool      # whether the CLI reads the generated config


WORKLOADS = {w.name: w for w in [
    Workload("example1", ("example", "1"), _example1_config,
             _check_example1, False),
    Workload("example2", ("example", "2"), _example2_config,
             _check_example2, False),
    Workload("sweep-mc", ("certify",), _sweep_mc_config,
             _check_sweep_mc, True),
    Workload("simulate-white", ("simulate",), _simulate_white_config,
             _check_simulate_white, True),
]}


# ------------------------------------------------------------- processes

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv, env, log_path):
    """Run one child to completion and return its own resource usage.

    ``os.wait4`` gives the rusage of exactly this child; RUSAGE_CHILDREN
    would report the maximum RSS over every child ever waited for.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def artifact_digests(out):
    """sha256 of every artifact except report.json, which holds timings."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "report.json"}


def combined_digest(digests):
    lines = "".join(f"{h}  {name}\n" for name, h in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


# ----------------------------------------------------------- environment

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _cpu():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    return model or platform.processor() or None, caches


def environment(seed, probe):
    model, caches = _cpu()
    return {
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# ------------------------------------------------------------- measuring

def run_workload(wl, seed, seconds, trace):
    wdir = WORK / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    config = wdir / "config.json"
    config.write_text(json.dumps(wl.config(seed), indent=2) + "\n",
                      encoding="utf-8")
    env = child_env()
    start = time.perf_counter()

    def probe(i):
        log = wdir / f"setup{i}.log"
        child = spawn([sys.executable, str(BENCH / "setup_probe.py"),
                       str(config), str(seed)], env, log)
        if child.exit_code != 0:
            raise RuntimeError(f"set-up probe failed, see {log}")
        info = json.loads(log.read_text().splitlines()[-1])
        info["wall_s"] = child.wall_s
        return info

    probe("-warmup")  # compiles bytecode and warms the file cache, untimed
    probes = [probe(i) for i in range(SETUP_PROBES)]

    runs = []
    modes = (False, True) if trace else (False,)
    while True:
        t_round = time.perf_counter()
        for traced in modes:
            runs.append(run_once(wl, seed, config, env, wdir, len(runs),
                                 traced))
        round_s = time.perf_counter() - t_round
        if time.perf_counter() - start + round_s > seconds:
            break

    reference = next((r["artifacts"] for r in runs if not r["problems"]), None)
    for r in runs:
        if reference is not None and not r["problems"] \
                and r["artifacts"] != reference:
            differ = sorted(k for k in set(r["artifacts"]) | set(reference)
                            if r["artifacts"].get(k) != reference.get(k))
            r["problems"].append(f"artifacts differ between repeats: {differ}")

    plain = [r for r in runs if not r["traced"]]
    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    per_layer = None
    if trace:
        traced = [r for r in runs if r["traced"]]
        per_layer = layers.median_metrics(
            [r["layers"] for r in traced if "layers" in r]
            or [layers.span_metrics(layers.NO_SPANS)])
        for phase in ("import_s", "config_s", "build_s"):
            per_layer[f"setup.{phase}"] = statistics.median(
                p[phase] for p in probes)
        per_layer["trace.overhead_frac"] = statistics.median(
            r["wall_s"] for r in traced) / e2e["wall_s"] - 1.0
    failed = sum(1 for r in runs if r["problems"])
    return {
        "workload": wl.name,
        "environment": environment(seed, probes[0]),
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "setup_probes": probes,
        "runs": runs,
        "artifacts": reference or {},
        "artifacts_sha256": combined_digest(reference or {}),
        "end_to_end": e2e,
        "per_layer": per_layer,
    }


def run_once(wl, seed, config, env, wdir, index, traced):
    out = wdir / f"rep{index:03d}"
    args = list(wl.command) + ["--seed", str(seed), "--out", str(out)]
    if wl.takes_config:
        args[1:1] = ["--config", str(config)]
    spans = wdir / f"spans{index:03d}.json"
    if traced:
        argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans),
                f"{wl.name}/seed{seed}/rep{index}", "--"] + args
    else:
        argv = [sys.executable, "-m", "sbrl.cli"] + args
    child = spawn(argv, env, wdir / f"rep{index:03d}.log")
    record = {"index": index, "traced": traced, "wall_s": child.wall_s,
              "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb,
              "exit_code": child.exit_code, "problems": [], "artifacts": {}}
    if child.exit_code != 0:
        record["problems"].append(f"exit code {child.exit_code}")
    else:
        try:
            record["problems"] += wl.check(out)
            record["artifacts"] = artifact_digests(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["problems"].append(f"unreadable artifacts: {exc!r}")
    if traced and spans.is_file():
        record["layers"] = layers.span_metrics(
            json.loads(spans.read_text(encoding="utf-8")))
        spans.unlink()
    elif traced:
        record["problems"].append("traced run wrote no spans")
    shutil.rmtree(out, ignore_errors=True)
    return record


# ------------------------------------------------------------- reporting

def print_summary(res, trace):
    n = res["attempted"]
    print(f"workload {res['workload']}: {n} runs, {res['failed']} failed")
    metrics = res["per_layer"] if trace else res["end_to_end"]
    units = layers.UNITS if trace else E2E_UNITS
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':42s} {res['error_rate']:14.6g} "
          f"({res['failed']}/{n} runs failed the gate)")
    for r in res["runs"]:
        for p in r["problems"]:
            print(f"  run {r['index']}: {p}", file=sys.stderr)
    print(f"artifacts {res['workload']} sha256 {res['artifacts_sha256']} "
          f"({len(res['artifacts'])} files)")
    for name, digest in res["artifacts"].items():
        print(f"  {digest}  {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sbrl" / "cli.py").is_file():
        print(f"error: no sbrl sources at {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace))
        (WORK / name / "result.json").write_text(
            json.dumps(res, indent=2) + "\n", encoding="utf-8")
        if not results:
            print("environment " + json.dumps(res["environment"]))
        print_summary(res, bool(args.trace))
        results.append(res)

    units = layers.UNITS if args.trace else E2E_UNITS
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for k, v in (res["per_layer"] if args.trace
                     else res["end_to_end"]).items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
