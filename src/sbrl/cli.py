"""Command-line front end: config parsing, orchestration, report emission.

Commands:
  certify     run the configured certificate check
  gain        empirical l2-gain ensemble against a claimed gamma^2
  simulate    write trajectory CSVs for the configured ensemble
  example     one-command reproduction of the two built-in benchmarks
  linear-brl  algebraic bounded-real verification / constructive search

Exit codes: 0 certified/consistent, 1 falsified/violated, 2 inconclusive
or error.  All result artifacts are byte-reproducible for a fixed resolved
config and seed; wall-clock timings live only in report.json.  Set
SBRL_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

import argparse
import csv
import functools
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, certify, library, synth
from .dynamics import simulate, simulate_ensemble, trajectory_csv_rows
from .errors import ConfigurationError, DivergenceError, ToolkitError
from .noise import ExpectationScheme, derive_seed
from .storage import DomainBox, check_convex
from .svg import line_plot

log = logging.getLogger("sbrl")

EXIT_CERTIFIED = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2

_STATUS_EXIT = {
    "certified": EXIT_CERTIFIED,
    "consistent": EXIT_CERTIFIED,
    "falsified": EXIT_FALSIFIED,
    "violated": EXIT_FALSIFIED,
}


def status_exit_code(status):
    return _STATUS_EXIT.get(status, EXIT_INCONCLUSIVE)


def _setup_logging():
    level = os.environ.get("SBRL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------- config

@functools.cache
def _schema():
    """config_schema.json, the one statement of the config format."""
    path = Path(__file__).with_name("config_schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# draft-07: a boolean is not a number, and an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: _TYPES["number"](v) and (isinstance(v, int) or v.is_integer()),
}


def _violations(schema, value, path=""):
    """Violations of ``value`` against a draft-07 subschema, as 'path: msg'.

    Interprets the keywords config_schema.json uses; the rest annotate,
    but a failed ``oneOf`` quotes the ``description`` beside it.  A node
    reports its ``oneOf`` only when its other keywords hold, so one fault
    names one path.
    """
    where = path or "<root>"
    if isinstance(schema, bool):
        return [] if schema else [f"{where}: not allowed"]
    if "$ref" in schema:  # draft-07 ignores the keywords beside $ref
        node = _schema()
        for part in schema["$ref"].removeprefix("#/").split("/"):
            node = node[part]
        return _violations(node, value, path)
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return [f"{where}: must be of type {kind}"]
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: expected one of {schema['enum']}, got {value!r}")
    if "const" in schema and value != schema["const"]:
        errors.append(f"{where}: expected {schema['const']!r}, got {value!r}")
    if isinstance(value, dict):
        child = (path + ".").lstrip(".")
        errors += [f"{child}{key}: required"
                   for key in schema.get("required", ()) if key not in value]
        props = schema.get("properties", {})
        for key, item in value.items():
            sub = props.get(key, schema.get("additionalProperties", True))
            name = key if key.isprintable() else repr(key)  # keep one line
            errors += _violations(sub, item, child + name)
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where}: needs at least {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            errors.append(f"{where}: allows at most {schema['maxItems']} items")
        for i, item in enumerate(value):
            errors += _violations(schema.get("items", True), item, f"{where}[{i}]")
    if _TYPES["number"](value):
        if value < schema.get("minimum", value):
            errors.append(f"{where}: must be >= {schema['minimum']}, got {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(
                f"{where}: must be > {schema['exclusiveMinimum']}, got {value!r}")
    if "oneOf" in schema and not errors:
        matched = sum(not _violations(alt, value, path) for alt in schema["oneOf"])
        if matched != 1:
            expected = schema.get("description", "exactly one alternative")
            errors.append(f"{where}: expected {expected}, matched {matched}")
    return errors


def validate_config(cfg):
    """Check a parsed config against config_schema.json.

    Returns a list of 'field.path: message' strings; empty means valid.
    Semantic validation (dimensions, definiteness, ...) happens in the
    builders.
    """
    return _violations(_schema(), cfg)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    errors = validate_config(cfg)
    if errors:
        raise ConfigurationError("config schema violations: " + "; ".join(errors))
    return cfg


def resolve_config(cfg, seed_override=None, out_override=None):
    """Fill defaults so the emitted config reproduces the run exactly."""
    resolved = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    resolved.setdefault("seed", 0)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    out = resolved.setdefault("output", {})
    out.setdefault("dir", ".")
    if out_override is not None:
        out["dir"] = str(out_override)
    out.setdefault("formats", ["csv", "svg"])
    cert = resolved.get("certificate")
    if cert is not None:
        scheme = cert.setdefault("scheme", {})
        scheme.setdefault("mode", ExpectationScheme.mode)
        if scheme["mode"] == "monte-carlo":
            scheme.setdefault("samples", ExpectationScheme.samples)
            scheme.setdefault("antithetic", ExpectationScheme.antithetic)
    ens = resolved.get("ensemble")
    if ens is not None:
        ens.setdefault("horizon", 200)
        ens.setdefault("count", 200)
        ens.setdefault("disturbance", {"kind": "decaying-sine"})
    return resolved


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(resolved):
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


def _scheme_from(cert_block, seed):
    """The ExpectationScheme of a certificate block; absent keys default."""
    block = cert_block.get("scheme", {})
    given = {key: cast(block[key]) for key, cast in
             (("mode", str), ("samples", int), ("antithetic", bool))
             if key in block}
    return ExpectationScheme(seed=derive_seed(seed, 0x5C0), **given)


def _gamma_sq_from(block):
    if "gamma_sq" in block:
        return float(block["gamma_sq"])
    if "gamma" in block:
        return float(block["gamma"]) ** 2
    raise ConfigurationError("certificate: needs 'gamma' or 'gamma_sq'")


# ---------------------------------------------------------------- emission

class RunWriter:
    """Collects result artifacts and writes the run report."""

    def __init__(self, out_dir, resolved, started=None):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        # the emitted config describes the experiment, not its placement:
        # output.dir is an invocation detail and would break byte identity
        self.resolved = json.loads(json.dumps(resolved))
        self.resolved.get("output", {}).pop("dir", None)
        self.files = []
        self.certificates = []
        self.gain_reports = []
        self.timings = {}
        self.extra = {}
        # total_s spans the command from ``started`` when it began earlier
        self._t0 = time.perf_counter() if started is None else started
        self.write_json("resolved_config.json", self.resolved)

    def path(self, name):
        return self.out / name

    def write_json(self, name, obj):
        data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        with open(self.out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        if name not in self.files:
            self.files.append(name)

    def write_csv(self, name, header, rows):
        with open(self.out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self.files.append(name)

    def add_certificate(self, cert):
        self.certificates.append(cert.to_dict())

    def add_gain_report(self, report):
        self.gain_reports.append(report.to_dict())

    def finish(self, status):
        self.timings["total_s"] = time.perf_counter() - self._t0
        if self.certificates:
            self.write_json("certificates.json", self.certificates)
        if self.gain_reports:
            self.write_json("gain_reports.json", self.gain_reports)
        report = {
            "toolkit_version": __version__,
            "config_hash": config_hash(self.resolved),
            "status": status,
            "certificates": self.certificates,
            "gain_reports": self.gain_reports,
            "files": sorted(self.files),
            "timings": self.timings,
        }
        report.update(self.extra)
        self.write_json("report.json", report)
        return report


def _domain_from(cert_block):
    if "domain" in cert_block:
        return DomainBox.from_spec(cert_block["domain"])
    raise ConfigurationError("certificate.domain: required")


def _resolved_system(resolved):
    if "system" not in resolved:
        raise ConfigurationError("system: required")
    noise = None
    if "noise" in resolved:
        noise = library.noise_from_config(resolved["noise"])
    return library.system_from_config(resolved["system"], noise=noise)


def _maybe_close_loop(system, tier, resolved):
    if tier != "controlled":
        return system, None
    if "law" not in resolved:
        raise ConfigurationError("law: required for a controlled system")
    law = library.law_from_config(resolved["law"])
    return synth.closed_loop(system, law), law


# ---------------------------------------------------------------- commands

def cmd_certify(resolved):
    writer = RunWriter(resolved["output"]["dir"], resolved)
    seed = resolved["seed"]
    cert_block = resolved.get("certificate")
    if cert_block is None:
        raise ConfigurationError("certificate: required for 'certify'")
    kind = cert_block["kind"]
    scheme = _scheme_from(cert_block, seed)
    t0 = time.perf_counter()

    if kind == "linear-brl":
        system, tier = _resolved_system(resolved)
        if tier != "linear":
            raise ConfigurationError("certificate.kind linear-brl needs a linear system")
        report, status = _run_linear_brl(system, cert_block, resolved, writer)
        writer.timings["certify_s"] = time.perf_counter() - t0
        writer.finish(status)
        return status_exit_code(status)

    system, tier = _resolved_system(resolved)
    storage = library.storage_from_config(resolved["storage"])
    domain = _domain_from(cert_block)

    if kind == "internal":
        cert = certify.check_internal(
            system, storage, float(cert_block["c2"]), domain, scheme)
    elif kind == "external":
        if not storage.claims_convex:
            conv = check_convex(storage, domain, pairs=256,
                                seed=derive_seed(seed, 0xC0), noise_slack="auto")
            writer.add_certificate(conv)
            if conv.certified:
                storage.claims_convex = True
        system, _ = _maybe_close_loop(system, tier, resolved)
        cert = certify.check_external(
            system, storage, float(cert_block["beta"]),
            _gamma_sq_from(cert_block), domain, scheme)
    elif kind == "controller":
        if tier != "controlled":
            raise ConfigurationError("certificate.kind controller needs a controlled system")
        law = library.law_from_config(resolved["law"])
        cert = synth.certify_controller(
            system, law, storage, float(cert_block["beta"]),
            _gamma_sq_from(cert_block), domain, scheme)
    else:
        raise ConfigurationError(f"certificate.kind: unhandled kind {kind!r}")

    writer.add_certificate(cert)
    writer.timings["certify_s"] = time.perf_counter() - t0
    margins = {"worst_margin": cert.worst_margin,
               "g_beta_sup": cert.provenance.get("g_beta_sup"),
               "h1_worst": cert.provenance.get("h1_worst")}
    writer.write_json("margins.json", margins)
    writer.finish(cert.status)
    log.info("certificate %s: %s", kind, cert.status)
    return status_exit_code(cert.status)


def _run_linear_brl(linsys, cert_block, resolved, writer):
    gamma_sq = _gamma_sq_from(cert_block)
    if cert_block.get("search", False) or "beta" not in cert_block:
        rep = certify.linear_brl_search(
            linsys, gamma_sq, beta_grid=cert_block.get("beta_grid"))
    else:
        if "P" in cert_block:
            P = np.asarray(cert_block["P"], dtype=float)
        elif "storage" in resolved and "quadratic" in resolved["storage"]:
            P = np.asarray(resolved["storage"]["quadratic"]["P"], dtype=float)
        else:
            raise ConfigurationError(
                "certificate.P: required for linear-brl verification")
        rep = certify.linear_brl(linsys, P, float(cert_block["beta"]), gamma_sq)
    writer.write_json("linear_brl.json", rep.to_dict())
    return rep, rep.status


def cmd_gain(resolved):
    writer = RunWriter(resolved["output"]["dir"], resolved)
    seed = resolved["seed"]
    ens_block = resolved.get("ensemble")
    if ens_block is None:
        raise ConfigurationError("ensemble: required for 'gain'")
    gamma_sq = _gamma_sq_from(
        ens_block if ("gamma_sq" in ens_block or "gamma" in ens_block)
        else resolved.get("certificate", {}))
    system, tier = _resolved_system(resolved)
    system, _ = _maybe_close_loop(system, tier, resolved)
    ensemble = library.ensemble_from_config(ens_block["disturbance"], system.n_v)
    t0 = time.perf_counter()
    report = certify.empirical_gain(
        system, ensemble, int(ens_block["horizon"]), int(ens_block["count"]),
        gamma_sq, derive_seed(seed, 0x9A1))
    writer.timings["gain_s"] = time.perf_counter() - t0
    writer.add_gain_report(report)
    rows = [[i, "" if r is None else repr(float(r))]
            for i, r in enumerate(report.ratios)]
    writer.write_csv("gain_ratios.csv", ["trajectory", "energy_ratio"], rows)
    writer.finish(report.verdict)
    log.info("empirical gain verdict: %s (mean ratio %.6g)",
             report.verdict, report.mean_energy_ratio)
    return status_exit_code(report.verdict)


def cmd_simulate(resolved):
    writer = RunWriter(resolved["output"]["dir"], resolved)
    seed = resolved["seed"]
    ens_block = resolved.get("ensemble")
    if ens_block is None:
        raise ConfigurationError("ensemble: required for 'simulate'")
    system, tier = _resolved_system(resolved)
    policy_u = None
    if tier == "controlled" and "law" in resolved:
        policy_u = library.law_from_config(resolved["law"])
    x0 = np.asarray(ens_block.get("x0", [0.0] * system.n), dtype=float)
    ensemble = library.ensemble_from_config(ens_block["disturbance"], system.n_v)
    status = "consistent"
    t0 = time.perf_counter()
    results = simulate_ensemble(system, x0, ensemble, int(ens_block["horizon"]),
                                int(ens_block["count"]), seed, policy_u=policy_u)
    for i, traj in enumerate(results):
        results[i] = None  # each member is released once its CSV is written
        if isinstance(traj, DivergenceError):
            status = f"divergence at step {traj.step}"
            log.warning("trajectory %d diverged at step %d", i, traj.step)
            traj = traj.trajectory
        header, rows = trajectory_csv_rows(traj)
        writer.write_csv(f"trajectory_{i:03d}.csv", header, rows)
        del traj, rows
        if status != "consistent":
            break
    writer.timings["simulate_s"] = time.perf_counter() - t0
    writer.finish(status)
    return EXIT_CERTIFIED if status == "consistent" else EXIT_INCONCLUSIVE


# ------------------------------------------------------------- examples

def _example1_defaults(seed, out_dir):
    return {
        "seed": seed,
        "system": {"builtin": "example1",
                   "params": {"a": 0.99, "b": 0.01, "c": 0.2, "c1": 0.2}},
        "certificate": {
            "kind": "external",
            "beta": 1.0 / 0.99,
            "gamma_sq": None,  # filled from the search
            "domain": {"lo": [-10.0], "hi": [10.0], "grid": 201},
            "scheme": {"mode": "closed-form"},
            "p_grid": [2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
            "beta_grid": [1.002, 1.005, 1.0 / 0.99, 1.02, 1.05, 1.1, 1.5, 2.0],
        },
        "ensemble": {"horizon": 200, "count": 200,
                     "disturbance": {"kind": "decaying-sine", "decay": 0.98,
                                     "freqs": [0.3], "phases": [0.0],
                                     "amp_range": [0.5, 1.5]},
                     "second_disturbance": {"kind": "white", "std": 0.5}},
        "output": {"dir": str(out_dir), "formats": ["csv", "svg"]},
    }


def cmd_example1(out_dir, seed, formats=None):
    t_start = time.perf_counter()
    resolved = _example1_defaults(seed, out_dir)
    if formats:
        resolved["output"]["formats"] = formats
    system = library.example1_system()
    cert_block = resolved["certificate"]
    domain = DomainBox.from_spec(cert_block["domain"])
    scheme = ExpectationScheme(mode="closed-form")

    t0 = time.perf_counter()
    candidates = [(p, library.example1_storage(p)) for p in cert_block["p_grid"]]
    search = certify.gamma_star_search(
        system, candidates, cert_block["beta_grid"], domain, scheme)
    if search.status != "ok":
        raise ToolkitError(f"gamma-star search failed: {search.notes}")
    gamma_star_sq = search.gamma_star_sq
    resolved["certificate"]["gamma_sq"] = gamma_star_sq
    # the emitted config needs gamma*^2, so the writer starts late
    writer = RunWriter(out_dir, resolved, started=t_start)
    writer.timings["gamma_star_s"] = time.perf_counter() - t0
    writer.extra["gamma_star"] = search.to_dict()

    V = library.example1_storage(search.params)
    t0 = time.perf_counter()
    cert = certify.check_external(
        system, V, search.beta, gamma_star_sq, domain, scheme)
    writer.timings["certify_s"] = time.perf_counter() - t0
    writer.add_certificate(cert)

    ens_block = resolved["ensemble"]
    ensembles = {
        "decaying-sine": library.ensemble_from_config(
            ens_block["disturbance"], 1),
        "white": library.ensemble_from_config(
            ens_block["second_disturbance"], 1),
    }
    verdicts = {}
    t0 = time.perf_counter()
    for name, ens in ensembles.items():
        rep = certify.empirical_gain(
            system, ens, ens_block["horizon"], ens_block["count"],
            gamma_star_sq, derive_seed(seed, 0x9A1))
        writer.add_gain_report(rep)
        verdicts[name] = rep.verdict
    writer.timings["gain_s"] = time.perf_counter() - t0

    # representative trajectory for the |z|^2 / gamma*^2 v^2 / v^2 series
    sub = derive_seed(seed, 0)
    policy = ensembles["decaying-sine"].make_policy(derive_seed(sub, 2))
    traj = simulate(system, np.zeros(1), policy, ens_block["horizon"],
                    derive_seed(sub, 1))
    ks = list(range(traj.horizon))
    z_sq = traj.z_sq.tolist()
    v_sq = traj.v_sq.tolist()
    gv_sq = (gamma_star_sq * traj.v_sq).tolist()
    formats = resolved["output"]["formats"]
    if "csv" in formats:
        writer.write_csv(
            "example1_series.csv",
            ["k", "z_sq", "gamma_star_sq_v_sq", "v_sq"],
            [[k, repr(z_sq[k]), repr(gv_sq[k]), repr(v_sq[k])] for k in ks],
        )
    if "svg" in formats:
        line_plot(writer.path("example1_series.svg"),
                  [("|z|^2", ks, z_sq),
                   ("gamma*^2 v^2", ks, gv_sq),
                   ("v^2", ks, v_sq)],
                  title="scalar benchmark: output vs weighted disturbance energy")
        writer.files.append("example1_series.svg")

    writer.write_json("summary.json", {
        "gamma_star_sq": gamma_star_sq,
        "best_beta": search.beta,
        "best_p": search.params,
        "certificate_status": cert.status,
        "gain_verdicts": verdicts,
    })
    status = cert.status if all(v == "consistent" for v in verdicts.values()) \
        else "violated"
    writer.finish(status)
    return status_exit_code(status)


def _example2_defaults(seed, out_dir):
    return {
        "seed": seed,
        "system": {"builtin": "example2"},
        "storage": {"builtin": "example2"},
        "law": {"builtin": "example2"},
        "certificate": {
            "kind": "controller",
            "beta": library.EXAMPLE2_BETA,
            "gamma": library.EXAMPLE2_GAMMA,
            "domain": {"lo": [-2.0, -2.0, -2.0], "hi": [2.0, 2.0, 2.0], "grid": 7},
            "scheme": {"mode": "monte-carlo", "samples": 100_000,
                       "antithetic": False},
        },
        "ensemble": {"horizon": 300, "count": 200, "x0": [1.0, 1.0, 0.5],
                     "disturbance": {"kind": "decaying-sine", "decay": 0.98,
                                     "freqs": [0.3, 0.37], "phases": [0.0, 0.9],
                                     "amp_range": [0.5, 1.5]}},
        "output": {"dir": str(out_dir), "formats": ["csv", "svg"]},
    }


def cmd_example2(out_dir, seed, formats=None):
    resolved = _example2_defaults(seed, out_dir)
    if formats:
        resolved["output"]["formats"] = formats
    writer = RunWriter(out_dir, resolved)
    plant = library.example2_plant()
    V = library.example2_storage()
    law = library.example2_law()
    cert_block = resolved["certificate"]
    domain = DomainBox.from_spec(cert_block["domain"])
    scheme = _scheme_from(cert_block, seed)

    gamma_sq = cert_block["gamma"] ** 2
    t0 = time.perf_counter()
    cert = synth.certify_controller(
        plant, law, V, cert_block["beta"], gamma_sq, domain, scheme)
    writer.timings["certify_s"] = time.perf_counter() - t0
    writer.add_certificate(cert)
    g_beta_sup = cert.provenance.get("g_beta_sup")

    loop = synth.closed_loop(plant, law)
    ens_block = resolved["ensemble"]
    ensemble = library.ensemble_from_config(ens_block["disturbance"], 2)
    t0 = time.perf_counter()
    gain = certify.empirical_gain(
        loop, ensemble, ens_block["horizon"], ens_block["count"], gamma_sq,
        derive_seed(seed, 0x9A1))
    writer.timings["gain_s"] = time.perf_counter() - t0
    writer.add_gain_report(gain)

    # closed-loop run from the benchmark's initial-condition convention
    x0 = np.asarray(ens_block["x0"], dtype=float)
    sub = derive_seed(seed, 0)
    policy = ensemble.make_policy(derive_seed(sub, 2))
    traj = simulate(loop, x0, policy, ens_block["horizon"], derive_seed(sub, 1))
    us = law(traj.states[:-1])
    ks = list(range(traj.horizon))
    formats = resolved["output"]["formats"]
    if "csv" in formats:
        writer.write_csv(
            "example2_controls.csv", ["k", "u_1", "u_2"],
            [[k, repr(float(us[k, 0])), repr(float(us[k, 1]))] for k in ks])
        writer.write_csv(
            "example2_states.csv", ["k", "x_1", "x_2", "x_3"],
            [[k] + [repr(float(s)) for s in traj.states[k]] for k in range(traj.horizon + 1)])
        writer.write_csv(
            "example2_energies.csv", ["k", "z_sq", "gamma_sq_v_sq"],
            [[k, repr(float(traj.z_sq[k])), repr(float(gamma_sq * traj.v_sq[k]))]
             for k in ks])
    if "svg" in formats:
        line_plot(writer.path("example2_controls.svg"),
                  [("u1*", ks, us[:, 0].tolist()), ("u2*", ks, us[:, 1].tolist())],
                  title="feedback law along the closed-loop run")
        line_plot(writer.path("example2_states.svg"),
                  [(f"x{i + 1}", list(range(traj.horizon + 1)),
                    traj.states[:, i].tolist()) for i in range(3)],
                  title="closed-loop states")
        line_plot(writer.path("example2_energies.svg"),
                  [("|z|^2", ks, traj.z_sq.tolist()),
                   ("gamma^2 |v|^2", ks, (gamma_sq * traj.v_sq).tolist())],
                  title="output energy vs weighted disturbance energy")
        writer.files.extend(["example2_controls.svg", "example2_states.svg",
                             "example2_energies.svg"])

    writer.write_json("summary.json", {
        "G_beta": g_beta_sup,
        "gamma_sq": gamma_sq,
        "certificate_status": cert.status,
        "gain_verdict": gain.verdict,
        "u1_coefficient": law.spec()["u1_coef"],
    })
    status = cert.status if gain.verdict == "consistent" else "violated"
    writer.finish(status)
    return status_exit_code(status)


def cmd_example(which, out_dir, seed, formats=None):
    if which == "1":
        return cmd_example1(out_dir, seed, formats)
    if which == "2":
        return cmd_example2(out_dir, seed, formats)
    print(f"error: unknown example {which!r} (choose 1 or 2)", file=sys.stderr)
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------- main

# --format value -> output.formats
_FORMATS = {"csv": ["csv"], "svg": ["svg"], "both": ["csv", "svg"]}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sbrl",
        description="Certification and simulation toolkit for discrete-time "
                    "stochastic l2-gain analysis. The JSON config schema is "
                    "shipped as sbrl/config_schema.json.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--format", choices=_FORMATS,
                       default=None, help="output format override")

    common(sub.add_parser("certify", help="run the configured certificate check"))
    common(sub.add_parser("gain", help="empirical l2-gain ensemble"))
    common(sub.add_parser("simulate", help="write trajectory CSVs"))
    common(sub.add_parser("linear-brl", help="linear bounded-real check"))
    pex = sub.add_parser("example", help="reproduce a built-in benchmark")
    pex.add_argument("which", help="benchmark number: 1 or 2")
    common(pex, needs_config=False)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    formats = _FORMATS.get(args.format)
    try:
        if args.command == "example":
            out = args.out or f"example{args.which}_out"
            return cmd_example(args.which, out, args.seed or 0, formats)
        cfg = load_config(args.config)
        resolved = resolve_config(cfg, seed_override=args.seed,
                                  out_override=args.out)
        if formats:
            resolved["output"]["formats"] = formats
        if args.command == "certify":
            return cmd_certify(resolved)
        if args.command == "gain":
            return cmd_gain(resolved)
        if args.command == "simulate":
            return cmd_simulate(resolved)
        if args.command == "linear-brl":
            cert = resolved.get("certificate", {})
            cert["kind"] = "linear-brl"
            resolved["certificate"] = cert
            return cmd_certify(resolved)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        # exit 1 is reserved for falsified/violated: an internal failure must
        # never read as a verdict
        log.debug("internal failure", exc_info=True)
        print(" ".join(f"error: {type(exc).__name__}: {exc}".split()),
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
