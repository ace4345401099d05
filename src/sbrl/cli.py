"""Command-line front end: config parsing, orchestration, report emission.

Commands:
  certify     run the configured certificate check
  gain        empirical l2-gain ensemble against a claimed gamma^2
  simulate    write trajectory CSVs for the configured ensemble
  example     run a shipped example config through certify, gain and simulate

Exit codes: 0 certified/consistent, 1 falsified/violated, 2 inconclusive
or error.  All result artifacts are byte-reproducible for a fixed resolved
config and seed; wall-clock timings live only in report.json.  Set
SBRL_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose a count, set before numpy loads
# (and only then, when it can act): no sbrl matrix is large enough for a
# second thread, and an idle OpenBLAS worker spins for about 0.13 CPU-s
# per process.  Results do not depend on it.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in sys.modules and not any(
        name in os.environ for name in BLAS_THREAD_ENV):
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))

import numpy as np  # noqa: E402  (after the BLAS pin)

from . import __version__, certify, library, synth
from .dynamics import LinearSystem, simulate_ensemble, trajectory_csv_rows
from .errors import ConfigurationError, ToolkitError
from .noise import ExpectationScheme, derive_seed
from .storage import DomainBox, QuadraticStorage
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


def _deref(schema):
    """The subschema a ``$ref`` names; draft-07 ignores the keywords beside it."""
    while isinstance(schema, dict) and "$ref" in schema:
        parts = schema["$ref"].removeprefix("#/").split("/")
        schema = functools.reduce(dict.__getitem__, parts, _schema())
    return schema


def _violations(schema, value, path=""):
    """Violations of ``value`` against a draft-07 subschema, as 'path: msg'.

    Interprets the keywords config_schema.json uses; the rest annotate,
    but a failed ``oneOf`` quotes the ``description`` beside it.  A node
    reports its ``allOf`` and ``oneOf`` only when its other keywords hold,
    so one fault names one path; a ``oneOf`` whose alternatives the value's
    type or ``kind``/``mode`` picks reports that alternative's violations.
    """
    where = path or "<root>"
    schema = _deref(schema)
    if isinstance(schema, bool):
        return [] if schema else [f"{where}: not allowed"]
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
    if not errors:
        for sub in schema.get("allOf", ()):
            errors += _violations(sub, value, path)
    if "oneOf" in schema and not errors:
        alts = [_deref(alt) for alt in schema["oneOf"]]
        picked = _picked(alts, value)
        if picked is not None:
            return _violations(picked, value, path)
        matched = sum(not _violations(alt, value, path) for alt in alts)
        if matched != 1:
            expected = schema.get("description", "exactly one alternative")
            errors.append(f"{where}: expected {expected}, matched {matched}")
    return errors


def _consts(alt):
    return [(key, sub["const"]) for key, sub in alt.get("properties", {}).items()
            if isinstance(sub, dict) and "const" in sub]


def _picked(alts, value):
    """The one alternative that the value's type picks, or, when every
    alternative fixes a property by ``const``, the one whose fixed values
    the value holds (an absent key fits where it is not required); None
    when no one alternative is picked.  The others fail, so the picked
    alternative's violations are the oneOf's."""
    if all("type" in alt for alt in alts):
        picked = [alt for alt in alts if _TYPES[alt["type"]](value)]
    elif isinstance(value, dict) and all(_consts(alt) for alt in alts):
        picked = [alt for alt in alts if all(
            value[key] == const if key in value
            else key not in alt.get("required", ())
            for key, const in _consts(alt))]
    else:
        return None
    return picked[0] if len(picked) == 1 else None


def validate_config(cfg):
    """Check a parsed config against config_schema.json.

    Returns a list of 'field.path: message' strings; empty means valid.
    Semantic validation (dimensions, definiteness, ...) happens in the
    builders.
    """
    return _violations(_schema(), cfg)


def _finite(text):
    """json number hook: NaN, Infinity and overflowing literals are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    _require_valid(cfg)
    return cfg


def _require_valid(cfg):
    errors = validate_config(cfg)
    if errors:
        raise ConfigurationError("config schema violations: " + "; ".join(errors))


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
    if cert is not None and cert["kind"] != "linear-brl":  # reads no scheme
        # exact wherever the system declares its parts: every config system
        # does; monte-carlo is a stated choice
        scheme = cert.setdefault("scheme", {"mode": "closed-form"})
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
    """The ExpectationScheme of a resolved certificate block."""
    block = cert_block["scheme"]
    given = {key: cast(block[key]) for key, cast in
             (("samples", int), ("antithetic", bool)) if key in block}
    return ExpectationScheme(block["mode"], seed=derive_seed(seed, 0x5C0),
                             **given)


def _gamma_sq_from(block):
    if "gamma_sq" in block:
        return float(block["gamma_sq"])
    return float(block["gamma"]) ** 2


# ---------------------------------------------------------------- emission

class RunWriter:
    """Collects result artifacts and writes the run report."""

    def __init__(self, out_dir, resolved):
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
        self._t0 = time.perf_counter()
        self.write_json("resolved_config.json", self.resolved)

    def write_json(self, name, obj):
        data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        with open(self.out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        if name not in self.files:
            self.files.append(name)

    def write_csv(self, name, header, rows):
        # no field needs quoting; line-by-line writes hold no copy of the file
        with open(self.out / name, "w", encoding="utf-8", newline="") as fh:
            for row in (header, *rows):
                fh.write(",".join(map(str, row)) + "\n")
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
        self.write_json("report.json", report)


def _domain(cert_block, system):
    domain = DomainBox.from_spec(cert_block["domain"])
    if domain.dim != system.n:
        raise ConfigurationError(f"certificate.domain: {domain.dim} axes for a "
                                 f"{system.n}-state system")
    return domain


def _resolved_system(resolved):
    """The configured system and the configured law or None: a run builds
    them once.  Only a plant with a control input (n_u > 0) takes a law."""
    noise = None
    if "noise" in resolved:
        noise = library.noise_from_config(resolved["noise"])
    system, _ = library.system_from_config(resolved["system"], noise=noise)
    if "law" not in resolved:
        return system, None
    if not system.n_u:
        raise ConfigurationError(
            "law: given for a system without control input (n_u = 0), "
            "which no law acts on")
    return system, library.law_from_config(resolved["law"])


def _closed_loop(system, law, needed_by):
    """``system``, closed by the configured law when it takes a control."""
    if not system.n_u:
        return system
    if law is None:
        raise ConfigurationError(f"law: required for {needed_by}")
    return synth.closed_loop(system, law)


def _storage(resolved, kind):
    if "storage" not in resolved:
        raise ConfigurationError(f"storage: required for certificate kind {kind}")
    return library.storage_from_config(resolved["storage"])


def _quadratic_P(resolved, needed_by):
    if "quadratic" not in resolved.get("storage", {}):
        raise ConfigurationError(f"storage.quadratic: required for {needed_by}")
    return resolved["storage"]["quadratic"]["P"]


def _gamma_star(system, resolved):
    """gamma_star_search over p * P for p in certificate.p_grid, P the
    configured quadratic storage; returns the search and its chosen V."""
    cert_block = resolved["certificate"]
    storage = QuadraticStorage(
        _quadratic_P(resolved, "certificate kind gamma-star"))
    candidates = [(p, QuadraticStorage(p * storage.P))
                  for p in cert_block["p_grid"]]
    search = certify.gamma_star_search(
        system, candidates, cert_block["beta_grid"],
        _domain(cert_block, system), _scheme_from(cert_block, resolved["seed"]))
    if search.status != "ok":
        raise ToolkitError(f"gamma-star search failed: {search.notes}")
    return search, QuadraticStorage(search.params * storage.P)


def _x0(ens_block, n):
    """ensemble.x0 (the zero state if absent), checked by every command that
    reads the ensemble, though the gain ensemble starts at the zero state."""
    x0 = np.asarray(ens_block.get("x0", [0.0] * n), dtype=float)
    if x0.shape != (n,):
        raise ConfigurationError(
            f"ensemble.x0: {x0.size} values for a {n}-state system")
    return x0


def _disturbances(ens_block):
    """ensemble.disturbance as a list of blocks, no kind given twice."""
    blocks = ens_block["disturbance"]
    blocks = blocks if isinstance(blocks, list) else [blocks]
    kinds = [block["kind"] for block in blocks]
    if len(set(kinds)) < len(kinds):
        raise ConfigurationError(f"ensemble.disturbance: a kind given twice in {kinds}")
    return blocks


# ---------------------------------------------------------------- commands

def cmd_certify(resolved):
    if "certificate" not in resolved:
        raise ConfigurationError("certificate: required for 'certify'")
    writer = RunWriter(resolved["output"]["dir"], resolved)
    if resolved["certificate"]["kind"] == "linear-brl":
        status = _run_linear_brl(resolved, writer)
    else:
        cert, _ = _certificate(resolved, writer, *_resolved_system(resolved))
        status = cert.status
    writer.finish(status)
    return status_exit_code(status)


def _certificate(resolved, writer, system, law):
    """Run the configured sampled certificate on ``system`` into
    ``writer``; returns it and the loop that ``law`` closes (``system``
    itself without a control input), built once: every sampled kind runs
    on that loop."""
    cert_block = resolved["certificate"]
    kind = cert_block["kind"]
    scheme = _scheme_from(cert_block, resolved["seed"])
    t0 = time.perf_counter()
    domain = _domain(cert_block, system)
    loop = _closed_loop(system, law, f"certificate kind {kind}")
    if kind == "controller":
        if not system.n_u:
            raise ConfigurationError(
                "certificate.kind: controller needs a system with control input")
        cert = synth.certify_controller(
            loop, law, _storage(resolved, kind), float(cert_block["beta"]),
            _gamma_sq_from(cert_block), domain, scheme)
    elif kind == "internal":
        cert = certify.check_internal(
            loop, _storage(resolved, kind), float(cert_block["c2"]),
            domain, scheme)
    elif kind == "external":
        cert = certify.check_external(
            loop, _storage(resolved, kind), float(cert_block["beta"]),
            _gamma_sq_from(cert_block), domain, scheme)
    else:  # gamma-star: the external check at the searched optimum
        search, V = _gamma_star(loop, resolved)
        cert = certify.check_external(
            loop, V, search.beta, search.gamma_star_sq, domain, scheme)
        cert.provenance["gamma_star"] = search.to_dict()

    writer.add_certificate(cert)
    writer.timings["certify_s"] = time.perf_counter() - t0
    margins = {"worst_margin": cert.worst_margin,
               "g_beta_sup": cert.provenance.get("g_beta_sup"),
               "h1_worst": cert.provenance.get("h1_worst")}
    writer.write_json("margins.json", margins)
    log.info("certificate %s: %s", kind, cert.status)
    return cert, loop


def _run_linear_brl(resolved, writer):
    t0 = time.perf_counter()
    linsys, _ = _resolved_system(resolved)
    if not isinstance(linsys, LinearSystem):
        raise ConfigurationError("certificate.kind: linear-brl needs a linear system")
    cert_block = resolved["certificate"]
    gamma_sq = _gamma_sq_from(cert_block)
    if "beta" in cert_block:
        rep = certify.linear_brl(
            linsys, _quadratic_P(resolved, "linear-brl verification"),
            float(cert_block["beta"]), gamma_sq)
    else:
        rep = certify.linear_brl_search(
            linsys, gamma_sq, beta_grid=cert_block.get("beta_grid"))
    report = rep.to_dict()
    report["g0"] = report["internal"] = None
    if rep.P is not None:  # the necessity quantity and the internal test at P
        report["g0"] = certify.g0(QuadraticStorage(rep.P), linsys,
                                  ExpectationScheme(mode="closed-form")).value
        internal = certify.linear_internal(linsys, rep.P)
        report["internal"] = {"status": internal.status,
                              "margin": internal.worst_margin}
    writer.write_json("linear_brl.json", report)
    writer.timings["certify_s"] = time.perf_counter() - t0
    return rep.status


def cmd_gain(resolved):
    if "ensemble" not in resolved:
        raise ConfigurationError("ensemble: required for 'gain'")
    writer = RunWriter(resolved["output"]["dir"], resolved)
    system = _closed_loop(*_resolved_system(resolved), "'gain'")
    cert_block = resolved.get("certificate", {})
    if "gamma_sq" in resolved["ensemble"]:
        gamma_sq = float(resolved["ensemble"]["gamma_sq"])
    elif cert_block.get("kind") == "gamma-star":
        gamma_sq = _gamma_star(system, resolved)[0].gamma_star_sq
    elif "gamma" in cert_block or "gamma_sq" in cert_block:
        gamma_sq = _gamma_sq_from(cert_block)
    else:
        raise ConfigurationError("ensemble.gamma_sq: required for 'gain' "
                                 "without a certificate gamma")
    _, verdict = _gain(resolved, writer, system, gamma_sq)
    writer.finish(verdict)
    return status_exit_code(verdict)


def _gain(resolved, writer, system, gamma_sq):
    """Judge gamma_sq against each configured disturbance ensemble, all
    with the same member seeds; returns {kind: verdict} and the verdict of
    them all, 'consistent' only if every one is."""
    ens_block = resolved["ensemble"]
    _x0(ens_block, system.n)
    t0 = time.perf_counter()
    verdicts, rows = {}, []
    for block in _disturbances(ens_block):
        report = certify.empirical_gain(
            system, library.ensemble_from_config(block, system.n_v),
            int(ens_block["horizon"]), int(ens_block["count"]), gamma_sq,
            derive_seed(resolved["seed"], 0x9A1))
        writer.add_gain_report(report)
        verdicts[block["kind"]] = report.verdict
        rows += [[block["kind"], i, "" if r is None else repr(float(r))]
                 for i, r in enumerate(report.ratios)]
        log.info("empirical gain verdict (%s): %s (mean ratio %.6g)",
                 block["kind"], report.verdict, report.mean_energy_ratio)
    writer.timings["gain_s"] = time.perf_counter() - t0
    if "csv" in resolved["output"]["formats"]:
        writer.write_csv("gain_ratios.csv",
                         ["disturbance", "trajectory", "energy_ratio"], rows)
    consistent = all(v == "consistent" for v in verdicts.values())
    return verdicts, "consistent" if consistent else "violated"


def cmd_simulate(resolved):
    if "ensemble" not in resolved:
        raise ConfigurationError("ensemble: required for 'simulate'")
    writer = RunWriter(resolved["output"]["dir"], resolved)
    system, law = _resolved_system(resolved)
    if system.n_u and law is None:  # the open-loop run of a plant
        law = synth.FeedbackLaw.zero(system.n_u)
    status, _ = _simulate(resolved, writer, int(resolved["ensemble"]["count"]),
                          _closed_loop(system, law, "'simulate'"), law)
    writer.finish(status)
    return status_exit_code(status)


def _simulate(resolved, writer, count, loop, law):
    """Members 0..count-1 of the ensemble of ``loop`` under its first
    disturbance, with the controls of ``law`` (None: none), one CSV each up
    to the first diverged member; returns the status and the last member."""
    ens_block = resolved["ensemble"]
    x0 = _x0(ens_block, loop.n)
    ensemble = library.ensemble_from_config(_disturbances(ens_block)[0],
                                            loop.n_v)
    csv = "csv" in resolved["output"]["formats"]
    status = "consistent"
    t0 = time.perf_counter()
    run = simulate_ensemble(loop, x0, ensemble, int(ens_block["horizon"]),
                            count, resolved["seed"])
    for i in range(count):
        traj = run.member(i)
        if law is not None:
            traj.controls = law(traj.states[:-1])
        if run.diverged[i]:
            status = f"divergence at step {traj.horizon}"
            log.warning("trajectory %d diverged at step %d", i, traj.horizon)
        if csv:
            header, rows = trajectory_csv_rows(traj)
            writer.write_csv(f"trajectory_{i:03d}.csv", header, rows)
            del rows
        if status != "consistent":
            break
    writer.timings["simulate_s"] = time.perf_counter() - t0
    return status, traj


def cmd_example(resolved):
    """A shipped example config: its certificate, the gain ensembles at the
    certificate's gamma^2, member 0 of its simulate ensemble, and last
    summary.json and the member's plots."""
    writer = RunWriter(resolved["output"]["dir"], resolved)
    system, law = _resolved_system(resolved)
    cert, loop = _certificate(resolved, writer, system, law)
    gamma_sq = cert.provenance["gamma_sq"]
    verdicts, gain_verdict = _gain(resolved, writer, loop, gamma_sq)
    sim_status, traj = _simulate(resolved, writer, 1, loop, law)
    if "svg" in resolved["output"]["formats"]:
        _plot_member(writer, traj, gamma_sq)
    summary = {"certificate_status": cert.status, "gamma_sq": gamma_sq,
               "G_beta": cert.provenance["g_beta_sup"],
               "gain_verdicts": verdicts, "gain_verdict": gain_verdict}
    if "gamma_star" in cert.provenance:
        search = cert.provenance["gamma_star"]
        summary.update(gamma_star_sq=search["gamma_star_sq"],
                       best_beta=search["beta"], best_p=search["params"])
    if law is not None and "u1_coef" in law.spec():
        summary["u1_coefficient"] = law.spec()["u1_coef"]
    writer.write_json("summary.json", summary)
    # a violated gain wins, then a diverged member, then the certificate
    status = next(s for s in (gain_verdict, sim_status, cert.status)
                  if s != "consistent")
    writer.finish(status)
    return status_exit_code(status)


def _plot_member(writer, traj, gamma_sq):
    ks, steps = list(range(traj.horizon)), list(range(traj.horizon + 1))
    plots = {
        "states.svg": ("states", [(f"x{i + 1}", steps, traj.states[:, i].tolist())
                                  for i in range(traj.states.shape[1])]),
        "energies.svg": ("output energy vs weighted disturbance energy", [
            ("|z|^2", ks, traj.z_sq.tolist()),
            ("gamma^2 |v|^2", ks, (gamma_sq * traj.v_sq).tolist()),
            ("|v|^2", ks, traj.v_sq.tolist())]),
    }
    if traj.controls is not None:
        plots["controls.svg"] = ("feedback law along the run", [
            (f"u{i + 1}", ks, traj.controls[:, i].tolist())
            for i in range(traj.controls.shape[1])])
    for name, (title, series) in plots.items():
        line_plot(writer.out / name, series, title=title)
        writer.files.append(name)


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
    pex = sub.add_parser("example", help="run a shipped example config")
    pex.add_argument("which", help="example number: 1 or 2")
    common(pex, needs_config=False)
    return parser


def _reuse_freed_memory():
    """Keep glibc from handing freed Monte Carlo blocks back to the kernel:
    under its adaptive thresholds whether it did hung on the heap layout
    (sweep-mc certify: 5.9e3 or 2.2e5 minor faults, 2.3 s or 3.4 s)."""
    if os.name != "posix":
        return
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: never shrink the heap top
        mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD: blocks under 32 MiB from the heap


COMMANDS = {"certify": cmd_certify, "gain": cmd_gain, "simulate": cmd_simulate,
            "example": cmd_example}


def main(argv=None):
    _setup_logging()
    _reuse_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            if args.which not in ("1", "2"):
                raise ConfigurationError(
                    f"unknown example {args.which!r} (choose 1 or 2)")
            args.config = Path(__file__).with_name(f"example{args.which}.json")
            args.out = args.out or f"example{args.which}_out"
        resolved = resolve_config(load_config(args.config),
                                  seed_override=args.seed,
                                  out_override=args.out)
        if args.format:
            resolved["output"]["formats"] = _FORMATS[args.format]
        _require_valid(resolved)  # the overrides too, before any computation
        return COMMANDS[args.command](resolved)
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


if __name__ == "__main__":
    sys.exit(main())
