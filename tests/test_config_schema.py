"""config_schema.json is the config contract; cli.validate_config reads it.

jsonschema's Draft7Validator is the reference: for every config in the
corpus below the interpreter in sbrl.cli must reach the same verdict, and
every keyword the schema uses must be one the interpreter handles.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sbrl import cli

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "sbrl" / "config_schema.json").read_text())

INTERPRETED = {"type", "properties", "additionalProperties", "items", "$ref",
               "enum", "const", "required", "minimum", "exclusiveMinimum",
               "minItems", "maxItems", "oneOf"}
ANNOTATIONS = {"$schema", "title", "description", "definitions"}
# keywords whose value is a map of names to subschemas, or a list of values
NAMED_SUBSCHEMAS = {"properties", "definitions"}
LITERALS = {"enum", "const", "required"}

BASE = {
    "seed": 7,
    "system": {"builtin": "example1"},
    "storage": {"builtin": "example1", "p": 4.0},
    "certificate": {
        "kind": "external",
        "beta": 1.0 / 0.99,
        "gamma_sq": 0.08,
        "domain": {"lo": [-10.0], "hi": [10.0], "grid": 201},
        "scheme": {"mode": "closed-form"},
    },
    "ensemble": {"horizon": 20, "count": 5,
                 "disturbance": {"kind": "white", "std": 0.5}},
    "output": {"dir": "out", "formats": ["csv"]},
}
LINEAR = {"A": [[0.5]], "A0": [[0.0]], "B": [[1.0]], "C": [[0.5]],
          "D": [[0.0]]}


def edit(path, value):
    """BASE with the node at dotted ``path`` replaced (``...`` deletes it)."""
    cfg = copy.deepcopy(BASE)
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    if value is ...:
        del node[last]
    else:
        node[last] = value
    return cfg


# name -> (config, the field path of its one violation; None when valid)
PROBES = {
    "valid": (BASE, None),
    "seed-negative": (edit("seed", -1), "seed"),
    "seed-boolean": (edit("seed", True), "seed"),
    "seed-integral-float": (edit("seed", 7.0), None),
    "seed-fraction": (edit("seed", 7.5), "seed"),
    "grid-zero": (edit("certificate.domain.grid", 0), "certificate.domain.grid"),
    "beta-below-one": (edit("certificate.beta", 0.5), "certificate.beta"),
    "gamma-sq-zero": (edit("certificate.gamma_sq", 0), "certificate.gamma_sq"),
    "storage-not-object": (edit("storage", "quadratic"), "storage"),
    "storage-two-forms": (edit("storage.quadratic", {"P": [[1.0]]}), "storage"),
    "noise-unknown-component": (dict(BASE, noise={"components": ["bernoulli"]}),
                                "noise.components[0]"),
    "noise-uniform-one-bound": (
        dict(BASE, noise={"components": [{"uniform": [0]}]}), "noise.components[0]"),
    "linear-without-D": (
        edit("system", {"linear": {k: v for k, v in LINEAR.items() if k != "D"}}),
        "system.linear.D"),
    "system-two-forms": (edit("system.linear", LINEAR), "system"),
    "system-empty": (edit("system", {}), "system"),
    "certificate-without-kind": (edit("certificate.kind", ...), "certificate.kind"),
    "scheme-not-object": (edit("certificate.scheme", "mc"), "certificate.scheme"),
    "samples-integral-float": (
        edit("certificate.scheme", {"mode": "monte-carlo", "samples": 200.0}), None),
    "disturbance-not-object": (edit("ensemble.disturbance", "white"),
                               "ensemble.disturbance"),
    "disturbance-unknown-kind": (edit("ensemble.disturbance", {"kind": "pink"}),
                                 "ensemble.disturbance.kind"),
    "disturbance-without-kind": (edit("ensemble.disturbance.kind", ...),
                                 "ensemble.disturbance.kind"),
    "impulse-without-step": (
        edit("ensemble.disturbance", {"kind": "impulse", "vector": [1.0]}),
        "ensemble.disturbance"),
    "impulse-without-vector": (
        edit("ensemble.disturbance", {"kind": "impulse", "step": 2}),
        "ensemble.disturbance"),
    "impulse-complete": (
        edit("ensemble.disturbance", {"kind": "impulse", "step": 2, "vector": [1.0]}),
        None),
    "recorded-without-values": (edit("ensemble.disturbance", {"kind": "recorded"}),
                                "ensemble.disturbance"),
    "recorded-complete": (
        edit("ensemble.disturbance", {"kind": "recorded", "values": [[1.0]]}), None),
    "law-two-forms": (dict(BASE, law={"builtin": "example2", "zero": 2}), "law"),
    "law-empty": (dict(BASE, law={}), "law"),
    "law-linear-gain": (dict(BASE, law={"linear_gain": {"K": [[-0.5]]}}), None),
    "count-boolean": (edit("ensemble.count", True), "ensemble.count"),
    "horizon-zero": (edit("ensemble.horizon", 0), "ensemble.horizon"),
    "format-unknown": (edit("output.formats", ["pdf"]), "output.formats[0]"),
    "output-extra-key": (edit("output.threads", 1), None),
    "unknown-section": (dict(BASE, extra={}), "extra"),
    "root-not-object": ([BASE], "<root>"),
}


def example_resolved_configs():
    # what `sbrl example 1|2` write as resolved_config.json: the defaults
    # without output.dir, and example 1's gamma_sq filled by its search
    ex1 = cli._example1_defaults(7, "out")
    ex1["certificate"]["gamma_sq"] = 0.08
    ex2 = cli._example2_defaults(7, "out")
    for cfg in (ex1, ex2):
        del cfg["output"]["dir"]
    return {"example1-resolved": ex1, "example2-resolved": ex2}


def bench_workload_configs():
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))  # run.py does `import layers`
    try:
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return {f"workload-{name}": wl.config(7)
            for name, wl in module.WORKLOADS.items()}


WORKLOAD_CONFIGS = bench_workload_configs()
CORPUS = {**{name: cfg for name, (cfg, _) in PROBES.items()},
          **{f"{name}-resolved": cli.resolve_config(cfg)
             for name, (cfg, path) in PROBES.items() if path is None},
          **example_resolved_configs(), **WORKLOAD_CONFIGS}


def test_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def keywords(schema):
    """Every keyword used anywhere in ``schema``."""
    if not isinstance(schema, dict):
        return set()
    found = set(schema)
    for key, value in schema.items():
        if key in NAMED_SUBSCHEMAS:
            for sub in value.values():
                found |= keywords(sub)
        elif key not in LITERALS:
            for sub in value if isinstance(value, list) else [value]:
                found |= keywords(sub)
    return found


def test_schema_uses_only_interpreted_keywords():
    unknown = keywords(SCHEMA) - INTERPRETED - ANNOTATIONS
    assert not unknown, f"cli.validate_config does not interpret {sorted(unknown)}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_interpreter_agrees_with_draft7(name):
    cfg = CORPUS[name]
    errors = cli.validate_config(cfg)
    assert (errors == []) == jsonschema.Draft7Validator(SCHEMA).is_valid(cfg), errors


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_violation_names_its_field(name):
    cfg, path = PROBES[name]
    errors = cli.validate_config(cfg)
    assert [e.split(": ", 1)[0] for e in errors] == ([] if path is None else [path])


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_workload_configs_load(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WORKLOAD_CONFIGS[name]))
    assert cli.load_config(str(path)) == WORKLOAD_CONFIGS[name]


def test_integral_floats_run_like_integers(tmp_path):
    outputs = []
    for label, number in (("int", int), ("float", float)):
        cfg = edit("seed", number(7))
        cfg["certificate"]["gamma_sq"] = 0.1  # 0.08 is tight: inconclusive under MC
        cfg["certificate"]["domain"]["grid"] = number(21)
        cfg["certificate"]["scheme"] = {"mode": "monte-carlo",
                                        "samples": number(500)}
        cfg["output"]["dir"] = str(tmp_path / label)
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["certify", "--config", str(path)]) == 0
        outputs.append((tmp_path / label / "certificates.json").read_bytes())
    assert outputs[0] == outputs[1]
