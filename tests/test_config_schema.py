"""config_schema.json is the config contract; cli.validate_config reads it.

jsonschema's Draft7Validator is the reference: for every config in the
corpus below the interpreter in sbrl.cli must reach the same verdict, and
every keyword the schema uses must be one the interpreter handles.  The
commands read no config key that the schema does not declare, and every
benchmark workload config builds as bench/setup_probe.py builds it.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sbrl import cli, library

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "sbrl" / "config_schema.json").read_text())

INTERPRETED = {"type", "properties", "additionalProperties", "items", "$ref",
               "enum", "const", "required", "minimum", "exclusiveMinimum",
               "minItems", "maxItems", "oneOf", "allOf"}
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
DOMAIN = BASE["certificate"]["domain"]


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
        "ensemble.disturbance.step"),
    "impulse-without-vector": (
        edit("ensemble.disturbance", {"kind": "impulse", "step": 2}),
        "ensemble.disturbance.vector"),
    "impulse-complete": (
        edit("ensemble.disturbance", {"kind": "impulse", "step": 2, "vector": [1.0]}),
        None),
    "recorded-without-values": (edit("ensemble.disturbance", {"kind": "recorded"}),
                                "ensemble.disturbance.values"),
    "recorded-complete": (
        edit("ensemble.disturbance", {"kind": "recorded", "values": [[1.0]]}), None),
    "law-two-forms": (dict(BASE, law={"builtin": "example2", "zero": 2}), "law"),
    "law-empty": (dict(BASE, law={}), "law"),
    "law-linear-gain": (dict(BASE, law={"linear_gain": {"K": [[-0.5]]}}), None),
    "params-declared": (edit("system.params", {"a": 0.5, "c1": 0.1}), None),
    "params-unknown-key": (edit("system.params", {"noise": 1}),
                           "system.params.noise"),
    "params-not-number": (edit("system.params", {"a": "0.5"}), "system.params.a"),
    "count-boolean": (edit("ensemble.count", True), "ensemble.count"),
    "horizon-zero": (edit("ensemble.horizon", 0), "ensemble.horizon"),
    "format-unknown": (edit("output.formats", ["pdf"]), "output.formats[0]"),
    "output-extra-key": (edit("output.threads", 1), "output.threads"),
    "unknown-section": (dict(BASE, extra={}), "extra"),
    "root-not-object": ([BASE], "<root>"),
    # each form of a block refuses the keys of the other forms
    "params-beside-example2": (edit("system", {"builtin": "example2",
                                               "params": {"a": 5.0}}), "system"),
    "system-extra-key": (edit("system.noise", 1), "system"),
    "p-beside-quadratic": (edit("storage", {"quadratic": {"P": [[1.0]]},
                                            "p": 9.0}), "storage"),
    "law-extra-key": (dict(BASE, law={"zero": 2, "K": [[1.0]]}), "law"),
    "gamma-and-gamma-sq": (edit("certificate.gamma", 0.5), "certificate"),
    "gamma-only": (edit("certificate", {"kind": "external", "beta": 1.5,
                                        "gamma": 0.5, "domain": DOMAIN}), None),
    "gamma-star-p-grid": (edit("certificate", {
        "kind": "gamma-star", "p_grid": [1.0, 2.0], "beta_grid": [1.5],
        "domain": DOMAIN}), None),
    "p-grid-zero": (edit("certificate.p_grid", [1.0, 0.0]),
                    "certificate.p_grid[1]"),
    "disturbance-list": (edit("ensemble.disturbance",
                              [{"kind": "white"}, {"kind": "zero"}]), None),
    "disturbance-list-empty": (edit("ensemble.disturbance", []),
                               "ensemble.disturbance"),
    "disturbance-list-unknown-kind": (
        edit("ensemble.disturbance", [{"kind": "white"}, {"kind": "pink"}]),
        "ensemble.disturbance[1].kind"),
    "disturbance-list-impulse-without-step": (
        edit("ensemble.disturbance", [{"kind": "impulse", "vector": [1.0]}]),
        "ensemble.disturbance[0].step"),
    # every block refuses the keys its form does not read
    "no-system": (edit("system", ...), "system"),
    "linear-noise": (edit("system", {"linear": dict(LINEAR, noise={
        "components": ["rademacher"]})}), "system.linear.noise"),
    "quadratic-extra-key": (edit("storage", {"quadratic": {"P": [[1.0]], "p": 2.0}}),
                            "storage.quadratic.p"),
    "separable-extra-key": (
        edit("storage", {"separable": {"p": [1.0], "d": [2], "q": [1.0]}}),
        "storage.separable.q"),
    "linear-gain-extra-key": (
        dict(BASE, law={"linear_gain": {"K": [[-0.5]], "L": [[1.0]]}}),
        "law.linear_gain.L"),
    "noise-extra-key": (dict(BASE, noise={"components": ["rademacher"], "dims": 1}),
                        "noise.dims"),
    "noise-component-extra-key": (
        dict(BASE, noise={"components": [{"gaussian": [0.0, 1.0], "skew": 1}]}),
        "noise.components[0]"),
    "noise-component-two-forms": (
        dict(BASE, noise={"components": [{"uniform": [0.0, 1.0],
                                          "gaussian": [0.0, 1.0]}]}),
        "noise.components[0]"),
    "noise-component-empty": (dict(BASE, noise={"components": [{}]}),
                              "noise.components[0]"),
    "noise-component-not-number": (
        dict(BASE, noise={"components": [{"gaussian": [0.0, "1"]}]}),
        "noise.components[0]"),
    "noise-point-mass": (dict(BASE, noise={"components": [{"point_mass": 0.0}]}),
                         None),
    "certificate-unknown-key": (edit("certificate.foo", 1), "certificate.foo"),
    "certificate-search": (edit("certificate.search", True), "certificate.search"),
    "certificate-P": (edit("certificate.P", [[1.0]]), "certificate.P"),
    "external-without-beta": (edit("certificate.beta", ...), "certificate.beta"),
    "external-without-domain": (edit("certificate.domain", ...),
                                "certificate.domain"),
    "external-without-gamma": (edit("certificate.gamma_sq", ...), "certificate"),
    "external-c2": (edit("certificate.c2", 4.0), "certificate.c2"),
    "internal-without-c2": (edit("certificate", {"kind": "internal",
                                                 "domain": DOMAIN}),
                            "certificate.c2"),
    "internal-gamma": (edit("certificate", {"kind": "internal", "c2": 4.0,
                                            "gamma": 0.5, "domain": DOMAIN}),
                       "certificate.gamma"),
    "controller-gamma-and-gamma-sq": (
        edit("certificate", {"kind": "controller", "beta": 1.5, "gamma": 0.5,
                             "gamma_sq": 0.25, "domain": DOMAIN}), "certificate"),
    "gamma-star-gamma-sq": (edit("certificate", {
        "kind": "gamma-star", "p_grid": [1.0], "beta_grid": [1.5],
        "domain": DOMAIN, "gamma_sq": 0.001}), "certificate.gamma_sq"),
    "gamma-star-beta": (edit("certificate", {
        "kind": "gamma-star", "p_grid": [1.0], "beta_grid": [1.5],
        "domain": DOMAIN, "beta": 1.5}), "certificate.beta"),
    "gamma-star-without-p-grid": (edit("certificate", {
        "kind": "gamma-star", "beta_grid": [1.5], "domain": DOMAIN}),
        "certificate.p_grid"),
    "linear-brl-verify": (edit("certificate", {"kind": "linear-brl", "beta": 1.5,
                                               "gamma": 1.0}), None),
    "linear-brl-search": (edit("certificate", {"kind": "linear-brl",
                                               "gamma_sq": 1.0,
                                               "beta_grid": [1.5]}), None),
    "linear-brl-beta-and-grid": (edit("certificate", {
        "kind": "linear-brl", "beta": 1.5, "beta_grid": [1.5], "gamma_sq": 1.0}),
        "certificate"),
    "linear-brl-domain": (edit("certificate", {"kind": "linear-brl",
                                               "gamma_sq": 1.0,
                                               "domain": DOMAIN}),
                          "certificate.domain"),
    "linear-brl-scheme": (edit("certificate", {
        "kind": "linear-brl", "gamma_sq": 1.0, "scheme": {"mode": "closed-form"}}),
        "certificate.scheme"),
    "scheme-unknown-key": (edit("certificate.scheme.sampels", 50),
                           "certificate.scheme.sampels"),
    "closed-form-samples": (edit("certificate.scheme.samples", 50),
                            "certificate.scheme.samples"),
    "scheme-without-mode": (edit("certificate.scheme", {"samples": 50}),
                            "certificate.scheme.mode"),
    "domain-unknown-key": (edit("certificate.domain.gird", 3),
                           "certificate.domain.gird"),
    "domain-grid-and-random": (edit("certificate.domain.random", {"count": 3}),
                               "certificate.domain"),
    "random-unknown-key": (
        edit("certificate.domain", {"lo": [-1.0], "hi": [1.0],
                                    "random": {"count": 3, "sede": 1}}),
        "certificate.domain.random.sede"),
    "ensemble-unknown-key": (edit("ensemble.gamma", 0.5), "ensemble.gamma"),
    "output-unknown-key": (edit("output.fromats", ["csv"]), "output.fromats"),
    "white-decay": (edit("ensemble.disturbance.decay", 0.9),
                    "ensemble.disturbance.decay"),
    "zero-std": (edit("ensemble.disturbance", {"kind": "zero", "std": 1.0}),
                 "ensemble.disturbance.std"),
    "recorded-step": (edit("ensemble.disturbance", {
        "kind": "recorded", "values": [[1.0]], "step": 1}),
        "ensemble.disturbance.step"),
    "impulse-values": (edit("ensemble.disturbance", {
        "kind": "impulse", "step": 1, "vector": [1.0], "values": [[1.0]]}),
        "ensemble.disturbance.values"),
    "decaying-sine-vector": (edit("ensemble.disturbance", {
        "kind": "decaying-sine", "vector": [1.0]}), "ensemble.disturbance.vector"),
}

# a config that named a field of another form in each of three blocks
PER_FORM_FOUND = {
    "system": {"builtin": "example2", "params": {"a": 5.0}},
    "storage": {"quadratic": {"P": [[1.0]]}, "p": 9.0},
    "certificate": {"kind": "external", "beta": 1.5, "gamma": 0.5,
                    "gamma_sq": 4.0, "domain": DOMAIN},
}


def example_resolved_configs():
    # what `sbrl example 1|2` write as resolved_config.json: the shipped
    # config resolved, without output.dir
    configs = {}
    for n in (1, 2):
        cfg = cli.resolve_config(
            cli.load_config(ROOT / "src" / "sbrl" / f"example{n}.json"), 7)
        del cfg["output"]["dir"]
        configs[f"example{n}-resolved"] = cfg
    return configs


def bench_module(filename):
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))  # run.py does `import layers`
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{Path(filename).stem}", bench / filename)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def bench_workload_configs():
    return {f"workload-{name}": wl.config(7)
            for name, wl in bench_module("run.py").WORKLOADS.items()}


WORKLOAD_CONFIGS = bench_workload_configs()
CORPUS = {**{name: cfg for name, (cfg, _) in PROBES.items()},
          **{f"{name}-resolved": cli.resolve_config(cfg)
             for name, (cfg, path) in PROBES.items() if path is None},
          **example_resolved_configs(), **WORKLOAD_CONFIGS,
          "per-form-found": PER_FORM_FOUND}


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


def test_resolving_keeps_a_config_valid():
    # resolved_config.json is rerun as a config, so the defaults that
    # resolve_config fills must obey the schema too
    assert {name: cli.validate_config(cli.resolve_config(cfg))
            for name, (cfg, path) in PROBES.items() if path is None} \
        == {name: [] for name, (_, path) in PROBES.items() if path is None}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_violation_names_its_field(name):
    cfg, path = PROBES[name]
    errors = cli.validate_config(cfg)
    assert [e.split(": ", 1)[0] for e in errors] == ([] if path is None else [path])


def test_each_block_names_its_other_form_keys():
    errors = cli.validate_config(PER_FORM_FOUND)
    assert [e.split(": ", 1)[0] for e in errors] == [
        "system", "storage", "certificate"]


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_workload_configs_load(tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(WORKLOAD_CONFIGS[name]))
    assert cli.load_config(str(path)) == WORKLOAD_CONFIGS[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_workload_configs_build_as_the_setup_probe_does(name):
    # the benchmark times this build for every workload, so a change to the
    # library's *_from_config functions that breaks it fails here first
    probe = bench_module("setup_probe.py")
    probe.build(cli.resolve_config(WORKLOAD_CONFIGS[name]), library)


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


# ------------------------------------------ the commands read declared keys

class ReadLog(dict):
    """A config object that records the path of every key read from it
    through ``[]``, ``get`` or ``in``; nested objects record their own."""

    def __init__(self, node, path, reads):
        super().__init__({key: traced(value, path + (key,), reads)
                          for key, value in node.items()})
        self.path, self.reads = path, reads

    def __getitem__(self, key):
        self.reads.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(self.path + (key,))
        return super().get(key, default)

    def __contains__(self, key):
        self.reads.add(self.path + (key,))
        return super().__contains__(key)


def traced(node, path, reads):
    if isinstance(node, dict):
        return ReadLog(node, path, reads)
    if isinstance(node, list):
        return [traced(item, path + (i,), reads) for i, item in enumerate(node)]
    return node


def declared(schema, path):
    """Whether the schema declares the config node at ``path`` (keys, and
    ints for list items), following ``properties``, ``items``, ``$ref`` and
    ``oneOf``."""
    if "$ref" in schema:
        node = SCHEMA
        for part in schema["$ref"].removeprefix("#/").split("/"):
            node = node[part]
        return declared(node, path)
    if not path:
        return True
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        subs = [schema["items"]] if "items" in schema else []
    else:
        subs = [schema["properties"][key]] if key in schema.get("properties", {}) else []
    return (any(declared(sub, rest) for sub in subs)
            or any(declared(alt, path) for alt in schema.get("oneOf", ())))


def dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


CUBE = {"lo": [-1.0] * 3, "hi": [1.0] * 3, "grid": 2}
FEW_DRAWS = {"mode": "monte-carlo", "samples": 64, "antithetic": True}
EXAMPLE2 = {"system": {"builtin": "example2"}, "storage": {"builtin": "example2"},
            "law": {"builtin": "example2"}}
# command -> configs that between them give every optional key a reader
READ_RUNS = {
    "certify-internal": ("certify", {
        "seed": 3,
        "system": {"builtin": "example1",
                   "params": {"a": 0.9, "b": 0.01, "c": 0.2, "c1": 0.2}},
        "noise": {"dim": 1, "components": [{"point_mass": 0.0}]},
        "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "internal", "c2": 4.0,
                        "domain": {"lo": [-1.0], "hi": [1.0],
                                   "random": {"count": 3, "seed": 1}},
                        "scheme": FEW_DRAWS}}),
    "certify-external": ("certify", {
        "system": {"linear": LINEAR},
        "noise": {"components": ["rademacher"]},
        "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "external", "beta": 1.5, "gamma": 2.0,
                        "domain": {"lo": [-1.0], "hi": [1.0], "grid": 3}}}),
    "certify-external-closed-loop": ("certify", {
        **EXAMPLE2,
        "storage": {"separable": {"p": [1.0, 1.0, 1.0], "d": [2, 2, 2]}},
        "certificate": {"kind": "external", "beta": 1.2, "gamma_sq": 4.0,
                        "domain": CUBE, "scheme": {"mode": "closed-form"}}}),
    "certify-controller": ("certify", {
        **EXAMPLE2,
        "certificate": {"kind": "controller", "beta": 1.2, "gamma_sq": 0.5625,
                        "domain": CUBE, "scheme": FEW_DRAWS}}),
    "certify-linear-brl": ("certify", {
        "system": {"linear": LINEAR},
        "storage": {"quadratic": {"P": [[0.5]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0, "gamma": 1.5}}),
    "certify-linear-brl-storage": ("certify", {
        "system": {"linear": LINEAR},
        "noise": {"components": [{"gaussian": [0.0, 1.0]}]},
        "storage": {"quadratic": {"P": [[0.5]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0, "gamma_sq": 2.0}}),
    "certify-linear-brl-search": ("certify", {
        "system": {"linear": LINEAR},
        "certificate": {"kind": "linear-brl", "gamma_sq": 2.0,
                        "beta_grid": [1.5, 2.0]}}),
    "gain-certificate-gamma": ("gain", {
        **EXAMPLE2,
        "certificate": {"kind": "controller", "beta": 1.2, "gamma": 0.75,
                        "domain": CUBE},
        "ensemble": {"horizon": 5, "count": 2, "disturbance": {
            "kind": "decaying-sine", "decay": 0.9, "freqs": [0.3, 0.4],
            "phases": [0.0, 0.1], "amp_range": [0.5, 1.0]}}}),
    "certify-gamma-star": ("certify", {
        "system": {"builtin": "example1"},
        "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "gamma-star", "p_grid": [3.0, 4.0],
                        "beta_grid": [1.0 / 0.99, 1.5],
                        "domain": {"lo": [-1.0], "hi": [1.0], "grid": 5},
                        "scheme": {"mode": "closed-form"}}}),
    "gain-disturbance-list": ("gain", {
        "system": {"builtin": "example1"},
        "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "gamma-star", "p_grid": [4.0],
                        "beta_grid": [1.0 / 0.99],
                        "domain": {"lo": [-1.0], "hi": [1.0], "grid": 5},
                        "scheme": {"mode": "closed-form"}},
        "ensemble": {"horizon": 5, "count": 2, "disturbance": [
            {"kind": "white", "std": 0.5},
            {"kind": "recorded", "values": [[1.0]]}]}}),
    "gain-ensemble-gamma-sq": ("gain", {
        "system": {"linear": LINEAR},
        "ensemble": {"horizon": 5, "count": 2, "gamma_sq": 1.0,
                     "disturbance": {"kind": "impulse", "step": 1,
                                     "vector": [1.0]}}}),
    "simulate-recorded": ("simulate", {
        "system": {"builtin": "example2"},
        "law": {"linear_gain": {"K": [[-0.1, 0.0, 0.0], [0.0, -0.1, 0.0]]}},
        "ensemble": {"horizon": 3, "count": 2, "x0": [1.0, 0.0, 0.5],
                     "disturbance": {"kind": "recorded",
                                     "values": [[0.1, 0.0]]}}}),
    "simulate-white": ("simulate", {
        "system": {"linear": LINEAR},
        "noise": {"components": [{"uniform": [-3 ** 0.5, 3 ** 0.5]}]},
        "ensemble": {"horizon": 3, "count": 2,
                     "disturbance": {"kind": "white", "std": 0.5}}}),
    "simulate-zero": ("simulate", {
        "system": {"builtin": "example2"}, "law": {"zero": 2},
        "ensemble": {"horizon": 3, "count": 1,
                     "disturbance": {"kind": "zero"}}}),
}
COMMANDS = {"certify": cli.cmd_certify, "gain": cli.cmd_gain,
            "simulate": cli.cmd_simulate}


@pytest.fixture(scope="module")
def read_runs(tmp_path_factory):
    """name -> (resolved config, exit code, output dir, key paths read) of
    every READ_RUNS run, each traced through its command."""
    runs = {}
    for name, (command, cfg) in READ_RUNS.items():
        out = tmp_path_factory.mktemp(name)
        resolved = cli.resolve_config(cfg, out_override=out)
        reads = set()
        code = COMMANDS[command](traced(resolved, (), reads))
        runs[name] = resolved, code, out, reads
    return runs


@pytest.mark.parametrize("name", sorted(READ_RUNS))
def test_commands_read_only_declared_keys(read_runs, name):
    assert cli.validate_config(READ_RUNS[name][1]) == []
    _, code, out, reads = read_runs[name]
    assert code in (0, 1, 2)
    assert (out / "report.json").exists() and reads
    undeclared = sorted(dotted(path) for path in reads
                        if not declared(SCHEMA, path))
    assert undeclared == []


# the blocks that take one form of several, and their schema nodes
FORM_BLOCKS = {"certificate": SCHEMA["properties"]["certificate"],
               "scheme": SCHEMA["definitions"]["scheme"],
               "domain": SCHEMA["definitions"]["domain"],
               "disturbance": SCHEMA["definitions"]["disturbance"]}


def form_blocks(cfg):
    """(block name, config path) of every form-taking block in ``cfg``."""
    if "certificate" in cfg:
        yield "certificate", ("certificate",)
        for key in ("scheme", "domain"):
            if key in cfg["certificate"]:
                yield key, ("certificate", key)
    if "ensemble" in cfg:
        items = cfg["ensemble"]["disturbance"]
        if isinstance(items, list):
            for i in range(len(items)):
                yield "disturbance", ("ensemble", "disturbance", i)
        else:
            yield "disturbance", ("ensemble", "disturbance")


def node_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def present(cfg, path):
    try:
        node_at(cfg, path)
    except (KeyError, IndexError, TypeError):
        return False
    return True


def form_label(alt, index):
    """An alternative's const value (its kind or mode), else its index."""
    return next((sub["const"] for sub in alt.get("properties", {}).values()
                 if isinstance(sub, dict) and "const" in sub), index)


def accepted_keys(block, alt):
    """The key paths, nested ones of inline objects included, that one
    alternative of ``block`` accepts."""
    outer = FORM_BLOCKS[block]["properties"]
    props = alt.get("properties", {})
    if alt.get("additionalProperties", True) is False:
        keys = [key for key, sub in props.items() if sub is not False]
    else:
        keys = [key for key in outer if props.get(key, True) is not False]
    return {(key,) + sub for key in keys
            for sub in [()] + [(inner,) for inner in
                               outer[key].get("properties", {})]}


@pytest.mark.parametrize("block", sorted(FORM_BLOCKS))
def test_every_accepted_key_has_a_reader(read_runs, block):
    # the converse of test_commands_read_only_declared_keys: each key that
    # a form of the block accepts is read by some run of that form
    alts = FORM_BLOCKS[block]["oneOf"]
    read = {i: set() for i in range(len(alts))}
    for resolved, _, _, reads in read_runs.values():
        for name, path in form_blocks(resolved):
            if name != block:
                continue
            node = node_at(resolved, path)
            form, = [i for i, alt in enumerate(alts)
                     if not cli._violations(alt, node)]
            read[form] |= {r[len(path):] for r in reads
                           if r[:len(path)] == path and len(r) > len(path)
                           and present(resolved, r)}
    unread = sorted(f"{block}[{form_label(alt, i)}].{dotted(key)}"
                    for i, alt in enumerate(alts)
                    for key in accepted_keys(block, alt) - read[i])
    assert unread == []
