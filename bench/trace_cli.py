"""Run the ``sbrl`` CLI with spans recorded around each layer's public calls.

Usage:

    python3 bench/trace_cli.py SPANS_JSON WORKLOAD_ID -- <sbrl CLI arguments>

The tracer works from the outside: it imports ``sbrl``, replaces each
function listed in TARGETS with a wrapper that records one span per call
(name, start, end, parent span and workload id, plus a few work counts
taken at the same boundary), then calls ``sbrl.cli.main``.  Several modules
import functions by name (``synth.check_external``, ``cli.simulate``,
``cli.line_plot``, ``certify.simulate_ensemble``, ``certify.expect``), so
every module attribute that still points at a replaced function is rebound
to its wrapper; without that, those calls would go untraced.

Spans are kept in memory and written out once, when the CLI returns.  The
process exits with the CLI's own exit code.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np


def _rows(arr):
    return int(np.shape(arr)[0])


def _sample_attrs(args, kwargs, result, exc):
    return (_rows(result),) if exc is None else None


def _batch_attrs(args, kwargs, result, exc):
    return (_rows(args[1]),)


def _point_attrs(args, kwargs, result, exc):
    # (V, system, x, beta, ...): identifies one per-point evaluation
    x = tuple(np.asarray(args[2], dtype=float).ravel().tolist())
    return (id(args[0]), float(args[3]), x)


def _simulate_attrs(args, kwargs, result, exc):
    if exc is None:
        return (int(result.horizon), 0)
    traj = getattr(exc, "trajectory", None)
    return (int(traj.horizon) if traj is not None else 0, 1)


def _search_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return (int(result.feasible_count), int(result.candidates_checked))


def _csv_attrs(args, kwargs, result, exc):
    writer, name, rows = args[0], args[1], args[3]
    return (len(rows), os.path.getsize(writer.out / name))


# (module, qualified name, work-count extractor).  These are the layer
# boundaries the per-layer metrics are computed from; see bench/layers.py.
TARGETS = [
    ("cli", "main", None),
    ("noise", "NoiseModel.sample", _sample_attrs),
    ("noise", "expect", None),
    ("storage", "QuadraticStorage.evaluate_batch", _batch_attrs),
    ("storage", "SeparableStorage.evaluate_batch", _batch_attrs),
    ("certify", "h1", _point_attrs),
    ("certify", "g_beta", _point_attrs),
    ("certify", "check_external", None),
    ("certify", "gamma_star_search", _search_attrs),
    ("certify", "empirical_gain", None),
    ("synth", "certify_controller", None),
    ("dynamics", "simulate", _simulate_attrs),
    ("dynamics", "simulate_ensemble", None),
    ("dynamics", "DisturbancePolicy.value", None),
    ("dynamics", "trajectory_csv_rows", None),
    ("cli", "RunWriter.write_csv", _csv_attrs),
    ("cli", "RunWriter.write_json", None),
    ("svg", "line_plot", None),
]


class Tracer:
    """Collects spans in memory, one column per field.

    Columns of floats, ints and tuples of atomic values are not scanned by
    the garbage collector; one list per span would be, and on workloads
    that allocate heavily that alone doubled the tracing overhead.
    """

    def __init__(self, workload_id):
        self.workload_id = workload_id
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.attrs = [], []
        self._stack = []

    def wrap(self, name, fn, attrs):
        names, starts, ends = self.names, self.starts, self.ends
        parents, span_attrs = self.parents, self.attrs
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            span_attrs.append(None)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if attrs is not None:
                    span_attrs[i] = attrs(args, kwargs, None, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if attrs is not None:
                span_attrs[i] = attrs(args, kwargs, result, None)
            return result

        return traced

    def install(self):
        """Replace every target and rebind by-name imports of it."""
        modules = {name: importlib.import_module(f"sbrl.{name}")
                   for name in sorted({mod for mod, _, _ in TARGETS})}
        replaced = {}
        for mod_name, qualname, attrs in TARGETS:
            owner = modules[mod_name]
            *outer, leaf = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                print(f"trace: sbrl.{mod_name}.{qualname} not found; untraced",
                      file=sys.stderr)
                continue
            wrapper = self.wrap(f"{mod_name}.{qualname}", original, attrs)
            setattr(owner, leaf, wrapper)
            if not outer:
                # the wrapper keeps the original alive, so its id stays unique
                replaced[id(original)] = wrapper
        for mod in [m for n, m in sys.modules.items()
                    if n == "sbrl" or n.startswith("sbrl.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

    def dump(self, path):
        """Write the spans as columns; every span has the run's workload id."""
        doc = {"workload": self.workload_id, "name": self.names,
               "start": self.starts, "end": self.ends,
               "parent": self.parents, "attrs": self.attrs}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, workload_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(workload_id)
    tracer.install()
    from sbrl import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
