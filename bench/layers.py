"""Per-layer metrics from the spans that bench/trace_cli.py records.

A span's self time is its duration minus the part covered by its child
spans.  Spans come from one thread, so children never overlap and the
covered part is the sum of their durations.

Each metric is computed per traced CLI run; bench/run.py reports the median
over the runs of one benchmark invocation.  Layers are named after the
``sbrl`` modules, in pipeline order noise -> storage -> certify (per-point
functionals and sweeps) -> synth -> dynamics -> emission, plus set-up.
"""

import statistics

# name -> unit; the order is the order they are printed in
UNITS = {
    "noise.sample.calls": "count",
    "noise.sample.rows": "count",
    "noise.sample.s": "s",
    "noise.expect.calls": "count",
    "noise.expect.self_s": "s",
    "storage.evaluate_batch.quadratic.rows": "count",
    "storage.evaluate_batch.quadratic.s": "s",
    "storage.evaluate_batch.separable.rows": "count",
    "storage.evaluate_batch.separable.s": "s",
    "certify.points": "count",
    "certify.h1.calls": "count",
    "certify.h1.self_s": "s",
    "certify.g_beta.calls": "count",
    "certify.g_beta.self_s": "s",
    "certify.point_s.p50": "s",
    "certify.point_s.p99": "s",
    "certify.check_external.s": "s",
    "certify.gamma_star_search.s": "s",
    "certify.gamma_star_search.feasible_ratio": "ratio",
    "certify.empirical_gain.s": "s",
    "synth.certify_controller.s": "s",
    "dynamics.simulate.calls": "count",
    "dynamics.member_steps": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.simulate_ensemble.s": "s",
    "dynamics.policy_v.calls": "count",
    "dynamics.policy_v.s": "s",
    "dynamics.diverged": "count",
    "emit.csv.rows": "count",
    "emit.csv.bytes": "B",
    "emit.csv.s": "s",
    "emit.svg.s": "s",
    "emit.json.s": "s",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "setup.build_s": "s",
    "trace.overhead_frac": "ratio",
}

NO_SPANS = {"name": [], "start": [], "end": [], "parent": [], "attrs": []}

_SWEEPS = ("certify.check_external", "certify.gamma_star_search")


def _quantile(values, q):
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(doc):
    """Layer metrics of one traced run, from the columns trace_cli wrote.

    Returns every metric in UNITS except the ``setup.*`` and ``trace.*``
    ones, which come from other processes.
    """
    names, parents, span_attrs = doc["name"], doc["parent"], doc["attrs"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child_s = [0.0] * len(names)
    for parent, d in zip(parents, dur):
        if parent >= 0:
            child_s[parent] += d
    calls, total, self_s, attrs = {}, {}, {}, {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child_s[i]
        if span_attrs[i] is not None:
            attrs.setdefault(name, []).append(span_attrs[i])

    def attr_sum(name, field):
        return sum(a[field] for a in attrs.get(name, ()))

    # one certify point = the h1 and g_beta evaluations of one (storage,
    # beta, x) inside one sweep; its time is the sum of their spans
    point_s = {}
    for i, name in enumerate(names):
        if name not in ("certify.h1", "certify.g_beta"):
            continue
        sweep = parents[i]
        while sweep >= 0 and names[sweep] not in _SWEEPS:
            sweep = parents[sweep]
        storage_id, beta, x = span_attrs[i]
        key = (sweep, storage_id, beta, tuple(x))
        point_s[key] = point_s.get(key, 0.0) + dur[i]
    point_times = list(point_s.values())
    checked = attr_sum("certify.gamma_star_search", 1)

    return {
        "noise.sample.calls": calls.get("noise.NoiseModel.sample", 0),
        "noise.sample.rows": attr_sum("noise.NoiseModel.sample", 0),
        "noise.sample.s": total.get("noise.NoiseModel.sample", 0.0),
        "noise.expect.calls": calls.get("noise.expect", 0),
        "noise.expect.self_s": self_s.get("noise.expect", 0.0),
        "storage.evaluate_batch.quadratic.rows":
            attr_sum("storage.QuadraticStorage.evaluate_batch", 0),
        "storage.evaluate_batch.quadratic.s":
            total.get("storage.QuadraticStorage.evaluate_batch", 0.0),
        "storage.evaluate_batch.separable.rows":
            attr_sum("storage.SeparableStorage.evaluate_batch", 0),
        "storage.evaluate_batch.separable.s":
            total.get("storage.SeparableStorage.evaluate_batch", 0.0),
        "certify.points": len(point_times),
        "certify.h1.calls": calls.get("certify.h1", 0),
        "certify.h1.self_s": self_s.get("certify.h1", 0.0),
        "certify.g_beta.calls": calls.get("certify.g_beta", 0),
        "certify.g_beta.self_s": self_s.get("certify.g_beta", 0.0),
        "certify.point_s.p50": _quantile(point_times, 0.50),
        "certify.point_s.p99": _quantile(point_times, 0.99),
        "certify.check_external.s": total.get("certify.check_external", 0.0),
        "certify.gamma_star_search.s":
            total.get("certify.gamma_star_search", 0.0),
        "certify.gamma_star_search.feasible_ratio":
            attr_sum("certify.gamma_star_search", 0) / checked
            if checked else 0.0,
        "certify.empirical_gain.s": total.get("certify.empirical_gain", 0.0),
        "synth.certify_controller.s":
            total.get("synth.certify_controller", 0.0),
        "dynamics.simulate.calls": calls.get("dynamics.simulate", 0),
        "dynamics.member_steps": attr_sum("dynamics.simulate", 0),
        "dynamics.simulate.self_s": self_s.get("dynamics.simulate", 0.0),
        "dynamics.simulate_ensemble.s":
            total.get("dynamics.simulate_ensemble", 0.0),
        "dynamics.policy_v.calls":
            calls.get("dynamics.DisturbancePolicy.value", 0),
        "dynamics.policy_v.s":
            total.get("dynamics.DisturbancePolicy.value", 0.0),
        "dynamics.diverged": attr_sum("dynamics.simulate", 1),
        "emit.csv.rows": attr_sum("cli.RunWriter.write_csv", 0),
        "emit.csv.bytes": attr_sum("cli.RunWriter.write_csv", 1),
        "emit.csv.s": total.get("dynamics.trajectory_csv_rows", 0.0)
            + total.get("cli.RunWriter.write_csv", 0.0),
        "emit.svg.s": total.get("svg.line_plot", 0.0),
        "emit.json.s": total.get("cli.RunWriter.write_json", 0.0),
    }


def median_metrics(runs):
    """Per-metric median over a list of metric dicts with the same keys."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
