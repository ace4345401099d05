"""The numpy fold of ``certificates.sweep`` against the per-row scan it
replaced.

``reference_sweep`` below is the engine as it was written row by row: one
``Row`` per row, visited in point order, then declaration order, then row
order, each folded by ``add``.  The engine now folds each block's ``Rows``
arrays at once; it must give the same certificate and records, bit for bit,
on any rows: NaN and -inf margins, infinite and NaN standard errors, +inf
lhs, exact ties across inequalities and points, lower-bound-only rows,
slack, several rows per point, override points and rows of a block that
raises.
"""

import json
import math
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sbrl import certify, library, noise
from sbrl.certificates import Certificate, Record, Rows, _jsonable, sweep
from sbrl.errors import EvaluationError
from sbrl.noise import ExpectationScheme
from sbrl.storage import DomainBox


class Row(NamedTuple):
    """One sampled ``lhs <= rhs``; ``point`` overrides the sweep point as
    witness, and a ``lower_bound_only`` lhs can falsify but never certify."""

    lhs: float
    rhs: float = 0.0
    std_error: float = 0.0
    scale: float = 1.0
    info: object = None
    slack: float = 0.0
    point: object = None
    lower_bound_only: bool = False


class ReferenceScan:
    """The per-row accumulator the numpy fold replaced, as it was."""

    def __init__(self):
        self.worst, self.worst_info, self.worst_tol = -np.inf, None, 1e-9
        self.violation = self.nan = None
        self.ok, self.lower_bound, self.count = True, False, 0

    def add(self, row, point, record):
        margin, se = float(row.lhs - row.rhs), float(row.std_error)
        self.count += 1
        if row.lower_bound_only:
            self.lower_bound = record.lower_bound_only = True
        if row.lhs > record.lhs:
            record.lhs, record.point = float(row.lhs), _jsonable(point)
        if math.isnan(margin) or not math.isfinite(se) or margin == -math.inf:
            record.nan = True
            if self.nan is None:
                self.nan = self.witness(point, row, margin, se)
            return
        scale = abs(row.scale)
        tol = 1e-9 + (0.0 if scale == math.inf else 1e-7 * scale) \
            + float(row.slack)
        if margin > self.worst:
            self.worst, self.worst_tol = margin, tol
            self.worst_info = {"point": _jsonable(point),
                               "info": _jsonable(row.info)}
        excess = margin - (tol + 3.0 * se)
        if excess > 0.0 and (self.violation is None
                             or excess > self.violation[0]):
            self.violation = (excess, self.witness(point, row, margin, se))
        self.ok = self.ok and margin <= tol

    @staticmethod
    def witness(point, row, margin, std_error):
        return {"point": _jsonable(point), "margin": margin,
                "std_error": std_error, "info": _jsonable(row.info)}

    def finalize(self, flagged):
        may_certify = self.ok and self.nan is None and not self.lower_bound
        if self.violation is not None:
            status, witness = "falsified", self.violation[1]
        elif self.nan is not None:
            status, witness = "inconclusive", self.nan
        elif may_certify and self.count and flagged is None:
            status, witness = "certified", None
        elif flagged is not None:  # a flagged scope names its own witness
            status, witness = "inconclusive", flagged
        else:
            status, witness = "inconclusive", self.worst_info
        return Certificate(
            status, "", "", float(self.worst) if self.count else 0.0,
            witness, {"samples_checked": self.count, "slack": 0.0},
            self.worst_tol, [])


def reference_sweep(points, rows_at, names, flagged):
    """The per-point loop: ``rows_at(i, name)`` lists point i's rows."""
    acc = ReferenceScan()
    records = {name: Record() for name in names}
    for i, pt in enumerate(points):
        for name in names:
            for row in rows_at(i, name):
                acc.add(row, pt if row.point is None else row.point,
                        records[name])
    return acc.finalize(flagged), records


class Blocks:
    """A scheme stand-in without draws: blocks of ``size`` points."""

    def __init__(self, size):
        self.size = size

    def points_per_block(self):
        return self.size

    def draws_at(self, points):
        return self

    def block(self, start, stop):
        return None


# few distinct values, so that exact ties across rows are common
LHS = [0.0, -0.0, 1.0, -1.0, 1e-9, 3e-9, 0.5, math.nan, -math.inf, math.inf]
RHS = [0.0, 0.5, 1.0, math.inf]
SE = [0.0, 0.0, 1e-10, 0.2, math.inf, math.nan]
SCALE = [1.0, 0.0, -2.0, 1e3, math.inf, math.nan]
SLACK = [0.0, 0.0, 1e-9, 0.6]
ROW = st.tuples(*(st.sampled_from(v) for v in (LHS, RHS, SE, SCALE, SLACK)),
                st.sampled_from([-2.0, 0.25, 7.0]))


@st.composite
def inequality(draw, n_points):
    """One inequality's rows at every point and how it gives them."""
    per_point = draw(st.integers(1, 3))
    return {
        "rows": [[draw(ROW) for _ in range(per_point)]
                 for _ in range(n_points)],
        "per_point": per_point,
        "override": draw(st.booleans()),
        "row_info": draw(st.booleans()),
        "lower_bound_only": draw(st.booleans()),
        "raises": draw(st.sets(st.integers(0, n_points - 1), max_size=2)),
    }


@st.composite
def sweeps(draw):
    n_points = draw(st.integers(1, 7))
    names = [f"q{j}" for j in range(draw(st.integers(1, 3)))]
    return (n_points, draw(st.integers(1, 4)),
            {name: draw(inequality(n_points)) for name in names},
            draw(st.booleans()))


def block_form(name, spec):
    """The block form giving ``spec``'s rows at the points of a block;
    sweep point i is the row (i,)."""
    per_point = spec["per_point"]

    def form(X, draws):
        at = X[:, 0].astype(int)
        if spec["raises"] & set(at.tolist()):
            raise EvaluationError("boom")
        rows = [row for i in at for row in spec["rows"][i]]
        lhs, rhs, se, scale, slack, shift = (np.array(c) for c in zip(*rows))
        return Rows(
            lhs,
            (lambda r: {"inequality": name, "row": r % per_point,
                        "at": int(at[r // per_point])})
            if spec["row_info"] else {"inequality": name},
            rhs, se, scale, slack,
            index=np.repeat(np.arange(len(X)), per_point)
            if per_point > 1 else None,
            point=(np.repeat(X, per_point, axis=0) + shift[:, None])
            if spec["override"] else None,
            lower_bound_only=spec["lower_bound_only"])
    return form


def reference_rows(name, spec):
    def rows_at(i, _):
        if i in spec["raises"]:
            return [Row(math.nan, std_error=math.nan,
                        info={"inequality": name, "error": "boom"})]
        return [Row(lhs, rhs, se, scale,
                    {"inequality": name, "row": r, "at": i}
                    if spec["row_info"] else {"inequality": name},
                    slack,
                    np.array([i + shift]) if spec["override"] else None,
                    spec["lower_bound_only"])
                for r, (lhs, rhs, se, scale, slack, shift)
                in enumerate(spec["rows"][i])]
    return rows_at


def as_bytes(cert, records):
    return (json.dumps(cert.to_dict()),
            [repr(record) for record in records.values()])


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_the_fold_gives_the_per_row_scan_bit_for_bit(case):
    n_points, size, specs, flag = case
    flagged = {"point": [-1.0], "info": {"flagged": True}} if flag else None
    points = np.arange(n_points, dtype=float)[:, None]
    got = sweep(points, Blocks(size),
                {name: block_form(name, spec) for name, spec in specs.items()},
                provenance={}, flagged=flagged)
    forms = {name: reference_rows(name, spec) for name, spec in specs.items()}
    expected = reference_sweep(points, lambda i, name: forms[name](i, name),
                               list(specs), flagged)
    assert as_bytes(*got) == as_bytes(*expected)


def test_ties_go_to_the_first_point_then_the_first_inequality():
    # two inequalities tie on the worst margin at points 0 and 1, and on
    # the largest excess; the per-row scan meets point 0 of "b" first
    def form(name, values):
        return lambda X, _: Rows(np.array([values[int(i)] for i in X[:, 0]]),
                                 {"inequality": name})

    points = np.arange(3, dtype=float)[:, None]
    forms = {"a": form("a", [0.0, 2.0, 2.0]), "b": form("b", [2.0, 2.0, 0.0])}
    cert, records = sweep(points, Blocks(3), forms)
    assert cert.status == "falsified"
    assert cert.witness == {"point": [0.0], "margin": 2.0, "std_error": 0.0,
                            "info": {"inequality": "b"}}
    assert (records["a"].point, records["b"].point) == ([1.0], [0.0])


def test_early_exit_keeps_the_verdict_of_the_full_sweep(monkeypatch):
    # the gamma-star H1 pre-check reads .certified alone: over example 1's
    # candidates, a sweep that stops after the first block ruling out
    # certification gives the full sweep's, and some stop early
    monkeypatch.setattr(noise, "SWEEP_ROWS", 40 * 30)
    sys1 = library.example1_system()
    points = DomainBox((-10.0,), (10.0,), ("grid", 201)).points()
    stopped = 0
    for scheme in (ExpectationScheme(mode="closed-form"),
                   ExpectationScheme(samples=30, seed=7)):
        for p in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0):
            V = library.example1_storage(p)
            for beta in (1.002, 1.005, 1.0 / 0.99, 1.02, 1.05, 1.1, 1.5, 2.0):
                forms = {"H1": certify._split_rows("H1", V, sys1, beta)}
                early, _ = sweep(points, scheme, forms, early_exit=True)
                full, _ = sweep(points, scheme, forms)
                assert early.certified == full.certified
                checked = early.provenance["samples_checked"]
                stopped += checked < len(points)
                if early.certified:
                    assert checked == len(points)
    assert stopped > 0
