"""Sampled-inequality certificates and the one sweep engine.

Every sampled check is a family of inequalities lhs <= rhs over a point
set, and ``sweep`` is the only loop that runs one.  Each inequality is a
function ``fn(point, scheme.at(point)) -> Row | [Row, ...]``, evaluated in
the declared order under one ``np.errstate(over="ignore", invalid="ignore")``.
The margins lhs - rhs decide one status:

  certified    every margin <= tol      (tol = 1e-9 + 1e-7 * scale + slack)
  falsified    some margin >  tol + 3 * std-error (wins over the rest)
  inconclusive anything else: a margin above tol within 3 std-errors, a
               NaN or -inf margin (an overflowed side), a NaN std-error, an
               empty sweep, a lower-bound-only lhs (a sampled supremum) or a
               scope the caller flags

A function raising ``EvaluationError`` (a non-finite Monte Carlo integrand)
or ``FloatingPointError`` (numpy under a user map's own ``np.errstate``) at
a point gives its inequality a NaN row there, with the message in its info.
Per inequality the engine records the largest lhs and its first point.
Certificates speak only for the sampled domain, whose label they carry.

The engine visits the points in blocks of ``scheme.points_per_block()``
(one without a scheme or in closed form).  An inequality given as
``Batched(fn, block)`` also has a block form ``block(X, schemes) -> [Row]``,
one row per point of the (B, n) block X, that must give the bits of ``fn``
at each point and raise wherever ``fn`` would raise at some point of X
(``fn`` under Monte Carlo is the block body at one point).  It is used for
blocks of two or more points; a block form that raises has that block run
through ``fn`` point by point, so NaN rows, witnesses and messages stay
those of ``fn``.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

ABS_TOL = 1e-9
REL_TOL = 1e-7


def base_tolerance(scale: float) -> float:
    """Absolute 1e-9 plus relative 1e-7 of the larger inequality side."""
    return ABS_TOL + REL_TOL * abs(scale)


@dataclass
class Certificate:
    """Outcome of one sampled inequality check; ``tolerance`` is the one
    ``worst_margin`` was judged against (1e-9 when no margin is a number)."""

    status: str
    inequality: str
    domain: str
    worst_margin: float
    witness: dict | None
    provenance: dict
    tolerance: float
    notes: list = field(default_factory=list)

    @property
    def certified(self):
        return self.status == "certified"

    def to_dict(self):
        return asdict(self)


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


@dataclass
class Record:
    """Per inequality: largest lhs, its first point, lower-bound, NaN or
    -inf margin seen."""

    lhs: float = -math.inf
    point: list | None = None
    lower_bound_only: bool = False
    nan: bool = False


class Batched(NamedTuple):
    """A per-point inequality ``fn(point, scheme)`` with its block form."""

    fn: object
    block: object


def sweep(points, scheme, inequalities, statement="", domain="",
          provenance=None, notes=(), force_inconclusive=False,
          early_exit=False):
    """Run ``inequalities`` ({name: fn or Batched}) over ``points``;
    ``scheme`` is None for checks without expectations.  ``early_exit``
    stops after the first point that rules out certification.  Returns
    (Certificate, {name: Record}).
    """
    acc = _MarginSweep()
    records = {name: Record() for name in inequalities}
    with np.errstate(over="ignore", invalid="ignore"):
        for pt, rows_by_name in _evaluated(points, scheme, inequalities):
            for name, rows in zip(inequalities, rows_by_name):
                for row in [rows] if isinstance(rows, Row) else rows:
                    acc.add(row, pt if row.point is None else row.point,
                            records[name])
            if early_exit and not acc.may_certify:
                break
    return acc.finalize(statement, domain, provenance or {}, notes,
                        force_inconclusive), records


def _evaluated(points, scheme, inequalities):
    """(point, its rows per inequality) in point order, block by block."""
    forms = [(name, *fn) if isinstance(fn, Batched) else (name, fn, None)
             for name, fn in inequalities.items()]
    size = 1 if scheme is None else scheme.points_per_block()
    count = len(points)
    for start in range(0, count, size):
        block = [points[i] for i in range(start, min(start + size, count))]
        schemes = [None if scheme is None else scheme.at(pt) for pt in block]
        found = [_block_rows(form, block, schemes) for form in forms]
        yield from zip(block, zip(*found))


def _block_rows(form, block, schemes):
    """One inequality's rows at each point of a block."""
    name, fn, batch = form
    if batch is not None and len(block) > 1:
        try:
            return batch(np.array(block), schemes)
        except (EvaluationError, FloatingPointError):
            pass  # found point by point below
    rows = []
    for pt, scheme in zip(block, schemes):
        try:
            rows.append(fn(pt, scheme))
        except (EvaluationError, FloatingPointError) as exc:
            rows.append(Row(math.nan, std_error=math.nan,
                            info={"inequality": name, "error": str(exc)}))
    return rows


class _MarginSweep:
    """Accumulates rows and applies the status rule above."""

    def __init__(self):
        self.worst, self.worst_info, self.worst_tol = -np.inf, None, ABS_TOL
        self.violation = self.nan = None
        self.ok, self.lower_bound, self.count = True, False, 0

    @property
    def may_certify(self):
        return self.ok and self.nan is None and not self.lower_bound

    def add(self, row, point, record):
        margin, se = float(row.lhs - row.rhs), float(row.std_error)
        self.count += 1
        if row.lower_bound_only:
            self.lower_bound = record.lower_bound_only = True
        if row.lhs > record.lhs:
            record.lhs, record.point = float(row.lhs), _jsonable(point)
        if math.isnan(margin) or math.isnan(se) or margin == -math.inf:
            # every comparison with NaN is false, so it would pass as "within
            # tolerance", and so would a -inf margin, which only an overflowed
            # side gives; the first such point becomes the witness
            record.nan = True
            if self.nan is None:
                self.nan = _witness(point, row, margin, se)
            return
        tol = base_tolerance(row.scale) + float(row.slack)
        if margin > self.worst:
            self.worst, self.worst_tol = margin, tol
            self.worst_info = {"point": _jsonable(point),
                               "info": _jsonable(row.info)}
        excess = margin - (tol + 3.0 * se)
        if excess > 0.0 and (self.violation is None
                             or excess > self.violation[0]):
            self.violation = (excess, _witness(point, row, margin, se))
        self.ok = self.ok and margin <= tol

    def finalize(self, statement, domain, provenance, notes,
                 force_inconclusive) -> Certificate:
        if self.violation is not None:
            status, witness = "falsified", self.violation[1]
        elif self.nan is not None:
            status, witness = "inconclusive", self.nan
        elif self.may_certify and self.count and not force_inconclusive:
            status, witness = "certified", None
        else:
            status, witness = "inconclusive", self.worst_info
        return Certificate(
            status, statement, domain,
            float(self.worst) if self.count else 0.0, witness,
            dict(provenance, samples_checked=self.count, slack=0.0),
            self.worst_tol, list(notes))


def _witness(point, row, margin, std_error):
    return {"point": _jsonable(point), "margin": margin,
            "std_error": std_error, "info": _jsonable(row.info)}


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
