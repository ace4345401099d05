"""Sampled-inequality certificates and the one sweep engine.

Every sampled check is a family of inequalities lhs <= rhs over a point
set, and ``sweep`` is the only loop that runs one.  Each inequality is a
block form ``fn(X, draws)`` that gives one ``Row``, or a list of them, per
point of the (B, n) block X and its ``PointDraws`` (None in closed form or
without a scheme), evaluated in the declared order under one
``np.errstate(over="ignore", invalid="ignore")``.  The margins lhs - rhs
decide one status:

  certified    every margin <= tol      (tol = 1e-9 + 1e-7 * scale + slack)
  falsified    some margin >  tol + 3 * std-error (wins over the rest)
  inconclusive anything else: a margin above tol within 3 std-errors, a
               NaN or -inf margin (an overflowed side), a NaN or infinite
               std-error (an overflowed spread), an empty sweep, a
               lower-bound-only lhs (a sampled supremum) or a scope the
               caller flags

A block form raising ``EvaluationError`` (a non-finite Monte Carlo
integrand) or ``FloatingPointError`` (numpy under a user map's own
``np.errstate``) reruns its block on one-point slices, and a point that
still raises gives its inequality a NaN row there, with the message in its
info.  A block form must give each row the bits of its point alone, so the
rerun moves no bit.  Per inequality the engine records the largest lhs and
its first point.  Certificates speak only for the sampled domain, whose
label they carry.

The engine visits the points in blocks of ``scheme.points_per_block()``
(one without a scheme).  Under Monte Carlo each point's seed is derived
once, a span of points is seeded from one table
(``ExpectationScheme.draws_at``), and each block's draws are filled once
into one buffer that every inequality at the block shares.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

ABS_TOL = 1e-9
REL_TOL = 1e-7


def base_tolerance(scale: float) -> float:
    """Absolute 1e-9 plus relative 1e-7 of the larger inequality side; an
    infinite side lies beyond every rounding error, so it adds nothing and
    an infinite lhs exceeds its tolerance."""
    scale = abs(scale)
    return ABS_TOL + (0.0 if scale == math.inf else REL_TOL * scale)


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


def sweep(points, scheme, inequalities, statement="", domain="",
          provenance=None, notes=(), force_inconclusive=False,
          early_exit=False):
    """Run ``inequalities`` ({name: block form}) over ``points``;
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


# Sweep points whose seeds are hashed and tabulated together: one table
# per span keeps the seeding vectorised, a sweep that exits early (the
# gamma-star H1 sweeps) hashes at most this many points it never visits,
# and the table's temporaries stay small.  On the sweep-mc certify (8001
# points, 2-vCPU x86-64 host) spans of 256 and 1024 points ran alike, and
# peak RSS was at the parent's with 256, 0.1-0.2 MB above it with 1024 and
# 0.9 MB above it with one table for the whole sweep.
SEED_SPAN = 256


def _evaluated(points, scheme, inequalities):
    """(point, its rows per inequality) in point order, block by block."""
    size = 1 if scheme is None else scheme.points_per_block()
    span = size * -(-SEED_SPAN // size)
    for first in range(0, len(points), span):
        part = points[first:first + span]
        draws = None if scheme is None else scheme.draws_at(part)
        for start in range(0, len(part), size):
            block = part[start:start + size]
            at_block = None if draws is None else draws.block(
                start, start + len(block))
            found = [_block_rows(name, fn, block, at_block)
                     for name, fn in inequalities.items()]
            yield from zip(block, zip(*found))


def _block_rows(name, fn, block, draws):
    """One inequality's rows at each point of a block; ``draws`` is the
    block's ``PointDraws``, or None without Monte Carlo."""
    X = np.array(block)
    if len(block) > 1:
        try:
            return fn(X, draws)
        except (EvaluationError, FloatingPointError):
            pass  # found point by point below
    rows = []
    for i in range(len(block)):
        try:
            rows.append(fn(X[i:i + 1], None if draws is None
                           else draws.block(i, i + 1))[0])
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
        if math.isnan(margin) or not math.isfinite(se) or margin == -math.inf:
            # every comparison with NaN is false, so it would pass as "within
            # tolerance", and so would a -inf margin, which only an overflowed
            # side gives; an infinite std-error, which only an overflowed
            # spread gives, would pass a margin below tol although the error
            # bar holds no value; the first such point becomes the witness
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
