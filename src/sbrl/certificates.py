"""Sampled-inequality certificates and the one sweep engine.

Every sampled check is a family of inequalities lhs <= rhs over a point
set, and ``sweep`` is the only loop that runs one.  Each inequality is a
block form ``fn(X, draws)`` at the (B, n) block X and its ``PointDraws``
(None in closed form or without a scheme), evaluated in the declared order
under one ``np.errstate(over="ignore", invalid="ignore")``.  It returns
one ``Rows``: arrays ``lhs``, and ``rhs``, ``std_error``, ``scale`` and
``slack`` that broadcast against it; ``index``, the block point of each
row where a point has several rows (else row i is point i), the rows in
point order and a point's rows in row order; ``point``, a witness point
per row in place of the block point; ``info``, one dict for every row or a callable ``info(i)``
that builds row i's dict for a witness alone; and ``lower_bound_only``.
The margins lhs - rhs decide one status:

  certified    every margin <= tol      (tol = 1e-9 + 1e-7 * scale + slack)
  falsified    some margin >  tol + 3 * std-error (wins over the rest)
  inconclusive anything else: a margin above tol within 3 std-errors, a
               NaN or -inf margin (an overflowed side), a NaN or infinite
               std-error (an overflowed spread), an empty sweep, a
               lower-bound-only lhs (a sampled supremum) or a scope the
               caller flags with its own witness

Each block is folded with numpy as a scan of its rows would fold them:
where rows tie on the worst margin, the largest excess, the first NaN row
or an inequality's largest lhs, the row that comes first in point order,
then declaration order, then row order, is the witness.

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
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError

ABS_TOL = 1e-9
REL_TOL = 1e-7


def base_tolerance(scale):
    """Absolute 1e-9 plus relative 1e-7 of the larger inequality side, at
    each entry of ``scale``; an infinite side lies beyond every rounding
    error, so it adds nothing and an infinite lhs exceeds its tolerance."""
    scale = np.abs(scale)
    return ABS_TOL + np.where(scale == np.inf, 0.0, REL_TOL * scale)


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


class Rows(NamedTuple):
    """One inequality's rows at a block, as the module docstring states."""

    lhs: np.ndarray
    info: object
    rhs: object = 0.0
    std_error: object = 0.0
    scale: object = 1.0
    slack: object = 0.0
    index: np.ndarray | None = None
    point: np.ndarray | None = None
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
          provenance=None, notes=(), flagged=None, early_exit=False):
    """Run ``inequalities`` ({name: block form}) over ``points``;
    ``scheme`` is None for checks without expectations; ``flagged`` is
    the witness of a flagged scope.  ``early_exit`` stops after the first
    block that rules out certification.  Returns (Certificate, {name:
    Record}).
    """
    acc = _MarginSweep()
    records = {name: Record() for name in inequalities}
    with np.errstate(over="ignore", invalid="ignore"):
        for X, found in _evaluated(points, scheme, inequalities):
            acc.fold(X, found, records.values())
            if early_exit and not acc.may_certify:
                break
    return acc.finalize(statement, domain, provenance or {}, notes,
                        flagged), records


# Sweep points whose seeds are hashed and tabulated together: one table
# per span keeps the seeding vectorised, a sweep that exits early (the
# gamma-star H1 sweeps) hashes at most this many points it never visits,
# and the table's temporaries stay small.  On the sweep-mc certify (8001
# points, 2-vCPU x86-64 host) spans of 256 and 1024 points ran alike, and
# peak RSS was at the parent's with 256, 0.1-0.2 MB above it with 1024 and
# 0.9 MB above it with one table for the whole sweep.
SEED_SPAN = 256


def _evaluated(points, scheme, inequalities):
    """Each block X with, per inequality, its ``Rows`` pieces."""
    size = 1 if scheme is None else scheme.points_per_block()
    span = size * -(-SEED_SPAN // size)
    for first in range(0, len(points), span):
        part = points[first:first + span]
        draws = None if scheme is None else scheme.draws_at(part)
        for start in range(0, len(part), size):
            X = np.array(part[start:start + size])
            at_block = None if draws is None else draws.block(
                start, start + len(X))
            yield X, [_block_rows(name, fn, X, at_block)
                      for name, fn in inequalities.items()]


def _block_rows(name, fn, X, draws):
    """One inequality's ``Rows`` at a block, as one piece or one per
    point; ``draws`` is the block's ``PointDraws``, or None without Monte
    Carlo."""
    if len(X) > 1:
        try:
            return [fn(X, draws)]
        except (EvaluationError, FloatingPointError):
            pass  # found point by point below
    pieces = []
    for i in range(len(X)):
        try:
            rows = fn(X[i:i + 1], None if draws is None
                      else draws.block(i, i + 1))
        except (EvaluationError, FloatingPointError) as exc:
            rows = Rows(np.full(1, np.nan), {"inequality": name,
                                             "error": str(exc)},
                        std_error=np.nan)
        pieces.append(rows._replace(index=np.full(len(rows.lhs), i)))
    return pieces


class _MarginSweep:
    """Folds blocks of rows and applies the status rule above."""

    def __init__(self):
        self.worst, self.worst_info, self.worst_tol = -np.inf, None, ABS_TOL
        self.violation = self.nan = None
        self.ok, self.lower_bound, self.count = True, False, 0

    @property
    def may_certify(self):
        return self.ok and self.nan is None and not self.lower_bound

    def fold(self, X, found, records):
        """Fold the block X: ``found`` holds, per inequality in declaration
        order, its ``Rows`` pieces in point order."""
        pieces = [(rows, record) for record, parts in zip(records, found)
                  for rows in parts]
        starts = list(accumulate((len(rows.lhs) for rows, _ in pieces),
                                 initial=0))
        margin, se, scale, slack = (np.empty(starts[-1]) for _ in range(4))
        at = np.empty(starts[-1], dtype=int)
        for (rows, record), lo, hi in zip(pieces, starts, starts[1:]):
            margin[lo:hi] = rows.lhs - rows.rhs
            se[lo:hi], scale[lo:hi], slack[lo:hi] = (
                rows.std_error, rows.scale, rows.slack)
            at[lo:hi] = (np.arange(hi - lo) if rows.index is None
                         else rows.index)
            i = np.argmax(np.where(np.isnan(rows.lhs), -np.inf, rows.lhs))
            if rows.lhs[i] > record.lhs:
                record.lhs = float(rows.lhs[i])
                record.point = self._point(X, rows, at[lo + i], i)
            if rows.lower_bound_only:
                self.lower_bound = record.lower_bound_only = True
        tol = base_tolerance(scale) + slack
        # scan order (point, then declaration, then row): an argmax over
        # rows in this order takes the one a scan meets first
        scan = np.argsort(at, kind="stable")
        # every comparison with NaN is false, so a NaN margin would pass as
        # "within tolerance", and so would a -inf margin, which only an
        # overflowed side gives; an infinite std-error, which only an
        # overflowed spread gives, would pass a margin below tol although
        # the error bar holds no value
        known = (margin > -np.inf) & np.isfinite(se)
        for (_, record), all_known in zip(pieces, np.logical_and.reduceat(
                known, starts[:-1])):
            record.nan |= not all_known

        def witness(i):
            k = bisect_right(starts, i) - 1
            rows, r = pieces[k][0], i - starts[k]
            info = rows.info(r) if callable(rows.info) else rows.info
            return {"point": self._point(X, rows, at[i], r),
                    "margin": float(margin[i]), "std_error": float(se[i]),
                    "info": _jsonable(info)}

        self.count += len(margin)
        if self.nan is None and not known.all():
            self.nan = witness(scan[np.argmin(known[scan])])
        kept = np.where(known, margin, -np.inf)[scan]
        i = np.argmax(kept)
        if kept[i] > self.worst:
            i = scan[i]
            self.worst, self.worst_tol = float(margin[i]), float(tol[i])
            found = witness(i)
            self.worst_info = {"point": found["point"], "info": found["info"]}
        within = bool(np.all(~known | (margin <= tol)))
        self.ok = self.ok and within
        # a std-error is never negative, so only a block with a margin
        # above tol can hold one above tol + 3 std-errors
        if not within:
            excess = margin - (tol + 3.0 * se)
            excess = np.where(known & (excess > 0.0), excess, -np.inf)[scan]
            i = np.argmax(excess)
            if excess[i] > 0.0 and (self.violation is None
                                    or excess[i] > self.violation[0]):
                self.violation = (float(excess[i]), witness(scan[i]))

    @staticmethod
    def _point(X, rows, at, r):
        """The witness point of row r of ``rows`` at block point ``at``."""
        return (X[at] if rows.point is None else rows.point[r]).tolist()

    def finalize(self, statement, domain, provenance, notes,
                 flagged) -> Certificate:
        if self.violation is not None:
            status, witness = "falsified", self.violation[1]
        elif self.nan is not None:
            status, witness = "inconclusive", self.nan
        elif self.may_certify and self.count and flagged is None:
            status, witness = "certified", None
        else:
            status, witness = "inconclusive", flagged or self.worst_info
        return Certificate(
            status, statement, domain,
            float(self.worst) if self.count else 0.0, witness,
            dict(provenance, samples_checked=self.count, slack=0.0),
            self.worst_tol, list(notes))


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
