"""Sampled-inequality certificates.

Every structural check in the toolkit reduces to sweeping margins
(left-hand side minus right-hand side of an inequality that should be
<= 0) over a declared sample set.  The decision rule is three-valued:

  certified    all margins <= tol           (tol = 1e-9 + 1e-7 * scale + slack)
  falsified    some margin >  tol + 3 * std-error
  inconclusive anything in between, a scope problem (e.g. a sampled
               supremum used where a true supremum is required), a NaN
               margin or std-error, or an empty sweep

Certificates only ever speak for the sampled domain; the domain label is
part of the record.
"""

import math
from dataclasses import dataclass, field

import numpy as np

ABS_TOL = 1e-9
REL_TOL = 1e-7


def base_tolerance(scale: float) -> float:
    """Absolute 1e-9 plus relative 1e-7 of the larger inequality side."""
    return ABS_TOL + REL_TOL * abs(scale)


@dataclass
class Certificate:
    """Outcome of one sampled inequality check."""

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
        return {
            "status": self.status,
            "inequality": self.inequality,
            "domain": self.domain,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "provenance": self.provenance,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


class MarginSweep:
    """Accumulates (margin, std-error, scale) triples and decides status."""

    def __init__(self, inequality, domain_label, provenance, slack=0.0):
        self.inequality = inequality
        self.domain_label = domain_label
        self.provenance = dict(provenance)
        self.slack = float(slack)
        self._worst = -np.inf
        self._worst_info = None
        self._violation = None
        self._nan = None
        self._ok = True
        self._count = 0

    def add(self, margin, std_error=0.0, scale=1.0, point=None, info=None,
            extra_slack=0.0):
        margin = float(margin)
        self._count += 1
        if math.isnan(margin) or math.isnan(std_error):
            # every comparison with NaN is false, so it would pass as "within
            # tolerance"; the first such point becomes the witness
            if self._nan is None:
                self._nan = {"point": _jsonable(point), "margin": margin,
                             "std_error": float(std_error),
                             "info": _jsonable(info)}
            return
        tol = base_tolerance(scale) + self.slack + float(extra_slack)
        if margin > self._worst:
            self._worst = margin
            self._worst_info = {"point": _jsonable(point), "info": _jsonable(info)}
        if margin > tol + 3.0 * float(std_error):
            excess = margin - (tol + 3.0 * std_error)
            if self._violation is None or excess > self._violation[0]:
                self._violation = (
                    excess,
                    {"point": _jsonable(point), "margin": margin,
                     "std_error": float(std_error), "info": _jsonable(info)},
                )
        if margin > tol:
            self._ok = False

    def finalize(self, notes=(), force_inconclusive=False) -> Certificate:
        if self._violation is not None:
            status, witness = "falsified", self._violation[1]
        elif self._nan is not None:
            status, witness = "inconclusive", self._nan
        elif self._ok and self._count and not force_inconclusive:
            status, witness = "certified", None
        else:
            status, witness = "inconclusive", self._worst_info
        prov = dict(self.provenance)
        prov["samples_checked"] = self._count
        prov["slack"] = self.slack
        return Certificate(
            status=status,
            inequality=self.inequality,
            domain=self.domain_label,
            worst_margin=float(self._worst) if self._count else 0.0,
            witness=witness,
            provenance=prov,
            tolerance=ABS_TOL,
            notes=list(notes),
        )


def _jsonable(obj):
    if obj is None:
        return None
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
