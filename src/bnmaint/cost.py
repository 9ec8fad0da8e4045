"""Assessment-count formulas, ratio curves, and transaction audits.

An "assessment" is one free probability parameter an expert must supply: a
row over q outcomes costs q - 1 of them. Counts are exact integers; ratios
are floats for reporting. The closed-form ratios below, as functions of the
old outcome count m and the number of new/added outcomes k:

=====================  ==============  =================
case                   changed node    successor
=====================  ==============  =================
ignored outcome        k/(m+k-1)       k/(m+k)
split outcome          (k-1)/(m+k-2)   k/(m+k-1)
assumed constant       1               (k-1)/k
=====================  ==============  =================

The conditioning-set factor always cancels out of the ratio. Counts take the
explicit outcome counts (radices) of the conditioning set, so heterogeneous
predecessors are handled by the product of the actual radices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # the audits import edits when called, so counting loads none of it
    from .edits import AssessmentReport, Transaction

CASE_IGNORED = "ignored"
CASE_SPLIT = "split"
CASE_ASSUMED_CONSTANT = "assumed-constant"
ROLE_CHANGED = "changed"
ROLE_SUCCESSOR = "successor"

CASES = (CASE_IGNORED, CASE_SPLIT, CASE_ASSUMED_CONSTANT)
ROLES = (ROLE_CHANGED, ROLE_SUCCESSOR)


@dataclass(frozen=True)
class CostQuery:
    """Parameters of one counting question.

    m: outcome count before the change; k: outcomes added (or, for the
    assumed-constant case, the added variable's outcome count); p: the
    successor's outcome count (successor role only); radices: outcome counts
    of the relevant conditioning set (the changed node's own predecessors,
    or the successor's predecessors other than the changed one).
    """

    case: str
    role: str
    m: int = 1
    k: int = 1
    p: int = 2
    radices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "radices", tuple(self.radices))


@dataclass(frozen=True)
class CostResult:
    general: int
    special: int
    ratio: float | None


def assessment_cost(q: CostQuery) -> CostResult:
    """Exact free-parameter counts for the general case and the special case.

    For the changed node under the assumed-constant case there is no saving:
    the added variable's own distribution is always fully elicited, so
    general = special and the ratio is 1.
    """
    if q.case not in CASES:
        raise ValueError(f"unknown case {q.case!r}")
    if q.role not in ROLES:
        raise ValueError(f"unknown role {q.role!r}")
    for name, value in [("m", q.m), ("k", q.k), ("p", q.p), *(("radix", r) for r in q.radices)]:
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if q.m < 1:
        raise ValueError("m must be >= 1")
    if q.k < 1:
        raise ValueError("k must be >= 1")
    if q.role == ROLE_SUCCESSOR and q.p < 2:
        raise ValueError("successor role needs p >= 2")
    if any(r < 1 for r in q.radices):
        raise ValueError("radices entries must be >= 1")
    m, k = q.m, q.k
    general, special = {  # per conditioning configuration and successor parameter
        (CASE_IGNORED, ROLE_CHANGED): (m + k - 1, k),
        (CASE_IGNORED, ROLE_SUCCESSOR): (m + k, k),
        (CASE_SPLIT, ROLE_CHANGED): (m + k - 2, k - 1),
        (CASE_SPLIT, ROLE_SUCCESSOR): (m + k - 1, k),
        (CASE_ASSUMED_CONSTANT, ROLE_CHANGED): (k - 1, k - 1),
        (CASE_ASSUMED_CONSTANT, ROLE_SUCCESSOR): (k, k - 1),
    }[q.case, q.role]
    factor = math.prod(q.radices) * (q.p - 1 if q.role == ROLE_SUCCESSOR else 1)
    general, special = general * factor, special * factor
    if q.case == CASE_ASSUMED_CONSTANT and q.role == ROLE_CHANGED:
        return CostResult(general, special, 1.0)  # no saving, also at k = 1
    return CostResult(general, special, special / general if general > 0 else None)


def curve_ratio(case: str, role: str, m: int, k: int) -> float | None:
    """Closed-form special/general ratio; None where both counts are zero."""
    return assessment_cost(CostQuery(case, role, m, k)).ratio


@dataclass(frozen=True)
class CurvePoint:
    m: int
    k: int
    ratio: float | None


def ratio_curves(
    case: str, role: str, m_values: Sequence[int], k_values: Sequence[int]
) -> tuple[CurvePoint, ...]:
    """The ratio surface over a (m, k) grid, in deterministic (m, k) order."""
    ms, ks = list(m_values), list(k_values)
    if not ms or not ks:
        raise ValueError("m and k ranges must be non-empty")
    return tuple(
        CurvePoint(m, k, curve_ratio(case, role, m, k)) for m in ms for k in ks
    )


def curves_csv(case: str, role: str, points: Iterable[CurvePoint]) -> str:
    lines = ["case,role,m,k,ratio"]
    for pt in points:
        ratio = "" if pt.ratio is None else f"{pt.ratio}"
        lines.append(f"{case},{role},{pt.m},{pt.k},{ratio}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# transaction audit
# ---------------------------------------------------------------------------


def audit_transaction(t: Transaction) -> AssessmentReport:
    """Recount a transaction's elicited/reused cells from its concrete
    before/after tables with :func:`bnmaint.edits.count_assessments`, the
    function every edit's report comes from.

    On homogeneous conditioning sets the counts reduce to the closed-form
    formulas; in general they use the product of the actual radices.
    """
    from . import edits

    return edits.count_assessments(t.before, t.op, t.after)


def audit_csv(report: AssessmentReport) -> str:
    lines = ["node,elicited,reused,general_baseline"]
    for e in report.nodes:
        lines.append(f"{e.node},{e.elicited},{e.reused},{e.baseline}")
    return "\n".join(lines) + "\n"


def aggregate_reports(
    reports: Sequence[AssessmentReport], node_order: Sequence[str]
) -> AssessmentReport:
    """Sum per-node counts across transactions (for multi-op scripts)."""
    from .edits import AssessmentReport, NodeAssessment

    sums: dict[str, list[int]] = {n: [0, 0, 0] for n in node_order}
    notes: list[str] = []
    for rep in reports:
        for e in rep.nodes:
            acc = sums.setdefault(e.node, [0, 0, 0])
            acc[0] += e.elicited
            acc[1] += e.reused
            acc[2] += e.baseline
        notes.extend(rep.notes)
    assessments = tuple(NodeAssessment(n, *sums[n]) for n in node_order)
    return AssessmentReport(assessments, tuple(notes))
