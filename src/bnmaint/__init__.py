"""bnmaint: transactional maintenance of discrete probabilistic networks.

Edits that grow, split, or newly condition a variable's outcome space can
reuse the probabilities already in the knowledge base instead of re-eliciting
them; every edit is a pure transaction with free-parameter cost accounting,
cross-checkable against a brute-force joint-distribution oracle.
"""

from .cost import (
    CASE_ASSUMED_CONSTANT,
    CASE_IGNORED,
    CASE_SPLIT,
    ROLE_CHANGED,
    ROLE_SUCCESSOR,
    CostQuery,
    CostResult,
    CurvePoint,
    assessment_cost,
    audit_transaction,
    curve_ratio,
    ratio_curves,
)
from .diff import DiffEntry, diff_networks, format_diff
from .edits import (
    AssessmentReport,
    EditOp,
    MaintenanceError,
    NodeAssessment,
    RescaleFactors,
    Transaction,
    add_arc_assumed_constant,
    add_arc_general,
    add_outcomes_general,
    add_outcomes_ignored,
    add_variable,
    remove_arc,
    remove_outcome,
    replace_cpt,
    reuse_successor_rows_ignored,
    reuse_successor_rows_split,
    split_outcome,
    split_outcome_general,
)
from .netio import ParseError, from_document, load_network, save_network, to_document
from .network import (
    ROW_SUM_TOLERANCE,
    Cpt,
    Finding,
    Network,
    StaleParent,
    ValidationReport,
    Variable,
    config_index,
    enumerate_configs,
    validate_network,
)
from .script import ScriptError, ScriptResult, apply_script, parse_script

__version__ = "0.1.0"

# the oracle needs numpy, so its names load on first use
_ORACLE_NAMES = {
    "CheckResult",
    "JointTable",
    "OracleError",
    "check_assumed_constant_identity",
    "check_ignored_identity",
    "conditional",
    "joint_distribution",
}


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CASE_ASSUMED_CONSTANT",
    "CASE_IGNORED",
    "CASE_SPLIT",
    "ROLE_CHANGED",
    "ROLE_SUCCESSOR",
    "ROW_SUM_TOLERANCE",
    "AssessmentReport",
    "CheckResult",
    "CostQuery",
    "CostResult",
    "Cpt",
    "CurvePoint",
    "DiffEntry",
    "EditOp",
    "Finding",
    "JointTable",
    "MaintenanceError",
    "Network",
    "NodeAssessment",
    "OracleError",
    "ParseError",
    "RescaleFactors",
    "ScriptError",
    "ScriptResult",
    "StaleParent",
    "Transaction",
    "ValidationReport",
    "Variable",
    "add_arc_assumed_constant",
    "add_arc_general",
    "add_outcomes_general",
    "add_outcomes_ignored",
    "add_variable",
    "apply_script",
    "assessment_cost",
    "audit_transaction",
    "check_assumed_constant_identity",
    "check_ignored_identity",
    "conditional",
    "config_index",
    "curve_ratio",
    "diff_networks",
    "enumerate_configs",
    "format_diff",
    "from_document",
    "joint_distribution",
    "load_network",
    "parse_script",
    "ratio_curves",
    "remove_arc",
    "remove_outcome",
    "replace_cpt",
    "reuse_successor_rows_ignored",
    "reuse_successor_rows_split",
    "save_network",
    "split_outcome",
    "split_outcome_general",
    "to_document",
    "validate_network",
]
