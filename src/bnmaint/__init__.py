"""bnmaint: transactional maintenance of discrete probabilistic networks.

Edits that grow, split, or newly condition a variable's outcome space can
reuse the probabilities already in the knowledge base instead of re-eliciting
them; every edit is a pure transaction with free-parameter cost accounting,
cross-checkable against a brute-force joint-distribution oracle.

Every public name, and every submodule, loads its module on first use, so a
process pays only for the modules it reads (the oracle's names load numpy).
"""

from importlib import import_module as _import

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "cost": """CASE_ASSUMED_CONSTANT CASE_IGNORED CASE_SPLIT ROLE_CHANGED ROLE_SUCCESSOR
        CostQuery CostResult CurvePoint assessment_cost audit_transaction curve_ratio
        ratio_curves""",
    "diff": "DiffEntry diff_networks format_diff",
    "edits": """AssessmentReport EditOp MaintenanceError NodeAssessment RescaleFactors
        Transaction add_arc_assumed_constant add_arc_general add_outcomes_general
        add_outcomes_ignored add_variable remove_arc remove_outcome replace_cpt
        reuse_successor_rows_ignored reuse_successor_rows_split split_outcome
        split_outcome_general""",
    "netio": "ParseError from_document load_network save_network to_document",
    "network": """ROW_SUM_TOLERANCE Cpt Finding Network StaleParent ValidationReport
        Variable config_index enumerate_configs validate_network""",
    "oracle": """CheckResult JointTable OracleError check_assumed_constant_identity
        check_ignored_identity conditional joint_distribution""",
    "script": "ScriptError ScriptResult apply_script parse_script",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
