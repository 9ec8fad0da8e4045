"""The package's public names: each loads its module on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import bnmaint

# each public name, under the module it comes from
PUBLIC_NAMES = {
    "cost": "CASE_ASSUMED_CONSTANT CASE_IGNORED CASE_SPLIT ROLE_CHANGED ROLE_SUCCESSOR "
            "CostQuery CostResult CurvePoint assessment_cost audit_transaction curve_ratio "
            "ratio_curves",
    "diff": "DiffEntry diff_networks format_diff",
    "edits": "AssessmentReport EditOp MaintenanceError NodeAssessment RescaleFactors "
             "Transaction add_arc_assumed_constant add_arc_general add_outcomes_general "
             "add_outcomes_ignored add_variable remove_arc remove_outcome replace_cpt "
             "reuse_successor_rows_ignored reuse_successor_rows_split split_outcome "
             "split_outcome_general",
    "netio": "ParseError from_document load_network save_network to_document",
    "network": "ROW_SUM_TOLERANCE Cpt Finding Network StaleParent ValidationReport Variable "
               "config_index enumerate_configs validate_network",
    "oracle": "CheckResult JointTable OracleError check_assumed_constant_identity "
              "check_ignored_identity conditional joint_distribution",
    "script": "ScriptError ScriptResult apply_script parse_script",
}

# run in a fresh interpreter, where nothing but the package itself is loaded
CHECKS = """
import importlib, sys
import bnmaint
loaded = [m for m in sys.modules if m.startswith("bnmaint")]
assert loaded == ["bnmaint"], loaded
for module in NAMES:
    assert getattr(bnmaint, module) is sys.modules["bnmaint." + module], module
star = {}
exec("from bnmaint import *", star)
del star["__builtins__"]
assert sorted(star) == sorted(bnmaint.__all__), sorted(star)
for module, names in NAMES.items():
    for name in names.split():
        assert star[name] is getattr(importlib.import_module("bnmaint." + module), name), name
        assert vars(bnmaint)[name] is star[name], name  # bound: the next read is a plain one
assert "__all__" in dir(bnmaint) and set(bnmaint.__all__) <= set(dir(bnmaint))
try:
    bnmaint.no_such_name
except AttributeError as e:
    assert str(e) == "module 'bnmaint' has no attribute 'no_such_name'", e
else:
    raise AssertionError("an unknown name resolved")
"""


def test_each_public_name_is_its_modules_own_and_loads_on_first_use():
    assert len(bnmaint.__all__) == 59
    assert sorted(bnmaint.__all__) == sorted(
        name for names in PUBLIC_NAMES.values() for name in names.split()
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"NAMES = {PUBLIC_NAMES!r}\n{CHECKS}"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
