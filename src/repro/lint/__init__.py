"""``repro.lint`` — the invariant linter (``repro lint``).

An AST-based rule engine that turns the repository's load-bearing
conventions into a machine-checked gate: seeded-by-default RNG (R001),
scipy contained behind :mod:`repro.engine.deps` (R002), backend dispatch
through the kernel registry instead of ``isinstance(Frozen*)`` (R003),
content-derived cache keys (R004), sound cache tokens (R007), seed-stream
discipline (R009), and storage hygiene (R010).  R005 and R008 guarded the
removed shared-memory kernel tier, and R006 the portable body behind every
frozen kernel, which went when each operation kept one kernel; their ids
stay unused so that no rule is renumbered.

See ``docs/architecture.md`` ("Invariant catalog") for the rule-by-rule
story and how to add a rule; :mod:`repro.lint.core` for the framework;
:mod:`repro.lint.rules` for the catalog.
"""

from .core import (
    FRAMEWORK_RULE,
    Finding,
    LintError,
    LintResult,
    ModuleContext,
    ProjectRule,
    Rule,
    Suppression,
    UnknownRuleError,
    all_rules,
    iter_python_files,
    parse_suppressions,
    register_rule,
    relativize,
    run_lint,
    select_rules,
)
from .reporters import render_json, render_text

__all__ = [
    "FRAMEWORK_RULE",
    "Finding",
    "LintError",
    "LintResult",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Suppression",
    "UnknownRuleError",
    "all_rules",
    "iter_python_files",
    "parse_suppressions",
    "register_rule",
    "relativize",
    "render_json",
    "render_text",
    "run_lint",
    "select_rules",
]
