"""Tests for the invariant linter (``repro lint``, :mod:`repro.lint`).

Three layers of coverage:

* the fixture corpus under ``tests/lint_fixtures/`` — every AST rule
  (R001-R004, R007, R009, R010) both fires on a deliberate violation (lines
  marked ``# expect[R###]``) and stays silent on the corrected form;
* the suppression syntax — a justified ``lint-ignore`` silences a finding,
  a reasonless one is itself a finding, and ``--report-stale`` flags
  directives whose rule no longer fires;
* the gate itself — the full catalog over ``src/repro`` yields zero
  unsuppressed findings.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import (
    FRAMEWORK_RULE,
    LintError,
    UnknownRuleError,
    all_rules,
    parse_suppressions,
    render_json,
    render_text,
    run_lint,
    select_rules,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
PACKAGE = Path(repro.__file__).parent

# Auto-discovered: adding r0xx_violation.py/r0xx_clean.py fixture pairs
# enrolls the new rule in the corpus tests below.
AST_RULES = tuple(
    sorted(p.stem.split("_")[0].upper() for p in FIXTURES.glob("r*_violation.py"))
)

_EXPECT_RE = re.compile(r"#\s*expect\[(R\d{3})\]")


def expected_findings(path: Path):
    """(line, rule) pairs declared by ``# expect[R###]`` markers."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            expected.add((lineno, match.group(1)))
    return expected


def findings_of(result):
    return {(item.line, item.rule) for item in result.findings}


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule_id", AST_RULES)
    def test_rule_fires_on_violation_fixture(self, rule_id):
        fixture = FIXTURES / f"{rule_id.lower()}_violation.py"
        expected = expected_findings(fixture)
        assert expected, f"{fixture} declares no expected findings"
        result = run_lint([fixture], rule_ids=[rule_id])
        assert findings_of(result) == expected

    @pytest.mark.parametrize("rule_id", AST_RULES)
    def test_rule_passes_on_clean_fixture(self, rule_id):
        fixture = FIXTURES / f"{rule_id.lower()}_clean.py"
        result = run_lint([fixture], rule_ids=[rule_id])
        assert result.findings == []

    def test_violation_fixtures_fire_only_their_own_rule(self):
        # Each violation fixture is a counter-example for exactly one rule:
        # running the full AST catalog over it must not drag in others.
        for rule_id in AST_RULES:
            fixture = FIXTURES / f"{rule_id.lower()}_violation.py"
            result = run_lint([fixture], rule_ids=list(AST_RULES))
            assert {item.rule for item in result.findings} == {rule_id}

    def test_messages_name_the_remedy(self):
        result = run_lint(
            [FIXTURES / "r001_violation.py"], rule_ids=["R001"]
        )
        text = " ".join(item.message for item in result.findings)
        assert "seed" in text
        assert "default_rng" in text


class TestSuppressions:
    def test_justified_suppression_silences_trailing_and_standalone(self):
        result = run_lint([FIXTURES / "suppression_ok.py"], rule_ids=["R001"])
        assert result.findings == []
        assert len(result.suppressed) == 2
        assert result.stale == []

    def test_missing_reason_is_a_finding_and_suppresses_nothing(self):
        result = run_lint(
            [FIXTURES / "suppression_no_reason.py"], rule_ids=["R001"]
        )
        rules = sorted(item.rule for item in result.findings)
        assert rules == [FRAMEWORK_RULE, "R001"]
        r000 = next(i for i in result.findings if i.rule == FRAMEWORK_RULE)
        assert "no reason" in r000.message

    def test_stale_suppression_reported_only_on_request(self):
        fixture = FIXTURES / "suppression_stale.py"
        quiet = run_lint([fixture], rule_ids=["R001"])
        assert quiet.findings == []
        assert len(quiet.stale) == 1
        assert quiet.failures == []  # stale alone does not fail by default
        loud = run_lint([fixture], rule_ids=["R001"], report_stale=True)
        assert loud.failures == loud.stale
        assert "stale suppression" in loud.stale[0].message

    def test_stale_not_judged_for_unselected_rules(self):
        # Linting the stale fixture with only R002 active: the R001 directive
        # cannot be judged, so it is not reported stale.
        result = run_lint(
            [FIXTURES / "suppression_stale.py"],
            rule_ids=["R002"],
            report_stale=True,
        )
        assert result.stale == []

    def test_unknown_rule_id_in_directive(self, tmp_path):
        target = tmp_path / "unknown.py"
        target.write_text("x = 1  # repro: lint-ignore[R999] -- because\n")
        _, malformed = parse_suppressions(target, target.read_text())
        assert len(malformed) == 1
        assert "unknown rule" in malformed[0].message

    def test_malformed_directive_without_brackets(self, tmp_path):
        target = tmp_path / "malformed.py"
        target.write_text("x = 1  # repro: lint-ignore R001 -- because\n")
        result = run_lint([target], rule_ids=["R001"])
        assert [item.rule for item in result.findings] == [FRAMEWORK_RULE]
        assert "malformed" in result.findings[0].message

    def test_syntax_error_file_is_a_framework_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n    pass\n")
        result = run_lint([target], rule_ids=["R001"])
        assert [item.rule for item in result.findings] == [FRAMEWORK_RULE]
        assert "cannot parse" in result.findings[0].message


class TestRuleSelection:
    def test_unknown_rule_rejected_with_catalog(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            select_rules(["R42"])
        assert "R001" in str(excinfo.value)

    def test_empty_selection_rejected(self):
        with pytest.raises(LintError):
            select_rules([" ", ""])

    def test_catalog_is_complete(self):
        assert sorted(all_rules()) == [
            "R001", "R002", "R003", "R004", "R007", "R009", "R010",
        ]
        for rule in all_rules().values():
            assert rule.name and rule.description

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintError):
            run_lint([Path("/no/such/dir/anywhere")], rule_ids=["R001"])


class TestRepositoryGate:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        result = run_lint([PACKAGE])
        assert result.findings == [], render_text(result)

    def test_src_repro_has_no_stale_suppressions(self):
        result = run_lint([PACKAGE], report_stale=True)
        assert result.stale == [], render_text(result)

    def test_known_suppressions_are_justified(self):
        # The checked-in suppressions (rng entropy opt-in, manifest timing)
        # are exercised: removing one must surface as a finding, so the
        # suppressed list is the live inventory.
        result = run_lint([PACKAGE])
        suppressed = {(Path(i.path).name, i.rule) for i in result.suppressed}
        assert ("rng.py", "R001") in suppressed
        assert ("artifacts.py", "R004") in suppressed


class TestCli:
    def test_exit_zero_on_clean_path(self, capsys):
        code = main(["lint", str(FIXTURES / "r001_clean.py"), "--rules", "R001"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        code = main(["lint", str(FIXTURES / "r001_violation.py"), "--rules", "R001"])
        assert code == 1
        out = capsys.readouterr().out
        assert "R001" in out and "r001_violation.py" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        code = main(["lint", str(FIXTURES), "--rules", "R042"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, capsys):
        code = main(["lint", "/no/such/dir/anywhere", "--rules", "R001"])
        assert code == 2

    def test_json_format_round_trips(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "r002_violation.py"),
                "--rules",
                "R002",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["passed"] is False
        assert {item["rule"] for item in payload["findings"]} == {"R002"}

    def test_report_stale_flag_fails_the_run(self, capsys):
        fixture = str(FIXTURES / "suppression_stale.py")
        assert main(["lint", fixture, "--rules", "R001"]) == 0
        capsys.readouterr()
        assert main(["lint", fixture, "--rules", "R001", "--report-stale"]) == 1
        assert "stale suppression" in capsys.readouterr().out

    def test_stale_suppression_fails_beside_another_files_finding(
        self, tmp_path, capsys
    ):
        # A directive whose rule fires nowhere in its own file is stale,
        # even when the same rule fires in another file of the run.
        noisy = tmp_path / "noisy.py"
        noisy.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        stale_only = tmp_path / "stale_only.py"
        stale_only.write_text(
            "# repro: lint-ignore[R001] -- nothing here draws entropy\n"
            "x = 1\n"
        )
        code = main(
            [
                "lint", str(noisy), str(stale_only), "--rules", "R001",
                "--report-stale",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "noisy.py:2: R001" in out
        assert "stale_only.py:1: R000 stale suppression" in out

    def test_out_writes_report_even_on_failure(self, tmp_path, capsys):
        report = tmp_path / "lint" / "findings.json"
        code = main(
            [
                "lint",
                str(FIXTURES / "r003_violation.py"),
                "--rules",
                "R003",
                "--format",
                "json",
                "--out",
                str(report),
            ]
        )
        assert code == 1
        assert json.loads(report.read_text())["findings"]

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R007"):
            assert rule_id in out

    def test_default_target_is_the_package_and_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestReporters:
    def test_text_reporter_one_row_per_finding(self):
        result = run_lint([FIXTURES / "r009_violation.py"], rule_ids=["R009"])
        text = render_text(result)
        assert "R009" in text
        assert text.count("r009_violation.py") == 2
        assert "2 finding(s)" in text

    def test_json_reporter_sorted_and_stable(self):
        result = run_lint([FIXTURES / "r001_violation.py"], rule_ids=["R001"])
        first = render_json(result)
        second = render_json(
            run_lint([FIXTURES / "r001_violation.py"], rule_ids=["R001"])
        )
        assert first == second
        payload = json.loads(first)
        lines = [item["line"] for item in payload["findings"]]
        assert lines == sorted(lines)
