"""The ``repro lint`` subcommand: argument surface and exit-code policy.

Exit codes follow the usual linter contract: ``0`` clean, ``1`` findings
(or stale suppressions under ``--report-stale``), ``2`` usage errors
(unknown rule ids, unreadable paths).  The argparse wiring lives
in :func:`add_parser` so :mod:`repro.cli` stays a thin dispatcher.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import LintError, all_rules, relativize, run_lint
from .reporters import render_json, render_text


def default_target() -> Path:
    """Lint target when no paths are given: the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).parent


def add_parser(subparsers: argparse._SubParsersAction) -> argparse.ArgumentParser:
    """Attach the ``lint`` subcommand to the main ``repro`` parser."""
    lint_help = (
        "run the invariant linter (rules R001-R010: seeded RNG, scipy "
        "containment, registry dispatch, content-derived caches, cache-token "
        "soundness, seed-stream discipline, storage hygiene) over src/repro "
        "or the given paths"
    )
    parser = subparsers.add_parser("lint", help=lint_help, description=lint_help)
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: the repro package source)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: the full catalog)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the schema CI uploads)",
    )
    parser.add_argument(
        "--report-stale",
        action="store_true",
        help="also fail on suppressions whose rule no longer fires on the "
        "covered line",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the rendered report to this file (written even "
        "when findings fail the run, for CI artifact upload)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns the exit code."""
    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  {rule.name:<30} {rule.description}")
        return 0

    rule_ids: Optional[List[str]] = None
    if args.rules:
        rule_ids = [part for part in args.rules.split(",") if part.strip()]

    paths = [Path(item) for item in args.paths] if args.paths else [default_target()]

    try:
        result = run_lint(paths, rule_ids=rule_ids, report_stale=args.report_stale)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = relativize(result)
    rendered = render_json(result) if args.format == "json" else render_text(result)
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.out:
        out_path = Path(args.out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        text = rendered if rendered.endswith("\n") else rendered + "\n"
        out_path.write_text(text, encoding="utf-8")
    return 1 if result.failures else 0
