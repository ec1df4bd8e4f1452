"""The ``repro lint`` rule engine: invariants as machine-checked findings.

Seven PRs of this repository accumulated load-bearing invariants — seeded
RNG defaults, scipy contained behind :mod:`repro.engine.deps`, backend
dispatch through the kernel registry instead of ``isinstance(Frozen*)``
branches, content-derived cache tokens.  Each was enforced by convention or a one-off grep.  This
module turns the catalog into a static-analysis gate:

* a :class:`Rule` visits a parsed module (:class:`ModuleContext`) and yields
  :class:`Finding` objects carrying file/line/rule-id/message;
* a :class:`ProjectRule` checks whole-project state once per run (used by
  R007, which follows scenario reads across modules);
* ``# repro: lint-ignore[R001] -- reason`` suppresses a finding on its line
  (a comment-only line suppresses the next line).  The reason is mandatory:
  a suppression without one is itself a finding (``R000``), and a
  well-formed suppression whose rule no longer fires is reported as *stale*
  under ``--report-stale``;
* :func:`run_lint` walks the target files, applies every selected rule, and
  returns a :class:`LintResult` the reporters render as text or JSON.

The concrete invariant catalog (R001-R010) lives in
:mod:`repro.lint.rules`; the CLI wiring in :mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Rule id of the framework itself: malformed/stale suppressions and files
#: that cannot be parsed.  Always active and never suppressible.
FRAMEWORK_RULE = "R000"

#: The suppression marker.  ``lint-ignore[R001,R004] -- reason`` names one or
#: more rule ids and *must* carry a reason after ``--``.
_MARKER_RE = re.compile(r"#\s*repro:\s*lint-ignore")
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*lint-ignore\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)

_RULE_ID_RE = re.compile(r"^R\d{3}$")


class LintError(Exception):
    """Base class for lint-engine usage errors (exit code 2)."""


class UnknownRuleError(LintError, KeyError):
    """A rule id was requested that no registered rule carries."""

    def __init__(self, rule_id: str, known: Sequence[str]):
        super().__init__(rule_id)
        self.rule_id = rule_id
        self.known = list(known)

    def __str__(self) -> str:
        return (
            f"unknown rule {self.rule_id!r}; available: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One well-formed ``lint-ignore`` directive found in a module."""

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str
    #: Source lines whose findings this directive suppresses: the directive's
    #: own line for a trailing comment, the following line for a
    #: comment-only line.
    covered_lines: Tuple[int, ...]


class ModuleContext:
    """A parsed module plus the derived tables every rule needs.

    Built once per file by :func:`run_lint`; rules receive it read-only.
    ``package_relpath`` is the path inside the ``repro`` package (e.g.
    ``"engine/deps.py"``) when the file lives under a directory named
    ``repro``, else just the file name — rules use it to scope themselves to
    architectural layers.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        parts = path.parts
        if "repro" in parts:
            anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
            self.package_relpath = "/".join(parts[anchor + 1 :])
        else:
            self.package_relpath = path.name
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._imports: Optional[Dict[str, str]] = None

    # -- derived tables ---------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child node -> parent node, for ancestor walks."""
        if self._parents is None:
            table: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    table[child] = parent
            self._parents = table
        return self._parents

    @property
    def imports(self) -> Dict[str, str]:
        """Local binding -> dotted origin, from every import in the module.

        ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
        import default_rng`` maps ``default_rng -> numpy.random.default_rng``;
        relative imports keep their leading dots (``from ..engine import
        deps`` maps ``deps -> ..engine.deps``).
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            table[alias.asname] = alias.name
                        else:
                            head = alias.name.split(".")[0]
                            table[head] = head
                elif isinstance(node, ast.ImportFrom):
                    base = "." * node.level + (node.module or "")
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        origin = f"{base}.{alias.name}" if base else alias.name
                        table[bound] = origin
            self._imports = table
        return self._imports

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_functions(self, node: ast.AST) -> List[ast.AST]:
        """Enclosing function definitions of ``node``, innermost first."""
        return [
            ancestor
            for ancestor in self.ancestors(node)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted origin of a ``Name``/``Attribute`` chain.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``"numpy.random.seed"``; a bare ``default_rng`` imported from
        ``numpy.random`` resolves to ``"numpy.random.default_rng"``.  Returns
        ``None`` when the chain's head is not an imported binding (locals,
        attributes of instances, ...).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        origin = self.imports.get(current.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


class Rule:
    """Base class of per-module AST rules.

    Subclasses set ``rule_id`` (``"R00x"``), ``name`` (kebab-case slug) and
    ``description``, implement :meth:`check`, and register themselves with
    :func:`register_rule` — see :mod:`repro.lint.rules` for the catalog and
    ``docs/architecture.md`` ("Invariant catalog") for the how-to.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            rule=self.rule_id,
            message=message,
        )


class ProjectRule(Rule):
    """A rule evaluated once per lint run instead of once per module.

    Used for cross-module checks (R007 follows scenario reads through the
    modules it is given).  ``check_project`` receives every parsed module of
    the run.
    """

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, modules: Sequence[ModuleContext]) -> Iterable[Finding]:
        raise NotImplementedError


#: Registered rules, id -> instance, in catalog order.
_RULES: Dict[str, Rule] = {}


def register_rule(rule_class: type) -> type:
    """Class decorator: add the rule to the catalog (id must be unique)."""
    rule = rule_class()
    if not _RULE_ID_RE.match(rule.rule_id or ""):
        raise ValueError(f"rule id must match R###, got {rule.rule_id!r}")
    if rule.rule_id in _RULES or rule.rule_id == FRAMEWORK_RULE:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _RULES[rule.rule_id] = rule
    return rule_class


def all_rules() -> Dict[str, Rule]:
    """The registered rule catalog, id -> rule, importing the catalog module."""
    from . import rules as _catalog  # noqa: F401  (registration side effect)

    return dict(_RULES)


def select_rules(ids: Optional[Sequence[str]]) -> List[Rule]:
    """Resolve ``ids`` (``None`` = every rule) against the catalog."""
    catalog = all_rules()
    if ids is None:
        return list(catalog.values())
    selected = []
    for rule_id in ids:
        normalized = rule_id.strip().upper()
        if not normalized:
            continue
        if normalized not in catalog:
            raise UnknownRuleError(normalized, sorted(catalog))
        selected.append(catalog[normalized])
    if not selected:
        raise LintError("no rules selected")
    return selected


# -- suppression parsing --------------------------------------------------

def parse_suppressions(
    path: Path, source: str
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract ``lint-ignore`` directives from the comments of ``source``.

    Returns the well-formed suppressions plus ``R000`` findings for malformed
    ones: missing brackets, empty or non-``R###`` rule lists, and —
    crucially — a missing ``-- reason``.  Malformed directives are inert
    (they suppress nothing), so the underlying finding still fires next to
    the ``R000``.
    """
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            token for token in tokens if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []
    for token in comments:
        if not _MARKER_RE.search(token.string):
            continue
        line = token.start[0]
        match = _SUPPRESSION_RE.search(token.string)
        if match is None:
            findings.append(
                Finding(
                    path=str(path),
                    line=line,
                    rule=FRAMEWORK_RULE,
                    message=(
                        "malformed lint-ignore directive: expected "
                        "'# repro: lint-ignore[R###] -- reason'"
                    ),
                )
            )
            continue
        rule_ids = tuple(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        reason = match.group("reason")
        bad_ids = [rule_id for rule_id in rule_ids if not _RULE_ID_RE.match(rule_id)]
        if not rule_ids or bad_ids:
            detail = ", ".join(bad_ids) if bad_ids else "empty rule list"
            findings.append(
                Finding(
                    path=str(path),
                    line=line,
                    rule=FRAMEWORK_RULE,
                    message=f"lint-ignore names no valid rule id ({detail})",
                )
            )
            continue
        unknown = [rule_id for rule_id in rule_ids if rule_id not in all_rules()]
        if unknown:
            findings.append(
                Finding(
                    path=str(path),
                    line=line,
                    rule=FRAMEWORK_RULE,
                    message=(
                        f"lint-ignore names unknown rule(s) "
                        f"{', '.join(unknown)}"
                    ),
                )
            )
            continue
        if not reason:
            findings.append(
                Finding(
                    path=str(path),
                    line=line,
                    rule=FRAMEWORK_RULE,
                    message=(
                        f"lint-ignore[{','.join(rule_ids)}] has no reason; "
                        "suppressions must justify themselves: "
                        "'# repro: lint-ignore[R###] -- reason'"
                    ),
                )
            )
            continue
        prefix = token.line[: token.start[1]]
        standalone = prefix.strip() == ""
        if standalone:
            # A comment-only directive covers the next *code* line: skip the
            # rest of its own comment block and any blank lines, so a
            # multi-line justification still lands on the statement below.
            lines = source.splitlines()
            target = line + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
            covered = (target,)
        else:
            covered = (line,)
        suppressions.append(
            Suppression(
                path=str(path),
                line=line,
                rules=rule_ids,
                reason=reason,
                covered_lines=covered,
            )
        )
    return suppressions, findings


# -- the runner -----------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one lint run (pre-rendering)."""

    #: Unsuppressed findings, sorted.
    findings: List[Finding] = field(default_factory=list)
    #: Stale-suppression reports (``R000``); fail the run only under
    #: ``report_stale``.
    stale: List[Finding] = field(default_factory=list)
    #: Findings silenced by a well-formed suppression.
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: List[str] = field(default_factory=list)
    report_stale: bool = False

    @property
    def failures(self) -> List[Finding]:
        """Findings that make the run exit 1 (stale ones only when asked)."""
        return self.findings + (self.stale if self.report_stale else [])

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "rules": self.rules,
            "files": self.files,
            "findings": [item.to_json() for item in self.findings],
            "stale_suppressions": [item.to_json() for item in self.stale],
            "summary": {
                "findings": len(self.findings),
                "stale": len(self.stale),
                "suppressed": len(self.suppressed),
                "passed": not self.failures,
            },
        }


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` file under ``paths`` (files pass through), sorted."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_file():
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if "__pycache__" in candidate.parts:
                    continue
                found.add(candidate)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(found)


def run_lint(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
    report_stale: bool = False,
) -> LintResult:
    """Lint every Python file under ``paths`` with the selected rules."""
    rules = select_rules(rule_ids)
    result = LintResult(
        rules=[rule.rule_id for rule in rules], report_stale=report_stale
    )
    files = iter_python_files(paths)
    result.files = len(files)

    modules: List[ModuleContext] = []
    raw: List[Finding] = []
    framework: List[Finding] = []
    suppression_index: Dict[str, List[Suppression]] = {}

    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            framework.append(
                Finding(str(path), 1, FRAMEWORK_RULE, f"cannot read file: {exc}")
            )
            continue
        suppressions, malformed = parse_suppressions(path, source)
        framework.extend(malformed)
        suppression_index[str(path.resolve())] = suppressions
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            framework.append(
                Finding(
                    str(path),
                    exc.lineno or 1,
                    FRAMEWORK_RULE,
                    f"cannot parse file: {exc.msg}",
                )
            )
            continue
        module = ModuleContext(path, source, tree)
        modules.append(module)
        for rule in rules:
            if isinstance(rule, ProjectRule):
                continue
            raw.extend(rule.check(module))

    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(modules))

    # -- apply suppressions ----------------------------------------------
    active_rules = set(result.rules)
    used: Dict[Tuple[str, int, str], bool] = {}
    for finding in raw:
        resolved = str(Path(finding.path).resolve())
        silenced = False
        for suppression in suppression_index.get(resolved, ()):
            if (
                finding.line in suppression.covered_lines
                and finding.rule in suppression.rules
            ):
                used[(suppression.path, suppression.line, finding.rule)] = True
                silenced = True
        if silenced:
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)

    # -- stale suppressions ----------------------------------------------
    for suppressions in suppression_index.values():
        for suppression in suppressions:
            for rule_id in suppression.rules:
                if rule_id not in active_rules:
                    continue  # rule not in this run: cannot judge staleness
                if not used.get((suppression.path, suppression.line, rule_id)):
                    result.stale.append(
                        Finding(
                            path=suppression.path,
                            line=suppression.line,
                            rule=FRAMEWORK_RULE,
                            message=(
                                f"stale suppression: {rule_id} does not fire "
                                f"on the covered line(s) "
                                f"{', '.join(map(str, suppression.covered_lines))}"
                            ),
                        )
                    )

    result.findings.extend(framework)
    result.findings.sort(key=Finding.sort_key)
    result.stale.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result


def relativize(result: LintResult, root: Optional[Path] = None) -> LintResult:
    """A copy of ``result`` with paths rewritten relative to ``root``/cwd."""
    base = (root or Path.cwd()).resolve()

    def rewrite(finding: Finding) -> Finding:
        try:
            relative = Path(finding.path).resolve().relative_to(base)
        except ValueError:
            return finding
        return dataclasses.replace(finding, path=relative.as_posix())

    return dataclasses.replace(
        result,
        findings=[rewrite(item) for item in result.findings],
        stale=[rewrite(item) for item in result.stale],
        suppressed=[rewrite(item) for item in result.suppressed],
    )
