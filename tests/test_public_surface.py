"""Every public name in ``src/`` earns a caller outside the tests.

A top-level public function or class, and a public method or property of
any class, in ``src/repro`` counts as used when any of these holds:

* its name appears as a name, an attribute or an import alias somewhere in
  ``src/`` outside its own definition (``__init__`` re-exports and
  ``__all__`` lists do not count, and neither do strings: payload keys such
  as ``"best_fit"`` name no function);
* its name appears the same way in ``benchmarks/``, ``examples/`` or
  ``perfbench/``;
* its name appears as a string in ``perfbench/`` (``spans.py`` rebinds
  functions by name);
* it is registered by ``@experiment``, ``@artifact`` or ``@register_rule``.

Methods are matched by name alone, and only as attributes: a method counts
as used when ``.name`` appears as above (or ``"name"`` in ``perfbench/``),
whichever class it belongs to.  A local variable or a function that shares
the spelling does not count.  A name that only tests reach is
deleted, unless :data:`KEPT` (or :data:`KEPT_METHODS`) lists it with a
reason the test can check: the file that uses it, or the ROADMAP item that
will.  A ``KEPT`` entry that is no longer needed fails too, so the list
cannot go stale.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")
STRING_CALLER_DIRS = ("perfbench",)
REGISTERING_DECORATORS = {"experiment", "artifact", "register_rule"}

#: name -> (kind, where), the reason a name with no caller stays:
#: ``oracle``/``tooling``: the test file ``tests/<where>`` imports it;
#: ``doctest``: a docstring example of ``src/repro/<where>`` uses it;
#: ``roadmap``: open ROADMAP item ``<where>`` names it as work to come.
KEPT: Dict[str, Tuple[str, str]] = {
    # References the oracles compare live kernels against.
    "exact_neighbourhood_function": ("oracle", "test_oracle_hyperanf.py"),
    "attribute_distance": ("oracle", "test_oracle_attribute_distance.py"),
    "pair_features": ("oracle", "test_engine_kernels.py"),
    "classify_closures": ("oracle", "test_oracle_closure_scores.py"),
    "evaluate_closure_models": ("oracle", "test_oracle_closure_scores.py"),
    # Test tooling.
    "list_ops": ("tooling", "test_engine.py"),
    "unregister_artifact": ("tooling", "test_experiments_pipeline.py"),
    # The SAN constructor the module doctests use, and the read-only graph protocol.
    "san_from_edge_lists": ("doctest", "algorithms/clustering.py"),
    "DiGraphView": ("doctest", "graph/protocol.py"),
    # Names that open ROADMAP items will use.
    "phase_averages": ("roadmap", "1"),
    "harmonic_outdegree_approximation": ("roadmap", "2"),
    "predicted_attribute_degree_lognormal": ("roadmap", "2"),
}

#: ``Class.method`` -> (kind, where), the reason a method or property with
#: no caller stays: ``oracle``: the test file ``tests/<where>`` calls it.
KEPT_METHODS: Dict[str, Tuple[str, str]] = {
    # Called by the loop references in tests/model_reference.py that the
    # Figure 15 scorer and the churn generator are checked against.
    "AttachmentModelSpec.attribute_factor": ("oracle", "model_reference.py"),
    "ArrivalHistory.record_attribute_removal": ("oracle", "model_reference.py"),
}


def _python_files(directory: Path) -> Iterator[Path]:
    for path in sorted(directory.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in getattr(node, "targets", [getattr(node, "target", None)])
    )


def _references(
    tree: ast.AST, *, imports: bool, strings: bool, names: bool = True
) -> Counter:
    """Count the names ``tree`` mentions as names, attributes, imports or
    strings (``names=False`` skips plain names)."""
    counts: Counter = Counter()
    skipped = {
        id(child)
        for node in ast.walk(tree)
        if _is_all_assignment(node)
        for child in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and names:
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias) and imports:
            counts[node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def _decorator_name(decorator: ast.expr) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def public_definitions() -> List[Tuple[str, Path, ast.AST]]:
    """Every top-level public function and class under ``src/repro``."""
    found = []
    for path in _python_files(SRC):
        for node in _parse(path).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                found.append((node.name, path, node))
    return found


def public_methods() -> List[Tuple[str, str, Path, ast.AST]]:
    """``(Class.method, method, path, node)`` for every public method or property."""
    found = []
    for path in _python_files(SRC):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{item.name}", item.name, path, item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
    return found


@functools.lru_cache(maxsize=None)
def _uses(methods: bool = False) -> Tuple[Counter, Counter]:
    """Name counts in ``src/`` and in the caller directories; with
    ``methods``, attribute references (and perfbench strings) only."""
    src_uses: Counter = Counter()
    for path in _python_files(SRC):
        src_uses += _references(
            _parse(path),
            imports=path.name != "__init__.py" and not methods,
            strings=False,
            names=not methods,
        )
    outside_uses: Counter = Counter()
    for directory in CALLER_DIRS:
        for path in _python_files(ROOT / directory):
            outside_uses += _references(
                _parse(path),
                imports=not methods,
                strings=directory in STRING_CALLER_DIRS,
                names=not methods,
            )
    return src_uses, outside_uses


def _has_caller(name: str, node: ast.AST, methods: bool = False) -> bool:
    """Whether ``name`` is used outside its definition ``node``."""
    src_uses, outside_uses = _uses(methods)
    own = _references(node, imports=not methods, strings=False, names=not methods)[name]
    return src_uses[name] - own > 0 or outside_uses[name] > 0


@functools.lru_cache(maxsize=None)
def unused_public_names() -> Dict[str, Path]:
    """Public names in ``src/`` with no caller outside the tests."""
    unused = {}
    for name, path, node in public_definitions():
        if any(
            _decorator_name(decorator) in REGISTERING_DECORATORS
            for decorator in getattr(node, "decorator_list", [])
        ):
            continue
        if not _has_caller(name, node):
            unused[name] = path
    return unused


@functools.lru_cache(maxsize=None)
def unused_public_methods() -> Dict[str, Path]:
    """``Class.method`` names in ``src/`` with no caller outside the tests."""
    return {
        qualified: path
        for qualified, name, path, node in public_methods()
        if not _has_caller(name, node, methods=True)
    }


def test_every_public_name_has_a_caller_or_a_reason():
    unused = unused_public_names()
    unexplained = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for name, path in unused.items()
        if name not in KEPT
    )
    assert not unexplained, (
        "public names that only tests reach; delete them, or list them in "
        "KEPT with the oracle, tool or ROADMAP item that needs them:\n  "
        + "\n  ".join(unexplained)
    )


def test_kept_entries_are_current():
    unused = unused_public_names()
    stale = sorted(name for name in KEPT if name not in unused)
    assert not stale, f"KEPT lists names that are gone or now have callers: {stale}"


def test_every_public_method_has_a_caller_or_a_reason():
    unexplained = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for name, path in unused_public_methods().items()
        if name not in KEPT_METHODS
    )
    assert not unexplained, (
        "public methods and properties that only tests reach; delete them, or "
        "list them in KEPT_METHODS with the oracle that calls them:\n  "
        + "\n  ".join(unexplained)
    )


def test_kept_method_entries_are_current():
    unused = unused_public_methods()
    stale = sorted(name for name in KEPT_METHODS if name not in unused)
    assert not stale, (
        f"KEPT_METHODS lists methods that are gone or now have callers: {stale}"
    )


def test_kept_method_reasons_hold():
    for qualified, (kind, where) in KEPT_METHODS.items():
        assert kind == "oracle", (qualified, kind)
        name = qualified.rsplit(".", 1)[-1]
        called = {
            node.attr
            for node in ast.walk(_parse(ROOT / "tests" / where))
            if isinstance(node, ast.Attribute)
        }
        assert name in called, f"tests/{where} does not call .{name}"


def _roadmap_item(number: str) -> str:
    """The text of open item ``number`` of ``ROADMAP.md``."""
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    start = roadmap.index(f"\n{number}. **")
    ends = [
        roadmap.find(marker, start + 1)
        for marker in (f"\n{int(number) + 1}. **", "\n## ")
    ]
    return roadmap[start : min(end for end in ends if end > 0)]


def _docstrings(tree: ast.AST) -> List[str]:
    return [
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_kept_reasons_hold():
    for name, (kind, where) in KEPT.items():
        if kind in ("oracle", "tooling"):
            imported = {
                alias.asname or alias.name
                for node in ast.walk(_parse(ROOT / "tests" / where))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert name in imported, f"tests/{where} does not import {name}"
        elif kind == "doctest":
            assert any(
                ">>> " in text and name in text for text in _docstrings(_parse(SRC / where))
            ), f"no doctest in src/repro/{where} uses {name}"
        else:
            assert kind == "roadmap", (name, kind)
            assert name in _roadmap_item(where), f"ROADMAP item {where} does not name {name}"


def test_the_scan_counts_registrations_and_perfbench_strings():
    # Stages register by decorator and perfbench rebinds functions by
    # string name; a scan that missed either would flag live names.
    live = {"figure4_evolution", "save_san_json", "load_san_json"}
    assert live <= {name for name, _, _ in public_definitions()}
    assert not live & set(unused_public_names())


def test_the_method_scan_sees_attribute_calls_and_properties():
    # ``freeze`` is called as an attribute, ``best_name`` read as a property.
    live = {"SAN.freeze", "DiGraph.freeze", "ModelComparison.best_name"}
    assert live <= {qualified for qualified, _, _, _ in public_methods()}
    assert not live & set(unused_public_methods())
