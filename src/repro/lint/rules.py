"""The invariant catalog: concrete rules R001-R010 (R005 and R008 retired).

Each rule encodes one load-bearing convention of this repository (the PR
that introduced it is named in ``docs/architecture.md``'s invariant
catalog).  Rules are deliberately narrow: they resolve imported names to
canonical dotted paths (``np.random.seed`` -> ``numpy.random.seed``) instead
of pattern-matching source text, so docstrings, comments, and local
variables that merely *mention* a pattern never fire.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import Finding, ModuleContext, ProjectRule, Rule, register_rule

# -- R001: no unseeded RNG -------------------------------------------------

#: RNG factories that are fine *when seeded*: flagged only when called with
#: no arguments (or an explicit ``None``), which opts into system entropy.
_SEEDED_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: ``numpy.random`` attributes that are not the legacy global-state API.
_NUMPY_RANDOM_ALLOWED = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
}

#: Module-level functions of :mod:`random` that draw from the hidden global
#: generator.
_GLOBAL_RANDOM_FNS = {
    f"random.{name}"
    for name in (
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    )
}


def _is_unseeded_call(node: ast.Call) -> bool:
    """No positional seed and no keyword seed (``None`` counts as unseeded)."""
    for arg in node.args:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return False
    for keyword in node.keywords:
        if keyword.arg is None:  # **kwargs: assume the caller seeds
            return False
        if not (
            isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        ):
            return False
    return True


@register_rule
class NoUnseededRng(Rule):
    """Every RNG must be constructed from an explicit seed (PR 3-5).

    The repository's determinism story — same seed, bit-identical artifacts,
    content-addressed caches — dies the moment a code path draws from system
    entropy or the hidden module-level generators.
    """

    rule_id = "R001"
    name = "no-unseeded-rng"
    description = (
        "RNGs must be explicitly seeded: no np.random.default_rng()/"
        "random.Random() without a seed, no legacy np.random.* or "
        "module-level random.* global-state calls"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_dotted(node.func)
            if dotted is None:
                continue
            if dotted in _SEEDED_FACTORIES:
                if _is_unseeded_call(node):
                    yield self.finding(
                        module,
                        node,
                        f"{dotted}() without an explicit seed draws from "
                        "system entropy; pass a seed (library defaults "
                        "should name one, e.g. DEFAULT_FIGURE_SEED)",
                    )
            elif (
                dotted.startswith("numpy.random.")
                and dotted not in _NUMPY_RANDOM_ALLOWED
            ):
                yield self.finding(
                    module,
                    node,
                    f"legacy global-state RNG call {dotted}(); use a seeded "
                    "numpy.random.default_rng(seed) generator instead",
                )
            elif dotted in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module,
                    node,
                    f"module-level {dotted}() draws from the hidden global "
                    "generator; thread a seeded random.Random through "
                    "repro.utils.rng.ensure_rng instead",
                )


# -- R002: scipy containment ----------------------------------------------

#: The one module allowed to import scipy (the lazy import point).
_SCIPY_BOUNDARY = "engine/deps.py"


@register_rule
class ScipyContainment(Rule):
    """scipy stays behind :mod:`repro.engine.deps` (PR 2).

    scipy is required but slow to import, so importing :mod:`repro` must
    never import it eagerly.  That only holds while every scipy access goes
    through the lazy accessors ``scipy_sparse()``/``scipy_csgraph()``.
    """

    rule_id = "R002"
    name = "scipy-containment"
    description = (
        "scipy may only be imported in engine/deps.py; elsewhere use the "
        "lazy accessors deps.scipy_sparse()/scipy_csgraph()"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if module.package_relpath == _SCIPY_BOUNDARY:
            return
        for node in ast.walk(module.tree):
            target: Optional[str] = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "scipy" or alias.name.startswith("scipy."):
                        target = alias.name
                        break
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and (
                    node.module == "scipy" or node.module.startswith("scipy.")
                ):
                    target = node.module
            elif isinstance(node, ast.Call):
                dotted = module.resolve_dotted(node.func)
                if dotted in ("importlib.import_module", "__import__") and node.args:
                    head = node.args[0]
                    if (
                        isinstance(head, ast.Constant)
                        and isinstance(head.value, str)
                        and head.value.split(".")[0] == "scipy"
                    ):
                        target = head.value
            if target is None:
                continue
            yield self.finding(
                module,
                node,
                f"direct import of {target!r} outside engine/deps.py; go "
                "through repro.engine.deps (scipy_sparse()/scipy_csgraph())",
            )


# -- R003: no backend isinstance dispatch ---------------------------------

#: Layers allowed to inspect concrete backend classes.
_BACKEND_LAYERS = ("engine/", "graph/")


@register_rule
class NoBackendIsinstance(Rule):
    """Backend dispatch goes through the kernel registry (PR 2).

    ``isinstance(x, Frozen*)`` branches outside the engine and graph layers
    reintroduce the scattered PR-1 idiom the registry replaced; they bypass
    the registry, which freezes every input once and runs the operation's
    one kernel.
    """

    rule_id = "R003"
    name = "no-backend-isinstance"
    description = (
        "no isinstance/issubclass dispatch on Frozen* backend classes "
        "outside engine/ and graph/; register a kernel instead"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if module.package_relpath.startswith(_BACKEND_LAYERS):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
            ):
                continue
            if len(node.args) < 2:
                continue
            classinfo = node.args[1]
            candidates = (
                classinfo.elts if isinstance(classinfo, ast.Tuple) else [classinfo]
            )
            for candidate in candidates:
                name = None
                if isinstance(candidate, ast.Name):
                    name = candidate.id
                elif isinstance(candidate, ast.Attribute):
                    name = candidate.attr
                if name is not None and name.startswith("Frozen"):
                    yield self.finding(
                        module,
                        node,
                        f"{node.func.id}(..., {name}) dispatches on a "
                        "backend class outside engine//graph/; add a kernel "
                        "via repro.engine.dispatchable instead",
                    )
                    break


# -- R004: no wall clock in cached paths ----------------------------------

#: Canonical dotted paths of wall-clock reads.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Decorators that mark a function as a kernel body, artifact builder, or
#: registered experiment stage.
_CACHED_PATH_DECORATORS = {
    "dispatchable",
    "artifact",
    "register_artifact",
    "experiment",
}

#: Modules where *every* function participates in content-addressed caching
#: (the artifact store + builders).  Wall-clock telemetry there needs an
#: explicit, justified suppression.
_CACHED_PATH_MODULES = {"experiments/artifacts.py"}


def _decorator_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _in_cached_path(module: ModuleContext, node: ast.AST) -> Optional[str]:
    """Why ``node`` is inside a content-derived code path (or ``None``)."""
    if module.package_relpath in _CACHED_PATH_MODULES:
        return f"module {module.package_relpath}"
    for function in module.enclosing_functions(node):
        for decorator in function.decorator_list:
            name = _decorator_name(decorator)
            if name in _CACHED_PATH_DECORATORS:
                return f"@{name} function {function.name!r}"
        lowered = function.name.lower()
        if "cache_token" in lowered or "cache_key" in lowered:
            return f"cache-token function {function.name!r}"
    return None


@register_rule
class NoWallclockInCachedPaths(Rule):
    """Cache keys and kernel outputs are content-derived (PR 5).

    A wall-clock read inside a kernel body, an artifact builder, or
    cache-token code makes artifacts non-reproducible and silently defeats
    the content-addressed store (cold/warm byte-identity, ``builds == 0``
    warm gates).
    """

    rule_id = "R004"
    name = "no-wallclock-in-cached-paths"
    description = (
        "no time.time/perf_counter/datetime.now inside @dispatchable/"
        "@artifact/@experiment bodies, cache-token code, or "
        "experiments/artifacts.py; cache keys must be content-derived"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_dotted(node.func)
            if dotted not in _WALLCLOCK:
                continue
            scope = _in_cached_path(module, node)
            if scope is None:
                continue
            yield self.finding(
                module,
                node,
                f"wall-clock read {dotted}() in {scope}: cached paths must "
                "be content-derived (derive identity from inputs, or move "
                "timing out of the builder)",
            )


# -- R007: cache-token soundness ------------------------------------------

#: Decorator names that mark a function as an artifact builder.
_ARTIFACT_DECORATORS = {"artifact"}

#: Scenario attributes that are identity/bookkeeping, never cache inputs.
_SCENARIO_NEUTRAL_ATTRS = {"name", "description", "cache_token"}

_RESOLVER_ROLE = "resolver"
_SCENARIO_ROLE = "scenario"


def _local_parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    table: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            table[child] = parent
    return table


def _method_table(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _self_field_reads(
    methods: Mapping[str, ast.FunctionDef],
    method_name: str,
    visited: Optional[set] = None,
) -> set:
    """``self.<field>`` reads reachable from a method through sibling calls."""
    if visited is None:
        visited = set()
    if method_name in visited or method_name not in methods:
        return set()
    visited.add(method_name)
    method = methods[method_name]
    positional = method.args.args
    if not positional:
        return set()
    self_name = positional[0].arg
    parents = _local_parent_map(method)
    reads: set = set()
    for node in ast.walk(method):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            continue
        enclosing = parents.get(node)
        is_call = isinstance(enclosing, ast.Call) and enclosing.func is node
        if is_call and node.attr in methods:
            reads |= _self_field_reads(methods, node.attr, visited)
        else:
            reads.add(node.attr)
    return reads


def _cache_token_model(
    modules: Sequence[ModuleContext],
) -> Tuple[Optional[set], Dict[str, set]]:
    """(covered fields, method -> transitive field reads) across the run.

    Unions every class defining ``cache_token`` in the linted module set;
    returns ``(None, {})`` when no such class exists (the rule cannot judge
    and stays silent).
    """
    covered: Optional[set] = None
    method_reads: Dict[str, set] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _method_table(node)
            if "cache_token" not in methods:
                continue
            if covered is None:
                covered = set()
            covered |= _self_field_reads(methods, "cache_token")
            for name in methods:
                method_reads.setdefault(name, set()).update(
                    _self_field_reads(methods, name)
                )
    return covered, method_reads


def _role_of(expr: ast.AST, env: Mapping[str, str]) -> Optional[str]:
    """Dataflow role of an expression: resolver, scenario, or neither."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if _role_of(expr.value, env) == _RESOLVER_ROLE and expr.attr == "scenario":
            return _SCENARIO_ROLE
        return None
    return None


def _role_env(fn: ast.AST, seed_roles: Mapping[str, str]) -> Dict[str, str]:
    """Parameter roles plus simple-alias propagation, to a fixpoint."""
    env = dict(seed_roles)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            role = _role_of(node.value, env)
            target = node.targets[0].id
            if role is not None and env.get(target) != role:
                env[target] = role
                changed = True
    return env


@register_rule
class CacheTokenSoundness(ProjectRule):
    """Builders read only cache-token-covered scenario fields (PR 5).

    For every ``@artifact`` builder, the set of scenario attribute reads
    reachable from its body — through ``resolver.scenario`` aliases,
    intra-module helper calls, and scenario *methods* — must be a subset of
    the ``self.<field>`` reads inside ``cache_token()``.  A field a builder
    consumes but the token omits is an under-keyed cache: two scenarios
    differing only in that field share a key and silently serve each other's
    artifacts.
    """

    rule_id = "R007"
    name = "cache-token-soundness"
    description = (
        "every scenario field an @artifact builder reads (transitively "
        "through aliases, intra-module helpers, and scenario methods) must "
        "be folded into cache_token(); under-keyed caches serve stale "
        "artifacts"
    )

    def check_project(self, modules: Sequence[ModuleContext]) -> Iterable[Finding]:
        covered, method_reads = _cache_token_model(modules)
        if covered is None:
            return []
        findings: List[Finding] = []
        for module in modules:
            module_defs = {
                node.name: node
                for node in module.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in module.tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not any(
                    _decorator_name(decorator) in _ARTIFACT_DECORATORS
                    for decorator in node.decorator_list
                ):
                    continue
                positional = node.args.args
                if not positional:
                    continue
                self._scan(
                    module,
                    node,
                    {positional[0].arg: _RESOLVER_ROLE},
                    node.name,
                    covered,
                    method_reads,
                    module_defs,
                    {node.name},
                    findings,
                )
        return findings

    def _scan(
        self,
        module: ModuleContext,
        fn: ast.AST,
        seed_roles: Mapping[str, str],
        builder: str,
        covered: set,
        method_reads: Mapping[str, set],
        module_defs: Mapping[str, ast.AST],
        visited: set,
        findings: List[Finding],
    ) -> None:
        env = _role_env(fn, seed_roles)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if _role_of(node.value, env) != _SCENARIO_ROLE:
                    continue
                attr = node.attr
                if attr in _SCENARIO_NEUTRAL_ATTRS:
                    continue
                parent = module.parents.get(node)
                is_call = isinstance(parent, ast.Call) and parent.func is node
                if is_call and attr in method_reads:
                    for field in sorted(method_reads[attr] - covered):
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"@artifact builder {builder!r} reads scenario "
                                f"field {field!r} (via {attr}()) that "
                                "cache_token() does not cover; an under-keyed "
                                "cache serves stale artifacts — fold the field "
                                "into cache_token() or hoist the read out of "
                                "the builder",
                            )
                        )
                elif attr not in covered:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"@artifact builder {builder!r} reads scenario "
                            f"field {attr!r} that cache_token() does not "
                            "cover; an under-keyed cache serves stale "
                            "artifacts — fold the field into cache_token() "
                            "or hoist the read out of the builder",
                        )
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = module_defs.get(node.func.id)
                if callee is None or node.func.id in visited:
                    continue
                parameters = [arg.arg for arg in callee.args.args]
                roles: Dict[str, str] = {}
                for index, arg in enumerate(node.args):
                    role = _role_of(arg, env)
                    if role is not None and index < len(parameters):
                        roles[parameters[index]] = role
                for keyword in node.keywords:
                    role = _role_of(keyword.value, env)
                    if role is not None and keyword.arg:
                        roles[keyword.arg] = role
                if roles:
                    self._scan(
                        module,
                        callee,
                        roles,
                        builder,
                        covered,
                        method_reads,
                        module_defs,
                        visited | {node.func.id},
                        findings,
                    )


# -- R010: storage hygiene -------------------------------------------------

#: The one module allowed to serialize raw graph arrays (the versioned,
#: aligned, endianness-tagged columnar writer).
_COLUMNAR_BOUNDARY = "graph/columnar.py"

#: Canonical dotted paths of ad-hoc numpy array serialization.
_NUMPY_SAVERS = {
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
    "numpy.lib.format.write_array",
}


@register_rule
class StorageHygiene(Rule):
    """Graph arrays persist only through the columnar format (PR 10).

    An ad-hoc ``array.tofile()`` / ``np.save()`` of CSR arrays writes a
    headerless (or ``.npy``-headered) blob with no magic, no format version,
    no section alignment, and no endianness tag — unreadable by
    ``open_columnar``, invisible to the artifact store's integrity hashing,
    and a fork of the on-disk format the first time its layout drifts.
    """

    rule_id = "R010"
    name = "storage-hygiene"
    description = (
        "no ad-hoc array serialization (ndarray.tofile, numpy.save/savez) "
        "outside graph/columnar.py; frozen-graph arrays persist through "
        "save_columnar()/open_columnar() so every file carries the "
        "versioned, aligned, endianness-tagged header"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if module.package_relpath == _COLUMNAR_BOUNDARY:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_dotted(node.func)
            if dotted in _NUMPY_SAVERS:
                yield self.finding(
                    module,
                    node,
                    f"{dotted}() writes an ad-hoc array file outside "
                    "graph/columnar.py; persist graph arrays via "
                    "save_columnar() so the file carries the versioned "
                    "columnar header",
                )
            elif (
                dotted is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tofile"
            ):
                yield self.finding(
                    module,
                    node,
                    "tofile() writes a raw headerless array dump outside "
                    "graph/columnar.py; persist graph arrays via "
                    "save_columnar() (versioned header, 64-byte alignment, "
                    "little-endian on disk)",
                )


# -- R009: seed-stream discipline -----------------------------------------

#: Seeded RNG constructors whose seed argument the rule inspects.
_SEED_SINKS = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "random.Random",
}

_ARITHMETIC_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.LShift,
    ast.RShift,
    ast.BitOr,
    ast.BitXor,
    ast.BitAnd,
)


def _contains_nonconstant_arithmetic(expr: ast.AST) -> bool:
    """A BinOp over anything non-constant anywhere inside ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC_OPS):
            if any(
                isinstance(leaf, (ast.Name, ast.Attribute, ast.Call))
                for leaf in ast.walk(node)
            ):
                return True
    return False


@register_rule
class SeedStreamDiscipline(Rule):
    """Chunked RNG streams compose seeds, never add them (PR 3/7).

    ``default_rng(base + i)`` collides across streams: chunk ``i`` seeded
    with ``base + 1`` *is* chunk ``i+1``'s stream, and two base seeds one
    apart overlap wholesale.  numpy's ``SeedSequence`` spawning — written
    ``default_rng([base, index])`` — mixes the pair through a hash, so
    every (base, index) combination is an independent stream.  The frozen
    walk kernel and the vectorized generative model derive their per-chunk
    streams this way.
    """

    rule_id = "R009"
    name = "seed-stream-discipline"
    description = (
        "chunked RNG seeds must be derived by sequence composition "
        "(default_rng([base, index])), never arithmetic like base + i, "
        "which collides across streams"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_dotted(node.func)
            if dotted not in _SEED_SINKS:
                continue
            seed: Optional[ast.AST] = node.args[0] if node.args else None
            if seed is None:
                for keyword in node.keywords:
                    if keyword.arg == "seed":
                        seed = keyword.value
            if seed is None:
                continue
            if _contains_nonconstant_arithmetic(seed):
                yield self.finding(
                    module,
                    node,
                    f"seed of {dotted}() is derived by arithmetic; "
                    "arithmetic seed derivation collides across chunk "
                    "streams (base+1 of stream i is stream i+1's base) — "
                    "compose a sequence instead: "
                    f"{dotted.rsplit('.', 1)[-1]}([base, index])",
                )
