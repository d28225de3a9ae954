"""The rule set: the reproduction's contracts, as AST checks.

Every rule here is grounded in a documented repo contract (see README
"Guarantees"): bit-identical results across serial/parallel/cold/warm
execution, stable content hashes, telemetry that cannot perturb results,
and structured console output.  Each rule carries its severity and the
rationale the ``--explain`` command and the README table surface.

Rules are deliberately scope-aware: ``determinism`` only patrols the
modules whose outputs are hashed or cached, ``telemetry-inert`` only
patrols ``repro.obs``, and so on.  A rule that fires everywhere teaches
people to sprinkle suppressions; a rule that fires exactly where the
contract applies stays credible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.layers import layer_of, layering_violation
from repro.analysis.lint.source import SourceModule

__all__ = ["LintRule", "RULES"]


@dataclass(frozen=True)
class LintRule:
    """One named check: scope predicate + AST visitor + rationale."""

    name: str
    severity: str  # "error" | "warning"
    summary: str  # one line, for --list-rules and the README table
    rationale: str  # the contract it enforces, for --explain
    applies: Callable[[SourceModule], bool]
    check: Callable[[SourceModule], Iterator[Tuple[int, str]]]


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` under an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# determinism: no wall clocks, global RNGs, or environment reads where
# results are computed and hashed.
# ---------------------------------------------------------------------------

#: numpy.random attributes that are explicitly seeded constructions.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


def _deterministic_scope(module: SourceModule) -> bool:
    """Modules whose outputs are hashed, cached, or compared bit-for-bit.

    Timing and environment access belong in ``repro.obs`` and the
    executor -- never where results come from.
    """
    name = module.module
    if name is None:
        return False
    if name == "repro.runtime.jobs":
        return True
    if name == "repro.scenarios" or name.startswith("repro.scenarios."):
        return True
    return layer_of(name) in {"base", "model"}


class _ImportTable:
    """Names bound to the nondeterminism-relevant stdlib/numpy modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.time_modules: Set[str] = set()
        self.time_functions: Set[str] = set()
        self.datetime_roots: Set[str] = set()  # module or class aliases
        self.random_modules: Set[str] = set()
        self.random_functions: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_modules: Set[str] = set()
        self.os_modules: Set[str] = set()
        self.os_environ_names: Set[str] = set()
        self.os_getenv_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_roots.add(bound)
                    elif alias.name == "random":
                        self.random_modules.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(bound)
                    elif alias.name == "numpy.random":
                        self.numpy_random_modules.add(alias.asname or "numpy")
                    elif alias.name == "os":
                        self.os_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "time":
                        self.time_functions.add(bound)
                    elif node.module == "datetime":
                        self.datetime_roots.add(bound)
                    elif node.module == "random":
                        self.random_functions.add(bound)
                    elif node.module == "numpy" and alias.name == "random":
                        self.numpy_random_modules.add(bound)
                    elif node.module == "os" and alias.name == "environ":
                        self.os_environ_names.add(bound)
                    elif node.module == "os" and alias.name == "getenv":
                        self.os_getenv_names.add(bound)


def _check_determinism(module: SourceModule) -> Iterator[Tuple[int, str]]:
    imports = _ImportTable(module.tree)
    seen: Set[Tuple[int, str]] = set()

    def flag(lineno: int, message: str) -> None:
        seen.add((lineno, message))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in imports.time_functions:
                    flag(node.lineno, f"wall-clock call {func.id}() in deterministic module")
                elif func.id in imports.random_functions:
                    flag(node.lineno, f"global-RNG call {func.id}() in deterministic module")
                elif func.id in imports.os_getenv_names:
                    flag(node.lineno, "os.getenv() read in deterministic module")
            elif isinstance(func, ast.Attribute):
                root = func.value
                if isinstance(root, ast.Name) and root.id in imports.time_modules:
                    flag(node.lineno, f"wall-clock call time.{func.attr}() in deterministic module")
                elif isinstance(root, ast.Name) and root.id in imports.random_modules:
                    if func.attr != "Random":
                        flag(
                            node.lineno,
                            f"global-RNG call random.{func.attr}() in deterministic module",
                        )
                elif (
                    func.attr in {"now", "utcnow", "today"}
                    and _root_name(root) in imports.datetime_roots
                ):
                    flag(node.lineno, f"wall-clock call datetime {func.attr}() in deterministic module")
                elif isinstance(root, ast.Name) and root.id in imports.os_modules:
                    if func.attr == "getenv":
                        flag(node.lineno, "os.getenv() read in deterministic module")
                elif func.attr not in _NP_RANDOM_ALLOWED:
                    # np.random.<dist>(...) draws from the *global* NumPy RNG.
                    if (
                        isinstance(root, ast.Attribute)
                        and root.attr == "random"
                        and isinstance(root.value, ast.Name)
                        and root.value.id in imports.numpy_modules
                    ) or (
                        isinstance(root, ast.Name)
                        and root.id in imports.numpy_random_modules
                    ):
                        flag(
                            node.lineno,
                            f"np.random.{func.attr}() uses the global NumPy RNG; "
                            "use np.random.default_rng(seed)",
                        )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in imports.os_modules
            ):
                flag(node.lineno, "os.environ read in deterministic module")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imports.os_environ_names:
                flag(node.lineno, "os.environ read in deterministic module")

    yield from sorted(seen)


# ---------------------------------------------------------------------------
# hash-surface: frozen content-hashed specs must serialize every field.
# ---------------------------------------------------------------------------


def _hash_surface_scope(module: SourceModule) -> bool:
    name = module.module
    if name is None:
        return False
    if name == "repro.runtime.jobs":
        return True
    if name == "repro.scenarios" or name.startswith("repro.scenarios."):
        return True
    return layer_of(name) == "model"


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            is_dataclass = (isinstance(func, ast.Name) and func.id == "dataclass") or (
                isinstance(func, ast.Attribute) and func.attr == "dataclass"
            )
            if is_dataclass:
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
    return False


def _class_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """Dataclass fields: annotated assignments that are not ClassVars."""
    result: List[Tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            result.append((stmt.target.id, stmt.lineno))
    return result


def _metadata_fields(node: ast.ClassDef) -> Set[str]:
    """Fields named by a ``METADATA_FIELDS`` ClassVar (hash-exempt)."""
    names: Set[str] = set()
    for stmt in node.body:
        target = None
        value = None
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target, value = stmt.target.id, stmt.value
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            if isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0].id, stmt.value
        if target == "METADATA_FIELDS" and isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.add(element.value)
    return names


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _serialized_names(fn: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """(names mentioned by the serializer, uses-generic-fields-iteration)."""
    names: Set[str] = set()
    generic = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "fields") or (
                isinstance(func, ast.Attribute) and func.attr == "fields"
            ):
                generic = True
            for keyword in node.keywords:
                if keyword.arg is not None:
                    names.add(keyword.arg)
                else:
                    # A ``cls(**data)`` splat forwards every field generically.
                    generic = True
    return names, generic


def _module_has_schema_constant(tree: ast.Module) -> bool:
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith("SCHEMA_VERSION"):
                return True
    return False


def _check_hash_surface(module: SourceModule) -> Iterator[Tuple[int, str]]:
    has_schema = _module_has_schema_constant(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef) or not _is_frozen_dataclass(node):
            continue
        to_dict = _method(node, "to_dict")
        if to_dict is None:
            continue
        exempt = _metadata_fields(node)
        covered, generic = _serialized_names(to_dict)
        if not generic:
            for field_name, _ in _class_fields(node):
                if field_name in exempt or field_name in covered:
                    continue
                yield (
                    to_dict.lineno,
                    f"{node.name}.to_dict() does not serialize field "
                    f"{field_name!r}; hash-relevant fields must reach the "
                    "payload (or be listed in METADATA_FIELDS)",
                )
        from_dict = _method(node, "from_dict")
        if from_dict is not None:
            restored, generic_from = _serialized_names(from_dict)
            if not generic_from:
                for field_name, _ in _class_fields(node):
                    if field_name in exempt or field_name in restored:
                        continue
                    yield (
                        from_dict.lineno,
                        f"{node.name}.from_dict() does not restore field "
                        f"{field_name!r}; round-tripping would silently drop it",
                    )
        content_hash = _method(node, "content_hash")
        if content_hash is not None and not has_schema:
            yield (
                content_hash.lineno,
                f"{node.name}.content_hash exists but the module defines no "
                "*SCHEMA_VERSION constant; hashed payloads need a version "
                "stamp to evolve",
            )


# ---------------------------------------------------------------------------
# layering: top-level imports must follow the layer DAG.
# ---------------------------------------------------------------------------


def _layering_scope(module: SourceModule) -> bool:
    return module.module is not None and layer_of(module.module) is not None


def _top_level_imports(
    module: SourceModule,
) -> Iterator[Tuple[int, str]]:
    """(line, dotted module) for every module-body import.

    Descends into module-level ``if``/``try`` blocks (TYPE_CHECKING guards,
    optional-dependency probes) but never into functions or classes:
    function-scoped deferred imports are the sanctioned lazy idiom.
    """
    package = module.module or ""
    if not module.rel_path.endswith("__init__.py") and "." in package:
        package = package.rsplit(".", 1)[0]

    def walk(statements: List[ast.stmt]) -> Iterator[Tuple[int, str]]:
        for stmt in statements:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    yield stmt.lineno, alias.name
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level == 0:
                    base = stmt.module or ""
                else:
                    parts = package.split(".") if package else []
                    if stmt.level - 1 <= len(parts):
                        parts = parts[: len(parts) - (stmt.level - 1)]
                    base = ".".join(parts)
                    if stmt.module:
                        base = f"{base}.{stmt.module}" if base else stmt.module
                if base:
                    # Check the *qualified* names: ``from repro import config``
                    # is an edge to repro.config, not to the app-layer package
                    # __init__ (which every import triggers anyway).
                    for alias in stmt.names:
                        if alias.name == "*":
                            yield stmt.lineno, base
                        else:
                            yield stmt.lineno, f"{base}.{alias.name}"
            elif isinstance(stmt, ast.If):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)

    yield from walk(module.tree.body)


def _check_layering(module: SourceModule) -> Iterator[Tuple[int, str]]:
    importer = module.module or ""
    seen: Set[Tuple[int, str]] = set()
    for lineno, imported in _top_level_imports(module):
        message = layering_violation(importer, imported)
        if message is not None:
            # `from repro.sim import engine` reports once, not once for the
            # module and once per alias resolving to the same layer.
            key = (lineno, message)
            if key not in seen:
                seen.add(key)
                yield lineno, message


# ---------------------------------------------------------------------------
# telemetry-inert: obs code must not mutate what it observes.
# ---------------------------------------------------------------------------

_MUTATORS = {
    "append",
    "extend",
    "insert",
    "remove",
    "clear",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "add",
    "discard",
    "sort",
    "reverse",
}


def _telemetry_scope(module: SourceModule) -> bool:
    """The live observation path: repro.obs minus the offline read side.

    ``repro.obs.analysis`` post-processes event files and summaries it
    loaded itself -- there is no live simulation state in reach, so
    parameter mutation there is ordinary data shaping, not a contract risk.
    """
    name = module.module
    if name is None or not (name == "repro.obs" or name.startswith("repro.obs.")):
        return False
    return not name.startswith("repro.obs.analysis")


def _function_params(fn: ast.AST) -> Set[str]:
    args = fn.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    if names and names[0] in {"self", "cls"}:
        names = names[1:]
    return set(names)


def _check_telemetry_inert(module: SourceModule) -> Iterator[Tuple[int, str]]:
    seen: Set[Tuple[int, str]] = set()
    for fn in ast.walk(module.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _function_params(fn)
        if not params:
            continue
        for node in ast.walk(fn):
            findings: List[Tuple[int, str]] = []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in params:
                            findings.append(
                                (
                                    node.lineno,
                                    f"obs code mutates observed object {root!r} "
                                    "(assignment through a parameter)",
                                )
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root in params:
                            findings.append(
                                (
                                    node.lineno,
                                    f"obs code deletes state on observed object {root!r}",
                                )
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                    root = _root_name(func.value)
                    if root in params:
                        findings.append(
                            (
                                node.lineno,
                                f"obs code calls mutating method .{func.attr}() "
                                f"on observed object {root!r}",
                            )
                        )
                elif isinstance(func, ast.Name) and func.id == "setattr" and node.args:
                    root = _root_name(node.args[0])
                    if root in params:
                        findings.append(
                            (
                                node.lineno,
                                f"obs code setattr()s on observed object {root!r}",
                            )
                        )
            seen.update(findings)
    yield from sorted(seen)


# ---------------------------------------------------------------------------
# console: structured output only -- no bare print / raw stream writes.
# ---------------------------------------------------------------------------

#: Files allowed to touch the raw streams: the Console implementation itself.
_CONSOLE_WHITELIST = {"src/repro/obs/logging.py"}


def _console_scope(module: SourceModule) -> bool:
    return module.rel_path not in _CONSOLE_WHITELIST


def _check_console(module: SourceModule) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield node.lineno, "bare print(); route output through repro.obs.logging.Console"
        elif isinstance(func, ast.Attribute) and func.attr == "write":
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr in {"stdout", "stderr"}
                and isinstance(value.value, ast.Name)
                and value.value.id == "sys"
            ):
                yield (
                    node.lineno,
                    f"raw sys.{value.attr}.write(); route output through "
                    "repro.obs.logging.Console",
                )


# ---------------------------------------------------------------------------
# executor-safety: no fork-unsafe state created at module level in modules
# worker processes import.
# ---------------------------------------------------------------------------

#: Bare constructor names whose module-level call creates fork-unsafe state.
_FORK_UNSAFE_CONSTRUCTORS = {
    "open": "an open file handle",
    "Popen": "a child process",
    "Pool": "a live process pool",
    "ProcessPoolExecutor": "a live process pool",
    "Thread": "a thread object",
    "ThreadPoolExecutor": "a live thread pool",
    "Timer": "a timer thread",
    "socket": "a socket",
}

#: Modules whose attribute calls at module level are fork-hazards...
_FORK_UNSAFE_MODULES = {"threading", "multiprocessing", "subprocess", "socket", "concurrent"}

#: ...except these attrs: synchronization primitives (fork-safe to *create*;
#: the child gets an unlocked copy) and pure queries that hold nothing open.
_FORK_SAFE_ATTRS = {
    "Lock",
    "RLock",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "local",
    "get_context",
    "get_start_method",
    "cpu_count",
    "current_thread",
    "main_thread",
    "active_count",
    "get_ident",
}


def _executor_safety_scope(module: SourceModule) -> bool:
    """Everything a forked worker inherits: the full stack below the CLI.

    A multi-worker ``Executor`` forks its pool, so workers inherit every
    module the parent imported; the app layer (CLI, analysis tooling) is
    excluded because it runs only in the parent and is where pools
    legitimately live.
    """
    name = module.module
    if name is None:
        return False
    return layer_of(name) in {
        "base", "model", "obs", "runtime", "scenarios", "experiments", "fleet",
    }


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Statements that execute at import time, outside any function or class.

    Descends into module-level ``if``/``try``/``with`` (guards and probes)
    but not into function or class bodies: state created there is lazy (or a
    class attribute a dataclass ``field()`` manages), not import-time state.
    """

    def walk(statements: List[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield stmt
            if isinstance(stmt, ast.If):
                yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for handler in stmt.handlers:
                    yield from walk(handler.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)
            elif isinstance(stmt, (ast.With, ast.For, ast.While)):
                yield from walk(stmt.body)

    yield from walk(tree.body)


def _check_executor_safety(module: SourceModule) -> Iterator[Tuple[int, str]]:
    seen: Set[Tuple[int, str]] = set()
    for stmt in _module_level_statements(module.tree):
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _FORK_UNSAFE_CONSTRUCTORS:
                what = _FORK_UNSAFE_CONSTRUCTORS[func.id]
                seen.add(
                    (
                        node.lineno,
                        f"module-level {func.id}() creates {what} at import "
                        "time; forked workers inherit it in an undefined "
                        "state -- create it lazily inside a function",
                    )
                )
            elif isinstance(func, ast.Attribute):
                root = _root_name(func.value)
                if (
                    root in _FORK_UNSAFE_MODULES
                    and func.attr not in _FORK_SAFE_ATTRS
                ):
                    seen.add(
                        (
                            node.lineno,
                            f"module-level {root}.{func.attr}() call at import "
                            "time; forked workers inherit whatever it opened "
                            "or started -- create it lazily inside a function",
                        )
                    )
                elif func.attr == "start":
                    seen.add(
                        (
                            node.lineno,
                            "module-level .start() call: a thread or process "
                            "started at import time does not survive fork "
                            "(the child sees its locks and state, not the "
                            "thread) -- start it lazily inside a function",
                        )
                    )
    yield from sorted(seen)


# ---------------------------------------------------------------------------
# cache-key-hygiene: hashed payloads carry schema stamps; digests flow
# through the one canonical encoder.
# ---------------------------------------------------------------------------


def _cache_key_scope(module: SourceModule) -> bool:
    return module.module is not None


def _check_cache_key_hygiene(module: SourceModule) -> Iterator[Tuple[int, str]]:
    seen: Set[Tuple[int, str]] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # Any hashlib use outside repro.hashing bypasses canonical_json:
            # the digest is taken over some ad-hoc encoding, so equal specs
            # can hash unequal (and vice versa) depending on formatting.
            if module.module == "repro.hashing":
                continue
            imports_hashlib = (
                isinstance(node, ast.Import)
                and any(alias.name == "hashlib" for alias in node.names)
            ) or (isinstance(node, ast.ImportFrom) and node.module == "hashlib")
            if imports_hashlib:
                seen.add(
                    (
                        node.lineno,
                        "hashlib imported outside repro.hashing; content "
                        "hashes must flow through repro.hashing.content_hash "
                        "(canonical_json + sha256) so equal payloads always "
                        "hash equal",
                    )
                )
        elif isinstance(node, ast.Call):
            func = node.func
            is_content_hash = (
                isinstance(func, ast.Name) and func.id == "content_hash"
            ) or (isinstance(func, ast.Attribute) and func.attr == "content_hash")
            if not is_content_hash or not node.args:
                continue
            payload = node.args[0]
            if not isinstance(payload, ast.Dict):
                # Non-literal payloads (an object's to_dict(), a variable)
                # carry their schema stamp at the definition site; only the
                # inline dict literal is checkable -- and forgeable -- here.
                continue
            literal_keys = {
                key.value
                for key in payload.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            has_splat = any(key is None for key in payload.keys)
            if "schema" not in literal_keys and not has_splat:
                seen.add(
                    (
                        node.lineno,
                        "content_hash() payload dict has no 'schema' key; "
                        "unversioned payloads collide across format changes "
                        "-- stamp it with the module's *SCHEMA_VERSION",
                    )
                )
    yield from sorted(seen)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

RULES: Dict[str, LintRule] = {
    rule.name: rule
    for rule in [
        LintRule(
            name="determinism",
            severity="error",
            summary="no wall clocks, global RNGs, or env reads in result-producing modules",
            rationale=(
                "Results must be bit-identical across serial/parallel/cold/warm "
                "runs, and job payloads are content-addressed: anything a model, "
                "hashing, scenario, or job-payload module reads from a wall "
                "clock, a global RNG, or the process environment leaks "
                "irreproducible state into cached artifacts. Timing belongs in "
                "repro.obs and the executor; randomness must flow through an "
                "explicitly seeded np.random.default_rng."
            ),
            applies=_deterministic_scope,
            check=_check_determinism,
        ),
        LintRule(
            name="hash-surface",
            severity="error",
            summary="frozen content-hashed specs must serialize every field",
            rationale=(
                "Content hashes are computed from to_dict() payloads. A field "
                "added to a frozen spec but not to its serializer silently "
                "stops affecting the hash, so two semantically different specs "
                "collide in the result cache -- the worst possible failure, "
                "because it returns *wrong cached results* rather than "
                "crashing. Every dataclass field must reach to_dict()/"
                "from_dict() (or be declared metadata via METADATA_FIELDS), "
                "and hashed payloads need a *SCHEMA_VERSION constant so the "
                "format can evolve without silent collisions."
            ),
            applies=_hash_surface_scope,
            check=_check_hash_surface,
        ),
        LintRule(
            name="layering",
            severity="error",
            summary="top-level imports must follow the layer DAG (model never sees obs/runtime)",
            rationale=(
                "The determinism and telemetry-inertness guarantees are "
                "structural: the model stack computes results without ever "
                "importing the runtime or telemetry, so those layers *cannot* "
                "perturb what gets hashed. One stray top-level import "
                "re-couples the layers. Function-scoped deferred imports are "
                "exempt -- they are the sanctioned cycle-breaking idiom."
            ),
            applies=_layering_scope,
            check=_check_layering,
        ),
        LintRule(
            name="telemetry-inert",
            severity="error",
            summary="obs code must not mutate the objects it observes",
            rationale=(
                "Telemetry is bit-inert: enabling metrics, spans, or tracing "
                "must never change a simulation result (the telemetry tests "
                "check this dynamically; this rule checks it statically). "
                "Code under repro.obs therefore must not assign through, call "
                "mutating methods on, or setattr() objects handed to it -- "
                "observation reads, it never writes back."
            ),
            applies=_telemetry_scope,
            check=_check_telemetry_inert,
        ),
        LintRule(
            name="executor-safety",
            severity="error",
            summary="no fork-unsafe module-level state (handles, threads, pools) in worker-imported modules",
            rationale=(
                "A multi-worker Executor forks its pool, and a forked child "
                "inherits every module the parent imported -- including any "
                "file handle, socket, thread, or pool created at module "
                "level. Handles end up shared (two processes interleaving "
                "writes into one descriptor), threads silently do not exist "
                "in the child while their locks carry over locked, and a "
                "live pool inherited through fork deadlocks. Import-time "
                "state in any module below the CLI must therefore be plain "
                "data; handles and threads are created lazily, inside "
                "functions, after the fork."
            ),
            applies=_executor_safety_scope,
            check=_check_executor_safety,
        ),
        LintRule(
            name="cache-key-hygiene",
            severity="error",
            summary="content_hash payloads carry a schema stamp; digests only via repro.hashing",
            rationale=(
                "Every cache key and spec identity is "
                "repro.hashing.content_hash over a canonical_json encoding. "
                "Two hygiene rules keep those keys trustworthy: an inline "
                "payload dict must carry a 'schema' version stamp (an "
                "unversioned payload collides with its future self when the "
                "format changes -- returning wrong cached results instead of "
                "recomputing), and hashlib must not be used outside "
                "repro.hashing (an ad-hoc digest bypasses canonical_json, so "
                "semantically equal payloads can hash unequal depending on "
                "key order or formatting)."
            ),
            applies=_cache_key_scope,
            check=_check_cache_key_hygiene,
        ),
        LintRule(
            name="console",
            severity="warning",
            summary="no bare print() or raw stream writes outside the Console implementation",
            rationale=(
                "All human-facing output flows through "
                "repro.obs.logging.Console so that --quiet/--json modes, "
                "progress rendering, and tests capturing output behave "
                "consistently. A bare print() bypasses every one of those "
                "controls and corrupts machine-readable output modes."
            ),
            applies=_console_scope,
            check=_check_console,
        ),
    ]
}
