"""Custom AST lints over the ``repro`` sources (verifier Layer 2).

Generic linters do not know this codebase's contracts: plans are frozen
dataclasses that must never be mutated, the engine's hot paths must stay
on native numpy dtypes, and ``core`` annotations are the documentation
of the plan algebra.  Each rule here encodes one such contract as a pure
``ast`` pass — no imports of the linted code, no execution.

Rules carry a ``scope``: path fragments a file must match for the rule
to apply (empty scope = every file).  The catalog:

* ``CL201`` bare ``except:`` handlers;
* ``CL202`` ``object.__setattr__`` outside ``__post_init__`` (frozen
  dataclass mutation);
* ``CL203`` modules using annotations without
  ``from __future__ import annotations``;
* ``CL204`` ``dtype=object`` arrays in engine hot paths;
* ``CL205`` membership tests against locally-built lists inside loops
  (quadratic scans);
* ``CL206`` un-parameterized builtin generics in annotations, repo-wide;
* ``CL207`` wall-clock ``time.time()`` calls (timings must use the
  monotonic clock helper in ``repro.obs.clock``);
* ``CL208`` ``to_rows()``/``iter_rows()`` calls in engine hot-path
  modules (row materialization defeats the columnar kernels).

The lock-discipline rules ``CL209``–``CL212`` (unlocked shared-state
mutation, lock-order inversion, manual ``acquire``/``release``, nested
re-acquisition) live in :mod:`repro.analysis.concurrency` and register
themselves into the same catalog; they are scoped to ``repro/engine``
and ``repro/obs``, the modules the wavefront thread pool runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic, Severity

#: Builtin container types that must be parameterized in annotations.
GENERIC_BUILTINS = frozenset({"dict", "frozenset", "list", "set", "tuple"})

#: Methods in which frozen-dataclass back-door writes are legitimate.
_SETATTR_ALLOWED_IN = frozenset({"__post_init__", "__setstate__", "__init__"})

Finding = tuple[int, str, str]  # (line, message, hint)
CheckFn = Callable[[ast.Module], Iterator[Finding]]


@dataclass(frozen=True)
class CodeRule:
    """One lint: id, what it catches, severity, path scope, checker."""

    rule_id: str
    name: str
    summary: str
    severity: Severity
    check: CheckFn
    scope: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        posix = Path(path).as_posix()
        return any(fragment in posix for fragment in self.scope)


#: Ordered registry of every code rule, keyed by rule id.
CODE_RULES: dict[str, CodeRule] = {}


def code_rule(
    rule_id: str,
    name: str,
    summary: str,
    severity: Severity = Severity.ERROR,
    scope: tuple[str, ...] = (),
) -> Callable[[CheckFn], CheckFn]:
    """Register a checker function as a code lint rule."""

    def register(check: CheckFn) -> CheckFn:
        if rule_id in CODE_RULES:
            raise ValueError(f"duplicate code rule id {rule_id}")
        CODE_RULES[rule_id] = CodeRule(
            rule_id, name, summary, severity, check, scope
        )
        return check

    return register


@code_rule(
    "CL201",
    "bare-except",
    "except: with no exception type swallows SystemExit and typos alike",
)
def check_bare_except(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (
                node.lineno,
                "bare except: catches everything, including SystemExit",
                "name the exception types, or use 'except Exception'",
            )


def _enclosing_functions(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every node to the name of its nearest enclosing function."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, current: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            owner[child] = current
            visit(child, current)

    visit(tree, "")
    return owner


@code_rule(
    "CL202",
    "frozen-mutation",
    "object.__setattr__ outside __post_init__ mutates frozen plan state",
)
def check_frozen_mutation(tree: ast.Module) -> Iterator[Finding]:
    owner = _enclosing_functions(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and owner.get(node, "") not in _SETATTR_ALLOWED_IN
        ):
            yield (
                node.lineno,
                "object.__setattr__ mutates a frozen dataclass outside "
                "__post_init__",
                "build a new instance instead; plans are immutable",
            )


def _module_has_annotations(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                return True
            args = node.args
            every = (
                args.posonlyargs
                + args.args
                + args.kwonlyargs
                + [args.vararg, args.kwarg]
            )
            if any(arg is not None and arg.annotation for arg in every):
                return True
    return False


@code_rule(
    "CL203",
    "missing-future-annotations",
    "annotated module lacks 'from __future__ import annotations'",
)
def check_future_annotations(tree: ast.Module) -> Iterator[Finding]:
    if not _module_has_annotations(tree):
        return
    for node in tree.body:
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "__future__"
            and any(alias.name == "annotations" for alias in node.names)
        ):
            return
    yield (
        1,
        "module uses annotations without the future import",
        "add 'from __future__ import annotations' below the docstring",
    )


def _is_object_dtype(value: ast.expr) -> bool:
    if isinstance(value, ast.Name) and value.id == "object":
        return True
    if isinstance(value, ast.Constant) and value.value == "object":
        return True
    if isinstance(value, ast.Attribute) and value.attr in (
        "object_",
        "object",
    ):
        return True
    return False


@code_rule(
    "CL204",
    "object-dtype-array",
    "dtype=object arrays in the engine defeat vectorization",
    severity=Severity.WARNING,
    scope=("repro/engine/",),
)
def check_object_dtype(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg == "dtype" and _is_object_dtype(keyword.value):
                yield (
                    node.lineno,
                    "dtype=object array in an engine hot path",
                    "dictionary-encode to an integer dtype instead",
                )


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _list_built_names(scope: ast.AST) -> set[str]:
    """Names bound to a list literal / comprehension / list() call."""
    listy: set[str] = set()
    list_makers = (ast.List, ast.ListComp)
    for node in _scope_walk(scope):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        is_listy = isinstance(value, list_makers) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "list"
        )
        if not is_listy:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                listy.add(target.id)
    return listy


_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@code_rule(
    "CL205",
    "list-membership-in-loop",
    "membership test against a locally-built list inside a loop is O(n^2)",
    severity=Severity.WARNING,
)
def check_list_membership(tree: ast.Module) -> Iterator[Finding]:
    scopes: list[ast.AST] = [tree]
    scopes.extend(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    reported: set[int] = set()
    for scope in scopes:
        listy = _list_built_names(scope)
        if not listy:
            continue
        for loop in _scope_walk(scope):
            if not isinstance(loop, _LOOP_NODES):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Compare):
                    continue
                if id(node) in reported:
                    continue
                reported.add(id(node))
                for op, comparator in zip(node.ops, node.comparators):
                    if not isinstance(op, (ast.In, ast.NotIn)):
                        continue
                    if (
                        isinstance(comparator, ast.Name)
                        and comparator.id in listy
                    ):
                        yield (
                            node.lineno,
                            f"membership test against list "
                            f"{comparator.id!r} inside a loop",
                            "keep a set alongside the list for O(1) tests",
                        )


def _bare_generics(annotation: ast.expr) -> Iterator[ast.Name]:
    """Bare builtin-generic Names anywhere inside an annotation."""
    parents: dict[ast.AST, ast.AST] = {}
    stack = [annotation]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            stack.append(child)
    for node in [annotation, *parents]:
        if not isinstance(node, ast.Name):
            continue
        if node.id not in GENERIC_BUILTINS:
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            continue  # the generic is parameterized: frozenset[...]
        yield node


@code_rule(
    "CL206",
    "bare-generic-annotation",
    "un-parameterized builtin generic hides the element type",
)
def check_bare_generic(tree: ast.Module) -> Iterator[Finding]:
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
            args = node.args
            every = (
                args.posonlyargs
                + args.args
                + args.kwonlyargs
                + [args.vararg, args.kwarg]
            )
            annotations.extend(
                arg.annotation
                for arg in every
                if arg is not None and arg.annotation is not None
            )
    for annotation in annotations:
        for name in _bare_generics(annotation):
            yield (
                getattr(name, "lineno", annotation.lineno),
                f"bare {name.id!r} annotation",
                f"parameterize it, e.g. {name.id}[str]",
            )


@code_rule(
    "CL207",
    "wall-clock-timing",
    "time.time() jumps under NTP/DST; timings must be monotonic",
    scope=("repro/",),
)
def check_wall_clock(tree: ast.Module) -> Iterator[Finding]:
    hint = "use repro.obs.clock.monotonic() (time.perf_counter based)"
    imported_bare_time = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "time"
        and any(alias.name == "time" for alias in node.names)
        for node in ast.walk(tree)
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            yield (
                node.lineno,
                "time.time() is wall-clock, not monotonic",
                hint,
            )
        elif (
            imported_bare_time
            and isinstance(func, ast.Name)
            and func.id == "time"
        ):
            yield (
                node.lineno,
                "time() (from time import time) is wall-clock",
                hint,
            )


#: Engine modules that must stay columnar end to end.  ``table`` itself
#: (which defines the row-conversion methods) and the I/O boundary
#: (``csv_io``) are deliberately out of scope.
_HOT_PATH_MODULES = (
    "repro/engine/aggregation",
    "repro/engine/executor",
    "repro/engine/indexes",
    "repro/engine/join",
    "repro/engine/grouping_sets",
    "repro/engine/partitioned_cube",
    "repro/engine/pipesort",
    "repro/engine/expressions",
    "repro/engine/dictcache",
)

#: Row-materializing Table methods banned from hot paths.
_ROW_METHODS = frozenset({"to_rows", "iter_rows"})


@code_rule(
    "CL208",
    "row-materialization-in-hot-path",
    "to_rows()/iter_rows() in an engine hot path abandons columnar "
    "execution",
    scope=_HOT_PATH_MODULES,
)
def check_row_materialization(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _ROW_METHODS:
            yield (
                node.lineno,
                f"{func.attr}() materializes Python row tuples in an "
                "engine hot path",
                "operate on columns (table[name]) or dictionary codes; "
                "row conversion belongs at the I/O boundary",
            )


def lint_source(
    source: str,
    path: str,
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint one module's source text.

    Args:
        source: the module source.
        path: path used for scope matching and locations.
        rules: restrict to these rule ids (default: all).

    Returns:
        Diagnostics sorted by line number.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Diagnostic(
                "CL200",
                Severity.ERROR,
                f"{path}:{error.lineno or 0}",
                f"syntax error: {error.msg}",
            )
        ]
    selected = set(rules) if rules is not None else None
    if selected is not None:
        unknown = selected - CODE_RULES.keys()
        if unknown:
            raise ValueError(
                f"unknown code rule id(s): {', '.join(sorted(unknown))}"
            )
    diagnostics: list[Diagnostic] = []
    for rule_id, rule in CODE_RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        if not rule.applies_to(path):
            continue
        for line, message, hint in rule.check(tree):
            diagnostics.append(
                Diagnostic(
                    rule_id,
                    rule.severity,
                    f"{path}:{line}",
                    message,
                    hint,
                )
            )
    diagnostics.sort(key=lambda d: (d.location, d.rule))
    return diagnostics


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files / directories."""
    if rules is not None:
        unknown = set(rules) - CODE_RULES.keys()
        if unknown:
            raise ValueError(
                f"unknown code rule id(s): {', '.join(sorted(unknown))}"
            )
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diagnostics: list[Diagnostic] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        diagnostics.extend(lint_source(source, str(file), rules))
    return diagnostics


# Registered last so `code_rule` exists when the module body runs; the
# import is for its registration side effect only.
from repro.analysis import concurrency as _concurrency  # noqa: E402,F401
