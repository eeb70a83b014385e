"""Intra-procedural dataflow analyses, run as per-file lint rules.

Two analyses live here, both pure functions over an :mod:`ast` tree,
each wrapped as a :class:`~repro.lint.rules.Rule` in
:data:`DATAFLOW_RULES`:

* :func:`rng_provenance` (rule **D006**) — flags ``random.Random(...)``
  constructions whose seed expression does not derive from a function
  parameter or spec attribute, and RNGs stored in module globals.  A
  deterministic simulator must thread seeds from the spec down; an RNG
  seeded from a literal deep inside a helper silently decouples results
  from ``ScenarioSpec.seed``, and a module-global RNG couples runs that
  share an interpreter.
* :func:`pool_picklability` (rule **X001**) — flags lambdas, closures,
  and bound methods passed as the callable to
  ``ProcessPoolExecutor.submit``/``map``.  Those objects fail to pickle
  at fan-out time, so a sweep dies inside the pool with an opaque
  traceback instead of at the call site.

Both analyses are intentionally intra-procedural and conservative: they
only flag patterns that are locally provable, never guess across calls.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .rules import FileContext, RawFinding, Rule, _dotted, _imported_names

__all__ = ["DATAFLOW_RULES", "rng_provenance", "pool_picklability"]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of *node* without entering nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(child))


def _scopes(node: ast.AST) -> Iterator[ast.AST]:
    """Yield the nested function scopes directly inside *node*'s scope."""
    for child in _shallow_walk(node):
        if isinstance(child, _SCOPE_NODES):
            yield child


def _param_names(fn: ast.AST) -> Set[str]:
    args = fn.args  # type: ignore[attr-defined]
    names = set()
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        for a in group:
            names.add(a.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def _binding_targets(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(name, value_expr)`` pairs bound by a statement node."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            for name in _target_names(target):
                yield name, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        for name in _target_names(node.target):
            yield name, node.value
    elif isinstance(node, ast.AugAssign):
        for name in _target_names(node.target):
            yield name, node.value
    elif isinstance(node, ast.NamedExpr):
        for name in _target_names(node.target):
            yield name, node.value


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _loop_targets(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Names bound by loop/with/comprehension constructs, with source expr."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        for name in _target_names(node.target):
            yield name, node.iter
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    yield name, item.context_expr
    elif isinstance(node, ast.comprehension):
        for name in _target_names(node.target):
            yield name, node.iter


def _mentions_derived(expr: ast.AST, derived: Set[str]) -> bool:
    """True if *expr* references any derived name or a ``self``/``cls`` attr."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in derived:
            return True
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("self", "cls"):
                return True
            if isinstance(root, ast.Name) and root.id in derived:
                return True
    return False


def _rng_ctor_names(tree: ast.Module) -> Set[str]:
    """Local names under which ``random.Random`` is callable."""
    names = _imported_names(tree, "random", ("Random",))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    names.add((alias.asname or alias.name) + ".Random")
    return names


def _is_rng_call(node: ast.Call, ctor_names: Set[str]) -> bool:
    """Is *node* a ``random.Random(...)`` call with at least one argument?"""
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    if dotted not in ctor_names:
        return False
    if dotted.endswith("SystemRandom"):
        return False
    return bool(node.args or node.keywords)


def _seed_exprs(node: ast.Call) -> Sequence[ast.AST]:
    exprs: List[ast.AST] = list(node.args)
    exprs.extend(kw.value for kw in node.keywords)
    return exprs


def _derived_in_function(
    fn: ast.AST, inherited: Set[str]
) -> Set[str]:
    """Fixpoint of names derived from parameters/spec within *fn*'s body."""
    derived = set(inherited)
    derived |= _param_names(fn)
    changed = True
    while changed:
        changed = False
        for node in _shallow_walk(fn):
            pairs = list(_binding_targets(node))
            pairs.extend(_loop_targets(node))
            for name, value in pairs:
                if name not in derived and _mentions_derived(value, derived):
                    derived.add(name)
                    changed = True
    return derived


def _check_rng_scope(
    scope: ast.AST,
    derived: Set[str],
    ctor_names: Set[str],
    findings: List[RawFinding],
) -> None:
    """Flag unsourced Random() calls in *scope*, then recurse into children."""
    global_names: Set[str] = set()
    for node in _shallow_walk(scope):
        if isinstance(node, ast.Global):
            global_names.update(node.names)

    for node in _shallow_walk(scope):
        if isinstance(node, ast.Call) and _is_rng_call(node, ctor_names):
            if not any(
                _mentions_derived(expr, derived) for expr in _seed_exprs(node)
            ):
                findings.append(
                    RawFinding(
                        node.lineno,
                        node.col_offset,
                        "random.Random(...) seed does not derive from a "
                        "function parameter or spec attribute; thread the "
                        "seed from ScenarioSpec so results stay coupled to "
                        "the recorded seed",
                    )
                )
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            if value is not None and isinstance(value, ast.Call):
                if _dotted(value.func) in ctor_names:
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for name in _target_names(target):
                            if name in global_names:
                                findings.append(
                                    RawFinding(
                                        node.lineno,
                                        node.col_offset,
                                        "RNG stored into module global "
                                        f"'{name}'; module-global RNGs "
                                        "couple runs that share an "
                                        "interpreter",
                                    )
                                )

    for child_scope in _scopes(scope):
        if isinstance(child_scope, ast.Lambda):
            continue
        child_derived = _derived_in_function(child_scope, derived)
        _check_rng_scope(child_scope, child_derived, ctor_names, findings)


def rng_provenance(tree: ast.Module) -> List[RawFinding]:
    """Run the D006 RNG-provenance analysis over a parsed module."""
    ctor_names = _rng_ctor_names(tree)
    if not ctor_names:
        return []
    findings: List[RawFinding] = []

    # Module scope (class bodies included — class attributes are shared
    # across instances just as globals are shared across calls): any
    # seeded Random() construction is a module-global RNG.
    for node in _shallow_walk(tree):
        if isinstance(node, ast.Call) and _is_rng_call(node, ctor_names):
            findings.append(
                RawFinding(
                    node.lineno,
                    node.col_offset,
                    "random.Random(...) constructed at module scope; "
                    "module-global RNGs couple runs that share an "
                    "interpreter — construct inside the function that "
                    "uses it, seeded from the spec",
                )
            )
    for fn in _scopes(tree):
        if isinstance(fn, ast.Lambda):
            continue
        derived = _derived_in_function(fn, set())
        _check_rng_scope(fn, derived, ctor_names, findings)
    findings.sort(key=lambda f: (f.line, f.col))
    return findings


_EXECUTOR_SUFFIX = "ProcessPoolExecutor"
_POOL_METHODS = ("submit", "map")


def _executor_names(tree: ast.Module) -> Set[str]:
    """Names under which ProcessPoolExecutor is reachable in this module."""
    return _imported_names(
        tree, "concurrent.futures", ("ProcessPoolExecutor",)
    )


def _is_executor_ctor(node: ast.AST, ctor_names: Set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    return dotted in ctor_names or dotted.endswith("." + _EXECUTOR_SUFFIX)


def _annotation_is_executor(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    dotted = _dotted(annotation)
    if dotted is None and isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            return annotation.value.split("[")[0].endswith(_EXECUTOR_SUFFIX)
        return False
    return dotted is not None and dotted.endswith(_EXECUTOR_SUFFIX)


def _module_import_roots(tree: ast.Module) -> Set[str]:
    """Top-level names bound by plain imports (safe callable roots)."""
    roots: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                roots.add((alias.asname or alias.name).split(".")[0])
    return roots


def _classify_callable(
    fn_expr: ast.AST,
    local_defs: Set[str],
    import_roots: Set[str],
    local_vars: Set[str],
) -> Optional[str]:
    """Return a problem description if *fn_expr* is not pool-safe."""
    if isinstance(fn_expr, ast.Lambda):
        return (
            "lambda passed to a process pool; lambdas cannot be pickled — "
            "use a module-level function"
        )
    if isinstance(fn_expr, ast.Name):
        if fn_expr.id in local_defs:
            return (
                f"locally-defined function '{fn_expr.id}' passed to a "
                "process pool; closures cannot be pickled — move it to "
                "module level"
            )
        return None
    if isinstance(fn_expr, ast.Attribute):
        root = fn_expr
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            if root.id in ("self", "cls"):
                return (
                    f"bound method 'self.{fn_expr.attr}' passed to a "
                    "process pool; bound methods drag their instance "
                    "through pickle — use a module-level function"
                )
            if root.id in import_roots:
                return None
            if root.id in local_vars:
                return (
                    f"bound method '{root.id}.{fn_expr.attr}' passed to a "
                    "process pool; bound methods drag their instance "
                    "through pickle — use a module-level function"
                )
        return None
    return None


def _pool_check_scope(
    scope: ast.AST,
    ctor_names: Set[str],
    import_roots: Set[str],
    findings: List[RawFinding],
) -> None:
    executor_vars: Set[str] = set()
    local_defs: Set[str] = set()
    local_vars: Set[str] = set()

    if isinstance(scope, _SCOPE_NODES) and not isinstance(scope, ast.Lambda):
        for arg_group in (
            scope.args.posonlyargs,
            scope.args.args,
            scope.args.kwonlyargs,
        ):
            for a in arg_group:
                if _annotation_is_executor(a.annotation):
                    executor_vars.add(a.arg)
                else:
                    local_vars.add(a.arg)

    for node in _shallow_walk(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(scope, ast.Module):
                local_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            if _is_executor_ctor(node.value, ctor_names):
                for target in node.targets:
                    executor_vars.update(_target_names(target))
            else:
                for target in node.targets:
                    local_vars.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            if (
                node.value is not None
                and _is_executor_ctor(node.value, ctor_names)
            ) or _annotation_is_executor(node.annotation):
                executor_vars.update(_target_names(node.target))
            else:
                local_vars.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None and _is_executor_ctor(
                    item.context_expr, ctor_names
                ):
                    executor_vars.update(_target_names(item.optional_vars))

    for node in _shallow_walk(scope):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _POOL_METHODS:
            continue
        receiver = func.value
        is_pool = False
        if isinstance(receiver, ast.Name) and receiver.id in executor_vars:
            is_pool = True
        elif _is_executor_ctor(receiver, ctor_names):
            is_pool = True
        if not is_pool:
            continue
        if not node.args:
            continue
        problem = _classify_callable(
            node.args[0], local_defs, import_roots, local_vars
        )
        if problem is not None:
            findings.append(
                RawFinding(node.lineno, node.col_offset, problem)
            )

    for child in _scopes(scope):
        if isinstance(child, ast.Lambda):
            continue
        _pool_check_scope(child, ctor_names, import_roots, findings)


def pool_picklability(tree: ast.Module) -> List[RawFinding]:
    """Run the X001 process-boundary picklability analysis."""
    ctor_names = _executor_names(tree)
    import_roots = _module_import_roots(tree)
    findings: List[RawFinding] = []
    _pool_check_scope(tree, ctor_names, import_roots, findings)
    findings.sort(key=lambda f: (f.line, f.col))
    return findings


class RngProvenanceRule(Rule):
    """D006 — RNG seeds must derive from parameters or spec attributes.

    See :func:`rng_provenance`.
    """

    code = "D006"
    name = "rng-provenance"
    summary = "RNG seed does not derive from a parameter or spec attribute"
    motivation = ("a literal-seeded Random() deep in a helper decouples "
                  "results from ScenarioSpec.seed; module-global RNGs "
                  "couple runs sharing an interpreter")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        return iter(rng_provenance(tree))


class PoolPicklabilityRule(Rule):
    """X001 — only module-level callables cross the process boundary.

    See :func:`pool_picklability`.
    """

    code = "X001"
    name = "pool-picklability"
    summary = "unpicklable callable passed to ProcessPoolExecutor"
    motivation = ("SweepRunner/SweepService fan work out through "
                  "ProcessPoolExecutor; a lambda or bound method dies "
                  "inside the pool with an opaque PicklingError")

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterator[RawFinding]:
        return iter(pool_picklability(tree))


DATAFLOW_RULES: Tuple[Rule, ...] = (
    RngProvenanceRule(),
    PoolPicklabilityRule(),
)
