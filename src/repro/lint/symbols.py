"""Per-module fact extraction for the project-wide lint pass.

Pass 1 of the project analyzer parses each file once and boils it down
to a :class:`ModuleFacts` — a small summary of what the cross-module
rules in :mod:`repro.lint.project` need: dataclass fields, method
mention-sets, ``@register_scheme`` registrations, import/re-export
edges, and ``__all__`` contents.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["MethodFacts", "ClassFacts", "ModuleFacts", "collect_facts"]

#: Decorator names that register a scheme-knob dataclass.
_REGISTER_DECORATORS = ("register_scheme",)

#: Dataclass decorator spellings.
_DATACLASS_NAMES = ("dataclass", "dataclasses.dataclass")


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class MethodFacts:
    """What a cross-module rule may know about one method."""

    name: str
    line: int
    col: int
    params: List[str] = field(default_factory=list)
    #: Attribute names and string constants the body mentions — the
    #: evidence C001 uses to decide whether a field is "covered".
    mentions: List[str] = field(default_factory=list)
    #: True when the body delegates wholesale (``asdict(self)``,
    #: ``cls(**data)``, ``replace(self, ...)``, or a sibling trio
    #: method) — every field is then covered by construction.
    blanket: bool = False
    #: Dotted names the method can return: its return annotation plus
    #: any ``return X(...)`` constructor names.  C002 follows these to
    #: find the concrete scheme class behind ``build()``.
    returns: List[str] = field(default_factory=list)


@dataclass
class ClassFacts:
    """What a cross-module rule may know about one class."""

    name: str
    line: int
    col: int
    bases: List[str] = field(default_factory=list)
    is_dataclass: bool = False
    dataclass_frozen: bool = False
    #: Annotated dataclass fields as ``(name, line)``; ClassVar excluded.
    fields: List[Tuple[str, int]] = field(default_factory=list)
    #: Plain class-level attribute names (non-annotated assignments and
    #: ClassVar annotations).
    class_attrs: List[str] = field(default_factory=list)
    #: Attributes assigned on ``self`` anywhere in the body, including
    #: ``object.__setattr__(self, "x", ...)`` for frozen dataclasses.
    self_attrs: List[str] = field(default_factory=list)
    methods: Dict[str, MethodFacts] = field(default_factory=dict)
    #: Scheme name when decorated ``@register_scheme("name")``.
    registered_scheme: Optional[str] = None
    is_protocol: bool = False

    def member_names(self) -> Set[str]:
        names: Set[str] = set(self.class_attrs)
        names.update(name for name, _ in self.fields)
        names.update(self.self_attrs)
        names.update(self.methods)
        return names


@dataclass
class ModuleFacts:
    """Everything pass 2 needs to know about one parsed module."""

    path: str
    module: str
    is_package: bool = False
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    functions: List[str] = field(default_factory=list)
    #: Every module-level bound name (defs, classes, assignments,
    #: imports) — what C003 resolves ``__all__`` entries against.
    bound_names: List[str] = field(default_factory=list)
    #: Modules bound by plain ``import`` statements.
    imports: List[str] = field(default_factory=list)
    #: ``from X import y [as z]`` edges: local name -> (resolved module,
    #: original name).  Relative imports are resolved against *module*.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Resolved modules of ``from X import *`` statements.
    star_imports: List[str] = field(default_factory=list)
    has_module_getattr: bool = False
    #: Literal ``__all__`` entries as ``(name, line)``.
    all_names: List[Tuple[str, int]] = field(default_factory=list)
    #: True when ``__all__`` exists but could not be fully evaluated.
    all_unresolved: bool = False


# -- extraction ------------------------------------------------------------


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Resolve a ``from ...X import`` module name against *module*."""
    if level == 0:
        return target
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[:-drop]
    if target:
        parts.extend(target.split("."))
    return ".".join(parts) if parts else None


def _decorator_info(node: ast.ClassDef) -> Tuple[bool, bool, Optional[str]]:
    """(is_dataclass, frozen, registered_scheme_name) from decorators."""
    is_dc = False
    frozen = False
    scheme: Optional[str] = None
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = _dotted(target)
        if dotted in _DATACLASS_NAMES:
            is_dc = True
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if (kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)):
                        frozen = bool(kw.value.value)
        elif dotted is not None and (
            dotted in _REGISTER_DECORATORS
            or any(dotted.endswith("." + d) for d in _REGISTER_DECORATORS)
        ):
            if isinstance(deco, ast.Call) and deco.args:
                arg = deco.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    scheme = arg.value
            if scheme is None:
                scheme = node.name.lower()
    return is_dc, frozen, scheme


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    dotted = _dotted(target)
    return dotted is not None and dotted.split(".")[-1] == "ClassVar"


def _method_facts(node: ast.AST) -> MethodFacts:
    """Extract mention/blanket/return facts from a def."""
    params = []
    args = node.args  # type: ignore[attr-defined]
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        for a in group:
            params.append(a.arg)
    mentions: Set[str] = set()
    blanket = False
    returns: List[str] = []

    ret_ann = getattr(node, "returns", None)
    if ret_ann is not None:
        dotted = _dotted(ret_ann)
        if dotted is None and isinstance(ret_ann, ast.Constant):
            if isinstance(ret_ann.value, str):
                dotted = ret_ann.value.strip().strip('"\'')
        if dotted:
            returns.append(dotted)

    trio = ("canonical", "to_dict", "from_dict")
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            mentions.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            mentions.add(sub.value)
        elif isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            if dotted is not None:
                tail = dotted.split(".")[-1]
                if tail == "asdict":
                    blanket = True
                elif tail == "replace" and sub.args:
                    first = _dotted(sub.args[0])
                    if first in ("self", "cls"):
                        blanket = True
                elif dotted in ("cls", "self"):
                    # cls(**data) or cls(positional...) reconstructs every
                    # field; cls(x=..., y=...) keyword-by-keyword does not
                    # (the keywords are checked as mentions instead).
                    has_splat = any(
                        isinstance(a, ast.Starred) for a in sub.args
                    ) or any(kw.arg is None for kw in sub.keywords)
                    if has_splat or (sub.args and not sub.keywords):
                        blanket = True
                elif tail in trio:
                    # Delegation to a sibling trio method on self/cls.
                    root = dotted.split(".")[0]
                    if root in ("self", "cls"):
                        blanket = True
            for kw in sub.keywords:
                if kw.arg is not None:
                    mentions.add(kw.arg)
        elif isinstance(sub, ast.Return) and sub.value is not None:
            if isinstance(sub.value, ast.Call):
                dotted = _dotted(sub.value.func)
                if dotted:
                    returns.append(dotted)

    return MethodFacts(
        name=node.name,  # type: ignore[attr-defined]
        line=node.lineno,  # type: ignore[attr-defined]
        col=node.col_offset,  # type: ignore[attr-defined]
        params=params,
        mentions=sorted(mentions),
        blanket=blanket,
        returns=sorted(set(returns)),
    )


def _class_facts(node: ast.ClassDef) -> ClassFacts:
    is_dc, frozen, scheme = _decorator_info(node)
    bases = []
    is_protocol = False
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is not None:
            bases.append(dotted)
            if dotted.split(".")[-1] == "Protocol":
                is_protocol = True

    fields: List[Tuple[str, int]] = []
    class_attrs: List[str] = []
    self_attrs: Set[str] = set()
    methods: Dict[str, MethodFacts] = {}

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if _is_classvar(stmt.annotation):
                class_attrs.append(stmt.target.id)
            else:
                fields.append((stmt.target.id, stmt.lineno))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    class_attrs.append(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = _method_facts(stmt)

    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(
            sub.ctx, ast.Store
        ):
            root = sub.value
            if isinstance(root, ast.Name) and root.id == "self":
                self_attrs.add(sub.attr)
        elif isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            if (
                dotted == "object.__setattr__"
                and len(sub.args) >= 2
                and _dotted(sub.args[0]) in ("self", "cls")
                and isinstance(sub.args[1], ast.Constant)
                and isinstance(sub.args[1].value, str)
            ):
                self_attrs.add(sub.args[1].value)

    return ClassFacts(
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        bases=bases,
        is_dataclass=is_dc,
        dataclass_frozen=frozen,
        fields=fields,
        class_attrs=class_attrs,
        self_attrs=sorted(self_attrs),
        methods=methods,
        registered_scheme=scheme,
        is_protocol=is_protocol,
    )


def _literal_all(node: ast.AST, bound_literals: Dict[str, ast.AST]
                 ) -> Tuple[List[Tuple[str, int]], bool]:
    """Evaluate an ``__all__`` expression made of literals and stars.

    Returns ``(entries, unresolved)``; starred names are looked up in
    *bound_literals* (module-level literal list/tuple/dict bindings).
    """
    entries: List[Tuple[str, int]] = []
    unresolved = False
    if not isinstance(node, (ast.List, ast.Tuple)):
        return [], True
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            entries.append((elt.value, elt.lineno))
        elif isinstance(elt, ast.Starred):
            name = _dotted(elt.value)
            source = bound_literals.get(name or "")
            if isinstance(source, (ast.List, ast.Tuple)):
                sub, sub_unres = _literal_all(source, bound_literals)
                entries.extend((n, elt.lineno) for n, _ in sub)
                unresolved = unresolved or sub_unres
            elif isinstance(source, ast.Dict):
                for key in source.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        entries.append((key.value, elt.lineno))
                    else:
                        unresolved = True
            else:
                unresolved = True
        else:
            unresolved = True
    return entries, unresolved


def collect_facts(tree: ast.Module, path: str, module: str) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from a parsed module."""
    is_package = path.endswith("__init__.py")
    facts = ModuleFacts(path=path, module=module, is_package=is_package)

    bound: Set[str] = set()
    bound_literals: Dict[str, ast.AST] = {}
    all_expr: Optional[ast.AST] = None

    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            facts.classes[stmt.name] = _class_facts(stmt)
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions.append(stmt.name)
            bound.add(stmt.name)
            if stmt.name == "__getattr__":
                facts.has_module_getattr = True
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                facts.imports.append(alias.name)
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            resolved = _resolve_relative(
                module, is_package, stmt.level, stmt.module
            )
            for alias in stmt.names:
                if alias.name == "*":
                    if resolved is not None:
                        facts.star_imports.append(resolved)
                    continue
                local = alias.asname or alias.name
                bound.add(local)
                if resolved is not None:
                    facts.from_imports[local] = (resolved, alias.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if isinstance(
                        stmt.value, (ast.List, ast.Tuple, ast.Dict)
                    ):
                        bound_literals[target.id] = stmt.value
                    if target.id == "__all__":
                        all_expr = stmt.value
                else:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Store
                        ):
                            bound.add(sub.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            bound.add(stmt.target.id)
            if stmt.value is not None and isinstance(
                stmt.value, (ast.List, ast.Tuple, ast.Dict)
            ):
                bound_literals[stmt.target.id] = stmt.value
            if stmt.target.id == "__all__" and stmt.value is not None:
                all_expr = stmt.value
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Names bound under conditionals still count as bound.
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, ast.Store
                ):
                    bound.add(sub.id)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        bound.add(
                            (alias.asname or alias.name).split(".")[0]
                        )
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)

    if all_expr is not None:
        facts.all_names, facts.all_unresolved = _literal_all(
            all_expr, bound_literals
        )

    facts.bound_names = sorted(bound)
    facts.functions = sorted(set(facts.functions))
    return facts
