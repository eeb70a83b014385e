"""Pass 2 of the project analyzer: cross-module contract rules.

The per-file rules in :mod:`repro.lint.rules` can only see one tree at
a time.  The contracts that actually protect sweep results span files:
a knob dataclass in ``schemes.py`` whose ``build()`` returns a class in
``repro.core`` that must satisfy a protocol in ``repro.sim.topology``;
an ``__all__`` in ``api.py`` whose names are re-exports three modules
deep.  :class:`Project` resolves those edges over the
:class:`~repro.lint.symbols.ModuleFacts` collected in pass 1, and the
:class:`ProjectRule` subclasses here walk the resolved graph.

Resolution is deliberately conservative: a class whose base cannot be
found in the scanned file set is *skipped*, never guessed at — a lint
gate that fails on incomplete information trains people to ignore it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .rules import FileContext, RawFinding, Rule
from .symbols import ClassFacts, MethodFacts, ModuleFacts

__all__ = [
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
]

#: A project finding is a per-file finding plus the file it lands in.
ProjectHit = Tuple[str, RawFinding]

#: Bases that contribute no contract-relevant members and need not
#: resolve (typing/abc machinery).
_NEUTRAL_BASES = ("object", "Protocol", "Generic", "ABC")

#: The trio every cache-keyed dataclass must keep in sync (C001).
_TRIO = ("canonical", "to_dict", "from_dict")

#: Fallback protocol surface if ``SchemeFactory`` itself is not in the
#: scanned file set (e.g. linting a fixture directory).
_SCHEME_FACTORY_FALLBACK = (
    "name",
    "make_qdisc",
    "queue_limit",
    "make_router_processor",
    "make_host_shim",
    "wire",
    "reboot_router",
    "metric_items",
)


class Project:
    """The resolved fact graph pass 2 runs over."""

    def __init__(self, facts: Sequence[ModuleFacts]) -> None:
        self.by_path: Dict[str, ModuleFacts] = {}
        self.by_module: Dict[str, ModuleFacts] = {}
        for mf in sorted(facts, key=lambda m: m.path):
            self.by_path[mf.path] = mf
            # First path wins for a module name (stable under sorting).
            if mf.module not in self.by_module:
                self.by_module[mf.module] = mf

    def modules(self) -> Iterator[ModuleFacts]:
        for path in sorted(self.by_path):
            yield self.by_path[path]

    # -- class graph ---------------------------------------------------

    def resolve_class(
        self,
        module: str,
        name: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Tuple[ModuleFacts, ClassFacts]]:
        """Find the defining module of ``module.name``, chasing imports."""
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        mf = self.by_module.get(module)
        if mf is None:
            return None
        if name in mf.classes:
            return mf, mf.classes[name]
        if name in mf.from_imports:
            origin, orig = mf.from_imports[name]
            # ``from .pkg import mod`` then ``mod.Cls`` is handled by
            # the dotted branch of resolve_base; here the import names
            # the symbol itself.
            hit = self.resolve_class(origin, orig, seen)
            if hit is not None:
                return hit
            # The imported name may itself be a submodule re-export.
            sub = origin + "." + orig
            if sub in self.by_module:
                return None
        for star in mf.star_imports:
            hit = self.resolve_class(star, name, seen)
            if hit is not None:
                return hit
        return None

    def resolve_base(
        self, mf: ModuleFacts, dotted: str
    ) -> Optional[Tuple[ModuleFacts, ClassFacts]]:
        """Resolve a base-class expression as written in *mf*."""
        segs = dotted.split(".")
        if len(segs) == 1:
            return self.resolve_class(mf.module, dotted)
        # ``alias.Cls`` where alias is a from-imported submodule.
        root = segs[0]
        if root in mf.from_imports and len(segs) == 2:
            origin, orig = mf.from_imports[root]
            hit = self.resolve_class(origin + "." + orig, segs[1])
            if hit is not None:
                return hit
        # Absolute dotted path (``import repro.sim.topology``).
        return self.resolve_class(".".join(segs[:-1]), segs[-1])

    def class_members(
        self,
        mf: ModuleFacts,
        cls: ClassFacts,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Set[str]]:
        """MRO-union of member names; None if any base is unresolvable."""
        seen = _seen if _seen is not None else set()
        key = (mf.module, cls.name)
        if key in seen:
            return set()
        seen.add(key)
        members = cls.member_names()
        for base in cls.bases:
            if base.split(".")[-1] in _NEUTRAL_BASES:
                continue
            hit = self.resolve_base(mf, base)
            if hit is None:
                return None
            inherited = self.class_members(hit[0], hit[1], seen)
            if inherited is None:
                return None
            members |= inherited
        return members

    def resolve_method(
        self,
        mf: ModuleFacts,
        cls: ClassFacts,
        name: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Tuple[ModuleFacts, ClassFacts, MethodFacts]]:
        """MRO lookup of a method; None when not found anywhere."""
        seen = _seen if _seen is not None else set()
        key = (mf.module, cls.name)
        if key in seen:
            return None
        seen.add(key)
        if name in cls.methods:
            return mf, cls, cls.methods[name]
        for base in cls.bases:
            if base.split(".")[-1] in _NEUTRAL_BASES:
                continue
            hit = self.resolve_base(mf, base)
            if hit is None:
                continue
            found = self.resolve_method(hit[0], hit[1], name, seen)
            if found is not None:
                return found
        return None

    def all_fields(
        self,
        mf: ModuleFacts,
        cls: ClassFacts,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> List[Tuple[str, int, bool]]:
        """Dataclass fields over the MRO as ``(name, line, own)``."""
        seen = _seen if _seen is not None else set()
        key = (mf.module, cls.name)
        if key in seen:
            return []
        seen.add(key)
        out = [(name, line, True) for name, line in cls.fields]
        have = {name for name, _, _ in out}
        for base in cls.bases:
            if base.split(".")[-1] in _NEUTRAL_BASES:
                continue
            hit = self.resolve_base(mf, base)
            if hit is None:
                continue
            for name, _line, _own in self.all_fields(hit[0], hit[1], seen):
                if name not in have:
                    have.add(name)
                    out.append((name, cls.line, False))
        return out


class ProjectRule(Rule):
    """A rule that needs the whole fact graph, not one tree."""

    def check(self, tree, ctx: FileContext) -> Iterator[RawFinding]:
        # Project rules contribute nothing in the per-file pass.
        return iter(())

    def check_project(self, project: Project) -> Iterator[ProjectHit]:
        raise NotImplementedError


class CacheKeyFieldsRule(ProjectRule):
    """C001 — every cache-keyed dataclass field appears in its trio.

    ``ScenarioSpec`` and every registered knob dataclass feed the
    result-cache key through ``canonical()`` and round-trip through
    ``to_dict()``/``from_dict()``.  A field added to the dataclass but
    not to one of the trio silently drops out of the cache key — two
    different scenarios collide on one cache entry and a sweep returns
    a stale result for a spec that was never run.
    """

    code = "C001"
    name = "cache-key-fields"
    summary = "dataclass field missing from canonical()/to_dict()/from_dict()"
    motivation = ("PRs 6 and 8 hand-audited canonical() for the "
                  "absent-when-empty topology/aggregate fields; this rule "
                  "makes that audit mechanical")

    def _targets(
        self, project: Project
    ) -> Iterator[Tuple[ModuleFacts, ClassFacts]]:
        for mf in project.modules():
            for cls_name in sorted(mf.classes):
                cls = mf.classes[cls_name]
                if not cls.is_dataclass:
                    continue
                if (
                    cls.registered_scheme is not None
                    or cls.name == "ScenarioSpec"
                    or "canonical" in cls.methods
                ):
                    yield mf, cls

    def check_project(self, project: Project) -> Iterator[ProjectHit]:
        for mf, cls in self._targets(project):
            fields = project.all_fields(mf, cls)
            if not fields:
                continue
            for method_name in _TRIO:
                found = project.resolve_method(mf, cls, method_name)
                if found is None:
                    continue
                method = found[2]
                if method.blanket:
                    continue
                mentioned = set(method.mentions)
                for field_name, line, own in fields:
                    if field_name in mentioned:
                        continue
                    anchor = line if own else cls.line
                    yield mf.path, RawFinding(
                        anchor, cls.col,
                        f"field '{field_name}' of {cls.name} is missing "
                        f"from {method_name}(); cache keys and round-trips "
                        "silently diverge from the dataclass",
                    )


class SchemeProtocolRule(ProjectRule):
    """C002 — registered schemes structurally satisfy SchemeFactory.

    ``build_scheme(name)`` hands whatever ``build()`` returns straight
    to the evaluation harness, which calls the full ``SchemeFactory``
    surface (``metric_items``, ``reboot_router``, ``queue_limit``, …).
    A registered class missing one member passes import time and every
    unit test that doesn't exercise that member, then crashes mid-sweep
    — or worse, inherits an unintended default.
    """

    code = "C002"
    name = "scheme-protocol"
    summary = "@register_scheme class does not satisfy SchemeFactory"
    motivation = ("the registry accepts any class; NetFence integration "
                  "(PR 8) only surfaced a missing metric_items at sweep "
                  "runtime")

    def _required_members(self, project: Project) -> Tuple[str, ...]:
        for mf in project.modules():
            cls = mf.classes.get("SchemeFactory")
            if cls is not None and cls.is_protocol:
                names = sorted(
                    n for n in cls.member_names() if not n.startswith("_")
                )
                if names:
                    return tuple(names)
        return _SCHEME_FACTORY_FALLBACK

    def check_project(self, project: Project) -> Iterator[ProjectHit]:
        required = self._required_members(project)
        for mf in project.modules():
            for cls_name in sorted(mf.classes):
                cls = mf.classes[cls_name]
                if cls.registered_scheme is None:
                    continue
                scheme = cls.registered_scheme
                if not (cls.is_dataclass and cls.dataclass_frozen):
                    yield mf.path, RawFinding(
                        cls.line, cls.col,
                        f"knobs for scheme '{scheme}' must be a frozen "
                        "dataclass so specs stay hashable and cache keys "
                        "immutable",
                    )
                build = project.resolve_method(mf, cls, "build")
                if build is None:
                    yield mf.path, RawFinding(
                        cls.line, cls.col,
                        f"knobs for scheme '{scheme}' have no build() "
                        "method; the registry cannot instantiate the "
                        "scheme",
                    )
                    continue
                target = self._build_target(project, build[0], build[2])
                if target is None:
                    continue
                tmf, tcls = target
                members = project.class_members(tmf, tcls)
                if members is None:
                    continue
                for member in required:
                    if member not in members:
                        yield mf.path, RawFinding(
                            cls.line, cls.col,
                            f"scheme '{scheme}' builds {tcls.name}, which "
                            f"does not satisfy SchemeFactory: missing "
                            f"member '{member}'",
                        )

    def _build_target(
        self,
        project: Project,
        owner: ModuleFacts,
        build: MethodFacts,
    ) -> Optional[Tuple[ModuleFacts, ClassFacts]]:
        for dotted in build.returns:
            if dotted in ("self", "cls"):
                continue
            hit = project.resolve_base(owner, dotted)
            if hit is not None and not hit[1].is_protocol:
                return hit
        return None


class ApiExportsRule(ProjectRule):
    """C003 — every ``__all__`` name resolves to a real symbol.

    ``repro.api.__all__`` is the deprecation-policy surface; a name
    listed there but never bound (or re-exported from a module that
    lost it) turns ``from repro.api import X`` into an ImportError for
    downstream scripts — discovered by users, not by CI.
    """

    code = "C003"
    name = "api-exports"
    summary = "__all__ entry does not resolve to a module symbol"
    motivation = ("api.py re-exports ~100 names across nine subsystems; "
                  "PR 7's eval/ split relied on a manual import check to "
                  "catch dropped re-exports")

    def check_project(self, project: Project) -> Iterator[ProjectHit]:
        for mf in project.modules():
            if not mf.all_names or mf.all_unresolved:
                continue
            if mf.has_module_getattr:
                continue
            if any(
                star not in project.by_module for star in mf.star_imports
            ):
                continue
            bound = set(mf.bound_names)
            for name, line in mf.all_names:
                if name not in bound:
                    yield mf.path, RawFinding(
                        line, 0,
                        f"'{name}' is listed in __all__ but never bound "
                        "in the module; importing it raises "
                        "AttributeError",
                    )
                    continue
                hit = self._broken_reexport(project, mf, name)
                if hit is not None:
                    yield mf.path, RawFinding(
                        line, 0,
                        f"'{name}' in __all__ is re-exported from "
                        f"'{hit}', which does not define it",
                    )

    def _broken_reexport(
        self, project: Project, mf: ModuleFacts, name: str
    ) -> Optional[str]:
        if name not in mf.from_imports:
            return None
        origin, orig = mf.from_imports[name]
        omf = project.by_module.get(origin)
        if omf is None:
            return None
        if omf.has_module_getattr or omf.star_imports:
            return None
        if orig in omf.bound_names:
            return None
        if origin + "." + orig in project.by_module:
            return None
        return origin


PROJECT_RULES: Tuple[ProjectRule, ...] = (
    CacheKeyFieldsRule(),
    SchemeProtocolRule(),
    ApiExportsRule(),
)
