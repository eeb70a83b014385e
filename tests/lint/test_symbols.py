"""Unit tests for pass-1 fact extraction (repro.lint.symbols)."""

import ast

from repro.lint.symbols import collect_facts


def facts_of(source, path="mod.py", module="mod"):
    return collect_facts(ast.parse(source), path, module)


class TestClassFacts:
    def test_dataclass_fields_and_frozen(self):
        facts = facts_of(
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass(frozen=True)\n"
            "class Spec:\n"
            "    a: int = 1\n"
            "    b: str = ''\n"
            "    TABLE: ClassVar[dict] = {}\n")
        cls = facts.classes["Spec"]
        assert cls.is_dataclass and cls.dataclass_frozen
        assert [name for name, _ in cls.fields] == ["a", "b"]
        assert "TABLE" in cls.class_attrs

    def test_register_scheme_decorator_name(self):
        facts = facts_of(
            "from repro.schemes import register_scheme\n"
            "@register_scheme('tva')\n"
            "class K:\n"
            "    pass\n")
        assert facts.classes["K"].registered_scheme == "tva"

    def test_protocol_detection(self):
        facts = facts_of(
            "from typing import Protocol\n"
            "class F(Protocol):\n"
            "    name: str\n"
            "    def go(self): ...\n")
        cls = facts.classes["F"]
        assert cls.is_protocol
        assert cls.member_names() >= {"name", "go"}

    def test_object_setattr_counts_as_self_attr(self):
        facts = facts_of(
            "class C:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'derived', 1)\n")
        assert "derived" in facts.classes["C"].self_attrs


class TestMethodFacts:
    def test_mentions_attributes_strings_and_keywords(self):
        facts = facts_of(
            "class C:\n"
            "    def canonical(self):\n"
            "        return {'a': self.a, 'b': make(b=self.b)}\n")
        m = facts.classes["C"].methods["canonical"]
        assert {"a", "b"} <= set(m.mentions)

    def test_asdict_is_blanket(self):
        facts = facts_of(
            "from dataclasses import asdict\n"
            "class C:\n"
            "    def to_dict(self):\n"
            "        return asdict(self)\n")
        assert facts.classes["C"].methods["to_dict"].blanket

    def test_cls_double_star_is_blanket(self):
        facts = facts_of(
            "class C:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(**data)\n")
        assert facts.classes["C"].methods["from_dict"].blanket

    def test_cls_explicit_keywords_is_not_blanket(self):
        facts = facts_of(
            "class C:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(a=data['a'])\n")
        m = facts.classes["C"].methods["from_dict"]
        assert not m.blanket
        assert "a" in m.mentions

    def test_trio_delegation_is_blanket(self):
        facts = facts_of(
            "class C:\n"
            "    def to_dict(self):\n"
            "        return self.canonical()\n")
        assert facts.classes["C"].methods["to_dict"].blanket

    def test_returns_annotation_and_ctor(self):
        facts = facts_of(
            "class K:\n"
            "    def build(self) -> 'TvaScheme':\n"
            "        return TvaScheme()\n")
        assert "TvaScheme" in facts.classes["K"].methods["build"].returns


class TestModuleFacts:
    def test_bound_names_cover_all_binding_kinds(self):
        facts = facts_of(
            "import json\n"
            "from os import path as ospath\n"
            "X = 1\n"
            "Y: int = 2\n"
            "def f(): ...\n"
            "class C: ...\n"
            "try:\n"
            "    import lzma\n"
            "except ImportError:\n"
            "    lzma = None\n")
        assert {"json", "ospath", "X", "Y", "f", "C", "lzma"} \
            <= set(facts.bound_names)

    def test_relative_import_resolution(self):
        facts = facts_of(
            "from .runner import ScenarioSpec\n"
            "from ..sim import topology\n",
            path="src/repro/eval/helpers.py", module="repro.eval.helpers")
        assert facts.from_imports["ScenarioSpec"] == \
            ("repro.eval.runner", "ScenarioSpec")
        assert facts.from_imports["topology"] == ("repro.sim", "topology")

    def test_package_relative_import(self):
        facts = facts_of(
            "from .cache import ResultCache\n",
            path="src/repro/eval/__init__.py", module="repro.eval")
        assert facts.is_package
        assert facts.from_imports["ResultCache"] == \
            ("repro.eval.cache", "ResultCache")

    def test_literal_all_with_star(self):
        facts = facts_of(
            "_LAZY = {'a': 'mod', 'b': 'mod'}\n"
            "EXTRA = ['c']\n"
            "__all__ = ['x', *_LAZY, *EXTRA]\n"
            "x = 1\n")
        names = {name for name, _ in facts.all_names}
        assert names == {"x", "a", "b", "c"}
        assert not facts.all_unresolved

    def test_unresolvable_all_marked(self):
        facts = facts_of("__all__ = ['x'] + ['y']\n")
        assert facts.all_unresolved

    def test_module_getattr_detected(self):
        facts = facts_of("def __getattr__(name):\n    raise AttributeError\n")
        assert facts.has_module_getattr
