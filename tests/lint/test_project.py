"""The project-wide pass: cross-module resolution, C-rules, caching.

These tests build little multi-file projects under ``tmp_path`` and run
``lint_paths`` over them — the same two-pass flow ``repro lint`` uses —
so import-graph resolution is exercised across real files, not just
single-source strings.
"""

from pathlib import Path

from repro.lint import lint_paths

PROTOCOL = """\
from typing import Protocol


class SchemeFactory(Protocol):
    name: str

    def make_qdisc(self, link): ...

    def queue_limit(self): ...

    def make_router_processor(self, router): ...

    def make_host_shim(self, host): ...

    def wire(self, net): ...

    def reboot_router(self, router): ...

    def metric_items(self): ...
"""

SCHEME = """\
class RealScheme:
    name = "real"

    def make_qdisc(self, link): ...

    def queue_limit(self): ...

    def make_router_processor(self, router): ...

    def make_host_shim(self, host): ...

    def wire(self, net): ...

    def reboot_router(self, router): ...
{extra}
"""

KNOBS = """\
from dataclasses import dataclass

from scheme_mod import RealScheme


def register_scheme(name):
    def deco(cls):
        return cls
    return deco


@register_scheme("real")
@dataclass(frozen=True)
class RealKnobs:
    def build(self) -> "RealScheme":
        return RealScheme()
"""


def write_project(tmp_path, files):
    tmp_path.mkdir(parents=True, exist_ok=True)
    for name, content in sorted(files.items()):
        (tmp_path / name).write_text(content, encoding="utf-8")
    return tmp_path


def active(findings):
    return [f for f in findings if f.active]


class TestCrossModuleC002:
    def test_complete_scheme_is_clean(self, tmp_path):
        write_project(tmp_path, {
            "proto.py": PROTOCOL,
            "scheme_mod.py": SCHEME.format(
                extra="\n    def metric_items(self): ...\n"),
            "knobs_mod.py": KNOBS,
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []

    def test_dropping_metric_items_is_exactly_one_finding(self, tmp_path):
        write_project(tmp_path, {
            "proto.py": PROTOCOL,
            "scheme_mod.py": SCHEME.format(extra=""),
            "knobs_mod.py": KNOBS,
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        hits = active(findings)
        assert len(hits) == 1
        (hit,) = hits
        assert hit.code == "C002"
        assert hit.path == "knobs_mod.py"
        assert "metric_items" in hit.message
        assert "RealScheme" in hit.message

    def test_unresolvable_build_target_is_skipped(self, tmp_path):
        # The scheme class lives outside the scanned set: no guessing.
        write_project(tmp_path, {
            "knobs_mod.py": KNOBS.replace(
                "from scheme_mod import RealScheme\n", ""),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert [f.code for f in active(findings)] == []


SPEC = """\
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ScenarioSpec:
    scheme: str = "tva"
    seed: int = 1
    n_attackers: int = 0

    def canonical(self):
{canonical_body}

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)
"""


class TestC001:
    def test_deleting_field_from_canonical_is_exactly_one_finding(
            self, tmp_path):
        complete = SPEC.format(canonical_body=(
            '        return {"scheme": self.scheme, "seed": self.seed,\n'
            '                "n_attackers": self.n_attackers}'))
        write_project(tmp_path, {"spec_mod.py": complete})
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []

        broken = SPEC.format(canonical_body=(
            '        return {"scheme": self.scheme, "seed": self.seed}'))
        write_project(tmp_path, {"spec_mod.py": broken})
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        hits = active(findings)
        assert len(hits) == 1
        (hit,) = hits
        assert hit.code == "C001"
        assert "n_attackers" in hit.message
        assert "canonical" in hit.message
        # Anchored on the field's definition line.
        assert hit.line == 8

    def test_inherited_blanket_trio_covers_subclass(self, tmp_path):
        write_project(tmp_path, {
            "base_mod.py": (
                "from dataclasses import asdict, dataclass\n"
                "@dataclass(frozen=True)\n"
                "class Base:\n"
                "    def canonical(self):\n"
                "        return asdict(self)\n"),
            "sub_mod.py": (
                "from dataclasses import dataclass\n"
                "from base_mod import Base\n"
                "def register_scheme(name):\n"
                "    def deco(cls):\n"
                "        return cls\n"
                "    return deco\n"
                "@register_scheme('sub')\n"
                "@dataclass(frozen=True)\n"
                "class SubKnobs(Base):\n"
                "    rate: float = 1.0\n"
                "    def build(self) -> 'Base':\n"
                "        return Base()\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert [f.code for f in active(findings) if f.code == "C001"] == []


class TestC003:
    def test_ghost_name_flagged_at_element_line(self, tmp_path):
        write_project(tmp_path, {
            "api_mod.py": (
                "def real():\n"
                "    return 1\n"
                "__all__ = [\n"
                "    'real',\n"
                "    'ghost',\n"
                "]\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        (hit,) = active(findings)
        assert hit.code == "C003" and hit.line == 5
        assert "ghost" in hit.message

    def test_broken_reexport_chased_one_level(self, tmp_path):
        write_project(tmp_path, {
            "origin_mod.py": "def kept():\n    return 1\n",
            "api_mod.py": (
                "from origin_mod import kept, lost\n"
                "__all__ = ['kept', 'lost']\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        hits = active(findings)
        assert [f.code for f in hits] == ["C003"]
        assert "lost" in hits[0].message
        assert "origin_mod" in hits[0].message

    def test_module_getattr_opts_out(self, tmp_path):
        write_project(tmp_path, {
            "lazy_mod.py": (
                "__all__ = ['whatever']\n"
                "def __getattr__(name):\n"
                "    raise AttributeError(name)\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []


class TestSuppressionsOnProjectRules:
    def test_c001_suppressed_on_field_line(self, tmp_path):
        broken = SPEC.format(canonical_body=(
            '        return {"scheme": self.scheme, "seed": self.seed}'))
        broken = broken.replace(
            "    n_attackers: int = 0",
            "    n_attackers: int = 0"
            "  # repro: allow-cache-key-fields — test-only",
        )
        write_project(tmp_path, {"spec_mod.py": broken})
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []
        assert any(f.suppressed and f.code == "C001" for f in findings)

    def test_d006_suppressed_by_slug(self, tmp_path):
        write_project(tmp_path, {
            "rng_mod.py": (
                "import random\n"
                "def f():\n"
                "    return random.Random(7)"
                "  # repro: allow-rng-provenance — why\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []

    def test_x001_suppressed_by_code(self, tmp_path):
        write_project(tmp_path, {
            "pool_mod.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def f(xs):\n"
                "    with ProcessPoolExecutor() as p:\n"
                "        # repro: allow-X001 — test double\n"
                "        return list(p.map(lambda x: x, xs))\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path)
        assert active(findings) == []


class TestFamilySelect:
    def test_family_restricts_to_contract_rules(self, tmp_path):
        write_project(tmp_path, {
            "mixed_mod.py": (
                "import random\n"
                "RNG = random.Random(3)\n"
                "__all__ = ['ghost']\n"),
        })
        findings, _ = lint_paths([tmp_path], root=tmp_path, select=["C"])
        assert sorted({f.code for f in findings}) == ["C003"]
        findings, _ = lint_paths([tmp_path], root=tmp_path,
                                 select=["D006"])
        assert sorted({f.code for f in findings}) == ["D006"]


class TestExclude:
    def test_exclude_prunes_subtree(self, tmp_path):
        root = write_project(tmp_path, {"clean.py": "X = 1\n"})
        dirty = root / "dirty"
        dirty.mkdir()
        (dirty / "bad.py").write_text(
            "import random\nRNG = random.Random(1)\n", encoding="utf-8")
        findings, n = lint_paths([root], root=root)
        assert n == 2 and len(active(findings)) == 1
        findings, n = lint_paths([root], root=root, exclude=[dirty])
        assert n == 1 and active(findings) == []
