"""The lint engine: file walking, suppression parsing, rule dispatch.

The engine is deliberately dependency-free (stdlib ``ast`` + ``tokenize``)
and deterministic end to end: files are visited in sorted path order,
findings are emitted in (path, line, col, code) order, and nothing reads
the environment — the same tree always produces byte-identical reports.

Two passes
----------
Pass 1 parses each file once, runs the per-file rules (the syntactic
rules and the D006/X001 dataflow analyses), and boils the module down to
:class:`~repro.lint.symbols.ModuleFacts`.  Pass 2 builds a
:class:`~repro.lint.project.Project` from every file's facts and runs
the cross-module contract rules (C001–C003).  Every run is cold: the
report is a function of the linted paths and the root alone.

Suppressions
------------
A finding is suppressed by a ``# repro: allow-<rule>`` comment (rule slug
or code, comma-separated for several) on the flagged line or on the line
directly above it.  Everything after the rule list is the required
one-line justification::

    return hash(self.key())  # repro: allow-hash-builtin — in-process only

A file may also pin its logical module name (used by module-scoped rules
such as D004) with a ``# repro: module=<dotted.name>`` comment in its
first few lines; fixture files use this to opt into simulation-core
scoping from outside ``src/``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import DATAFLOW_RULES
from .project import PROJECT_RULES, Project, ProjectRule
from .rules import RULES, FileContext, Rule
from .symbols import ModuleFacts, collect_facts

#: Rules that see one parsed file: syntactic patterns + dataflow.
FILE_RULES: Tuple[Rule, ...] = tuple(RULES) + tuple(DATAFLOW_RULES)

#: The full registry: per-file rules + project contract rules.
ALL_RULES: Tuple[Rule, ...] = FILE_RULES + tuple(PROJECT_RULES)

#: Lookup by code and by slug (both casings folded by the caller).
ALL_RULES_BY_KEY: Dict[str, Rule] = {}
for _rule in ALL_RULES:
    ALL_RULES_BY_KEY[_rule.code] = _rule
    ALL_RULES_BY_KEY[_rule.name] = _rule

#: ``# repro: allow-<rules> [justification]`` — rules = slugs/codes.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow-([A-Za-z0-9_-]+(?:,[A-Za-z0-9_-]+)*)")
#: ``# repro: module=<dotted.name>`` — logical module override.
_MODULE_RE = re.compile(r"#\s*repro:\s*module=([A-Za-z0-9_.]+)")
#: How many leading lines may carry the module override.
_MODULE_SCAN_LINES = 5


@dataclass(frozen=True)
class Finding:
    """One rule hit, with file context and suppression status attached."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str
    snippet: str
    suppressed: bool = False
    baselined: bool = False

    @property
    def active(self) -> bool:
        """Counts against the exit code: neither suppressed nor baselined."""
        return not (self.suppressed or self.baselined)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


class LintError(ValueError):
    """Bad engine input: unknown rule selection or unparseable target."""


def _normalize_select(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """Map a mixed code/slug/family selection onto canonical rule codes.

    A single letter selects a rule family: ``C`` expands to every
    ``C###`` code, ``D`` to every ``D###``, and so on.
    """
    if select is None:
        return None
    families = sorted({r.code[0] for r in ALL_RULES})
    codes: Set[str] = set()
    for key in select:
        key = key.strip()
        if not key:
            continue
        if len(key) == 1 and key.isalpha():
            family = key.upper()
            matched = {r.code for r in ALL_RULES
                       if r.code.startswith(family)}
            if not matched:
                raise LintError(
                    f"unknown rule family {key!r}; "
                    f"known families: {', '.join(families)}")
            codes.update(matched)
            continue
        rule = ALL_RULES_BY_KEY.get(key) \
            or ALL_RULES_BY_KEY.get(key.upper()) \
            or ALL_RULES_BY_KEY.get(key.lower())
        if rule is None:
            known = ", ".join(sorted({r.code for r in ALL_RULES}
                                     | {r.name for r in ALL_RULES}))
            raise LintError(f"unknown rule {key!r}; choose from {known}")
        codes.add(rule.code)
    return codes


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line -> set of allowed rule keys, from ``# repro: allow-`` comments.

    Uses the tokenizer so string literals containing ``#`` can't spoof a
    suppression; falls back to a per-line regex only if tokenization
    fails (which a successfully parsed file shouldn't).
    """
    allowed: Dict[int, Set[str]] = {}

    def note(lineno: int, spec: str) -> None:
        keys = {part.strip().lower() for part in spec.split(",") if part.strip()}
        allowed.setdefault(lineno, set()).update(keys)

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                match = _ALLOW_RE.search(tok.string)
                if match:
                    note(tok.start[0], match.group(1))
    except (tokenize.TokenError, IndentationError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(text)
            if match:
                note(lineno, match.group(1))
    return allowed


def _module_override(lines: Sequence[str]) -> Optional[str]:
    for text in lines[:_MODULE_SCAN_LINES]:
        match = _MODULE_RE.search(text)
        if match:
            return match.group(1)
    return None


def infer_module(path: Path) -> str:
    """Dotted module name from a file path (last ``repro`` anchor wins)."""
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[anchor:-1]]
        if name != "__init__":
            dotted.append(name)
        return ".".join(dotted)
    return name


def _is_suppressed(finding_line: int, code: str, rule_name: str,
                   allowed: Dict[int, Set[str]]) -> bool:
    keys = {code.lower(), rule_name.lower()}
    for lineno in (finding_line, finding_line - 1):
        if keys & allowed.get(lineno, set()):
            return True
    return False


# -- the engine ------------------------------------------------------------


@dataclass
class _FileScan:
    """Everything pass 1 produces for one file."""

    findings: List[Finding]
    facts: ModuleFacts
    allowed: Dict[int, Set[str]]
    lines: List[str]


class LintEngine:
    """Run the rule set over sources, files, or trees.

    ``select`` restricts to a subset of rules — exact codes, slugs, or
    single-letter families; the default is every registered rule.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        select: Optional[Iterable[str]] = None,
        exclude: Optional[Sequence[Path]] = None,
    ) -> None:
        codes = _normalize_select(select)
        chosen = tuple(rules) if rules is not None else ALL_RULES
        if codes is not None:
            chosen = tuple(r for r in chosen if r.code in codes)
        self.rules = chosen
        self.exclude = tuple(Path(e) for e in (exclude or ()))

    # -- pass 1 --------------------------------------------------------

    def _scan_source(
        self,
        source: str,
        path: str,
        module: Optional[str] = None,
    ) -> _FileScan:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        lines = source.splitlines()
        if module is None:
            module = _module_override(lines) or infer_module(Path(path))
        ctx = FileContext(path=path, module=module, lines=lines)
        allowed = _suppressions(source)

        findings: List[Finding] = []
        for rule in self.rules:
            for raw in rule.check(tree, ctx):
                findings.append(self._attach(path, rule.code, rule.name,
                                             raw.line, raw.col, raw.message,
                                             lines, allowed))
        facts = collect_facts(tree, path, module)
        return _FileScan(findings=findings, facts=facts,
                         allowed=allowed, lines=lines)

    def _attach(self, path: str, code: str, rule_name: str, line: int,
                col: int, message: str, lines: Sequence[str],
                allowed: Dict[int, Set[str]]) -> Finding:
        snippet = ""
        if 1 <= line <= len(lines):
            snippet = lines[line - 1].strip()
        return Finding(
            path=path, line=line, col=col, code=code, rule=rule_name,
            message=message, snippet=snippet,
            suppressed=_is_suppressed(line, code, rule_name, allowed),
        )

    # -- pass 2 --------------------------------------------------------

    def _project_findings(
        self,
        scans: Dict[str, _FileScan],
    ) -> List[Finding]:
        project = Project(
            [scan.facts for _, scan in sorted(scans.items())]
        )
        findings: List[Finding] = []
        for rule in self.rules:
            if not isinstance(rule, ProjectRule):
                continue
            for path, raw in rule.check_project(project):
                scan = scans.get(path)
                lines: Sequence[str] = scan.lines if scan else ()
                allowed = scan.allowed if scan else {}
                findings.append(self._attach(path, rule.code, rule.name,
                                             raw.line, raw.col, raw.message,
                                             lines, allowed))
        return findings

    # -- public API ----------------------------------------------------

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        module: Optional[str] = None,
    ) -> List[Finding]:
        """Lint one source string; ``module`` overrides name inference.

        A single source is treated as a one-module project, so the
        cross-module rules run too (over whatever the file defines).
        """
        scan = self._scan_source(source, path, module)
        findings = list(scan.findings)
        findings.extend(self._project_findings({path: scan}))
        findings.sort(key=Finding.sort_key)
        return findings

    def lint_file(
        self,
        path: Path,
        root: Optional[Path] = None,
        module: Optional[str] = None,
    ) -> List[Finding]:
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        display = _display_path(path, root)
        return self.lint_source(source, path=display, module=module)

    def lint_paths(
        self,
        paths: Sequence[Path],
        root: Optional[Path] = None,
    ) -> Tuple[List[Finding], int]:
        """Lint files and directory trees; returns (findings, files_scanned).

        Directories are walked recursively for ``*.py``; the scan order
        (and therefore the report) is sorted, independent of filesystem
        enumeration order.  The project pass runs over the union of all
        scanned files.
        """
        files = self._gather(paths)
        scans: Dict[str, _FileScan] = {}
        for file in files:
            source = file.read_text(encoding="utf-8")
            display = _display_path(file, root)
            scans[display] = self._scan_source(source, display)
        findings: List[Finding] = []
        for _, scan in sorted(scans.items()):
            findings.extend(scan.findings)
        findings.extend(self._project_findings(scans))
        findings.sort(key=Finding.sort_key)
        return findings, len(files)

    # -- internals -----------------------------------------------------

    def _gather(self, paths: Sequence[Path]) -> List[Path]:
        files: List[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(entry.rglob("*.py"))
            elif entry.exists():
                files.append(entry)
            else:
                raise LintError(f"no such file or directory: {entry}")
        if self.exclude:
            excluded = [e.resolve() for e in self.exclude]
            files = [f for f in files
                     if not self._is_excluded(f.resolve(), excluded)]
        return sorted(set(files), key=lambda p: p.as_posix())

    @staticmethod
    def _is_excluded(path: Path, excluded: Sequence[Path]) -> bool:
        for ex in excluded:
            if path == ex or ex in path.parents:
                return True
        return False


def _display_path(path: Path, root: Optional[Path]) -> str:
    base = Path(root) if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    *,
    select: Optional[Iterable[str]] = None,
    root: Optional[Path] = None,
    exclude: Optional[Sequence[Path]] = None,
) -> Tuple[List[Finding], int]:
    """Convenience wrapper: lint files/trees with the default rule set."""
    engine = LintEngine(select=select, exclude=exclude)
    return engine.lint_paths(paths, root=root)


def mark_baselined(findings: Sequence[Finding],
                   known: Set[str]) -> List[Finding]:
    """Return findings with baseline membership applied.

    ``known`` is a set of fingerprints (see :mod:`repro.lint.baseline`);
    occurrence indices keep N identical lines in one file distinct.
    """
    from .baseline import fingerprints_for

    prints = fingerprints_for(findings)
    return [
        replace(f, baselined=(not f.suppressed and fp in known))
        for f, fp in zip(findings, prints)
    ]
