"""repro.lint — AST-based determinism & project-contract analyzer.

The reproduction's headline guarantee is bit-identical replay: the same
:class:`~repro.eval.runner.ScenarioSpec` produces the same bytes whether
it runs in-process, across a worker pool, or from the result cache, under
any ``PYTHONHASHSEED``.  Two shipped bugs (the SFQ salted-``hash()``
buckets, the non-canonical ``ReturnInfo`` decode) broke that guarantee
and were only caught empirically.  This package rejects the whole bug
class statically — per-file determinism rules plus a project-wide pass
that resolves the import graph and checks cross-module contracts:

=====  ====================  =============================================
code   slug                  hazard
=====  ====================  =============================================
D001   hash-builtin          builtin ``hash()`` feeding keying/scheduling
D002   unordered-iter        set / unsorted dict-view iteration
D003   unseeded-random       ambient global RNG, ``random.Random()``
D004   wall-clock            wall-clock reads inside the simulation core
D005   mutable-default       mutable default arguments
D006   rng-provenance        RNG seed not derived from a parameter/spec
S001   swallowed-exception   bare/silent exception handlers
P001   hot-path-codec        per-packet codec work in the fast path
C001   cache-key-fields      dataclass field missing from its trio
C002   scheme-protocol       registered scheme misses SchemeFactory
C003   api-exports           ``__all__`` entry without a real symbol
X001   pool-picklability     unpicklable callable crossing the pool
=====  ====================  =============================================

Run it as ``repro lint`` (text, ``--format json``, ``--format github``,
``--baseline`` support), from Python via :func:`lint_paths`, or rely on
the CI gate — ``tests/lint/test_self_clean.py`` keeps ``src/repro`` at
zero unsuppressed findings.  Deliberate exceptions carry an inline
``# repro: allow-<slug>`` with a one-line justification.  Every run
parses every file: the report depends only on the paths and the root.
"""

from .baseline import Baseline, fingerprints_for
from .engine import (
    ALL_RULES as RULES,
    ALL_RULES_BY_KEY as RULES_BY_KEY,
    FILE_RULES,
    Finding,
    LintEngine,
    LintError,
    infer_module,
    lint_paths,
    mark_baselined,
)
from .project import PROJECT_RULES, Project, ProjectRule
from .report import render_github, render_json, render_text, summarize
from .rules import FileContext, Rule, SIM_MODULES
from .symbols import ClassFacts, MethodFacts, ModuleFacts, collect_facts

__all__ = [
    "Baseline",
    "ClassFacts",
    "FILE_RULES",
    "FileContext",
    "Finding",
    "LintEngine",
    "LintError",
    "MethodFacts",
    "ModuleFacts",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "RULES",
    "RULES_BY_KEY",
    "Rule",
    "SIM_MODULES",
    "collect_facts",
    "fingerprints_for",
    "infer_module",
    "lint_paths",
    "mark_baselined",
    "render_github",
    "render_json",
    "render_text",
    "summarize",
]
