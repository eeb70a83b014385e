"""The shipped ``repro`` package must lint clean.

This is the acceptance bar the CI gate enforces: every finding on
``src/repro`` is either fixed or carries an inline
``# repro: allow-<rule>`` annotation with a justification.  A new
unsuppressed finding anywhere in the package fails this test with the
offending locations printed.
"""

from pathlib import Path

import repro
from repro.lint import LintEngine, render_text

PACKAGE = Path(repro.__file__).parent


def test_package_has_zero_unsuppressed_findings():
    findings, files_scanned = LintEngine().lint_paths(
        [PACKAGE], root=PACKAGE.parent)
    active = [f for f in findings if f.active]
    assert not active, "\n" + render_text(active, files_scanned)
    # Sanity: the walk really covered the package, not an empty dir.
    assert files_scanned > 40


def test_deliberate_sites_are_annotated_not_silent():
    # The suppressed set is small and intentional; if it grows, the new
    # site needs the same scrutiny the existing ones received.  The P001
    # entries are the codec/hash memos themselves — the designated miss
    # branches the rule's escape hatch exists for.
    findings, _ = LintEngine().lint_paths([PACKAGE], root=PACKAGE.parent)
    suppressed = sorted({(Path(f.path).name, f.code)
                         for f in findings if f.suppressed})
    assert ("runner.py", "D001") in suppressed
    assert ("crypto.py", "P001") in suppressed
    assert ("bits.py", "P001") in suppressed
    # The rng-or-default idiom in host/scheme constructors is the one
    # sanctioned D006 exception: sweeps always inject a spec-derived rng.
    assert ("host.py", "D006") in suppressed
    assert ("siff.py", "D006") in suppressed
    assert ("netfence.py", "D006") in suppressed
    assert len([f for f in findings if f.suppressed]) <= 16, (
        "suppression count crept up — audit the new allow- annotations"
    )
