"""Render lint findings as terminal text or machine-readable JSON.

Both renderers are pure functions of the finding list: sorted input in,
byte-identical report out — the report format itself obeys the rules it
enforces.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .engine import ALL_RULES

JSON_VERSION = 1


def summarize(findings: Sequence) -> Dict[str, int]:
    total = len(findings)
    suppressed = sum(1 for f in findings if f.suppressed)
    baselined = sum(1 for f in findings if f.baselined)
    return {
        "total": total,
        "active": total - suppressed - baselined,
        "suppressed": suppressed,
        "baselined": baselined,
    }


def render_text(
    findings: Sequence,
    files_scanned: int,
    show_suppressed: bool = False,
) -> str:
    """The human report: one location line + snippet per finding."""
    counts = summarize(findings)
    lines: List[str] = []
    for f in findings:
        if not f.active and not show_suppressed:
            continue
        status = ""
        if f.suppressed:
            status = " (suppressed)"
        elif f.baselined:
            status = " (baselined)"
        lines.append(f"{f.path}:{f.line}:{f.col + 1}: "
                     f"{f.code} [{f.rule}]{status} {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet}")
    if counts["active"]:
        lines.append("")
    lines.append(
        f"{counts['active']} finding(s) "
        f"({counts['suppressed']} suppressed, "
        f"{counts['baselined']} baselined) "
        f"in {files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence, files_scanned: int) -> str:
    """The machine report; schema checked by tests/lint/test_report.py."""
    from .baseline import fingerprints_for

    prints = fingerprints_for(findings)
    payload = {
        "version": JSON_VERSION,
        "tool": "repro.lint",
        "counts": dict(summarize(findings), files=files_scanned),
        "rules": {
            rule.code: {
                "name": rule.name,
                "summary": rule.summary,
                "motivation": rule.motivation,
            }
            for rule in ALL_RULES
        },
        "findings": [
            dict(f.to_dict(), fingerprint=fp)
            for f, fp in zip(findings, prints)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_annotation(value: str) -> str:
    """Percent-escape the characters the workflow-command parser eats."""
    return (value.replace("%", "%25")
                 .replace("\r", "%0D")
                 .replace("\n", "%0A"))


def _escape_property(value: str) -> str:
    return (_escape_annotation(value)
            .replace(":", "%3A")
            .replace(",", "%2C"))


def render_github(findings: Sequence, files_scanned: int) -> str:
    """GitHub Actions ``::error`` workflow commands, one per active finding.

    Suppressed/baselined findings are omitted — annotations exist to
    gate PRs, not to echo the allowlist.  Ends with the same summary
    line as the text report (as a plain line, not a command).
    """
    counts = summarize(findings)
    lines: List[str] = []
    for f in findings:
        if not f.active:
            continue
        title = _escape_property(f"{f.code} [{f.rule}]")
        lines.append(
            f"::error file={_escape_property(f.path)},line={f.line},"
            f"col={f.col + 1},title={title}"
            f"::{_escape_annotation(f.message)}"
        )
    lines.append(
        f"{counts['active']} finding(s) "
        f"({counts['suppressed']} suppressed, "
        f"{counts['baselined']} baselined) "
        f"in {files_scanned} file(s)"
    )
    return "\n".join(lines)
