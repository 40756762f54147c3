"""Reporters for analysis runs: text for terminals, JSON for tooling.

The JSON document is schema-stamped (``repro.analysis/v1``) and validated
with the shared schema layer (:mod:`repro.util.schema`): a malformed
report fails the producer, not the downstream consumer.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.engine import AnalysisResult, Finding
from repro.util.schema import (
    SchemaError,
    array_of,
    count,
    envelope,
    integer,
    object_of,
    parse_json,
    raises,
    require,
    text,
)

SCHEMA_ID = "repro.analysis/v1"


class ReportError(SchemaError):
    """An analysis report does not match the expected shape."""


def render_text(result: AnalysisResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    if result.findings:
        counts = ", ".join(f"{code}: {n}" for code, n in
                           result.counts().items())
        lines.append(f"analysis: {len(result.findings)} finding(s) "
                     f"in {result.files} file(s) ({counts}); "
                     f"{result.suppressed} suppressed")
    else:
        lines.append(f"analysis: OK ({result.files} file(s), "
                     f"{result.suppressed} suppressed)")
    return "\n".join(lines)


def build_report(result: AnalysisResult) -> dict[str, Any]:
    """The JSON-ready report document for one analysis run."""
    report = {
        "schema": SCHEMA_ID,
        "files": result.files,
        "suppressed": result.suppressed,
        "counts": result.counts(),
        "findings": [finding.to_dict() for finding in result.findings],
    }
    validate_report(report)
    return report


def render_json(result: AnalysisResult) -> str:
    """The schema-stamped JSON report as a string."""
    return json.dumps(build_report(result), indent=2, sort_keys=True)


_FINDING = {"path": text, "line": integer, "col": integer, "code": text,
            "message": text}


@raises(ReportError)
def validate_report(payload: Any) -> None:
    """Schema check for an analysis report document."""
    envelope(payload, SCHEMA_ID)
    count(payload.get("files"), "$.files")
    count(payload.get("suppressed"), "$.suppressed")
    counts = object_of(payload.get("counts"), "$.counts", count)
    findings = array_of(payload.get("findings"), "$.findings",
                        _FINDING)
    total = sum(counts.values())
    require(total == len(findings), "$.counts",
            f"counts sum to {total} but there are {len(findings)} findings")


def load_report(text: str) -> AnalysisResult:
    """Parse a JSON report back into an :class:`AnalysisResult`."""
    payload = parse_json(text, ReportError, "$: not a JSON report")
    validate_report(payload)
    return AnalysisResult(
        findings=[Finding.from_dict(f) for f in payload["findings"]],
        files=payload["files"],
        suppressed=payload["suppressed"])
