"""``repro.verify/v1`` report documents: build + schema validation.

The verifier emits one JSON document per run summarizing every bounded
exploration (states explored, traces run, violations), the mutation
regression (which seeded protocol breaks the checker caught), and the
conformance replay (traces replayed through the live coordinator,
divergences).  Like the benchmark documents (``repro.bench/v1``), the
report is validated on emission with the shared schema layer
(:mod:`repro.util.schema`), so a malformed report fails the run instead
of rotting on disk.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.util.schema import (
    SchemaError,
    array,
    array_of,
    boolean,
    count,
    envelope,
    fields,
    integer,
    nullable,
    one_of,
    positive_int,
    present,
    require,
    string,
    text,
)
from repro.verify.explorer import ExplorationResult

__all__ = [
    "VERIFY_SCHEMA_ID",
    "build_report",
    "validate_verify_payload",
]

VERIFY_SCHEMA_ID = "repro.verify/v1"


def _exploration_record(result: ExplorationResult) -> dict[str, Any]:
    cfg = result.config
    return {
        "sites": list(cfg.sites),
        "n_steps": cfg.n_steps,
        "pipeline_depth": cfg.pipeline_depth,
        "max_faults": cfg.max_faults,
        "traces": len(result.traces),
        "states_explored": result.states_explored,
        "violations": [
            {
                "invariant": violation.invariant,
                "step": violation.step,
                "site": violation.site,
                "detail": violation.detail,
                "schedule": [
                    {"step": ev.step, "kind": ev.kind, "site": ev.site}
                    for ev in schedule
                ],
            }
            for schedule, violation in result.violations
        ],
    }


def build_report(explorations: list[ExplorationResult],
                 mutations: list[dict[str, Any]] | None = None,
                 conformance: dict[str, Any] | None = None,
                 ) -> dict[str, Any]:
    """Assemble a ``repro.verify/v1`` document from a verifier run.

    ``mutations`` entries carry ``{"rule", "caught", "violations"}`` from
    the mutation regression; ``conformance`` carries
    ``{"traces_replayed", "divergences"}`` from the live replay.  The
    document's top-level ``ok`` is True only when every exploration is
    violation-free, every mutation was caught, and no replay diverged.
    """
    records = [_exploration_record(result) for result in explorations]
    ok = all(not record["violations"] for record in records)
    if mutations is not None:
        ok = ok and all(mutation["caught"] for mutation in mutations)
    if conformance is not None:
        ok = ok and not conformance["divergences"]
    report: dict[str, Any] = {
        "schema": VERIFY_SCHEMA_ID,
        "explorations": records,
        "ok": ok,
    }
    if mutations is not None:
        report["mutations"] = mutations
    if conformance is not None:
        report["conformance"] = conformance
    return report


def _pipeline_depth(value: Any, path: str) -> None:
    one_of(integer(value, path), path, (0, 1))


_FAULT_EVENT = {"step": present, "kind": present, "site": present}
_VIOLATION = {
    "invariant": string, "step": integer,
    "site": nullable(text), "detail": text,
    "schedule": functools.partial(array_of, check=_FAULT_EVENT),
}
_EXPLORATION = {
    "sites": functools.partial(array_of, check=text, nonempty=True),
    "n_steps": positive_int,
    "pipeline_depth": _pipeline_depth,
    "max_faults": count, "traces": positive_int, "states_explored": count,
    "violations": functools.partial(array_of, check=_VIOLATION),
}
_MUTATION = {"rule": string, "caught": boolean, "violations": array}
_CONFORMANCE = {"traces_replayed": count, "divergences": array}


def validate_verify_payload(payload: Any) -> None:
    """Validate a full ``repro.verify/v1`` document.

    Raises :class:`~repro.util.schema.SchemaError` with a JSON path
    to the offending field on any mismatch.

    Shape::

        {"schema": "repro.verify/v1", "ok": bool,
         "explorations": [{"sites": [...], "n_steps": int,
                           "pipeline_depth": 0 | 1, "max_faults": int,
                           "traces": int, "states_explored": int,
                           "violations": [...]}],
         "mutations": [{"rule": str, "caught": bool,
                        "violations": [str, ...]}]?,
         "conformance": {"traces_replayed": int, "divergences": [...]}?}
    """
    envelope(payload, VERIFY_SCHEMA_ID)
    boolean(payload.get("ok"), "$.ok")
    explorations = array_of(payload.get("explorations"), "$.explorations",
                            _EXPLORATION,
                            nonempty=True)
    # Cross-field consistency: ok must reflect the violation lists.
    derived_ok = all(not record["violations"] for record in explorations)
    if "mutations" in payload:
        mutations = array_of(payload["mutations"], "$.mutations",
                             _MUTATION)
        derived_ok = derived_ok and all(record["caught"]
                                        for record in mutations)
    if "conformance" in payload:
        conformance = fields(payload["conformance"], "$.conformance",
                             _CONFORMANCE)
        derived_ok = derived_ok and not conformance["divergences"]
    require(payload["ok"] == derived_ok, "$.ok",
            "must equal the conjunction of clean explorations, caught "
            "mutations, and divergence-free conformance")


def ensure_valid(payload: dict[str, Any]) -> dict[str, Any]:
    """Validate ``payload`` and return it (emission-time guard)."""
    validate_verify_payload(payload)
    return payload


# Re-exported so callers need not import the schema layer to catch
# validation failures.
VerifyReportError = SchemaError
