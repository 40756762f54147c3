"""Render the MOST step-latency breakdown from a trace.

The coordinator emits one ``coordinator.step`` span per MS-PSDS step with
child spans for each phase (``integrate`` / ``propose`` / ``execute`` /
``commit``, plus ``retry_wait`` when a fault policy back-off ran).  This
module turns those spans — live from a :class:`TelemetryHub` or loaded
back from a JSONL export — into the paper's Figure-5-style step-time
decomposition table.

Usage::

    python -m repro.telemetry.report benchmarks/out/tperf_ntcp.trace.jsonl
    python -m repro.telemetry.report --critical-path trace.jsonl
    python -m repro.telemetry.report --format json trace.jsonl

With ``--critical-path`` the per-step phase table is replaced by the
:mod:`repro.monitor.critical_path` blame analysis: which site's execute
leg dominated each step, and how the idle slack distributes.  With
``--format json`` the rows are emitted as a schema-validated
``repro.telemetry/v1`` ``step_report`` document instead of the text
table, so the observatory, CI, and scripts consume step breakdowns
without screen-scraping the renderer.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any

from repro.util.schema import SchemaError

STEP_SPAN = "coordinator.step"
PHASES = ("integrate", "propose", "execute", "commit", "retry_wait",
          "propose_execute")
#: the contiguous phases of a clean barrier-mode step (their durations
#: sum to the step wall time — asserted by the integration tests)
CORE_PHASES = ("integrate", "propose", "execute", "commit")


def _as_record(span: Any) -> dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def step_rows(spans: list[Any]) -> list[dict[str, Any]]:
    """Fold a span list into one row per step.

    Accepts live :class:`~repro.telemetry.spans.Span` objects or the dict
    records of a JSONL export.  Returns rows sorted by step number::

        {"step": 3, "run_id": "most", "total": 0.21,
         "phases": {"integrate": 0.0, "propose": 0.1, ...}}
    """
    records = [_as_record(s) for s in spans]
    steps: dict[str, dict[str, Any]] = {}
    for rec in records:
        if rec["name"] == STEP_SPAN and rec.get("duration") is not None:
            steps[rec["span_id"]] = {
                "step": int(rec["attrs"].get("step", -1)),
                "run_id": rec["attrs"].get("run_id", ""),
                "total": rec["duration"],
                "phases": {},
            }
    for rec in records:
        parent = rec.get("parent_id")
        if parent not in steps or rec.get("duration") is None:
            continue
        phase = rec["name"].rsplit(".", 1)[-1]
        if phase in PHASES:
            row = steps[parent]["phases"]
            row[phase] = row.get(phase, 0.0) + rec["duration"]
    return sorted(steps.values(), key=lambda r: r["step"])


def render_step_table(rows: list[dict[str, Any]], *,
                      max_rows: int | None = 20) -> str:
    """The step-latency breakdown as an aligned text table."""
    if not rows:
        return "no coordinator.step spans in trace"
    phases = [p for p in PHASES
              if any(p in r["phases"] for r in rows)]
    header = f"{'step':>6}" + "".join(f"{p:>16}" for p in phases) \
        + f"{'total [s]':>12}"
    lines = [header, "-" * len(header)]
    shown = rows if max_rows is None else rows[:max_rows]
    for row in shown:
        cells = "".join(f"{row['phases'].get(p, 0.0):>16.4f}" for p in phases)
        lines.append(f"{row['step']:>6}{cells}{row['total']:>12.4f}")
    if max_rows is not None and len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more steps)")
    n = len(rows)
    mean_total = sum(r["total"] for r in rows) / n
    means = "".join(
        f"{sum(r['phases'].get(p, 0.0) for r in rows) / n:>16.4f}"
        for p in phases)
    lines.append("-" * len(header))
    lines.append(f"{'mean':>6}{means}{mean_total:>12.4f}")
    return "\n".join(lines)


def step_report_payload(rows: list[dict[str, Any]],
                        experiment: str) -> dict[str, Any]:
    """The rows as a validated ``repro.telemetry/v1`` step_report document."""
    from repro.telemetry.schema import SCHEMA_ID, validate_step_report_payload

    n = len(rows)
    phases = sorted({phase for row in rows for phase in row["phases"]})
    payload = {
        "schema": SCHEMA_ID, "kind": "step_report",
        "experiment": experiment, "count": n,
        "rows": [{"step": row["step"], "run_id": row["run_id"],
                  "total": row["total"], "phases": dict(row["phases"])}
                 for row in rows],
        "means": {
            "total": sum(r["total"] for r in rows) / n if n else 0.0,
            "phases": {phase: sum(r["phases"].get(phase, 0.0)
                                  for r in rows) / n
                       for phase in phases}},
    }
    validate_step_report_payload(payload)
    return payload


def report_from_spans(spans: list[Any], **kwargs: Any) -> str:
    return render_step_table(step_rows(spans), **kwargs)


def report_from_jsonl(path: str | pathlib.Path, **kwargs: Any) -> str:
    """Load a :meth:`TelemetryHub.export_jsonl` file and render the table."""
    from repro.telemetry.hub import TelemetryHub

    loaded = TelemetryHub.load_jsonl(path)
    title = loaded["meta"].get("experiment", str(path))
    table = render_step_table(step_rows(loaded["spans"]), **kwargs)
    return f"step-latency breakdown — {title}\n{table}"


def json_report_from_jsonl(path: str | pathlib.Path) -> dict[str, Any]:
    """Load a trace export and build its step_report document."""
    from repro.telemetry.hub import TelemetryHub

    loaded = TelemetryHub.load_jsonl(path)
    experiment = loaded["meta"].get("experiment") or str(path)
    return step_report_payload(step_rows(loaded["spans"]), experiment)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    critical_path = "--critical-path" in argv
    argv = [a for a in argv if a != "--critical-path"]
    output_format = "text"
    if "--format" in argv:
        at = argv.index("--format")
        if at + 1 >= len(argv) or argv[at + 1] not in ("text", "json"):
            print("error: --format takes 'text' or 'json'", file=sys.stderr)
            return 2
        output_format = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    if critical_path and output_format == "json":
        print("error: --critical-path has no json format", file=sys.stderr)
        return 2
    if not argv:
        print("usage: python -m repro.telemetry.report "
              "[--critical-path] [--format text|json] <trace.jsonl> [...]",
              file=sys.stderr)
        return 2
    for path in argv:
        if not pathlib.Path(path).exists():
            print(f"error: no such trace file: {path}", file=sys.stderr)
            return 2
        try:
            if critical_path:
                from repro.monitor.critical_path import (
                    report_from_jsonl as cp_report)

                print(cp_report(path))
            elif output_format == "json":
                print(json.dumps(json_report_from_jsonl(path),
                                 indent=2, sort_keys=True))
            else:
                print(report_from_jsonl(path))
        except BrokenPipeError:  # e.g. piped into head
            return 0
        except (SchemaError, ValueError, KeyError) as exc:  # malformed trace
            print(f"error: not a telemetry trace: {path} ({exc})",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
