"""Schema validation for exported telemetry documents.

Built on the shared schema layer (:mod:`repro.util.schema`), so every
error carries a JSON path to the offending field.  Benchmarks and the CI
smoke target validate every metrics document they emit through
:func:`validate_metrics_payload`, so a malformed export fails the run
instead of silently rotting in ``benchmarks/out/``.

Conventions enforced:

* metric names are dotted ``layer.component.name`` (>= 3 non-empty parts);
* counters/gauges carry a numeric ``value``; histograms carry a
  ``summary`` with exact-percentile fields;
* spans are closed (``end >= start``) and id-complete.

:class:`SchemaError` here is the root of every document error in the
program; the other document families' errors subclass it.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.util.schema import (
    SchemaError,  # noqa: F401  (re-exported: the root document error)
    array,
    array_of,
    boolean,
    count,
    envelope,
    fail,
    fields,
    integer,
    is_number,
    labels,
    mapping,
    non_negative,
    nullable,
    number,
    object_of,
    one_of,
    positive,
    positive_int,
    present,
    require,
    string,
    text,
)

SCHEMA_ID = "repro.telemetry/v1"

METRIC_TYPES = ("counter", "gauge", "histogram")
#: the exporter's histogram summary; streamed samples carry p95 instead
#: of p90 (see :mod:`repro.monitor.schema`)
SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")

_SPAN = {"name": string, "trace_id": string, "span_id": string,
         "parent_id": nullable(text), "start": number, "end": number,
         "duration": present, "attrs": mapping}


def validate_metric_name(name: Any, path: str = "name") -> None:
    """Enforce the ``layer.component.name`` naming convention."""
    require(isinstance(name, str), path, "metric name must be a string")
    parts = name.split(".")
    if len(parts) < 3 or not all(parts):
        fail(path, f"metric name {name!r} must be dotted layer.component.name")


def validate_metric_record(record: Any, path: str = "metric",
                           summary_keys: tuple = SUMMARY_KEYS) -> None:
    """One entry of a ``metrics`` list.

    ``summary_keys`` are the statistics a histogram summary must carry.
    The checks are spelled out rather than table-driven: every streamed
    metrics sample runs this once per record.
    """
    if not isinstance(record, dict):
        fail(path, "metric record must be an object")
    validate_metric_name(record.get("name"), f"{path}.name")
    mtype = record.get("type")
    if mtype not in METRIC_TYPES:
        fail(f"{path}.type",
             f"metric type must be one of {METRIC_TYPES}, got {mtype!r}")
    labels(record.get("labels", {}), f"{path}.labels")
    if mtype == "histogram":
        summary = record.get("summary")
        if not isinstance(summary, dict):
            fail(f"{path}.summary", "histogram requires a summary object")
        for key in summary_keys:
            if not is_number(summary.get(key)):
                require(key in summary, f"{path}.summary.{key}", "missing")
                number(summary[key], f"{path}.summary.{key}")
    elif not is_number(record.get("value")):
        require("value" in record, f"{path}.value",
                f"{mtype} requires a value")
        number(record["value"], f"{path}.value")


def validate_span_record(record: Any, path: str = "span") -> None:
    """One span record (from ``Span.to_dict`` or a JSONL line)."""
    fields(record, path, _SPAN)
    require(record["end"] >= record["start"], f"{path}.end",
            "span must close at or after its start")


def validate_metrics_payload(payload: Any) -> None:
    """A full metrics document as emitted by benchmarks / the smoke target.

    Shape::

        {"schema": "repro.telemetry/v1", "experiment": "...",
         "metrics": [...], "spans": [...]?}
    """
    envelope(payload, SCHEMA_ID)
    string(payload.get("experiment"), "$.experiment")
    array_of(payload.get("metrics"), "$.metrics", validate_metric_record)
    if "spans" in payload:
        array_of(payload["spans"], "$.spans", validate_span_record)


def validate_jsonl_export(loaded: Any) -> None:
    """Validate the dict returned by :meth:`TelemetryHub.load_jsonl`."""
    mapping(loaded, "$")
    meta = mapping(loaded.get("meta", {}), "$.meta")
    require(meta.get("schema") == SCHEMA_ID, "$.meta.schema",
            f"expected {SCHEMA_ID!r}")
    array_of(loaded.get("metrics", []), "$.metrics", validate_metric_record)
    array_of(loaded.get("spans", []), "$.spans", validate_span_record)


_phases = functools.partial(object_of, check=number)
_STEP_ROW = {"step": integer, "run_id": text, "total": number,
             "phases": _phases}
_STEP_MEANS = {"total": number, "phases": _phases}


def validate_step_report_payload(payload: Any) -> None:
    """A JSON step-latency report (``repro.telemetry.report --format json``).

    Shape::

        {"schema": "repro.telemetry/v1", "kind": "step_report",
         "experiment": "...", "count": 40,
         "rows": [{"step": 1, "run_id": "...", "total": 0.21,
                   "phases": {"propose": 0.1, ...}}, ...],
         "means": {"total": 0.2, "phases": {"propose": 0.09, ...}}}
    """
    envelope(payload, SCHEMA_ID, "step_report")
    string(payload.get("experiment"), "$.experiment")
    rows = array(payload.get("rows"), "$.rows")
    require(payload.get("count") == len(rows), "$.count",
            "count must equal len(rows)")
    for i, row in enumerate(rows):
        fields(row, f"$.rows[{i}]", _STEP_ROW)
    fields(payload.get("means"), "$.means", _STEP_MEANS)


# ---------------------------------------------------------------------------
# Benchmark comparison documents (repo-root BENCH_*.json)
# ---------------------------------------------------------------------------

BENCH_SCHEMA_ID = "repro.bench/v1"

#: every stepping mode must report these (all in *simulated* seconds, so
#: the committed document is deterministic run-to-run).
_BENCH_MODE = {"steps": positive_int, "variants": positive_int,
               "wall_time": positive, "median_step_latency": positive,
               "aggregate_steps_per_s": positive,
               "aggregate_variant_steps_per_s": positive}


def _ratio(value: Any, path: str) -> None:
    require(number(value, path) >= 1.0, path, "ratios are >= 1")


def _bench_document(payload: Any, experiment: str | None,
                    spec: dict) -> None:
    """Envelope, experiment name and the sections a bench document has."""
    envelope(payload, BENCH_SCHEMA_ID)
    if experiment is None:
        string(payload.get("experiment"), "$.experiment")
    else:
        require(payload.get("experiment") == experiment, "$.experiment",
                f"expected {experiment!r}, got "
                f"{payload.get('experiment')!r}")
    fields(payload, "$", spec)


def validate_bench_mode(record: Any, path: str = "mode") -> None:
    """One stepping-mode record of a benchmark comparison document."""
    fields(record, path, _BENCH_MODE)


_STEPPING_BENCH = {
    "config": {"n_steps": positive_int, "n_variants": positive_int},
    "modes": {name: _BENCH_MODE
              for name in ("sequential", "pipelined", "ensemble")},
    "speedups": {"pipelined_aggregate_steps_per_s": number,
                 "ensemble_aggregate_variant_steps_per_s": number},
    "bit_exact": {"pipelined": boolean, "ensemble_base_variant": boolean},
}


def validate_stepping_bench_payload(payload: Any) -> None:
    """A stepping-mode comparison document (``BENCH_tperf_ntcp.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "...",
         "config": {"n_steps": int, "n_variants": int},
         "modes": {"sequential": {...}, "pipelined": {...},
                   "ensemble": {...}},
         "speedups": {"pipelined_aggregate_steps_per_s": float,
                      "ensemble_aggregate_variant_steps_per_s": float},
         "bit_exact": {"pipelined": bool, "ensemble_base_variant": bool}}
    """
    _bench_document(payload, None, _STEPPING_BENCH)


_OBS_BENCH = {
    "config": {"n_steps": positive_int, "slo_interval": number},
    "overhead": {"median_step_off": positive, "median_step_on": positive,
                 "bound": positive, "overhead_fraction": number,
                 "within_bound": boolean},
    "rollups": {"series_checked": positive_int, "consistent": boolean},
    "determinism": {"query_identical": boolean,
                    "postmortem_identical": boolean},
    "flight": {"aborted_step": count, "faulted_site": string,
               "snapshot_events": positive_int,
               "timeline_names_site_and_step": boolean},
}


def validate_obs_bench_payload(payload: Any) -> None:
    """A grid-observatory document (``BENCH_tobs.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tobs",
         "config": {"n_steps": int, "slo_interval": float},
         "overhead": {"median_step_off": float, "median_step_on": float,
                      "overhead_fraction": float, "bound": float,
                      "within_bound": bool},
         "rollups": {"series_checked": int, "consistent": bool},
         "determinism": {"query_identical": bool,
                         "postmortem_identical": bool},
         "flight": {"aborted_step": int, "faulted_site": str,
                    "snapshot_events": int,
                    "timeline_names_site_and_step": bool}}
    """
    _bench_document(payload, "tobs", _OBS_BENCH)


_FLEET_TENANT = {"runs": positive_int, "steps": positive_int,
                 "completion_time": number, "lease_wait_max": number,
                 "duplicate_executes": count}


_FLEET_BENCH = {
    "config": {key: positive_int
               for key in ("n_sites", "n_tenants", "runs_per_tenant",
                           "n_experiments", "n_steps", "sites_per_lease")},
    "fleet": {"duration": non_negative, "lease_wait_max": non_negative,
              "lease_wait_mean": non_negative, "completed": count,
              "peak_queue_depth": count, "duplicate_executes": count},
    "fairness": {"completion_ratio": _ratio, "bound": _ratio,
                 "within_bound": boolean},
    "tenants": functools.partial(object_of, check=_FLEET_TENANT,
                                 nonempty=True),
    "bit_exact": {"solo_vs_fleet": boolean, "tenants_checked": positive_int},
    "security": {"unauthorized_rejected": boolean},
}


def validate_fleet_bench_payload(payload: Any) -> None:
    """A multi-tenant fleet document (``BENCH_tfleet.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tfleet",
         "config": {"n_sites": int, "n_tenants": int,
                    "runs_per_tenant": int, "n_experiments": int,
                    "n_steps": int, "sites_per_lease": int},
         "fleet": {"duration": float, "completed": int,
                   "peak_queue_depth": int, "lease_wait_max": float,
                   "lease_wait_mean": float, "duplicate_executes": int},
         "fairness": {"completion_ratio": float, "bound": float,
                      "within_bound": bool},
         "tenants": {"<tenant>": {"runs": int, "steps": int,
                                  "completion_time": float,
                                  "lease_wait_max": float,
                                  "duplicate_executes": int}, ...},
         "bit_exact": {"solo_vs_fleet": bool, "tenants_checked": int},
         "security": {"unauthorized_rejected": bool}}
    """
    _bench_document(payload, "tfleet", _FLEET_BENCH)
    config = payload["config"]
    require(config["n_experiments"]
            == config["n_tenants"] * config["runs_per_tenant"],
            "$.config.n_experiments",
            "must equal n_tenants * runs_per_tenant")


def _refusals_by_epoch(value: Any, path: str) -> None:
    for epoch, refusals in mapping(value, path).items():
        require(isinstance(epoch, str) and epoch.isdigit(),
                f"{path}.{epoch}",
                "epoch keys must be decimal strings (JSON object keys)")
        positive_int(refusals, f"{path}.{epoch}")


_QUEUE_BENCH = {
    "config": {
        **{key: positive_int
           for key in ("n_sites", "n_tenants", "runs_per_tenant",
                       "n_submissions", "n_steps", "checkpoint_every")},
        "seed": integer,
        "crash_times": functools.partial(array_of, check=positive,
                                         nonempty=True),
        "takeover_delay": number},
    "campaign": {
        **{key: count
           for key in ("completed", "failed", "outstanding", "redeliveries",
                       "voided", "journal_entries")},
        "incarnations": positive_int, "final_epoch": positive_int,
        "duration": number},
    "fencing": {"refusals": count, "stale_accepts": count,
                "refusals_by_epoch": _refusals_by_epoch,
                "refusal_paths": functools.partial(array_of, check=string),
                "every_crash_epoch_refused": boolean},
    "exactness": {"duplicate_executes": count, "runs_checked": positive_int,
                  "resubmit_deduped": boolean,
                  "bit_exact_vs_uncrashed": boolean},
}


def validate_queue_bench_payload(payload: Any) -> None:
    """A durable-queue crash-recovery document (``BENCH_tqueue.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tqueue",
         "config": {"n_sites": int, "n_tenants": int,
                    "runs_per_tenant": int, "n_submissions": int,
                    "n_steps": int, "checkpoint_every": int, "seed": int,
                    "crash_times": [float, ...], "takeover_delay": float},
         "campaign": {"completed": int, "failed": int, "outstanding": int,
                      "redeliveries": int, "voided": int,
                      "incarnations": int, "final_epoch": int,
                      "journal_entries": int, "duration": float},
         "fencing": {"refusals": int, "stale_accepts": int,
                     "refusals_by_epoch": {"<epoch>": int, ...},
                     "refusal_paths": [str, ...],
                     "every_crash_epoch_refused": bool},
         "exactness": {"duplicate_executes": int, "runs_checked": int,
                       "resubmit_deduped": bool,
                       "bit_exact_vs_uncrashed": bool}}
    """
    _bench_document(payload, "tqueue", _QUEUE_BENCH)
    config = payload["config"]
    require(config["n_submissions"]
            == config["n_tenants"] * config["runs_per_tenant"],
            "$.config.n_submissions",
            "must equal n_tenants * runs_per_tenant")
    require(payload["campaign"]["incarnations"]
            == len(config["crash_times"]) + 1,
            "$.campaign.incarnations", "must equal len(crash_times) + 1")


#: bench documents by ``$.experiment``
BENCH_VALIDATORS = {"tperf_ntcp": validate_stepping_bench_payload,
                    "tfleet": validate_fleet_bench_payload,
                    "tobs": validate_obs_bench_payload,
                    "tqueue": validate_queue_bench_payload}


def validate_bench_payload(payload: Any) -> None:
    """A benchmark comparison document (repo-root ``BENCH_*.json``).

    Dispatches on ``$.experiment`` through :data:`BENCH_VALIDATORS`; an
    experiment not listed there is an error.
    """
    envelope(payload, BENCH_SCHEMA_ID)
    experiment = one_of(payload.get("experiment"), "$.experiment",
                        tuple(BENCH_VALIDATORS))
    BENCH_VALIDATORS[experiment](payload)
