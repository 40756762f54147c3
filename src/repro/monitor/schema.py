"""Schema validation for ``repro.monitor/v1`` payloads.

Everything the operations console moves over the wire — health SDEs,
streamed metric snapshots, alerts — is a plain dict carrying
``schema: "repro.monitor/v1"`` and a ``kind`` discriminator, validated at
both the publishing and the consuming end, with the shared JSON-path
checks of :mod:`repro.util.schema`.

Payload kinds:

* ``health`` — one service's liveness snapshot, published as the
  ``health`` SDE (status, open-transaction backlog, last committed step);
* ``metrics`` — one :class:`~repro.monitor.streamer.TelemetryStreamer`
  flush: counter deltas + cumulative totals, gauge values, histogram
  summaries (with the operator-facing p95), sequenced per source;
* ``alert`` — one typed anomaly record (stall / slow_site /
  stream_health / breaker_open / slo_burn) raised by the monitor's
  deterministic detectors or by the observatory's SLO burn-rate rules.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.schema import validate_metric_record
from repro.util.schema import (
    SchemaError,
    array,
    envelope,
    integer,
    mapping,
    number,
    one_of,
    raises,
    require,
    string,
    string_or_null,
    text,
)

SCHEMA_ID = "repro.monitor/v1"

HEALTH_STATUSES = ("starting", "running", "degraded", "stopped")
ALERT_KINDS = ("stall", "slow_site", "stream_health", "breaker_open",
               "slo_burn", "queue_redelivery")
ALERT_SEVERITIES = ("info", "warning", "critical")

# Streamed summaries carry p95 (the slow-site detector's budget input)
# instead of the exporter's p90.
_SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


class MonitorSchemaError(SchemaError):
    """A monitor payload does not match the ``repro.monitor/v1`` shape."""


@raises(MonitorSchemaError)
def validate_health_payload(payload: Any) -> None:
    """A ``health`` SDE value.

    Shape::

        {"schema": "repro.monitor/v1", "kind": "health",
         "source": "ntcp-uiuc", "time": 42.0, "status": "running",
         "backlog": 0, "step"?: 17, "plugin"?: "matlab", "detail": {...}}
    """
    envelope(payload, SCHEMA_ID, "health", source=True, time=True)
    one_of(payload.get("status"), "$.status", HEALTH_STATUSES)
    integer(payload.get("backlog"), "$.backlog", minimum=0)
    if "step" in payload:
        integer(payload["step"], "$.step", minimum=-1)
    if "plugin" in payload:
        text(payload["plugin"], "$.plugin")
    mapping(payload.get("detail", {}), "$.detail")


@raises(MonitorSchemaError)
def validate_metrics_sample(payload: Any) -> None:
    """One streamed metrics snapshot (an NSDS sample value).

    Shape::

        {"schema": "repro.monitor/v1", "kind": "metrics",
         "source": "coord", "time": 120.0, "seq": 4, "metrics": [...]}

    Counters carry the delta since the previous flush in ``value`` plus
    the cumulative ``total`` (so a consumer behind a lossy stream can
    resynchronise); histograms carry a cumulative summary.
    """
    envelope(payload, SCHEMA_ID, "metrics", source=True, time=True)
    integer(payload.get("seq"), "$.seq", minimum=1)
    for i, record in enumerate(array(payload.get("metrics"), "$.metrics")):
        path = f"$.metrics[{i}]"
        validate_metric_record(record, path, _SUMMARY_KEYS)
        if record["type"] == "counter":
            total = number(record.get("total"), f"{path}.total")
            require(total + 1e-9 >= record["value"], f"{path}.total",
                    "cumulative total below the delta")


@raises(MonitorSchemaError)
def validate_alert_payload(payload: Any) -> None:
    """One typed alert record.

    Shape::

        {"schema": "repro.monitor/v1", "kind": "alert",
         "source": "monitor-console", "time": 310.0,
         "alert_id": "monitor-console-0001", "alert": "stall",
         "severity": "critical", "step": 24, "site": null,
         "message": "...", "detail": {...}}
    """
    envelope(payload, SCHEMA_ID, "alert", source=True, time=True)
    string(payload.get("alert_id"), "$.alert_id")
    one_of(payload.get("alert"), "$.alert", ALERT_KINDS)
    one_of(payload.get("severity"), "$.severity", ALERT_SEVERITIES)
    integer(payload.get("step"), "$.step", minimum=-1)
    string_or_null(payload.get("site"), "$.site")
    string(payload.get("message"), "$.message")
    mapping(payload.get("detail", {}), "$.detail")
