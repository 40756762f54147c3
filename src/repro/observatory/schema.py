"""Schema validation for ``repro.observatory/v1`` documents.

Everything the grid observatory hands out — query results, store dumps,
flight-recorder snapshots — is a plain dict carrying
``schema: "repro.observatory/v1"`` and a ``kind`` discriminator,
validated at the producing end so a malformed document fails the run
instead of rotting in an archive.  The checks are the shared JSON-path
primitives of :mod:`repro.util.schema`.

Document kinds:

* ``query_result`` — one :func:`repro.observatory.query.run_query`
  answer: the matched series page plus per-series and combined
  aggregates;
* ``dump`` — a whole :class:`~repro.observatory.tsdb.TimeSeriesStore`
  serialized for offline querying (the ``repro observatory`` CLI reads
  these), including SLO statuses and flight snapshots;
* ``flight`` — one :class:`~repro.observatory.recorder.FlightRecorder`
  snapshot: the bounded per-source event rings frozen at escalation or
  abort time.
"""

from __future__ import annotations

import functools
from typing import Any

from repro.telemetry.schema import validate_metric_name
from repro.util.schema import (
    SchemaError,
    array,
    array_of,
    boolean,
    count,
    envelope,
    fail,
    fields,
    integer,
    labels,
    mapping,
    nullable,
    number,
    one_of,
    positive_int,
    raises,
    require,
    string,
    string_or_null,
)

SCHEMA_ID = "repro.observatory/v1"

#: aggregation operators the query engine understands
AGGREGATIONS = ("count", "sum", "avg", "min", "max", "rate", "quantile")
#: downsampling tiers, finest first (``raw`` -> 10-step -> 100-step)
TIERS = ("raw", "r10", "r100")
#: the per-bucket statistics a finalized rollup carries
BUCKET_KEYS = ("start", "end", "count", "sum", "min", "max", "first",
               "last")
#: event record types a flight snapshot may carry
EVENT_TYPES = ("span", "log")


class ObservatorySchemaError(SchemaError):
    """A document does not match the ``repro.observatory/v1`` shape."""


def _point(point: Any, path: str) -> None:
    require(isinstance(point, list) and len(point) == 2, path,
            "each point is a [time, value] pair")
    number(point[0], f"{path}[0]")
    number(point[1], f"{path}[1]")


_points = functools.partial(array_of, check=_point)
_BUCKET = {key: number for key in BUCKET_KEYS}


def _bucket(bucket: Any, path: str) -> None:
    fields(bucket, path, _BUCKET)
    require(bucket["end"] >= bucket["start"], f"{path}.end",
            "bucket must close at or after its start")
    positive_int(bucket["count"], f"{path}.count")


def _aggregate(agg: Any, path: str) -> None:
    mapping(agg, path)
    one_of(agg.get("op"), f"{path}.op", AGGREGATIONS)
    number(agg.get("value"), f"{path}.value")
    count(agg.get("count"), f"{path}.count")


_aggregate_or_null = nullable(_aggregate)


def _series_head(entry: Any, path: str) -> None:
    """The name and labels every query and dump series entry starts with."""
    mapping(entry, path)
    validate_metric_name(entry.get("name"), f"{path}.name")
    labels(entry.get("labels", {}), f"{path}.labels")


@raises(ObservatorySchemaError)
def validate_query_result(payload: Any) -> None:
    """One query-engine answer.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "query_result",
         "time": 512.0,
         "query": {"metric": "...", "selector": {...}, "start": 0.0,
                   "end": 512.0, "agg": "avg"|null, "quantile": 95.0|null,
                   "tier": "auto", "page": 1, "page_size": 10},
         "tier": "raw", "total_series": 3, "page": 1, "pages": 1,
         "series": [{"name": "...", "labels": {...},
                     "points": [[t, v], ...], "truncated": false,
                     "aggregate": {...}|null}],
         "aggregate": {"op": "avg", "value": 1.0, "count": 40}|null}
    """
    envelope(payload, SCHEMA_ID, "query_result", time=True)
    query = mapping(payload.get("query"), "$.query")
    validate_metric_name(query.get("metric"), "$.query.metric")
    labels(query.get("selector", {}), "$.query.selector")
    number(query.get("start"), "$.query.start")
    number(query.get("end"), "$.query.end")
    if query.get("agg") is not None:
        one_of(query["agg"], "$.query.agg", AGGREGATIONS)
    one_of(payload.get("tier"), "$.tier", TIERS)
    count(payload.get("total_series"), "$.total_series")
    positive_int(payload.get("page"), "$.page")
    positive_int(payload.get("pages"), "$.pages")
    for i, entry in enumerate(array(payload.get("series"), "$.series")):
        path = f"$.series[{i}]"
        _series_head(entry, path)
        _points(entry.get("points"), f"{path}.points")
        boolean(entry.get("truncated"), f"{path}.truncated")
        _aggregate_or_null(entry.get("aggregate"), f"{path}.aggregate")
    _aggregate_or_null(payload.get("aggregate"), "$.aggregate")


def _event(event: Any, path: str) -> None:
    mapping(event, path)
    number(event.get("time"), f"{path}.time")
    one_of(event.get("type"), f"{path}.type", EVENT_TYPES)
    string(event.get("what"), f"{path}.what")
    if event.get("step") is not None:
        integer(event["step"], f"{path}.step")
    mapping(event.get("detail", {}), f"{path}.detail")


@raises(ObservatorySchemaError)
def validate_flight_snapshot(payload: Any) -> None:
    """One flight-recorder snapshot.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "flight",
         "run_id": "most-obs", "reason": "abort", "time": 481.0,
         "step": 39, "site": "uiuc",
         "sources": {"ntcp-uiuc": [{"time": 470.1, "type": "log",
                                    "what": "transaction.proposed",
                                    "step": 39, "detail": {...}}, ...]}}
    """
    envelope(payload, SCHEMA_ID, "flight", time=True)
    string(payload.get("run_id"), "$.run_id")
    string(payload.get("reason"), "$.reason")
    integer(payload.get("step"), "$.step", minimum=-1)
    string_or_null(payload.get("site"), "$.site")
    for source, events in mapping(payload.get("sources"),
                                  "$.sources").items():
        path = f"$.sources.{source}"
        string(source, path)
        array_of(events, path, _event)


@raises(ObservatorySchemaError)
def validate_dump(payload: Any) -> None:
    """A whole-store dump for offline querying.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "dump",
         "run_id": "most-obs", "time": 512.0,
         "series": [{"name": "...", "labels": {...}, "appended": 40,
                     "raw": [[t, v], ...], "r10": [bucket, ...],
                     "r100": [bucket, ...]}],
         "slo": [{"name": "...", ...}, ...],
         "snapshots": [<flight doc>, ...]}
    """
    envelope(payload, SCHEMA_ID, "dump", time=True)
    string(payload.get("run_id"), "$.run_id")
    for i, entry in enumerate(array(payload.get("series"), "$.series")):
        path = f"$.series[{i}]"
        _series_head(entry, path)
        count(entry.get("appended"), f"{path}.appended")
        _points(entry.get("raw"), f"{path}.raw")
        for tier in ("r10", "r100"):
            array_of(entry.get(tier), f"{path}.{tier}", _bucket)
    for i, status in enumerate(array(payload.get("slo"), "$.slo")):
        path = f"$.slo[{i}]"
        mapping(status, path)
        string(status.get("name"), f"{path}.name")
        number(status.get("budget_remaining"), f"{path}.budget_remaining")
    for i, snapshot in enumerate(array(payload.get("snapshots"),
                                       "$.snapshots")):
        try:
            validate_flight_snapshot(snapshot)
        except SchemaError as exc:
            fail(f"$.snapshots[{i}]", str(exc))
