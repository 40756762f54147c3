"""The observatory query engine.

Label-selector range queries over a :class:`TimeSeriesStore`, with
``count/sum/avg/min/max/rate/quantile`` aggregation across series,
pagination, and staleness-aware tier selection.  Every answer is a
validated ``repro.observatory/v1`` ``query_result`` document, built the
same way from the same store contents no matter how many times it is
asked — the T-OBS determinism check compares the serialized documents
byte for byte.

Aggregation semantics per tier:

* ``count``/``sum`` — over raw points directly; over rollups,
  Σ ``count`` / Σ ``sum`` of the buckets (exact: buckets were folded
  from the same appends).
* ``avg`` — ``sum / count``.
* ``min``/``max`` — min-of-``min`` / max-of-``max``.
* ``rate`` — ``(last - first) / (t_last - t_first)`` over the window,
  for cumulative counters; rollups use the first bucket's ``first`` and
  the last bucket's ``last``.
* ``quantile`` — the interpolated percentile
  (:meth:`repro.telemetry.metrics.Histogram.percentile` arithmetic)
  over point values; rollups fall back to per-bucket means.
"""

from __future__ import annotations

import math
from typing import Any

from repro.observatory.schema import (AGGREGATIONS, TIERS,
                                      validate_query_result)
from repro.util.schema import (
    SchemaError,
    labels,
    mapping,
    number,
    one_of,
    positive_int,
    raises,
    require,
    string,
)

DEFAULT_PAGE_SIZE = 10
DEFAULT_MAX_POINTS = 200


class QueryError(SchemaError):
    """A malformed observatory query request."""


def _percentile(values: list[float], p: float) -> float:
    """Interpolated percentile, matching ``Histogram.percentile``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _window(series, tier: str, start: float, end: float) -> list:
    """The tier's finalized points whose timestamps fall in [start, end]."""
    if tier == "raw":
        return [p for p in series.points(tier) if start <= p[0] <= end]
    return [b for b in series.points(tier)
            if b["end"] >= start and b["start"] <= end]


def _facts(points: list, tier: str) -> dict[str, Any]:
    """Window statistics shared by every aggregation operator."""
    if tier == "raw":
        values = [v for _, v in points]
        return {"count": len(points),
                "sum": math.fsum(values),
                "min": min(values) if values else 0.0,
                "max": max(values) if values else 0.0,
                "first": (points[0][0], points[0][1]) if points else None,
                "last": (points[-1][0], points[-1][1]) if points else None,
                "values": values}
    count = sum(b["count"] for b in points)
    return {"count": count,
            "sum": math.fsum(b["sum"] for b in points),
            "min": min((b["min"] for b in points), default=0.0),
            "max": max((b["max"] for b in points), default=0.0),
            "first": (points[0]["start"], points[0]["first"])
            if points else None,
            "last": (points[-1]["end"], points[-1]["last"])
            if points else None,
            "values": [b["sum"] / b["count"] for b in points]}


def _rate(first, last) -> float:
    if first is None or last is None or last[0] <= first[0]:
        return 0.0
    return (last[1] - first[1]) / (last[0] - first[0])


def _aggregate(op: str, quantile: float, facts: dict[str, Any]) -> float:
    if op == "count":
        return float(facts["count"])
    if op == "sum":
        return facts["sum"]
    if op == "avg":
        return facts["sum"] / facts["count"] if facts["count"] else 0.0
    if op == "min":
        return facts["min"]
    if op == "max":
        return facts["max"]
    if op == "rate":
        return _rate(facts["first"], facts["last"])
    return _percentile(facts["values"], quantile)


def _combined(op: str, quantile: float,
              per_series: list[dict[str, Any]]) -> dict[str, Any] | None:
    """One aggregate across every matched series (not just the page)."""
    if not per_series:
        return None
    count = sum(f["count"] for f in per_series)
    if op == "count":
        value = float(count)
    elif op == "sum":
        value = math.fsum(f["sum"] for f in per_series)
    elif op == "avg":
        total = math.fsum(f["sum"] for f in per_series)
        value = total / count if count else 0.0
    elif op == "min":
        value = min((f["min"] for f in per_series if f["count"]),
                    default=0.0)
    elif op == "max":
        value = max((f["max"] for f in per_series if f["count"]),
                    default=0.0)
    elif op == "rate":
        value = math.fsum(_rate(f["first"], f["last"]) for f in per_series)
    else:
        pooled: list[float] = []
        for f in per_series:
            pooled.extend(f["values"])
        value = _percentile(pooled, quantile)
    return {"op": op, "value": value, "count": count}


@raises(QueryError)
def normalize_request(request: dict[str, Any], *, now: float) -> dict[str, Any]:
    """Validate and fill in a raw query request dict."""
    mapping(request, "$")
    metric = string(request.get("metric"), "$.metric")
    selector = labels(request.get("selector") or {}, "$.selector")
    agg = request.get("agg")
    if agg is not None:
        one_of(agg, "$.agg", AGGREGATIONS)
    quantile = None
    if agg == "quantile":
        quantile = float(number(request.get("quantile"), "$.quantile"))
        require(0.0 <= quantile <= 100.0, "$.quantile",
                "must be a number in [0, 100]")
    tier = one_of(request.get("tier", "auto"), "$.tier", ("auto",) + TIERS)
    page = positive_int(request.get("page", 1), "$.page")
    page_size = positive_int(request.get("page_size", DEFAULT_PAGE_SIZE),
                             "$.page_size")
    start = number(request.get("start", 0.0), "$.start")
    end = number(request.get("end", now), "$.end")
    require(end >= start, "$.end", "must be >= start")
    max_points = positive_int(request.get("max_points", DEFAULT_MAX_POINTS),
                              "$.max_points")
    return {"metric": metric, "selector": dict(selector),
            "start": float(start), "end": float(end), "agg": agg,
            "quantile": quantile, "tier": tier, "page": page,
            "page_size": page_size, "max_points": max_points}


def run_query(store, request: dict[str, Any], *, now: float) -> dict[str, Any]:
    """Answer one range query with a validated ``query_result`` document."""
    req = normalize_request(request, now=now)
    matched = store.match(req["metric"], req["selector"])
    if req["tier"] == "auto":
        tier = "raw"
        for series in matched:
            picked = series.pick_tier(req["start"])
            if TIERS.index(picked) > TIERS.index(tier):
                tier = picked
    else:
        tier = req["tier"]

    per_series_facts = []
    rendered = []
    for series in matched:
        window = _window(series, tier, req["start"], req["end"])
        facts = _facts(window, tier)
        per_series_facts.append(facts)
        if tier == "raw":
            points = [[t, v] for t, v in window]
        else:
            points = [[b["end"], b["sum"] / b["count"]] for b in window]
        truncated = len(points) > req["max_points"]
        if truncated:
            points = points[-req["max_points"]:]
        entry = {"name": series.name, "labels": dict(series.labels),
                 "points": points, "truncated": truncated,
                 "aggregate": None}
        if req["agg"] is not None:
            entry["aggregate"] = {
                "op": req["agg"],
                "value": _aggregate(req["agg"], req["quantile"] or 0.0,
                                    facts),
                "count": facts["count"]}
        rendered.append(entry)

    pages = max(1, math.ceil(len(rendered) / req["page_size"]))
    page = min(req["page"], pages)
    lo = (page - 1) * req["page_size"]
    page_entries = rendered[lo:lo + req["page_size"]]

    combined = None
    if req["agg"] is not None:
        combined = _combined(req["agg"], req["quantile"] or 0.0,
                             per_series_facts)

    query_echo = {key: req[key] for key in
                  ("metric", "selector", "start", "end", "agg",
                   "quantile", "tier", "page", "page_size")}
    payload = {"schema": "repro.observatory/v1", "kind": "query_result",
               "time": now, "query": query_echo, "tier": tier,
               "total_series": len(rendered), "page": page,
               "pages": pages, "series": page_entries,
               "aggregate": combined}
    validate_query_result(payload)
    return payload
