"""The telemetry hub: one registry + tracer + pluggable sinks per run.

Every :class:`~repro.sim.kernel.Kernel` owns a hub wired to the simulation
clock, so all layers reach telemetry as ``kernel.telemetry`` without extra
plumbing.  Sinks observe finished spans as they close; the in-memory sink
is what tests assert against, the JSONL sink streams records for offline
analysis (``benchmarks/out/``).  :meth:`TelemetryHub.export_jsonl` writes
the whole run — metrics snapshot plus trace — in one pass.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.schema import SCHEMA_ID, validate_metrics_payload
from repro.telemetry.spans import Span, TraceContext, Tracer
from repro.util.schema import SchemaError, mapping, parse_json


class InMemorySink:
    """Collects finished spans in a list (the default test sink)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)


class JsonlSink:
    """Streams each finished span as one JSON line to a file."""

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def on_span(self, span: Span) -> None:
        record = {"kind": "span", **span.to_dict()}
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class ScopedTelemetry:
    """A label-scoped view of a hub: same registry, fixed extra labels.

    Returned by :meth:`TelemetryHub.scoped`.  Instruments created through
    the view carry the scope's labels in addition to any call-site labels
    — this is how concurrent runs multiplexed on one kernel (fleet
    tenants, parallel sessions) keep their metric series apart.  On a key
    collision the scope's label wins, so a scoped component can never
    accidentally shed its namespace.  Spans and exports pass through to
    the underlying hub unchanged.
    """

    def __init__(self, hub: "TelemetryHub", labels: dict[str, str]):
        self.hub = hub
        self.labels = dict(labels)

    @property
    def registry(self) -> MetricRegistry:
        """The underlying (shared) metric registry."""
        return self.hub.registry

    @property
    def tracer(self) -> Any:
        """The underlying (shared) tracer."""
        return self.hub.tracer

    def counter(self, name: str, **labels: Any) -> Counter:
        """A counter carrying the scope's labels plus ``labels``."""
        return self.hub.counter(name, **{**labels, **self.labels})

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """A gauge carrying the scope's labels plus ``labels``."""
        return self.hub.gauge(name, **{**labels, **self.labels})

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """A histogram carrying the scope's labels plus ``labels``."""
        return self.hub.histogram(name, **{**labels, **self.labels})

    def start_span(self, name: str, **kwargs: Any) -> Span:
        """Shorthand for the underlying hub's ``start_span``."""
        return self.hub.start_span(name, **kwargs)

    def scoped(self, **labels: Any) -> "ScopedTelemetry":
        """A further-narrowed view (existing scope labels still win)."""
        return ScopedTelemetry(self.hub, {**labels, **self.labels})


class TelemetryHub:
    """The one observability surface of a run.

    Args:
        clock: returns the current time for spans/metrics; the kernel
            injects its simulation clock, standalone use defaults to
            :func:`time.monotonic`.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.monotonic
        self.registry = MetricRegistry()
        self.tracer = Tracer(self._clock, on_finish=self._span_finished)
        self._sinks: list[Any] = []

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(name, **labels)

    def scoped(self, **labels: Any) -> ScopedTelemetry:
        """A view of this hub whose instruments all carry ``labels``.

        Concurrently constructed deployments sharing one kernel must each
        take a scope (e.g. ``hub.scoped(tenant="t03")``) so their metric
        series cannot collide in the shared registry.
        """
        return ScopedTelemetry(self, labels)

    # -- spans ---------------------------------------------------------------
    def start_span(self, name: str, **kwargs: Any) -> Span:
        """Shorthand for ``hub.tracer.start_span``."""
        return self.tracer.start_span(name, **kwargs)

    def spans(self, name: str | None = None, *,
              trace_id: str | None = None) -> list[Span]:
        return self.tracer.spans(name, trace_id=trace_id)

    def _span_finished(self, span: Span) -> None:
        for sink in self._sinks:
            sink.on_span(span)

    # -- sinks ---------------------------------------------------------------
    def add_sink(self, sink: Any) -> Any:
        """Register an object with ``on_span(span)``; returns it."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        self._sinks.remove(sink)

    # -- export --------------------------------------------------------------
    def metrics_snapshot(self) -> list[dict[str, Any]]:
        return self.registry.snapshot()

    def metrics_payload(self, experiment: str) -> dict[str, Any]:
        """A schema-valid metrics document for one experiment."""
        payload = {
            "schema": SCHEMA_ID,
            "experiment": experiment,
            "metrics": self.metrics_snapshot(),
        }
        validate_metrics_payload(payload)
        return payload

    def export_jsonl(self, path: str | pathlib.Path, *,
                     experiment: str = "run") -> pathlib.Path:
        """Write the whole run as JSONL: one meta line, then metrics, then spans."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The line discriminator is "kind", NOT "type": metric records
        # carry their own "type" field (counter/gauge/histogram).
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "schema": SCHEMA_ID,
                                 "experiment": experiment}) + "\n")
            for record in self.metrics_snapshot():
                fh.write(json.dumps({"kind": "metric", **record}) + "\n")
            for span in self.tracer.finished:
                fh.write(json.dumps({"kind": "span", **span.to_dict()}) + "\n")
        return path

    @staticmethod
    def load_jsonl(path: str | pathlib.Path) -> dict[str, Any]:
        """Parse an export back into ``{"meta", "metrics", "spans"}``.

        Raises :class:`SchemaError` for a line that is not a JSON object.
        """
        meta: dict[str, Any] = {}
        metrics: list[dict[str, Any]] = []
        spans: list[dict[str, Any]] = []
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            record = mapping(parse_json(line, SchemaError, where), where)
            kind = record.pop("kind", None)
            if kind == "meta":
                meta = record
            elif kind == "metric":
                metrics.append(record)
            elif kind == "span":
                spans.append(record)
        return {"meta": meta, "metrics": metrics, "spans": spans}
