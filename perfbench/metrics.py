"""Metric definitions and their computation from repetitions and traces.

Each metric names its clock: *host* metrics are process CPU time of the
reproduction, at reference machine speed (:mod:`hostclock`); *sim*
metrics are simulated time the experiment would see.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from tracer import LAYERS, OTHER

#: name -> (unit, better, bound, clock); bounds are shares of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "host"),
    "host_steps_per_s": ("1/s", "higher", 0.25, "host"),
    "host_step_ms.p50": ("ms", "lower", 0.25, "host"),
    "host_step_ms.p95": ("ms", "lower", 0.25, "host"),
    "sim_steps_per_hour": ("1/h", "higher", 0.1, "sim"),
    "sim_step_s.p50": ("s", "lower", 0.02, "sim"),
    "sim_step_s.p99": ("s", "lower", 0.02, "sim"),
    "peak_rss_mb": ("MB", "lower", 0.1, "host"),
}

#: Per-layer metrics (traced run): "per step" means per committed step.
PER_LAYER = {
    "sim.events_per_step": "count",
    "sim.queue_peak": "count",
    "net.messages_per_step": "count",
    "net.drop_filter_evals_per_step": "count",
    "net.send_self_ms_per_step": "ms",
    "net.rpc_calls_per_step": "count",
    "net.rpc_retries": "count",
    "core.proposals_per_step": "count",
    "core.executes_per_step": "count",
    "core.cancels_per_step": "count",
    "core.duplicate_executes": "count",
    "ogsi.invokes_per_step": "count",
    "ogsi.notifications_per_step": "count",
    "control.plugin_calls_per_step": "count",
    "coordinator.spec_hit_ratio": "ratio",
    "coordinator.mispredicts": "count",
    "structural.commits_per_step": "count",
    "telemetry.spans_per_step": "count",
    "telemetry.metric_updates_per_step": "count",
    "util.log_records_retained": "count",
    "monitor.health_probes_per_step": "count",
    "monitor.health_probe_ms_per_step": "ms",
    "monitor.samples_ingested_per_step": "count",
    "schema.validations_per_sample": "count",
    "schema.validate_ms_per_step": "ms",
    "observatory.appends_per_step": "count",
    "observatory.series": "count",
    "nsds.samples_per_step": "count",
    "daq.files_staged": "count",
    "repository.writes": "count",
    "repository.bytes_written": "bytes",
    "repository.self_ms": "ms",
    "gsi.verifies_per_step": "count",
    "fleet.leases": "count",
    "fleet.lease_wait_s.p50": "s",
    "queue.journal_appends": "count",
    "queue.redeliveries": "count",
    "queue.refusals": "count",
    "queue.replay_ms": "ms",
    "queue.stale_accepts": "count",
    **{f"{layer}.self_ms_per_step": "ms" for layer in LAYERS + (OTHER,)},
    **{f"{layer}.calls_per_step": "count" for layer in LAYERS + (OTHER,)},
    "trace.host_ms_per_step": "ms",
    "trace.untraced_host_ms_per_step": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics where more is better; for every other one, less work
#: or less time is better.
PER_LAYER_HIGHER = ("coordinator.spec_hit_ratio",)

#: The deterministic-count section: exact counts per committed step.
COUNTED = ("sim.events", "net.messages", "telemetry.spans", "core.cancels")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: commits per window of the ``host_step_ms.p50`` samples
WINDOW = 10


def step_intervals_ms(reps, clock, window: int = 1) -> list[float]:
    """Host ms per step between commits ``window`` apart (non-overlapping
    windows), within each repetition, at reference speed."""
    out: list[float] = []
    for rep in reps:
        times = rep.commit_times[::window]
        out.extend(clock.span(a, b) * 1000.0 / window
                   for a, b in zip(times, times[1:]))
    return out


def end_to_end(reps, setups, clock) -> tuple[dict, dict]:
    """(values, sample counts) of every end-to-end metric.

    ``setups`` are (start, first commit) readings of ``clock``, which
    also took every reading in ``reps``.
    """
    intervals = step_intervals_ms(reps, clock)
    # Step intervals are bimodal under pipelining (a mode near 4 ms and
    # one near 6 ms), which leaves a median of single intervals jumping
    # between modes; a median over 10-step windows is the typical cost
    # per step without that.  The tail comes from single intervals; it is
    # p95, not p99, because in the campaign about 1% of the intervals hold
    # an experiment start or a recovery (tens of ms), so p99 falls in the
    # gap between those and ordinary commits and jumps from seed to seed.
    windows = step_intervals_ms(reps, clock, WINDOW)
    sim_steps = reps[0].sim_step_s
    values = {
        "setup_s": statistics.median(clock.span(*setup) for setup in setups),
        "host_steps_per_s": statistics.median(
            rep.committed_steps / clock.span(rep.started, rep.finished)
            for rep in reps),
        "host_step_ms.p50": statistics.median(windows),
        "host_step_ms.p95": float(np.percentile(intervals, 95)),
        "sim_steps_per_hour": statistics.median(
            rep.committed_steps / (rep.sim_span_s / 3600.0) for rep in reps),
        "sim_step_s.p50": float(np.percentile(sim_steps, 50)),
        "sim_step_s.p99": float(np.percentile(sim_steps, 99)),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_s": len(setups), "host_steps_per_s": len(reps),
        "host_step_ms.p50": len(windows), "host_step_ms.p95": len(intervals),
        "sim_steps_per_hour": len(reps), "sim_step_s.p50": len(sim_steps),
        "sim_step_s.p99": len(sim_steps), "peak_rss_mb": 1,
    }
    return values, samples


def count_section(rep) -> dict:
    """Exact per-step counts; byte-identical for the same code and seed."""
    steps = rep.committed_steps
    counts = rep.counts
    section = {"steps": steps, "digest": rep.digest}
    for name in COUNTED:
        section[name] = counts[name]
        section[f"{name}_per_step"] = counts[name] / steps
    section["coordinator.speculated"] = counts["coordinator.speculated"]
    section["coordinator.hits"] = counts["coordinator.hits"]
    section["coordinator.spec_hit_ratio"] = _ratio(
        counts["coordinator.hits"], counts["coordinator.speculated"])
    return section


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Probes:
    """Counts a call tally cannot give, collected on entry while tracing."""

    def __init__(self):
        self.queue_peak = 0
        self.drop_filter_evals = 0
        self.notifications = 0
        self.repository_writes = 0
        self.repository_bytes = 0

    def kernel_step(self, kernel, *args, **kwargs) -> None:
        self.queue_peak = max(self.queue_peak, len(kernel._queue))

    def network_send(self, network, src, dst, port, payload) -> None:
        if src != dst and frozenset((src, dst)) in network._links:
            # Network.send evaluates every drop filter of a routed message
            # (until one fires; none fires in these workloads)
            self.drop_filter_evals += len(network._drop_filters)
        if isinstance(payload, dict) and "subscription" in payload:
            self.notifications += 1     # an OGSI SDE change notification

    def transfer(self, transport, src_host, dst_host, file, *args,
                 **kwargs) -> None:
        self.repository_writes += 1
        self.repository_bytes += file.size

    def table(self) -> dict:
        return {"repro.sim.kernel.Kernel.step": self.kernel_step,
                "repro.net.network.Network.send": self.network_send,
                "repro.repository.transport.Transport.transfer":
                    self.transfer}


def per_layer(tracer, probes: Probes, rep, untraced) -> dict:
    """Every per-layer metric from one traced repetition."""
    steps = rep.committed_steps
    counts = rep.counts
    ms = 1000.0

    def per_step(value: float) -> float:
        return value / steps

    layer_self = tracer.layer_self_s()
    samples = counts["monitor.samples"]
    values = {
        "sim.events_per_step": per_step(counts["sim.events"]),
        "sim.queue_peak": probes.queue_peak,
        "net.messages_per_step": per_step(counts["net.messages"]),
        "net.drop_filter_evals_per_step": per_step(probes.drop_filter_evals),
        "net.send_self_ms_per_step": per_step(
            tracer.self_s("repro.net.network.Network.send") * ms),
        "net.rpc_calls_per_step": per_step(
            tracer.calls("repro.net.rpc.RpcClient.call")),
        "net.rpc_retries": counts["net.rpc_retries"],
        "core.proposals_per_step": per_step(counts["core.proposals"]),
        "core.executes_per_step": per_step(counts["core.executes"]),
        "core.cancels_per_step": per_step(counts["core.cancels"]),
        "core.duplicate_executes": counts["core.duplicate_executes"],
        "ogsi.invokes_per_step": per_step(tracer.calls(
            "repro.ogsi.container.ServiceContainer._op_invoke")),
        "ogsi.notifications_per_step": per_step(probes.notifications),
        "control.plugin_calls_per_step": per_step(sum(
            tracer.calls_where("control", name)
            for name in ("review", "execute", "cancel"))),
        "coordinator.spec_hit_ratio": _ratio(
            counts["coordinator.hits"], counts["coordinator.speculated"]),
        "coordinator.mispredicts": counts["coordinator.mispredicts"],
        "structural.commits_per_step": per_step(
            tracer.calls_where("structural", "commit")),
        "telemetry.spans_per_step": per_step(counts["telemetry.spans"]),
        "telemetry.metric_updates_per_step": per_step(sum(
            tracer.calls(f"repro.telemetry.metrics.{name}")
            for name in ("Counter.inc", "Gauge.set", "Gauge.add",
                         "Histogram.observe"))),
        "util.log_records_retained": counts["util.log_records"],
        "monitor.health_probes_per_step": per_step(tracer.calls(_PROBE)),
        "monitor.health_probe_ms_per_step": per_step(
            tracer.inclusive_s(_PROBE) * ms),
        "monitor.samples_ingested_per_step": per_step(samples),
        "schema.validations_per_sample": _ratio(
            tracer.calls(_VALIDATE), samples),
        "schema.validate_ms_per_step": per_step(
            tracer.inclusive_s(_VALIDATE) * ms),
        "observatory.appends_per_step": per_step(
            counts["observatory.appends"]),
        "observatory.series": counts.get("observatory.series", 0),
        "nsds.samples_per_step": per_step(counts["nsds.ingested"]),
        "daq.files_staged": counts["daq.files_staged"],
        "repository.writes": probes.repository_writes,
        "repository.bytes_written": probes.repository_bytes,
        "repository.self_ms": layer_self["repository"] * ms,
        "gsi.verifies_per_step": per_step(
            tracer.calls("repro.gsi.crypto.Crypto.verify")),
        "fleet.leases": counts["fleet.leases"],
        "fleet.lease_wait_s.p50": counts.get("fleet.lease_wait_s.p50", 0.0),
        "queue.journal_appends": counts.get("queue.journal_appends", 0),
        "queue.redeliveries": counts.get("queue.redeliveries", 0),
        "queue.refusals": counts.get("queue.refusals", 0),
        "queue.replay_ms": tracer.inclusive_s(
            "repro.queue.ingress.ExperimentQueue.recover") * ms,
        "queue.stale_accepts": counts.get("queue.stale_accepts", 0),
        "trace.host_ms_per_step": per_step(tracer.total_s * ms),
        "trace.untraced_host_ms_per_step": per_step(untraced.host_s * ms),
        "trace.overhead_ratio": tracer.total_s / untraced.host_s,
    }
    for layer in LAYERS + (OTHER,):
        values[f"{layer}.self_ms_per_step"] = per_step(layer_self[layer] * ms)
        values[f"{layer}.calls_per_step"] = per_step(tracer.entries[layer])
    if set(values) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: "
                           f"{sorted(set(values) ^ set(PER_LAYER))}")
    return values


_PROBE = "repro.monitor.health.ntcp_health_probe.<locals>.probe"
_VALIDATE = "repro.monitor.schema.validate_metrics_sample"
