"""The benchmark's workloads, their seeds, and their output checks.

Every workload is a closed loop: each coordinator waits for its step's
replies before it commits and issues the next step.  A workload is run
as *repetitions*; one repetition builds everything it needs from scratch
(deployment or grid), runs to completion, and returns a :class:`Rep`
with host-clock timings, sim-clock step records, the history digest,
the program's own counters, and the failures of its output checks.

Host times are process CPU seconds read from the workload's
:class:`~hostclock.HostClock`: every workload runs single-threaded in one
process, so CPU time is the host cost, without the time the process sat
descheduled on a shared machine.  The clock also times its reference
loop between commits, so that :mod:`metrics` can scale the CPU time to
reference machine speed.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro import ExperimentSession, MOSTConfig
from repro.chaos import make_scheduler_crash_plan
from repro.coordinator import SimulationCoordinator
from repro.fleet import SitePool, TenantRegistry, build_fleet_grid
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    QueueSubmission,
    attach_durable_repository,
    run_durable_campaign,
)

from hostclock import HostClock

#: ``--seed 0`` runs the paper's seeds; every other seed offsets them all.
PAPER_SEED = 0
#: Never used while tuning the benchmark; confirms a later claim.
HELD_OUT_SEED = 4099


@dataclasses.dataclass(frozen=True)
class Seeds:
    """Every random stream a workload draws from, derived from one seed."""

    motion: int
    network: int
    sites: dict
    crash: int

    @classmethod
    def from_workload_seed(cls, seed: int) -> "Seeds":
        """Offset the paper's seeds (2003, 730, 11/12/13; crash plan 11)."""
        return cls(motion=2003 + seed, network=730 + seed,
                   sites={"uiuc": 11 + seed, "cu": 12 + seed,
                          "daq": 13 + seed},
                   crash=11 + seed)

    def most_config(self, n_steps: int | None = None) -> MOSTConfig:
        config = MOSTConfig(motion_seed=self.motion,
                            network_seed=self.network, seeds=dict(self.sites))
        return config if n_steps is None else config.scaled(n_steps)


class SetupDone(BaseException):
    """Raised at the first commit of a set-up probe to end the run there.

    A ``BaseException`` so that no handler in the program absorbs it.
    """


class CommitClock:
    """Host time of every commit made by a coordinator's own integrator.

    Patches :class:`SimulationCoordinator` construction while active, so
    each coordinator's integrator reports its commits.  The pipelined
    coordinator's shadow integrator (speculation only) is not timed.
    After a commit is timed, the host clock may run its reference loop.
    """

    def __init__(self, host: HostClock, *, stop_at_first: bool = False):
        self.host = host
        self.stop_at_first = stop_at_first
        self.times: list[float] = []
        self._original = None

    def __enter__(self) -> "CommitClock":
        original = self._original = SimulationCoordinator.__dict__["__init__"]
        clock = self

        def __init__(coordinator, *args, **kwargs):
            original(coordinator, *args, **kwargs)
            commit = coordinator.integrator.commit

            def timed_commit(*commit_args, **commit_kwargs):
                result = commit(*commit_args, **commit_kwargs)
                clock.times.append(clock.host.now())
                if clock.stop_at_first:
                    raise SetupDone
                clock.host.tick()
                return result

            coordinator.integrator.commit = timed_commit

        SimulationCoordinator.__init__ = __init__
        return self

    def __exit__(self, *exc_info) -> None:
        SimulationCoordinator.__init__ = self._original


@dataclasses.dataclass
class Rep:
    """One repetition of a workload."""

    started: float            # host CPU s (HostClock.now) at the start
    finished: float           # ... and at the end
    commit_times: list        # host CPU s of every coordinator commit
    target_steps: int
    committed_steps: int
    sim_step_s: list          # StepRecord.wall_duration of committed steps
    sim_span_s: float         # sim s the committed steps took end to end
    digest: str
    counts: dict              # read from the program's own counters
    failures: list            # output checks that failed

    @property
    def host_s(self) -> float:
        """Host CPU seconds, start to finish, at the machine's own speed."""
        return self.finished - self.started

    @property
    def failed_steps(self) -> int:
        """Target steps not committed, or all of them if a check failed."""
        if self.failures:
            return self.target_steps
        return self.target_steps - self.committed_steps


def history_digest(histories) -> str:
    """SHA-256 over displacement histories, in a fixed order."""
    sha = hashlib.sha256()
    for key in sorted(histories):
        sha.update(key.encode())
        sha.update(np.ascontiguousarray(histories[key]).tobytes())
    return sha.hexdigest()


def _sum_counters(hub, name: str) -> int:
    """A counter's total over every label set."""
    return int(sum(m.value for m in hub.registry
                   if m.name == name and m.kind == "counter"))


def _histogram(hub, name: str):
    for metric in hub.registry:
        if metric.name == name and metric.kind == "histogram":
            return metric
    return None


def _hub_counts(hub, log) -> dict:
    """Work the program counted itself, for counts per committed step."""
    return {
        "sim.events": _sum_counters(hub, "sim.kernel.events"),
        "net.messages": _sum_counters(hub, "net.network.sent"),
        "net.rpc_retries": _sum_counters(hub, "net.rpc.retries"),
        "telemetry.spans": len(hub.tracer.finished),
        "core.proposals": _sum_counters(hub, "core.server.proposed"),
        "core.executes": _sum_counters(hub, "core.server.executed"),
        # cancel requests; a server refuses to cancel what already executed
        "core.cancels": len(hub.tracer.spans("core.client.cancel")),
        "core.duplicate_executes": _sum_counters(
            hub, "core.server.duplicate_executes"),
        "coordinator.speculated": _sum_counters(
            hub, "coordinator.pipeline.speculated"),
        "coordinator.hits": _sum_counters(hub, "coordinator.pipeline.hits"),
        "coordinator.mispredicts": _sum_counters(
            hub, "coordinator.pipeline.mispredicts"),
        "monitor.samples": _sum_counters(hub, "monitor.console.samples"),
        "observatory.appends": _sum_counters(hub,
                                             "observatory.store.appends"),
        "nsds.ingested": _sum_counters(hub, "nsds.stream.ingested"),
        "daq.files_staged": log.count(kind="block.deposited"),
        "util.log_records": log.count(),
        "fleet.leases": _sum_counters(hub, "fleet.pool.leases_granted"),
    }


# ---------------------------------------------------------------------------
# MOST workloads
# ---------------------------------------------------------------------------

class MOSTWorkload:
    """The MOST record through :class:`ExperimentSession`, in one mode."""

    def __init__(self, mode: str, seeds: Seeds, n_steps: int):
        if mode not in ("record", "observed", "pipelined"):
            raise ValueError(f"unknown MOST mode {mode!r}")
        self.mode = mode
        self.seeds = seeds
        self.n_steps = n_steps
        self.reference_digest: str | None = None
        self.clock = HostClock()

    def _session(self) -> ExperimentSession:
        session = ExperimentSession(self.seeds.most_config(self.n_steps),
                                    run_id="perfbench-most")
        if self.mode == "observed":
            session.with_observatory()
        elif self.mode == "pipelined":
            session.with_pipeline(1)
        return session

    def prepare(self) -> None:
        """Untimed: the bare record, the oracle ``most_observed`` must match."""
        if self.mode == "observed":
            bare = MOSTWorkload("record", self.seeds, self.n_steps)
            self.reference_digest = bare.run().digest

    def setup_probe(self) -> tuple[float, float]:
        """Host CPU seconds at the start and at the first committed step."""
        with CommitClock(self.clock, stop_at_first=True) as clock:
            started = self.clock.now()
            try:
                self._session().run()
            except SetupDone:
                pass
        return started, clock.times[0]

    def run(self) -> Rep:
        with CommitClock(self.clock) as clock:
            started = self.clock.now()
            outcome = self._session().run()
            finished = self.clock.now()
        result = outcome.result
        kernel = outcome.deployment.kernel
        counts = _hub_counts(kernel.telemetry, kernel.log)
        if outcome.observatory is not None:
            counts["observatory.series"] = len(outcome.observatory.store.series())
        digest = history_digest({"most": result.displacement_history()})
        failures = []
        if not result.completed or result.steps_completed != result.target_steps:
            failures.append(f"committed {result.steps_completed} of "
                            f"{result.target_steps} steps")
        if counts["core.duplicate_executes"]:
            failures.append(f"{counts['core.duplicate_executes']} duplicate "
                            "executes")
        if (self.reference_digest is not None
                and digest != self.reference_digest):
            failures.append("history differs from most_record, same seed")
        return Rep(
            started=started, finished=finished, commit_times=clock.times,
            target_steps=result.target_steps,
            committed_steps=result.steps_completed,
            sim_step_s=[r.wall_duration for r in result.steps],
            sim_span_s=result.wall_finished - result.wall_started,
            digest=digest, counts=counts, failures=failures)


# ---------------------------------------------------------------------------
# The durable queue campaign
# ---------------------------------------------------------------------------

class CampaignWorkload:
    """The T-QUEUE shape through :func:`run_durable_campaign`: 12 tenants
    x 5 submissions over 8 sites, checkpoint every 5 steps, 3 seeded
    scheduler kills, on the repository-backed journal."""

    TENANTS, RUNS_PER_TENANT, SITES = 12, 5, 8
    CHECKPOINT_EVERY, CRASHES, TAKEOVER_DELAY = 5, 3, 25.0

    def __init__(self, seeds: Seeds, n_steps: int = 20):
        self.seeds = seeds
        self.submissions = []
        for i in range(self.TENANTS):
            tenant = f"t{i:02d}"
            scale = 0.75 + 0.5 * i / (self.TENANTS - 1)
            for run in range(self.RUNS_PER_TENANT):
                self.submissions.append(QueueSubmission(
                    submission_id=f"{tenant}-r{run}", tenant=tenant,
                    n_steps=n_steps, n_sites=1, motion_scale=scale,
                    checkpoint_every=self.CHECKPOINT_EVERY))
        self.reference: dict | None = None
        self.crash_times: tuple = ()
        self.clock = HostClock()

    def _campaign(self, *, durable: bool, crash_times=()):
        config = self.seeds.most_config()
        grid = build_fleet_grid(self.SITES, config=config)
        for link in grid.network.links():
            # MOST's WAN jitter, drawn from the seeded network stream: the
            # fleet grid is jitter-free, which would leave every sim-clock
            # step time independent of the seed.  Simulated sites compute
            # forces from displacement alone, so histories do not change.
            link.jitter = config.jitter
        pool = SitePool(grid.kernel, grid.sites.values())
        registry = TenantRegistry(grid)
        store = (attach_durable_repository(grid, name="perfbench")
                 if durable else InMemoryJournalStore())
        queue = ExperimentQueue(grid.kernel, store,
                                FencingAuthority(grid.kernel))
        result = run_durable_campaign(
            grid, pool, registry, queue, self.submissions,
            crash_after=tuple(crash_times),
            takeover_delay=self.TAKEOVER_DELAY)
        return result, store, grid.kernel

    def prepare(self) -> None:
        """Untimed: the uncrashed campaign is the history oracle, and its
        duration bounds the seeded crash window (as in T-QUEUE)."""
        baseline, _, _ = self._campaign(durable=False)
        self.reference = baseline.histories()
        duration = baseline.summary()["duration"]
        self.crash_times = make_scheduler_crash_plan(
            self.seeds.crash, n_crashes=self.CRASHES,
            window=(0.03 * duration, 0.10 * duration))

    def setup_probe(self) -> tuple[float, float]:
        with CommitClock(self.clock, stop_at_first=True) as clock:
            started = self.clock.now()
            try:
                self._campaign(durable=True, crash_times=self.crash_times)
            except SetupDone:
                pass
        return started, clock.times[0]

    def run(self) -> Rep:
        with CommitClock(self.clock) as clock:
            started = self.clock.now()
            result, store, kernel = self._campaign(
                durable=True, crash_times=self.crash_times)
            finished = self.clock.now()
        summary = result.summary()
        final = {}
        for outcome in result.outcomes:
            if outcome.completed:
                final[outcome.run_id] = outcome.result
        target = sum(s.n_steps - 1 for s in self.submissions)
        committed = sum(r.steps_completed for r in final.values())
        histories = result.histories()
        counts = _hub_counts(kernel.telemetry, kernel.log)
        lease_wait = _histogram(kernel.telemetry, "fleet.pool.lease_wait")
        counts.update({
            "queue.journal_appends": store.appended,
            "queue.redeliveries": summary["redeliveries"],
            "queue.refusals": summary["refusals"],
            "queue.stale_accepts": summary["stale_accepts"],
            "fleet.lease_wait_s.p50": (lease_wait.percentile(50)
                                       if lease_wait and lease_wait.count
                                       else 0.0),
        })
        failures = []
        n = len(self.submissions)
        if summary["completed"] != n or summary["outstanding"]:
            failures.append(f"{summary['completed']} of {n} submissions "
                            "completed")
        if summary["stale_accepts"]:
            failures.append(f"{summary['stale_accepts']} stale accepts")
        if summary["duplicate_executes"]:
            failures.append(f"{summary['duplicate_executes']} duplicate "
                            "executes")
        if self.reference is not None:
            differ = [run_id for run_id, ref in self.reference.items()
                      if not np.array_equal(histories.get(run_id), ref)]
            if differ:
                failures.append(f"{len(differ)} histories differ from the "
                                "uncrashed reference")
        return Rep(
            started=started, finished=finished, commit_times=clock.times,
            target_steps=target, committed_steps=committed,
            sim_step_s=[rec.wall_duration for r in final.values()
                        for rec in r.steps],
            sim_span_s=summary["duration"],
            digest=history_digest(histories), counts=counts,
            failures=failures)


#: name -> (why, factory(seeds, n_steps))
WORKLOADS = {
    "most_record": (
        "the full MOST record, sequential, unobserved: the paper's "
        "traffic and the baseline every other mode is compared with",
        lambda seeds, n_steps: MOSTWorkload("record", seeds, n_steps)),
    "most_observed": (
        "the same record with the observatory: telemetry, monitor and "
        "observatory do most of the work, growing with record length",
        lambda seeds, n_steps: MOSTWorkload("observed", seeds, n_steps)),
    "most_pipelined": (
        "the same record with depth-1 speculation on physical sites: every "
        "speculation mispredicts, so cancels and renames load core",
        lambda seeds, n_steps: MOSTWorkload("pipelined", seeds, n_steps)),
    "queue_campaign": (
        "60 short experiments over 8 sites through 3 scheduler kills: the "
        "only load on fleet, queue, gsi and the repository write path",
        lambda seeds, n_steps: CampaignWorkload(seeds, min(n_steps, 20))),
}
