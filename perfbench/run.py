"""Two-clock MOST benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload most_record --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it sets
up several times (median set-up time), then repeats the workload until
``--seconds`` of host CPU time have passed (at least twice); host times
are scaled to reference machine speed (``hostclock``).  ``--trace
1`` runs the workload once untraced and once under the layer tracer,
and reports the per-layer metrics plus the tracing overhead.  Both
modes check the outputs, print a deterministic-count section, and end
with one JSON line: ``correct``, ``attempted`` and ``failed`` target
steps, and ``metrics``.  See ``perfbench/BENCHMARK.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
from time import process_time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # one thread: host CPU = host work

from metrics import (  # noqa: E402  (after the thread settings)
    END_TO_END,
    PER_LAYER,
    Probes,
    count_section,
    end_to_end,
    per_layer,
)
from hostclock import HostClock  # noqa: E402
from tracer import LayerTracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: every timed section repeats at least this often (the digest check)
MIN_REPS = 2
#: set-up probes per round, after one discarded warm-up probe
SETUP_ROUND = 5
#: the full MOST record (the campaign's experiments are 20 steps each)
FULL_RECORD = 1500


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 runs the paper's seeds")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host CPU seconds to measure (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=FULL_RECORD,
                        help="record length (shorter only for tests)")
    return parser.parse_args(argv)


def check_reps(reps) -> None:
    """Repetitions of one seed must agree on history and counts."""
    first = count_section(reps[0])
    for rep in reps[1:]:
        if rep.digest != reps[0].digest:
            rep.failures.append("history digest differs between runs of "
                                "the same seed")
        elif count_section(rep) != first:
            rep.failures.append("counts differ between runs of the same seed")


def measure(workload, seconds: float):
    """Repetitions for ``seconds`` of host CPU time, with rounds of set-up
    probes before the first and after every repetition, so that the
    set-up samples span the run rather than one moment of it."""
    workload.prepare()
    workload.setup_probe()      # warm-up: lazy imports and first-use costs
    setups: list[float] = []
    reps = []

    def probe_round():
        for _ in range(SETUP_ROUND):
            gc.collect()
            workload.clock.calibrate()
            setups.append(workload.setup_probe())
        workload.clock.calibrate()

    probe_round()
    started = process_time()
    while len(reps) < MIN_REPS or process_time() - started < seconds:
        gc.collect()
        reps.append(workload.run())
        probe_round()
    return reps, setups


def traced(workload, name: str, seed: int):
    """One untraced and one traced repetition; per-layer metrics.

    Host times here are raw CPU time: no reference loop runs between the
    commits, so the tracer times the program alone."""
    workload.clock = HostClock(every_s=None)
    workload.prepare()
    gc.collect()
    untraced = workload.run()
    gc.collect()
    probes = Probes()
    with LayerTracer(probes.table()) as tracer:
        rep = workload.run()
    check_reps([untraced, rep])
    layer_sum = sum(tracer.layer_self_s().values())
    if abs(layer_sum - tracer.total_s) > 1e-6 * max(tracer.total_s, 1.0):
        rep.failures.append(f"layer self times sum to {layer_sum:.6f} s, "
                            f"traced host time is {tracer.total_s:.6f} s")
    OUT.mkdir(exist_ok=True)
    table = sorted(((key, *stats) for key, stats in tracer.stats.items()),
                   key=lambda row: -row[2])
    (OUT / f"{name}-seed{seed}.trace.json").write_text(json.dumps({
        "workload": name, "seed": seed, "steps": rep.committed_steps,
        "traced_host_s": tracer.total_s, "untraced_host_s": untraced.host_s,
        "functions": [{"key": key, "layer": tracer.layer_of_key[key],
                       "calls": calls, "self_s": self_s, "inclusive_s": incl}
                      for key, calls, self_s, incl in table]}, indent=1))
    return [untraced, rep], per_layer(tracer, probes, rep, untraced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Seeds

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    why, factory = WORKLOADS[args.workload]
    workload = factory(Seeds.from_workload_seed(args.seed), args.steps)
    print(f"workload {args.workload} (seed {args.seed}): {why}")

    if args.trace:
        reps, values = traced(workload, args.workload, args.seed)
        units = PER_LAYER
        for name, value in values.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
    else:
        reps, setups = measure(workload, args.seconds)
        check_reps(reps)
        values, samples = end_to_end(reps, setups, workload.clock)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        for name, value in values.items():
            clock = END_TO_END[name][3]
            print(f"  {name:20s} {value:14.6g} {units[name]:4s} "
                  f"[{clock} clock, {samples[name]} samples]")
        print(f"  machine speed {workload.clock.speed():.4f} x reference "
              f"({len(workload.clock.ref_s)} reference loops); host clock "
              "values above are at reference speed")

    attempted = sum(rep.target_steps for rep in reps)
    failed = sum(rep.failed_steps for rep in reps)
    print(f"  {'failed_step_ratio':20s} {failed / attempted:14.6g} ratio "
          f"[{failed} of {attempted} target steps]")
    for rep in reps:
        for failure in rep.failures:
            print(f"  CHECK FAILED: {failure}")
    print("counts " + json.dumps(count_section(reps[0]), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
