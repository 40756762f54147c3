#!/usr/bin/env python
"""Validate the committed benchmark comparison documents.

Checks every ``BENCH_*.json`` at the repo root (and the smoke-mode
documents under ``benchmarks/out/``, when present) against the
``repro.bench/v1`` schema, and re-checks the floors each document
exists to witness:

* stepping-mode documents (``BENCH_tperf_ntcp.json``) — pipelined
  stepping >= 1.5x aggregate steps/s over sequential, ensembles >= half
  their variant count in aggregate variant-steps/s, committed histories
  bit-exact;
* fleet documents (``BENCH_tfleet.json``) — every experiment completed,
  zero duplicate executes, fairness ratio within its bound, histories
  bit-exact against solo runs, the unauthorized call rejected, and (for
  the committed document) >= 100 experiments over <= 8 shared sites;
* observatory documents (``BENCH_tobs.json``) — observed median step
  time within its bound of the unobserved run, every checked rollup
  bucket consistent with its raw points, query + postmortem documents
  identical across repeated campaigns, and the seeded abort's flight
  snapshot naming the faulted site and step;
* durable-queue documents (``BENCH_tqueue.json``) — every submission
  completed despite the scheduler crashes, zero duplicate executes and
  zero stale-epoch accepts, at least one fencing refusal per crash
  epoch, the resubmitted id deduped, histories bit-exact against the
  uncrashed campaign, and (for the committed document) >= 60
  submissions surviving >= 3 crashes.

A document that breaks its schema or a floor is reported on stderr and
the script exits 1.

Run:  python scripts/validate_bench.py   (or ``make validate-bench``)
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry.schema import validate_bench_payload  # noqa: E402
from repro.util.schema import SchemaError  # noqa: E402


class FloorError(Exception):
    """A benchmark document misses a floor it exists to witness."""


def floor(condition: bool, message: str) -> None:
    if not condition:
        raise FloorError(message)


def stepping_floors(payload: dict, committed: bool) -> None:
    speed = payload["speedups"]
    floor(payload["bit_exact"]["pipelined"], "pipelined not bit-exact")
    floor(payload["bit_exact"]["ensemble_base_variant"],
          "ensemble base variant not bit-exact")
    floor(speed["pipelined_aggregate_steps_per_s"] >= 1.5,
          "pipelined speedup below 1.5x")
    minimum = payload["config"]["n_variants"] / 2.0
    if committed:
        minimum = max(minimum, 4.0)
    floor(speed["ensemble_aggregate_variant_steps_per_s"] >= minimum,
          f"ensemble speedup below {minimum}x")


def fleet_floors(payload: dict, committed: bool) -> None:
    config = payload["config"]
    fleet = payload["fleet"]
    floor(fleet["completed"] == config["n_experiments"],
          "not every experiment completed")
    floor(fleet["duplicate_executes"] == 0,
          "duplicate executes on shared sites")
    floor(payload["fairness"]["within_bound"],
          "fairness ratio exceeds its bound")
    floor(payload["bit_exact"]["solo_vs_fleet"],
          "fleet histories not bit-exact vs solo runs")
    floor(payload["security"]["unauthorized_rejected"],
          "unauthorized call was not rejected")
    if committed:
        floor(config["n_experiments"] >= 100,
              "committed fleet document needs >= 100 experiments")
        floor(config["n_sites"] <= 8,
              "committed fleet document needs <= 8 shared sites")


def obs_floors(payload: dict, committed: bool) -> None:
    overhead = payload["overhead"]
    floor(overhead["within_bound"], "observatory overhead exceeds its bound")
    floor(abs(overhead["overhead_fraction"]) <= overhead["bound"],
          "overhead_fraction disagrees with within_bound")
    floor(payload["rollups"]["consistent"],
          "rollup buckets disagree with their raw points")
    floor(payload["determinism"]["query_identical"],
          "query documents not identical across campaigns")
    floor(payload["determinism"]["postmortem_identical"],
          "postmortems not identical across campaigns")
    flight = payload["flight"]
    floor(flight["timeline_names_site_and_step"],
          "postmortem does not name the faulted site and step")
    if committed:
        floor(payload["rollups"]["series_checked"] >= 1,
              "committed observatory document checked no rollups")


def queue_floors(payload: dict, committed: bool) -> None:
    config = payload["config"]
    campaign = payload["campaign"]
    fencing = payload["fencing"]
    exact = payload["exactness"]
    floor(campaign["completed"] == config["n_submissions"],
          "not every submission completed")
    floor(campaign["outstanding"] == 0,
          "submissions left outstanding after the campaign")
    floor(exact["duplicate_executes"] == 0,
          "duplicate executes under redelivery")
    floor(fencing["stale_accepts"] == 0, "a stale-epoch write was accepted")
    floor(fencing["every_crash_epoch_refused"],
          "a crash epoch produced no fencing refusal")
    for epoch in range(1, len(config["crash_times"]) + 1):
        floor(fencing["refusals_by_epoch"].get(str(epoch), 0) >= 1,
              f"crash epoch {epoch} has no recorded refusal")
    floor(exact["resubmit_deduped"], "resubmitted id was not deduped")
    floor(exact["bit_exact_vs_uncrashed"],
          "recovered histories differ from the uncrashed run")
    if committed:
        floor(config["n_submissions"] >= 60,
              "committed queue document needs >= 60 submissions")
        floor(len(config["crash_times"]) >= 3,
              "committed queue document needs >= 3 crashes")


#: ``$.experiment`` -> the floors its documents must meet
FLOORS = {"tperf_ntcp": stepping_floors, "tfleet": fleet_floors,
          "tobs": obs_floors, "tqueue": queue_floors}


def check(path: pathlib.Path, *, committed: bool) -> None:
    """Validate one document and check its floors."""
    payload = json.loads(path.read_text())
    validate_bench_payload(payload)
    FLOORS[payload["experiment"]](payload, committed)


def main() -> int:
    committed = sorted(ROOT.glob("BENCH_*.json"))
    if not committed:
        print("no BENCH_*.json documents at the repo root", file=sys.stderr)
        return 1
    documents = [(path, True) for path in committed]
    for name in FLOORS:
        smoke = ROOT / "benchmarks" / "out" / f"BENCH_{name}.smoke.json"
        if smoke.exists():
            documents.append((smoke, False))
    print("validating benchmark documents (repro.bench/v1):")
    failed = 0
    for path, is_committed in documents:
        shown = path.relative_to(ROOT)
        try:
            check(path, committed=is_committed)
        except (ValueError, SchemaError, FloorError) as exc:
            print(f"  {shown}: FAILED: {exc}", file=sys.stderr)
            failed += 1
        else:
            print(f"  {shown}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
