"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Every workload runs at a tiny record length, so the whole file takes
well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostclock import NEIGHBOURS, NOMINAL_REF_S, HostClock  # noqa: E402
from metrics import END_TO_END, PER_LAYER, PER_LAYER_HIGHER  # noqa: E402
from tracer import MARKER, LayerTracer, load_program_modules  # noqa: E402
from workloads import WORKLOADS, MOSTWorkload, Seeds  # noqa: E402

TINY = 24     # at least two 10-step windows per repetition


def invoke(*argv) -> tuple[list[str], dict]:
    """Run the benchmark in-process; (output lines, final JSON object)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def counts_line(lines: list[str]) -> str:
    (line,) = [line for line in lines if line.startswith("counts ")]
    return line


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_completes_and_passes_checks(workload, trace):
    lines, result = invoke("--workload", workload, "--seed", "0",
                           "--seconds", "0", "--trace", trace,
                           "--steps", str(TINY))
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_are_identical_across_runs(workload):
    argv = ("--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", "0", "--steps", str(TINY))
    first, _ = invoke(*argv)
    second, _ = invoke(*argv)
    assert counts_line(first) == counts_line(second)


def test_traced_run_restores_every_wrapper():
    before = _entry_points()
    workload = MOSTWorkload("observed", Seeds.from_workload_seed(0), TINY)
    untraced = workload.run()
    with LayerTracer() as tracer:
        traced = workload.run()
    assert tracer.stats, "the traced run saw no calls"
    calls = {key: stats[0] for key, stats in tracer.stats.items()}
    assert _entry_points() == before
    assert not [name for name, value in before.items()
                if getattr(value, MARKER, None) is not None]
    after = workload.run()
    assert {key: stats[0] for key, stats in tracer.stats.items()} == calls
    assert untraced.digest == traced.digest == after.digest
    assert abs(sum(tracer.layer_self_s().values()) - tracer.total_s) < 1e-9


def test_setup_probe_stops_at_first_commit():
    workload = MOSTWorkload("record", Seeds.from_workload_seed(0), TINY)
    started, first_commit = workload.setup_probe()
    assert 0 < first_commit - started < workload.run().host_s


def test_host_clock_scales_by_the_reference_loop():
    clock = HostClock()
    assert clock.span(1.0, 3.0) == 2.0          # no reference loop yet
    for _ in range(2 * NEIGHBOURS):
        clock.calibrate()
    start = clock.now()
    sum(range(200_000))
    end = clock.now()
    recent = clock.ref_s[-NEIGHBOURS:]          # the loops around [start, end]
    scale = NOMINAL_REF_S * len(recent) / sum(recent)
    assert clock.span(start, end) == pytest.approx((end - start) * scale)
    assert clock.speed() == pytest.approx(
        NOMINAL_REF_S * len(clock.ref_s) / sum(clock.ref_s))
    assert clock.paused == pytest.approx(sum(clock.ref_s))  # not in now()


def test_traced_run_has_no_reference_loops():
    workload = WORKLOADS["most_record"][1](Seeds.from_workload_seed(0), TINY)
    run.traced(workload, "most_record", 0)
    assert workload.clock.ref_s == [] and workload.clock.paused == 0.0


def test_paper_seed_is_the_default():
    seeds = Seeds.from_workload_seed(0)
    config = seeds.most_config()
    assert (config.motion_seed, config.network_seed) == (2003, 730)
    assert config.seeds == {"uiuc": 11, "cu": 12, "daq": 13}
    assert seeds.crash == 11


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == {
        name: (unit, better, bound)
        for name, (unit, better, bound, _) in END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"] for m in spec["per_layer"]
            if m["better"] == "higher"} == set(PER_LAYER_HIGHER)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "most_record",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _entry_points() -> dict:
    """Every function reachable as a module or class attribute."""
    found = {}
    for module in load_program_modules():
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                found[f"{module.__name__}.{name}"] = value
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    found[f"{module.__name__}.{name}.{attr}"] = member
    return found
