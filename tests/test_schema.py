"""The shared schema layer (:mod:`repro.util.schema`).

Three concerns:

* the error hierarchy — every document family's error is a
  :class:`~repro.util.schema.SchemaError`, the class
  ``repro.telemetry.schema`` exports;
* the primitives — JSON-path messages, bools never pass as integers;
* fuzzing — every committed document class, mutated by hypothesis
  (keys dropped, value types swapped, lists where objects belong),
  is either accepted or rejected with a ``SchemaError``; no validator
  lets a ``KeyError``, ``TypeError``, ``AttributeError`` or
  ``IndexError`` escape.
"""

import copy
import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.monitor.schema as monitor_schema
import repro.telemetry.schema as telemetry_schema
from repro.analysis import analyze_source, reporters
from repro.coordinator.records import StepRecord
from repro.coordinator.state import record_to_payload
from repro.monitor.schema import (
    MonitorSchemaError,
    validate_alert_payload,
    validate_health_payload,
    validate_metrics_sample,
)
from repro.most import ExperimentSession, MOSTConfig
from repro.observatory.query import run_query
from repro.observatory.schema import (
    ObservatorySchemaError,
    validate_dump,
    validate_flight_snapshot,
    validate_query_result,
)
from repro.queue.journal import QueueSchemaError, build_entry, validate_queue_entry
from repro.repository.checkpoint import (
    MANIFEST_SCHEMA_ID,
    CheckpointCorrupt,
    CheckpointSchemaError,
    build_checkpoint_doc,
    validate_checkpoint_payload,
    validate_manifest_payload,
)
from repro.telemetry.schema import (
    validate_bench_payload,
    validate_jsonl_export,
    validate_step_report_payload,
)
from repro.util import schema
from repro.verify.report import VERIFY_SCHEMA_ID, validate_verify_payload

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestErrorHierarchy:
    def test_telemetry_exports_the_root(self):
        assert telemetry_schema.SchemaError is schema.SchemaError

    @pytest.mark.parametrize("error", [
        MonitorSchemaError, ObservatorySchemaError, CheckpointSchemaError,
        CheckpointCorrupt, QueueSchemaError, reporters.ReportError])
    def test_family_errors_subclass_the_root(self, error):
        assert issubclass(error, telemetry_schema.SchemaError)

    def test_family_validators_raise_their_own_class(self):
        with pytest.raises(MonitorSchemaError, match=r"\$\.metrics\[0\]"):
            validate_metrics_sample({
                "schema": monitor_schema.SCHEMA_ID, "kind": "metrics",
                "source": "coord", "time": 0.0, "seq": 1,
                "metrics": [{"name": "flat", "type": "gauge",
                             "value": 1.0}]})


class TestPrimitives:
    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
    def test_integer_rejects_non_ints_and_bools(self, value):
        with pytest.raises(schema.SchemaError, match=r"^\$\.n: expected"):
            schema.integer(value, "$.n")

    def test_fields_names_the_missing_key(self):
        with pytest.raises(schema.SchemaError, match=r"^\$\.s\.b: missing"):
            schema.fields({"a": 1}, "$.s",
                          {"a": schema.integer, "b": schema.integer})

    def test_parse_json_raises_the_callers_class(self):
        with pytest.raises(QueueSchemaError, match="^here: "):
            schema.parse_json("{", QueueSchemaError, "here")


# ---------------------------------------------------------------------------
# one valid instance of every committed document class
# ---------------------------------------------------------------------------

def _checkpoint_doc(seq=1, step=3):
    records = [record_to_payload(StepRecord(
        step=s, model_time=0.02 * s, displacement=[0.001 * s],
        restoring_force=[0.1 * s],
        site_forces={"uiuc": {0: 0.03 * s}}, attempts=1,
        wall_started=float(s), wall_finished=s + 0.5))
        for s in range(1, step)]
    records[-1]["site_forces"]["ncsa"] = {"1": ["0x1.0p+0", "0x1.0p+1"]}
    state = {"run_id": "run", "target_steps": 50, "step": step,
             "generation": 0, "checkpoint_seq": seq, "dt": 0.02,
             "wall_started": 0.0, "phase": "idle",
             "pending": {"uiuc": "txn-3"},
             "speculative": {"uiuc": "txn-4"}, "speculative_step": step + 1,
             "integrator": {"kind": "central_difference", "step_index": step,
                            "arrays": {
                                "d_curr": ["0x1.0p-3"],
                                "batch": {"shape": [2, 1],
                                          "data": ["0x0.0p+0",
                                                   "0x1.0p+0"]}}}}
    return build_checkpoint_doc(run_id="run", seq=seq, wall_time=1.0,
                                reason="policy", state_payload=state,
                                record_payloads=records)


def _manifest():
    latest = _checkpoint_doc(seq=2)
    return {"schema": MANIFEST_SCHEMA_ID, "run_id": "run", "seq": 2,
            "seqs": [1, 2], "latest": latest, "records": latest["records"]}


def _observatory_documents():
    report = (ExperimentSession(MOSTConfig().scaled(12), run_id="fuzz",
                                simulation_only=True)
              .with_observatory()
              .with_faults(outage_duration=float("inf"))
              .run())
    obs = report.observatory
    dump = obs.dump()
    query = run_query(obs.store, {"metric": "coordinator.mspsds.step_time",
                                  "agg": "avg", "page_size": 2},
                      now=dump["time"])
    # every series has the same shape: a few are enough to mutate
    dump["series"] = dump["series"][:3]
    return {"dump": (validate_dump, dump),
            "flight": (validate_flight_snapshot, dump["snapshots"][0]),
            "query_result": (validate_query_result, query)}


_MONITOR = {"schema": monitor_schema.SCHEMA_ID, "source": "coord", "time": 4.0}
_COUNTER = {"name": "a.b.c", "type": "counter", "labels": {"site": "uiuc"},
            "value": 1, "total": 3}
_SPAN = {"name": "a.b.c", "trace_id": "t", "span_id": "s",
         "parent_id": None, "start": 1.0, "end": 2.0, "duration": 1.0,
         "attrs": {"step": 1}}


def _summary(percentile):
    return {key: 1.0 for key in ("count", "sum", "mean", "min", "max",
                                 "p50", percentile, "p99")}


def _verify_report():
    return {"schema": VERIFY_SCHEMA_ID, "ok": False,
            "explorations": [{
                "sites": ["uiuc", "ncsa"], "n_steps": 2, "pipeline_depth": 1,
                "max_faults": 1, "traces": 4, "states_explored": 9,
                "violations": [{"invariant": "at-most-once", "step": 1,
                                "site": "uiuc", "detail": "twice",
                                "schedule": [{"step": 1, "kind": "drop",
                                              "site": "uiuc"}]}]}],
            "mutations": [{"rule": "dedup", "caught": True,
                           "violations": ["at-most-once"]}],
            "conformance": {"traces_replayed": 2, "divergences": []}}


def _bench(name):
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


@pytest.fixture(scope="module")
def documents():
    docs = {
        "checkpoint": (validate_checkpoint_payload, _checkpoint_doc()),
        "manifest": (validate_manifest_payload, _manifest()),
        "journal_entry": (validate_queue_entry, build_entry(
            seq=3, time=1.0, kind="claim",
            body={"submission_id": "s-0", "epoch": 1, "attempt": 1,
                  "sites": ["uiuc", "ncsa"]})),
        "health": (validate_health_payload, {
            **_MONITOR, "kind": "health", "status": "running",
            "backlog": 0, "step": 3, "plugin": "simulation",
            "detail": {}}),
        "metrics_sample": (validate_metrics_sample, {
            **_MONITOR, "kind": "metrics", "seq": 2,
            "metrics": [_COUNTER,
                        {"name": "a.b.d", "type": "histogram",
                         "labels": {}, "summary": _summary("p95")}]}),
        "alert": (validate_alert_payload, {
            **_MONITOR, "kind": "alert", "alert_id": "c-0001",
            "alert": "stall", "severity": "critical", "step": 3,
            "site": "uiuc", "message": "stalled", "detail": {}}),
        "step_report": (validate_step_report_payload, {
            "schema": telemetry_schema.SCHEMA_ID, "kind": "step_report",
            "experiment": "x", "count": 1,
            "rows": [{"step": 1, "run_id": "r", "total": 0.2,
                      "phases": {"propose": 0.1}}],
            "means": {"total": 0.2, "phases": {"propose": 0.1}}}),
        "jsonl_export": (validate_jsonl_export, {
            "meta": {"schema": telemetry_schema.SCHEMA_ID, "experiment": "x"},
            "metrics": [{"name": "a.b.c", "type": "histogram",
                         "labels": {}, "summary": _summary("p90")}],
            "spans": [_SPAN]}),
        "verify_report": (validate_verify_payload, _verify_report()),
        "analysis_report": (reporters.validate_report, reporters.build_report(
            analyze_source('def f(verdict):\n    return verdict["state"]\n',
                           path="pkg/x.py", module="pkg.x"))),
        **{f"bench_{name}": (validate_bench_payload, _bench(name))
           for name in ("tperf_ntcp", "tfleet", "tobs", "tqueue")},
        **_observatory_documents(),
    }
    for validate, doc in docs.values():
        validate(copy.deepcopy(doc))  # the unmutated instance is valid
    return docs


DOCUMENT_CLASSES = [
    "checkpoint", "manifest", "journal_entry", "dump", "flight",
    "query_result", "health", "metrics_sample", "alert", "step_report",
    "jsonl_export", "bench_tperf_ntcp", "bench_tfleet", "bench_tobs",
    "bench_tqueue", "verify_report", "analysis_report"]


# ---------------------------------------------------------------------------
# mutation fuzzing
# ---------------------------------------------------------------------------

#: values swapped in for a node: every JSON type, plus bools and empties
REPLACEMENTS = [None, True, False, 0, -1, 7, 2.5, -0.5, "", "x", "0x1p0",
                [], [1, 2], ["x"], {}, {"x": 1}, [{}]]


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(doc, path, op, replacement):
    """Apply one mutation at ``path``; returns the (possibly new) root."""
    if not path:
        return [doc] if op == "wrap" else replacement
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if op == "drop" and isinstance(parent, dict):
        del parent[last]
    elif op == "wrap":
        parent[last] = [parent[last]]
    else:
        parent[last] = replacement
    return doc


FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                database=None)


@pytest.mark.parametrize("name", DOCUMENT_CLASSES)
@FUZZ
@given(data=st.data())
def test_mutated_documents_fail_only_with_schema_errors(documents, name,
                                                        data):
    validate, valid = documents[name]
    doc = copy.deepcopy(valid)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        path = data.draw(st.sampled_from(paths), label="path")
        op = data.draw(st.sampled_from(["drop", "replace", "wrap"]),
                       label="op")
        replacement = data.draw(st.sampled_from(REPLACEMENTS),
                                label="value")
        doc = _mutate(doc, path, op, copy.deepcopy(replacement))
    try:
        validate(doc)
    except schema.SchemaError:
        pass


def test_bench_documents_dispatch_on_known_experiments_only():
    doc = {**_bench("tperf_ntcp"), "experiment": "tnew"}
    with pytest.raises(schema.SchemaError, match=r"\$\.experiment"):
        validate_bench_payload(doc)


# ---------------------------------------------------------------------------
# scripts/validate_bench.py (``make validate-bench``)
# ---------------------------------------------------------------------------

def _validate_bench_script():
    spec = importlib.util.spec_from_file_location(
        "validate_bench", ROOT / "scripts" / "validate_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidateBenchScript:
    def test_committed_documents_pass(self, capsys):
        assert _validate_bench_script().main() == 0
        assert "FAILED" not in capsys.readouterr().err

    @pytest.mark.parametrize("name, section, key, value, message", [
        ("tfleet", "fleet", "duplicate_executes", 1, "duplicate executes"),
        ("tqueue", "fencing", "stale_accepts", 2, "stale-epoch"),
        ("tobs", "rollups", "consistent", False, "rollup buckets"),
        ("tperf_ntcp", "bit_exact", "pipelined", False, "bit-exact"),
    ])
    def test_a_broken_floor_fails_the_run(self, tmp_path, monkeypatch,
                                          capsys, name, section, key,
                                          value, message):
        script = _validate_bench_script()
        doc = _bench(name)
        doc[section][key] = value
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(doc))
        monkeypatch.setattr(script, "ROOT", tmp_path)
        assert script.main() == 1
        err = capsys.readouterr().err
        assert f"BENCH_{name}.json: FAILED" in err and message in err

    def test_an_unknown_experiment_fails_the_run(self, tmp_path,
                                                 monkeypatch, capsys):
        script = _validate_bench_script()
        doc = {**_bench("tfleet"), "experiment": "tnew"}
        (tmp_path / "BENCH_tnew.json").write_text(json.dumps(doc))
        monkeypatch.setattr(script, "ROOT", tmp_path)
        assert script.main() == 1
        assert "$.experiment" in capsys.readouterr().err
