"""The static-analysis pass: rules, suppression, reporters, conformance.

Each RPR rule gets a failing fixture proving it fires and rides the
clean-fixture negative test proving none of them over-trigger.  The NTCP
protocol-conformance checker is exercised both against the real
``repro.control`` surface (must be clean) and against deliberately
broken plugin classes (must not be).
"""

import json
import textwrap

import pytest

from repro.analysis import (
    PROTOCOL_CODES,
    AnalysisResult,
    Finding,
    all_rules,
    analyze_paths,
    analyze_source,
    build_report,
    check_plugin,
    check_protocol_conformance,
    exported_plugins,
    load_report,
    module_name_for,
    render_json,
    render_text,
    validate_report,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.engine import PARSE_ERROR_CODE, suppressed_codes
from repro.core.plugin import ControlPlugin
from repro.util.errors import ReproError


def check(source: str, *, module: str = "repro.x", path: str = "x.py",
          select=None) -> list[Finding]:
    return analyze_source(textwrap.dedent(source), path=path,
                          module=module, select=select).findings


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# engine basics


class TestEngine:
    def test_rule_registry_covers_the_documented_codes(self):
        registered = [rule.code for rule in all_rules()]
        assert registered == ["RPR001", "RPR002", "RPR003", "RPR004",
                              "RPR005", "RPR006", "RPR007",
                              "RPR009", "RPR010"]
        assert set(PROTOCOL_CODES) == {"RPR100", "RPR101", "RPR102",
                                       "RPR103", "RPR104"}

    def test_module_name_for(self):
        assert module_name_for("src/repro/net/rpc.py") == "repro.net.rpc"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
        assert module_name_for("tests/test_x.py") == "tests.test_x"

    def test_parse_error_is_a_finding(self):
        findings = check("def broken(:\n    pass\n")
        assert codes(findings) == [PARSE_ERROR_CODE]

    def test_clean_fixture_has_no_findings(self):
        # A busy but invariant-respecting module: spans closed, telemetry
        # named properly, narrow excepts, coherent __all__.
        result = analyze_source(textwrap.dedent('''
            """Clean module."""
            from repro.util.errors import ProtocolError

            __all__ = ["run"]

            def run(kernel, client):
                span = kernel.telemetry.start_span("layer.comp.op")
                try:
                    client.call()
                except ProtocolError:
                    span.end(ok=False)
                    raise
                span.end(ok=True)
                count = kernel.telemetry.counter("layer.comp.calls")
                count.inc()
                return count
        '''), path="src/repro/net/clean.py", module="repro.net.clean")
        assert result.findings == []
        assert result.files == 1 and result.suppressed == 0

    def test_unknown_select_code_raises(self):
        with pytest.raises(KeyError):
            check("x = 1\n", select=["RPR999"])


# ---------------------------------------------------------------------------
# the six rules: one firing fixture each (plus targeted negatives)


class TestSimClockPurity:
    def test_wall_clock_fires_in_scope(self):
        findings = check("""
            import time
            def now():
                return time.time()
        """, module="repro.sim.kernel")
        assert codes(findings) == ["RPR001"]
        assert "time.time" in findings[0].message

    def test_from_import_and_aliases_resolve(self):
        findings = check("""
            from time import monotonic as mono
            import datetime as dt
            def f():
                return mono(), dt.datetime.now()
        """, module="repro.net.x")
        assert codes(findings) == ["RPR001", "RPR001"]

    def test_global_rng_fires(self):
        findings = check("""
            import random
            import numpy as np
            def f():
                return random.random() + np.random.rand()
        """, module="repro.coordinator.x")
        assert codes(findings) == ["RPR001", "RPR001"]

    def test_seeded_generator_is_fine(self):
        assert check("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed).normal()
        """, module="repro.control.x") == []

    def test_out_of_scope_module_is_ignored(self):
        assert check("""
            import time
            def f():
                return time.time()
        """, module="repro.telemetry.hub") == []


class TestVerdictDictAccess:
    def test_subscript_fires(self):
        findings = check("""
            def f(verdict):
                return verdict["state"]
        """)
        assert codes(findings) == ["RPR002"]

    def test_get_and_keys_fire(self):
        findings = check("""
            def f(outcome):
                return outcome.get("readings"), outcome.keys()
        """)
        assert codes(findings) == ["RPR002", "RPR002"]

    def test_non_field_keys_and_other_names_are_fine(self):
        assert check("""
            def f(verdicts, table):
                return verdicts["uiuc"], table["state"]
        """) == []


class TestTelemetryNames:
    def test_two_segment_metric_fires(self):
        findings = check("""
            def f(hub):
                return hub.counter("rpc.calls")
        """)
        assert codes(findings) == ["RPR003"]

    def test_one_segment_span_fires(self):
        findings = check("""
            def f(tracer):
                return tracer.start_span("step")
        """)
        assert codes(findings) == ["RPR003"]
        assert "span" in findings[0].message

    def test_uppercase_fires_and_nonliteral_is_skipped(self):
        assert codes(check("""
            def f(hub, name):
                hub.gauge("Layer.Comp.Depth")
                hub.histogram(name)
        """)) == ["RPR003"]

    def test_canonical_names_pass(self):
        assert check("""
            def f(hub, tracer):
                hub.histogram("net.rpc.latency")
                return tracer.start_span("coordinator.step")
        """) == []


class TestSpanLifecycle:
    def test_unclosed_span_fires(self):
        findings = check("""
            def f(tracer):
                span = tracer.start_span("a.b.c")
                return 1
        """)
        assert codes(findings) == ["RPR004"]
        assert "never closed" in findings[0].message

    def test_discarded_span_fires(self):
        findings = check("""
            def f(tracer):
                tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "discarded" in findings[0].message

    def test_end_with_and_handoff_pass(self):
        assert check("""
            def closed(tracer):
                span = tracer.start_span("a.b.c")
                span.end(ok=True)

            def managed(tracer):
                with tracer.start_span("a.b.c"):
                    pass

            def named_manager(tracer):
                span = tracer.start_span("a.b.c")
                with span:
                    pass

            def handed_off(tracer, sink):
                span = tracer.start_span("a.b.c")
                sink.adopt(span)

            def closed_in_closure(tracer):
                span = tracer.start_span("a.b.c")
                def reply():
                    span.end()
                return reply
        """) == []

    def test_attribute_stash_never_read_back_fires(self):
        findings = check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "stashed in attribute `self._span`" in findings[0].message

    def test_container_stash_never_read_back_fires(self):
        findings = check("""
            def f(tracer, spans):
                spans["step"] = tracer.start_span("a.b.c")
        """)
        assert codes(findings) == ["RPR004"]
        assert "stashed in container `spans`" in findings[0].message

    def test_attribute_stash_closed_elsewhere_passes(self):
        # The monitor idiom: the episode span opens in one method and is
        # closed from another — module-wide read-back is good enough.
        assert check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")

                def close(self):
                    if self._span is not None:
                        self._span.end()
        """) == []

    def test_container_stash_drained_elsewhere_passes(self):
        assert check("""
            def open_all(tracer, spans):
                spans["step"] = tracer.start_span("a.b.c")

            def drain(spans):
                for span in spans.values():
                    span.end()
        """) == []

    def test_distinct_attribute_chains_not_confused(self):
        # reading back self._other must not excuse self._span
        findings = check("""
            class Monitor:
                def open(self, tracer):
                    self._span = tracer.start_span("a.b.c")

                def close(self):
                    self._other.end()
        """)
        assert codes(findings) == ["RPR004"]


class TestBroadExcept:
    def test_silent_broad_except_fires(self):
        findings = check("""
            def f():
                try:
                    risky()
                except Exception:
                    pass
        """)
        assert codes(findings) == ["RPR005"]

    def test_bare_except_fires(self):
        assert codes(check("""
            def f():
                try:
                    risky()
                except:
                    return None
        """)) == ["RPR005"]

    def test_reraise_and_logging_pass(self):
        assert check("""
            def f(logger, kernel):
                try:
                    risky()
                except Exception:
                    raise
                try:
                    risky()
                except Exception as exc:
                    logger.warning("boom %s", exc)
                try:
                    risky()
                except Exception as exc:
                    kernel.emit("site", "oops", error=str(exc))
        """) == []

    def test_narrow_except_passes(self):
        assert check("""
            def f():
                try:
                    risky()
                except ValueError:
                    pass
        """) == []

    def test_trampoline_reroute_is_exempt(self):
        # The kernel-trampoline shape: bind the exception, hand the bound
        # object to a call, and leave the handler immediately.
        assert check("""
            def f(self):
                try:
                    risky()
                except BaseException as exc:
                    self.fail(exc)
                    return
        """) == []

    def test_trampoline_nested_call_is_exempt(self):
        # exc rerouted inside a nested constructor argument still counts.
        assert check("""
            def f(findings):
                try:
                    risky()
                except Exception as exc:
                    findings.append(Finding(message=str(exc)))
                    return [], findings
        """) == []

    def test_trampoline_in_loop_continue_is_exempt(self):
        assert check("""
            def f(sink):
                for item in items():
                    try:
                        risky(item)
                    except Exception as exc:
                        sink.push(exc)
                        continue
        """) == []

    def test_unbound_exception_still_fires(self):
        # No `as exc`: nothing was rerouted, the failure is simply eaten.
        assert codes(check("""
            def f(self):
                try:
                    risky()
                except Exception:
                    self.fail(None)
                    return
        """)) == ["RPR005"]

    def test_bound_but_unused_exception_still_fires(self):
        # Binds the exception but never hands it to anything.
        assert codes(check("""
            def f(self):
                try:
                    risky()
                except Exception as exc:
                    self.cleanup()
                    return
        """)) == ["RPR005"]

    def test_reroute_without_leaving_handler_still_fires(self):
        # Passes exc onward but falls through: the handler keeps going,
        # so the failure may still be silently absorbed downstream.
        assert codes(check("""
            def f(self):
                try:
                    risky()
                except Exception as exc:
                    self.fail(exc)
        """)) == ["RPR005"]


class TestAllDrift:
    def test_phantom_export_fires(self):
        findings = check("""
            __all__ = ["real", "phantom"]
            def real():
                pass
        """)
        assert codes(findings) == ["RPR006"]
        assert "phantom" in findings[0].message

    def test_duplicate_entry_fires(self):
        assert codes(check("""
            __all__ = ["f", "f"]
            def f():
                pass
        """)) == ["RPR006"]

    def test_init_reexport_missing_from_all_fires(self):
        findings = check("""
            from repro.fake.mod import Thing, Other
            __all__ = ["Thing"]
        """, path="src/repro/fake/__init__.py", module="repro.fake")
        assert codes(findings) == ["RPR006"]
        assert "Other" in findings[0].message

    def test_underscore_alias_opts_out(self):
        assert check("""
            from repro.fake.mod import helper as _helper
            __all__ = ["api"]
            def api():
                return _helper()
        """, path="src/repro/fake/__init__.py", module="repro.fake") == []

    def test_non_package_files_skip_reverse_check(self):
        assert check("""
            from repro.fake.mod import helper
            __all__ = ["api"]
            def api():
                return helper()
        """, path="src/repro/fake/mod2.py", module="repro.fake.mod2") == []


class TestMutableDefault:
    def test_literal_defaults_fire(self):
        assert codes(check("""
            def f(a=[], b={}, c={1, 2}):
                return a, b, c
        """)) == ["RPR007", "RPR007", "RPR007"]

    def test_keyword_only_default_fires(self):
        findings = check("""
            def f(*, sites=["uiuc", "cu"]):
                return sites
        """)
        assert codes(findings) == ["RPR007"]
        assert "`f`" in findings[0].message

    def test_constructor_calls_and_comprehensions_fire(self):
        assert codes(check("""
            import collections

            def f(a=list(), b=collections.defaultdict(list),
                  c=[s for s in "ab"]):
                return a, b, c
        """)) == ["RPR007", "RPR007", "RPR007"]

    def test_aliased_constructor_resolves(self):
        assert codes(check("""
            from collections import OrderedDict as OD

            def f(table=OD()):
                return table
        """)) == ["RPR007"]

    def test_lambda_default_fires(self):
        assert codes(check("g = lambda xs=[]: xs\n")) == ["RPR007"]

    def test_immutable_defaults_pass(self):
        assert check("""
            def f(a=None, b=(), c=0, d="x", e=frozenset()):
                return a, b, c, d, e
        """) == []

    def test_tests_modules_are_exempt(self):
        source = """
            def fixture(rows=[]):
                return rows
        """
        assert check(source, module="tests.test_x",
                     path="tests/test_x.py") == []
        assert codes(check(source)) == ["RPR007"]


# ---------------------------------------------------------------------------
# noqa suppression


class TestNoqa:
    def test_bare_noqa_suppresses_everything(self):
        result = analyze_source(
            'def f(verdict):\n    return verdict["state"]  # noqa\n',
            path="x.py", module="x")
        assert result.findings == []
        assert result.suppressed == 1

    def test_coded_noqa_suppresses_only_that_code(self):
        source = 'def f(verdict):\n    return verdict["state"]  # noqa: RPR002\n'
        result = analyze_source(source, path="x.py", module="x")
        assert result.findings == []
        assert result.suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        source = 'def f(verdict):\n    return verdict["state"]  # noqa: RPR005\n'
        result = analyze_source(source, path="x.py", module="x")
        assert codes(result.findings) == ["RPR002"]
        assert result.suppressed == 0

    def test_suppressed_codes_parser(self):
        assert suppressed_codes("x = 1") is None
        assert suppressed_codes("x = 1  # noqa") == set()
        assert suppressed_codes("x  # noqa: RPR001, RPR006") == {
            "RPR001", "RPR006"}


# ---------------------------------------------------------------------------
# reporters


class TestReporters:
    def fixture_result(self) -> AnalysisResult:
        source = ('def f(verdict):\n'
                  '    return verdict["state"]\n')
        return analyze_source(source, path="pkg/x.py", module="pkg.x")

    def test_text_report_lists_findings_and_summary(self):
        text = render_text(self.fixture_result())
        assert "pkg/x.py:2:" in text
        assert "RPR002" in text
        assert "1 finding(s)" in text

    def test_clean_text_report_says_ok(self):
        result = analyze_source("x = 1\n", path="x.py", module="x")
        assert "analysis: OK" in render_text(result)

    def test_json_round_trip(self):
        result = self.fixture_result()
        text = render_json(result)
        payload = json.loads(text)
        validate_report(payload)  # schema-stamped and well-formed
        loaded = load_report(text)
        assert loaded.findings == result.findings
        assert loaded.files == result.files
        assert loaded.suppressed == result.suppressed

    def test_validate_report_rejects_bad_documents(self):
        report = build_report(self.fixture_result())
        for mutation in (
            {"schema": "nope/v0"},
            {"files": -1},
            {"counts": {"RPR002": 2}},       # counts disagree with findings
            {"findings": [{"path": "x"}]},   # finding missing fields
            {"files": True},                 # bools are not integers
            {"suppressed": True},
            {"counts": {"RPR002": True}},
        ):
            bad = {**report, **mutation}
            with pytest.raises(ReproError):
                validate_report(bad)


# ---------------------------------------------------------------------------
# NTCP protocol conformance


class TestProtocolConformance:
    def test_shipped_control_surface_is_conformant(self):
        assert check_protocol_conformance("repro.control") == []

    def test_every_exported_plugin_is_checked(self):
        plugins, findings = exported_plugins("repro.control")
        assert findings == []
        names = {name for name, _ in plugins}
        assert {"SimulationPlugin", "ShoreWesternPlugin", "MPlugin",
                "LabVIEWPlugin", "HumanApprovalPlugin"} <= names
        for _, cls in plugins:
            assert issubclass(cls, ControlPlugin)

    def test_missing_execute_and_plugin_type(self):
        class Bare(ControlPlugin):
            pass

        found = codes(check_plugin(Bare))
        assert "RPR101" in found  # inherited "abstract" plugin_type
        assert "RPR102" in found  # no execute

    def test_incompatible_signature(self):
        class BadVerbs(ControlPlugin):
            plugin_type = "bad"

            def review(self):  # missing proposal
                pass

            def execute(self, proposal, extra_required):
                yield

        found = codes(check_plugin(BadVerbs))
        assert found.count("RPR103") == 2

    def test_non_generator_execute(self):
        class Eager(ControlPlugin):
            plugin_type = "eager"

            def execute(self, proposal):
                return {"forces": {}}

        assert "RPR104" in codes(check_plugin(Eager))

    def test_unimportable_module_is_a_finding(self):
        findings = check_protocol_conformance("repro.no_such_module")
        assert codes(findings) == ["RPR100"]


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "x = 1\n")
        assert analysis_main([str(tmp_path)]) == 0
        assert "analysis: OK" in capsys.readouterr().out

    def test_findings_exit_one_text(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", """
            def f(verdict):
                return verdict["state"]
        """)
        assert analysis_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out

    def test_json_format_is_schema_valid(self, tmp_path, capsys):
        self.write(tmp_path, "bad.py", """
            def f():
                try:
                    pass
                except Exception:
                    pass
        """)
        assert analysis_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["counts"] == {"RPR005": 1}

    def test_select_runs_a_subset(self, tmp_path):
        self.write(tmp_path, "bad.py", """
            def f(verdict):
                return verdict["state"]
        """)
        assert analysis_main([str(tmp_path), "--select", "RPR005"]) == 0
        assert analysis_main([str(tmp_path), "--select", "RPR002"]) == 1

    def test_unknown_select_is_a_usage_error(self, tmp_path):
        assert analysis_main([str(tmp_path), "--select", "RPR999"]) == 2

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR006", "RPR104"):
            assert code in out

    def test_protocol_conformance_runs_by_default(self, tmp_path, capsys):
        self.write(tmp_path, "ok.py", "x = 1\n")
        assert analysis_main(
            [str(tmp_path), "--protocol-module", "repro.no_such_module"]) == 1
        assert "RPR100" in capsys.readouterr().out

    def test_analyze_paths_walks_directories(self, tmp_path):
        self.write(tmp_path, "a.py", "x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n", encoding="utf-8")
        (sub / "__pycache__").mkdir()
        (sub / "__pycache__" / "c.py").write_text("z = 3\n", encoding="utf-8")
        result = analyze_paths([tmp_path])
        assert result.files == 2  # __pycache__ skipped


# ---------------------------------------------------------------------------
# RPR009 — assert-in-library


class TestAssertInLibrary:
    def test_assert_in_library_module_fires(self):
        findings = check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.most.session")
        assert codes(findings) == ["RPR009"]

    def test_allowlisted_module_is_exempt(self):
        findings = check("""
            def f(x):
                assert x is not None
                return x
        """, module="repro.net.breaker")
        assert findings == []

    def test_non_library_modules_are_exempt(self):
        source = """
            def test_f():
                assert 1 + 1 == 2
        """
        assert check(source, module="tests.test_f") == []
        assert check(source, module="examples.demo") == []

    def test_every_allowlist_entry_has_a_reason(self):
        from repro.analysis.rules import AssertInLibrary
        for module, reason in AssertInLibrary.ALLOWLIST.items():
            assert module.startswith("repro.")
            assert len(reason) > 20  # a justification, not a token

    def test_shipped_tree_is_clean(self):
        result = analyze_paths(["src"], select=["RPR009"])
        assert result.findings == []


# ---------------------------------------------------------------------------
# RPR010 — staged public-API docstrings


class TestPublicApiDocstring:
    def test_missing_docstrings_fire_in_staged_subsystem(self):
        findings = check("""
            class Thing:
                def do(self):
                    return 1

            def helper():
                return 2
        """, module="repro.verify.widget")
        assert codes(findings) == ["RPR010"] * 4  # module, class, method, fn

    def test_documented_api_passes(self):
        findings = check('''
            """Module doc."""

            class Thing:
                """Class doc."""

                def do(self):
                    """Method doc."""
                    return self._hidden()

                def _hidden(self):
                    return 1

            def _private():
                return 2
        ''', module="repro.analysis.widget")
        assert findings == []

    def test_unstaged_subsystems_are_exempt(self):
        findings = check("""
            def helper():
                return 2
        """, module="repro.coordinator.widget")
        assert findings == []

    def test_dunder_methods_are_exempt(self):
        findings = check('''
            """Module doc."""

            class Thing:
                """Class doc."""

                def __init__(self):
                    self.x = 1
        ''', module="repro.verify.widget")
        assert findings == []

    def test_staged_packages_are_clean(self):
        result = analyze_paths(["src/repro/analysis", "src/repro/verify",
                                "src/repro/fleet", "src/repro/gsi"],
                               select=["RPR010"])
        assert result.findings == []


# ---------------------------------------------------------------------------
# the shared parse cache


class TestContextCache:
    def test_repeated_loads_reuse_the_parse(self, tmp_path):
        from repro.analysis.engine import load_context
        path = tmp_path / "m.py"
        path.write_text("x = 1\n", encoding="utf-8")
        first = load_context(path)
        assert load_context(path) is first

    def test_rewrite_invalidates(self, tmp_path):
        from repro.analysis.engine import load_context
        path = tmp_path / "m.py"
        path.write_text("x = 1\n", encoding="utf-8")
        first = load_context(path)
        path.write_text("y = 22\n", encoding="utf-8")
        second = load_context(path)
        assert second is not first
        assert "y = 22" in second.source

    def test_clear_context_cache(self, tmp_path):
        from repro.analysis.engine import clear_context_cache, load_context
        path = tmp_path / "m.py"
        path.write_text("x = 1\n", encoding="utf-8")
        first = load_context(path)
        clear_context_cache()
        assert load_context(path) is not first

    def test_parse_error_on_disk_is_an_rpr000_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        result = analyze_paths([tmp_path])
        assert codes(result.findings) == [PARSE_ERROR_CODE]
        assert result.files == 1


class TestSuppressionRoundTrip:
    def test_suppressed_count_survives_json_round_trip(self):
        source = ('def f(verdict):\n'
                  '    a = verdict["state"]  # noqa: RPR002\n'
                  '    return verdict.get("readings")\n')
        result = analyze_source(source, path="pkg/x.py", module="pkg.x")
        assert result.suppressed == 1
        assert codes(result.findings) == ["RPR002"]
        loaded = load_report(render_json(result))
        assert loaded.suppressed == 1
        assert loaded.findings == result.findings
