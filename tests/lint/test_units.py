"""The interprocedural dimensional analysis and its four rules.

Golden fixtures mirror ``tests/lint/test_effects.py``: each test
builds a miniature ``src/repro`` tree of in-memory
:class:`SourceFile` objects, runs the analysis, and asserts exact
(rule id, path, line) triples plus the provenance chain rendered in
the message.
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import SourceFile
from repro.lint.project import ProjectModel
from repro.lint.units import (
    MAGIC_UNIT_CONVERSION,
    TIME_DOMAIN_MIXING,
    UNIT_MISMATCH,
    UNITLESS_DURATION_BOUNDARY,
    Unit,
    analyze_units,
    join,
    unit_findings,
    unit_from_name,
    unit_report,
    unit_rule_catalog,
)


def make_source(path, snippet):
    source = SourceFile(path, textwrap.dedent(snippet))
    assert source.parse_error is None
    return source


def build_analysis(*path_snippets):
    sources = [make_source(path, text) for path, text in path_snippets]
    return analyze_units(ProjectModel.build(sources))


def unit_triples(analysis):
    findings = unit_findings(analysis)
    return [(f.rule_id, f.path, f.line) for f in findings], findings


# A seconds budget flowing into a milliseconds slot across a call.
MISMATCH = (
    "src/repro/exp/sched.py",
    """\
    def wait_for(timeout_ms):
        return timeout_ms


    def run(budget_s):
        return wait_for(budget_s)
    """,
)

# Sim-clock minus host-clock: the classic cross-domain drift bug.
CLOCKS = (
    "src/repro/exp/clocks.py",
    """\
    from repro.obs.profiling import perf_seconds


    def stamp():
        return perf_seconds()


    def drift(queue):
        started = stamp()
        return queue.now_ms - started
    """,
)


class TestLattice:
    def test_join_is_commutative_and_tops_out_at_mixed(self):
        ms = Unit(scale="ms")
        s = Unit(scale="s", domain="host")
        assert join(ms, Unit()) == ms
        assert join(ms, s) == join(s, ms)
        assert join(ms, s).scale == "mixed"
        assert join(ms, s).domain == "host"

    def test_name_inference_suffixes_and_roles(self):
        assert unit_from_name("rtt_ms") == Unit("ms", None, "duration")
        assert unit_from_name("task_timeout_s") == Unit(
            "s", None, "duration"
        )
        assert unit_from_name("created_unix") == Unit(
            "s", "epoch", "timestamp"
        )
        assert unit_from_name("deadline_ms").role == "timestamp"
        assert unit_from_name("num_caches").is_empty()

    def test_dimensionless_suffixes_beat_time_words(self):
        # `wall_ratio` names a proportion of wall time, not a time.
        assert unit_from_name("wall_ratio").is_empty()
        assert unit_from_name("request_rate_rps").is_empty()


class TestUnitMismatch:
    def test_seconds_into_ms_parameter_is_reported(self):
        triples, findings = unit_triples(build_analysis(MISMATCH))
        assert triples == [
            (UNIT_MISMATCH, "src/repro/exp/sched.py", 6),
        ]
        [finding] = findings
        assert "budget_s" in finding.message
        assert "'timeout_ms'" in finding.message
        assert "ms_to_s" in finding.message

    def test_sanctioned_conversion_helper_clears_the_flow(self):
        analysis = build_analysis((
            "src/repro/exp/sched.py",
            """\
            from repro.types import s_to_ms


            def wait_for(timeout_ms):
                return timeout_ms


            def run(budget_s):
                return wait_for(s_to_ms(budget_s))
            """,
        ))
        assert unit_findings(analysis) == []

    def test_cross_unit_addition_is_reported(self):
        triples, _ = unit_triples(build_analysis((
            "src/repro/exp/mix.py",
            """\
            def total(rtt_ms, pause_s):
                return rtt_ms + pause_s
            """,
        )))
        assert triples == [
            (UNIT_MISMATCH, "src/repro/exp/mix.py", 2),
        ]

    def test_assignment_to_suffixed_name_is_reported(self):
        triples, _ = unit_triples(build_analysis((
            "src/repro/exp/assign.py",
            """\
            def stash(window_s):
                budget_ms = window_s
                return budget_ms
            """,
        )))
        assert triples == [
            (UNIT_MISMATCH, "src/repro/exp/assign.py", 2),
        ]

    def test_same_unit_arithmetic_is_silent(self):
        analysis = build_analysis((
            "src/repro/exp/ok.py",
            """\
            def span(start_ms, end_ms, slack_ms):
                return end_ms - start_ms + slack_ms
            """,
        ))
        assert unit_findings(analysis) == []


class TestTimeDomainMixing:
    def test_sim_minus_host_reports_both_rules_with_chain(self):
        triples, findings = unit_triples(build_analysis(CLOCKS))
        assert triples == [
            (TIME_DOMAIN_MIXING, "src/repro/exp/clocks.py", 10),
            (UNIT_MISMATCH, "src/repro/exp/clocks.py", 10),
        ]
        mixing = findings[0]
        # The provenance chain crosses `stamp` back to the anchor.
        assert ".now_ms (simulated clock)" in mixing.message
        assert "return of repro.exp.clocks:stamp" in mixing.message
        assert "repro.obs.profiling.perf_seconds()" in mixing.message

    def test_annotation_declares_the_domain_at_a_binding(self):
        triples, findings = unit_triples(build_analysis((
            "src/repro/exp/anno.py",
            """\
            from repro.types import Seconds


            def hold(pause: Seconds):
                return pause


            def tick(queue):
                return hold(queue.now_ms)
            """,
        )))
        assert [(r, line) for r, _p, line in triples] == [
            (TIME_DOMAIN_MIXING, 9),
            (UNIT_MISMATCH, 9),
        ]
        assert "declared host-s" in findings[0].message

    def test_timestamps_within_one_domain_are_silent(self):
        analysis = build_analysis((
            "src/repro/exp/warm.py",
            """\
            def after_warmup(event, warmup_ms):
                return event.timestamp_ms >= warmup_ms
            """,
        ))
        assert unit_findings(analysis) == []


class TestMagicUnitConversion:
    def test_bare_division_of_ms_is_reported(self):
        triples, findings = unit_triples(build_analysis((
            "src/repro/exp/magic.py",
            """\
            def to_seconds(delay_ms):
                return delay_ms / 1000.0
            """,
        )))
        assert triples == [
            (MAGIC_UNIT_CONVERSION, "src/repro/exp/magic.py", 2),
        ]
        assert "repro.types.ms_to_s" in findings[0].message

    def test_bare_multiply_of_seconds_is_reported(self):
        triples, findings = unit_triples(build_analysis((
            "src/repro/exp/magic.py",
            """\
            def to_ms(window_s):
                return 1000 * window_s
            """,
        )))
        assert triples == [
            (MAGIC_UNIT_CONVERSION, "src/repro/exp/magic.py", 2),
        ]
        assert "repro.types.s_to_ms" in findings[0].message

    def test_conversion_inside_an_fstring_is_reported(self):
        triples, _ = unit_triples(build_analysis((
            "src/repro/exp/fmt.py",
            """\
            def render(duration_ms):
                return f"took {duration_ms / 1000:.1f}s"
            """,
        )))
        assert triples == [
            (MAGIC_UNIT_CONVERSION, "src/repro/exp/fmt.py", 2),
        ]

    def test_scaling_a_dimensionless_value_is_silent(self):
        analysis = build_analysis((
            "src/repro/exp/kilo.py",
            """\
            def kilo_events(events, elapsed_s):
                return events / elapsed_s / 1000.0
            """,
        ))
        # events/elapsed is a rate (dimensionless here), so the /1000
        # is unit-agnostic scaling, not a time conversion.
        assert unit_findings(analysis) == []

    def test_result_unit_flips_so_downstream_checks_still_fire(self):
        triples, _ = unit_triples(build_analysis((
            "src/repro/exp/flip.py",
            """\
            def confuse(delay_ms, other_ms):
                converted = delay_ms / 1000.0
                return converted + other_ms
            """,
        )))
        assert [(r, line) for r, _p, line in triples] == [
            (MAGIC_UNIT_CONVERSION, 2),
            (UNIT_MISMATCH, 3),
        ]


class TestUnitlessDurationBoundary:
    def test_public_bare_timeout_parameter_is_reported(self):
        triples, findings = unit_triples(build_analysis((
            "src/repro/exp/api.py",
            """\
            def schedule(timeout, payload):
                return timeout
            """,
        )))
        assert triples == [
            (UNITLESS_DURATION_BOUNDARY, "src/repro/exp/api.py", 1),
        ]
        assert "'timeout'" in findings[0].message

    def test_suffix_annotation_or_privacy_exempts(self):
        analysis = build_analysis((
            "src/repro/exp/api.py",
            """\
            from repro.types import Ms


            def fine_a(timeout_ms, payload):
                return timeout_ms


            def fine_b(timeout: Ms, payload):
                return timeout


            def _internal(timeout, payload):
                return timeout
            """,
        ))
        assert unit_findings(analysis) == []


class TestPragmas:
    def test_each_rule_is_suppressible_at_its_line(self):
        analysis = build_analysis((
            "src/repro/exp/waived.py",
            """\
            def to_seconds(delay_ms):
                return delay_ms / 1000.0  # repro-lint: allow[magic-unit-conversion]


            # repro-lint: allow[unitless-duration-boundary]
            def schedule(timeout, payload):
                return timeout


            def run(budget_s, sink):
                # repro-lint: allow[unit-mismatch]
                return to_seconds(budget_s)
            """,
        ))
        assert unit_findings(analysis) == []


class TestFixpoint:
    def test_mutual_recursion_converges_and_propagates(self):
        analysis = build_analysis((
            "src/repro/exp/rec.py",
            """\
            def ping(t_ms, n):
                if n == 0:
                    return t_ms
                return pong(t_ms, n - 1)


            def pong(t_ms, n):
                return ping(t_ms, n)
            """,
        ))
        assert unit_findings(analysis) == []
        assert analysis.summary("repro.exp.rec:ping").returns.scale == "ms"
        assert analysis.summary("repro.exp.rec:pong").returns.scale == "ms"

    def test_domain_flows_through_unsuffixed_relay_params(self):
        analysis = build_analysis((
            "src/repro/exp/relay.py",
            """\
            def relay(value, n):
                if n == 0:
                    return value
                return relay(value, n - 1)


            def entry(queue):
                return relay(queue.now_ms, 3)
            """,
        ))
        assert unit_findings(analysis) == []
        summary = analysis.summary("repro.exp.relay:relay")
        assert summary.params["value"].domain == "sim"
        assert summary.params["value"].scale == "ms"
        assert analysis.summary("repro.exp.relay:entry").returns.domain == (
            "sim"
        )
        # The recorded origin chains back to the binding site.
        assert "bound at src/repro/exp/relay.py" in summary.param_origin[
            "value"
        ]

    def test_a_chain_deeper_than_any_round_cap_still_converges(self):
        # Sorted sweeps move f_25's host-seconds return back one link
        # per sweep, so the chain needs 25 sweeps.  A solver that gives
        # up after a fixed number of rounds leaves f_01 dimensionless
        # and misses the mismatch in use().
        links = "".join(
            f"def f_{i:02d}():\n    return f_{i + 1:02d}()\n\n\n"
            for i in range(1, 25)
        )
        analysis = build_analysis((
            "src/repro/exp/chain.py",
            "from repro.obs.profiling import perf_seconds\n\n\n"
            + links
            + "def f_25():\n    return perf_seconds()\n\n\n"
            "def use():\n    wait_ms = f_01()\n",
        ))
        for i in range(1, 26):
            returns = analysis.summary(f"repro.exp.chain:f_{i:02d}").returns
            assert returns.label() == "host-s timestamp", i
        triples, findings = unit_triples(analysis)
        assert triples == [(UNIT_MISMATCH, "src/repro/exp/chain.py", 105)]
        assert "assignment to 'wait_ms'" in findings[0].message


class TestReport:
    def test_every_function_gets_a_row_with_labels(self):
        analysis = build_analysis(MISMATCH)
        payload = unit_report(analysis, unit_findings(analysis))
        rows = {row["function"]: row for row in payload["functions"]}
        assert "repro.exp.sched:<module>" in rows
        wait = rows["repro.exp.sched:wait_for"]
        assert wait["params"] == {"timeout_ms": "ms duration"}
        assert wait["returns"] == "ms duration"
        assert set(payload["rules"]) == {
            UNIT_MISMATCH, TIME_DOMAIN_MIXING, MAGIC_UNIT_CONVERSION,
            UNITLESS_DURATION_BOUNDARY,
        }

    def test_function_filter_matches_bare_names(self):
        analysis = build_analysis(MISMATCH)
        payload = unit_report(analysis, [], function="wait_for")
        assert [row["function"] for row in payload["functions"]] == [
            "repro.exp.sched:wait_for"
        ]

    def test_catalog_lists_the_four_rules(self):
        assert set(unit_rule_catalog()) == {
            UNIT_MISMATCH, TIME_DOMAIN_MIXING, MAGIC_UNIT_CONVERSION,
            UNITLESS_DURATION_BOUNDARY,
        }


@pytest.fixture
def fixture_tree(tmp_path, monkeypatch):
    """The MISMATCH/CLOCKS fixtures on disk, cwd-anchored like a repo."""
    for path, text in (MISMATCH, CLOCKS):
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestUnitsCli:
    def test_json_dump_is_deterministic_and_exits_zero(
        self, fixture_tree, capsys
    ):
        assert main(["lint", "units", "src", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "units", "src", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert [f["rule"] for f in payload["findings"]] == [
            TIME_DOMAIN_MIXING, UNIT_MISMATCH, UNIT_MISMATCH,
        ]

    def test_text_mode_summarises_the_table(self, fixture_tree, capsys):
        assert main(["lint", "units", "src"]) == 0
        out = capsys.readouterr().out
        assert "functions analysed" in out
        assert "repro.exp.sched:wait_for" in out
        assert "3 unit finding(s):" in out

    def test_function_filter_from_the_cli(self, fixture_tree, capsys):
        assert main([
            "lint", "units", "src", "--function", "wait_for",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["function"] for row in payload["functions"]] == [
            "repro.exp.sched:wait_for"
        ]

    def test_missing_path_exits_two(self, fixture_tree, capsys):
        assert main(["lint", "units", "nope"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules_includes_the_dimensional_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in unit_rule_catalog():
            assert rule_id in out


class TestGateIntegration:
    def test_unit_findings_gate_and_baseline_round_trip(
        self, fixture_tree, capsys
    ):
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert UNIT_MISMATCH in out
        assert TIME_DOMAIN_MIXING in out

        baseline = fixture_tree / "baseline.json"
        assert main([
            "lint", "src", "--baseline", str(baseline),
            "--update-baseline",
        ]) == 0
        capsys.readouterr()
        assert main(["lint", "src", "--baseline", str(baseline)]) == 0
