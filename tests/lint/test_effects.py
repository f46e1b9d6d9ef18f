"""The interprocedural effect analysis and its four rules.

Golden fixtures mirror ``tests/lint/test_project.py``: each test builds
a miniature ``src/repro`` tree of in-memory :class:`SourceFile` objects,
runs the analysis, and asserts exact (rule id, path, line) triples plus
the rendered call chain in the message.
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import SourceFile, run_project_passes
from repro.lint.effects import (
    CACHE_KEY_ESCAPE,
    FORK_HELD_RESOURCE,
    IMPURE_EVENT_HANDLER,
    SHARED_MUTABLE_GLOBAL,
    analyze,
    effect_findings,
    effect_report,
    effect_rule_catalog,
)
from repro.lint.project import ProjectModel


def make_source(path, snippet):
    source = SourceFile(path, textwrap.dedent(snippet))
    assert source.parse_error is None
    return source


def build_analysis(*path_snippets):
    sources = [make_source(path, text) for path, text in path_snippets]
    return analyze(ProjectModel.build(sources))


def effect_triples(analysis):
    findings = effect_findings(analysis)
    return [(f.rule_id, f.path, f.line) for f in findings], findings


# The driver side of the fork fixtures: one pool dispatch of ``unit``.
DRIVER = (
    "src/repro/exp/driver.py",
    """\
    from repro.runtime.scheduler import map_tasks

    from repro.exp.work import unit


    def run():
        return map_tasks(unit, [(1,), (2,)])
    """,
)

WORK = (
    "src/repro/exp/work.py",
    """\
    _TOTALS = {}


    def unit(item):
        _bump(item)
        return item


    def _bump(item):
        _TOTALS[item] = 1
    """,
)


def _registered_work(name):
    """``WORK`` plus one module-level ``register_counter(name, ...)``."""
    return (
        "src/repro/exp/work.py",
        """\
        from repro.obs.profiling import register_counter

        _TOTALS = {}


        def unit(item):
            _bump(item)
            return item


        def _bump(item):
            _TOTALS[item] = 1


        register_counter(%r, _TOTALS.copy, _TOTALS.update)
        """ % name,
    )


class TestSharedMutableGlobal:
    def test_task_reachable_write_is_reported_with_chain(self):
        triples, findings = effect_triples(build_analysis(DRIVER, WORK))
        assert triples == [
            (SHARED_MUTABLE_GLOBAL, "src/repro/exp/work.py", 4)
        ]
        [finding] = findings
        assert (
            "unit -> _bump -> repro.exp.work:_TOTALS "
            "(src/repro/exp/work.py:10)"
        ) in finding.message
        assert "register_counter" in finding.message

    def test_unreached_write_is_not_reported(self):
        # Same worker module, but nothing dispatches it to a pool.
        triples, _ = effect_triples(build_analysis(WORK))
        assert triples == []

    def test_merge_back_registry_exempts_the_write(self):
        analysis = build_analysis(DRIVER, _registered_work(
            "repro.exp.work:_TOTALS"
        ))
        triples, _ = effect_triples(analysis)
        assert triples == []
        assert analysis.merge_backs == {
            "repro.exp.work:_TOTALS":
                "register_counter at src/repro/exp/work.py:15",
        }

    def test_registration_of_another_global_does_not_exempt(self):
        triples, findings = effect_triples(build_analysis(
            DRIVER, _registered_work("repro.exp.work:_OTHER")
        ))
        assert triples == [
            (SHARED_MUTABLE_GLOBAL, "src/repro/exp/work.py", 6)
        ]
        assert "repro.exp.work:_TOTALS" in findings[0].message

    def test_scheduler_method_dispatch_is_an_entry(self):
        analysis = build_analysis(
            (
                "src/repro/exp/driver.py",
                """\
                from repro.runtime.scheduler import TaskScheduler

                from repro.exp.work import unit


                def run(scheduler):
                    return scheduler.map(unit, [(1,)])
                """,
            ),
            WORK,
        )
        [entry] = analysis.task_entries
        assert entry.key == "repro.exp.work:unit"
        assert entry.via == "scheduler.map"
        triples, _ = effect_triples(analysis)
        assert triples == [
            (SHARED_MUTABLE_GLOBAL, "src/repro/exp/work.py", 4)
        ]


class TestCacheKeyEscape:
    CACHEMOD = (
        "src/repro/buildx/cachemod.py",
        """\
        _FLAGS = {"fast": True}


        def set_flag(name, value):
            _FLAGS[name] = value


        def fetch(cache, key):
            return cache.get_or_build(key, _build)


        def _build():
            if _FLAGS["fast"]:
                return open("data.bin").read()
            return b""
        """,
    )

    def test_builder_reading_state_and_io_is_reported(self):
        analysis = build_analysis(self.CACHEMOD)
        [entry] = analysis.cache_builders
        assert entry.key == "repro.buildx.cachemod:_build"
        assert entry.via == "get_or_build"
        assert entry.site_line == 9
        triples, findings = effect_triples(analysis)
        assert triples == [
            (CACHE_KEY_ESCAPE, "src/repro/buildx/cachemod.py", 12),
            (CACHE_KEY_ESCAPE, "src/repro/buildx/cachemod.py", 12),
        ]
        messages = sorted(f.message for f in findings)
        assert "performs IO via open" in messages[0]
        assert (
            "reads module state repro.buildx.cachemod:_FLAGS"
        ) in messages[1]
        assert (
            "_build -> repro.buildx.cachemod:_FLAGS "
            "(src/repro/buildx/cachemod.py:13)"
        ) in messages[1]

    def test_lambda_builder_resolves_to_its_call_targets(self):
        analysis = build_analysis((
            "src/repro/buildx/lam.py",
            """\
            _MODE = {"x": 1}


            def poke():
                _MODE["x"] = 2


            def fetch(cache, key):
                return cache.get_or_build(key, lambda: _make(key))


            def _make(key):
                return _MODE["x"]
            """,
        ))
        [entry] = analysis.cache_builders
        assert entry.key == "repro.buildx.lam:_make"
        triples, _ = effect_triples(analysis)
        assert triples == [(CACHE_KEY_ESCAPE, "src/repro/buildx/lam.py", 12)]

    def test_constant_table_reads_do_not_escape(self):
        # _TABLE is never written in-project: a constant, not state.
        triples, _ = effect_triples(build_analysis((
            "src/repro/buildx/const.py",
            """\
            _TABLE = {"a": 1}


            def fetch(cache, key):
                return cache.get_or_build(key, _build)


            def _build():
                return _TABLE["a"]
            """,
        )))
        assert triples == []


class TestImpureEventHandler:
    def test_handler_writing_module_state_is_reported(self):
        triples, findings = effect_triples(build_analysis((
            "src/repro/simulator/customloop.py",
            """\
            _SEEN = []


            class Loop:
                def _handle_request(self, event):
                    _SEEN.append(event)
                    return None
            """,
        )))
        assert triples == [
            (IMPURE_EVENT_HANDLER, "src/repro/simulator/customloop.py", 5)
        ]
        [finding] = findings
        assert (
            "Loop._handle_request -> repro.simulator.customloop:_SEEN "
            "(src/repro/simulator/customloop.py:6)"
        ) in finding.message

    def test_handler_table_registration_is_discovered(self):
        analysis = build_analysis((
            "src/repro/simulator/tabled.py",
            """\
            class Loop:
                def __init__(self):
                    self._handlers = {int: self.on_request}

                def on_request(self, event):
                    print(event)
            """,
        ))
        assert analysis.event_handlers == [
            "repro.simulator.tabled:Loop.on_request"
        ]
        triples, _ = effect_triples(analysis)
        assert triples == [
            (IMPURE_EVENT_HANDLER, "src/repro/simulator/tabled.py", 5)
        ]

    def test_naming_convention_is_scoped_to_the_simulator(self):
        # The same method outside repro.simulator.* is not a handler.
        analysis = build_analysis((
            "src/repro/analysis/loopish.py",
            """\
            _SEEN = []


            class Loop:
                def _handle_request(self, event):
                    _SEEN.append(event)
            """,
        ))
        assert analysis.event_handlers == []
        triples, _ = effect_triples(analysis)
        assert triples == []

    def test_instance_state_mutation_is_engine_owned(self):
        triples, _ = effect_triples(build_analysis((
            "src/repro/simulator/clean.py",
            """\
            class Loop:
                def __init__(self):
                    self.hits = 0

                def _handle_request(self, event):
                    self.hits += 1
            """,
        )))
        assert triples == []


class TestForkHeldResource:
    def test_import_time_lock_used_in_task_is_reported(self):
        triples, findings = effect_triples(build_analysis((
            "src/repro/exp/forked.py",
            """\
            import threading

            from repro.runtime.scheduler import map_tasks

            _LOCK = threading.Lock()


            def run_all(items):
                return map_tasks(work, items)


            def work(item):
                with _LOCK:
                    return item
            """,
        )))
        assert triples == [
            (FORK_HELD_RESOURCE, "src/repro/exp/forked.py", 12)
        ]
        [finding] = findings
        assert "repro.exp.forked:_LOCK" in finding.message
        assert (
            "created at import time (src/repro/exp/forked.py:5)"
        ) in finding.message
        assert (
            "work -> repro.exp.forked:_LOCK (src/repro/exp/forked.py:13)"
        ) in finding.message

    def test_lock_outside_any_task_is_fine(self):
        triples, _ = effect_triples(build_analysis((
            "src/repro/exp/serial.py",
            """\
            import threading

            _LOCK = threading.Lock()


            def work(item):
                with _LOCK:
                    return item
            """,
        )))
        assert triples == []


class TestFixpoint:
    def test_mutual_recursion_converges_and_propagates(self):
        analysis = build_analysis((
            "src/repro/exp/cyc.py",
            """\
            _STATE = {}


            def a(n):
                if n:
                    return b(n - 1)
                return 0


            def b(n):
                _STATE[n] = n
                return a(n)
            """,
        ))
        for name in ("a", "b"):
            summary = analysis.summaries[f"repro.exp.cyc:{name}"]
            assert summary.writes == {"repro.exp.cyc:_STATE"}
            assert analysis.classify(f"repro.exp.cyc:{name}") == "mutates"

    def test_self_recursion_with_io_converges(self):
        analysis = build_analysis((
            "src/repro/exp/rec.py",
            """\
            def crawl(n):
                if n:
                    crawl(n - 1)
                print(n)
            """,
        ))
        assert analysis.summaries["repro.exp.rec:crawl"].io == {"print"}
        assert analysis.classify("repro.exp.rec:crawl") == "io"

    def test_effects_do_not_cross_boundary_modules(self):
        # repro.utils.rng is hand-audited machinery: its effects stay
        # contained, and calls through it do not propagate effects.
        analysis = build_analysis(
            (
                "src/repro/exp/caller.py",
                """\
                from repro.utils.rng import draw


                def use():
                    return draw()
                """,
            ),
            (
                "src/repro/utils/rng.py",
                """\
                _CACHE = {}


                def draw():
                    _CACHE[0] = 1
                    return 0
                """,
            ),
        )
        assert analysis.classify("repro.exp.caller:use") == "pure"
        assert analysis.classify("repro.utils.rng:draw") == "pure"


class TestPragmas:
    def test_anchor_pragma_suppresses_via_project_passes(self):
        driver = make_source(*DRIVER)
        work = make_source(
            "src/repro/exp/work.py",
            textwrap.dedent("""\
            _TOTALS = {}


            def unit(item):  # repro-lint: allow[shared-mutable-global]
                _bump(item)
                return item


            def _bump(item):
                _TOTALS[item] = 1
            """),
        )
        findings, suppressed = run_project_passes([driver, work])
        assert [
            f for f in findings if f.rule_id == SHARED_MUTABLE_GLOBAL
        ] == []
        assert suppressed >= 1

    def test_site_pragma_suppresses_at_the_effect_line(self):
        triples, _ = effect_triples(build_analysis(
            DRIVER,
            (
                "src/repro/exp/work.py",
                """\
                _TOTALS = {}


                def unit(item):
                    _bump(item)
                    return item


                def _bump(item):
                    # repro-lint: allow[shared-mutable-global]
                    _TOTALS[item] = 1
                """,
            ),
        ))
        assert triples == []


class TestRuleCatalog:
    def test_all_four_rules_are_catalogued(self):
        catalog = effect_rule_catalog()
        assert set(catalog) == {
            SHARED_MUTABLE_GLOBAL, CACHE_KEY_ESCAPE,
            IMPURE_EVENT_HANDLER, FORK_HELD_RESOURCE,
        }


class TestEffectReport:
    def test_report_rows_carry_flags_and_effects(self):
        analysis = build_analysis(DRIVER, WORK)
        payload = effect_report(analysis, effect_findings(analysis))
        rows = {row["function"]: row for row in payload["functions"]}
        unit = rows["repro.exp.work:unit"]
        assert unit["task_entry"] is True
        assert unit["task_reachable"] is True
        assert unit["effect"] == "mutates"
        assert unit["writes"] == ["repro.exp.work:_TOTALS"]
        driver_run = rows["repro.exp.driver:run"]
        assert driver_run["task_entry"] is False
        [gvar] = payload["globals"]
        assert gvar["global"] == "repro.exp.work:_TOTALS"
        assert gvar["stateful"] is True
        assert gvar["merge_back"] is None
        [task] = payload["entry_points"]["tasks"]
        assert task["via"] == "map_tasks"
        [record] = payload["findings"]
        assert record["rule"] == SHARED_MUTABLE_GLOBAL

    def test_function_filter_matches_bare_and_qualified_names(self):
        analysis = build_analysis(DRIVER, WORK)
        for query in ("unit", "repro.exp.work:unit"):
            payload = effect_report(analysis, [], function=query)
            assert [row["function"] for row in payload["functions"]] == [
                "repro.exp.work:unit"
            ]


@pytest.fixture
def fixture_tree(tmp_path, monkeypatch):
    """The DRIVER/WORK fixtures on disk, cwd-anchored like a real repo."""
    for path, text in (DRIVER, WORK):
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestEffectsCli:
    def test_json_dump_is_deterministic_and_exits_zero(
        self, fixture_tree, capsys
    ):
        assert main(["lint", "effects", "src", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "effects", "src", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert [f["rule"] for f in payload["findings"]] == [
            SHARED_MUTABLE_GLOBAL
        ]
        [task] = payload["entry_points"]["tasks"]
        assert task["function"] == "repro.exp.work:unit"

    def test_text_mode_summarises_the_table(self, fixture_tree, capsys):
        assert main(["lint", "effects", "src"]) == 0
        out = capsys.readouterr().out
        assert "1 task entries" in out
        assert "repro.exp.work:unit" in out
        assert "1 effect finding(s):" in out

    def test_function_filter_from_the_cli(self, fixture_tree, capsys):
        assert main([
            "lint", "effects", "src", "--function", "unit",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["function"] for row in payload["functions"]] == [
            "repro.exp.work:unit"
        ]

    def test_missing_path_exits_two(self, fixture_tree, capsys):
        assert main(["lint", "effects", "nope"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestGateIntegration:
    def test_effect_findings_gate_and_baseline_round_trip(
        self, fixture_tree, capsys
    ):
        assert main(["lint", "src"]) == 1
        assert SHARED_MUTABLE_GLOBAL in capsys.readouterr().out

        baseline = fixture_tree / "baseline.json"
        assert main([
            "lint", "src", "--baseline", str(baseline),
            "--update-baseline",
        ]) == 0
        capsys.readouterr()
        assert main(["lint", "src", "--baseline", str(baseline)]) == 0
