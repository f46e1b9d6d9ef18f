"""Cross-module passes: call graph, taint chains, stream labels.

Each test assembles a miniature ``src/repro`` tree out of in-memory
:class:`SourceFile` objects and runs :func:`run_project_passes` over
it, asserting the exact (rule id, path, line) triples — and, for the
taint rules, the rendered call chain in the message.
"""

import ast
import textwrap

from repro.lint import SourceFile, run_project_passes
from repro.lint.project import (
    MODULE_SCOPE,
    ProjectModel,
    fixpoint,
    module_name_for,
)


def make_source(path, snippet):
    source = SourceFile(path, textwrap.dedent(snippet))
    assert source.parse_error is None
    return source


def run_passes(*path_snippets):
    sources = [make_source(path, text) for path, text in path_snippets]
    findings, suppressed = run_project_passes(sources)
    return [(f.rule_id, f.path, f.line) for f in findings], findings, suppressed


class TestModuleNaming:
    def test_repro_anchored_paths(self):
        assert module_name_for("src/repro/utils/rng.py") == "repro.utils.rng"
        assert module_name_for("src/repro/runtime/__init__.py") == (
            "repro.runtime"
        )
        assert module_name_for("src/repro/cli.py") == "repro.cli"

    def test_out_of_tree_path_falls_back_to_stem(self):
        assert module_name_for("scratch/helper.py") == "helper"


class TestTransitiveWallclock:
    def test_helper_behind_helper_is_reported_with_chain(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == [
            ("transitive-wallclock", "src/repro/simulator/eng.py", 3)
        ]
        [finding] = findings
        assert (
            "run -> repro.utils.hlp:outer -> _inner -> time.time "
            "(src/repro/utils/hlp.py:7)"
        ) in finding.message
        assert "perf_seconds" in finding.message

    def test_direct_call_is_left_to_the_per_file_rule(self):
        # A length-1 chain is sim-wallclock's domain, not this pass's.
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                import time

                def run():
                    return time.time()
                """,
            ),
        )
        assert triples == []

    def test_profiling_module_is_a_taint_boundary(self):
        # perf_seconds() is the sanctioned clock: calling through
        # repro.obs.profiling must never taint the caller.
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.obs.profiling import perf_seconds

                def run():
                    return perf_seconds()
                """,
            ),
            (
                "src/repro/obs/profiling.py",
                """\
                import time

                def perf_seconds():
                    return time.perf_counter()
                """,
            ),
        )
        assert triples == []

    def test_sink_pragma_stops_taint_at_the_source(self):
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return time.time()  # repro-lint: allow[sim-wallclock]
                """,
            ),
        )
        assert triples == []

    def test_anchor_pragma_suppresses_the_finding(self):
        triples, _, suppressed = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                # repro-lint: allow[transitive-wallclock]
                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == []
        assert suppressed == 1

    def test_helpers_outside_entry_dirs_are_not_anchors(self):
        # The tainted chain exists, but its head lives in utils/ — only
        # simulator/experiments/core functions anchor findings.
        triples, _, _ = run_passes(
            (
                "src/repro/utils/wrap.py",
                """\
                from repro.utils.hlp import outer

                def convenience():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == []


class TestTransitiveRng:
    def test_stdlib_random_behind_helper(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.noise import jitter

                def run_point():
                    return jitter()
                """,
            ),
            (
                "src/repro/utils/noise.py",
                """\
                import random

                def jitter():
                    return random.random()
                """,
            ),
        )
        assert triples == [
            ("transitive-rng", "src/repro/experiments/fig.py", 3)
        ]
        assert "random.random" in findings[0].message

    def test_rng_factory_module_is_a_taint_boundary(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import spawn_rng

                def run_point():
                    return spawn_rng(7)
                """,
            ),
            (
                "src/repro/utils/rng.py",
                """\
                import numpy as np

                def spawn_rng(seed):
                    return np.random.default_rng(seed)
                """,
            ),
        )
        assert triples == []

    def test_seeded_numpy_constructors_are_not_sinks(self):
        triples, _, _ = run_passes(
            (
                "src/repro/core/scheme.py",
                """\
                from repro.utils.noise import fresh

                def form():
                    return fresh()
                """,
            ),
            (
                "src/repro/utils/noise.py",
                """\
                import numpy as np

                def fresh():
                    return np.random.default_rng(42)
                """,
            ),
        )
        assert triples == []


class TestCallGraphResolution:
    def test_reexport_through_package_init(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/__init__.py",
                """\
                from repro.utils.hlp import outer
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return time.monotonic()
                """,
            ),
        )
        assert triples == [
            ("transitive-wallclock", "src/repro/simulator/eng.py", 3)
        ]
        assert "time.monotonic" in findings[0].message

    def test_self_method_and_nested_def_edges(self):
        # ``step`` is defined twice: the name binds the second ``def``,
        # the first stays a node (line-tagged key) that ``run`` reaches.
        model = ProjectModel.build([
            make_source(
                "src/repro/simulator/eng.py",
                """\
                class Engine:
                    def run(self, fast):
                        if fast:
                            def step():
                                return 1
                        else:
                            def step():
                                return 2
                        return self._tick()

                    def _tick(self):
                        return 0
                """,
            )
        ])
        run_node = model.functions["repro.simulator.eng:Engine.run"]
        targets = {edge.target for edge in run_node.edges if edge.internal}
        assert "repro.simulator.eng:Engine.run.step@4" in targets
        assert "repro.simulator.eng:Engine.run.step" in targets
        assert "repro.simulator.eng:Engine._tick" in targets
        info = model.modules["repro.simulator.eng"]
        last = model.functions[info.functions["Engine.run.step"]]
        assert last.line == 7

    def test_class_body_does_not_inherit_method_edges(self):
        # Methods are not reachable from <module>: importing a module
        # must never count as calling its classes' methods.
        model = ProjectModel.build([
            make_source(
                "src/repro/utils/thing.py",
                """\
                import time

                class Thing:
                    def now(self):
                        return time.time()
                """,
            )
        ])
        module_node = model.functions[f"repro.utils.thing:{MODULE_SCOPE}"]
        assert all(
            edge.target != "time.time" for edge in module_node.edges
        )

    def test_walk_keeps_defs_owners_and_one_edge_per_call(self):
        model = ProjectModel.build([
            make_source(
                "src/repro/simulator/eng.py",
                """\
                class Engine:
                    def run(self):
                        return self._tick()

                    def _tick(self):
                        return 0
                """,
            )
        ])
        run = model.functions["repro.simulator.eng:Engine.run"]
        assert isinstance(run.node, ast.FunctionDef)
        assert run.body is run.node.body
        assert run.enclosing_class == "Engine"
        module = model.functions[f"repro.simulator.eng:{MODULE_SCOPE}"]
        assert module.node is None and module.enclosing_class is None
        info = model.modules["repro.simulator.eng"]
        (call,) = info.calls
        owners = {id(node): owner.key for node, owner, _ in info.nodes}
        assert owners[id(call)] == run.key
        assert model.call_edges[call].target == (
            "repro.simulator.eng:Engine._tick"
        )
        assert model.call_edges[call] in run.edges


class TestFixpoint:
    def test_sweeps_sorted_keys_until_a_sweep_changes_nothing(self):
        # a <- b <- c: each sweep lifts one more link to c's level.
        level = {"a": 0, "b": 0, "c": 3}
        upstream = {"a": "b", "b": "c"}
        order = []

        def step(key):
            order.append(key)
            source = upstream.get(key)
            if source is None or level[key] >= level[source]:
                return False
            level[key] = level[source]
            return True

        assert fixpoint(["c", "b", "a"], step) == 3
        assert order == ["a", "b", "c"] * 3
        assert level == {"a": 3, "b": 3, "c": 3}


class TestStreamLabels:
    def test_duplicate_literal_label_is_reported_at_second_site(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed):
                    factory = RngFactory(seed)
                    a = factory.stream("noise")
                    b = factory.stream("noise")
                    return a, b
                """,
            ),
        )
        assert triples == [
            ("stream-label-collision", "src/repro/experiments/fig.py", 6)
        ]
        assert "line 5" in findings[0].message

    def test_distinct_labels_and_fstrings_are_clean(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed, k):
                    factory = RngFactory(seed)
                    a = factory.stream("noise")
                    b = factory.stream("workload")
                    c = factory.stream(f"k{k}")
                    return a, b, c
                """,
            ),
        )
        assert triples == []

    def test_stream_and_fork_labels_are_separate_namespaces(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed):
                    factory = RngFactory(seed)
                    a = factory.stream("faults")
                    b = factory.fork("faults")
                    return a, b
                """,
            ),
        )
        assert triples == []

    def test_non_literal_label_is_reported(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed, name):
                    return RngFactory(seed).stream(name)
                """,
            ),
        )
        assert triples == [
            ("stream-label-collision", "src/repro/experiments/fig.py", 4)
        ]
        assert "non-literal" in findings[0].message

    def test_same_label_in_different_functions_is_clean(self):
        # Scope is (function, receiver, method): two functions building
        # their own factories may reuse a label freely.
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def one(seed):
                    return RngFactory(seed).stream("noise")

                def two(seed):
                    return RngFactory(seed).stream("noise")
                """,
            ),
        )
        assert triples == []

    def test_rng_module_itself_is_exempt(self):
        triples, _, _ = run_passes(
            (
                "src/repro/utils/rng.py",
                """\
                class RngFactory:
                    def stream(self, label):
                        return label

                def helper(factory, name):
                    return factory.stream(name)
                """,
            ),
        )
        assert triples == []
