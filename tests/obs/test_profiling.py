"""Tests for repro.obs.profiling: phase registries and ambient timers."""

from repro.obs import (
    PhaseRegistry,
    activate,
    current_registry,
    phase_timer,
)


class TestPhaseRegistry:
    def test_accumulates_calls_and_totals(self):
        registry = PhaseRegistry()
        for _ in range(3):
            with registry.time("probe"):
                pass
        timing = registry.timings()["probe"]
        assert timing.calls == 3
        assert timing.total_s >= 0.0
        assert timing.max_s <= timing.total_s

    def test_nested_timers_get_qualified_names(self):
        registry = PhaseRegistry()
        with registry.time("landmarks"):
            with registry.time("probe"):
                pass
            with registry.time("greedy"):
                pass
        names = set(registry.total_seconds())
        assert names == {
            "landmarks", "landmarks/probe", "landmarks/greedy"
        }
        # the outer phase's wall-clock includes the nested ones
        totals = registry.total_seconds()
        assert totals["landmarks"] >= totals["landmarks/probe"]

    def test_merge_totals(self):
        registry = PhaseRegistry()
        registry.merge_totals({"cluster": 0.5})
        registry.merge_totals({"cluster": 0.25})
        timing = registry.timings()["cluster"]
        assert timing.calls == 2
        assert timing.total_s == 0.75
        assert timing.max_s == 0.5

    def test_contains_and_len(self):
        registry = PhaseRegistry()
        with registry.time("x"):
            pass
        assert "x" in registry
        assert len(registry) == 1


class TestAmbientTimer:
    def test_noop_without_active_registry(self):
        assert current_registry() is None
        with phase_timer("anything"):
            pass  # must not raise, must not record anywhere

    def test_records_into_active_registry(self):
        registry = PhaseRegistry()
        with activate(registry):
            assert current_registry() is registry
            with phase_timer("stage"):
                with phase_timer("inner"):
                    pass
        assert current_registry() is None
        assert set(registry.total_seconds()) == {"stage", "stage/inner"}

    def test_activation_restores_previous_registry(self):
        outer, inner = PhaseRegistry(), PhaseRegistry()
        with activate(outer):
            with activate(inner):
                with phase_timer("work"):
                    pass
            assert current_registry() is outer
        assert "work" in inner
        assert "work" not in outer


class TestCoordinatorPhases:
    def form(self):
        from repro.config import LandmarkConfig
        from repro.core.schemes import scheme_by_name
        from repro.topology import build_network

        network = build_network(num_caches=12, seed=3)
        scheme = scheme_by_name(
            "SDSL", landmark_config=LandmarkConfig(num_landmarks=5)
        )
        return scheme.form_groups(network, 3, seed=3)

    def test_pipeline_records_three_steps(self):
        registry = PhaseRegistry()
        with activate(registry):
            self.form()
        timings = registry.total_seconds()
        assert set(timings) >= {"landmarks", "features", "cluster"}
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_ambient_registry_sees_coordinator_phases(self):
        registry = PhaseRegistry()
        with activate(registry):
            grouping = self.form()
        names = set(registry.total_seconds())
        assert {"landmarks", "features", "cluster"} <= names
        # fine-grained stage timers land in the ambient registry too
        assert any(name.startswith("landmarks/") for name in names)
        assert grouping.num_groups >= 1
