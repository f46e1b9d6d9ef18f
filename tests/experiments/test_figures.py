"""Smoke tests for every figure experiment at tiny scale.

These check structure (right series, right x-axis) and the cheap shape
properties; the full-scale shape assertions live in the benchmarks.
"""

import pytest

from repro.experiments import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)
from repro.experiments.figr_fault_sweep import run_figr


@pytest.mark.parametrize("repetitions", [0, -1])
@pytest.mark.parametrize(
    "runner",
    [run_fig4, run_fig5, run_fig6, run_fig7, run_fig8, run_fig9, run_figr],
    ids=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "figR"],
)
def test_bad_repetitions_rejected(runner, repetitions):
    """Every repeated sweep rejects fewer than one repetition."""
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        runner(repetitions=repetitions)


class TestFig3:
    def test_structure(self):
        result = run_fig3(
            num_caches=20, group_sizes=(1, 4, 20), subset_count=4, seed=1
        )
        assert result.experiment_id == "fig3"
        assert result.x_values == (1, 4, 20)
        names = {s.name for s in result.series}
        assert names == {"all_caches_ms", "nearest_4_ms", "farthest_4_ms"}

    def test_oversized_groups_skipped(self):
        result = run_fig3(
            num_caches=10, group_sizes=(2, 50), subset_count=3, seed=1
        )
        assert result.x_values == (2,)

    def test_bad_group_size_rejected(self):
        with pytest.raises(ValueError):
            run_fig3(num_caches=10, group_sizes=(0,))

    def test_testbed_reuse(self):
        """One testbed build serves every sweep point (cache hits)."""
        from repro.runtime.cache import get_cache, reset_cache

        reset_cache()
        try:
            result = run_fig3(
                num_caches=12, group_sizes=(2, 6), subset_count=3, seed=4
            )
            stats = get_cache().stats()
        finally:
            reset_cache()
        assert result.notes["num_caches"] == 12.0
        assert stats["hits"] == len(result.x_values)


class TestFig4:
    def test_structure_and_order(self):
        result = run_fig4(
            network_sizes=(12, 20), num_landmarks=4, repetitions=1, seed=2
        )
        assert result.x_values == (12, 20)
        assert {s.name for s in result.series} == {
            "sl_ms", "random_ms", "mindist_ms",
        }
        assert "improvement_over_random_pct_min" in result.notes


class TestFig5:
    def test_structure(self):
        result = run_fig5(
            num_caches=15, k_values=(2, 5), num_landmarks=4,
            repetitions=1, seed=3,
        )
        assert result.x_values == (2, 5)
        assert len(result.series) == 3

    def test_gicost_decreases_with_k(self):
        result = run_fig5(
            num_caches=20, k_values=(2, 10), num_landmarks=5,
            repetitions=2, seed=3,
        )
        sl = result.series_named("sl_ms").values
        assert sl[-1] < sl[0]

    def test_k_bounds_checked(self):
        with pytest.raises(ValueError):
            run_fig5(num_caches=10, k_values=(50,))


class TestFig6:
    def test_structure(self):
        result = run_fig6(
            num_caches=15, landmark_counts=(3, 5), num_groups=3,
            repetitions=1, seed=4,
        )
        assert result.x_values == (3, 5)
        assert result.notes["num_groups"] == 3.0

    def test_bad_landmark_count_rejected(self):
        with pytest.raises(ValueError):
            run_fig6(num_caches=15, landmark_counts=(1,))


class TestFig7:
    def test_structure(self):
        result = run_fig7(
            num_caches=12, k_values=(3,), num_landmarks=5,
            gnp_dimensions=2, repetitions=1, seed=5,
        )
        assert {s.name for s in result.series} == {
            "sl_feature_vectors_ms", "euclidean_gnp_ms",
        }

    def test_near_parity(self):
        """Feature vectors and GNP coordinates cluster comparably."""
        result = run_fig7(
            num_caches=25, k_values=(4,), num_landmarks=6,
            gnp_dimensions=3, repetitions=2, seed=5,
        )
        sl = result.series_named("sl_feature_vectors_ms").values[0]
        gnp = result.series_named("euclidean_gnp_ms").values[0]
        assert gnp == pytest.approx(sl, rel=0.5)


class TestFig8:
    def test_structure(self):
        result = run_fig8(
            network_sizes=(14,), num_landmarks=4, repetitions=1, seed=6
        )
        assert {s.name for s in result.series} == {
            "sl_k10_ms", "sdsl_k10_ms", "sl_k20_ms", "sdsl_k20_ms",
        }
        assert "max_improvement_k20_pct" in result.notes


class TestFig9:
    def test_structure(self):
        result = run_fig9(
            num_caches=14, k_values=(2, 4), num_landmarks=4,
            repetitions=1, seed=7,
        )
        assert result.x_values == (2, 4)
        assert {s.name for s in result.series} == {"sl_ms", "sdsl_ms"}
        assert "mean_improvement_pct" in result.notes
