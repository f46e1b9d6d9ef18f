"""Property tests for the reporting/comparison utilities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.asciiplot import sketch
from repro.analysis.compare import compare_results
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.clustering.hierarchical import HierarchicalClustering

finite_positive = st.floats(
    min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def experiment_results(draw):
    points = draw(st.integers(2, 8))
    num_series = draw(st.integers(1, 4))
    series = tuple(
        SeriesResult(
            name=f"s{i}_ms",
            values=tuple(
                draw(
                    st.lists(
                        finite_positive, min_size=points, max_size=points
                    )
                )
            ),
        )
        for i in range(num_series)
    )
    return ExperimentResult(
        experiment_id="prop",
        x_label="x",
        x_values=tuple(range(points)),
        series=series,
    )


class TestSketchProperties:
    @settings(max_examples=40, deadline=None)
    @given(experiment_results())
    def test_never_crashes_and_names_all_series(self, result):
        text = sketch(result)
        for series in result.series:
            assert series.name in text
        # Fixed frame: chart rows + axis + label + legend.
        assert len(text.splitlines()) == 12 + 3


class TestCompareProperties:
    @settings(max_examples=40, deadline=None)
    @given(experiment_results())
    def test_self_comparison_is_clean(self, result):
        report = compare_results(result, result)
        assert report.regressions(tolerance=0.0) == []
        for series in report.series:
            assert all(d == 0.0 for d in series.relative_deltas)

    @settings(max_examples=40, deadline=None)
    @given(experiment_results(), st.floats(1.2, 3.0))
    def test_uniform_inflation_detected(self, result, factor):
        inflated = ExperimentResult(
            experiment_id=result.experiment_id,
            x_label=result.x_label,
            x_values=result.x_values,
            series=tuple(
                SeriesResult(
                    s.name, tuple(v * factor for v in s.values)
                )
                for s in result.series
            ),
        )
        report = compare_results(result, inflated)
        assert set(report.regressions(tolerance=factor - 1.1)) == {
            s.name for s in result.series
        }


@st.composite
def dissimilarity_matrices(draw):
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    points = rng.random((n, 2)) * 100
    d = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    k = draw(st.integers(1, n))
    return d, k


class TestHierarchicalProperties:
    @settings(max_examples=40, deadline=None)
    @given(dissimilarity_matrices())
    def test_partition_invariants(self, case):
        d, k = case
        result = HierarchicalClustering(k=k).fit(d)
        assert result.labels.shape == (d.shape[0],)
        assert result.cluster_sizes().sum() == d.shape[0]
        assert 1 <= result.k <= k
        assert result.sse >= 0
