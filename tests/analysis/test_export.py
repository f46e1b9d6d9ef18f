"""Tests for CSV export."""

import csv

from repro.analysis.export import (
    CACHE_COLUMNS,
    export_cache_stats,
    export_experiment_result,
)
from repro.analysis.report import ExperimentResult, SeriesResult
from repro.simulator import SimulationMetrics
from repro.simulator.latency import ServiceAccount, ServicePath


def account(path, total=10.0):
    return ServiceAccount(
        path=path, total_ms=total, query_ms=0.0, fetch_ms=0.0,
        transfer_ms=0.0,
    )


class TestExportCacheStats:
    def test_rows_and_columns(self, tmp_path):
        metrics = SimulationMetrics([1, 2])
        metrics.record_request(
            1, account(ServicePath.LOCAL_HIT, 5.0), 0, 0, counted=True
        )
        metrics.record_request(
            2, account(ServicePath.ORIGIN_FETCH, 50.0), 2, 800, counted=True
        )
        path = tmp_path / "stats.csv"
        export_cache_stats(metrics, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert set(rows[0]) == set(CACHE_COLUMNS)
        assert rows[0]["local_hits"] == "1"
        assert rows[1]["origin_bytes"] == "800"
        assert float(rows[1]["mean_latency_ms"]) == 50.0

    def test_cache_without_requests(self, tmp_path):
        metrics = SimulationMetrics([1])
        path = tmp_path / "stats.csv"
        export_cache_stats(metrics, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["mean_latency_ms"] == ""


class TestExportExperimentResult:
    def test_layout(self, tmp_path):
        result = ExperimentResult(
            experiment_id="figX",
            x_label="k",
            x_values=(1, 2),
            series=(
                SeriesResult("a_ms", (1.5, 2.5)),
                SeriesResult("b_ms", (3.0, 4.0)),
            ),
        )
        path = tmp_path / "result.csv"
        export_experiment_result(result, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["k", "a_ms", "b_ms"]
        assert rows[1] == ["1", "1.5", "3.0"]
        assert rows[2] == ["2", "2.5", "4.0"]
