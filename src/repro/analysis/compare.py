"""Compare two experiment results (e.g. archived runs across commits).

``compare_results`` aligns two :class:`ExperimentResult` objects on
their shared x-values and series, and reports per-point deltas plus a
regression verdict per series — the piece that turns archived JSON
results into a CI-able reproduction check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.report import ExperimentResult
from repro.errors import ReproError
from repro.utils.tables import Table


@dataclass(frozen=True)
class SeriesComparison:
    """Delta of one series between a baseline and a candidate run."""

    name: str
    x_values: Tuple
    baseline: Tuple[float, ...]
    candidate: Tuple[float, ...]

    @property
    def relative_deltas(self) -> Tuple[float, ...]:
        """Per-point (candidate - baseline) / baseline."""
        out = []
        for b, c in zip(self.baseline, self.candidate):
            if b == 0:
                out.append(float("inf") if c != 0 else 0.0)
            else:
                out.append((c - b) / b)
        return tuple(out)

    def regressed(self, tolerance: float = 0.15) -> bool:
        """True if any point moved *upward* beyond ``tolerance``.

        One-sided: lower latency/GICost is an improvement, not a
        regression, so only increases count.
        """
        if tolerance < 0:
            raise ReproError(f"tolerance must be >= 0, got {tolerance}")
        return any(d > tolerance for d in self.relative_deltas)


@dataclass(frozen=True)
class ComparisonReport:
    """All aligned series of one experiment pair."""

    experiment_id: str
    series: Tuple[SeriesComparison, ...]

    def regressions(self, tolerance: float = 0.15) -> List[str]:
        """Names of series that regressed beyond the tolerance."""
        return [s.name for s in self.series if s.regressed(tolerance)]

    def to_table(self) -> Table:
        table = Table(
            ["series", "x", "baseline", "candidate", "delta_pct"]
        )
        for series in self.series:
            for i, x in enumerate(series.x_values):
                delta = series.relative_deltas[i] * 100.0
                table.add_row(
                    [
                        series.name,
                        x,
                        series.baseline[i],
                        series.candidate[i],
                        delta,
                    ]
                )
        return table

    def render(self) -> str:
        lines = [f"== comparison: {self.experiment_id} =="]
        lines.append(self.to_table().render())
        regressed = self.regressions()
        if regressed:
            lines.append(f"REGRESSED: {', '.join(regressed)}")
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def compare_results(
    baseline: ExperimentResult,
    candidate: ExperimentResult,
) -> ComparisonReport:
    """Align two results and compute per-series comparisons.

    Alignment is on shared x-values (in baseline order) and shared
    series names; a pair with no overlap at all is an error.
    """
    if baseline.experiment_id != candidate.experiment_id:
        raise ReproError(
            f"cannot compare {baseline.experiment_id!r} with "
            f"{candidate.experiment_id!r}"
        )
    candidate_x = {x: i for i, x in enumerate(candidate.x_values)}
    shared_x = [x for x in baseline.x_values if x in candidate_x]
    if not shared_x:
        raise ReproError("results share no x-values")
    candidate_series = {s.name: s for s in candidate.series}
    comparisons = []
    for base_series in baseline.series:
        other = candidate_series.get(base_series.name)
        if other is None:
            continue
        base_index = {x: i for i, x in enumerate(baseline.x_values)}
        comparisons.append(
            SeriesComparison(
                name=base_series.name,
                x_values=tuple(shared_x),
                baseline=tuple(
                    float(base_series.values[base_index[x]])
                    for x in shared_x
                ),
                candidate=tuple(
                    float(other.values[candidate_x[x]]) for x in shared_x
                ),
            )
        )
    if not comparisons:
        raise ReproError("results share no series")
    return ComparisonReport(
        experiment_id=baseline.experiment_id, series=tuple(comparisons)
    )
