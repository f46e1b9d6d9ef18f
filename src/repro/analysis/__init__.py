"""Evaluation metrics and result reporting.

* :mod:`repro.analysis.gicost` — the paper's *average group interaction
  cost* (clustering-accuracy metric, Figures 4–7);
* :mod:`repro.analysis.latency` — latency comparisons between schemes
  (Figures 3, 8, 9);
* :mod:`repro.analysis.report` — experiment result containers and table
  rendering shared by the benchmark harness.
"""

from repro.analysis.compare import (
    ComparisonReport,
    SeriesComparison,
    compare_results,
)
from repro.analysis.gicost import (
    average_group_interaction_cost,
    group_interaction_cost,
)
from repro.analysis.group_report import (
    GroupSummary,
    group_report_table,
    summarize_groups,
)
from repro.analysis.latency import improvement_percent
from repro.analysis.report import ExperimentResult, SeriesResult

__all__ = [
    "group_interaction_cost",
    "average_group_interaction_cost",
    "improvement_percent",
    "ExperimentResult",
    "SeriesResult",
    "ComparisonReport",
    "SeriesComparison",
    "compare_results",
    "GroupSummary",
    "summarize_groups",
    "group_report_table",
]
