"""Experiment drivers, persistent store, aggregation, and reporting.

One driver per paper figure (:mod:`repro.eval.experiments`), ablations
(:mod:`repro.eval.ablations`), the append-only experiment store that
makes sweeps resumable (:mod:`repro.eval.store`), seed aggregation
(:mod:`repro.eval.aggregate`), and the headline report generator behind
``repro report`` (:mod:`repro.eval.report`).
"""

from repro.eval.ablations import (
    KSweepResult,
    MiceOrderResult,
    PathFindingResult,
    ablation_k_sweep,
    ablation_mice_order,
    ablation_path_finding,
    exact_max_flow,
)
from repro.eval.experiments import (
    Fig3Result,
    Fig4Result,
    Fig8Result,
    Fig9Result,
    Fig10Result,
    Fig11Result,
    SweepResult,
    TestbedFigureResult,
    fig3_size_cdfs,
    fig4_recurrence,
    fig6_capacity_sweep,
    fig7_load_sweep,
    fig8_probing_overhead,
    fig9_fee_optimization,
    fig10_threshold_sweep,
    fig11_mice_paths_sweep,
    testbed_figure,
)
from repro.eval.aggregate import (
    MetricStats,
    pivot_markdown,
    pivot_metric,
    t_critical_95,
)
from repro.eval.report import (
    ReportArtifacts,
    check_golden,
    generate_report,
    report_factories,
)
from repro.eval.store import (
    ExperimentStore,
    canonical_json,
    make_record,
    params_hash,
)

__all__ = [
    "ExperimentStore",
    "MetricStats",
    "ReportArtifacts",
    "Fig10Result",
    "Fig11Result",
    "Fig3Result",
    "Fig4Result",
    "Fig8Result",
    "Fig9Result",
    "KSweepResult",
    "MiceOrderResult",
    "PathFindingResult",
    "SweepResult",
    "TestbedFigureResult",
    "ablation_k_sweep",
    "ablation_mice_order",
    "ablation_path_finding",
    "canonical_json",
    "check_golden",
    "exact_max_flow",
    "fig10_threshold_sweep",
    "fig11_mice_paths_sweep",
    "fig3_size_cdfs",
    "fig4_recurrence",
    "fig6_capacity_sweep",
    "fig7_load_sweep",
    "fig8_probing_overhead",
    "fig9_fee_optimization",
    "generate_report",
    "make_record",
    "params_hash",
    "pivot_markdown",
    "pivot_metric",
    "report_factories",
    "t_critical_95",
    "testbed_figure",
]
