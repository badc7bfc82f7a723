"""Tables 2 and 3: accuracy of the cache-miss model (MAPE of Eq. 3).

Table 2 evaluates sequential SpMV, Table 3 parallel SpMV with 48 threads.
For every L2 sector configuration (none, 2-7 ways for the matrix data),
the mean and standard deviation of the absolute percentage error between
the simulated ("measured") and the predicted L2 misses is reported for
methods (A) and (B).  Following the paper, only matrices whose working
set exceeds the L2 capacity seen by the run (one segment sequentially,
all four in parallel) enter the statistics, and the Section-4.5.2
regularity filter (mu_K >= 8, CV_K <= 1) is available for the method-B
sensitivity numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.mape import ErrorStats, error_stats
from ..analysis.report import render_table
from ..machine.a64fx import A64FX
from ..matrices.stats import meets_method_b_regularity
from .common import MatrixRecord


@dataclass(frozen=True)
class AccuracyRow:
    """One table row: errors of both methods for one configuration."""

    config: str
    method_a: ErrorStats
    method_b: ErrorStats


def _eligible(records: list[MatrixRecord], machine: A64FX, parallel: bool) -> list[MatrixRecord]:
    threshold = machine.l2.capacity_bytes * (machine.num_cmgs if parallel else 1)
    return [r for r in records if r.working_set_bytes > threshold]


def accuracy_rows(
    records: list[MatrixRecord],
    machine: A64FX,
    parallel: bool,
    l2_way_options: tuple[int, ...] = (0, 2, 3, 4, 5, 6, 7),
    regular_only: bool = False,
) -> list[AccuracyRow]:
    """MAPE rows for the given configurations over eligible matrices."""
    eligible = _eligible(records, machine, parallel)
    if regular_only:
        eligible = [r for r in eligible if meets_method_b_regularity(r)]
    rows = []
    for l2w in l2_way_options:
        usable = [r for r in eligible if r.l2_misses(l2w, 0) > 0]
        if not usable:
            continue
        measured = np.array([r.l2_misses(l2w, 0) for r in usable], dtype=np.float64)
        pred_a = np.array([r.model_a[str(l2w)] for r in usable], dtype=np.float64)
        pred_b = np.array([r.model_b[str(l2w)] for r in usable], dtype=np.float64)
        label = "No Sector Cache" if l2w == 0 else f"{l2w} L2 ways"
        rows.append(
            AccuracyRow(
                config=label,
                method_a=error_stats(measured, pred_a),
                method_b=error_stats(measured, pred_b),
            )
        )
    return rows


def l1_accuracy(records: list[MatrixRecord], machine: A64FX, parallel: bool) -> AccuracyRow:
    """Section 4.5.4: L1 miss-prediction error, sector cache off."""
    eligible = [
        r
        for r in _eligible(records, machine, parallel)
        if r.measured["0,0"]["l1_refill"] > 0
    ]
    measured = np.array([r.measured["0,0"]["l1_refill"] for r in eligible], dtype=np.float64)
    pred_a = np.array([r.model_a_l1 for r in eligible], dtype=np.float64)
    pred_b = np.array([r.model_b_l1 for r in eligible], dtype=np.float64)
    return AccuracyRow(
        config="L1, no sector cache",
        method_a=error_stats(measured, pred_a),
        method_b=error_stats(measured, pred_b),
    )


def render_accuracy_table(rows: list[AccuracyRow], title: str) -> str:
    return render_table(
        ["L2 Sector Cache", "A: Mean", "A: Std", "B: Mean", "B: Std", "n"],
        [
            (
                row.config,
                f"{row.method_a.mape:.2f} %",
                f"{row.method_a.std:.2f} %",
                f"{row.method_b.mape:.2f} %",
                f"{row.method_b.std:.2f} %",
                row.method_a.count,
            )
            for row in rows
        ],
        title=title,
    )


def method_overhead(records: list[MatrixRecord]) -> dict[str, float]:
    """Section 4.5.1: average t_A / t_B and the absolute method-B runtime."""
    ratios = [
        r.model_a_seconds / r.model_b_seconds
        for r in records
        if r.model_b_seconds > 0
    ]
    return {
        "mean_ta_over_tb": float(np.mean(ratios)) if ratios else 0.0,
        "mean_tb_seconds": float(np.mean([r.model_b_seconds for r in records])),
        "mean_ta_seconds": float(np.mean([r.model_a_seconds for r in records])),
    }
