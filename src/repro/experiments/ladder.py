"""The ``ladder`` experiment: Method C's cost/fidelity trade-off, tabulated.

Runs every matrix of a collection through :class:`repro.ladder.Ladder`
at one accuracy SLO and prints, per matrix, the tier that answered, its
error bound, the measured and predicted cost, and the escalation path —
then a per-tier summary.  This is the operational view of the fidelity
ladder (which tier would your SLO actually buy?); forcing one tier
(``max_tier``, or an unattainable ``accuracy`` for tier 3) re-measures
the cost constants of :mod:`repro.ladder.cost`.  The calibration view
(are the bounds honest?) is the ladder's observed-error test.
"""

from __future__ import annotations

from collections import Counter

from ..ladder import Ladder, LadderAnswer, MatrixDims
from ..matrices.collection import collection
from ..spmv.sector_policy import SectorPolicy
from .common import ExperimentSetup


def run_ladder(
    collection_name: str,
    setup: ExperimentSetup,
    accuracy: float | None = None,
    max_tier: int = 3,
    limit: int | None = None,
    verbose: bool = False,
) -> list[dict]:
    """One ``predict`` ladder answer per collection matrix.

    Returns rows of ``{name, class, tier, bound, cost_seconds,
    predicted_seconds, tiers_tried, slo_met}``.
    """
    machine = setup.machine()
    ladder = Ladder(setup)
    policies = [
        SectorPolicy.from_dict({"l2_sector1_ways": w}).to_dict()
        for w in setup.l2_way_options
    ]
    specs = collection(collection_name, machine=machine)
    if limit is not None:
        specs = specs[:limit]
    rows = []
    for spec in specs:
        matrix = spec.materialize()
        dims = MatrixDims.of(matrix)
        answer: LadderAnswer = ladder.answer(
            "predict", dims, lambda m=matrix: m, name=matrix.name,
            accuracy=accuracy, max_tier=max_tier, policies=policies,
        )
        from ..core.classification import classify

        cls = classify(dims, machine, max(setup.l2_way_options),
                       machine.cmgs_used(setup.num_threads))
        rows.append({
            "name": matrix.name,
            "class": cls.value,
            "tier": answer.tier,
            "bound": answer.error_bound,
            "cost_seconds": answer.cost_seconds,
            "predicted_seconds": answer.predicted_cost_seconds,
            "tiers_tried": list(answer.tiers_tried),
            "slo_met": answer.slo_met,
        })
        if verbose:
            print(f"  {matrix.name}: tier {answer.tier} "
                  f"(bound {answer.error_bound:.3f}, "
                  f"{answer.cost_seconds * 1e3:.1f} ms)")
    return rows


def render_ladder(rows: list[dict], accuracy: float | None,
                  max_tier: int) -> str:
    """The per-matrix table plus the per-tier summary."""
    slo = "none (legacy fidelity)" if accuracy is None else f"{accuracy:g}"
    lines = [
        f"Method C fidelity ladder: predict, accuracy SLO = {slo}, "
        f"max tier = {max_tier}",
        f"{'matrix':<28} {'class':>5} {'tier':>4} {'bound':>7} "
        f"{'cost[ms]':>9} {'pred[ms]':>9} {'met':>4}  tiers tried",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['class']:>5} {row['tier']:>4} "
            f"{row['bound']:>7.3f} {row['cost_seconds'] * 1e3:>9.2f} "
            f"{row['predicted_seconds'] * 1e3:>9.2f} "
            f"{'yes' if row['slo_met'] else 'NO':>4}  "
            + "->".join(str(t) for t in row["tiers_tried"])
        )
    tiers = Counter(row["tier"] for row in rows)
    escalated = sum(1 for row in rows if len(row["tiers_tried"]) > 1)
    unmet = sum(1 for row in rows if not row["slo_met"])
    total_ms = sum(row["cost_seconds"] for row in rows) * 1e3
    lines.append(
        "per-tier answers: "
        + ", ".join(f"tier {t}: {tiers[t]}" for t in sorted(tiers))
        + f"; escalated: {escalated}/{len(rows)}"
        + f"; SLO unmet: {unmet}"
        + f"; total cost: {total_ms:.1f} ms"
    )
    return "\n".join(lines)
