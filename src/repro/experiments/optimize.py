"""The ``optimize`` experiment: reordering improvements per paper class.

Runs the budgeted reordering search (:mod:`repro.optimize`) over every
matrix of a collection and prints, per matrix, the winning strategy and
the tier-2-confirmed before/after L2 misses — then a per-class summary
(which locality classes reordering actually helps).  Class 1/2 matrices
gate out (the closed forms already price x at zero misses under the best
policy); class-3 matrices with recoverable structure are where the wins
live.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.classification import classify
from ..ladder import MatrixDims
from ..matrices.collection import collection
from ..optimize import SearchConfig, optimize
from .common import ExperimentSetup


def run_optimize(
    collection_name: str,
    setup: ExperimentSetup,
    config: SearchConfig | None = None,
    limit: int | None = None,
    verbose: bool = False,
) -> list[dict]:
    """One reordering search per collection matrix.

    Returns rows of ``{name, class, winner, gated, before, after,
    improvement, answers}``.
    """
    machine = setup.machine()
    config = config or SearchConfig()
    specs = collection(collection_name, machine=machine)
    if limit is not None:
        specs = specs[:limit]
    rows = []
    for spec in specs:
        matrix = spec.materialize()
        dims = MatrixDims.of(matrix)
        cls = classify(dims, machine, max(setup.l2_way_options),
                       machine.cmgs_used(setup.num_threads))
        result = optimize(matrix, setup, config).to_dict()
        confirmation = result["confirmation"]
        rows.append({
            "name": matrix.name,
            "class": cls.value,
            "winner": result["winner"]["label"],
            "gated": result["fidelity"]["gated"],
            "before": confirmation["before_misses"],
            "after": confirmation["after_misses"],
            "improvement": confirmation["improvement"],
            "answers": result["fidelity"]["ladder_answers"],
        })
        if verbose:
            print(f"  {matrix.name}: {result['winner']['label']} "
                  f"({confirmation['improvement']:+.1%})")
    return rows


def render_optimize(rows: list[dict], config: SearchConfig) -> str:
    """The per-matrix table plus the per-class improvement summary."""
    lines = [
        f"Reordering search: strategies = {', '.join(config.strategies)}, "
        f"budget = {config.budget_seconds:g}s, seed = {config.seed}",
        f"{'matrix':<28} {'class':>5} {'winner':<16} {'before':>10} "
        f"{'after':>10} {'improve':>8}  answers",
    ]
    for row in rows:
        answers = " ".join(f"t{t}:{n}" for t, n in sorted(row["answers"].items()))
        winner = row["winner"] + (" (gated)" if row["gated"] else "")
        lines.append(
            f"{row['name']:<28} {row['class']:>5} {winner:<16} "
            f"{row['before']:>10} {row['after']:>10} "
            f"{row['improvement']:>7.1%}  {answers}"
        )
    by_class: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        by_class[row["class"]].append(row)
    lines.append("per-class improvement:")
    for cls in sorted(by_class):
        group = by_class[cls]
        improved = [r for r in group if r["improvement"] > 0]
        best = max(group, key=lambda r: r["improvement"])
        mean = sum(r["improvement"] for r in group) / len(group)
        lines.append(
            f"  class {cls}: {len(improved)}/{len(group)} improved, "
            f"mean {mean:.1%}, best {best['improvement']:.1%} "
            f"({best['name']} via {best['winner']})"
        )
    return "\n".join(lines)
