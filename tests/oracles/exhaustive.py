"""The reordering search's oracle: every candidate priced exactly.

:func:`repro.optimize.optimize` screens candidate orderings with cheap
tier-0/1 ladder answers and confirms only its winner with the exact
tier-2 stack pass.  This oracle skips the screen and prices every
applicable candidate at tier 2, so the search's confirmed misses can be
checked against the true best.
"""

from __future__ import annotations

from repro.experiments import ExperimentSetup
from repro.ladder import Ladder, MatrixDims
from repro.optimize import SearchConfig, candidates_for
from repro.spmv.csr import CSRMatrix
from repro.spmv.sector_policy import SectorPolicy


def exhaustive_tier2_misses(matrix: CSRMatrix, setup: ExperimentSetup,
                            config: SearchConfig) -> dict[str, int]:
    """Each applicable candidate's exact L2 misses under its best sector
    policy, keyed by candidate label."""
    ladder = Ladder(setup)
    dims = MatrixDims.of(matrix)
    policies = [SectorPolicy.from_dict({"l2_sector1_ways": ways}).to_dict()
                for ways in setup.l2_way_options]
    misses = {}
    for candidate in candidates_for(config.strategies):
        if not candidate.applicable(matrix):
            continue
        row_perm, col_perm = candidate.build(matrix, config.seed)
        permuted = (matrix if candidate.label == "identity"
                    else matrix.permute(row_perm, col_perm))
        answer = ladder.answer(
            "predict", dims, lambda m=permuted: m,
            name=f"{matrix.name}|{candidate.label}",
            max_tier=2, policies=policies,
        )
        misses[candidate.label] = min(
            p["l2_misses"] for p in answer.result["predictions"])
    return misses
