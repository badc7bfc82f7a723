"""The budgeted reordering search: fidelity-ladder screening + confirmation.

:func:`optimize` searches the strategy candidates of
:mod:`repro.optimize.strategies` for the permutation minimizing
*predicted* L2 misses, using :class:`repro.ladder.Ladder` answers as the
objective (min over the setup's L2 way splits of ``l2_misses``):

1. **Gate (tier 0, closed forms).**  Tier-0 predictions depend only on
   the matrix dimensions — which every permutation preserves — so tier 0
   cannot *rank* candidates; what it can do is prove the search moot.
   When the closed forms price x's misses at zero under the best policy
   (class 1/2: x fits its partition), the search short-circuits to the
   identity and only pays one confirmation.
2. **Screen (tier 1, SHARDS rate :data:`SCREEN_RATE`).**  Every candidate is
   screened by a cheap sampled stack pass, under a deterministic cost
   budget: a candidate is admitted only while the *predicted* build +
   screen seconds (the ladder/strategy cost models, never wall clock —
   so the trace replays identically across the fork pool) fit
   ``budget_seconds``.  Candidates worse than :data:`PRUNE_FACTOR` times
   the best screen are pruned.
3. **Refine (tier 1, rate :data:`REFINE_RATE`).**  The surviving top
   :data:`REFINE_TOP_K` non-identity candidates are re-screened at a higher
   sampling rate, budget permitting, to stabilise the ranking.
4. **Confirm (tier 2, exact).**  The winner is confirmed by exact
   before/after predictions — the only exact stack passes of the whole
   search.  A winner that fails to beat the baseline exactly is
   discarded: the returned permutation is then the identity and the
   improvement is zero, never negative.

The result is JSON-ready (:meth:`OptimizeResult.to_dict`) and
deterministic for a fixed ``(matrix, setup, config)`` up to the volatile
``timings`` block — :func:`optimize_fingerprint` hashes everything else.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from ..analysis.report import canonical_json
from ..ladder import Ladder, MatrixDims
from ..obs.tracer import span as obs_span
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy
from .permutations import is_identity
from .strategies import DEFAULT_STRATEGIES, Candidate, candidates_for

#: Keys of the wire result that legitimately differ between identical
#: searches (wall-clock timings); everything else is fingerprinted.
OPTIMIZE_VOLATILE_FIELDS = ("timings",)

#: the fixed search schedule (steps 2-3 above), reported in ``search``
SCREEN_RATE = 0.1
REFINE_RATE = 0.25
REFINE_TOP_K = 2
PRUNE_FACTOR = 1.25


@dataclass(frozen=True)
class SearchConfig:
    """Tunables of one reordering search (all part of the cache key)."""

    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    budget_seconds: float = 30.0
    seed: int = 0
    #: confirmation accuracy SLO: ``None`` pins the exact tier-2 pass;
    #: a bound lets the ladder pick the cheapest satisfying tier (and
    #: escalate to the tier-3 simulation for very tight bounds)
    accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.accuracy is not None and self.accuracy <= 0:
            raise ValueError("accuracy must be positive")

    @classmethod
    def from_task(cls, task: dict) -> "SearchConfig":
        """Build from a canonical ``optimize`` service task."""
        return cls(
            strategies=tuple(task.get("strategies", DEFAULT_STRATEGIES)),
            budget_seconds=float(task.get("budget_seconds", 30.0)),
            seed=int(task.get("seed", 0)),
            accuracy=task.get("accuracy"),
        )


@dataclass
class _Entry:
    """Per-candidate bookkeeping that becomes the wire ``strategies`` row."""

    candidate: Candidate
    status: str = "pending"
    screened_misses: int | None = None
    refined_misses: int | None = None
    predicted_cost_seconds: float = 0.0
    perms: tuple | None = None

    @property
    def objective(self) -> int | None:
        return (self.refined_misses if self.refined_misses is not None
                else self.screened_misses)

    def to_dict(self) -> dict:
        return {
            "label": self.candidate.label,
            "strategy": self.candidate.strategy,
            "params": dict(self.candidate.params),
            "status": self.status,
            "screened_misses": self.screened_misses,
            "refined_misses": self.refined_misses,
            "predicted_cost_seconds": self.predicted_cost_seconds,
        }


@dataclass
class OptimizeResult:
    """One finished search: winner, per-strategy screens, confirmation."""

    name: str
    config: SearchConfig
    policies: list[dict]
    strategies: list[dict]
    winner: dict
    confirmation: dict
    fidelity: dict
    trace: list[dict]
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "search": {
                "strategies": list(self.config.strategies),
                "budget_seconds": self.config.budget_seconds,
                "seed": self.config.seed,
                "screen_rate": SCREEN_RATE,
                "refine_rate": REFINE_RATE,
                "refine_top_k": REFINE_TOP_K,
                "prune_factor": PRUNE_FACTOR,
                "accuracy": self.config.accuracy,
            },
            "objective": {
                "metric": "min l2_misses over the policy grid",
                "policies": self.policies,
            },
            "strategies": self.strategies,
            "winner": self.winner,
            "confirmation": self.confirmation,
            "fidelity": self.fidelity,
            "trace": self.trace,
            "timings": self.timings,
        }


def optimize_fingerprint(result: dict) -> str:
    """Digest of a wire result minus its volatile (timing) fields."""
    stable = {k: v for k, v in result.items()
              if k not in OPTIMIZE_VOLATILE_FIELDS}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()[:32]


def _objective(answer_result: dict) -> tuple[int, dict]:
    """(min misses, argmin policy) of one predict answer."""
    best = min(answer_result["predictions"],
               key=lambda p: (p["l2_misses"], canonical_json(p["policy"])))
    return int(best["l2_misses"]), best["policy"]


def optimize(matrix: CSRMatrix, setup, config: SearchConfig | None = None,
             ) -> OptimizeResult:
    """Search row/column permutations minimizing predicted L2 misses."""
    config = config or SearchConfig()
    started = time.perf_counter()
    name = matrix.name or "matrix"
    dims = MatrixDims.of(matrix)
    policies = [
        SectorPolicy.from_dict({"l2_sector1_ways": w}).to_dict()
        for w in setup.l2_way_options
    ]
    screen_ladder = Ladder(setup, sampling_rate=SCREEN_RATE)
    refine_ladder = Ladder(setup, sampling_rate=REFINE_RATE)
    exact_ladder = Ladder(setup)
    answers = {0: 0, 1: 0, 2: 0, 3: 0}
    trace: list[dict] = []
    timings: dict = {}
    total_predicted = 0.0
    spent = 0.0  # budgeted (predicted) seconds: screens + refines only

    entries = [_Entry(c) for c in candidates_for(config.strategies)]

    # -- gate: tier 0 (dims-only, permutation-invariant) ----------------
    with obs_span("optimize.gate"):
        gate = exact_ladder.answer(
            "predict", dims, lambda: matrix, name=name,
            max_tier=0, policies=policies,
        )
    answers[0] += 1
    total_predicted += gate.predicted_cost_seconds
    gate_best = min(
        p["per_array"].get("x", 0) for p in gate.result["predictions"]
    )
    gated = gate_best == 0
    trace.append({
        "event": "gate", "tier": 0, "min_x_misses": int(gate_best),
        "short_circuit": gated,
        "predicted_cost_seconds": gate.predicted_cost_seconds,
    })

    if gated:
        # x already fully retained under the best policy: no permutation
        # can lower the closed-form objective, so only identity survives
        for entry in entries:
            entry.status = "gated" if entry.candidate.label != "identity" else "screened"
    else:
        spent = _screen_candidates(
            matrix, dims, name, config, policies, screen_ladder,
            entries, trace, answers, spent,
        )
        _prune(entries, trace)
        spent = _refine_candidates(
            matrix, dims, name, config, policies, refine_ladder,
            entries, trace, answers, spent,
        )
    total_predicted += spent

    # -- winner selection (identity always eligible) ---------------------
    eligible = [e for e in entries
                if e.status in ("screened", "refined")
                and (e.objective is not None
                     or e.candidate.label == "identity")]
    winner_entry = min(
        (e for e in eligible if e.objective is not None),
        key=lambda e: (e.objective, entries.index(e)),
        default=entries[0],
    )

    # -- confirmation: exact before/after -------------------------------
    confirm_kwargs = (
        {"max_tier": 2} if config.accuracy is None
        else {"max_tier": 3, "accuracy": config.accuracy}
    )
    with obs_span("optimize.confirm"):
        before_started = time.perf_counter()
        before = exact_ladder.answer(
            "predict", dims, lambda: matrix, name=name,
            policies=policies, **confirm_kwargs,
        )
        answers[before.tier] += 1
        total_predicted += before.predicted_cost_seconds
        before_misses, before_policy = _objective(before.result)
        after_answer = None
        if winner_entry.candidate.label != "identity":
            permuted = _materialize(matrix, winner_entry, config.seed)
            after_answer = exact_ladder.answer(
                "predict", dims, lambda: permuted, name=name,
                policies=policies, **confirm_kwargs,
            )
            answers[after_answer.tier] += 1
            total_predicted += after_answer.predicted_cost_seconds
        timings["confirm_seconds"] = time.perf_counter() - before_started

    if after_answer is None:
        after_misses, after_policy = before_misses, before_policy
        improved = False
    else:
        after_misses, after_policy = _objective(after_answer.result)
        improved = after_misses < before_misses
        if not improved:
            # the exact pass vetoed the sampled ranking: fall back to
            # identity rather than ship a regression
            winner_entry.status = "rejected"
            trace.append({
                "event": "reject", "label": winner_entry.candidate.label,
                "exact_misses": int(after_misses),
                "baseline_misses": int(before_misses),
            })
            winner_entry = entries[0]
            after_misses, after_policy = before_misses, before_policy
    if winner_entry.status in ("screened", "refined"):
        winner_entry.status = "winner"
    trace.append({
        "event": "confirm",
        "tier": before.tier,
        "label": winner_entry.candidate.label,
        "before_misses": int(before_misses),
        "after_misses": int(after_misses),
    })

    row_perm, col_perm = _winner_perms(matrix, winner_entry, config.seed)
    improvement = (
        (before_misses - after_misses) / before_misses if before_misses else 0.0
    )
    confirmation = {
        "tier": before.tier,
        "error_bound": before.error_bound,
        "before_misses": int(before_misses),
        "after_misses": int(after_misses),
        "best_policy_before": before_policy,
        "best_policy_after": after_policy,
        "improvement": improvement,
        "improved": improved,
    }
    fidelity = {
        "ladder_answers": {str(t): n for t, n in answers.items() if n},
        "screen_rate": SCREEN_RATE,
        "refine_rate": REFINE_RATE,
        "budget_seconds": config.budget_seconds,
        "budget_spent_seconds": spent,
        "predicted_cost_seconds": total_predicted,
        "gated": gated,
    }
    timings["total_seconds"] = time.perf_counter() - started
    return OptimizeResult(
        name=name,
        config=config,
        policies=policies,
        strategies=[e.to_dict() for e in entries],
        winner={
            "label": winner_entry.candidate.label,
            "strategy": winner_entry.candidate.strategy,
            "params": dict(winner_entry.candidate.params),
            "identity": bool(is_identity(row_perm) and is_identity(col_perm)),
            "row_perm": row_perm.tolist(),
            "col_perm": col_perm.tolist(),
        },
        confirmation=confirmation,
        fidelity=fidelity,
        trace=trace,
        timings=timings,
    )


def _screen_candidates(matrix, dims, name, config, policies, ladder,
                       entries, trace, answers, spent: float) -> float:
    """Tier-1 screen of every admitted candidate (identity always admitted)."""
    screen_cost = ladder.predicted_cost(1, dims.nnz, len(policies))
    for entry in entries:
        candidate = entry.candidate
        if not candidate.applicable(matrix):
            entry.status = "inapplicable"
            trace.append({"event": "skip", "label": candidate.label,
                          "reason": "inapplicable"})
            continue
        cost = candidate.cost.predict_seconds(dims.nnz) + screen_cost
        mandatory = candidate.label == "identity"
        if not mandatory and spent + cost > config.budget_seconds:
            entry.status = "skipped_budget"
            trace.append({"event": "skip", "label": candidate.label,
                          "reason": "budget",
                          "predicted_cost_seconds": cost,
                          "budget_spent_seconds": spent})
            continue
        with obs_span(f"optimize.screen.{candidate.label}"):
            permuted = _materialize(matrix, entry, config.seed)
            answer = ladder.answer(
                "predict", dims, lambda m=permuted: m,
                name=f"{name}|{candidate.label}",
                max_tier=1, policies=policies,
            )
        answers[1] += 1
        entry.screened_misses, _ = _objective(answer.result)
        entry.predicted_cost_seconds = cost
        entry.status = "screened"
        spent += cost
        trace.append({"event": "screen", "tier": 1,
                      "label": candidate.label,
                      "misses": entry.screened_misses,
                      "predicted_cost_seconds": cost})
    return spent


def _prune(entries, trace) -> None:
    screened = [e.screened_misses for e in entries
                if e.status == "screened" and e.screened_misses is not None]
    if not screened:
        return
    cutoff = min(screened) * PRUNE_FACTOR
    for entry in entries:
        if (entry.status == "screened"
                and entry.candidate.label != "identity"
                and entry.screened_misses is not None
                and entry.screened_misses > cutoff):
            entry.status = "pruned"
            trace.append({"event": "prune", "label": entry.candidate.label,
                          "misses": entry.screened_misses,
                          "cutoff": cutoff})


def _refine_candidates(matrix, dims, name, config, policies, ladder,
                       entries, trace, answers, spent: float) -> float:
    refine_cost = ladder.predicted_cost(1, dims.nnz, len(policies))
    survivors = sorted(
        (e for e in entries
         if e.status == "screened" and e.candidate.label != "identity"),
        key=lambda e: (e.screened_misses, entries.index(e)),
    )[:REFINE_TOP_K]
    for entry in survivors:
        if spent + refine_cost > config.budget_seconds:
            trace.append({"event": "skip_refine",
                          "label": entry.candidate.label,
                          "reason": "budget"})
            continue
        with obs_span(f"optimize.refine.{entry.candidate.label}"):
            permuted = _materialize(matrix, entry, config.seed)
            answer = ladder.answer(
                "predict", dims, lambda m=permuted: m,
                name=f"{name}|{entry.candidate.label}",
                max_tier=1, policies=policies,
            )
        answers[1] += 1
        entry.refined_misses, _ = _objective(answer.result)
        entry.predicted_cost_seconds += refine_cost
        entry.status = "refined"
        spent += refine_cost
        trace.append({"event": "refine", "tier": 1,
                      "label": entry.candidate.label,
                      "misses": entry.refined_misses,
                      "predicted_cost_seconds": refine_cost})
    return spent


def _materialize(matrix: CSRMatrix, entry: _Entry, seed: int) -> CSRMatrix:
    """Build (memoized) and apply a candidate's permutation pair."""
    row_perm, col_perm = _winner_perms(matrix, entry, seed)
    if entry.candidate.label == "identity":
        return matrix
    return matrix.permute(row_perm, col_perm)


def _winner_perms(matrix: CSRMatrix, entry: _Entry, seed: int):
    if entry.perms is None:
        entry.perms = entry.candidate.build(matrix, seed)
    return entry.perms


def optimize_task(task: dict, name: str | None = None) -> dict:
    """Worker adapter: canonical ``optimize`` service task -> wire result.

    Imported by :mod:`repro.service.worker` so the search runs on the
    fork pool like every other evaluation.  ``name`` is the task's
    ``matrix_name`` when the caller already holds it.
    """
    from ..service.protocol import matrix_from_task, setup_from_task

    setup = setup_from_task(task)
    matrix = matrix_from_task(task, name)
    config = SearchConfig.from_task(task)
    return optimize(matrix, setup, config).to_dict()
