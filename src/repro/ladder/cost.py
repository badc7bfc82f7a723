"""Per-tier cost models of the fidelity ladder.

Each tier's wall-clock cost is predicted from the request's dims alone —
the escalation loop consults these *before* evaluating a tier, and the
fidelity metadata reports predicted next to measured cost so drift is
visible.  The model is a calibrated affine form::

    seconds = base + per_reference * nnz + per_policy_reference * nnz * P

with ``P`` the number of policies priced.  ``nnz`` is the right size
proxy: every trace-bound stage (x-only trace build, stack pass, full
kernel trace, simulation) is linear-ish in the reference count, which is
itself proportional to ``nnz`` (rows and density enter through it).  The
``per_policy_reference`` term captures work that repeats per policy —
zero for the analytic tiers, whose single stack pass serves every way
split, and dominant for the simulation, which thresholds (and for a
fresh sector assignment re-simulates) per configuration.

Constants are calibrated on the reference container from the measured
and predicted cost per matrix that ``python -m repro.experiments --exp
ladder`` prints with one tier forced (``--max-tier N`` for tiers 0-2,
``--accuracy 1e-9`` for tier 3); absolute seconds move with the host,
but the *ratios* between tiers — which is what tier selection needs —
are stable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TierCostModel:
    """Affine cost model of one tier, keyed on nnz and policy count."""

    base_seconds: float
    per_reference_seconds: float
    per_policy_reference_seconds: float = 0.0

    def predict_seconds(self, nnz: int, num_policies: int = 1) -> float:
        return (
            self.base_seconds
            + self.per_reference_seconds * nnz
            + self.per_policy_reference_seconds * nnz * max(num_policies, 1)
        )


#: tier -> cost model, calibrated with the forced-tier ``ladder`` experiment.
DEFAULT_COST_MODELS: dict[int, TierCostModel] = {
    # closed forms: dict building and a handful of divisions per policy
    0: TierCostModel(base_seconds=2e-5, per_reference_seconds=0.0,
                     per_policy_reference_seconds=2e-11),
    # x-only trace build + sampled (rate~0.1) stack pass
    1: TierCostModel(base_seconds=2e-3, per_reference_seconds=1.3e-7),
    # x-only trace build + exact single-period stack pass
    2: TierCostModel(base_seconds=3e-3, per_reference_seconds=7e-7),
    # full kernel trace, L1+L2 set-associative passes, per-policy queries
    3: TierCostModel(base_seconds=1e-2, per_reference_seconds=5.5e-6,
                     per_policy_reference_seconds=2.5e-7),
}
