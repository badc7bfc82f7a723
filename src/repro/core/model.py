"""Top-level cache-miss model facade.

:class:`CacheMissModel` bundles methods (A) and (B) behind one interface,
building each lazily (method A's full-trace passes are the expensive part;
method B reuses nothing from A).  It also computes the prediction error
against simulator measurements, which is how the Table 2/3 experiments use
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cachesim.events import CacheEvents
from ..machine.a64fx import A64FX
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy
from .classification import MatrixClass, classify
from .method_a import MethodA, MissPrediction
from .method_b import MethodB


@dataclass(frozen=True)
class ModelComparison:
    """A prediction next to a measurement."""

    predicted: int
    measured: int

    @property
    def absolute_percentage_error(self) -> float:
        """|measured - predicted| / measured * 100 (Eq. 3 summand)."""
        if self.measured == 0:
            return 0.0 if self.predicted == 0 else float("inf")
        return abs(self.measured - self.predicted) / self.measured * 100.0


class CacheMissModel:
    """Reuse-distance cache-miss model of iterative CSR SpMV.

    Parameters mirror the experimental setup: thread count (1 or 48 in the
    paper) and the steady-state iteration count.  Both methods model the
    static schedule with the threads' traces merged in MCS order.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        machine: A64FX,
        num_threads: int = 1,
        iterations: int = 2,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.matrix = matrix
        self.machine = machine
        self.num_threads = num_threads
        self.iterations = iterations
        self._method_a: MethodA | None = None
        self._method_b: MethodB | None = None

    @property
    def method_a(self) -> MethodA:
        if self._method_a is None:
            self._method_a = MethodA(
                self.matrix,
                self.machine,
                num_threads=self.num_threads,
                iterations=self.iterations,
            )
        return self._method_a

    @property
    def method_b(self) -> MethodB:
        if self._method_b is None:
            self._method_b = MethodB(
                self.matrix,
                self.machine,
                num_threads=self.num_threads,
                iterations=self.iterations,
            )
        return self._method_b

    def predict(self, policy: SectorPolicy, method: str = "A") -> MissPrediction:
        """Predicted L2 misses per steady-state iteration by method A or B."""
        if method == "A":
            return self.method_a.predict(policy)
        if method == "B":
            return self.method_b.predict(policy)
        raise ValueError(f"method must be 'A' or 'B', got {method!r}")

    def predict_l1(self, policy: SectorPolicy, method: str = "A") -> MissPrediction:
        """Predicted L1 misses per steady-state iteration.

        The returned prediction's count fields are level-agnostic: read the
        L1 total through :attr:`MissPrediction.misses`.
        """
        if method == "A":
            return self.method_a.predict_l1(policy)
        if method == "B":
            return self.method_b.predict_l1(policy)
        raise ValueError(f"method must be 'A' or 'B', got {method!r}")

    def sweep(
        self, policies: Sequence[SectorPolicy], method: str = "A"
    ) -> list[MissPrediction]:
        """Predicted L2 misses for many policies off the shared stack passes.

        The first query of each grouping pays the stack pass; every further
        policy is an O(log n) profile lookup, so sweeping the paper's ~16
        sector configurations costs barely more than predicting one.
        """
        return [self.predict(policy, method) for policy in policies]

    def sweep_l1(
        self, policies: Sequence[SectorPolicy], method: str = "A"
    ) -> list[MissPrediction]:
        """Predicted L1 misses for many policies off the shared stack passes."""
        return [self.predict_l1(policy, method) for policy in policies]

    def compare(
        self, policy: SectorPolicy, events: CacheEvents, method: str = "A"
    ) -> ModelComparison:
        """Prediction vs. a simulator measurement of the same configuration."""
        return ModelComparison(
            predicted=self.predict(policy, method).l2_misses,
            measured=events.l2_misses,
        )

    def matrix_class(self, sector1_ways: int) -> MatrixClass:
        """Section 3.1 class of the matrix under this execution setup."""
        return classify(self.matrix, self.machine, sector1_ways,
                        self.machine.cmgs_used(self.num_threads))
