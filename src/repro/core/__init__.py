"""The paper's contribution: reuse-distance cache-miss model for CSR SpMV."""

from .advisor import PolicyChoice, Recommendation, SectorAdvisor
from .analytic import StreamMisses, method_b_scale_factors, stream_misses
from .classification import MatrixClass, classify, reusable_bytes, working_set_bytes
from .layout import ARRAY_ID, MemoryLayout
from .method_a import MethodA, MissPrediction
from .method_b import MethodB
from .model import CacheMissModel, ModelComparison
from .trace import (
    MemoryTrace,
    concat_traces,
    repeat_trace,
    spmv_thread_trace,
    spmv_trace,
    x_only_trace,
)

__all__ = [
    "ARRAY_ID",
    "CacheMissModel",
    "MatrixClass",
    "MemoryLayout",
    "MemoryTrace",
    "MethodA",
    "MethodB",
    "MissPrediction",
    "ModelComparison",
    "PolicyChoice",
    "Recommendation",
    "SectorAdvisor",
    "StreamMisses",
    "classify",
    "concat_traces",
    "method_b_scale_factors",
    "repeat_trace",
    "reusable_bytes",
    "spmv_thread_trace",
    "spmv_trace",
    "stream_misses",
    "working_set_bytes",
    "x_only_trace",
]
