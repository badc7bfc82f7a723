"""SpMV substrate: CSR storage, kernels, schedules, sector policies."""

from .csr import CSRMatrix
from .kernels import flops, spmv, spmv_reference
from .schedule import RowSchedule, balanced_schedule, static_schedule
from .sector_policy import (
    ARRAYS,
    MATRIX_DATA,
    SectorPolicy,
    isolate_x_policy,
    listing1_policy,
    no_sector_cache,
)

__all__ = [
    "ARRAYS",
    "CSRMatrix",
    "MATRIX_DATA",
    "RowSchedule",
    "SectorPolicy",
    "balanced_schedule",
    "flops",
    "isolate_x_policy",
    "listing1_policy",
    "no_sector_cache",
    "spmv",
    "spmv_reference",
    "static_schedule",
]
