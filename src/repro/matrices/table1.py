"""The 18 named matrices of the paper's Table 1, with synthetic proxies.

Table 1 compares the paper's CSR SpMV performance (48 threads, no sector
cache) against Alappat et al. [1] on 18 SuiteSparse matrices.  The real
matrices are unavailable offline, so each is replaced by a synthetic proxy
from the generator family matching its problem class, scaled down by the
machine scale factor while preserving the nonzeros-per-row profile (the
quantity that drives SpMV locality).  The published Gflop/s figures of both
papers are kept as reference constants — exactly how the paper itself uses
the Alappat et al. column.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from ..spmv.csr import CSRMatrix
from . import generators as gen


@dataclass(frozen=True)
class Table1Entry:
    """One row of Table 1: published data plus a proxy factory."""

    name: str
    rows: int
    nnz: int
    gflops_paper: float
    gflops_alappat: float
    family: str
    build: Callable[[int], CSRMatrix]

    @property
    def nnz_per_row(self) -> float:
        return self.nnz / self.rows

    def proxy(self, scale: int | None = None) -> CSRMatrix:
        """Synthetic stand-in at ``1/scale`` of the published size.

        With ``scale=None`` the scale adapts per matrix so the proxy's
        nonzero count lands in a fixed band (~100k-300k): this keeps the
        proxy's working-set/cache ratio on the scaled machine close to the
        original's ratio on the real machine across the 4M-111M nonzero
        span of the table, which a single divisor cannot do.
        """
        if scale is None:
            target = min(300_000, max(100_000, self.nnz // 48))
            scale = max(1, round(self.nnz / target))
        if scale <= 0:
            raise ValueError("scale must be positive")
        matrix = self.build(scale)
        return CSRMatrix(
            matrix.num_rows,
            matrix.num_cols,
            matrix.rowptr,
            matrix.colidx,
            matrix.values,
            name=self.name,
        )


def _entry(
    name: str,
    rows_m: float,
    nnz_m: float,
    ours: float,
    alappat: float,
    family: str,
    build: Callable[[int, int, int], CSRMatrix],
) -> Table1Entry:
    rows = int(rows_m * 1e6)
    nnz = int(nnz_m * 1e6)
    # a stable digest of the name, not hash(name): Python salts string
    # hashes per process, so the proxies would differ from run to run
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    return Table1Entry(
        name=name,
        rows=rows,
        nnz=nnz,
        gflops_paper=ours,
        gflops_alappat=alappat,
        family=family,
        build=lambda scale: build(max(64, rows // scale), max(1, nnz // scale), seed),
    )


def _blocks(n: int, nnz: int, seed: int) -> CSRMatrix:
    block = max(4, min(256, nnz // n))
    return gen.block_diagonal(max(n, block), block, 1.0, seed=seed)


def _band(frac: float) -> Callable[[int, int, int], CSRMatrix]:
    def build(n: int, nnz: int, seed: int) -> CSRMatrix:
        npr = max(1, nnz // n)
        return gen.banded(n, max(1, int(n * frac)), npr, seed=seed)

    return build


def _stencil(n: int, nnz: int, seed: int) -> CSRMatrix:
    points = 5 if nnz // n < 7 else 27
    if points == 5:
        side = max(16, int(round((nnz / points) ** 0.5)))
        return gen.stencil_2d(side, side, 5)
    side = max(8, int(round((nnz / points) ** (1.0 / 3.0))))
    return gen.stencil_3d(side, side, side, 27)


def _powerlaw(n: int, nnz: int, seed: int) -> CSRMatrix:
    return gen.power_law(n, max(1.5, nnz / n), 2.0, seed=seed)


def _random(n: int, nnz: int, seed: int) -> CSRMatrix:
    return gen.random_uniform(n, max(1, nnz // n), seed=seed)


def _diagrand(n: int, nnz: int, seed: int) -> CSRMatrix:
    npr = max(2, nnz // n)
    return gen.diagonal_plus_random(n, npr - npr // 3, npr // 3, seed=seed)


#: Table 1 of the paper: rows, nonzeros and Gflop/s (ours / Alappat et al.).
TABLE1: tuple[Table1Entry, ...] = (
    _entry("pdb1HYS", 0.036, 4.3, 82.9, 40.2, "block_diagonal", _blocks),
    _entry("Hamrle3", 1.447, 5.5, 15.9, 9.4, "power_law", _powerlaw),
    _entry("G3_circuit", 1.585, 7.7, 10.8, 11.2, "stencil", _stencil),
    _entry("shipsec1", 0.141, 7.8, 94.0, 16.7, "block_diagonal", _blocks),
    _entry("pwtk", 0.218, 11.5, 87.3, 94.5, "banded", _band(0.01)),
    _entry("kkt_power", 2.063, 14.6, 8.6, 14.3, "diag_random", _diagrand),
    _entry("Si41Ge41H72", 0.186, 15.0, 71.6, 70.3, "banded", _band(0.05)),
    _entry("bundle_adj", 0.513, 20.2, 7.6, 66.6, "power_law", _powerlaw),
    _entry("msdoor", 0.416, 20.2, 50.6, 53.3, "banded", _band(0.02)),
    _entry("Fault_639", 0.639, 28.6, 75.7, 77.5, "banded", _band(0.01)),
    _entry("af_shell10", 1.508, 52.7, 94.0, 92.3, "banded", _band(0.005)),
    _entry("Serena", 1.391, 64.5, 65.6, 70.5, "banded", _band(0.02)),
    _entry("bone010", 0.987, 71.7, 110.8, 118.9, "banded", _band(0.01)),
    _entry("audikw_1", 0.944, 77.7, 45.1, 102.8, "banded", _band(0.05)),
    _entry("channel-500x100x100-b050", 4.802, 85.4, 42.1, 47.0, "stencil", _stencil),
    _entry("nlpkkt120", 3.542, 96.8, 75.7, 77.2, "diag_random", _diagrand),
    _entry("delaunay_n24", 16.777, 100.6, 5.8, 22.7, "random", _random),
    _entry("ML_Geer", 1.504, 110.9, 117.8, 120.5, "banded", _band(0.01)),
)


def table1_entry(name: str) -> Table1Entry:
    """Look up a Table-1 row by matrix name."""
    for entry in TABLE1:
        if entry.name == name:
            return entry
    raise KeyError(f"no Table-1 entry named {name!r}")
