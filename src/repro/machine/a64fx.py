"""Machine model of the Fujitsu A64FX memory hierarchy.

The A64FX (as described in the paper's Section 4.1 and the Fujitsu
micro-architecture manual) is a 48-core processor organised as four Core
Memory Groups (CMGs, i.e. NUMA domains) of 12 cores each.  Every core has a
private 64 KiB, 4-way set-associative L1D cache; every CMG shares an 8 MiB,
16-way L2 segment connected to one HBM2 module.  The cache line size is an
unusually large 256 bytes at both levels.

The *sector cache* partitions a cache way-wise into up to four sectors.  The
Fujitsu compiler directives used in the paper expose two sectors: sector 1
receives an explicit number of ways, sector 0 keeps the remainder.

Because the reproduction runs on commodity hardware in pure Python, a
*scaled* machine is provided: dividing the number of L1/L2 sets by a scale
factor shrinks capacities while preserving line size, associativity, core
count and — crucially — the working-set/cache *ratios* that define the
paper's matrix classes (1), (2), (3a), (3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level.

    Attributes
    ----------
    line_size:
        Cache line size in bytes.
    num_sets:
        Number of sets.
    ways:
        Associativity (number of ways per set).
    """

    line_size: int
    num_sets: int
    ways: int

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a positive power of two, got {self.line_size}")
        if self.num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {self.num_sets}")
        if self.ways <= 0:
            raise ValueError(f"ways must be positive, got {self.ways}")

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.line_size * self.num_sets * self.ways

    @property
    def capacity_lines(self) -> int:
        """Total capacity in cache lines."""
        return self.num_sets * self.ways

    def scaled(self, factor: int) -> "CacheGeometry":
        """Return a geometry with ``num_sets`` divided by ``factor``.

        Line size and associativity are preserved so that spatial locality
        and way-partitioning behave identically on the scaled machine.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        if self.num_sets % factor:
            raise ValueError(
                f"num_sets={self.num_sets} not divisible by scale factor {factor}"
            )
        return replace(self, num_sets=self.num_sets // factor)

    def partition_lines(self, sector1_ways: int) -> tuple[int, int]:
        """Capacities in lines of (sector 0, sector 1) for a way split.

        ``sector1_ways == 0`` means the sector cache is disabled and the
        full capacity belongs to sector 0.
        """
        if not 0 <= sector1_ways <= self.ways:
            raise ValueError(
                f"sector1_ways must be in [0, {self.ways}], got {sector1_ways}"
            )
        n1 = self.num_sets * sector1_ways
        return self.capacity_lines - n1, n1


@dataclass(frozen=True)
class A64FX:
    """Full machine model: cores, CMGs, caches, and throughput constants.

    The throughput/latency constants are the calibration points of the
    ECM-style performance model (:mod:`repro.machine.perfmodel`); defaults
    reflect the published A64FX figures (1024 GB/s peak HBM2 bandwidth,
    ~800 GB/s sustained, 512-bit SVE FMA pipes).
    """

    num_cores: int = 48
    num_cmgs: int = 4
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(line_size=256, num_sets=64, ways=4)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(line_size=256, num_sets=2048, ways=16)
    )
    #: sustained memory bandwidth per CMG in bytes/s (4 x 200 GB/s ~= 800 GB/s)
    mem_bandwidth_per_cmg: float = 200e9
    #: sustained L2 -> L1 bandwidth per core in bytes/s (64 B/cycle @ 2 GHz)
    l2_bandwidth_per_core: float = 128e9
    #: double-precision peak per core in flop/s (2 x 512-bit FMA @ 2 GHz)
    flops_per_core: float = 32e9
    #: average latency of an L2 demand miss in seconds (~130 ns on A64FX)
    demand_miss_latency: float = 130e-9
    #: memory-level parallelism available to hide demand-miss latency
    mlp: float = 12.0
    #: scale factor this instance was derived with (1 = full machine)
    scale: int = 1

    def __post_init__(self) -> None:
        if self.num_cores % self.num_cmgs:
            raise ValueError(
                f"num_cores={self.num_cores} must be divisible by num_cmgs={self.num_cmgs}"
            )
        if self.l1.line_size != self.l2.line_size:
            raise ValueError("L1 and L2 must share a line size")

    @property
    def cores_per_cmg(self) -> int:
        return self.num_cores // self.num_cmgs

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    @property
    def l2_total_bytes(self) -> int:
        """Aggregate L2 capacity over all CMG segments."""
        return self.l2.capacity_bytes * self.num_cmgs

    @property
    def mem_bandwidth(self) -> float:
        """Aggregate sustained memory bandwidth in bytes/s."""
        return self.mem_bandwidth_per_cmg * self.num_cmgs

    def cmg_of_thread(self, thread: int) -> int:
        """CMG index of a thread under close/compact binding."""
        if not 0 <= thread < self.num_cores:
            raise ValueError(f"thread must be in [0, {self.num_cores}), got {thread}")
        return thread // self.cores_per_cmg

    def cmgs_used(self, num_threads: int) -> int:
        """CMGs occupied by ``num_threads`` threads under close binding."""
        return -(-num_threads // self.cores_per_cmg)

    def scaled(self, factor: int, l1_factor: int | None = None) -> "A64FX":
        """Return a machine with the cache levels scaled down.

        Bandwidth and latency constants are kept; the performance model
        consumes per-reference miss *ratios* from the scaled simulation and
        projects them onto full-size traffic volumes, so the constants always
        refer to the full machine.

        ``l1_factor`` defaults to half of ``factor``: the L1's job in SpMV is
        absorbing the unit-stride streams and short-range x reuse, which a
        too-aggressively scaled L1 (a handful of lines) cannot represent.
        """
        if l1_factor is None:
            l1_factor = max(1, factor // 2)
        return replace(
            self,
            l1=self.l1.scaled(l1_factor),
            l2=self.l2.scaled(factor),
            scale=self.scale * factor,
        )


def full_machine() -> A64FX:
    """The unscaled 48-core A64FX."""
    return A64FX()


def scaled_machine(factor: int = 16, l1_factor: int | None = None) -> A64FX:
    """The default reproduction testbed: an A64FX scaled down by ``factor``.

    With the default factor 16 each L2 segment is 512 KiB (128 sets, 16
    ways) and each L1D is 8 KiB (8 sets, 4 ways), keeping the 256-byte
    line size and the way counts that the sector-cache experiments split.
    """
    if factor <= 1:
        return full_machine()
    return full_machine().scaled(factor, l1_factor)
