"""Seeded inputs of the three workloads.

Everything a run sends is generated here from ``--seed``; the daemons
receive only these requests.  The same seed gives the same requests, in
the same order.  What varies with the seed is matrix structure, thread
counts, edit batches and the warm population; what stays fixed is each
workload's mix and matrix sizes, so that runs on different seeds are
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.matrices import generators as gen
from repro.matrices.collection import collection
from repro.service.client import matrix_payload
from repro.spmv.csr import CSRMatrix

#: The seed a run uses unless told otherwise.
DEFAULT_SEED = 20231112
#: A second seed kept out of tuning: a claim made on DEFAULT_SEED is
#: re-checked here.
HELD_OUT_SEED = 7349

SCALE = 16
MAX_THREADS = 48

#: A fixed class-spanning subset of the ``small`` collection (two per
#: paper class, the lightest of each).  The seed varies thread counts,
#: not which matrices, so the mix costs the same on every seed.
NAMED_SMALL = {
    "1": ("banded_000", "diagonal_plus_random_021"),
    "2": ("power_law_009", "stencil_3d_011"),
    "3a": ("power_law_034", "stencil_2d_023"),
    "3b": ("diagonal_plus_random_002", "random_uniform_032"),
}
CLASSES = ("1", "2", "3a", "3b")


def class_matrix(rng: np.random.Generator, target: str, label: str) -> CSRMatrix:
    """An inline matrix aimed at one paper class at scale 16 (the class
    it lands in also depends on the thread count of the request)."""
    seed = int(rng.integers(0, 2**31))
    if target == "1":
        n = int(rng.integers(2_000, 4_001))
        return gen.banded(n, n // 10, int(rng.integers(8, 13)), seed=seed, name=label)
    if target == "2":
        n = int(rng.integers(8_000, 11_001))
        return gen.diagonal_plus_random(n, 3, 2, seed=seed, name=label)
    if target == "3a":
        n = int(rng.integers(15_000, 19_001))
        return gen.diagonal_plus_random(n, 2, 1, seed=seed, name=label)
    n = int(rng.integers(52_000, 60_001))
    return gen.diagonal_plus_random(n, 1, 1, seed=seed, name=label)


@dataclass
class Op:
    """One request: endpoint, matrix (inline or named) and knobs."""

    endpoint: str
    threads: int
    matrix: CSRMatrix | None = None
    name: str | None = None
    collection: str | None = None
    accuracy: float | None = None
    max_tier: int | None = None
    #: short tag for per-kind reporting ("inline", "named", "sweep", ...)
    kind: str = ""

    def send(self, client, trace: bool = False) -> dict:
        call = getattr(client, self.endpoint)
        kwargs = {"num_threads": self.threads, "scale": SCALE}
        if trace:
            kwargs["trace"] = True
        if self.accuracy is not None:
            kwargs["accuracy"] = self.accuracy
        if self.max_tier is not None:
            kwargs["max_tier"] = self.max_tier
        if self.matrix is not None:
            return call(matrix=self.matrix, **kwargs)
        return call(name=self.name, collection=self.collection, **kwargs)

    def payload(self) -> dict:
        """The JSON body :meth:`send` posts (for in-process replays)."""
        body: dict = {"setup": {"num_threads": self.threads, "scale": SCALE}}
        if self.matrix is not None:
            body["matrix"] = matrix_payload(self.matrix)
        else:
            body["matrix"] = {"name": self.name, "collection": self.collection}
        if self.accuracy is not None:
            body["accuracy"] = self.accuracy
        if self.max_tier is not None:
            body["max_tier"] = self.max_tier
        return body


# -- cold_mix ---------------------------------------------------------------

#: One cycle of the cold mix: inline and named exact advise/predict in
#: equal parts, one sweep and one loose-accuracy ladder advise.
COLD_CYCLE = ("inline", "named", "inline", "named", "inline", "named",
              "sweep", "inline", "named", "ladder", "inline", "named")
COLD_INLINE_PER_CLASS = 4
#: loose SLOs, capped at tier 1 so the cheap tiers always answer
LADDER_ACCURACY = (2.0, 1.0)
LADDER_MAX_TIER = 1


@dataclass
class ColdInputs:
    ops: list[Op]
    inline: list[CSRMatrix] = field(default_factory=list)


def cold_mix(seed: int, count: int = 600) -> ColdInputs:
    """``count`` distinct cold requests; every one has a fresh cache key.

    Which matrix each slot uses rotates deterministically (classes,
    matrices, endpoints), so every seed sends the same mix; the seed
    draws the inline matrices' structure and every request's thread count.
    """
    rng = np.random.default_rng([seed, 1])
    inline = [
        class_matrix(rng, target, f"cold-{target}-{i}")
        for target in CLASSES for i in range(COLD_INLINE_PER_CLASS)
    ]
    tiny = [spec.name for spec in collection("tiny")]
    used: set = set()
    ops: list[Op] = []
    turns = {slot: 0 for slot in COLD_CYCLE}

    def fresh(make, *identity):
        # an exact and a ladder advise of one matrix share a cache key
        while True:
            threads = int(rng.integers(1, MAX_THREADS + 1))
            if (*identity, threads) not in used:
                used.add((*identity, threads))
                return make(threads)

    for index in range(count):
        slot = COLD_CYCLE[index % len(COLD_CYCLE)]
        turn = turns[slot]
        turns[slot] += 1
        target = CLASSES[turn % len(CLASSES)]
        pick = (turn // len(CLASSES)) % 2
        endpoint = ("advise", "predict")[(turn // len(CLASSES)) % 2]
        if slot == "inline":
            matrix_index = (CLASSES.index(target) * COLD_INLINE_PER_CLASS
                            + (turn // len(CLASSES)) % COLD_INLINE_PER_CLASS)
            ops.append(fresh(lambda t: Op(endpoint, t, matrix=inline[matrix_index],
                                          kind="inline"),
                             matrix_index, endpoint))
        elif slot == "named":
            name = NAMED_SMALL[target][pick]
            ops.append(fresh(lambda t: Op(endpoint, t, name=name, collection="small",
                                          kind="named"),
                             name, endpoint))
        elif slot == "sweep":
            name = tiny[turn % len(tiny)]
            ops.append(fresh(lambda t: Op("sweep", t, name=name, collection="tiny",
                                          kind="sweep"),
                             name, "sweep"))
        else:
            name = NAMED_SMALL[target][pick]
            accuracy = LADDER_ACCURACY[turn % len(LADDER_ACCURACY)]
            ops.append(fresh(lambda t: Op("advise", t, name=name, collection="small",
                                          accuracy=accuracy, max_tier=LADDER_MAX_TIER,
                                          kind="ladder"),
                             name, "advise"))
    return ColdInputs(ops=ops, inline=inline)


# -- warm_gateway -------------------------------------------------------------

#: inline population sizes (nonzeros); fixed so every seed costs the same
WARM_INLINE_NNZ = (10_000, 20_000, 30_000, 40_000)
WARM_NAMED = 12
#: one inline request per this many ops
WARM_INLINE_EVERY = 4


def warm_population(seed: int) -> list[Op]:
    """Named classify/predict/advise plus inline requests to prime."""
    rng = np.random.default_rng([seed, 2])
    names = [name for pair in NAMED_SMALL.values() for name in pair]
    population = []
    used: set = set()
    endpoints = ("classify", "predict", "advise")
    while len(population) < WARM_NAMED:
        name = names[int(rng.integers(0, len(names)))]
        endpoint = endpoints[len(population) % 3]
        threads = int(rng.integers(1, MAX_THREADS + 1))
        if (name, endpoint, threads) not in used:
            used.add((name, endpoint, threads))
            population.append(Op(endpoint, threads, name=name,
                                 collection="small", kind="named"))
    for i, nnz in enumerate(WARM_INLINE_NNZ):
        npr = int(rng.integers(5, 11))
        n = nnz // npr
        matrix = gen.banded(n, max(npr, n // 20), npr,
                            seed=int(rng.integers(0, 2**31)), name=f"warm-{i}")
        population.append(Op(("predict", "advise")[i % 2],
                             int(rng.integers(1, MAX_THREADS + 1)),
                             matrix=matrix, kind="inline"))
    return population


def warm_schedule(seed: int, population: list[Op], count: int = 20_000) -> list[int]:
    """Population indices to request: one inline per WARM_INLINE_EVERY ops."""
    rng = np.random.default_rng([seed, 3])
    named = [i for i, op in enumerate(population) if op.matrix is None]
    inline = [i for i, op in enumerate(population) if op.matrix is not None]
    return [
        int(rng.choice(inline)) if k % WARM_INLINE_EVERY == WARM_INLINE_EVERY - 1
        else int(rng.choice(named))
        for k in range(count)
    ]


# -- delta_chain --------------------------------------------------------------

DELTA_STEPS = 8
DELTA_MAX_EDITS = 32


@dataclass
class DeltaBase:
    """One inline base and the delta path it must take."""

    label: str
    matrix: CSRMatrix
    endpoint: str
    threads: int
    #: ("incremental", None) or ("fallback", reason)
    expected: tuple
    #: column window inserts are drawn from (around the diagonal)
    band: int


def delta_bases(seed: int, client: int, cycle: int) -> list[DeltaBase]:
    """One client's bases for one pass: banded and block-diagonal
    (incremental), class 3 (fallback: budget) and 48 threads (fallback:
    threads).  Every (client, cycle) gets fresh matrices, so every base
    request is a cold evaluation."""
    rng = np.random.default_rng([seed, 4, client, cycle])

    def s() -> int:
        return int(rng.integers(0, 2**31))

    tag = f"{client}.{cycle}"
    banded = gen.banded(int(rng.integers(2_500, 3_001)), 40, 8, seed=s(),
                        name=f"delta-banded-{tag}")
    # fill < 1 so that the seed, not only the size, shapes the blocks
    block = gen.block_diagonal(int(rng.integers(250, 301)) * 10, 10, 0.95,
                               seed=s(), name=f"delta-block-{tag}")
    class3 = gen.diagonal_plus_random(int(rng.integers(17_000, 19_001)), 1, 1,
                                      seed=s(), name=f"delta-class3-{tag}")
    wide = gen.banded(int(rng.integers(2_500, 3_001)), 40, 8, seed=s(),
                      name=f"delta-48t-{tag}")
    return [
        DeltaBase("banded", banded, "advise", 1, ("incremental", None), 40),
        DeltaBase("block_diagonal", block, "predict", 1, ("incremental", None), 10),
        DeltaBase("class3", class3, "advise", 1, ("fallback", "budget"), 2_000),
        DeltaBase("threads48", wide, "advise", MAX_THREADS, ("fallback", "threads"), 40),
    ]


class PatternTracker:
    """The current pattern of one delta chain as sorted ``row * num_cols +
    col`` keys, kept independently of the program so that edits stay valid
    and checks have a reference (:func:`pattern_matrix`)."""

    def __init__(self, matrix: CSRMatrix) -> None:
        self.num_rows, self.num_cols = matrix.num_rows, matrix.num_cols
        rows = np.repeat(np.arange(matrix.num_rows, dtype=np.int64),
                         np.diff(matrix.rowptr))
        self.keys = np.unique(rows * self.num_cols + matrix.colidx.astype(np.int64))

    def edits(self, rng: np.random.Generator, band: int) -> tuple[list, list]:
        """A batch of 1-32 valid inserts and deletes."""
        count = int(rng.integers(1, DELTA_MAX_EDITS + 1))
        n_del = int(rng.integers(0, count + 1))
        picks = rng.choice(self.keys.shape[0], size=n_del, replace=False)
        deletes = self.keys[np.sort(picks)]
        inserts: set = set()
        while len(inserts) < count - n_del:
            r = int(rng.integers(0, self.num_rows))
            c = int(np.clip(r + rng.integers(-band, band + 1), 0, self.num_cols - 1))
            key = r * self.num_cols + c
            pos = np.searchsorted(self.keys, key)
            if pos < self.keys.shape[0] and self.keys[pos] == key:
                continue
            inserts.add(key)
        ins = np.array(sorted(inserts), dtype=np.int64)
        self.keys = np.union1d(np.setdiff1d(self.keys, deletes), ins)
        return ([[int(k // self.num_cols), int(k % self.num_cols)] for k in ins],
                [[int(k // self.num_cols), int(k % self.num_cols)] for k in deletes])


def pattern_matrix(num_rows: int, num_cols: int, keys: np.ndarray) -> CSRMatrix:
    """The matrix of a pattern given as sorted ``row * num_cols + col`` keys."""
    return CSRMatrix.from_coo(num_rows, num_cols, keys // num_cols, keys % num_cols,
                              name="edited")
