"""Cross-module integration tests.

These exercise whole pipelines rather than single modules: numerics against
SciPy, model-vs-simulator agreement bounds per matrix family, stack-
inclusion properties of the simulated hierarchy, and end-to-end driver
runs at tiny scale.
"""

import numpy as np
import pytest
import scipy.sparse

from repro import (
    CacheMissModel,
    SimConfig,
    SpMVCacheSim,
    listing1_policy,
    no_sector_cache,
    scaled_machine,
    spmv,
)
from repro.matrices import banded, power_law, random_uniform, rcm_reorder, stencil_2d
from repro.spmv import CSRMatrix

MACHINE = scaled_machine(16)


# ----------------------------------------------------------------------
# numerics vs SciPy
# ----------------------------------------------------------------------
def to_scipy(matrix: CSRMatrix) -> scipy.sparse.csr_matrix:
    return scipy.sparse.csr_matrix(
        (matrix.values, matrix.colidx, matrix.rowptr), shape=matrix.shape
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_kernels_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 300
    m = power_law(n, 5.0, seed=seed)
    m = CSRMatrix(m.num_rows, m.num_cols, m.rowptr, m.colidx,
                  rng.standard_normal(m.nnz), name=m.name)
    x = rng.standard_normal(n)
    expected = to_scipy(m) @ x
    np.testing.assert_allclose(spmv(m, x), expected, rtol=1e-10)


def test_transpose_matches_scipy():
    m = power_law(200, 4.0, seed=3)
    np.testing.assert_allclose(
        m.transpose().to_dense(), to_scipy(m).T.toarray()
    )


def test_rcm_comparable_to_scipy_rcm():
    # both orderings should land in the same bandwidth ballpark
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    from repro.matrices import matrix_stats

    m = random_uniform(400, 3, seed=5)
    sym = to_scipy(m) + to_scipy(m).T
    sym.data[:] = 1.0
    perm = reverse_cuthill_mckee(scipy.sparse.csr_matrix(sym), symmetric_mode=True)
    scipy_bw = matrix_stats(
        CSRMatrix.from_dense(sym.toarray()[perm][:, perm])
    ).bandwidth
    ours_bw = matrix_stats(
        rcm_reorder(CSRMatrix.from_dense(sym.toarray()))
    ).bandwidth
    assert ours_bw <= 1.5 * scipy_bw + 10


# ----------------------------------------------------------------------
# model vs simulator agreement per family
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "matrix,bound",
    [
        (banded(5_000, 120, 60, seed=1), 0.08),    # streaming-dominated
        (stencil_2d(190, 190, 5), 0.10),           # regular grid
        (random_uniform(20_000, 8, seed=2), 0.15),  # x-heavy
    ],
    ids=["band", "stencil", "random"],
)
def test_method_a_tracks_simulator(matrix, bound):
    sim = SpMVCacheSim(matrix, MACHINE, SimConfig(num_threads=48))
    model = CacheMissModel(matrix, MACHINE, num_threads=48)
    for policy in (no_sector_cache(), listing1_policy(5)):
        measured = sim.events(policy).l2_misses
        predicted = model.predict(policy, "A").l2_misses
        assert measured > 0
        assert abs(measured - predicted) / measured < bound


def test_sequential_model_is_near_exact():
    # without threads, prefetcher effects aside, model A ~ simulator
    matrix = banded(3_000, 60, 40, seed=1)
    sim = SpMVCacheSim(matrix, MACHINE, SimConfig(num_threads=1))
    model = CacheMissModel(matrix, MACHINE, num_threads=1)
    measured = sim.events(listing1_policy(5)).l2_misses
    predicted = model.predict(listing1_policy(5), "A").l2_misses
    assert abs(measured - predicted) / measured < 0.02


# ----------------------------------------------------------------------
# structural properties of the simulated hierarchy
# ----------------------------------------------------------------------
def test_lru_stack_inclusion_across_way_splits():
    # giving sector 1 more ways can only turn its misses into hits
    matrix = random_uniform(10_000, 6, seed=3)
    sim = SpMVCacheSim(matrix, MACHINE, SimConfig(num_threads=12))
    stream, rd = sim._l2_level(0)
    sector1 = rd.sectors == 1
    previous = None
    for ways in range(2, 8):
        hits = rd.hit_mask(ways)
        if previous is not None:
            assert np.all(hits[sector1] >= previous[sector1])
        previous = hits


def test_miss_monotonicity_in_cache_size():
    # the same trace on a twice-larger machine cannot miss more
    matrix = random_uniform(12_000, 6, seed=4)
    small = scaled_machine(16)
    large = scaled_machine(8)
    misses_small = SpMVCacheSim(matrix, small, SimConfig(num_threads=4)).baseline_events().l2_misses
    misses_large = SpMVCacheSim(matrix, large, SimConfig(num_threads=4)).baseline_events().l2_misses
    assert misses_large <= misses_small


def test_interleaving_policies_change_little_for_symmetric_loads():
    matrix = banded(4_000, 80, 25, seed=5)
    results = []
    for policy in ("mcs", "random"):
        sim = SpMVCacheSim(
            matrix, MACHINE, SimConfig(num_threads=12, interleave_policy=policy)
        )
        results.append(sim.baseline_events().l2_misses)
    a, b = results
    assert abs(a - b) / max(a, 1) < 0.1
