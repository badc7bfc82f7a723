"""The search's confirmed winner is as good as pricing every candidate
exactly (:mod:`tests.oracles.exhaustive`).

The check compares objective values, not labels: two strategies may
legitimately tie on exact misses.
"""

import pytest

from repro.matrices import banded, random_uniform
from repro.optimize import SearchConfig, optimize
from tests.oracles.exhaustive import exhaustive_tier2_misses
from tests.optimize.test_search import SETUP, shuffled_band

CONFIG = SearchConfig(seed=0, budget_seconds=30.0)

WORKLOADS = {
    "shuffled_band": shuffled_band,
    "random": lambda: random_uniform(12_000, 6, seed=5),
    "banded_gated": lambda: banded(2_000, 16, 4, seed=2),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_confirmed_misses_match_the_exhaustive_tier2_best(workload):
    matrix = WORKLOADS[workload]()
    result = optimize(matrix, SETUP, CONFIG).to_dict()
    best = min(exhaustive_tier2_misses(matrix, SETUP, CONFIG).values())
    assert result["confirmation"]["after_misses"] == best
