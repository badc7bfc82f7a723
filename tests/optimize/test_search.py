"""The budgeted reordering search: gate, screen, budget, determinism."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import ExperimentSetup
from repro.matrices import banded, random_uniform
from repro.optimize import (
    SearchConfig,
    optimize,
    optimize_fingerprint,
)

#: 1/64 machine scale, one CMG — small matrices reach every class.
SETUP = ExperimentSetup(scale=64, num_threads=8)


def shuffled_band(n=12_000):
    """Class-3 structure hidden behind a random symmetric permutation."""
    base = banded(n, 24, 6, seed=3)
    perm = np.random.default_rng(7).permutation(n).astype(np.int64)
    return dataclasses.replace(base.permute(perm, perm), name="shuffled_band")


@pytest.fixture(scope="module")
def structured_result():
    return optimize(shuffled_band(), SETUP, SearchConfig(seed=0)).to_dict()


def test_confirmed_improvement_on_class3(structured_result):
    confirmation = structured_result["confirmation"]
    assert confirmation["improved"]
    assert confirmation["improvement"] > 0
    assert confirmation["after_misses"] < confirmation["before_misses"]
    assert structured_result["winner"]["label"] != "identity"
    assert not structured_result["winner"]["identity"]


def test_screens_cheap_confirms_exact(structured_result):
    # tiers 0/1 do the screening; the only exact passes are the
    # before/after confirmation (2 answers at tier 2, never more)
    answers = structured_result["fidelity"]["ladder_answers"]
    assert answers["2"] == 2
    assert answers["1"] >= 1
    assert structured_result["confirmation"]["tier"] == 2
    # the trace replays the same story
    events = [t["event"] for t in structured_result["trace"]]
    assert events.index("confirm") == len(events) - 1


def test_winner_permutation_is_valid(structured_result):
    winner = structured_result["winner"]
    n = 12_000
    assert sorted(winner["row_perm"]) == list(range(n))
    assert sorted(winner["col_perm"]) == list(range(n))


def test_search_is_deterministic(structured_result):
    repeat = optimize(shuffled_band(), SETUP, SearchConfig(seed=0)).to_dict()
    assert (optimize_fingerprint(repeat)
            == optimize_fingerprint(structured_result))
    # timings are wall clock and excluded from the fingerprint
    repeat["timings"] = {"total_seconds": 123.0}
    assert (optimize_fingerprint(repeat)
            == optimize_fingerprint(structured_result))


def test_gate_short_circuits_clean_band():
    result = optimize(banded(2_000, 16, 4, seed=2), SETUP,
                      SearchConfig()).to_dict()
    assert result["fidelity"]["gated"]
    assert result["winner"]["label"] == "identity"
    assert result["winner"]["identity"]
    assert result["fidelity"]["ladder_answers"] == {"0": 1, "2": 1}
    statuses = {e["label"]: e["status"] for e in result["strategies"]}
    assert statuses.pop("identity") == "winner"
    assert set(statuses.values()) == {"gated"}


def test_tiny_budget_skips_every_screen():
    # n=12_000 keeps x out of its partition, so the tier-0 gate stays
    # open and the budget is what stops the screens
    result = optimize(shuffled_band(), SETUP,
                      SearchConfig(budget_seconds=1e-9)).to_dict()
    assert result["winner"]["label"] == "identity"
    statuses = {e["label"]: e["status"] for e in result["strategies"]}
    assert statuses.pop("identity") == "winner"
    assert set(statuses.values()) == {"skipped_budget"}
    # identity still gets its exact confirmation
    assert result["confirmation"]["improvement"] == 0.0


def test_no_hallucinated_improvement_on_random():
    # no structure to recover: the confirmed improvement is never negative
    result = optimize(random_uniform(12_000, 6, seed=5), SETUP,
                      SearchConfig()).to_dict()
    confirmation = result["confirmation"]
    assert confirmation["improvement"] >= 0
    assert confirmation["after_misses"] <= confirmation["before_misses"]


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown strategies"):
        optimize(banded(100, 4, 2, seed=0), SETUP,
                 SearchConfig(strategies=("identity", "bogus")))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget_seconds=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=-1)
    with pytest.raises(ValueError):
        SearchConfig(accuracy=-0.1)
