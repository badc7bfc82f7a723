"""The fidelity ladder: escalation semantics, byte-identity, calibration.

Three acceptance families live here:

* escalation — ``Ladder.answer`` tries tiers in increasing order, skips
  tiers whose a-priori bound cannot satisfy the SLO, stops at the first
  posterior bound that does, honours ``max_tier``, and reports honest
  ``slo_met`` / fidelity metadata (property-tested over SLOs);
* byte-identity — tier 2 reproduces the direct ``MethodB`` /
  ``SectorAdvisor`` answers exactly and tier 3 the raw simulator counts,
  so the ladder changes *selection*, never *answers*; a service
  evaluation hashes an inline matrix once and builds any matrix once;
* calibration — the tier-1 statistical bound covers the sampled-vs-exact
  deviation across generator matrices of all four paper classes, and
  every tier's observed error against simulated ground truth stays
  within its reported bound on small class-1/class-2 matrices.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import MethodB, SectorAdvisor
from repro.core.analytic import method_b_scale_factors, stream_misses
from repro.core.classification import classify
from repro.experiments import ExperimentSetup
from repro.ladder import (DEFAULT_CALIBRATION, Ladder, MatrixDims,
                          SampledMethodB, build_sim)
from repro.ladder import tier0 as ladder_tier0
from repro.ladder import tiers as ladder_tiers
from repro.matrices import banded, random_uniform
from repro.matrices.collection import MatrixSpec
from repro.service import matrix_payload, protocol, worker
from repro.service.protocol import normalize_request
from repro.spmv.sector_policy import SectorPolicy, listing1_policy

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False

SETUP = ExperimentSetup(scale=16, num_threads=48, iterations=2)
MACHINE = SETUP.machine()
LADDER = Ladder(SETUP)

#: Tiny class-1 matrix: every tier (including the simulation) is cheap.
TINY = banded(2_000, 16, 4, seed=3)
TINY_DIMS = MatrixDims.of(TINY)

POLICIES = [
    SectorPolicy.from_dict({"l2_sector1_ways": w}).to_dict() for w in (0, 2, 5)
]


def _answer(matrix, dims, **kwargs):
    return LADDER.answer(
        "predict", dims, lambda: matrix, name=matrix.name,
        policies=POLICIES, **kwargs,
    )


# -- escalation ---------------------------------------------------------


def test_no_slo_answers_at_historical_tier():
    answer = _answer(TINY, TINY_DIMS)
    assert answer.tiers_tried == (2,)
    assert answer.tier == 2
    assert answer.slo_met
    assert answer.accuracy_slo is None


def test_no_slo_respects_max_tier():
    for cap in (0, 1, 2):
        answer = _answer(TINY, TINY_DIMS, max_tier=cap)
        assert answer.tiers_tried == (cap,)


def test_loose_slo_answers_at_tier0():
    answer = _answer(TINY, TINY_DIMS, accuracy=2.0)
    assert answer.tier == 0
    assert answer.slo_met
    assert answer.error_bound <= 2.0
    assert answer.cost_seconds >= 0.0


def test_unattainable_slo_reaches_ground_truth():
    answer = _answer(TINY, TINY_DIMS, accuracy=1e-9)
    assert answer.tier == 3
    assert answer.error_bound == 0.0
    assert answer.slo_met
    # every cheaper tier was skipped a priori: its bound cannot reach 1e-9
    assert answer.tiers_tried == (3,)


def test_max_tier_cap_reports_unmet_slo():
    answer = _answer(TINY, TINY_DIMS, accuracy=1e-9, max_tier=1)
    assert answer.tier == 1
    assert not answer.slo_met
    assert answer.error_bound > 1e-9
    # the capped ladder still tried its best allowed tier (0 is skipped:
    # it cannot satisfy the SLO and is not the last resort)
    assert answer.tiers_tried == (1,)


def test_classify_is_always_tier0_exact():
    answer = LADDER.answer(
        "classify", TINY_DIMS, lambda: TINY, name=TINY.name,
        way_options=[0, 5], accuracy=1e-12,
    )
    assert answer.tier == 0
    assert answer.error_bound == 0.0
    assert answer.slo_met
    cmgs = -(-SETUP.num_threads // MACHINE.cores_per_cmg)
    assert answer.result["classes"]["5"] == classify(
        TINY_DIMS, MACHINE, 5, cmgs
    ).value


def test_apriori_skip_jumps_over_hopeless_tiers():
    # class-2 matrix: the analytic model bound (7.0) cannot satisfy 0.5,
    # so every analytic tier is skipped and the simulation answers
    matrix = random_uniform(20_000, 8, seed=1)
    answer = _answer(matrix, MatrixDims.of(matrix), accuracy=0.5)
    assert answer.tiers_tried == (3,)
    assert answer.slo_met


def test_fidelity_payload_shape():
    fidelity = _answer(TINY, TINY_DIMS, accuracy=2.0).fidelity()
    assert fidelity["tier"] == 0
    assert fidelity["accuracy_slo"] == 2.0
    assert fidelity["slo_met"] is True
    assert fidelity["escalations"] == 0
    assert len(fidelity["tier_bounds"]) == len(fidelity["tiers_tried"])
    assert fidelity["cost_seconds"] >= 0.0
    assert fidelity["predicted_cost_seconds"] > 0.0


def test_invalid_arguments_are_rejected():
    with pytest.raises(ValueError):
        LADDER.answer("sweep", TINY_DIMS, lambda: TINY, name=TINY.name)
    with pytest.raises(ValueError):
        _answer(TINY, TINY_DIMS, max_tier=4)
    with pytest.raises(ValueError):
        _answer(TINY, TINY_DIMS, accuracy=0.0)


if HAVE_HYPOTHESIS:

    @settings(max_examples=12, deadline=None)
    @given(slo=st.floats(min_value=0.01, max_value=10.0))
    def test_escalation_invariants_over_slos(slo):
        answer = _answer(TINY, TINY_DIMS, accuracy=slo)
        assert list(answer.tiers_tried) == sorted(set(answer.tiers_tried))
        assert answer.tier == answer.tiers_tried[-1]
        assert len(answer.tier_bounds) == len(answer.tiers_tried)
        assert answer.error_bound == answer.tier_bounds[-1]
        assert answer.slo_met == (answer.error_bound <= slo)
        assert answer.slo_met  # max_tier=3: ground truth meets every SLO

    @settings(max_examples=8, deadline=None)
    @given(
        tight=st.floats(min_value=0.01, max_value=5.0),
        slack=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_looser_slo_never_needs_a_higher_tier(tight, slack):
        loose_answer = _answer(TINY, TINY_DIMS, accuracy=tight + slack)
        tight_answer = _answer(TINY, TINY_DIMS, accuracy=tight)
        assert loose_answer.tier <= tight_answer.tier


# -- byte-identity ------------------------------------------------------


def test_tier2_predict_is_byte_identical_to_method_b():
    matrix = random_uniform(6_000, 8, seed=3)
    answer = _answer(matrix, MatrixDims.of(matrix), max_tier=2)
    model = MethodB(matrix, MACHINE, num_threads=SETUP.num_threads,
                    iterations=SETUP.iterations)
    for entry in answer.result["predictions"]:
        direct = model.predict(SectorPolicy.from_dict(entry["policy"]))
        assert entry["l2_misses"] == direct.l2_misses
        assert entry["per_array"] == {
            k: int(v) for k, v in direct.per_array.items()
        }


def test_tier2_advise_is_byte_identical_to_advisor():
    matrix = banded(3_000, 24, 5, seed=4)
    answer = LADDER.answer(
        "advise", MatrixDims.of(matrix), lambda: matrix, name=matrix.name,
        way_options=[2, 5], max_tier=2,
    )
    direct = SectorAdvisor(
        MACHINE, num_threads=SETUP.num_threads, way_options=(2, 5),
        consider_isolate_x=True, min_sector1_ways_with_prefetch=4,
    ).recommend(matrix)
    assert answer.result == direct.to_dict()


# -- one hash, one build per service evaluation -------------------------

def _count_builds(monkeypatch) -> Counter:
    """Count matrix-name hashes, ``matrix_from_task`` calls and named
    collection builds during the test (every binding site patched)."""
    calls: Counter = Counter()
    real_hashlib = protocol.hashlib

    def sha256(data):
        calls["hash"] += 1
        return real_hashlib.sha256(data)

    real_build = protocol.matrix_from_task

    def matrix_from_task(*args, **kwargs):
        calls["matrix_from_task"] += 1
        return real_build(*args, **kwargs)

    real_materialize = MatrixSpec.materialize

    def materialize(spec):
        calls["named_build"] += 1
        return real_materialize(spec)

    monkeypatch.setattr(protocol, "hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(protocol, "matrix_from_task", matrix_from_task)
    monkeypatch.setattr(worker, "matrix_from_task", matrix_from_task)
    monkeypatch.setattr(MatrixSpec, "materialize", materialize)
    return calls


def test_inline_task_is_hashed_and_built_once(monkeypatch):
    matrix = banded(1_500, 12, 4, seed=8)
    task = normalize_request("predict", {
        "matrix": matrix_payload(matrix), "setup": {"num_threads": 8},
        "max_tier": 2,
    })
    calls = _count_builds(monkeypatch)
    payload = worker.evaluate(task)
    assert payload["fidelity"]["tier"] == 2
    assert calls["hash"] == 1
    assert calls["matrix_from_task"] == 1


@pytest.mark.parametrize("flags", [{}, {"max_tier": 2}])
def test_named_task_builds_its_matrix_once(monkeypatch, flags):
    task = normalize_request("advise", {
        "matrix": {"name": "banded_001", "collection": "tiny"},
        "setup": {"num_threads": 8}, **flags,
    })
    monkeypatch.setattr(ladder_tier0, "_named_dims", {})
    calls = _count_builds(monkeypatch)
    payload = worker.evaluate(task)
    assert "error" not in payload, payload
    assert calls["named_build"] == 1
    assert calls["hash"] == 0


def test_tier3_predict_matches_raw_simulator():
    answer = _answer(TINY, TINY_DIMS, accuracy=1e-9)
    sim = build_sim(TINY, MACHINE, SETUP.sim_config())
    for entry in answer.result["predictions"]:
        events = sim.events(SectorPolicy.from_dict(entry["policy"]))
        assert entry["l2_misses"] == int(events.l2_refill)
    assert answer.result["method"] == "sim"


@pytest.mark.parametrize("ways, builds", [((2, 3), 1), ((2, 5), 2)])
def test_tier3_builds_the_isolate_x_simulator_only_to_price_one(
        monkeypatch, ways, builds):
    setup = ExperimentSetup(scale=16, num_threads=1)
    matrix = random_uniform(20_000, 8, seed=3)  # class 3a at one thread
    built = []

    def counting_build_sim(*args, **kwargs):
        built.append(args)
        return build_sim(*args, **kwargs)

    monkeypatch.setattr(ladder_tiers, "build_sim", counting_build_sim)
    answer = Ladder(setup).answer(
        "advise", MatrixDims.of(matrix), lambda: matrix, name=matrix.name,
        accuracy=1e-9, way_options=list(ways))
    assert answer.tier == 3
    assert answer.result["matrix_class"] == "3a"
    assert len(built) == builds


# -- degraded mode delegates to tier 0 ----------------------------------


def test_degraded_mode_is_the_ladder_tier0():
    answer = _answer(TINY, TINY_DIMS, max_tier=0)
    direct = ladder_tier0.closed_predict(
        TINY_DIMS, MACHINE, SETUP.num_threads, POLICIES, TINY.name
    )
    assert answer.result == direct


# -- calibration --------------------------------------------------------

#: Generator matrices covering the four paper classes under ``SETUP``
#: (class is per way split; each entry names the classes it contributes).
CLASS_MATRICES = [
    ("class1", lambda: banded(8_000, 32, 4, seed=1)),
    ("class2", lambda: random_uniform(20_000, 8, seed=1)),
    ("class2_3a", lambda: banded(40_000, 64, 6, seed=2)),
    ("class3b", lambda: random_uniform(80_000, 4, seed=9)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in CLASS_MATRICES],
    ids=[name for name, _ in CLASS_MATRICES],
)
def test_sampling_bound_covers_sampled_vs_exact(factory):
    """Tier 1's statistical term covers |sampled - exact| x misses.

    At every profile query point the ladder prices (the partitioned
    capacities of the Listing-1 splits and the shared-capacity point),
    the SHARDS estimate must deviate from the exact single-period pass
    by at most ``z`` standard errors plus the bias slack — the exact
    composition of the posterior tier-1 bound.
    """
    matrix = factory()
    cal = DEFAULT_CALIBRATION
    floor = max(1, stream_misses(matrix, MACHINE.line_size).total)
    exact = MethodB(matrix, MACHINE, num_threads=SETUP.num_threads,
                    iterations=SETUP.iterations)
    sampled = SampledMethodB(matrix, MACHINE,
                             num_threads=SETUP.num_threads,
                             rate=cal.sampling_rate)
    s1, s2 = method_b_scale_factors(matrix)
    points = [(s1, MACHINE.l2.partition_lines(w)[0]) for w in (2, 5)]
    points.append((s2, MACHINE.l2.capacity_lines))
    for scale, capacity in points:
        got = sampled.x_misses(scale, capacity)
        want = exact.x_misses(scale, capacity)
        slack = (cal.sampling_z * sampled.x_misses_error(scale, capacity)
                 + cal.sampling_bias * floor)
        assert abs(got - want) <= slack, (
            f"sampled {got} vs exact {want} at (scale={scale:.3f}, "
            f"capacity={capacity}): beyond the statistical bound {slack:.1f}"
        )


#: The error check's matrices: the four classes plus a random matrix
#: whose classes differ across the (0, 2, 5) way splits.
ERROR_MATRICES = CLASS_MATRICES + [
    ("random40k", lambda: random_uniform(40_000, 8, seed=4)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in ERROR_MATRICES],
    ids=[name for name, _ in ERROR_MATRICES],
)
def test_observed_errors_within_reported_bounds(factory):
    """Tiers 0-2 stay inside their bounds against simulated ground truth."""
    matrix = factory()
    dims = MatrixDims.of(matrix)
    floor = max(1, stream_misses(dims, MACHINE.line_size).total)
    truth_answer = _answer(matrix, dims, accuracy=1e-9)
    truth = {
        str(sorted(p["policy"].items())): p["l2_misses"]
        for p in truth_answer.result["predictions"]
    }
    for tier in (0, 1, 2):
        answer = _answer(matrix, dims, max_tier=tier)
        error = max(
            abs(p["l2_misses"] - truth[str(sorted(p["policy"].items()))])
            / max(truth[str(sorted(p["policy"].items()))], floor)
            for p in answer.result["predictions"]
        )
        assert error <= answer.error_bound, (
            f"tier {tier}: observed {error:.3f} > bound "
            f"{answer.error_bound:.3f}"
        )
