"""Fidelity-ladder flags over the wire: SLOs, caching tiers, metrics.

The daemon contract under test: ``accuracy`` / ``max_tier`` request
flags route evaluation through the ladder and attach a ``fidelity``
object to the envelope; the request key excludes both flags, so ladder
and legacy requests warm the *same* plain cache entry (served to a
ladder request only when the tier-2 bound satisfies its SLO) while
tier-3 answers live under a suffixed key; the per-tier answer counters
and the escalation histogram surface in ``/metrics`` (JSON and
Prometheus).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.report import canonical_json
from repro.core.advisor import SectorAdvisor
from repro.core.classification import classify
from repro.core.method_b import MethodB
from repro.delta import engine as delta_engine
from repro.delta.delta import MatrixDelta
from repro.matrices import banded
from repro.obs.prometheus import parse_prometheus_text
from repro.resilience.faults import FaultPlan
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    matrix_payload,
)
from repro.service.protocol import (
    derive_delta_task,
    matrix_from_task,
    normalize_delta,
    normalize_request,
    setup_from_task,
)
from repro.service.worker import evaluate
from repro.spmv.sector_policy import SectorPolicy

from .conftest import SETUP

#: Class-1 matrices under the conftest setup (scale 16, 8 threads):
#: tier-0 bound 0.70, tier-2 bound 0.65.
TIER0_SLO = 1.0       # satisfied by tier 0
TIER2_SLO = 0.68      # satisfied by a cached tier-2 answer, not by tier 0
SIM_ONLY_SLO = 0.5    # below every analytic bound: only tier 3 qualifies


def test_loose_slo_is_answered_without_a_stack_pass(client):
    """First ladder request of this daemon: tier 0, no stack pass ever."""
    matrix = banded(620, 20, 5, seed=31)
    envelope = client.predict(matrix, accuracy=TIER0_SLO, **SETUP)
    fidelity = envelope["fidelity"]
    assert fidelity["tier"] == 0
    assert fidelity["slo_met"] is True
    assert fidelity["accuracy_slo"] == TIER0_SLO
    assert fidelity["error_bound"] <= TIER0_SLO
    metrics = client.metrics()
    assert metrics["ladder"]["answers"]["predict"]["0"] >= 1
    phases = metrics["evaluation_phase_seconds"].get("predict", {})
    assert not [k for k in phases if "stack_pass" in k]
    assert any(k.startswith("ladder.tier0") for k in phases)


def test_legacy_and_ladder_requests_share_the_plain_cache_entry(client):
    matrix = banded(640, 22, 5, seed=32)
    legacy = client.predict(matrix, **SETUP)
    assert legacy["cached"] is None
    assert "fidelity" not in legacy
    served = client.predict(matrix, accuracy=TIER2_SLO, **SETUP)
    assert served["key"] == legacy["key"]
    assert served["cached"] == "memory"
    assert served["result"] == legacy["result"]
    fidelity = served["fidelity"]
    assert fidelity["tier"] == 2
    assert fidelity["slo_met"] is True
    assert fidelity["cost_seconds"] == 0.0
    assert fidelity["tiers_tried"] == []


def test_tight_slo_bypasses_the_plain_cache_and_simulates(client):
    matrix = banded(660, 24, 5, seed=33)
    client.predict(matrix, **SETUP)  # warm the plain (tier-2) entry
    first = client.predict(matrix, accuracy=SIM_ONLY_SLO, **SETUP)
    # the cached tier-2 answer's bound cannot satisfy the SLO: evaluate
    assert first["cached"] is None
    assert first["fidelity"]["tier"] == 3
    assert first["fidelity"]["error_bound"] == 0.0
    assert first["fidelity"]["slo_met"] is True
    # the simulated answer is cached under its own (suffixed) key
    second = client.predict(matrix, accuracy=SIM_ONLY_SLO, **SETUP)
    assert second["cached"] == "memory"
    assert second["result"] == first["result"]
    assert second["fidelity"]["tier"] == 3


def test_max_tier_cap_over_the_wire(client):
    matrix = banded(680, 26, 5, seed=34)
    envelope = client.predict(matrix, max_tier=0, **SETUP)
    fidelity = envelope["fidelity"]
    assert fidelity["tier"] == 0
    assert fidelity["accuracy_slo"] is None
    assert fidelity["slo_met"] is True  # no SLO: the cap is the contract
    capped = client.predict(matrix, accuracy=SIM_ONLY_SLO, max_tier=2, **SETUP)
    assert capped["fidelity"]["tier"] == 2
    assert capped["fidelity"]["slo_met"] is False


def test_concurrent_ladder_duplicates_do_not_coalesce(tmp_path):
    """Two overlapping identical ladder requests run two evaluations:
    ladder requests never lead or join a coalesced evaluation."""
    # a daemon-wide delay makes the duplicates overlap (see the plain
    # coalescing test in test_service.py)
    slow = FaultPlan.from_dict({"schema": "repro.resilience.plan/v1",
                                "rules": [{"site": "worker.evaluate",
                                           "kind": "delay",
                                           "delay_seconds": 0.8}]})
    config = ServiceConfig(jobs=2, cache_dir=str(tmp_path),
                           allow_fault_injection=True, fault_plan=slow)
    payload = {"matrix": matrix_payload(banded(690, 27, 5, seed=38)),
               "setup": SETUP, "accuracy": SIM_ONLY_SLO}
    with ServiceThread(config) as (host, port), \
            ServiceClient(host, port, timeout=120.0) as daemon:
        with ThreadPoolExecutor(max_workers=2) as pool:
            envelopes = list(pool.map(
                lambda _: daemon.request("POST", "/predict", payload),
                range(2)))
        metrics = daemon.metrics()
    assert [e["cached"] for e in envelopes] == [None, None]
    # tier 3 is a stored tier: a coalesced follower would not evaluate
    assert [e["fidelity"]["tier"] for e in envelopes] == [3, 3]
    assert metrics["evaluations"]["predict"] == 2
    assert not metrics["coalesced"]


def test_ladder_request_ignores_a_peer_hint(server, client, tmp_path):
    """A ladder request never takes a peer's answer, even from a warm
    peer: it evaluates locally and leaves the peer-fill counters alone."""
    matrix = banded(710, 29, 5, seed=39)
    warm = client.predict(matrix, **SETUP)  # the peer's plain entry
    host, port = server.address
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
    with ServiceThread(config) as (new_host, new_port), \
            ServiceClient(new_host, new_port, timeout=120.0) as new_owner:
        envelope = new_owner.request("POST", "/predict", {
            "matrix": matrix_payload(matrix), "setup": SETUP,
            "accuracy": TIER2_SLO, "peer": {"host": host, "port": port}})
        assert envelope["key"] == warm["key"]
        assert envelope["cached"] is None
        assert not new_owner.metrics()["peer_fill"]


@pytest.mark.parametrize("defaults, own, injected_slo, tiers", [
    ({"default_max_tier": 0}, {"max_tier": 2}, None, (0, 2)),
    ({"default_accuracy": TIER0_SLO}, {"accuracy": SIM_ONLY_SLO}, TIER0_SLO,
     (0, 3)),
], ids=["max_tier", "accuracy"])
def test_daemon_wide_ladder_defaults(client, tmp_path, defaults, own,
                                     injected_slo, tiers):
    """A daemon-wide ladder default turns a plain request into a ladder
    request; a request's own flag wins over it; neither enters the key."""
    matrix = banded(730, 30, 5, seed=40)
    plain_key = client.predict(matrix, **SETUP)["key"]
    config = ServiceConfig(jobs=1, cache_dir=str(tmp_path), **defaults)
    with ServiceThread(config) as (host, port), \
            ServiceClient(host, port, timeout=120.0) as daemon:
        injected = daemon.predict(matrix, **SETUP)
        overridden = daemon.predict(matrix, **SETUP, **own)
    assert injected["fidelity"]["tier"] == tiers[0]
    assert injected["fidelity"]["accuracy_slo"] == injected_slo
    assert overridden["fidelity"]["tier"] == tiers[1]
    assert overridden["fidelity"]["accuracy_slo"] == own.get("accuracy")
    assert injected["key"] == overridden["key"] == plain_key


def test_advise_and_classify_carry_fidelity(client):
    matrix = banded(700, 28, 5, seed=35)
    advised = client.advise(matrix, accuracy=TIER0_SLO, **SETUP)
    assert advised["fidelity"]["tier"] == 0
    assert "best" in advised["result"]
    classified = client.classify(matrix, accuracy=SIM_ONLY_SLO, **SETUP)
    assert classified["fidelity"]["tier"] == 0
    assert classified["fidelity"]["error_bound"] == 0.0
    assert classified["fidelity"]["slo_met"] is True


def test_sweep_rejects_ladder_flags(client):
    matrix = banded(600, 20, 5, seed=36)
    payload = {"matrix": matrix_payload(matrix), "setup": dict(SETUP),
               "accuracy": 0.5}
    with pytest.raises(ServiceError) as excinfo:
        client.request("POST", "/sweep", payload)
    assert excinfo.value.status == 400
    assert "ladder" in excinfo.value.error.get("message", "")


def test_invalid_ladder_flags_are_client_errors(client):
    matrix = banded(600, 20, 5, seed=37)
    for bad in ({"accuracy": -1.0}, {"accuracy": 0.0}, {"max_tier": 4},
                {"max_tier": -1}):
        with pytest.raises(ServiceError) as excinfo:
            client.predict(matrix, **dict(SETUP, **bad))
        assert excinfo.value.status == 400


def test_ladder_metrics_families_in_prometheus(client):
    metrics = client.metrics()
    answers = metrics["ladder"]["answers"]
    assert answers["predict"]["0"] >= 1
    assert answers["predict"]["3"] >= 1
    escalations = metrics["ladder"]["escalations"]
    assert sum(escalations.values()) >= 1
    text = client.metrics(format="prometheus")
    parsed = parse_prometheus_text(text)
    totals = parsed["repro_ladder_answers_total"]
    by_label = {(lbl["endpoint"], lbl["tier"]): v for lbl, v in totals}
    assert by_label[("predict", "0")] >= 1
    buckets = parsed["repro_ladder_escalations_bucket"]
    counts = [v for lbl, v in buckets]
    assert counts == sorted(counts)  # cumulative histogram is monotone


# ----------------------------------------------------------------------
# one answer path: plain == max_tier 2 == the direct library call
# ----------------------------------------------------------------------

ROUTE_MATRIX = banded(720, 12, 5, seed=41)


def _coo_with_duplicates(matrix, copies: int = 16) -> dict:
    """COO triplets of ``matrix``, every entry sent ``copies`` times.

    The summed pattern (duplicates count once) is what every route
    prices; counting the raw triplets would move this class-1 matrix
    into class 2.
    """
    rows = [r for r in range(matrix.num_rows)
            for _ in range(matrix.rowptr[r], matrix.rowptr[r + 1])]
    cols = matrix.colidx.tolist()
    return {"coo": {"num_rows": matrix.num_rows, "num_cols": matrix.num_cols,
                    "rows": rows * copies, "cols": cols * copies}}


ROUTE_SPECS = {
    "csr": matrix_payload(ROUTE_MATRIX),
    "coo": _coo_with_duplicates(ROUTE_MATRIX),
    "named": {"name": "banded_001", "collection": "tiny"},
}


def _library_answer(task: dict) -> dict:
    """The task's answer from the core models, no service code involved."""
    setup = setup_from_task(task)
    machine = setup.machine()
    matrix = matrix_from_task(task)
    if task["endpoint"] == "classify":
        cmgs = -(-setup.num_threads // machine.cores_per_cmg)
        return {"name": matrix.name, "num_cmgs": cmgs, "classes": {
            str(ways): classify(matrix, machine, ways, cmgs).value
            for ways in task["way_options"]}}
    if task["endpoint"] == "predict":
        model = MethodB(matrix, machine, num_threads=setup.num_threads,
                        iterations=setup.iterations)
        predictions = []
        for entry in task["policies"]:
            prediction = model.predict(SectorPolicy.from_dict(entry))
            predictions.append({
                "policy": prediction.policy.to_dict(),
                "l2_misses": int(prediction.l2_misses),
                "per_array": {k: int(v)
                              for k, v in prediction.per_array.items()},
            })
        return {"name": matrix.name, "method": "B", "predictions": predictions}
    return SectorAdvisor(
        machine, num_threads=setup.num_threads,
        way_options=tuple(task["way_options"]),
        consider_isolate_x=task["consider_isolate_x"],
        min_sector1_ways_with_prefetch=task["min_sector1_ways_with_prefetch"],
    ).recommend(matrix).to_dict()


def _assert_one_answer(plain: dict, task: dict) -> dict:
    """A plain envelope's result equals a fresh ``max_tier: 2`` evaluation
    of the same task and the library call; returns that evaluation."""
    assert plain["ok"], plain
    assert "fidelity" not in plain
    capped = evaluate(dict(task, max_tier=2))
    assert "error" not in capped, capped
    assert capped["fidelity"]["tier"] == (0 if task["endpoint"] == "classify"
                                          else 2)
    expected = canonical_json(_library_answer(task))
    assert canonical_json(plain["result"]) == expected
    assert canonical_json(capped["result"]) == expected
    return capped


@pytest.mark.parametrize("kind", sorted(ROUTE_SPECS))
@pytest.mark.parametrize("endpoint", ["classify", "predict", "advise"])
def test_plain_request_is_the_tier2_answer(client, endpoint, kind):
    payload = {"matrix": ROUTE_SPECS[kind], "setup": dict(SETUP)}
    plain = client.request("POST", f"/{endpoint}", payload)
    _assert_one_answer(plain, normalize_request(endpoint, payload))


#: (endpoint, setup, daemon delta budget) -> the path that prices it
DELTA_ROUTES = [
    ("advise", {"num_threads": 1}, None, ("incremental", None)),
    ("predict", {"num_threads": 1}, None, ("incremental", None)),
    ("classify", {"num_threads": 1}, None, ("incremental", "structural")),
    ("predict", {"num_threads": 1}, 1, ("fallback", "budget")),
    ("advise", {"num_threads": 8}, None, ("fallback", "threads")),
    ("predict", {"num_threads": 1, "iterations": 1}, None,
     ("fallback", "iterations")),
]


@pytest.mark.parametrize("endpoint,setup,budget,route", DELTA_ROUTES,
                         ids=[f"{e}-{r[1] or r[0]}"
                              for e, _, _, r in DELTA_ROUTES])
def test_delta_chain_is_the_tier2_answer(client, tmp_path, endpoint, setup,
                                         budget, route):
    payload = {"matrix": matrix_payload(ROUTE_MATRIX), "setup": setup}
    # far-off-band columns: the reuse windows they dirty overflow a
    # 1-element budget, while the default budget patches them
    batch = {"inserts": [[9, 700, 1.0], [500, 3, 1.0]],
             "deletes": [[300, int(ROUTE_MATRIX.colidx[
                 ROUTE_MATRIX.rowptr[300]])]]}

    def chain(daemon: ServiceClient):
        base = daemon.request("POST", f"/{endpoint}", payload)
        return base, daemon.delta(base["key"], **batch)

    if budget is None:
        base, delta = chain(client)
    else:
        # forked workers would inherit this process's warm reuse states
        delta_engine._state_cache.clear()
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path),
                               delta_budget=budget)
        with ServiceThread(config) as (host, port), \
                ServiceClient(host, port, timeout=120.0) as small_budget:
            base, delta = chain(small_budget)
    assert (delta["delta"]["path"], delta["delta"].get("reason")) == route
    stored = normalize_request(endpoint, payload)
    task = derive_delta_task(
        stored, normalize_delta({"base": base["key"], "delta": batch}),
        budget if budget is not None else ServiceConfig().delta_budget)
    capped = _assert_one_answer(delta, task)
    if endpoint != "classify":  # a capped classify delta answers at tier 0
        assert capped["delta"]["path"] == route[0]
    edited = MatrixDelta.from_dict(batch).apply(ROUTE_MATRIX).matrix
    full = client.request("POST", f"/{endpoint}",
                          {"matrix": matrix_payload(edited), "setup": setup})
    assert {k: v for k, v in full["result"].items() if k != "name"} == \
        {k: v for k, v in delta["result"].items() if k != "name"}
