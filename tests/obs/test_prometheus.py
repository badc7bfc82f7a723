"""Prometheus text exposition: rendering and the strict parser."""

import pytest

from repro.obs import (
    LatencyHistogram,
    MetricStore,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.prometheus import SERVICE_FAMILIES, Family
from repro.service.metrics import ServiceMetrics

CACHE_STATS = {
    "memory": {"hits": 3, "misses": 1, "evictions": 0, "expirations": 0,
               "entries": 2, "bytes": 512, "max_bytes": 1 << 20,
               "ttl_seconds": 300.0},
    "disk": {"hits": 1, "misses": 2, "enabled": True},
}


def _snapshot():
    store = MetricStore(SERVICE_FAMILIES)
    for endpoint, status, seconds in [("sweep", "ok", 0.02),
                                      ("sweep", "ok", 4.0),
                                      ("advise", "error", 0.3)]:
        store.count("requests", endpoint, status)
        store.observe("latency_seconds", endpoint, value=seconds)
    store.count("evaluations", "sweep", by=2)
    store.count("coalesced", "sweep")
    store.count("cache_served", "sweep", "memory")
    metrics = ServiceMetrics(store)
    metrics.observe_phases("sweep", {"simulate": 1.5, "model_a": 0.5})
    metrics.observe_phases("sweep", {"simulate": 0.5})
    return store.snapshot({"uptime_seconds": 0.0, "breakers": {},
                           "cache": CACHE_STATS, "workers.jobs": 2})


def test_rendered_snapshot_parses_under_the_strict_reader():
    text = render_prometheus(_snapshot())
    samples = parse_prometheus_text(text)
    assert ({"endpoint": "sweep", "status": "ok"}, 2.0) in samples[
        "repro_requests_total"
    ]
    assert ({"endpoint": "sweep"}, 2.0) in samples["repro_evaluations_total"]
    assert ({"endpoint": "sweep", "phase": "simulate"}, 2.0) in samples[
        "repro_evaluation_phase_seconds_total"
    ]
    assert ({"endpoint": "sweep", "tier": "memory"}, 1.0) in samples[
        "repro_cache_served_total"
    ]


def test_histogram_series_are_cumulative_and_consistent():
    text = render_prometheus(_snapshot())
    samples = parse_prometheus_text(text)
    buckets = [
        (labels["le"], value)
        for labels, value in samples["repro_request_latency_seconds_bucket"]
        if labels["endpoint"] == "sweep"
    ]
    values = [v for _, v in buckets]
    assert values == sorted(values), "buckets must be cumulative"
    assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 2.0
    counts = dict(
        (labels["endpoint"], value)
        for labels, value in samples["repro_request_latency_seconds_count"]
    )
    assert counts["sweep"] == 2.0


def test_label_values_are_escaped():
    snapshot = _snapshot()
    snapshot["requests"]['we"ird\nname'] = {"ok": 1}
    text = render_prometheus(snapshot)
    samples = parse_prometheus_text(text)
    assert any(
        labels.get("endpoint") == 'we\\"ird\\nname'
        for labels, _ in samples["repro_requests_total"]
    )


def test_parser_rejects_malformed_text():
    with pytest.raises(ValueError, match="no TYPE"):
        parse_prometheus_text("untyped_metric 1\n")
    with pytest.raises(ValueError, match="malformed sample"):
        parse_prometheus_text("# TYPE m counter\nm{broken 1\n")
    with pytest.raises(ValueError, match="malformed TYPE"):
        parse_prometheus_text("# TYPE m wrongkind\n")
    with pytest.raises(ValueError, match="duplicate TYPE"):
        parse_prometheus_text("# TYPE m counter\n# TYPE m counter\n")


def test_parser_rejects_inconsistent_histograms():
    bad = (
        "# TYPE h histogram\n"
        'h_bucket{le="0.1"} 5\n'
        'h_bucket{le="+Inf"} 3\n'
    )
    with pytest.raises(ValueError, match="non-monotonic"):
        parse_prometheus_text(bad)
    missing_inf = "# TYPE h histogram\n" 'h_bucket{le="0.1"} 1\n'
    with pytest.raises(ValueError, match="missing \\+Inf"):
        parse_prometheus_text(missing_inf)
    mismatch = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 3\n'
        "h_count 4\n"
    )
    with pytest.raises(ValueError, match="_count"):
        parse_prometheus_text(mismatch)


def test_latency_histogram_is_shared_between_obs_and_service():
    # one histogram class: it lives in repro.obs only, and the service's
    # latency series are that class's snapshots
    from repro.service import metrics as service_metrics

    assert not hasattr(service_metrics, "LatencyHistogram")
    metrics = ServiceMetrics(MetricStore(SERVICE_FAMILIES))
    hist = LatencyHistogram()
    for seconds in (0.003, 100.0):
        metrics.store.observe("latency_seconds", "sweep", value=seconds)
        hist.observe(seconds)
    snap = hist.snapshot()
    assert metrics.store.snapshot()["latency_seconds"]["sweep"] == snap
    assert snap["count"] == 2
    assert snap["buckets"]["+Inf"] == 2
    assert snap["buckets"]["0.005"] == 1


def test_store_keeps_each_family_in_the_shape_of_its_path():
    store = MetricStore((
        Family("up", "gauge", "Uptime.", "up", view=True),
        Family("hits_total", "counter", "Hits.", "hits.*.*", ("a", "b")),
        Family("depth", "gauge", "Depth.", "queue.depth"),
        Family("peak", "gauge", "Peak.", "queue.peak"),
        Family("wait", "histogram", "Wait.", "wait", buckets=(1.0,)),
    ))
    assert store.count("hits", "x", 2) == 1
    assert store.count("hits", "x", 2, by=2) == 3
    store.peak("queue.peak", value=store.count("queue.depth", by=4))
    store.count("queue.depth", by=-1)
    store.observe("wait", value=0.5)
    assert store.value("queue.depth") == 3
    assert store.snapshot({"up": 1.5}) == {
        "up": 1.5,
        "hits": {"x": {"2": 3}},
        "queue": {"depth": 3, "peak": 4},
        "wait": {"count": 1, "sum_seconds": 0.5,
                 "buckets": {"1.0": 1, "+Inf": 1},
                 "quantiles": {"p50": 0.5, "p95": 0.95, "p99": 0.99}},
    }
    with pytest.raises(ValueError, match="one label value per"):
        store.count("hits", "x")


def test_store_rejects_a_stored_path_it_cannot_hold():
    with pytest.raises(ValueError, match="must come last"):
        MetricStore((Family("x", "counter", "X.", "a.*.b", ("k",)),))
    with pytest.raises(ValueError, match="stored twice"):
        MetricStore((Family("x", "counter", "X.", "a"),
                     Family("y", "counter", "Y.", "a")))
