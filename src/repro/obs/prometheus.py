"""Prometheus text exposition, declared once per metric family.

Each family of the daemon's (:data:`SERVICE_FAMILIES`) and the
gateway's (``repro.cluster.gateway.GATEWAY_FAMILIES``) exposition is one
:class:`Family` row: name, type, help, where its samples sit in the JSON
``/metrics`` snapshot, and its label names.  :func:`render` walks any
table into the Prometheus text format (version 0.0.4): one ``# HELP``/
``# TYPE`` pair per family, cumulative ``_bucket{le=...}`` histogram
series reusing the snapshot's ``le``-convention buckets, counters
suffixed ``_total``.  :func:`render_prometheus` is the daemon's table
through it.  The operator catalogue in ``docs/OPERATIONS.md`` is checked
against the same tables by the tests.

:func:`parse_prometheus_text` is the matching strict reader used by the
tests (and usable against any exposition text): it validates line syntax,
label quoting, histogram monotonicity and ``_count`` == ``+Inf`` bucket
consistency, raising ``ValueError`` on the first violation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')

#: one exposition sample: (name suffix, labels, value)
Sample = tuple[str, dict, object]


def _escape(value: str) -> str:
    return (
        str(value).replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _labels(labels: dict) -> str:
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items())
    return f"{{{inner}}}" if inner else ""


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lookup(snapshot: dict, path: str):
    """The snapshot value at a dotted ``path`` (None when absent)."""
    node = snapshot
    for step in path.split("."):
        node = node.get(step) if isinstance(node, dict) else None
    return node


@dataclass(frozen=True)
class Family:
    """One metric family: how it is exposed and where its samples live.

    ``path`` walks the snapshot one dotted step at a time; a ``*`` step
    fans out over that level's keys, in sorted order, each becoming the
    value of the next name in ``labels``.  A missing key reads as an
    empty level, or 0 at the leaf.  A ``histogram`` leaf is a
    :class:`~repro.obs.histogram.LatencyHistogram` snapshot.  ``when``
    is a path that must hold a truthy value for the family to be
    exposed at all.  ``sampler`` replaces the walk for the few families
    that are not a plain read: it gets the value at ``path`` and yields
    ``(suffix, labels, value)``; ``labels`` then only documents them.
    """

    name: str
    kind: str
    help: str
    path: str
    labels: tuple[str, ...] = ()
    as_float: bool = False
    when: str | None = None
    sampler: Callable[[object], Iterator[Sample]] | None = None

    def samples(self, snapshot: dict) -> Iterator[Sample]:
        if self.sampler is not None:
            yield from self.sampler(_lookup(snapshot, self.path) or {})
            return
        for labels, leaf in _walk(snapshot, self.path.split("."), self.labels, {}):
            if self.kind == "histogram":
                yield from _histogram(labels, leaf)
            else:
                yield "", labels, float(leaf) if self.as_float else leaf


def _walk(node, steps: list[str], names: tuple[str, ...],
          labels: dict) -> Iterator[tuple[dict, object]]:
    if not steps:
        yield labels, node
        return
    step, rest = steps[0], steps[1:]
    if step == "*":
        for key, child in sorted(node.items()):
            yield from _walk(child, rest, names[1:], {**labels, names[0]: key})
    else:
        yield from _walk(node.get(step, {} if rest else 0), rest, names, labels)


def _histogram(labels: dict, hist: dict) -> Iterator[Sample]:
    for bound, cumulative in hist.get("buckets", {}).items():
        yield "_bucket", {**labels, "le": bound}, cumulative
    yield "_sum", labels, float(hist.get("sum_seconds", 0.0))
    yield "_count", labels, hist.get("count", 0)


def render(families: tuple[Family, ...], snapshot: dict, prefix: str) -> str:
    """The snapshot's exposition text over one family table."""
    lines: list[str] = []
    for family in families:
        if family.when is not None and not _lookup(snapshot, family.when):
            continue
        name = f"{prefix}_{family.name}"
        lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for suffix, labels, value in family.samples(snapshot):
            lines.append(f"{name}{suffix}{_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _ladder_escalations(escalations: dict) -> Iterator[Sample]:
    """The tiers-climbed counter, exposed as a histogram over 0..3."""
    cumulative = 0
    for bound in ("0", "1", "2", "3"):
        cumulative += int(escalations.get(bound, 0))
        yield "_bucket", {"le": bound}, cumulative
    count = sum(int(v) for v in escalations.values())
    yield "_bucket", {"le": "+Inf"}, count
    yield "_sum", {}, float(sum(int(k) * int(v) for k, v in escalations.items()))
    yield "_count", {}, count


def _faults(injected: dict) -> Iterator[Sample]:
    for site_kind, count in sorted(injected.items()):
        site, _, kind = site_kind.rpartition(":")
        yield "", {"site": site, "kind": kind}, count


def _breaker_state(breakers: dict) -> Iterator[Sample]:
    from ..resilience.breaker import STATE_VALUES  # resilience imports obs

    for endpoint, breaker in sorted(breakers.items()):
        yield "", {"endpoint": endpoint}, STATE_VALUES.get(breaker.get("state"), 0)


def _breaker_events(breakers: dict) -> Iterator[Sample]:
    for endpoint, breaker in sorted(breakers.items()):
        for event in ("successes", "failures", "rejections"):
            yield "", {"endpoint": endpoint, "event": event}, breaker.get(event, 0)


def _cache_tier_events(cache: dict) -> Iterator[Sample]:
    for tier, events in (("memory", ("hits", "misses", "evictions", "expirations")),
                         ("disk", ("hits", "misses", "corrupt"))):
        stats = cache.get(tier, {})
        for event in events:
            yield "", {"tier": tier, "event": event}, stats.get(event, 0)


#: the daemon's exposition (``GET /metrics?format=prometheus``)
SERVICE_FAMILIES = (
    Family("uptime_seconds", "gauge", "Daemon uptime.", "uptime_seconds",
           as_float=True),
    Family("requests_total", "counter",
           "Terminal request count by endpoint and status.",
           "requests.*.*", ("endpoint", "status")),
    Family("evaluations_total", "counter",
           "Model evaluations actually performed.",
           "evaluations.*", ("endpoint",)),
    Family("coalesced_total", "counter",
           "Requests that piggybacked on an in-flight evaluation.",
           "coalesced.*", ("endpoint",)),
    Family("cache_served_total", "counter",
           "Requests served from a cache tier.",
           "cache_served.*.*", ("endpoint", "tier")),
    Family("degraded_total", "counter",
           "Requests answered from the analytic degraded path.",
           "degraded.*.*", ("endpoint", "reason")),
    Family("ladder_answers_total", "counter",
           "Fidelity-ladder answers by endpoint and delivered tier.",
           "ladder.answers.*.*", ("endpoint", "tier")),
    Family("ladder_escalations", "histogram",
           "Tiers climbed per fidelity-ladder answer.",
           "ladder.escalations", when="ladder.escalations",
           sampler=_ladder_escalations),
    Family("audit_observed_error", "gauge",
           "Observed floored relative error of audited cheap-tier answers "
           "vs tier 2, by class, tier and quantile.",
           "audit.observed_error.*.*.quantiles.*",
           ("class", "tier", "quantile"), as_float=True, when="audit"),
    Family("audit_samples_total", "counter",
           "Audited answers recorded, by class and tier.",
           "audit.observed_error.*.*.count", ("class", "tier"), when="audit"),
    Family("audit_bound_violations_total", "counter",
           "Audited answers whose observed error exceeded the calibrated "
           "bound, by class and tier.",
           "audit.observed_error.*.*.violations", ("class", "tier"),
           when="audit"),
    Family("audit_backlog", "gauge",
           "Sampled answers waiting for an off-path tier-2 audit evaluation.",
           "audit.backlog", when="audit"),
    Family("audit_dropped_total", "counter",
           "Sampled answers shed (backlog full or audit budget exhausted).",
           "audit.dropped", when="audit"),
    Family("audit_budget_spent_seconds_total", "counter",
           "Cumulative evaluation seconds spent on audit re-answers.",
           "audit.budget_spent_seconds", as_float=True, when="audit"),
    Family("optimize_strategies_total", "counter",
           "Reordering-search candidate outcomes by strategy label and "
           "terminal status.",
           "optimize.strategies.*.*", ("strategy", "status")),
    Family("optimize_predicted_improvement", "histogram",
           "Confirmed predicted L2-miss improvement per fresh reordering "
           "search (fraction of baseline).",
           "optimize.improvement", when="optimize.improvement.count"),
    Family("delta_applied_total", "counter",
           "Delta evaluations answered without a full stack pass, by "
           "endpoint and path.",
           "delta.applied.*.*", ("endpoint", "path")),
    Family("delta_fallback_total", "counter",
           "Delta evaluations that fell back to full re-evaluation, by "
           "endpoint and reason.",
           "delta.fallback.*.*", ("endpoint", "reason")),
    Family("delta_drift", "histogram",
           "Accumulated edit fraction (edits over base nonzeros) per delta "
           "evaluation.",
           "delta.drift", when="delta.drift.count"),
    Family("peer_fill_total", "counter",
           "Warm-cache fills attempted against a peer replica, by outcome.",
           "peer_fill.*", ("outcome",)),
    Family("cache_peek_total", "counter",
           "/cache/peek requests served to peer replicas, by outcome.",
           "cache_peek.*", ("outcome",)),
    Family("cache_gc_sweeps_total", "counter",
           "Disk-cache GC sweeps run by the daemon.", "gc.sweeps"),
    Family("cache_gc_deleted_total", "counter",
           "Disk-cache entries deleted by GC.", "gc.deleted"),
    Family("cache_gc_deleted_bytes_total", "counter",
           "Disk-cache bytes reclaimed by GC.", "gc.deleted_bytes"),
    Family("cache_gc_quarantined", "gauge",
           "Quarantine files present and preserved at the last GC sweep.",
           "gc.quarantined"),
    Family("faults_injected_total", "counter",
           "Injected faults fired, by site and kind.",
           "faults_injected", ("site", "kind"), sampler=_faults),
    Family("breaker_state", "gauge",
           "Circuit-breaker state per endpoint (0=closed, 1=open, "
           "2=half_open).",
           "breakers", ("endpoint",), when="breakers", sampler=_breaker_state),
    Family("breaker_events_total", "counter",
           "Circuit-breaker accounting events per endpoint.",
           "breakers", ("endpoint", "event"), when="breakers",
           sampler=_breaker_events),
    Family("breaker_transitions_total", "counter",
           "Circuit-breaker state transitions per endpoint.",
           "breakers.*.transitions.*", ("endpoint", "transition"),
           when="breakers"),
    Family("evaluation_phase_seconds_total", "counter",
           "Cumulative model-evaluation self time by phase span.",
           "evaluation_phase_seconds.*.*", ("endpoint", "phase"),
           as_float=True),
    Family("request_latency_seconds", "histogram",
           "Request latency by endpoint.",
           "latency_seconds.*", ("endpoint",)),
    Family("cache_memory_entries", "gauge", "Memory-tier entries.",
           "cache.memory.entries"),
    Family("cache_memory_bytes", "gauge", "Memory-tier resident bytes.",
           "cache.memory.bytes"),
    Family("cache_tier_events_total", "counter",
           "Cache events (hits/misses/evictions/expirations) by tier.",
           "cache", ("tier", "event"), sampler=_cache_tier_events),
    Family("queue_depth", "gauge", "Requests waiting for a worker slot.",
           "queue.depth"),
    Family("queue_peak", "gauge", "Peak queue depth.", "queue.peak"),
    Family("workers_busy", "gauge", "Busy pool workers.", "workers.busy"),
    Family("workers_jobs", "gauge", "Configured pool size.", "workers.jobs"),
    Family("worker_restarts_total", "counter",
           "Pool rebuilds after a worker death.", "workers.restarts"),
    Family("request_timeouts_total", "counter",
           "Evaluations abandoned on timeout.", "workers.timeouts"),
)


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """The daemon's ``/metrics`` snapshot in Prometheus text format."""
    return render(SERVICE_FAMILIES, snapshot, prefix)


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Strictly parse exposition text into ``{name: [(labels, value)]}``.

    Raises ``ValueError`` on malformed lines, labels, duplicate TYPE
    declarations, samples without a TYPE, non-monotonic histogram buckets,
    or ``_count`` disagreeing with the ``+Inf`` bucket.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME.match(parts[2]) or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            if parts[2] in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {parts[2]}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in types and family not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        labels: dict = {}
        raw = match.group("labels")
        if raw:
            for part in _split_labels(raw, lineno):
                label = _LABEL.match(part)
                if not label:
                    raise ValueError(f"line {lineno}: malformed label {part!r}")
                labels[label.group("key")] = label.group("value")
        samples.setdefault(name, []).append((labels, float(match.group("value"))))
    _check_histograms(samples, types)
    return samples


def _split_labels(raw: str, lineno: int) -> list[str]:
    parts, depth_quote, current = [], False, ""
    for ch in raw:
        if ch == '"' and not current.endswith("\\"):
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current:
        parts.append(current)
    if depth_quote:
        raise ValueError(f"line {lineno}: unbalanced quotes in labels")
    return parts


def _check_histograms(
    samples: dict[str, list[tuple[dict, float]]], types: dict[str, str]
) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in samples.get(f"{family}_bucket", []):
            if "le" not in labels:
                raise ValueError(f"{family}_bucket sample without le label")
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            bound = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            series.setdefault(key, []).append((bound, value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(f"{family}_count", [])
        }
        for key, buckets in series.items():
            ordered = sorted(buckets)
            values = [v for _, v in ordered]
            if values != sorted(values):
                raise ValueError(f"{family}{dict(key)}: non-monotonic buckets")
            if ordered[-1][0] != float("inf"):
                raise ValueError(f"{family}{dict(key)}: missing +Inf bucket")
            if key in counts and counts[key] != ordered[-1][1]:
                raise ValueError(
                    f"{family}{dict(key)}: _count != +Inf bucket"
                )
