"""How many times one request canonically encodes its whole inline matrix.

Encoding the matrix is the dominant daemon-side cost of an inline or
``/delta`` request, so the budgets are pinned: a plain inline request
encodes it twice (the daemon's request key, whose encoding is also the
stored-task record; the worker's matrix name), and a delta step three
times (the daemon revalidating the base key and keying the derived task;
the worker encoding the base once for the name and both reuse-state
keys).  An encode is counted when ``canonical_json`` emits more bytes
than the base's column indices alone take.
"""

import types

import pytest

from repro.analysis import report
from repro.matrices.generators import banded
from repro.service import ServiceClient, ServiceConfig, ServiceThread, worker

from .test_delta_service import band_edits

SEQ = {"num_threads": 1, "scale": 16}
MATRIX = banded(1_500, 8, 6, seed=4)


@pytest.fixture
def encodes(monkeypatch):
    """Counts full-matrix encodes made in this process."""
    threshold = len(report.canonical_json(MATRIX.colidx))
    dumps = report.json.dumps
    counter = {"n": 0}

    def counting(value, *args, **kwargs):
        text = dumps(value, *args, **kwargs)
        counter["n"] += len(text) > threshold
        return text

    monkeypatch.setattr(report, "json", types.SimpleNamespace(dumps=counting))
    return counter


@pytest.fixture
def daemon(tmp_path):
    """A daemon thread in this process (its encodes are counted); its
    pool worker is a forked process, so the worker's share is counted by
    evaluating the same task here."""
    thread = ServiceThread(ServiceConfig(jobs=1, cache_dir=str(tmp_path)))
    with thread as (host, port):
        client = ServiceClient(host, port, timeout=120.0)
        yield client, thread.service.registry
        client.close()


def _counted(encodes, call):
    before = encodes["n"]
    value = call()
    return encodes["n"] - before, value


def _worker_encodes(encodes, task) -> int:
    count, payload = _counted(encodes, lambda: worker.evaluate(task))
    assert "error" not in payload, payload
    if task["matrix"]["kind"] == "delta":
        assert payload["delta"]["path"] == "incremental"
    return count


def test_plain_inline_request_encodes_twice(daemon, encodes):
    client, registry = daemon
    daemon_side, envelope = _counted(
        encodes, lambda: client.advise(matrix=MATRIX, **SEQ))
    assert envelope["cached"] is None
    assert daemon_side == 1
    task = registry.get(envelope["key"])
    assert daemon_side + _worker_encodes(encodes, task) == 2


def test_delta_step_encodes_three_times(daemon, encodes):
    client, registry = daemon
    key = client.advise(matrix=MATRIX, **SEQ)["key"]
    # disjoint rows, so every batch is valid on the chained pattern; the
    # first step's worker starts cold, the later ones find their prefix
    for rows in ([5], [40, 41], [90]):
        inserts, deletes = band_edits(MATRIX, rows)
        daemon_side, step = _counted(
            encodes, lambda: client.delta(key, inserts=inserts, deletes=deletes))
        assert step["delta"]["path"] == "incremental"
        assert daemon_side == 2
        key = step["key"]
        assert daemon_side + _worker_encodes(encodes, registry.get(key)) == 3
