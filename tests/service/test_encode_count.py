"""How many times one request canonically encodes its whole inline matrix.

Encoding the matrix is the dominant daemon-side cost of an inline or
``/delta`` request, so the budgets are pinned.  A plain inline request
encodes it once: the daemon's root JSON, which the request key and the
stored-task record splice and which the worker receives to name the
matrix.  A ``/delta`` step costs its batch, not its base: the first step
off a plain base held in memory encodes the base once (and the base then
holds that root JSON), later steps of the chain encode it zero times —
the registry entry holds the chain's root JSON, and the worker hashes it
for the name and both reuse-state keys — and a base read back from disk
encodes once, to revalidate.  An encode is counted when
``canonical_json`` emits more bytes than the base's column indices alone
take.
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


class _Recording:
    """A pool that records the arguments of every submitted evaluation."""

    def __init__(self, pool, calls: list) -> None:
        self.pool, self.calls = pool, calls

    def submit(self, fn, *args):
        assert fn is worker.evaluate
        self.calls.append(args)
        return self.pool.submit(fn, *args)

    def __getattr__(self, name):
        return getattr(self.pool, name)


@pytest.fixture
def submitted():
    """The ``(task, root_json)`` pairs the daemons hand their pools."""
    return []


@pytest.fixture
def start(tmp_path, submitted):
    """Starts daemon threads on one cache directory, in this process (their
    encodes are counted); a pool worker is a forked process, so the
    worker's share is counted by evaluating what it was sent here."""
    threads, clients = [], []

    def launch():
        thread = ServiceThread(ServiceConfig(jobs=1, cache_dir=str(tmp_path)))
        client = ServiceClient(*thread.start(), timeout=120.0)
        service = thread.service
        service._executor = _Recording(service._executor, submitted)
        threads.append(thread)
        clients.append(client)
        return client

    yield launch
    for client in clients:
        client.close()
    for thread in threads:
        thread.stop()


def _counted(encodes, call):
    before = encodes["n"]
    value = call()
    return encodes["n"] - before, value


def _worker_encodes(encodes, submitted) -> int:
    task, root_json = submitted.pop()
    assert not submitted
    count, payload = _counted(encodes, lambda: worker.evaluate(task, root_json))
    assert "error" not in payload, payload
    if task["matrix"]["kind"] == "delta":
        assert payload["delta"]["path"] == "incremental"
    return count


def _step(client, encodes, key, rows):
    # disjoint rows, so every batch is valid on the chained pattern
    inserts, deletes = band_edits(MATRIX, rows)
    daemon_side, step = _counted(
        encodes, lambda: client.delta(key, inserts=inserts, deletes=deletes))
    assert step["cached"] is None and step["delta"]["path"] == "incremental"
    return daemon_side, step["key"]


def test_plain_inline_request_encodes_once(start, encodes, submitted):
    client = start()
    daemon_side, envelope = _counted(
        encodes, lambda: client.advise(matrix=MATRIX, **SEQ))
    assert envelope["cached"] is None
    assert daemon_side == 1
    assert _worker_encodes(encodes, submitted) == 0


def test_a_delta_step_encodes_its_base_at_most_once(start, encodes, submitted):
    client = start()
    key = client.advise(matrix=MATRIX, **SEQ)["key"]
    submitted.clear()
    # the first step's worker starts cold, the later ones find their prefix
    for index, rows in enumerate(([5], [40, 41], [90])):
        daemon_side, key = _step(client, encodes, key, rows)
        assert daemon_side == (1 if index == 0 else 0)
        assert _worker_encodes(encodes, submitted) == 0


def test_a_base_read_back_from_disk_encodes_once(start, encodes, submitted):
    client = start()
    key = client.advise(matrix=MATRIX, **SEQ)["key"]
    _, key = _step(client, encodes, key, [5])
    client = start()  # a second daemon on the cache directory: cold memory
    submitted.clear()
    for index, rows in enumerate(([40, 41], [90])):
        daemon_side, key = _step(client, encodes, key, rows)
        assert daemon_side == (1 if index == 0 else 0)
        assert _worker_encodes(encodes, submitted) == 0
