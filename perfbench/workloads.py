"""The three workloads: set-up, closed-loop ops, correctness and invariants.

Each workload object is built from a seed, then:

* :meth:`setup` starts its servers in a :class:`~system.Deployment`,
  generates its inputs and primes what it must (everything a user would
  wait for before the first request is answered);
* :meth:`agents` returns one closed-loop agent per client thread (all
  share one keep-alive :class:`ServiceClient`, which holds a connection
  per thread); an agent call sends one op and returns a :class:`Record`;
* :meth:`problems` runs after the measured window and returns one line
  per op that failed its correctness check or broke the workload's
  invariant (both count in ``failed``).
"""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from repro.analysis.report import canonical_json
from repro.service.client import ServiceClient, ServiceError

import inputs
import reference
from system import Deployment

#: requests may queue behind a sweep; nothing should take this long
CLIENT_TIMEOUT = 120.0


@dataclass
class Record:
    """One op as the client saw it."""

    kind: str
    seconds: float
    envelope: dict | None
    error: str | None = None
    #: what the checks need to know about the op
    context: dict = field(default_factory=dict)


def timed(kind: str, send, context: dict | None = None) -> Record:
    started = time.perf_counter()
    try:
        envelope = send()
    except (ServiceError, OSError, http.client.HTTPException) as exc:
        return Record(kind, time.perf_counter() - started, None,
                      f"{type(exc).__name__}: {exc}", context or {})
    return Record(kind, time.perf_counter() - started, envelope, None, context or {})


class _Shared:
    """A thread-safe cursor over a list shared by all agents."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            return next(self._items, None)


class ColdMix:
    name = "cold_mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, deployment: Deployment) -> None:
        self.daemon = deployment.daemon("daemon")
        self.inputs = inputs.cold_mix(self.seed)
        self.address = self.daemon.wait_announced()

    def agents(self, client: ServiceClient) -> list:
        shared = _Shared(self.inputs.ops)

        def agent():
            op = shared.next()
            if op is None:
                return None
            return timed(op.kind, lambda: op.send(client), {"op": op})

        return [agent, agent]

    def params(self) -> dict:
        return {
            "cycle": list(inputs.COLD_CYCLE),
            "inline_matrices": {m.name: m.nnz for m in self.inputs.inline},
            "named_small": inputs.NAMED_SMALL,
            "threads": [1, inputs.MAX_THREADS],
            "ladder": {"accuracy": list(inputs.LADDER_ACCURACY),
                       "max_tier": inputs.LADDER_MAX_TIER},
        }

    def problems(self, records: list[Record]) -> list[str]:
        out = []
        jobs, checked = [], []
        for record in records:
            env = record.envelope
            op = record.context["op"]
            if env is None:
                out.append(f"{op.kind} {op.endpoint}: {record.error}")
                continue
            if env.get("cached") is not None or env.get("degraded"):
                out.append(f"{op.kind} {op.endpoint}: not a fresh evaluation "
                           f"(cached={env.get('cached')!r}, "
                           f"degraded={env.get('degraded', False)})")
                continue
            source = op.matrix if op.matrix is not None else (op.collection, op.name)
            jobs.append((op.endpoint, op.threads, source, op.accuracy, op.max_tier))
            checked.append(record)
        # fork, not spawn: a spawn pool starts multiprocessing's resource
        # tracker, a process that outlives the benchmark.  Forking is safe
        # here because the client threads have all been joined.
        context = get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            expected = list(pool.map(reference.check_job, jobs))
        for record, answer in zip(checked, expected):
            op = record.context["op"]
            if not reference.matches(answer, record.envelope, op.endpoint):
                out.append(f"{op.kind} {op.endpoint} t={op.threads}: answer "
                           "differs from the direct library call")
        return out


class WarmGateway:
    name = "warm_gateway"
    replicas = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, deployment: Deployment) -> None:
        replicas = [deployment.daemon(f"replica-{i}") for i in range(self.replicas)]
        self.population = inputs.warm_population(self.seed)
        self.schedule = inputs.warm_schedule(self.seed, self.population)
        for replica in replicas:
            replica.wait_announced()
        self.replica_nodes = [r.node for r in replicas]
        self.gateway = deployment.gateway(replicas)
        self.address = self.gateway.wait_announced()
        self.primed = self.prime(ServiceClient(*self.address, timeout=CLIENT_TIMEOUT))

    def prime(self, client: ServiceClient) -> list[str]:
        """Answer the population once (two threads); returns the canonical
        answers the measured ops must reproduce."""
        answers: list = [None] * len(self.population)
        cursor = _Shared(range(len(self.population)))

        def work():
            while (index := cursor.next()) is not None:
                envelope = self.population[index].send(client)
                answers[index] = canonical_json(envelope["result"])

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client.close()
        if any(answer is None for answer in answers):
            raise RuntimeError("priming the warm population failed")
        return answers

    def agents(self, client: ServiceClient) -> list:
        shared = _Shared(self.schedule)

        def agent():
            index = shared.next()
            if index is None:
                return None
            op = self.population[index]
            return timed(op.kind, lambda: op.send(client), {"index": index})

        # one client: gateway and daemons are single event loops, so a
        # second client's named hits would queue behind the first one's
        # inline hashing and measure head-of-line blocking, not the hops
        return [agent]

    def params(self) -> dict:
        return {
            "replicas": self.replicas,
            "population": [
                {"endpoint": op.endpoint, "threads": op.threads,
                 "matrix": op.name or f"inline nnz={op.matrix.nnz}"}
                for op in self.population
            ],
            "inline_every": inputs.WARM_INLINE_EVERY,
        }

    def problems(self, records: list[Record]) -> list[str]:
        out = []
        for record in records:
            env = record.envelope
            if env is None:
                out.append(f"{record.kind}: {record.error}")
            elif env.get("cached") != "memory":
                out.append(f"{record.kind}: served from {env.get('cached')!r}, "
                           "not the memory tier")
            elif canonical_json(env["result"]) != self.primed[record.context["index"]]:
                out.append(f"{record.kind}: answer differs from the priming answer")
        return out


class _DeltaClient:
    """One client's ops.  Each pass posts four fresh bases, then steps
    the four chains in turn DELTA_STEPS times, so any stretch of ops has
    the same mix of chain kinds.  Each chain stays sequential: a step is
    sent only after the previous step of its chain was answered."""

    #: 6 passes of the two clients hold 432 ops, enough for a 20 s window
    #: at over twice the rate measured here (8 ops/s)
    passes = 6

    def __init__(self, seed: int, client_index: int) -> None:
        self.bases = []
        for cycle in range(self.passes):
            bases = inputs.delta_bases(seed, client_index, cycle)
            # the two clients start their passes on different base kinds
            rotate = 2 * client_index
            self.bases.append(bases[rotate:] + bases[:rotate])
        self.rng = np.random.default_rng([seed, 5, client_index])
        self.plan = iter([(p, i, step) for p, bases in enumerate(self.bases)
                          for step in range(inputs.DELTA_STEPS + 1)
                          for i in range(len(bases))])
        #: (pass, base index) -> [key, tracker]; absent once a chain broke
        self.chains: dict = {}

    def next(self, client: ServiceClient) -> Record | None:
        for p, i, step in self.plan:
            base = self.bases[p][i]
            if step == 0:
                record = timed(f"base:{base.label}", lambda: getattr(client, base.endpoint)(
                    matrix=base.matrix, num_threads=base.threads, scale=inputs.SCALE),
                    {"base": base})
                tracker = inputs.PatternTracker(base.matrix)
            elif (p, i) in self.chains:
                key, tracker = self.chains[(p, i)]
                inserts, deletes = tracker.edits(self.rng, base.band)
                record = timed(f"step:{base.label}",
                               lambda: client.delta(key, inserts=inserts, deletes=deletes),
                               {"base": base, "keys": tracker.keys,
                                "inserts": inserts, "deletes": deletes})
            else:
                continue  # the chain broke earlier
            if record.envelope is None:
                self.chains.pop((p, i), None)
            else:
                self.chains[(p, i)] = [record.envelope["key"], tracker]
            return record
        return None


class DeltaChain:
    name = "delta_chain"
    #: steps whose answer is compared with a full evaluation, per run
    checked_steps = 6

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, deployment: Deployment) -> None:
        self.daemon = deployment.daemon("daemon")
        self.clients_ops = [_DeltaClient(self.seed, i) for i in range(2)]
        self.address = self.daemon.wait_announced()

    def agents(self, client: ServiceClient) -> list:
        return [lambda ops=ops: ops.next(client) for ops in self.clients_ops]

    def params(self) -> dict:
        bases = inputs.delta_bases(self.seed, 0, 0)
        return {
            "bases": {b.label: {"nnz": b.matrix.nnz, "endpoint": b.endpoint,
                                "threads": b.threads, "expected": list(b.expected)}
                      for b in bases},
            "steps_per_base": inputs.DELTA_STEPS,
            "edits_per_step": [1, inputs.DELTA_MAX_EDITS],
            "checked_steps": self.checked_steps,
        }

    def summary(self, records: list[Record]) -> list[str]:
        """How the steps were priced, from the envelopes' delta metadata."""
        counts: dict = {}
        for record in records:
            meta = (record.envelope or {}).get("delta")
            if meta:
                label = meta.get("path"), meta.get("reason") or meta.get("state")
                counts[label] = counts.get(label, 0) + 1
        return ["delta steps by path: " + ", ".join(
            f"{path}/{detail}: {n}" for (path, detail), n in sorted(counts.items()))]

    def problems(self, records: list[Record]) -> list[str]:
        out = []
        steps = []
        for record in records:
            env = record.envelope
            base = record.context["base"]
            if env is None:
                out.append(f"{record.kind}: {record.error}")
                continue
            if record.kind.startswith("base:"):
                if env.get("cached") is not None:
                    out.append(f"{record.kind}: base was not a fresh evaluation")
                continue
            meta = env.get("delta") or {}
            path, reason = base.expected
            if meta.get("path") != path or (reason and meta.get("reason") != reason):
                out.append(f"{record.kind}: took {meta.get('path')}/"
                           f"{meta.get('reason')}, expected {path}/{reason}")
                continue
            steps.append(record)
        rng = np.random.default_rng([self.seed, 6])
        sample = rng.choice(len(steps), size=min(self.checked_steps, len(steps)),
                            replace=False) if steps else []
        for index in sorted(int(i) for i in sample):
            record = steps[index]
            base = record.context["base"]
            edited = inputs.pattern_matrix(base.matrix.num_rows, base.matrix.num_cols,
                                           record.context["keys"])
            expected = reference.direct(base.endpoint, base.threads, edited)
            if not reference.matches(expected, record.envelope, base.endpoint):
                out.append(f"{record.kind}: answer differs from a full "
                           "evaluation of the edited matrix")
        return out


WORKLOADS = {cls.name: cls for cls in (ColdMix, WarmGateway, DeltaChain)}


def closed_loop(agents: list, seconds: float) -> tuple[list[Record], float]:
    """Run each agent on its own thread until the window closes; an op
    started inside the window is always completed.  Returns the records
    and the window length (start to the last completion)."""
    records: list[Record] = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    ended = [started]

    crashed: list[BaseException] = []

    def drive(agent):
        try:
            while time.perf_counter() < deadline:
                record = agent()
                if record is None:
                    break
                with lock:
                    records.append(record)
                    ended[0] = max(ended[0], time.perf_counter())
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
            crashed.append(exc)

    threads = [threading.Thread(target=drive, args=(agent,)) for agent in agents]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    return records, ended[0] - started


def count_kinds(records: list[Record]) -> dict:
    """Per op kind: count and median latency in ms."""
    by_kind: dict = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record.seconds)
    return {kind: {"ops": len(seconds),
                   "p50_ms": round(1000.0 * sorted(seconds)[len(seconds) // 2], 3)}
            for kind, seconds in sorted(by_kind.items())}
