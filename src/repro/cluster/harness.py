"""Spin up a whole cluster — N replicas plus a gateway — in one call.

Two replica modes:

* ``mode="thread"`` (default): each replica is an in-process
  :class:`~repro.service.ServiceThread`.  Cheap and portable — tests and
  ``--exp cluster`` use it.  "Killing" a replica stops its server
  thread, so the gateway sees connection-refused exactly as it would
  for a dead process.
* ``mode="process"``: each replica is a ``python -m repro.service``
  subprocess on an ephemeral port.  :meth:`ClusterHarness.kill_replica`
  delivers SIGKILL — the real mid-request death the CI smoke job
  (``examples/cluster_smoke.py``) exercises.

Each replica gets its **own** disk-cache directory
(``<cache_root>/replica-<i>``), as separate machines would have: a
shared directory would make every replica warm for every key.

>>> with ClusterHarness(replicas=3) as harness:
...     client = harness.client()
...     client.advise(matrix, num_threads=8)
...     harness.kill_replica(0)          # gateway fails over, zero lost
...     harness.restart_replica(0)       # re-admitted, its disk tier intact
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..service.app import ServiceConfig, ServiceThread
from ..service.client import ServiceClient
from .gateway import GatewayConfig, GatewayThread

__all__ = ["ClusterHarness", "ReplicaHandle", "launch_replica",
           "stop_replica"]

_ANNOUNCE = re.compile(r"repro-service listening on http://([^:]+):(\d+)")


def _kill_group(process: subprocess.Popen, sig: int) -> None:
    """Signal a replica's whole process group (it runs in its own session
    — see :func:`launch_replica`), falling back to the process alone."""
    try:
        os.killpg(process.pid, sig)
    except (ProcessLookupError, PermissionError, OSError):
        with contextlib.suppress(ProcessLookupError):
            process.send_signal(sig)


def launch_replica(flags: list[str],
                   port: int = 0) -> tuple[subprocess.Popen, str, int]:
    """Start one ``python -m repro.service`` replica daemon with ``flags``
    and wait until it answers ``/healthz``; returns the process and the
    host and port it announced.

    The replica runs in its own session: SIGKILLing its process group
    takes its forked evaluator workers down too, like a real node death
    (a surviving worker would hold duplicate fds of the replica's
    sockets).
    """
    argv = [sys.executable, "-m", "repro.service", "--port", str(port),
            *flags]
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    line = process.stdout.readline()
    match = _ANNOUNCE.search(line)
    if match is None:
        stop_replica(process)
        raise RuntimeError(f"replica did not announce its port: {line!r}")
    host, port = match.group(1), int(match.group(2))
    with ServiceClient(host, port) as probe:
        probe.wait_ready()
    return process, host, port


def stop_replica(process: subprocess.Popen) -> None:
    """SIGTERM a launched replica's process group, SIGKILL after 10 s."""
    if process.poll() is None:
        _kill_group(process, signal.SIGTERM)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _kill_group(process, signal.SIGKILL)
            process.wait(timeout=10)


@dataclass
class ReplicaHandle:
    """One replica daemon under harness control."""

    index: int
    host: str
    port: int
    cache_dir: str
    mode: str
    thread: ServiceThread | None = None
    process: subprocess.Popen | None = field(default=None, repr=False)

    @property
    def node(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        if self.mode == "thread":
            return self.thread is not None
        return self.process is not None and self.process.poll() is None


class ClusterHarness:
    """Gateway + N replica daemons with kill/restart control."""

    def __init__(
        self,
        replicas: int = 3,
        jobs: int = 1,
        cache_root: str | Path | None = None,
        mode: str = "thread",
        replica_config: dict | None = None,
        gateway_config: dict | None = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be positive")
        if mode not in ("thread", "process"):
            raise ValueError("mode must be 'thread' or 'process'")
        self.num_replicas = replicas
        self.jobs = jobs
        self.mode = mode
        self.replica_config = dict(replica_config or {})
        self.gateway_config = dict(gateway_config or {})
        self._own_cache_root = cache_root is None
        self.cache_root = Path(
            cache_root if cache_root is not None
            else tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.replicas: list[ReplicaHandle] = []
        self.gateway_thread: GatewayThread | None = None
        self.address: tuple[str, int] | None = None

    # -- replica lifecycle ---------------------------------------------
    def _start_replica(self, index: int, port: int = 0) -> ReplicaHandle:
        cache_dir = str(self.cache_root / f"replica-{index}")
        if self.mode == "thread":
            config = ServiceConfig(jobs=self.jobs, cache_dir=cache_dir,
                                   **self.replica_config)
            thread = ServiceThread(config, port=port)
            host, actual_port = thread.start()
            return ReplicaHandle(index, host, actual_port, cache_dir,
                                 self.mode, thread=thread)
        flags = ["--jobs", str(self.jobs), "--cache", cache_dir]
        for flag, value in self.replica_config.items():
            flags.append(f"--{flag.replace('_', '-')}")
            if value is not True:
                flags.append(str(value))
        process, host, actual_port = launch_replica(flags, port)
        return ReplicaHandle(index, host, actual_port, cache_dir, self.mode,
                             process=process)

    def kill_replica(self, index: int) -> ReplicaHandle:
        """Take a replica down — SIGKILL in process mode, a server stop in
        thread mode.  Its cache directory survives for a later restart."""
        handle = self.replicas[index]
        if handle.mode == "thread":
            if handle.thread is not None:
                handle.thread.stop()
                handle.thread = None
        elif handle.process is not None:
            _kill_group(handle.process, signal.SIGKILL)
            handle.process.wait(timeout=30)
            handle.process = None
        return handle

    def restart_replica(self, index: int,
                        wait_ready: bool = True) -> ReplicaHandle:
        """Bring a killed replica back **on its original port** (the
        membership's configured address), warm disk cache intact."""
        old = self.replicas[index]
        if old.alive:
            return old
        deadline = time.monotonic() + 30.0
        while True:
            try:
                fresh = self._start_replica(index, port=old.port)
                break
            except OSError:
                # the old socket can linger in TIME_WAIT briefly
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        self.replicas[index] = fresh
        if wait_ready:
            with ServiceClient(fresh.host, fresh.port) as probe:
                probe.wait_ready()
        return fresh

    def wait_alive(self, count: int, deadline_seconds: float = 15.0) -> bool:
        """Poll the gateway until its membership shows ``count`` live
        replicas (probe-loop readmission is asynchronous)."""
        client = self.client()
        deadline = time.monotonic() + deadline_seconds
        try:
            while time.monotonic() < deadline:
                if client.metrics()["membership"]["alive"] >= count:
                    return True
                time.sleep(0.1)
            return False
        finally:
            client.close()

    # -- cluster lifecycle ---------------------------------------------
    def start(self) -> tuple[str, int]:
        if self.gateway_thread is not None:
            raise RuntimeError("cluster already started")
        self.replicas = [self._start_replica(i)
                         for i in range(self.num_replicas)]
        config = GatewayConfig(
            replicas=tuple((r.host, r.port) for r in self.replicas),
            **self.gateway_config,
        )
        self.gateway_thread = GatewayThread(config)
        self.address = self.gateway_thread.start()
        return self.address

    def stop(self) -> None:
        if self.gateway_thread is not None:
            self.gateway_thread.stop()
            self.gateway_thread = None
        for handle in self.replicas:
            if handle.mode == "thread" and handle.thread is not None:
                handle.thread.stop()
                handle.thread = None
            elif handle.mode == "process" and handle.process is not None:
                stop_replica(handle.process)
                handle.process = None
        if self._own_cache_root:
            shutil.rmtree(self.cache_root, ignore_errors=True)

    # -- conveniences ---------------------------------------------------
    def client(self, **kwargs) -> ServiceClient:
        """A :class:`ServiceClient` pointed at the gateway (same wire
        protocol as a single daemon)."""
        host, port = self.address
        return ServiceClient(host, port, **kwargs)

    def replica_client(self, index: int, **kwargs) -> ServiceClient:
        handle = self.replicas[index]
        return ServiceClient(handle.host, handle.port, **kwargs)

    @property
    def gateway(self):
        """The live :class:`~repro.cluster.gateway.ClusterGateway` (thread
        mode only; None before start)."""
        return None if self.gateway_thread is None else self.gateway_thread.gateway

    def __enter__(self) -> "ClusterHarness":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
