"""Processes the benchmark starts, and what they cost.

Every daemon, gateway and replica runs as a real ``python -m`` subprocess
in its own session, so a whole deployment (including the daemons' forked
pool workers) stops with one signal to its process group.  CPU time and
peak RSS are read from ``/proc`` over the benchmark process and all of
its descendants.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for caches and daemon logs; removed at exit
SCRATCH = ROOT / ".perfbench_tmp"

_ANNOUNCE = re.compile(r"listening on http://([^:]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        frontier = [c for pid in frontier for c in children.get(pid, ())]
        found += frontier
    return found


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User plus system CPU seconds of each process (all its threads)."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def tree_cpu_seconds(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU spent between two snapshots; processes born in between count
    from zero."""
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def peak_rss_mb(pids: list[int]) -> float:
    """Sum over the processes of each one's peak resident set (VmHWM)."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def stop_descendants(grace: float = 5.0) -> None:
    """SIGTERM every process still below this one, SIGKILL the late ones,
    and reap them, so that nothing the benchmark started outlives it."""
    me = os.getpid()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        strays = descendants(me)[1:]
        if not strays:
            return
        for pid in strays:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while descendants(me)[1:] and time.monotonic() < deadline:
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.02)
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


class Server:
    """One ``python -m <module>`` server process group."""

    def __init__(self, module: str, args: list[str], workdir: Path,
                 label: str) -> None:
        self.label = label
        self.log = workdir / f"{label}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        with open(self.log, "w") as sink:
            self.process = subprocess.Popen(
                [sys.executable, "-m", module, "--port", "0", *args],
                stdout=sink, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
                start_new_session=True,
            )
        self.host = self.port = None

    def wait_announced(self, deadline_seconds: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + deadline_seconds
        while True:
            match = _ANNOUNCE.search(self.log.read_text())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self.host, self.port
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"{self.label} did not start:\n"
                                   + self.log.read_text()[-2000:])
            time.sleep(0.02)

    @property
    def node(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """SIGTERM the group, wait for every member to end, SIGKILL late ones."""
        pgid = self.process.pid
        for sig, grace in ((signal.SIGTERM, 20.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                if self.process.poll() is not None and not _group_alive(pgid):
                    return
                time.sleep(0.02)
        self.process.wait(timeout=5)


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
                return True
    return False


class Deployment:
    """The servers one workload runs against, in one scratch directory."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.servers: list[Server] = []

    def daemon(self, label: str) -> Server:
        """A ``repro.service`` daemon at ServiceConfig defaults, with a
        fresh cache directory of its own."""
        cache = self.workdir / f"{label}-cache"
        server = Server("repro.service", ["--cache", str(cache)],
                        self.workdir, label)
        self.servers.append(server)
        return server

    def gateway(self, replicas: list[Server]) -> Server:
        args = []
        for replica in replicas:
            args += ["--replica", replica.node]
        server = Server("repro.cluster", args, self.workdir, "gateway")
        self.servers.append(server)
        return server

    def stop(self) -> None:
        for server in reversed(self.servers):
            server.stop()
        self.servers = []
        shutil.rmtree(self.workdir, ignore_errors=True)
