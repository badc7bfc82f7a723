"""Per-layer timing for the traced run, recorded from the benchmark side.

:class:`Ledger` wraps the public functions of each layer (by patching
every ``repro`` module attribute that is bound to them) and records, per
call, the *inclusive* time and the *self* time (inclusive minus the time
of wrapped calls nested inside it).  Spans live in memory; the traced
run reads them after each op and resets them.

Wrappers only record in the process that installed them and only while
the ledger is active, so forked pool workers and the untraced replays
run the plain code paths.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path, metric, binding sites).  ``None`` sites means
#: every ``repro`` module that binds the same object; a tuple restricts
#: the patch to those modules.
TARGETS = (
    ("repro.core.trace", "x_only_trace", "core.trace_build", None),
    ("repro.core.trace", "spmv_trace", "core.trace_build", None),
    ("repro.core.trace", "repeat_trace", "core.trace_build", None),
    ("repro.parallel.interleave", "interleave", "parallel.interleave", None),
    ("repro.reuse.periodic", "steady_state_reuse_distances", "reuse.stack_pass", None),
    ("repro.reuse.cdq", "reuse_distances", "reuse.stack_pass", None),
    ("repro.reuse.sampling", "spatial_sample_profile", "reuse.stack_pass", None),
    ("repro.reuse.fenwick", "compute_prev", "reuse.compute_prev", None),
    ("repro.reuse.histogram", "scale_distances", "reuse.profile_build", None),
    ("repro.reuse.histogram", "partition_profiles", "reuse.profile_build", None),
    ("repro.reuse.histogram", "ReuseProfile.from_distances", "reuse.profile_build", None),
    ("repro.core.advisor", "recommend_from_predictions", "core.advisor", None),
    ("repro.core.advisor", "SectorAdvisor.recommend", "core.advisor", None),
    ("repro.core.method_a", "MethodA.__init__", "core.method_a", None),
    ("repro.core.method_a", "MethodA.predict", "core.method_a", None),
    ("repro.core.method_a", "MethodA.predict_l1", "core.method_a", None),
    ("repro.cachesim.hierarchy", "SpMVCacheSim.__init__", "cachesim.simulate", None),
    ("repro.cachesim.hierarchy", "SpMVCacheSim.events", "cachesim.simulate", None),
    ("repro.ladder.engine", "Ladder.answer_task", "ladder.answer", None),
    ("repro.ladder.engine", "Ladder.answer", "ladder.answer", None),
    ("repro.service.protocol", "matrix_from_task", "service.protocol.matrix_from_task", None),
    ("repro.service.protocol", "normalize_request", "service.protocol.normalize", None),
    ("repro.service.protocol", "request_key", "service.protocol.request_key", None),
    ("repro.service.protocol", "normalize_delta", "service.protocol.derive", None),
    ("repro.service.protocol", "derive_delta_task", "service.protocol.derive", None),
    ("repro.service.cache", "TieredResultCache.get", "service.cache.get", None),
    ("repro.service.cache", "TieredResultCache.put", "service.cache.put", None),
    ("repro.analysis.report", "canonical_json", "analysis.report.canonical_json",
     ("repro.service.app",)),
    ("repro.service.registry", "TaskRegistry.get", "service.registry.get", None),
    ("repro.service.registry", "TaskRegistry.put", "service.registry.put", None),
    ("repro.delta.delta", "MatrixDelta.apply", "delta.matrix_apply", None),
    ("repro.delta.state", "ReuseState.apply", "delta.state_patch", None),
    ("repro.delta.state", "full_reuse_state", "delta.state_capture", None),
    ("repro.delta.engine", "evaluate_delta_task", "delta.evaluate", None),
    ("repro.cluster.ring", "HashRing.owner", "cluster.ring.owner", None),
)

#: modules imported before patching, so that every binding exists
PRELOAD = ("repro.service.app", "repro.service.worker", "repro.ladder",
           "repro.ladder.tiers", "repro.delta.engine", "repro.delta.ladder",
           "repro.cluster.gateway", "repro.experiments.common")

#: stack-pass entry points whose first argument is the reference trace
_COUNTED = {"reuse.stack_pass"}


class Ledger:
    """Inclusive and self seconds per metric, plus reference counts."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.references = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _enter(self, metric: str) -> list:
        frame = [metric, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        seconds = time.perf_counter() - frame[2]
        self._stack.pop()
        metric = frame[0]
        self.self_time[metric] += seconds - frame[1]
        if all(f[0] != metric for f in self._stack):
            self.inclusive[metric] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    @contextmanager
    def span(self, metric: str):
        """Time a region of the benchmark itself as a layer span."""
        frame = self._enter(metric)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, metric: str):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active or os.getpid() != ledger.pid:
                return fn(*args, **kwargs)
            if metric in _COUNTED and args and all(f[0] != metric for f in ledger._stack):
                first = args[0]
                ledger.references += len(getattr(first, "lines", first))
            frame = ledger._enter(metric)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._exit(frame)

        return wrapper

    def take(self) -> tuple[dict, dict, int]:
        """This op's (inclusive, self, references); resets the counters."""
        taken = (dict(self.inclusive), dict(self.self_time), self.references)
        self.inclusive.clear()
        self.self_time.clear()
        self.references = 0
        return taken

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Patch every binding of every target (idempotent)."""
        if self._patches:
            return
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for module_name, path, metric, sites in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, metric))
                else:
                    wrapped = self.wrap(raw, metric)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, metric)
            names = sites or [name for name, mod in list(sys.modules.items())
                              if name.startswith("repro") and mod is not None]
            for name in names:
                mod = sys.modules.get(name) or importlib.import_module(name)
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def plain(self):
        """Run a block against the unpatched code."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False
