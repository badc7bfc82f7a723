"""Hierarchical tracing with optional memory profiling.

The :class:`Tracer` records nested, named spans::

    tracer = Tracer(memory="rss")
    with tracer.span("stack_pass", matrix="banded_001", level="l2") as sp:
        ...
    sp.seconds          # wall time of the region
    tracer.tree()       # serializable TraceTree of everything recorded

A *process-local ambient tracer* makes instrumentation free when nobody
is watching: library code calls the module-level :func:`span` /
:func:`count`, which return a shared no-op singleton (no allocation, no
clock read) until a tracer is :func:`install`-ed.  The hot paths of the
models, the simulator, the sweep pool and the service workers are
instrumented this way; enabling ``--trace`` (or the service's
``"trace": true`` flag) is what turns the spans on.

Memory modes:

* ``memory="rss"`` samples the process peak-RSS high-water mark at span
  boundaries; each span records how much the peak *grew* during it, which
  attributes a run's peak memory to a phase even though ``ru_maxrss``
  itself is monotonic.
* ``memory="tracemalloc"`` segments the tracemalloc peak per span (the
  peak is snapshotted and reset at child boundaries, so a parent's peak
  is the true maximum over its extent).  The tracer starts tracemalloc
  if it is not already running and stops it again on :meth:`close`.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc

from .tree import SpanNode, TraceTree

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

_MEMORY_MODES = (None, "rss", "tracemalloc")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (0 if unknown)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    # ru_maxrss is KiB on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


class Span:
    """One open region; a context manager that records itself on exit.

    Exit converts the span into an immutable :class:`SpanNode` attached to
    the enclosing span (or the tracer's roots) — also on exception, in
    which case the exception type is kept in ``attrs["error"]`` and the
    exception propagates unchanged.
    """

    __slots__ = ("name", "attrs", "seconds", "counters", "mem_peak_bytes",
                 "rss_delta_bytes", "children", "_tracer", "_start",
                 "_pending_peak", "_rss_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self.counters: dict = {}
        self.mem_peak_bytes = 0
        self.rss_delta_bytes = 0
        self.children: list[SpanNode] = []
        self._tracer = tracer
        self._start = 0.0
        self._pending_peak = 0
        self._rss_start = 0

    def add(self, name: str, value: int = 1) -> None:
        """Bump a counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.memory == "rss":
            self._rss_start = peak_rss_bytes()
        elif tracer.memory == "tracemalloc":
            stack = tracer._stack
            if stack:
                parent = stack[-1]
                parent._pending_peak = max(
                    parent._pending_peak, tracemalloc.get_traced_memory()[1]
                )
            tracemalloc.reset_peak()
        tracer._stack.append(self)
        self._start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.seconds = tracer.clock() - self._start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if tracer.memory == "rss":
            self.rss_delta_bytes = max(0, peak_rss_bytes() - self._rss_start)
        elif tracer.memory == "tracemalloc":
            self.mem_peak_bytes = max(
                self._pending_peak, tracemalloc.get_traced_memory()[1]
            )
            tracemalloc.reset_peak()
        # exception safety: the span is recorded and the stack unwound no
        # matter how the body ended; the exception itself propagates
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        node = SpanNode(
            name=self.name,
            seconds=self.seconds,
            attrs=self.attrs,
            counters=self.counters,
            mem_peak_bytes=self.mem_peak_bytes,
            rss_delta_bytes=self.rss_delta_bytes,
            children=self.children,
        )
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(node)
            if tracer.memory == "tracemalloc":
                parent._pending_peak = max(parent._pending_peak, self.mem_peak_bytes)
        else:
            tracer.roots.append(node)
        return False


class _NullSpan:
    """The disabled-tracer fast path: one shared, do-nothing span.

    :func:`span` returns this singleton when no tracer is installed, so
    instrumented hot loops cost a dict lookup and two no-op calls — no
    allocation, no clock read.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, name: str, value: int = 1) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    #: finished-span fields, so `with span(...) as sp: ...; sp.seconds`
    #: reads 0 instead of raising when tracing is off
    seconds = 0.0
    rss_delta_bytes = 0
    mem_peak_bytes = 0


NULL_SPAN = _NullSpan()


class Tracer:
    """Records a forest of nested spans in one process.

    Not thread-safe by design: one tracer per process (or per worker
    task) keeps the span stack trivially correct; cross-process assembly
    goes through :class:`~repro.obs.tree.TraceTree`.
    """

    def __init__(self, memory: str | None = None, clock=time.perf_counter) -> None:
        if memory not in _MEMORY_MODES:
            raise ValueError(f"memory must be one of {_MEMORY_MODES}, got {memory!r}")
        self.memory = memory
        self.clock = clock
        self.roots: list[SpanNode] = []
        self.counters: dict = {}
        self._stack: list[Span] = []
        self._owns_tracemalloc = False
        if memory == "tracemalloc" and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def span(self, name: str, **attrs) -> Span:
        """Open a named span (use as a context manager)."""
        return Span(self, name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        """Bump a counter on the innermost open span (or the tracer)."""
        if self._stack:
            self._stack[-1].add(name, value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def tree(self) -> TraceTree:
        """The finished spans recorded so far, as a serializable tree."""
        return TraceTree(roots=list(self.roots), counters=dict(self.counters))

    def adopt(self, tree: TraceTree) -> None:
        """Graft another process's finished tree under the current span.

        This is the parent side of cross-process tracing: the sweep pool
        adopts each worker's tree in spec order, so the assembled run tree
        is deterministic regardless of completion order.
        """
        nodes = tree.roots
        if self._stack:
            self._stack[-1].children.extend(nodes)
        else:
            self.roots.extend(nodes)
        for key, value in tree.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def close(self) -> None:
        """Release resources (stops tracemalloc if this tracer started it)."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# process-local ambient tracer
# ----------------------------------------------------------------------

_ambient: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed ambient tracer, or None when tracing is disabled."""
    return _ambient


def enabled() -> bool:
    """True when an ambient tracer is installed."""
    return _ambient is not None


def install(tracer: Tracer | None) -> Tracer | None:
    """Install (or, with None, remove) the ambient tracer; returns the old one."""
    global _ambient
    previous = _ambient
    _ambient = tracer
    return previous


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Ambient-install a tracer for the duration of a block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def span(name: str, **attrs):
    """A span on the ambient tracer; the shared no-op span when disabled."""
    tracer = _ambient
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def count(name: str, value: int = 1) -> None:
    """Bump a counter on the ambient tracer (no-op when disabled)."""
    tracer = _ambient
    if tracer is not None:
        tracer.count(name, value)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span (no-op when disabled)."""
    tracer = _ambient
    if tracer is not None and tracer._stack:
        tracer._stack[-1].annotate(**attrs)
