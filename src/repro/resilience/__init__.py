"""Fault injection and self-healing for the advisor service and sweep pool.

The ROADMAP's production framing ("heavy traffic, millions of users")
needs more than the fault *detection* the pool and daemon already have —
it needs the failures to be provocable on demand and the recovery to be
testable.  This package supplies both halves, stdlib-only:

* :mod:`~repro.resilience.faults` — a deterministic, seeded
  :class:`FaultPlan` installable like :class:`repro.obs.Tracer` and
  consulted at named sites (``worker.evaluate``, ``cache.disk_read``,
  ``pool.submit``, ``pool.worker``); plans travel as the daemon's
  ``"faults"`` request flag (gated by ``--allow-fault-injection``) or
  ambiently across ``fork`` into pool workers.
* :mod:`~repro.resilience.schema` — the ``repro.resilience.plan/v1``
  JSON validator and its CLI (``python -m repro.resilience.schema``).
* :mod:`~repro.resilience.retry` — capped exponential backoff with full
  jitter and a deadline-budgeted retry driver (everything injectable:
  rng, clock, sleep), used by :class:`repro.service.ServiceClient`.
* :mod:`~repro.resilience.breaker` — a per-endpoint closed/open/half-open
  circuit breaker with counted transitions, exported via ``/metrics``.

The daemon's degraded-mode answers, when the pool is unavailable, are
the fidelity ladder's tier 0 (:func:`repro.ladder.tier0.answer_task`).
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, STATE_VALUES, CircuitBreaker
from .faults import (
    KINDS,
    KNOWN_SITES,
    PLAN_SCHEMA_ID,
    FaultInjected,
    FaultPlan,
    FaultRule,
    fire,
    get_plan,
    install,
    installed,
    perform,
)
from .retry import BackoffPolicy, DeadlineExceeded, call_with_retries
from .schema import validate_plan

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "KINDS",
    "KNOWN_SITES",
    "OPEN",
    "PLAN_SCHEMA_ID",
    "STATE_VALUES",
    "BackoffPolicy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "call_with_retries",
    "fire",
    "get_plan",
    "install",
    "installed",
    "perform",
    "validate_plan",
]
