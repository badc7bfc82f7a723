"""Wire format of the advisor service.

A request is one JSON object.  The matrix is either *named* from the
synthetic collection::

    {"matrix": {"name": "banded_001", "collection": "tiny"}}

or submitted *inline* as CSR or COO arrays::

    {"matrix": {"csr": {"num_rows": 4, "num_cols": 4,
                        "rowptr": [0, 1, 2, 3, 4], "colidx": [0, 1, 2, 3]}}}
    {"matrix": {"coo": {"num_rows": 4, "num_cols": 4,
                        "rows": [0, 1], "cols": [1, 2]}}}

The service models the sparsity pattern only: a sent ``values`` list
is validated (one number in float64 range per entry) and dropped, so two
spellings of one pattern key and evaluate as one, and the worker builds
unit values.  An optional ``"setup"`` object carries the
:class:`~repro.experiments.common.ExperimentSetup` fields (scale, thread
count, iterations, prefetch distances, way options); endpoint-specific
knobs ride at the top level.

:func:`normalize_request` validates a payload and rewrites it into a
*canonical task*: a dict with every default filled in, so that two
requests asking for the same computation normalize to identical bytes.
Every value is plain JSON except an inline matrix's index lists, which
are read-only NumPy arrays from parse to worker (int32, or int64 when
one does not fit); :func:`~repro.analysis.report.canonical_json`
encodes them to the same bytes as the lists they came from.
:func:`request_key` hashes the task's :func:`keyed_form` — the task
without its per-request :data:`REQUEST_FLAGS` — and is the key of the
result cache, of in-flight coalescing, of the stored ``/delta`` bases
and of ring placement.  The inline matrix dominates every encoding, so
a caller holding its *root JSON* (``canonical_json`` of
:func:`root_spec`) passes it to :func:`request_key` and
:func:`matrix_name`, which splice it in instead of encoding it again.
The builder functions at the bottom (:func:`setup_from_task`,
:func:`matrix_from_task`) run inside pool workers to reconstruct model
inputs from a task.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from ..analysis.report import canonical_json
from ..experiments.common import ExperimentSetup
from ..obs.context import validate_context_dict
from ..matrices.collection import _SIZES, collection
from ..spmv.csr import CSRMatrix
from ..spmv.sector_policy import SectorPolicy

#: The model-serving endpoints (metrics/health/shutdown are transport-level).
ENDPOINTS = ("classify", "predict", "advise", "sweep", "optimize")

#: Endpoints whose stored tasks may serve as the base of a ``POST /delta``
#: (sweep measures the simulator and optimize permutes the pattern —
#: neither has a meaningful "same question, edited matrix" form).
DELTA_BASE_ENDPOINTS = ("classify", "predict", "advise")

#: Advisor defaults mirroring :class:`repro.core.SectorAdvisor`.
ADVISE_WAY_OPTIONS = (2, 3, 4, 5, 6)

_SETUP_FIELDS = (
    "scale",
    "num_threads",
    "iterations",
    "l1_prefetch_distance",
    "l2_prefetch_distance",
    "l2_way_options",
    "l1_way_options",
)


class RequestError(Exception):
    """A malformed or unserviceable request, carrying the HTTP status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _require(condition: bool, message: str, status: int = 400) -> None:
    if not condition:
        raise RequestError(message, status=status)


def _cast(value: object, caster, message: str):
    """``caster(value)``, or a 400 carrying ``message``.

    ``OverflowError`` counts too: JSON admits ``1e999`` (infinity) and
    integers of any length, and neither may escape as a dropped
    connection.
    """
    try:
        return caster(value)
    except (TypeError, ValueError, OverflowError):
        raise RequestError(message) from None


def _int_list(values: object, label: str) -> list[int]:
    _require(isinstance(values, (list, tuple)), f"{label} must be a list")
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise RequestError(f"{label} must contain integers: {exc}") from None


def _array(values: object, label: str, fast: frozenset, caster,
           dtype, kind: str, bound: str) -> np.ndarray:
    """A JSON number list as a NumPy array (inline matrix fields).

    Lists whose elements are all of the ``fast`` types convert at C
    speed; anything else (numeric strings, bools, floats as indices)
    takes the per-element ``caster`` coercion first, so both paths
    accept, reject and round exactly like ``[caster(v) for v in values]``.
    A number the dtype cannot hold is a 400 naming its ``bound``.  The
    array is read-only: the task registry and derived delta tasks share
    it by reference, and its bytes are the request key.
    """
    _require(isinstance(values, (list, tuple)), f"{label} must be a list")
    try:
        if not fast.issuperset(map(type, values)):
            values = [caster(v) for v in values]
        array = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{label} must contain {kind}: {exc}") from None
    except OverflowError as exc:
        raise RequestError(f"{label} must contain {bound}: {exc}") from None
    array.flags.writeable = False
    return array


_INT32 = np.iinfo(np.int32)


def _index_array(values: object, label: str) -> np.ndarray:
    """Indices validated as int64 and held as int32 whenever they all fit
    (always, short of a column index the CSR layout cannot hold): the
    numbers, and so the encoding, are the same, and the task registry
    keeps every base's arrays for the daemon's lifetime."""
    array = _array(values, label, frozenset({int}), int, np.int64,
                   "integers", "integers that fit in int64")
    if not array.size or (array.min() >= _INT32.min and array.max() <= _INT32.max):
        array = array.astype(np.int32)
        array.flags.writeable = False
    return array


def _check_values(fields: dict, label: str, entries: int) -> None:
    """A 400 unless a sent ``values`` list holds one number within
    float64 range per pattern entry (the task then leaves it out)."""
    values = fields.get("values")
    if values is None:
        return
    array = _array(values, f"{label}.values", frozenset({int, float}), float,
                   np.float64, "numbers", "numbers within float64 range")
    _require(len(array) == entries,
             f"{label}.values must have one number per entry: expected "
             f"{entries}, got {len(array)}")


# ----------------------------------------------------------------------
# the task vocabulary: the keyed form and the per-request flags
# ----------------------------------------------------------------------

#: Task fields that steer *how* a request is answered, never *what* a
#: correct evaluation computes, so they stay out of :func:`keyed_form`
#: and requests differing only in them share one key, one cached result,
#: one stored ``/delta`` base and one ring owner:
#:
#: * ``accuracy``/``max_tier`` pick a fidelity-ladder tier; every tier
#:   answers the same question (the daemon decides per tier what to read
#:   and write under the key — see :mod:`repro.service.app`);
#: * ``timeout`` bounds the wait, ``trace`` shapes the presentation and
#:   ``trace_context`` correlates the trace;
#: * ``faults`` perturbs the execution (fault-carrying requests only
#:   *read* what a healthy request stored);
#: * ``delta_budget`` is the daemon's patch-work ceiling, injected into
#:   derived delta tasks: in-budget and fallback evaluations answer byte
#:   for byte alike.
#:
#: ``optimize`` keeps its ``accuracy`` in the key: there it shapes the
#: *search* (the confirmation tier is part of the result).
REQUEST_FLAGS = ("accuracy", "max_tier", "timeout", "trace", "trace_context",
                 "faults", "delta_budget")

_UNKEYED = frozenset(REQUEST_FLAGS)
_OPTIMIZE_UNKEYED = _UNKEYED - {"accuracy"}


def keyed_form(task: dict) -> dict:
    """The computation a task asks for: the task without its
    :data:`REQUEST_FLAGS` (``optimize`` keeps ``accuracy``).

    :func:`request_key` hashes it, the stored-task registry keeps it,
    ``/delta`` derives from it and the accuracy audit re-answers it.
    """
    unkeyed = _OPTIMIZE_UNKEYED if task.get("endpoint") == "optimize" else _UNKEYED
    return {k: v for k, v in task.items() if k not in unkeyed}


def _bounded(name: str, caster, kind: str, check, bound: str):
    def parse(value):
        if value is None:
            return None
        value = _cast(value, caster, f"{name} must be {kind}")
        _require(check(value), f"{name} must be {bound}")
        return value
    return parse


def _trace_context(context: object) -> dict:
    # distributed-trace hop carried in the envelope (or injected from the
    # X-Repro-Trace header): the caller's (trace_id, span_id); the daemon
    # childs its own span off it
    problems = validate_context_dict(context)
    _require(not problems, "invalid trace_context: " + "; ".join(problems))
    return {"trace_id": context["trace_id"], "span_id": context["span_id"]}


def _faults(plan: object) -> object:
    # chaos-testing flag (the daemon refuses it unless started with
    # --allow-fault-injection); validated here so a malformed plan is a
    # 400 with the schema problems spelled out
    from ..resilience.schema import validate_plan

    problems = validate_plan(plan)
    _require(not problems, "invalid fault plan: " + "; ".join(problems))
    return plan


#: flag -> parser of its request-body value (``None``: leave it unset);
#: ``delta_budget`` is the daemon's, never a body field
_FLAG_PARSERS = {
    "accuracy": _bounded("accuracy", float, "a number", lambda v: v > 0,
                         "positive"),
    "max_tier": _bounded("max_tier", int, "an integer",
                         lambda v: 0 <= v <= 3, "between 0 and 3"),
    "timeout": _bounded("timeout", float, "a number", lambda v: v > 0,
                        "positive"),
    # best-effort observability flag: a span tree comes back only when
    # the request triggers a fresh evaluation
    "trace": lambda value: True if value else None,
    "trace_context": _trace_context,
    "faults": _faults,
}
_DELTA_FLAGS = ("accuracy", "max_tier", "timeout", "trace", "trace_context")


def _parse_flags(payload: dict, names) -> dict:
    """The request flags ``names`` a body sets, validated (400 otherwise)."""
    flags = {}
    for name in names:
        if name in payload:
            value = _FLAG_PARSERS[name](payload[name])
            if value is not None:
                flags[name] = value
    return flags


@lru_cache(maxsize=8)
def _collection_names(size: str, scale: int) -> frozenset[str]:
    from ..machine.a64fx import scaled_machine

    return frozenset(
        spec.name for spec in collection(size, machine=scaled_machine(scale))
    )


def _normalize_matrix(payload: object, scale: int) -> dict:
    _require(isinstance(payload, dict), "request must carry a 'matrix' object")
    if "name" in payload:
        size = payload.get("collection", "small")
        _require(
            isinstance(size, str) and size in _SIZES,
            f"unknown collection {size!r} (expected one of {sorted(_SIZES)})",
        )
        name = payload["name"]
        _require(isinstance(name, str) and bool(name), "matrix name must be a string")
        try:
            names = _collection_names(size, scale)
        except ValueError as exc:
            # the collection is generated for the scaled machine, which
            # only some scale factors divide
            raise RequestError(f"bad setup.scale: {exc}") from None
        _require(
            name in names,
            f"matrix {name!r} not in the {size!r} collection",
            status=404,
        )
        return {"kind": "named", "collection": size, "name": name}
    if "csr" in payload:
        csr = payload["csr"]
        _require(isinstance(csr, dict), "'csr' must be an object")
        task = {
            "kind": "csr",
            "num_rows": _cast(csr.get("num_rows", -1), int,
                              "csr.num_rows must be an integer"),
            "num_cols": _cast(csr.get("num_cols", -1), int,
                              "csr.num_cols must be an integer"),
            "rowptr": _index_array(csr.get("rowptr"), "csr.rowptr"),
            "colidx": _index_array(csr.get("colidx"), "csr.colidx"),
        }
        _check_values(csr, "csr", len(task["colidx"]))
        _require(task["num_rows"] >= 0 and task["num_cols"] >= 0,
                 "csr.num_rows/num_cols must be non-negative integers")
        return task
    if "coo" in payload:
        coo = payload["coo"]
        _require(isinstance(coo, dict), "'coo' must be an object")
        task = {
            "kind": "coo",
            "num_rows": _cast(coo.get("num_rows", -1), int,
                              "coo.num_rows must be an integer"),
            "num_cols": _cast(coo.get("num_cols", -1), int,
                              "coo.num_cols must be an integer"),
            "rows": _index_array(coo.get("rows"), "coo.rows"),
            "cols": _index_array(coo.get("cols"), "coo.cols"),
        }
        _check_values(coo, "coo", len(task["rows"]))
        _require(task["num_rows"] >= 0 and task["num_cols"] >= 0,
                 "coo.num_rows/num_cols must be non-negative integers")
        _require(len(task["rows"]) == len(task["cols"]),
                 "coo.rows and coo.cols must have the same length")
        return task
    raise RequestError("matrix must carry 'name', 'csr' or 'coo'")


def _normalize_setup(payload: object) -> dict:
    defaults = ExperimentSetup()
    if payload is None:
        payload = {}
    _require(isinstance(payload, dict), "'setup' must be an object")
    unknown = set(payload) - set(_SETUP_FIELDS)
    _require(not unknown, f"unknown setup fields: {sorted(unknown)}")
    setup: dict = {}
    for name in ("scale", "num_threads", "iterations",
                 "l1_prefetch_distance", "l2_prefetch_distance"):
        setup[name] = _cast(payload.get(name, getattr(defaults, name)), int,
                            f"setup.{name} must be an integer")
        _require(setup[name] >= (1 if name in ("scale", "num_threads", "iterations") else 0),
                 f"setup.{name} out of range")
    for name in ("l2_way_options", "l1_way_options"):
        setup[name] = _int_list(
            payload.get(name, getattr(defaults, name)), f"setup.{name}"
        )
        _require(bool(setup[name]), f"setup.{name} must not be empty")
    return setup


def normalize_request(endpoint: str, payload: object) -> dict:
    """Validate a request payload into its canonical task form.

    Raises :class:`RequestError` (with an HTTP status) on anything
    malformed (an unparseable or out-of-range number included).  The
    returned dict has all defaults filled in and holds plain JSON values
    apart from an inline matrix's arrays; equal computations yield
    byte-equal tasks.
    """
    _require(endpoint in ENDPOINTS, f"unknown endpoint {endpoint!r}", status=404)
    _require(isinstance(payload, dict), "request body must be a JSON object")
    setup = _normalize_setup(payload.get("setup"))
    task: dict = {
        "endpoint": endpoint,
        "matrix": _normalize_matrix(payload.get("matrix"), setup["scale"]),
        "setup": setup,
    }

    if endpoint == "classify":
        task["way_options"] = _int_list(
            payload.get("way_options", setup["l2_way_options"]), "way_options"
        )
    elif endpoint == "predict":
        policies = payload.get(
            "policies",
            [{"l2_sector1_ways": w} for w in setup["l2_way_options"]],
        )
        _require(isinstance(policies, (list, tuple)) and policies,
                 "'policies' must be a non-empty list")
        normalized = []
        for entry in policies:
            _require(isinstance(entry, dict), "each policy must be an object")
            try:
                normalized.append(SectorPolicy.from_dict(entry).to_dict())
            except (TypeError, ValueError, OverflowError) as exc:
                raise RequestError(f"bad policy: {exc}") from None
        task["policies"] = normalized
    elif endpoint == "advise":
        task["way_options"] = _int_list(
            payload.get("way_options", ADVISE_WAY_OPTIONS), "way_options"
        )
        _require(bool(task["way_options"]), "way_options must not be empty")
        task["consider_isolate_x"] = bool(payload.get("consider_isolate_x", True))
        task["min_sector1_ways_with_prefetch"] = _cast(
            payload.get("min_sector1_ways_with_prefetch", 4), int,
            "min_sector1_ways_with_prefetch must be an integer",
        )
    elif endpoint == "optimize":
        from ..optimize.strategies import DEFAULT_STRATEGIES

        strategies = payload.get("strategies", list(DEFAULT_STRATEGIES))
        _require(isinstance(strategies, (list, tuple)) and strategies,
                 "'strategies' must be a non-empty list")
        _require(all(isinstance(s, str) for s in strategies),
                 "'strategies' must contain strategy names")
        unknown = [s for s in strategies if s not in DEFAULT_STRATEGIES]
        _require(not unknown,
                 f"unknown strategies {unknown} (expected a subset of "
                 f"{list(DEFAULT_STRATEGIES)})")
        # canonical order + dedup: the search evaluates in registry order
        # regardless of request order, so equal selections key equally
        task["strategies"] = [s for s in DEFAULT_STRATEGIES if s in strategies]
        budget = _cast(payload.get("budget_seconds", 30.0), float,
                       "budget_seconds must be a number")
        _require(budget > 0, "budget_seconds must be positive")
        task["budget_seconds"] = budget
        seed = _cast(payload.get("seed", 0), int, "seed must be an integer")
        _require(seed >= 0, "seed must be non-negative")
        task["seed"] = seed
    # sweep needs nothing beyond the setup: it measures the full grid

    if endpoint == "sweep":
        _require("accuracy" not in payload and "max_tier" not in payload,
                 "sweep has no fidelity ladder (it measures the simulator)")
    elif endpoint == "optimize":
        # the search fixes its own screening tiers; only the confirmation
        # accuracy is negotiable
        _require("max_tier" not in payload,
                 "optimize does not accept max_tier (the search screens at "
                 "tiers 0/1 and confirms at tier 2; use 'accuracy' to "
                 "loosen the confirmation)")
    task.update(_parse_flags(payload, _FLAG_PARSERS))
    return task


def normalize_delta(payload: object) -> dict:
    """Validate a ``POST /delta`` body into its canonical form.

    The body references a previously stored request by cache key and
    carries one edit batch::

        {"base": "<32-hex request key>",
         "delta": {"inserts": [[r, c, v?], ...], "deletes": [[r, c], ...]}}

    plus the optional request flags of a model request, bar ``faults``
    (see :data:`REQUEST_FLAGS`).
    The batch is canonicalized through
    :class:`repro.delta.delta.MatrixDelta` — sorted, deduplicated, every
    insert ``[r, c]`` (a sent value is validated and dropped) — so equal
    edits derive equal chained keys.  Base resolution (404/409) happens
    in the daemon, which owns the stored task registry; this function is
    shape validation only, shared with the cluster gateway.
    """
    from ..delta.delta import DeltaError, MatrixDelta

    _require(isinstance(payload, dict), "request body must be a JSON object")
    base = payload.get("base")
    _require(isinstance(base, str) and len(base) == 32
             and all(c in "0123456789abcdef" for c in base),
             "'base' must be a 32-hex request key")
    try:
        batch = MatrixDelta.from_dict(payload.get("delta")).to_dict()
    except DeltaError as exc:
        raise RequestError(f"bad delta: {exc}") from None
    normalized: dict = {"base": base, "delta": batch}
    normalized.update(_parse_flags(payload, _DELTA_FLAGS))
    return normalized


def derive_delta_task(stored: dict, normalized: dict, delta_budget: int) -> dict:
    """The canonical task of a delta request against its stored base.

    The derived task is the stored base task with its matrix wrapped (or
    extended) as a ``{"kind": "delta"}`` spec — so the inner endpoint,
    setup and endpoint knobs are inherited verbatim and the derived
    request key chains deterministically from the base content plus the
    canonical batch.  Only the stored task's :func:`keyed_form` carries
    over; the flags are the delta request's own.
    """
    task = keyed_form(stored)
    matrix = task["matrix"]
    if matrix["kind"] == "delta":
        task["matrix"] = {"kind": "delta", "base": matrix["base"],
                          "batches": list(matrix["batches"]) + [normalized["delta"]]}
    else:
        task["matrix"] = {"kind": "delta", "base": matrix,
                          "batches": [normalized["delta"]]}
    task.update((k, v) for k, v in normalized.items() if k in REQUEST_FLAGS)
    task["delta_budget"] = int(delta_budget)
    return task


def request_key(task: dict, root_json: str | None = None, *,
                with_record: bool = False):
    """Cache/coalescing key of a canonical task: the hash of its
    :func:`keyed_form`, so requests differing only in their
    :data:`REQUEST_FLAGS` share one result.  (Fault-carrying requests
    never *write* the cache — the key only lets them read what a healthy
    request stored.)

    ``root_json`` is ``canonical_json(root_spec(task))`` when the caller
    already holds it: the keyed form's other fields (and a delta spec's
    batches) are encoded and the matrix is spliced in, byte for byte
    ``canonical_json(keyed_form(task))``.

    With ``with_record`` it returns ``(key, record)``: ``record`` is the
    canonical JSON of the keyed form, the bytes the stored-task registry
    persists, so one encoding of an inline matrix serves both.
    """
    keyed = keyed_form(task)
    if root_json is None:
        record = canonical_json(keyed)
    else:
        # the fields sorting before and after "matrix", each encoded as
        # one object whose braces are dropped
        head = canonical_json({k: v for k, v in keyed.items() if k < "matrix"})
        tail = canonical_json({k: v for k, v in keyed.items() if k > "matrix"})
        record = "".join((
            head[:-1], "," if len(head) > 2 else "", '"matrix":',
            _spec_json(keyed["matrix"], root_json),
            "," if len(tail) > 2 else "", tail[1:]))
    # the bytes of canonical_json(["v1", keyed]), hashed without the copy
    digest = hashlib.sha256(b'["v1",')
    digest.update(record.encode())
    digest.update(b"]")
    key = digest.hexdigest()[:32]
    return (key, record) if with_record else key


# ----------------------------------------------------------------------
# worker-side builders
# ----------------------------------------------------------------------

def setup_from_task(task: dict) -> ExperimentSetup:
    """The :class:`ExperimentSetup` a task's computation runs under."""
    setup = task["setup"]
    return ExperimentSetup(
        scale=setup["scale"],
        num_threads=setup["num_threads"],
        iterations=setup["iterations"],
        l1_prefetch_distance=setup["l1_prefetch_distance"],
        l2_prefetch_distance=setup["l2_prefetch_distance"],
        l2_way_options=tuple(setup["l2_way_options"]),
        l1_way_options=tuple(setup["l1_way_options"]),
    )


def root_spec(task: dict) -> dict:
    """The matrix spec a task's matrix roots in: a delta spec's ``base``,
    else the spec itself.  Its ``canonical_json`` is the *root JSON*
    that :func:`request_key` and :func:`matrix_name` splice."""
    matrix = task["matrix"]
    return matrix["base"] if matrix["kind"] == "delta" else matrix


def _spec_json(spec: dict, root_json: str) -> str:
    """``canonical_json(spec)`` of a matrix spec whose root is encoded.

    Only a delta spec's edit batches are encoded here; the base — the
    whole inline matrix — is spliced in as ``root_json``.  A spec with
    any other shape than :func:`derive_delta_task`'s (whose keys sort
    base < batches < kind) can only come from a hand-edited registry
    record, and is encoded whole, so that revalidating it hashes exactly
    its bytes.
    """
    if spec["kind"] != "delta":
        return root_json
    if spec.keys() != {"base", "batches", "kind"} or not isinstance(
            spec["batches"], list):
        return canonical_json(spec)
    batches = ",".join(canonical_json(batch) for batch in spec["batches"])
    return f'{{"base":{root_json},"batches":[{batches}],"kind":"delta"}}'


def matrix_name(task: dict, root_json: str | None = None) -> str:
    """Stable name of a task's matrix (content-addressed when inline).

    For named matrices this is the collection name, so service ``sweep``
    requests share on-disk records with ``python -m repro.experiments``
    sweeps of the same setup.  ``root_json`` is ``canonical_json`` of
    :func:`root_spec` when the caller already holds it.
    """
    matrix = task["matrix"]
    kind = matrix["kind"]
    if kind == "named":
        return matrix["name"]
    if root_json is None:
        root_json = canonical_json(root_spec(task))
    text = _spec_json(matrix, root_json)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"{'delta' if kind == 'delta' else 'inline'}-{digest}"


def _int32(values) -> np.ndarray:
    """Column indices as ``int32``, overflow-checked like
    ``np.asarray(list, np.int32)`` (``astype`` would wrap silently)."""
    array = np.asarray(values)
    if array.dtype == np.int32:
        return array
    array = array.astype(np.int64)
    outside = (array < _INT32.min) | (array > _INT32.max)
    if outside.any():
        value = int(array[outside][0])
        raise OverflowError(f"Python integer {value} out of bounds for int32")
    return array.astype(np.int32)


def matrix_from_task(task: dict, name: str | None = None) -> CSRMatrix:
    """Materialize a task's matrix (runs inside a pool worker).

    ``name`` is the task's :func:`matrix_name` when the caller already
    holds it: hashing an inline matrix costs about as much as building it.
    """
    spec = task["matrix"]
    if name is None:
        name = matrix_name(task)
    if spec["kind"] == "delta":
        # base pattern plus the accumulated edit chain, every batch
        # validated against the pattern it lands on
        import dataclasses

        from ..delta.delta import MatrixDelta

        base = {"matrix": spec["base"], "setup": task.get("setup")}
        # an inline base is renamed below: no need to hash it for a name
        matrix = matrix_from_task(
            base, matrix_name(base) if spec["base"]["kind"] == "named" else name)
        for batch in spec["batches"]:
            matrix = MatrixDelta.from_dict(batch).apply(matrix).matrix
        return dataclasses.replace(matrix, name=name)
    if spec["kind"] == "named":
        machine = setup_from_task(task).machine()
        for candidate in collection(spec["collection"], machine=machine):
            if candidate.name == name:
                return candidate.materialize()
        raise KeyError(f"matrix {name!r} not in the {spec['collection']!r} collection")
    # the pattern is all a task holds: every entry gets the value 1
    if spec["kind"] == "csr":
        rowptr = np.asarray(spec["rowptr"], dtype=np.int64)
        nnz = int(rowptr[-1]) if rowptr.size else 0
        return CSRMatrix(spec["num_rows"], spec["num_cols"], rowptr,
                         _int32(spec["colidx"]), np.ones(nnz), name=name)
    return CSRMatrix.from_coo(
        spec["num_rows"],
        spec["num_cols"],
        np.asarray(spec["rows"], dtype=np.int64),
        np.asarray(spec["cols"], dtype=np.int64),
        name=name,
    )
