"""Plain-text and JSON rendering for experiment output.

Every experiment driver prints the rows or series the corresponding paper
table/figure reports, via these helpers, so outputs are diffable and
consistently formatted.  :func:`canonical_json` is the shared machine
format: model objects exposing ``to_dict()`` (:class:`~repro.core.advisor.Recommendation`,
:class:`~repro.experiments.common.MatrixRecord`, ...) serialize to the same
bytes whether emitted by a report or by the advisor service
(:mod:`repro.service`).
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    align_left: int = 1,
) -> str:
    """Render an aligned text table; the first ``align_left`` columns are
    left-justified (labels), the rest right-justified (numbers)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def line(parts: Sequence[str]) -> str:
        out = []
        for i, part in enumerate(parts):
            out.append(part.ljust(widths[i]) if i < align_left else part.rjust(widths[i]))
        return "  ".join(out)

    body = [line(headers), "  ".join("-" * w for w in widths)]
    body += [line(r) for r in cells]
    if title:
        body.insert(0, title)
    return "\n".join(body)


def render_series(
    name: str, points: Sequence[tuple[object, object]], x_label: str, y_label: str
) -> str:
    """Render an (x, y) series as aligned text (one figure series)."""
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in points:
        lines.append(f"  {_fmt(x):>14}  {_fmt(y):>12}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


#: Exact types ``json`` encodes natively.  A list holding only these
#: passes through :func:`jsonable` untouched, so the C encoder walks it;
#: subclasses (``IntEnum``, ...) take the per-element path.
_PLAIN = frozenset({int, float, str, bool, type(None)})


def jsonable(value: object) -> object:
    """Recursively convert model objects to plain JSON-compatible values.

    Objects with a ``to_dict()`` method serialize through it; NumPy
    arrays become lists and NumPy scalars (anything with ``.item()``)
    native Python numbers, so the output is independent of the producing
    dtype.  A list or tuple of plain scalars is checked at C speed and
    returned as is: inline matrices carry hundreds of thousands of them.
    """
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return jsonable(to_dict())
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        if _PLAIN.issuperset(map(type, value)):
            return value if isinstance(value, list) else list(value)
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, compact separators.

    Two equal payloads always produce identical bytes, which is what the
    service's response cache, its coalescing tests, and diffable reports
    all rely on.
    """
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def render_json(value: object) -> str:
    """Human-oriented JSON report (sorted keys, indented)."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2)
