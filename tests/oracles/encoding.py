"""The per-element JSON conversion :func:`repro.analysis.report.jsonable`
replaced, kept as the oracle its fast paths are checked against."""

from __future__ import annotations

import json

import numpy as np


def jsonable_oracle(value: object) -> object:
    """Every element visited in Python, ``to_dict`` probed on each."""
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return jsonable_oracle(to_dict())
    if isinstance(value, dict):
        return {str(k): jsonable_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_oracle(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def as_scalar_lists(value: object) -> object:
    """``value`` with every ndarray spelled as nested lists of NumPy
    scalars — the form the oracle encodes element by element."""
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return value[()]
        return [as_scalar_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: as_scalar_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(as_scalar_lists(v) for v in value)
    return value


def canonical_json_oracle(value: object) -> str:
    return json.dumps(jsonable_oracle(as_scalar_lists(value)),
                      sort_keys=True, separators=(",", ":"))
