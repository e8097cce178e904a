"""Canonical JSON reports.

Sorted keys, compact separators, rationals in lowest terms as [num, den]:
identical inputs give byte-identical reports.

A report dataclass is encoded field by field, each under its own name.  A
field whose key differs says so once in its metadata, built by `as_key`:
another name, no key at all (`OMIT`), or a summary of its value such as a
set's cardinality.  Keys computed from properties are listed in the class's
`json_computed`, mapping each key to the attribute that supplies it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

_KEY = "ablab.json_key"


def as_key(key: str | None, encode: Callable[[Any], Any] | None = None) -> dict:
    """Field metadata: write the field under `key` (or leave it out when key
    is None), passing its value through `encode` first."""
    return {_KEY: (key, encode)}


OMIT = as_key(None)


def card(s) -> int | None:
    """Summary of an optional set: its cardinality."""
    return None if s is None else s.card


def digest(s) -> str:
    """Summary of a set: its digest."""
    return s.digest()


def jsonable(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(x) for x in seq]
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            key, encode = f.metadata.get(_KEY, (f.name, None))
            if key is not None:
                value = getattr(obj, f.name)
                out[key] = jsonable(value if encode is None else encode(value))
        for key, attr in getattr(obj, "json_computed", {}).items():
            out[key] = jsonable(getattr(obj, attr))
        return out
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def canonical_dumps(obj: Any) -> str:
    """The report's canonical JSON text.  Integers of any length are written
    in full: Python's int-to-string digit limit is lifted only while the text
    is encoded, so parsing keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
