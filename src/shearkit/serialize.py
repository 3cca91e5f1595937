"""Canonical JSON helpers for certificates and reports.

All documents carry a `schema_version` field, serialize scalars and
polynomials as grammar strings, and dump with sorted keys and fixed
separators so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math

from .errors import ShearKitError
from .poly import format_poly, format_scalar, parse_scalar
from .fields import format_vector_field

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "canonical_dumps",
    "require_keys",
    "poly_to_text",
    "field_to_text",
    "combination_to_json",
    "combination_from_json",
]


def canonical_dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _matches(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_matches(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(shape)
            and all(map(_matches, value, shape))
        )
    if isinstance(value, bool):
        return False
    if shape is float:
        # json.loads admits NaN and Infinity
        return isinstance(value, (int, float)) and -math.inf < value < math.inf
    return isinstance(value, shape)


def require_keys(doc, what: str, **shapes) -> dict:
    """Return `doc` once it is a JSON object whose keys have the given shapes.

    A shape is a type (`float` admits any finite number), ``[shape]`` for a list
    of such items, or a tuple of shapes for a list of that exact length.
    Anything else raises `ShearKitError`, so a malformed input file is a
    usage error rather than a traceback.
    """
    if not isinstance(doc, dict):
        raise ShearKitError(f"{what} must be a JSON object")
    for key, shape in shapes.items():
        if key not in doc:
            raise ShearKitError(f"{what} lacks the key {key!r}")
        if not _matches(doc[key], shape):
            raise ShearKitError(f"{what} has a malformed {key!r}: {doc[key]!r}")
    return doc


poly_to_text = format_poly
field_to_text = format_vector_field


def combination_to_json(combination) -> list:
    """A list of (Scalar coefficient, int index) pairs as JSON."""
    return [[format_scalar(coeff), index] for coeff, index in combination]


def combination_from_json(data) -> list:
    return [(parse_scalar(coeff), index) for coeff, index in data]
