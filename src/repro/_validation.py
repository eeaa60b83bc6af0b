"""Shared argument-validation helpers.

Every public entry point in :mod:`repro` validates its arguments eagerly so
that user errors surface as clear :class:`ValueError`/:class:`TypeError`
messages at the call site rather than as cryptic failures deep inside a
combinatorial routine.  These helpers centralize the checks so that error
messages stay uniform across the package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

__all__ = [
    "require",
    "check_positive_int",
    "check_nonnegative_int",
    "check_dims",
    "check_positive_float",
    "check_probability",
    "check_subset_size",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: Any, name: str) -> int:
    """Validate that *value* is a positive integer and return it as ``int``.

    Accepts exact integral types only (``bool`` is rejected because it is
    almost always a bug when passed where a count is expected).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_int(value: Any, name: str) -> int:
    """Validate that *value* is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_dims(dims: Iterable[int], name: str = "dims", *, min_len: int = 1) -> tuple[int, ...]:
    """Validate a sequence of torus/mesh dimension lengths.

    Returns the dimensions as a tuple of ints.  Every dimension must be a
    positive integer; the sequence must contain at least *min_len* entries.
    """
    if isinstance(dims, (str, bytes)):
        raise TypeError(f"{name} must be a sequence of ints, got {type(dims).__name__}")
    out = tuple(dims)
    if len(out) < min_len:
        raise ValueError(f"{name} must have at least {min_len} dimension(s), got {len(out)}")
    for i, a in enumerate(out):
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError(f"{name}[{i}] must be an int, got {type(a).__name__}")
        if a <= 0:
            raise ValueError(f"{name}[{i}] must be positive, got {a}")
    return out


def check_positive_float(value: Any, name: str) -> float:
    """Validate that *value* is a positive finite real number."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a number, got {type(value).__name__}") from exc
    if not (out > 0.0) or math.isinf(out):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return out


def check_probability(value: Any, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    out = float(value)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return out


def check_subset_size(t: Any, num_vertices: int, name: str = "t") -> int:
    """Validate a target subset size for an isoperimetric query.

    The edge-isoperimetric problem is conventionally posed for
    ``1 <= t <= |V| / 2`` (the complement of a larger set has the same
    perimeter); we accept any ``1 <= t <= |V|`` and let callers that need
    the half-size restriction enforce it themselves.
    """
    t = check_positive_int(t, name)
    if t > num_vertices:
        raise ValueError(f"{name}={t} exceeds the number of vertices ({num_vertices})")
    return t
