"""The package's argument rule, and its one error class.

Every argument of the package is checked by one rule, and a rejected one
raises DomainError: a real argument is a Python or numpy int or float
(taken as a float), an integer one a Python or numpy integer (taken as an
int), a complex one (a zero, coefficient or point) either or a Python or
numpy complex; a bool is none of them.  Against an array bound,
``_real_in`` also takes a 1-D float64 array of that bound's length: the
array forms of ``bounds`` take their other arguments so.

The rule lives apart from the closed forms of ``bounds``, which re-export
DomainError and DEFAULT_SEED as the same objects, so that ``check`` and
``fuzz`` start without compiling them.  It imports nothing from the package.
"""

from __future__ import annotations

import sys

import numpy as np

# Default base seed for anything randomized; chosen as the constant from the
# headline bound so reports are recognizably tied to this package.
DEFAULT_SEED = 20800


class DomainError(ValueError):
    """An argument violates a documented precondition: a parameter outside
    the interval its formula is defined on, a malformed instance, or an
    unreadable input or unwritable output file."""


_REAL = (int, float, np.integer, np.floating)
_COMPLEX = (complex, np.number, *_REAL)


def _number_type(kind: type, kinds: tuple = _REAL) -> bool:
    """Whether kind is one of the number types kinds and not bool: the one scalar test."""
    return issubclass(kind, kinds) and not issubclass(kind, bool)


def _real_in(name: str, value, lo: float, hi, *, closed_left=False, closed_right=False):
    """value as a float, if it is a real number in (lo, hi), either end included
    on request; the bounds are finite, so NaN and infinities fail.  Against an
    array hi (see ``bounds._each``) a number or a 1-D float64 array of hi's
    length passes as itself if every entry does, else fails at its first that
    does not; against a number hi, an array is not a real number."""
    if isinstance(value, np.ndarray) and isinstance(hi, np.ndarray):
        if value.ndim != 1:
            shape = value.shape
            raise DomainError(f"{name} must be a real number or a 1-D array, got shape {shape}")
        if value.size != hi.size:
            raise DomainError(f"{name} must have a's length {hi.size}, got length {value.size}")
        if value.dtype != np.float64:
            first = f"{value[0]!r} at index 0 of a" if value.size else "an empty"
            raise DomainError(f"{name} must be a real number, got {first} {value.dtype} array")
    elif type(value) is not float:
        if not _number_type(type(value)):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if not isinstance(value, int):
            value = float(value)
    try:
        ok = lo <= value if closed_left else lo < value
        ok &= value <= hi if closed_right else value < hi
    except OverflowError:  # an int past binary64 range against an array bound
        ok = np.zeros(hi.shape, bool)
    at = ""
    if not isinstance(ok, np.ndarray):
        if ok:
            return float(value)
    elif ok.all():
        return value
    else:
        i = int(np.argmin(ok))
        if isinstance(value, np.ndarray):
            value = value.item(i)
        hi, at = hi.item(i), f" at index {i}"
    raise DomainError(
        f"{name} must lie in {'[' if closed_left else '('}{lo!r}, {hi!r}"
        f"{']' if closed_right else ')'}, got {_shown(value)}{at}"
    )


def _shown(value) -> str:
    """repr(value); an int past binary64 range by bit length, as repr fails past 4,300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def _int_in(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int, if it is a Python or numpy integer (not bool)
    in [lo, hi], or at least lo when hi is None."""
    if type(value) is not int and _number_type(type(value), (int, np.integer)):
        value = int(value)
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    if hi is not None:
        span = f"an integer in [{lo}, {hi}]"
    else:
        span = {0: "a non-negative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
    raise DomainError(f"{name} must be {span}, got {_shown(value)}")


def _require_finite_complex(values, what: str, ndim: int = 1) -> np.ndarray:
    """values as an ndim-dimensional complex128 array, if every entry is a
    finite complex number by ``_number_type``.  An ndarray of a numeric
    dtype is checked by its dtype alone, with no loop over its entries; one
    of dtype object, entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        numbers = values.dtype.kind in "iufc"
    else:
        values = np.asarray(values, dtype=object)
        numbers = all(_number_type(kind, _COMPLEX) for kind in set(map(type, values.flat)))
    if not numbers or values.ndim != ndim:
        raise DomainError(
            f"{what} must be {'rows of ' * (ndim - 1)}numbers: int, float or complex, "
            "not bool or str"
        )
    try:
        with np.errstate(over="ignore"):
            arr = values.astype(np.complex128, copy=False)
    except OverflowError as exc:
        raise DomainError(f"{what} must be finite: {exc}") from None
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr
