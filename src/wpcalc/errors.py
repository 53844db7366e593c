"""Exception hierarchy.

Input-level errors (bad arguments, unparseable literals, out-of-range
requests) all derive from ``InputError`` and map to CLI exit code 2.
``InternalError`` subclasses signal a broken invariant inside the engine
and map to exit code 1; they should never fire on valid inputs.
"""

import re
import sys


class WpcError(Exception):
    """Base class for all package errors."""


class InputError(WpcError):
    """User-correctable error: bad value, mismatch, unsupported request."""


class InternalError(WpcError):
    """Invariant violation inside the engine; indicates a bug."""


class ParseError(InputError):
    pass


class UnknownVertex(InputError):
    pass


class QuiverMismatch(InputError):
    pass


class NonNegativityViolation(InternalError):
    pass


class NoTranslationForLine(InputError):
    pass


class CategoryMismatch(InputError):
    pass


class InvalidArc(InputError):
    pass


class BoundExceeded(InputError):
    pass


class WeightMismatch(InputError):
    pass


class ModelMismatch(InputError):
    pass


class UnknownPoint(InputError):
    pass


class NotVertexLike(InputError):
    pass


class NotExceptionalTorsion(InputError):
    pass


def _digit_limit() -> int:
    """The interpreter's int/str conversion digit limit, or 4,300 where it has none.

    4,300 is CPython's default limit.  Python 3.10 has no limit, and 0
    (``PYTHONINTMAXSTRDIGITS=0``) switches it off.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def check_digit_runs(text: str):
    """Refuse a literal with a digit run near the int/str conversion limit.

    A run of ``limit - 1`` digits or more raises ParseError, so a number
    built from parsed ones by a few additions still converts back to text.
    """
    limit = _digit_limit()
    if re.search(r"\d{%d}" % (limit - 1), text):
        raise ParseError(f"literal has a run of {limit - 1} or more digits")
