"""The grading group of a weighted projective line.

L is the abelian group on generators c, x_1, ..., x_p with relations
``r_i * x_i = c``.  Every element has a unique normal form
``a*c + sum b_i*x_i`` with ``0 <= b_i <= r_i - 1``; elements are stored
normalized, raw coefficient vectors exist only transiently.  The empty
weight tuple is allowed (L = Z*c, ordinary projective line).
"""

import re
from typing import NamedTuple

from .errors import ModelMismatch, ParseError, UnknownPoint, check_digit_runs, read_int


class _WeightsFields(NamedTuple):
    r: tuple  # weights of the weighted points, each >= 2


class Weights(_WeightsFields):
    __slots__ = ()

    def __new__(cls, r):
        # read_int reads digit strings as literals write them (no "_"), and
        # other numbers as int() does, which would truncate 2.5 to a weight 2
        r = tuple(r)
        try:
            rr = tuple(map(read_int, r))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"weights must be integers, got {r!r}") from exc
        if any(n != x and not isinstance(x, str) for n, x in zip(rr, r)):
            raise ParseError(f"weights must be integers, got {r!r}")
        if any(x < 2 for x in rr):
            raise ParseError(f"weights must all be >= 2, got {rr}")
        return tuple.__new__(cls, (rr,))

    @property
    def p(self) -> int:
        return len(self.r)


class LElement(NamedTuple):
    a: int
    b: tuple  # of ints, 0 <= b_i <= r_i - 1; length checked against Weights by ops


def _check(w: Weights, u: LElement):
    if len(u.b) != w.p:
        raise ModelMismatch(f"element has {len(u.b)} torsion coefficients, weights have {w.p}")


def normalize(w: Weights, raw_a: int, raw_b) -> LElement:
    """Unique normal form of raw_a*c + sum raw_b_i*x_i (carry into c)."""
    raw_b = list(raw_b)
    if len(raw_b) != w.p:
        raise ModelMismatch(f"expected {w.p} coefficients, got {len(raw_b)}")
    # int() would truncate 2.5 to 2, so a coefficient must survive it unchanged
    a = int(raw_a)
    if a != raw_a:
        raise ParseError(f"coefficients must be integers, got {raw_a!r}")
    b = []
    for coef, r in zip(raw_b, w.r):
        c = int(coef)
        if c != coef:
            raise ParseError(f"coefficients must be integers, got {coef!r}")
        carry, rem = divmod(c, r)
        a += carry
        b.append(rem)
    return LElement(a, tuple(b))


def zero(w: Weights) -> LElement:
    return LElement(0, (0,) * w.p)


def cbar(w: Weights) -> LElement:
    return LElement(1, (0,) * w.p)


def xbar(w: Weights, i: int) -> LElement:
    """Generator x_i, 1-based index."""
    if not 1 <= i <= w.p:
        raise UnknownPoint(f"no weighted point x{i}")
    return normalize(w, 0, [1 if k == i - 1 else 0 for k in range(w.p)])


def add(w: Weights, u: LElement, v: LElement) -> LElement:
    _check(w, u)
    _check(w, v)
    return normalize(w, u.a + v.a, [x + y for x, y in zip(u.b, v.b)])


def neg(w: Weights, u: LElement) -> LElement:
    _check(w, u)
    return normalize(w, -u.a, [-x for x in u.b])


def sub(w: Weights, u: LElement, v: LElement) -> LElement:
    return add(w, u, neg(w, v))


def scale(w: Weights, k: int, u: LElement) -> LElement:
    _check(w, u)
    return normalize(w, k * u.a, [k * x for x in u.b])


def omega(w: Weights) -> LElement:
    """The dualizing shift -2c + sum (r_i - 1) x_i, already in normal form."""
    return LElement(-2, tuple(r - 1 for r in w.r))


_TERM = re.compile(r"([+-]?)(?:(\d+)(?:\*(?=c|x\d))?)?(c|x(\d+))?")
_SPLIT_NUMBER = re.compile(r"\d\s+\d")


def parse_element(w: Weights, text: str) -> LElement:
    """Parse ``2c + x1 - 3x2`` style element syntax.

    A bare integer term contributes to the c coefficient, so ``0`` is the
    zero element and ``3`` means 3c.  Every term after the first starts
    with ``+`` or ``-``; spaces are ignored except inside a number.  A
    ``*`` may stand only between a coefficient and its generator (``2*x1``).
    """
    check_digit_runs(text)
    if _SPLIT_NUMBER.search(text):
        raise ParseError(f"whitespace inside a number in {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty grading-group element")
    pos = 0
    a = 0
    b = [0] * w.p
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse element near {s[pos:]!r} in {text!r}")
        if pos and not m.group(1):
            raise ParseError(f"missing + or - before {s[pos:]!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) is not None else 1
        gen = m.group(3)
        if gen is None:
            if m.group(2) is None:
                raise ParseError(f"dangling sign in {text!r}")
            a += sign * coef  # bare integer: c multiples
        elif gen == "c":
            a += sign * coef
        else:
            idx = int(m.group(4))
            if not 1 <= idx <= w.p:
                raise ParseError(f"x{idx} out of range for {w.p} weighted points")
            b[idx - 1] += sign * coef
        pos = m.end()
    return normalize(w, a, b)


def format_element(u: LElement) -> str:
    """Compact canonical string; inverse of parse_element up to normal form."""
    terms = []
    if u.a:
        terms.append(("+" if u.a > 0 else "-") + (str(abs(u.a)) if abs(u.a) != 1 else "") + "c")
    for k, coef in enumerate(u.b):
        if coef:
            terms.append("+" + (str(coef) if coef != 1 else "") + f"x{k + 1}")
    if not terms:
        return "0"
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out
