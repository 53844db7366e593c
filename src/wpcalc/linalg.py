"""Exact linear algebra over the rationals, on Python ints.

Just enough for the intertwiner solves in :mod:`wpcalc.nilrep`.  A
matrix is a list of rows whose entries are ``int`` wherever they are
integral and ``fractions.Fraction`` only where the denominator is not 1
(:func:`exact_matrix` puts entries in this form).  :func:`rank` works on
sparse rows, so its cost follows the nonzero entries: it clears each
row's denominators once, which does not change the rank, and then
eliminates fraction-free on int rows.  No pivoting heuristics and no
modular or floating-point shortcut: the systems here are tiny and the
arithmetic is exact.
"""

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[int | Fraction]]


def exact(x):
    """``x`` as an exact rational: an ``int`` if integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def exact_matrix(rows, nrows, ncols) -> Matrix:
    """Copy ``rows`` into a fresh nrows x ncols matrix of exact entries."""
    return [[exact(rows[i][j]) for j in range(ncols)] for i in range(nrows)]


def zero_matrix(nrows, ncols) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def rank(rows) -> int:
    """Rank over Q by sparse, fraction-free elimination.

    Each row is a ``{column: entry}`` dict or a dense list; entries are
    ints or Fractions, and ``rows`` is left unchanged.  A row, once its
    denominators are cleared, is reduced against the pivot rows kept so
    far, keyed by their leading (smallest) column: ``a·row − b·pivot``,
    with ``a/b`` the reduced ratio of the two leading entries, clears
    the row's leading entry.  A row left nonzero becomes a pivot row,
    divided by its content (the gcd of its entries) so entries stay
    small.
    """
    pivots = {}
    for row in rows:
        items = row.items() if type(row) is dict else enumerate(row)
        r = {c: x for c, x in items if x}
        for x in r.values():
            if type(x) is not int:
                d = lcm(*[x.denominator for x in r.values()])
                r = {c: x.numerator * (d // x.denominator) for c, x in r.items()}
                break
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*r.values())
                pivots[lead] = {c: x // g for c, x in r.items()} if g > 1 else r
                break
            pv, f = pivot[lead], r[lead]
            g = gcd(pv, f)
            a, b = pv // g, f // g
            if a != 1:
                r = {c: a * x for c, x in r.items()}
            for c, y in pivot.items():
                x = r.get(c, 0) - b * y
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


def kernel_dimension(rows, ncols) -> int:
    """Dimension of the solution space of the homogeneous system ``rows``.

    ``rows`` is a list of coefficient rows over columns ``0..ncols-1``,
    sparse or dense as :func:`rank` takes them; an empty list means no
    constraints.
    """
    return ncols - rank(rows)
