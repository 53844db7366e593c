"""Exact linear algebra over the rationals, on Python ints.

Small dense routines, enough for the intertwiner solves in
:mod:`wpcalc.nilrep`.  A matrix is a list of rows whose entries are
``int`` wherever they are integral and ``fractions.Fraction`` only where
the denominator is not 1 (:func:`exact_matrix` puts entries in this
form).  :func:`rank` clears each row's denominators once, which does not
change the rank, and then eliminates fraction-free on int rows.  No
pivoting heuristics and no modular or floating-point shortcut: the
matrices here are tiny and the arithmetic is exact.
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


def integral_rows(rows) -> list:
    """Each row times the lcm of its denominators: int rows of the same rank.

    A row of ints is passed through as it is, not copied.
    """
    out = []
    for row in rows:
        dens = [x.denominator for x in row if type(x) is not int]
        if dens:
            d = lcm(*dens)
            row = [x.numerator * (d // x.denominator) for x in row]
        out.append(row)
    return out


def zero_matrix(nrows, ncols) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def mat_mul(a, b) -> Matrix:
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = zero_matrix(n, p)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x == 0:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(p):
                oi[j] += x * bt[j]
    return out


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def rank(rows) -> int:
    """Rank over Q by fraction-free elimination on integral rows.

    Row i below the pivot row r becomes ``a·row_i − b·row_r`` with
    ``a/b`` the reduced ratio pivot/entry, then is divided by its
    content (the gcd of its entries), so entries stay small.  Entries
    are ints or Fractions.
    """
    m = [row for row in integral_rows(rows) if any(row)]
    nrows = len(m)
    if nrows == 0:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        pv = pr[c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], pr)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == nrows:
            break
    return r


def kernel_dimension(rows, ncols) -> int:
    """Dimension of the solution space of the homogeneous system ``rows``.

    ``rows`` is a list of coefficient rows of length ``ncols``; an empty
    list means no constraints.
    """
    return ncols - rank(rows)
