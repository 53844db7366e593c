"""Exact linear algebra over the rationals, on Python ints.

Just enough for the intertwiner solves in :mod:`wpcalc.nilrep`.  A row
is a sparse ``{column: entry}`` dict whose entries are ``int`` wherever
they are integral and ``fractions.Fraction`` only where the denominator
is not 1 (:func:`exact` puts an entry in this form).  :func:`rank`'s cost
follows the nonzero entries: it takes a row of nonzero ints as given,
copies a row only when it first changes, clears a row's zeros and
denominators (which does not change the rank) only where it has them,
and eliminates fraction-free on int rows.  No pivoting heuristics and no
modular or floating-point shortcut: the systems here are tiny and the
arithmetic is exact.
"""

from fractions import Fraction
from math import gcd, lcm


def exact(x):
    """``x`` as an exact rational: an ``int`` if integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def rank(rows) -> int:
    """Rank over Q by sparse, fraction-free elimination.

    Each row is a ``{column: entry}`` dict; entries are ints or
    Fractions, and ``rows`` is left unchanged.  One scan of a row's
    entries decides its form: a row of nonzero ints is used as given,
    and any other row is replaced by a new dict without its zeros, times
    the lcm of its denominators.  The row is then reduced against the
    pivot rows kept so far, keyed by their leading (smallest) column:
    ``a·row − b·pivot``, with ``a/b`` the reduced ratio of the two
    leading entries, clears the row's leading entry.  The first such
    step works on a copy (the scaling by ``a`` makes one; with ``a == 1``
    a row used as given is copied), so no input dict and no stored pivot
    is ever written.  A row left nonzero becomes a pivot row, divided by
    its content (the gcd of its entries) so entries stay small.  The
    content divides the leading entry, so a row whose leading entry is
    ±1, or whose only entry is the leading one, is kept as it is, with
    no gcd taken.
    """
    pivots = {}
    for row in rows:
        r = row
        for x in row.values():
            if not x or type(x) is not int:
                r = {c: x for c, x in row.items() if x}
                for x in r.values():
                    if type(x) is not int:
                        d = lcm(*[x.denominator for x in r.values()])
                        r = {c: x.numerator * (d // x.denominator) for c, x in r.items()}
                        break
                break
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                f = r[lead]
                if f != 1 and f != -1 and len(r) > 1:
                    g = gcd(*r.values())
                    if g > 1:
                        r = {c: x // g for c, x in r.items()}
                pivots[lead] = r
                break
            pv, f = pivot[lead], r[lead]
            g = gcd(pv, f)
            a, b = pv // g, f // g
            if a != 1:
                r = {c: a * x for c, x in r.items()}
            elif r is row:
                r = r.copy()
            for c, y in pivot.items():
                x = r.get(c, 0) - b * y
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


def kernel_dimension(rows, ncols) -> int:
    """Dimension of the solution space of the homogeneous system ``rows``.

    ``rows`` is a list of ``{column: entry}`` rows over columns
    ``0..ncols-1``, as :func:`rank` takes them; an empty list means no
    constraints.
    """
    return ncols - rank(rows)
