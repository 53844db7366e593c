"""The tube count: Hom and Ext^1 between two arcs of a rank n tube.

Both engines read it: :mod:`wpcalc.serial` for the arcs of A_n and U_n
(A_n reads its counts on U_{n+1}), and :mod:`wpcalc.wpl` for torsion at
one point.  It lives here, with no other import, so that neither engine
loads the other for it.
"""

from typing import NamedTuple


class HomExt(NamedTuple):
    hom: int
    ext1: int


def cycle_dims(n: int, shift: int, lx: int, ly: int) -> HomExt:
    """(dim Hom(x, y), dim Ext^1(x, y)) for arcs of U_n of lengths lx, ly
    with y.top - x.top = shift.

    A map is determined by the image of the top basis vector of x, which
    must land in the fiber of y at x.top and die after lx shifts: on one
    of the positions k of y in [ly - m, ly - 1], m = min(lx, ly), with
    k = shift mod n.  Ext^1 is Hom(y, tau x): lengths swapped, shift
    x.top - 1 - y.top, so k in [lx - m, lx - 1] with k = -shift - 1 mod n.
    Each count is a difference of two floor quotients.
    """
    m = lx if lx < ly else ly
    hom = (ly - 1 - shift) // n - (ly - m - 1 - shift) // n
    return tuple.__new__(HomExt, (hom, (lx + shift) // n - (lx - m + shift) // n))
