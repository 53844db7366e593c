"""Symbolic-combinatorial engine for serial categories and weighted
projective lines: Hom/Ext dimension tables, Ext-quivers, twist functors,
perpendicular categories, and thick-subcategory enumeration.

``import wpcalc`` loads only :mod:`wpcalc.errors`; each engine is
imported by name (``from wpcalc import serial``).  The two engines share
one tube count, :mod:`wpcalc.tube`, and neither loads the other for it:
the sheaf model, :mod:`wpcalc.wpl` over :mod:`wpcalc.lgroup`, loads
:mod:`wpcalc.serial` only to cut a tube in ``perp_exceptional_torsion``.
So the ``wpc`` CLI loads only the engine its command runs, and never the
matrix oracle in ``nilrep``/``linalg``."""

from .errors import WpcError

__all__ = ["lgroup", "linalg", "nilrep", "quiver", "serial", "tube", "wpl", "WpcError"]
