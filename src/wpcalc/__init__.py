"""Symbolic-combinatorial engine for serial categories and weighted
projective lines: Hom/Ext dimension tables, Ext-quivers, twist functors,
perpendicular categories, and thick-subcategory enumeration.

``import wpcalc`` loads only :mod:`wpcalc.errors`; each engine is
imported by name (``from wpcalc import serial``), so the ``wpc`` CLI
loads only the engine it runs, not the matrix oracle in
``nilrep``/``linalg``."""

from .errors import WpcError

__all__ = ["lgroup", "linalg", "nilrep", "quiver", "serial", "wpl", "WpcError"]
