"""Symbolic-combinatorial engine for serial categories and weighted
projective lines: Hom/Ext dimension tables, Ext-quivers, twist functors,
perpendicular categories, and thick-subcategory enumeration.

Submodules are imported on use (``from wpcalc import serial``), so the
``wpc`` CLI loads only the engine it runs, not the matrix oracle in
``nilrep``/``linalg``."""

from .errors import WpcError

__all__ = ["lgroup", "linalg", "nilrep", "quiver", "serial", "wpl", "WpcError"]


def __getattr__(name):
    """Load a submodule on first attribute access (``wpcalc.serial``)."""
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
