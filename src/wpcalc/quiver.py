"""Finite quivers and Ext-quivers.

A quiver is a finite directed multigraph: an ordered tuple of distinct
vertex ids plus a tuple of (source, target) arrows.  Parallel arrows and
loops are allowed.  Vertex ids can be any hashable values (ints in most
tests, strings when quivers are built from sheaf collections).

The Ext-quiver convention used throughout the package: for a family of
objects ``t_i`` with Ext table ``M[i][j] = dim Ext^1(t_i, t_j)``, the
Ext-quiver has ``M[j][i]`` arrows from ``i`` to ``j``.  In particular the
Ext-quiver of the simple nilpotent modules of a quiver ``q`` is ``q``
itself, since ``dim Ext^1(s_i, s_j)`` counts the arrows from ``j`` to
``i``.

Quivers are written out, never read back: ``quiver_to_text`` and
``quiver_to_json_dict`` format the ``extquiver`` and ``classify`` output.
"""

from typing import NamedTuple

from .errors import UnknownVertex


class _QuiverFields(NamedTuple):
    vertices: tuple
    arrows: tuple  # of (source, target) pairs


class Quiver(_QuiverFields):
    __slots__ = ()

    def __new__(cls, vertices, arrows):
        vs = tuple(vertices)
        ars = tuple((s, t) for s, t in arrows)
        if len(set(vs)) != len(vs):
            raise UnknownVertex(f"duplicate vertex ids in {vs!r}")
        vset = set(vs)
        for s, t in ars:
            if s not in vset or t not in vset:
                raise UnknownVertex(f"arrow ({s!r}, {t!r}) has an undeclared endpoint")
        return tuple.__new__(cls, (vs, ars))


def ext_quiver(labels, ext1) -> Quiver:
    """Quiver on ``labels`` with ``ext1[j][i]`` arrows from i to j.

    ``ext1[i][j] = dim Ext^1(t_i, t_j)`` over a family ``t`` labelled by
    ``labels``: a square table of non-negative integers.
    """
    arrows = []
    for i, src in enumerate(labels):
        for j, dst in enumerate(labels):
            arrows.extend([(src, dst)] * ext1[j][i])
    return Quiver(labels, arrows)


# -- text / JSON output -------------------------------------------------------


def quiver_to_text(q: Quiver) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in q.vertices)]
    lines.extend(f"arrow: {s} {t}" for s, t in q.arrows)
    return "\n".join(lines) + "\n"


def quiver_to_json_dict(q: Quiver) -> dict:
    return {"vertices": list(q.vertices), "arrows": [[s, t] for s, t in q.arrows]}


def same_multigraph(a: Quiver, b: Quiver) -> bool:
    """Equality as labeled multigraphs (vertex sets and arrow multisets)."""
    if set(a.vertices) != set(b.vertices):
        return False
    return sorted(map(repr, a.arrows)) == sorted(map(repr, b.arrows))
