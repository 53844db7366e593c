"""Finite quivers, Ext matrices and Ext-quivers.

A quiver is a finite directed multigraph: an ordered tuple of distinct
vertex ids plus a tuple of (source, target) arrows.  Parallel arrows and
loops are allowed.  Vertex ids can be any hashable values (ints in most
tests, strings when quivers are built from sheaf collections).

The Ext-quiver convention used throughout the package: for a family of
objects ``t_i`` with Ext matrix ``M[i][j] = dim Ext^1(t_i, t_j)``, the
Ext-quiver has ``M[j][i]`` arrows from ``i`` to ``j``.  In particular the
Ext-quiver of the simple nilpotent modules of a quiver ``q`` is ``q``
itself (arrow counting for simples goes the transposed way; see
:func:`simple_ext_dims`).

Quivers are written out, never read back: ``quiver_to_text`` and
``quiver_to_json_dict`` format the ``extquiver`` and ``classify`` output.
"""

from typing import NamedTuple

from .errors import ParseError, UnknownVertex


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

    def arrow_count(self, src, dst):
        return sum(1 for s, t in self.arrows if s == src and t == dst)


class _ExtMatrixFields(NamedTuple):
    labels: tuple
    ext1: tuple  # of tuples of ints; ext1[i][j] = dim Ext^1(obj_i, obj_j)


class ExtMatrix(_ExtMatrixFields):
    """Square table of Ext^1 dimensions over an ordered list of labels."""

    __slots__ = ()

    def __new__(cls, labels, ext1):
        ls = tuple(labels)
        rows = tuple(tuple(int(x) for x in row) for row in ext1)
        if len(rows) != len(ls) or any(len(r) != len(ls) for r in rows):
            raise ParseError("ext matrix must be square with side = number of labels")
        if any(x < 0 for row in rows for x in row):
            raise ParseError("ext matrix entries must be non-negative")
        return tuple.__new__(cls, (ls, rows))


def simple_ext_dims(q: Quiver) -> ExtMatrix:
    """Ext^1 table of the simple nilpotent modules of ``q``.

    ``M[i][j] = dim Ext^1(s_i, s_j)`` equals the number of arrows of ``q``
    from ``j`` to ``i``.  Hom dimensions are the identity matrix and are
    not returned.
    """
    vs = q.vertices
    rows = tuple(tuple(q.arrow_count(vj, vi) for vj in vs) for vi in vs)
    return ExtMatrix(vs, rows)


def ext_quiver(m: ExtMatrix) -> Quiver:
    """Quiver on ``m.labels`` with ``m.ext1[j][i]`` arrows from i to j."""
    arrows = []
    n = len(m.labels)
    for i in range(n):
        for j in range(n):
            arrows.extend([(m.labels[i], m.labels[j])] * m.ext1[j][i])
    return Quiver(m.labels, arrows)


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
