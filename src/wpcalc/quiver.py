"""Finite quivers and their combinatorial predicates.

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
"""

from enum import Enum
from typing import NamedTuple

from .errors import DisconnectedQuiver, ParseError, UnknownVertex


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

    def out_degree(self, v):
        return sum(1 for s, _ in self.arrows if s == v)

    def in_degree(self, v):
        return sum(1 for _, t in self.arrows if t == v)


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


class SerreKind(Enum):
    FINITE_PATHS = "finite_paths"
    CYCLE = "cycle"
    NO_SERRE = "no_serre"


class SerreClass(NamedTuple):
    kind: SerreKind
    cycle_length: int | None = None


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


def is_acyclic(q: Quiver) -> bool:
    """No directed cycles (loops count as cycles)."""
    out = {v: [] for v in q.vertices}
    for s, t in q.arrows:
        out[s].append(t)
    state = {v: 0 for v in q.vertices}  # 0 unseen, 1 on stack, 2 done
    for root in q.vertices:
        if state[root]:
            continue
        stack = [(root, iter(out[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return True


def is_connected(q: Quiver) -> bool:
    """Weak connectivity of the underlying undirected graph."""
    if not q.vertices:
        return True
    adj = {v: set() for v in q.vertices}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = {q.vertices[0]}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(q.vertices)


def is_oriented_cycle(q: Quiver) -> bool:
    """Is ``q`` the oriented cycle Z_n (n >= 1)?  Z_1 is a single loop."""
    n = len(q.vertices)
    if n == 0 or len(q.arrows) != n:
        return False
    if not is_connected(q):
        return False
    return all(q.out_degree(v) == 1 and q.in_degree(v) == 1 for v in q.vertices)


def serre_class(q: Quiver) -> SerreClass:
    """Serre-functor trichotomy for a connected finite quiver.

    FinitePaths iff every vertex lies on only finitely many paths, which
    for a finite quiver means acyclic; Cycle(n) iff the quiver is the
    oriented cycle Z_n; NoSerre otherwise.  (The two-sided infinite line
    case cannot occur for finite quivers.)
    """
    if not is_connected(q):
        raise DisconnectedQuiver("serre_class requires a connected quiver")
    if is_acyclic(q):
        return SerreClass(SerreKind.FINITE_PATHS)
    if is_oriented_cycle(q):
        return SerreClass(SerreKind.CYCLE, len(q.vertices))
    return SerreClass(SerreKind.NO_SERRE)


# -- text / JSON formats -----------------------------------------------------


def _parse_vertex_token(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def quiver_to_text(q: Quiver) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in q.vertices)]
    lines.extend(f"arrow: {s} {t}" for s, t in q.arrows)
    return "\n".join(lines) + "\n"


def quiver_from_text(text: str) -> Quiver:
    vertices = None
    arrows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("duplicate 'vertices:' line")
            vertices = [_parse_vertex_token(t) for t in line[len("vertices:"):].split()]
        elif line.startswith("arrow:"):
            toks = line[len("arrow:"):].split()
            if len(toks) != 2:
                raise ParseError(f"arrow line needs two endpoints: {line!r}")
            arrows.append((_parse_vertex_token(toks[0]), _parse_vertex_token(toks[1])))
        else:
            raise ParseError(f"unrecognized quiver line: {line!r}")
    if vertices is None:
        raise ParseError("missing 'vertices:' line")
    try:
        return Quiver(vertices, arrows)
    except UnknownVertex as exc:
        raise ParseError(str(exc)) from exc


def quiver_to_json_dict(q: Quiver) -> dict:
    return {"vertices": list(q.vertices), "arrows": [[s, t] for s, t in q.arrows]}


def quiver_from_json_dict(data: dict) -> Quiver:
    try:
        return Quiver(data["vertices"], [tuple(a) for a in data["arrows"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad quiver JSON: {exc}") from exc


def same_multigraph(a: Quiver, b: Quiver) -> bool:
    """Equality as labeled multigraphs (vertex sets and arrow multisets)."""
    if set(a.vertices) != set(b.vertices):
        return False
    return sorted(map(repr, a.arrows)) == sorted(map(repr, b.arrows))
