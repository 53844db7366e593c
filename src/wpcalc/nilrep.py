"""Brute-force oracle: nilpotent quiver representations over exact rationals.

Matrix convention (pinned by the identity ``ext1_dim(s_i, s_j) = number of
arrows from j to i``, which is what the whole package is calibrated
against): representations are *right* modules, so the matrix attached to
an arrow ``u -> v`` maps the fiber at ``v`` to the fiber at ``u`` and has
shape ``(dims[u], dims[v])``.

Hom dimensions come from an exact linear solve for the intertwiner space;
Ext^1 dimensions come from the Euler-form defect ``hom - euler``.  The
defect formula is valid for every finite quiver as long as both inputs
are nilpotent: the nilpotent finite-dimensional modules form a Serre
subcategory of all modules, which is hereditary, so the Euler pairing on
classes of simples determines the full pairing and Ext^2 vanishes.
Nilpotency is enforced when a Rep is constructed: the total action,
held as sparse rows of its exact nonzero entries, is squared until it
vanishes or its exponent reaches the total dimension.  ``hom_ext1``
leaves the quiver check to ``hom_dim`` and takes the Euler term straight
from the two reps' ``dims``, which hold every vertex of the quiver.

A Rep holds each arrow matrix only as the sparse list of its nonzero
entries; nothing here builds a dense matrix.  Entries are exact
rationals held as ``int`` wherever they are integral
(:func:`wpcalc.linalg.exact`), so the reps built from arcs carry int
entries end to end and no ``Fraction`` arithmetic runs on them.
"""

from . import linalg
from .errors import NonNegativityViolation, QuiverMismatch, UnknownVertex
from .quiver import Quiver


class Rep:
    """A nilpotent representation: dims per vertex, sparse matrix per arrow.

    The matrix of ``quiver.arrows[k] = (u, v)`` has shape
    ``(dims[u], dims[v])`` (right action, fiber at v -> fiber at u) and
    is held only as ``nonzeros[k]``, the list of its nonzero entries
    ``(i, j, entry)`` in row-major order.  A matrix is given as a list of
    rows, or as ``[]`` for zero; with a zero-dimensional end only ``[]``
    or k empty rows for a k x 0 shape fit.  Each given entry is read once,
    as an exact rational (an int where integral), so later changes to the
    given rows do not reach the Rep.
    """

    def __init__(self, quiver: Quiver, dims, mats):
        self.quiver = quiver
        self.dims = {v: 0 for v in quiver.vertices}
        for v, d in dict(dims).items():
            if v not in self.dims:
                raise UnknownVertex(f"dimension given for unknown vertex {v!r}")
            if d < 0:
                raise ValueError(f"negative dimension at {v!r}")
            if d % 1:
                raise ValueError(f"non-integral dimension {d!r} at {v!r}")
            self.dims[v] = int(d)
        mats = list(mats)
        if len(mats) != len(quiver.arrows):
            raise ValueError("need one matrix per arrow")
        exact = linalg.exact
        self.nonzeros = []
        for (u, v), m in zip(quiver.arrows, mats):
            nrows, ncols = self.dims[u], self.dims[v]
            if m and (len(m) != nrows or any(len(r) != ncols for r in m)):
                raise ValueError(f"matrix for arrow ({u!r},{v!r}) must be {nrows}x{ncols}")
            self.nonzeros.append(
                [(i, j, x) for i in range(nrows) for j in range(ncols) if (x := exact(m[i][j]))]
                if m
                else []
            )
        if not self._is_nilpotent():
            raise ValueError("representation is not nilpotent")

    def _is_nilpotent(self) -> bool:
        """T^n = 0 for the total action T on the n-dimensional total space.

        T is kept as sparse rows ``{row: {col: entry}}`` of its nonzero
        entries, built from :attr:`nonzeros` and squared on those exact
        entries; squaring reaches an exponent >= n in about log2(n) products.
        The entries decide, not the support: ``[[1, 1], [-1, -1]]`` on a
        loop is nilpotent although its support has a cycle.
        """
        offset = {}
        n = 0
        for v in self.quiver.vertices:
            offset[v] = n
            n += self.dims[v]
        t = {}
        for (u, v), nonzeros in zip(self.quiver.arrows, self.nonzeros):
            ou, ov = offset[u], offset[v]
            for i, j, x in nonzeros:
                row = t.setdefault(ou + i, {})
                z = row.get(ov + j, 0) + x
                if z:
                    row[ov + j] = z
                else:  # parallel arrows cancel
                    del row[ov + j]
        t = {i: row for i, row in t.items() if row}
        exponent = 1
        while t:
            if exponent >= n:
                return False
            t = _square(t)
            exponent *= 2
        return True


def _square(t) -> dict:
    """T·T for sparse rows ``{row: {col: entry}}`` of nonzero entries, in the same form."""
    out = {}
    for i, row in t.items():
        acc = {}
        for k, x in row.items():
            tk = t.get(k)
            if tk:
                for j, y in tk.items():
                    z = acc.get(j, 0) + x * y
                    if z:
                        acc[j] = z
                    else:  # x * y is nonzero, so acc held j
                        del acc[j]
        if acc:
            out[i] = acc
    return out


def hom_dim(m: Rep, n: Rep) -> int:
    """dim of the intertwiner space, by kernel dimension of the exact system.

    Unknowns are the vertex maps phi_v : m-fiber(v) -> n-fiber(v); each
    arrow ``a: u -> v`` contributes the equations
    ``phi_u . A_m = A_n . phi_v`` where ``A`` is the arrow matrix, one
    per entry ``(r, c)`` of an ``n.dims[u] x m.dims[v]`` block, so an
    arrow whose block is empty, or whose two matrices are zero, adds
    none.  The equation at entry ``(r, c)`` is a sparse
    ``{unknown: coefficient}`` row built from the nonzeros alone:
    ``A_m[s][c]`` puts ``+A_m[s][c]`` on ``phi_u[r][s]`` for every ``r``,
    and ``A_n[r][s]`` puts ``-A_n[r][s]`` on ``phi_v[s][c]`` for every
    ``c``; equation keys and unknowns are stepped by addition along
    ``r`` and ``c``.  On a loop both sides can meet one unknown, and a
    coefficient that cancels stays in the row as an explicit 0, which
    :func:`wpcalc.linalg.rank` drops.  The rows go to
    ``linalg.kernel_dimension`` whenever there are unknowns.
    """
    if m.quiver != n.quiver:
        raise QuiverMismatch("hom_dim needs representations over the same quiver")
    q = m.quiver
    m_dims, n_dims = m.dims, n.dims
    # phi_v has shape (n_dims[v], m_dims[v]), row-major from offset[v]
    offset = {}
    nvars = 0
    for v in q.vertices:
        offset[v] = nvars
        nvars += n_dims[v] * m_dims[v]
    if nvars == 0:
        return 0
    rows = []
    for (u, v), m_nonzeros, n_nonzeros in zip(q.arrows, m.nonzeros, n.nonzeros):
        nu, mv = n_dims[u], m_dims[v]
        if not (nu and mv and (m_nonzeros or n_nonzeros)):
            continue
        mu, ou, ov = m_dims[u], offset[u], offset[v]
        eqs = {}  # r * mv + c -> row of the equation at entry (r, c)
        for s, c, coef in m_nonzeros:
            key, col = c, ou + s
            for _ in range(nu):
                eqs.setdefault(key, {})[col] = coef
                key += mv
                col += mu
        for r, s, coef in n_nonzeros:
            key, col = r * mv, ov + s * mv
            for _ in range(mv):
                row = eqs.setdefault(key, {})
                row[col] = row.get(col, 0) - coef  # a loop (u == v) can hit a column twice
                key += 1
                col += 1
        rows += eqs.values()
    return linalg.kernel_dimension(rows, nvars)


def _euler(q: Quiver, d, e) -> int:
    """The Euler pairing of two dimension maps defined on every vertex of ``q``."""
    total = 0
    for v in q.vertices:
        total += d[v] * e[v]
    for (u, v) in q.arrows:
        total -= d[v] * e[u]
    return total


def hom_ext1(m: Rep, n: Rep) -> tuple:
    """(dim Hom(m, n), dim Ext^1(m, n)) from one solve, in which
    :func:`hom_dim` checks the quivers; Ext^1 is hom - euler."""
    hom = hom_dim(m, n)
    defect = hom - _euler(m.quiver, m.dims, n.dims)
    if defect < 0:
        raise NonNegativityViolation(
            f"negative Ext^1 defect {defect}; matrix/Euler conventions are out of sync"
        )
    return hom, defect


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1(m, n) in the nilpotent module category, as hom - euler."""
    return hom_ext1(m, n)[1]
