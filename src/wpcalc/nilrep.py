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
held as sparse rows of its nonzero entries, is squared until it
vanishes or its exponent reaches the total dimension.  ``hom_ext1``
takes the Euler term straight from the two reps' ``dims``, with no copy
and no key check; :func:`euler_form` checks its keys first.

Entries are exact rationals held as ``int`` wherever they are integral
(:func:`wpcalc.linalg.exact`), so the matrices built from arcs are int
matrices end to end and no ``Fraction`` arithmetic runs on them.
"""

from math import lcm

from . import linalg
from .errors import NonNegativityViolation, QuiverMismatch, UnknownVertex
from .quiver import Quiver


class Rep:
    """A nilpotent representation: dims per vertex, matrix per arrow.

    ``mats[k]`` belongs to ``quiver.arrows[k] = (u, v)`` and has shape
    ``(dims[u], dims[v])`` (right action, fiber at v -> fiber at u);
    ``nonzeros[k]`` lists its nonzero entries as ``(i, j, entry)``.  A
    matrix may be given as ``[]`` for zero; on an arrow with a
    zero-dimensional end it is stored as ``[]``, and any other given
    form than ``[]`` or k empty rows for a k x 0 shape is rejected.
    Entries are normalized once, to ints where integral; values are
    treated as immutable after construction.
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
        self.mats = []
        self.nonzeros = []
        for (u, v), m in zip(quiver.arrows, mats):
            nrows, ncols = self.dims[u], self.dims[v]
            if m and (len(m) != nrows or any(len(r) != ncols for r in m)):
                raise ValueError(f"matrix for arrow ({u!r},{v!r}) must be {nrows}x{ncols}")
            if nrows == 0 or ncols == 0:
                m = []
            elif not m:
                m = linalg.zero_matrix(nrows, ncols)
            else:
                m = linalg.exact_matrix(m, nrows, ncols)
            self.mats.append(m)
            self.nonzeros.append(
                [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x]
            )
        if not self._is_nilpotent():
            raise ValueError("representation is not nilpotent")

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def _is_nilpotent(self) -> bool:
        """T^n = 0 for the total action T on the n-dimensional total space.

        T is kept as sparse rows ``{row: {col: entry}}`` of its nonzero
        entries, built from :attr:`nonzeros`; no dense n x n matrix is made.  The check runs
        on d·T, with d the lcm of T's denominators, which is nilpotent
        exactly when T is; squaring reaches an exponent >= n in about
        log2(n) products.
        The entries decide, not the support: ``[[1, 1], [-1, -1]]`` on a
        loop is nilpotent although its support has a cycle.
        """
        offset = {}
        n = 0
        for v in self.quiver.vertices:
            offset[v] = n
            n += self.dims[v]
        d = lcm(*[x.denominator for nonzeros in self.nonzeros for _, _, x in nonzeros])
        t = {}
        for (u, v), nonzeros in zip(self.quiver.arrows, self.nonzeros):
            ou, ov = offset[u], offset[v]
            for i, j, x in nonzeros:
                row = t.setdefault(ou + i, {})
                z = row.get(ov + j, 0) + x.numerator * (d // x.denominator)
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


def simple_rep(q: Quiver, v) -> Rep:
    """The simple module concentrated at vertex ``v``: all matrices zero."""
    if v not in q.vertices:
        raise UnknownVertex(f"unknown vertex {v!r}")
    dims = {w: (1 if w == v else 0) for w in q.vertices}
    mats = []
    for (u, w) in q.arrows:
        if dims[u] and dims[w]:
            mats.append([[0]])
        else:
            mats.append([])
    return Rep(q, dims, mats)


def dim_vector(rep: Rep) -> dict:
    return dict(rep.dims)


def hom_dim(m: Rep, n: Rep) -> int:
    """dim of the intertwiner space, by kernel dimension of the exact system.

    Unknowns are the vertex maps phi_v : m-fiber(v) -> n-fiber(v); each
    arrow ``a: u -> v`` contributes the equations
    ``phi_u . A_m = A_n . phi_v`` where ``A`` is the arrow matrix.  The
    equation at entry ``(r, c)`` is a sparse ``{unknown: coefficient}``
    row built from the nonzeros alone: ``A_m[s][c]`` puts ``+A_m[s][c]``
    on ``phi_u[r][s]`` for every ``r``, and ``A_n[r][s]`` puts
    ``-A_n[r][s]`` on ``phi_v[s][c]`` for every ``c``.
    """
    if m.quiver != n.quiver:
        raise QuiverMismatch("hom_dim needs representations over the same quiver")
    q = m.quiver
    # phi_v has shape (n.dims[v], m.dims[v]), row-major from offset[v]
    offset = {}
    nvars = 0
    for v in q.vertices:
        offset[v] = nvars
        nvars += n.dims[v] * m.dims[v]
    if nvars == 0:
        return 0
    rows = []
    for k, (u, v) in enumerate(q.arrows):
        m_nonzeros, n_nonzeros = m.nonzeros[k], n.nonzeros[k]
        if not (m_nonzeros or n_nonzeros):
            continue
        nu, mu, mv = n.dims[u], m.dims[u], m.dims[v]
        ou, ov = offset[u], offset[v]
        eqs = {}  # r * mv + c -> row of the equation at entry (r, c)
        for s, c, coef in m_nonzeros:
            for r in range(nu):
                eqs.setdefault(r * mv + c, {})[ou + r * mu + s] = coef
        for r, s, coef in n_nonzeros:
            for c in range(mv):
                row = eqs.setdefault(r * mv + c, {})
                col = ov + s * mv + c
                row[col] = row.get(col, 0) - coef  # a loop (u == v) can hit a column twice
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


def euler_form(q: Quiver, d, e) -> int:
    """Euler pairing sum(d_v e_v) - sum over arrows u->v of d_v e_u.

    ``d`` and ``e`` may omit vertices (dimension 0) but must not name
    any outside ``q``.  The arrow term uses the same right-module
    convention as Rep matrices; it is exactly the convention that makes
    ``ext1_dim(s_i, s_j)`` equal the number of arrows from j to i.
    """
    dd = dict.fromkeys(q.vertices, 0)
    ee = dict.fromkeys(q.vertices, 0)
    for given, full in ((dict(d), dd), (dict(e), ee)):
        for key in given:
            if key not in full:
                raise QuiverMismatch(f"dimension vector mentions unknown vertex {key!r}")
        full.update(given)
    return _euler(q, dd, ee)


def hom_ext1(m: Rep, n: Rep) -> tuple:
    """(dim Hom(m, n), dim Ext^1(m, n)) from one solve; Ext^1 is hom - euler."""
    if m.quiver != n.quiver:
        raise QuiverMismatch("Ext^1 needs representations over the same quiver")
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
