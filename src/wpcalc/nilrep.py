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
Nilpotency is enforced when a Rep is constructed.

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
    ``nonzeros[k]`` lists its nonzero entries as ``(i, j, entry)``.
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
            if nrows == 0 or ncols == 0:
                m = []
            elif not m:
                m = linalg.zero_matrix(nrows, ncols)
            elif len(m) != nrows or any(len(r) != ncols for r in m):
                raise ValueError(f"matrix for arrow ({u!r},{v!r}) must be {nrows}x{ncols}")
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

    def _total_action(self):
        """The sum of all arrow actions as one endomorphism of the total space."""
        n = self.total_dim()
        offset = {}
        pos = 0
        for v in self.quiver.vertices:
            offset[v] = pos
            pos += self.dims[v]
        big = linalg.zero_matrix(n, n)
        for (u, v), nonzeros in zip(self.quiver.arrows, self.nonzeros):
            for i, j, x in nonzeros:
                big[offset[u] + i][offset[v] + j] += x
        return big

    def _is_nilpotent(self) -> bool:
        """T^n = 0 for the total action T on the n-dimensional total space.

        The check runs on d·T, with d the lcm of T's denominators, which
        is nilpotent exactly when T is; squaring reaches an exponent
        >= n in about log2(n) products.
        """
        n = self.total_dim()
        t = self._total_action()
        d = lcm(*[x.denominator for row in t for x in row])
        if d > 1:
            t = [[x.numerator * (d // x.denominator) for x in row] for row in t]
        exponent = 1
        while not linalg.is_zero_matrix(t):
            if exponent >= n:
                return False
            t = linalg.mat_mul(t, t)
            exponent *= 2
        return True


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


def euler_form(q: Quiver, d, e) -> int:
    """Euler pairing sum(d_v e_v) - sum over arrows u->v of d_v e_u.

    The arrow term uses the same right-module convention as Rep matrices;
    it is exactly the convention that makes ``ext1_dim(s_i, s_j)`` equal
    the number of arrows from j to i.
    """
    dd = dict(d)
    ee = dict(e)
    vertices = set(q.vertices)
    for key in list(dd) + list(ee):
        if key not in vertices:
            raise QuiverMismatch(f"dimension vector mentions unknown vertex {key!r}")
    total = sum(dd.get(v, 0) * ee.get(v, 0) for v in q.vertices)
    for (u, v) in q.arrows:
        total -= dd.get(v, 0) * ee.get(u, 0)
    return total


def hom_ext1(m: Rep, n: Rep) -> tuple:
    """(dim Hom(m, n), dim Ext^1(m, n)) from one solve; Ext^1 is hom - euler."""
    if m.quiver != n.quiver:
        raise QuiverMismatch("Ext^1 needs representations over the same quiver")
    hom = hom_dim(m, n)
    defect = hom - euler_form(m.quiver, dim_vector(m), dim_vector(n))
    if defect < 0:
        raise NonNegativityViolation(
            f"negative Ext^1 defect {defect}; matrix/Euler conventions are out of sync"
        )
    return hom, defect


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1(m, n) in the nilpotent module category, as hom - euler."""
    return hom_ext1(m, n)[1]
