"""The graded model of a weighted projective line.

Sheaf classes are line bundles O(lam) for lam in the grading group, and
indecomposable torsion arcs: at a weighted point x_i the torsion
category is a rank r_i tube whose simples are S_{i,j} (j mod r_i, with
tau S_{i,j} = S_{i,j-1}); at a user-declared ordinary point it is a rank
1 tube.  S_{i,j} is the cokernel of O((j-1)x_i) -> O(j x_i), which makes
the top of O(lam) at x_i the simple S_{i, b_i(lam)}.

Ext^1 is Serre-dual to a Hom: ``Ext^1(f, g) = Hom(g, tau f)``, with tau
the shift by omega on bundles and the tube translate on torsion.
``hom_ext`` reads both numbers off integers, one closed form per kind
of pair, and builds no tau f, arc or grading (no lgroup call); its
docstring lists the forms, and ``_validate`` says how a class's kind is
found.  ``tau_sheaf`` shifts a bundle by ``lgroup.omega`` and lowers a
torsion top by one; its answers are normal forms.

The twist sigma at a point adds the point's generator to line-bundle
gradings and acts as tau^{-1} on torsion at that point; its w(x)-th
power c adds c-bar to gradings and fixes all torsion classes.
"""

import re
from bisect import bisect_left
from enum import Enum
from math import comb
from operator import floordiv, sub
from typing import NamedTuple

from . import lgroup
from .errors import (
    ModelMismatch,
    NotExceptionalTorsion,
    NotVertexLike,
    ParseError,
    UnknownPoint,
    check_digit_runs,
)
from .lgroup import LElement, Weights
from .tube import HomExt
from .tube import cycle_dims as tube_dims

_POINT_X = re.compile(r"x(\d+)")  # x<i> addresses the weighted point x_i


class _WplDataFields(NamedTuple):
    weights: Weights
    ordinary: tuple  # declared ordinary-point labels, weight 1


class WplData(_WplDataFields):
    __slots__ = ()

    def __new__(cls, weights, ordinary=()):
        if not isinstance(weights, Weights):
            weights = Weights(weights)
        # parse_sheaf strips T(...) labels, so a padded label could not be named
        labels = tuple(sorted(str(y).strip() for y in ordinary))
        if len(set(labels)) != len(labels):
            raise ParseError(f"duplicate ordinary labels in {labels}")
        for y in labels:
            check_digit_runs(y)  # a T(...) literal naming y would be refused
            if not y:
                raise ParseError("empty ordinary label")
            if y.isdigit() or _POINT_X.fullmatch(y):
                raise ParseError(
                    f"ordinary label {y!r} clashes with weighted-point addressing"
                )
            if ")" in y:
                raise ParseError(f"ordinary label {y!r} contains ')', which ends a T(...) literal")
        return tuple.__new__(cls, (weights, labels))

    def weight_of(self, i: int) -> int:
        if not 1 <= i <= self.weights.p:
            raise UnknownPoint(f"no weighted point x{i}")
        return self.weights.r[i - 1]


class LineBundle(NamedTuple):
    lam: LElement

    def __str__(self):
        return f"O({lgroup.format_element(self.lam)})"


class TorsionW(NamedTuple):
    """Indecomposable torsion arc at weighted point x_i, top simple S_{i,top}."""

    i: int
    top: int
    length: int

    def __str__(self):
        base = f"S({self.i},{self.top})"
        return base if self.length == 1 else f"{base}[{self.length}]"


class TorsionO(NamedTuple):
    """Indecomposable torsion arc of the given length at an ordinary point."""

    y: str
    length: int

    def __str__(self):
        base = f"T({self.y})"
        return base if self.length == 1 else f"{base}[{self.length}]"


SheafClass = LineBundle | TorsionW | TorsionO


def _validate(w: WplData, f: SheafClass) -> SheafClass:
    """f with its top in 0..r_i - 1, of exactly one of the three kinds.

    One dispatch on ``type(f)`` by identity; a subclass instance is read
    as the kind it derives from, so callers dispatch the same way.  Reads
    the weights tuple itself: hom_ext validates every pair, and a valid
    class needs neither Weights.p nor weight_of, which only raises.
    """
    kind = type(f)
    if kind is LineBundle:
        rs = w.weights.r
        b = f[0].b
        if len(b) != len(rs):
            raise ModelMismatch(
                f"a line bundle grading over weights {rs} needs "
                f"p = {len(rs)} coordinates, got {len(b)}"
            )
        return f
    if kind is TorsionW:
        rs = w.weights.r
        i, top, length = f
        if type(i) is not int or type(top) is not int or type(length) is not int:
            raise ModelMismatch(f"torsion index, top and length must be integers: {f!r}")
        # never index with i <= 0, which would read a weight from the end
        r = rs[i - 1] if 0 < i <= len(rs) else w.weight_of(i)
        if length < 1:
            raise ModelMismatch("torsion length must be >= 1")
        return f if 0 <= top < r else tuple.__new__(TorsionW, (i, top % r, length))
    if kind is TorsionO:
        y, length = f
        if not isinstance(y, str):
            raise ModelMismatch(f"ordinary point label must be a string: {f!r}")
        labels = w.ordinary  # sorted, so a bisection finds y
        k = bisect_left(labels, y)
        if k == len(labels) or labels[k] != y:
            raise UnknownPoint(f"ordinary point {y!r} was not declared")
        if type(length) is not int:
            raise ModelMismatch(f"torsion length must be an integer: {f!r}")
        if length < 1:
            raise ModelMismatch("torsion length must be >= 1")
        return f
    for kind in (LineBundle, TorsionW, TorsionO):
        if isinstance(f, kind):
            return _validate(w, tuple.__new__(kind, f))
    raise ModelMismatch(f"not a sheaf class: {f!r}")


def rank_of(f: SheafClass) -> int:
    return 1 if isinstance(f, LineBundle) else 0


def is_sphere_like(w: WplData, f: SheafClass) -> bool:
    """Torsion arc whose length equals the weight of its point (1 at an ordinary point)."""
    f = _validate(w, f)
    if isinstance(f, TorsionW):
        return f.length == w.weights.r[f.i - 1]
    return isinstance(f, TorsionO) and f.length == 1


def tau_sheaf(w: WplData, f: SheafClass) -> SheafClass:
    """Serre translate: grading shift by omega on bundles, tube tau on torsion."""
    f = _validate(w, f)
    if isinstance(f, LineBundle):
        return LineBundle(lgroup.add(w.weights, f.lam, lgroup.omega(w.weights)))
    if isinstance(f, TorsionW):
        return _validate(w, TorsionW(f.i, f.top - 1, f.length))
    return f


def hom_ext(w: WplData, f: SheafClass, g: SheafClass) -> HomExt:
    """(dim Hom(f, g), dim Ext^1(f, g)), read off integers by the kinds of the pair.

    The kinds are ``type(f)`` and ``type(g)``, compared by identity after
    ``_validate``.  Fields are read by unpacking the tuples, and each
    answer is built by ``tuple.__new__(HomExt, ...)``, which skips the
    NamedTuple's Python-level ``__new__``.  Torsion at two distinct points
    has neither Homs nor Exts; the other kinds are:

    * O(lam) to O(mu): with ``l = mu.a - lam.a + sum((mu.b_i - lam.b_i) // r_i)``,
      the c-coefficient of the normal form of mu - lam, Hom is ``l+1`` if
      ``l >= 0`` and Ext^1 is ``-l-1`` if ``l <= -2``.  Floor division does
      the carry, so this is exact on raw (uncarried) gradings too, and
      ``(x + r - 1) // r == -(-x // r)`` makes the l of Hom(O(mu), O(lam+omega))
      exactly ``-l-2``;
    * line bundle to torsion: Hom is the number of the arc's composition
      factors that are the top of the bundle, i.e. factors S_{i,j} with
      ``j = b_i(lam) mod r_i`` (every factor at an ordinary point).  With
      ``s = top - b_i`` that is ``s // r_i - (s - length) // r_i``, a
      difference of two floor quotients as in ``cycle_dims``;
    * torsion to line bundle: Ext^1 is the same count against the arc tau f,
      whose top is one lower, so ``s = top - 1 - b_i``;
    * torsion to torsion at a common point: tube arithmetic, one
      :func:`wpcalc.tube.cycle_dims` call for Hom and Ext^1 together.
    """
    f = _validate(w, f)
    g = _validate(w, g)
    kf, kg = type(f), type(g)
    if kf is LineBundle:
        (lam,) = f
        if kg is LineBundle:
            (mu,) = g
            ell = mu.a - lam.a + sum(map(floordiv, map(sub, mu.b, lam.b), w.weights.r))
            return tuple.__new__(HomExt, (ell + 1 if ell >= 0 else 0, -ell - 1 if ell <= -2 else 0))
        if kg is TorsionO:
            return tuple.__new__(HomExt, (g.length, 0))
        i, top, length = g
        r, s = w.weights.r[i - 1], top - lam.b[i - 1]
        return tuple.__new__(HomExt, (s // r - (s - length) // r, 0))
    if kg is LineBundle:  # Ext^1(f, g) = Hom(g, tau f), tau f's top is f.top - 1
        if kf is TorsionO:
            return tuple.__new__(HomExt, (0, f.length))
        i, top, length = f
        r, s = w.weights.r[i - 1], top - 1 - g[0].b[i - 1]
        return tuple.__new__(HomExt, (0, s // r - (s - length) // r))
    if kf is kg and f[0] == g[0]:  # torsion at one point, x_i or an ordinary label
        if kf is TorsionW:
            (i, top, lx), (_, top_g, ly) = f, g
            return tube_dims(w.weights.r[i - 1], top_g - top, lx, ly)
        return tube_dims(1, 0, f.length, g.length)
    return tuple.__new__(HomExt, (0, 0))  # torsion at two distinct points


def euler(w: WplData, f: SheafClass, g: SheafClass) -> int:
    he = hom_ext(w, f, g)
    return he.hom - he.ext1


# -- twists and tops -----------------------------------------------------------


def _resolve_point(w: WplData, point):
    """A point is a weighted index (int or 'x<i>') or an ordinary label.

    Returns the index i of x_i as an int, or the ordinary label as a str.
    """
    if not isinstance(point, int):
        label = str(point).strip()
        check_digit_runs(label)
        m = _POINT_X.fullmatch(label)
        if not m:
            if label in w.ordinary:
                return label
            raise UnknownPoint(f"unknown point {point!r}")
        point = int(m.group(1))
    w.weight_of(point)  # raises on an index out of range
    return point


def sigma_twist(w: WplData, point, f: SheafClass) -> SheafClass:
    """One twist step at a point: grading +x_i (or +c at an ordinary point)
    on bundles, tau^{-1} on torsion at the same point, identity elsewhere."""
    point = _resolve_point(w, point)
    f = _validate(w, f)
    if isinstance(f, LineBundle):
        step = lgroup.cbar(w.weights) if type(point) is str else lgroup.xbar(w.weights, point)
        return LineBundle(lgroup.add(w.weights, f.lam, step))
    if isinstance(f, TorsionW) and f.i == point:  # an ordinary label is no index
        return _validate(w, TorsionW(f.i, f.top + 1, f.length))
    return f


def c_twist(w: WplData, point, f: SheafClass) -> SheafClass:
    """sigma iterated w(point) times: +c on gradings, identity on torsion."""
    _resolve_point(w, point)
    f = _validate(w, f)
    if isinstance(f, LineBundle):
        return LineBundle(lgroup.add(w.weights, f.lam, lgroup.cbar(w.weights)))
    return f


def top_m(w: WplData, point, lam: LElement, m: int) -> SheafClass:
    """Class of the m-step top of O(lam) at the point.

    At a weighted point x_i it is the length-m torsion arc whose top
    simple is S_{i, b_i(lam)}; at an ordinary point, the length-m arc.
    """
    if m < 1:
        raise ModelMismatch("top_m needs m >= 1")
    _validate(w, LineBundle(lam))
    point = _resolve_point(w, point)
    if type(point) is str:
        return TorsionO(point, m)
    return _validate(w, TorsionW(point, lam.b[point - 1], m))


# -- families ------------------------------------------------------------------
# A family is a plain sequence of sheaf classes (a list or tuple: it is read
# more than once, so not an iterator).


def _arm_bundles(ws: Weights, arms) -> tuple:
    """O, then O(b x_i) for 1 <= b <= arms[i-1], point by point."""
    bundles = [LineBundle(lgroup.zero(ws))]
    for i in range(1, ws.p + 1):
        xi = lgroup.xbar(ws, i)
        bundles.extend(LineBundle(lgroup.scale(ws, b, xi)) for b in range(1, arms[i - 1] + 1))
    return tuple(bundles)


def canonical_collection(w: WplData) -> tuple:
    """O; O(b x_i) for each weighted point and 1 <= b <= r_i - 1; O(c)."""
    ws = w.weights
    return _arm_bundles(ws, [r - 1 for r in ws.r]) + (LineBundle(lgroup.cbar(ws)),)


def is_exceptional_sequence(w: WplData, family) -> bool:
    """Each object exceptional, all backward Homs and Exts vanish."""
    for k, f in enumerate(family):
        if hom_ext(w, f, f) != (1, 0):
            return False
        for earlier in family[:k]:
            if hom_ext(w, f, earlier) != (0, 0):
                return False
    return True


def _ext_rows(w: WplData, family):
    """Ext^1 rows of a vertex-like family, None for any other family.

    One ``hom_ext`` per ordered pair: vertex-like reads the table's Homs
    (the identity matrix), the Ext-quiver its Ext^1 entries.
    """
    table = [[hom_ext(w, f, g) for g in family] for f in family]
    if any(he.hom != (i == j) for i, row in enumerate(table) for j, he in enumerate(row)):
        return None
    return [[he.ext1 for he in row] for row in table]


def is_vertex_like(w: WplData, family) -> bool:
    """Scalar endomorphisms, no Homs between distinct members.

    Ext^1 is unrestricted; higher Homs vanish automatically because all
    classes lie in the heart of a hereditary category.
    """
    return _ext_rows(w, family) is not None


def ext_quiver_of(w: WplData, family) -> "Quiver":
    """Ext-quiver of a vertex-like family (labels are class literals,
    distinct because equal labels are equal classes, which have Homs)."""
    rows = _ext_rows(w, family)
    if rows is None:
        raise NotVertexLike("collection is not vertex-like")
    from .quiver import ext_quiver

    return ext_quiver([str(f) for f in family], rows)


# -- perpendicular reduction, counting, classification --------------------------


class PerpTorsionResult(NamedTuple):
    new_weights: Weights
    dropped_point: bool  # the support point became ordinary (weight 1)
    line_generators: tuple  # ambient classes generating the A_{m-1} factor
    tube_generators: tuple  # ambient classes generating the reduced tube at x_i


def perp_exceptional_torsion(w: WplData, e: SheafClass) -> PerpTorsionResult:
    """Weight reduction at the support of an exceptional torsion arc.

    The perpendicular of a length-m exceptional arc at x_i is the model
    with r_i replaced by r_i - m (the point becomes ordinary when that is
    1) times A_{m-1}.  The generators are the ambient simples of
    :func:`wpcalc.serial.perp_arc`; the line chain is listed from the
    top down.  ``serial`` is imported here, so the rest of the sheaf
    model loads without it.
    """
    e = _validate(w, e)
    if not isinstance(e, TorsionW):
        raise NotExceptionalTorsion("perpendicular reduction needs weighted torsion")
    rs = w.weights.r
    r, m = rs[e.i - 1], e.length
    if m >= r:
        raise NotExceptionalTorsion(
            f"arc of length {m} at a weight-{r} point is not exceptional"
        )
    dropped = r - m == 1
    new_r = rs[: e.i - 1] + (() if dropped else (r - m,)) + rs[e.i :]
    from .serial import Arc, cycle, perp_arc

    tube, chain = perp_arc(Arc(cycle(r), e.top, m)).factors

    def classes(arcs):
        return tuple(TorsionW(e.i, a.top, a.length) for a in arcs)

    return PerpTorsionResult(
        Weights(new_r),
        dropped,
        classes(reversed(chain.simple_images)),
        classes(tube.simple_images),
    )


def count_big(w: WplData) -> int:
    """Product over weighted points of half the central binomial coefficient."""
    total = 1
    for r in w.weights.r:
        total *= comb(2 * r, r) // 2
    return total


class ClassifyKind(Enum):
    BIG = "big"
    QUIVER_LIKE = "quiver_like"
    UNDETERMINED = "undetermined"


class Classification(NamedTuple):
    kind: ClassifyKind
    witnesses: tuple | None = None  # (bundle, sphere-like) for BIG, else None
    quiver: "Quiver | None" = None


def classify_generated(w: WplData, family) -> Classification:
    """Sufficient-criteria classification of the subcategory generated by
    a family.

    Fires, in order: big (a positive-rank class alongside a sphere-like
    torsion class, the pair being the witnesses); quiver-like (the family
    is vertex-like); otherwise undetermined.  Never asserts a negative.
    The torsion/torsion-free split is no third criterion: Hom from torsion
    to a bundle is 0, so vertex-like parts with no Homs from the bundles
    to the torsion make a vertex-like family.  A repeat generates nothing
    new, so the criteria see each class once, under the first member
    given for it (its vertex label).
    """
    first = {}
    for f in family:
        first.setdefault(_validate(w, f), f)
    if not first:
        raise ModelMismatch("classify_generated needs a non-empty collection")
    bundles = [f for f in first if rank_of(f) > 0]
    spheres = [f for f in first if is_sphere_like(w, f)]
    if bundles and spheres:
        return Classification(ClassifyKind.BIG, witnesses=(bundles[0], spheres[0]))
    try:
        quiver = ext_quiver_of(w, list(first.values()))
        return Classification(ClassifyKind.QUIVER_LIKE, quiver=quiver)
    except NotVertexLike:
        return Classification(ClassifyKind.UNDETERMINED)


def star_collection(w: WplData, tops) -> tuple:
    """The star subcollection of line bundles and its dual torsion family.

    ``tops[i-1] = b_i`` with 0 <= b_i <= r_i - 1.  Returns (line bundles
    ``{O, O(b x_i)}``, dual family ``{S_{i,b_i}, ..., S_{i,1}}`` arm by
    arm with O appended) -- the dual family is vertex-like and its
    Ext-quiver is the star with center O and arms of the given lengths.
    """
    ws = w.weights
    tops = list(tops)
    if len(tops) != ws.p:
        raise ModelMismatch(f"need {ws.p} arm lengths, got {len(tops)}")
    for b, r in zip(tops, ws.r):
        if not 0 <= b <= r - 1:
            raise ModelMismatch(f"arm length {b} out of range for weight {r}")
    dual = []
    for i in range(1, ws.p + 1):
        dual.extend(TorsionW(i, j % ws.r[i - 1], 1) for j in range(tops[i - 1], 0, -1))
    bundles = _arm_bundles(ws, tops)
    return bundles, (*dual, bundles[0])


# -- literals ------------------------------------------------------------------

_SHEAF_O = re.compile(r"O\((.*)\)\s*")
_SHEAF_S = re.compile(r"S\((\d+),(-?\d+)\)(?:\[(\d+)\])?\s*")
_SHEAF_T = re.compile(r"T\(([^)]+)\)(?:\[(\d+)\])?\s*")


def parse_sheaf(w: WplData, text: str) -> SheafClass:
    """Parse ``O(<element>)``, ``S(i,j)``, ``S(i,j)[l]``, ``T(y)[l]`` literals."""
    check_digit_runs(text)
    s = text.strip()
    if m := _SHEAF_O.fullmatch(s):
        return LineBundle(lgroup.parse_element(w.weights, m.group(1)))
    if m := _SHEAF_S.fullmatch(s):
        f = TorsionW(int(m.group(1)), int(m.group(2)), int(m.group(3) or 1))
    elif m := _SHEAF_T.fullmatch(s):
        f = TorsionO(m.group(1).strip(), int(m.group(2) or 1))
    else:
        raise ParseError(f"bad sheaf literal {text!r}")
    try:
        return _validate(w, f)
    except (UnknownPoint, ModelMismatch) as exc:
        raise ParseError(f"bad torsion literal {text!r}: {exc}") from exc
