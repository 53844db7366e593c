"""The graded model of a weighted projective line.

Sheaf classes are line bundles O(lam) for lam in the grading group, and
indecomposable torsion arcs: at a weighted point x_i the torsion
category is a rank r_i tube whose simples are S_{i,j} (j mod r_i, with
tau S_{i,j} = S_{i,j-1}); at a user-declared ordinary point it is a rank
1 tube.  S_{i,j} is the cokernel of O((j-1)x_i) -> O(j x_i), which makes
the top of O(lam) at x_i the simple S_{i, b_i(lam)}.

Hom dimensions have three closed forms, each straight from the graded
picture; every other pair of classes has no Homs:

* O(lam) to O(mu): ``l+1`` if ``l >= 0`` else 0, where
  ``l = mu.a - lam.a + sum((mu.b_i - lam.b_i) // r_i)`` is the
  c-coefficient of the normal form of mu - lam; floor division does the
  carry, so the form is exact on raw (uncarried) gradings too;
* line bundle to torsion: the number of the arc's composition factors
  that are the top of the bundle, i.e. factors S_{i,j} with
  ``j = b_i(lam) mod r_i`` (every factor at an ordinary point);
* torsion to torsion at a common point: tube arithmetic, one
  :func:`wpcalc.serial.dims` call for Hom and Ext^1 together.

Ext^1 is Serre-dual to a Hom: ``Ext^1(f, g) = Hom(g, tau f)``, with tau
the shift by omega on bundles and the tube translate on torsion.  Inside
``hom_ext`` tau is left uncarried, so Hom/Ext^1 make no lgroup call;
``tau_sheaf`` carries it.

The twist sigma at a point adds the point's generator to line-bundle
gradings and acts as tau^{-1} on torsion at that point; its w(x)-th
power c adds c-bar to gradings and fixes all torsion classes.
"""

import re
from enum import Enum
from math import comb
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
from .serial import Arc, ArcClass, HomExt, _count_congruent, classify_arc, cycle, perp_arc
from .serial import dims as tube_dims

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
    if isinstance(f, LineBundle):
        if len(f.lam.b) != w.weights.p:
            raise ModelMismatch(f"{f} does not live over weights {w.weights.r}")
        return f
    if isinstance(f, TorsionW):
        r = w.weight_of(f.i)
        if f.length < 1:
            raise ModelMismatch("torsion length must be >= 1")
        return f if 0 <= f.top < r else TorsionW(f.i, f.top % r, f.length)
    if isinstance(f, TorsionO):
        if f.y not in w.ordinary:
            raise UnknownPoint(f"ordinary point {f.y!r} was not declared")
        if f.length < 1:
            raise ModelMismatch("torsion length must be >= 1")
        return f
    raise ModelMismatch(f"not a sheaf class: {f!r}")


def rank_of(f: SheafClass) -> int:
    return 1 if isinstance(f, LineBundle) else 0


def _tube_arc(w: WplData, f) -> Arc:
    if isinstance(f, TorsionW):
        return Arc(cycle(w.weight_of(f.i)), f.top, f.length)
    return Arc(cycle(1), 0, f.length)


def is_sphere_like(w: WplData, f: SheafClass) -> bool:
    """Torsion arc whose length equals the weight of its point (its tube's rank)."""
    f = _validate(w, f)
    return not isinstance(f, LineBundle) and classify_arc(_tube_arc(w, f)) is ArcClass.SPHERE_LIKE


def _same_point(f, g) -> bool:
    if isinstance(f, TorsionW) and isinstance(g, TorsionW):
        return f.i == g.i
    if isinstance(f, TorsionO) and isinstance(g, TorsionO):
        return f.y == g.y
    return False


def _tau(w: WplData, f: SheafClass) -> SheafClass:
    """Serre translate of a validated class, with top and grading uncarried."""
    if isinstance(f, LineBundle):
        lam = f.lam
        return LineBundle(LElement(lam.a - 2, tuple(b + r - 1 for b, r in zip(lam.b, w.weights.r))))
    if isinstance(f, TorsionW):
        return TorsionW(f.i, f.top - 1, f.length)
    return f


def tau_sheaf(w: WplData, f: SheafClass) -> SheafClass:
    """Serre translate: grading shift by omega on bundles, tube tau on torsion."""
    f = _tau(w, _validate(w, f))
    if isinstance(f, LineBundle):
        return LineBundle(lgroup.normalize(w.weights, f.lam.a, f.lam.b))
    return _validate(w, f)


def _hom(w: WplData, f: SheafClass, g: SheafClass) -> int:
    """dim Hom(f, g) unless both are torsion at one point; raw gradings and tops are fine."""
    if not isinstance(f, LineBundle):
        return 0
    if isinstance(g, LineBundle):
        lam, mu = f.lam, g.lam
        ell = mu.a - lam.a + sum((y - x) // r for x, y, r in zip(lam.b, mu.b, w.weights.r))
        return ell + 1 if ell >= 0 else 0
    if isinstance(g, TorsionO):
        return g.length
    return _count_congruent(g.top - g.length + 1, g.top, f.lam.b[g.i - 1], w.weights.r[g.i - 1])


def hom_ext(w: WplData, f: SheafClass, g: SheafClass) -> HomExt:
    """(dim Hom(f, g), dim Ext^1(f, g)), the latter as Hom(g, tau f)."""
    f = _validate(w, f)
    g = _validate(w, g)
    if _same_point(f, g):
        return tube_dims(_tube_arc(w, f), _tube_arc(w, g))
    # a torsion g maps only into torsion at its own point, handled above
    ext1 = _hom(w, g, _tau(w, f)) if isinstance(g, LineBundle) else 0
    return HomExt(_hom(w, f, g), ext1)


def euler(w: WplData, f: SheafClass, g: SheafClass) -> int:
    he = hom_ext(w, f, g)
    return he.hom - he.ext1


# -- twists and tops -----------------------------------------------------------


def _resolve_point(w: WplData, point):
    """A point is a weighted index (int or 'x<i>') or an ordinary label."""
    if not isinstance(point, int):
        label = str(point).strip()
        check_digit_runs(label)
        m = _POINT_X.fullmatch(label)
        if not m:
            if label in w.ordinary:
                return ("o", label)
            raise UnknownPoint(f"unknown point {point!r}")
        point = int(m.group(1))
    w.weight_of(point)  # raises on an index out of range
    return ("w", point)


def sigma_twist(w: WplData, point, f: SheafClass) -> SheafClass:
    """One twist step at a point: grading +x_i (or +c at an ordinary point)
    on bundles, tau^{-1} on torsion at the same point, identity elsewhere."""
    kind, key = _resolve_point(w, point)
    f = _validate(w, f)
    if isinstance(f, LineBundle):
        step = lgroup.xbar(w.weights, key) if kind == "w" else lgroup.cbar(w.weights)
        return LineBundle(lgroup.add(w.weights, f.lam, step))
    if kind == "w" and isinstance(f, TorsionW) and f.i == key:
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
    kind, key = _resolve_point(w, point)
    if kind == "w":
        return _validate(w, TorsionW(key, lam.b[key - 1], m))
    return TorsionO(key, m)


# -- collections ---------------------------------------------------------------


class _CollectionFields(NamedTuple):
    objects: tuple  # ordered SheafClass tuple


class Collection(_CollectionFields):
    __slots__ = ()

    def __new__(cls, objects):
        return tuple.__new__(cls, (tuple(objects),))

    def labels(self):
        return tuple(str(f) for f in self.objects)


def canonical_collection(w: WplData) -> Collection:
    """O; O(b x_i) for each weighted point and 1 <= b <= r_i - 1; O(c)."""
    ws = w.weights
    objs = [LineBundle(lgroup.zero(ws))]
    for i in range(1, ws.p + 1):
        xi = lgroup.xbar(ws, i)
        objs.extend(LineBundle(lgroup.scale(ws, b, xi)) for b in range(1, ws.r[i - 1]))
    objs.append(LineBundle(lgroup.cbar(ws)))
    return Collection(objs)


def is_exceptional_sequence(w: WplData, c: Collection) -> bool:
    """Each object exceptional, all backward Homs and Exts vanish."""
    objs = c.objects
    for k, f in enumerate(objs):
        if hom_ext(w, f, f) != (1, 0):
            return False
        for earlier in objs[:k]:
            if hom_ext(w, f, earlier) != (0, 0):
                return False
    return True


def is_vertex_like(w: WplData, c: Collection) -> bool:
    """Scalar endomorphisms, no Homs between distinct members.

    Ext^1 is unrestricted; higher Homs vanish automatically because all
    classes lie in the heart of a hereditary category.
    """
    objs = c.objects
    for k, f in enumerate(objs):
        if hom_ext(w, f, f).hom != 1:
            return False
        for g in objs[k + 1:]:
            if hom_ext(w, f, g).hom != 0 or hom_ext(w, g, f).hom != 0:
                return False
    return True


def ext_quiver_of(w: WplData, c: Collection) -> "Quiver":
    """Ext-quiver of a vertex-like collection (labels are class literals,
    distinct because equal labels are equal classes, which have Homs)."""
    from .quiver import ExtMatrix, ext_quiver

    if not is_vertex_like(w, c):
        raise NotVertexLike("collection is not vertex-like")
    rows = [[hom_ext(w, f, g).ext1 for g in c.objects] for f in c.objects]
    return ext_quiver(ExtMatrix(c.labels(), rows))


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
    top down.
    """
    e = _validate(w, e)
    if not isinstance(e, TorsionW):
        raise NotExceptionalTorsion("perpendicular reduction needs weighted torsion")
    arc = _tube_arc(w, e)
    r, m = arc.cat.rank, e.length
    if classify_arc(arc) is not ArcClass.EXCEPTIONAL:
        raise NotExceptionalTorsion(
            f"arc of length {m} at a weight-{r} point is not exceptional"
        )
    new_r = list(w.weights.r)
    dropped = r - m == 1
    if dropped:
        del new_r[e.i - 1]
    else:
        new_r[e.i - 1] = r - m
    tube, chain = perp_arc(arc).factors

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


def classify_generated(w: WplData, g: Collection) -> Classification:
    """Sufficient-criteria classification of the subcategory generated by g.

    Fires, in order: big (a positive-rank class alongside a sphere-like
    torsion class, the pair being the witnesses); quiver-like (the family
    is vertex-like); otherwise undetermined.  Never asserts a negative.
    The torsion/torsion-free split is no third criterion: Hom from torsion
    to a bundle is 0, so vertex-like parts with no Homs from the bundles
    to the torsion make a vertex-like family.
    """
    objs = [_validate(w, f) for f in g.objects]
    if not objs:
        raise ModelMismatch("classify_generated needs a non-empty collection")
    bundles = [f for f in objs if rank_of(f) > 0]
    spheres = [f for f in objs if is_sphere_like(w, f)]
    if bundles and spheres:
        return Classification(ClassifyKind.BIG, witnesses=(bundles[0], spheres[0]))
    if is_vertex_like(w, g):
        return Classification(ClassifyKind.QUIVER_LIKE, quiver=ext_quiver_of(w, g))
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
    bundles = [LineBundle(lgroup.zero(ws))]
    for i in range(1, ws.p + 1):
        xi = lgroup.xbar(ws, i)
        bundles.extend(LineBundle(lgroup.scale(ws, b, xi)) for b in range(1, tops[i - 1] + 1))
    dual = []
    for i in range(1, ws.p + 1):
        dual.extend(TorsionW(i, j % ws.r[i - 1], 1) for j in range(tops[i - 1], 0, -1))
    dual.append(LineBundle(lgroup.zero(ws)))
    return Collection(bundles), Collection(dual)


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
