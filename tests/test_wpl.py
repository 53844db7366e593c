import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from test_serial import expected_factor_quiver, left_mask_states
from wpcalc import lgroup, linalg, serial, wpl
from wpcalc.cli import main
from wpcalc.errors import (
    ModelMismatch,
    NotExceptionalTorsion,
    NotVertexLike,
    ParseError,
    UnknownPoint,
    UnknownVertex,
)
from wpcalc.lgroup import LElement, Weights
from wpcalc.quiver import Quiver, same_multigraph
from wpcalc.serial import cycle, enumerate_thick, shape_of_thick
from wpcalc.wpl import (
    ClassifyKind,
    LineBundle,
    TorsionO,
    TorsionW,
    WplData,
    c_twist,
    canonical_collection,
    classify_generated,
    count_big,
    euler,
    ext_quiver_of,
    hom_ext,
    is_exceptional_sequence,
    is_sphere_like,
    is_vertex_like,
    parse_sheaf,
    perp_exceptional_torsion,
    sigma_twist,
    star_collection,
    tau_sheaf,
    top_m,
)

W2222 = WplData(Weights([2, 2, 2, 2]))
W3333 = WplData(Weights([3, 3, 3, 3]))
W23 = WplData(Weights([2, 3]), ["y"])
WP1 = WplData(Weights([]), ["y", "z"])
# one class of every kind over W23, raw gradings and raw tops included
EVERY_KIND = (
    LineBundle(LElement(0, (0, 0))),
    LineBundle(LElement(-1, (1, 2))),
    LineBundle(LElement(2, (-3, 7))),
    TorsionW(1, 1, 1),
    TorsionW(1, 0, 3),
    TorsionW(2, 2, 2),
    TorsionW(2, -4, 5),
    TorsionO("y", 1),
    TorsionO("y", 2),
)


def O(w, text="0"):
    return LineBundle(lgroup.parse_element(w.weights, text))


def random_classes(w, rng, count):
    out = []
    for _ in range(count):
        kind = rng.randrange(3 if w.ordinary else 2)
        if kind == 0:
            a = rng.randint(-3, 3)
            b = [rng.randrange(r) for r in w.weights.r]
            out.append(LineBundle(lgroup.normalize(w.weights, a, b)))
        elif kind == 1 and w.weights.p:
            i = rng.randint(1, w.weights.p)
            r = w.weights.r[i - 1]
            out.append(TorsionW(i, rng.randrange(r), rng.randint(1, 2 * r)))
        else:
            if w.ordinary:
                out.append(TorsionO(rng.choice(w.ordinary), rng.randint(1, 4)))
            else:
                out.append(LineBundle(lgroup.zero(w.weights)))
    return out


class SubLineBundle(LineBundle):
    __slots__ = ()


class SubTorsionW(TorsionW):
    __slots__ = ()


class SubTorsionO(TorsionO):
    __slots__ = ()


# the models of the hom_ext pin: weighted and ordinary points, one weighted
# point only, four, and none
PIN_MODELS = (WplData(Weights([2, 3, 5]), ["y"]), WplData(Weights([7])), W2222, WP1)


def pin_classes(w, rng):
    """Seeded classes over w for the hom_ext pin, the invalid ones last.

    Gradings are raw (b_i in [-3 r_i, 3 r_i], a possibly negative), tops
    fall outside 0..r_i - 1, arcs reach length 10^6, and each kind the
    model has appears once as a subclass instance.  The invalid classes
    name point 0, -1 and p + 1, length 0, an undeclared label and the
    wrong grading length, or are no class at all.
    """
    rs, p = w.weights.r, w.weights.p
    valid = [
        LineBundle(LElement(rng.randint(-5, 5), tuple(rng.randint(-3 * r, 3 * r) for r in rs)))
        for _ in range(10)
    ]
    for i, r in enumerate(rs, start=1):
        for length in (1, rng.randint(2, 3 * r + 1), rng.randint(10, 10**6), 10**6):
            valid.append(TorsionW(i, rng.randint(-3 * r, 3 * r), length))
    for y in w.ordinary:
        valid += [TorsionO(y, length) for length in (1, rng.randint(2, 9), 10**6)]
    valid.append(SubLineBundle(LElement(-1, tuple(r + 1 for r in rs))))
    if p:
        valid.append(SubTorsionW(p, -1, rng.randint(1, 10**6)))
    if w.ordinary:
        valid.append(SubTorsionO(w.ordinary[0], rng.randint(1, 10**6)))
    invalid = [TorsionW(0, 0, 1), TorsionW(-1, 0, 1), TorsionW(p + 1, 0, 1), TorsionW(0, 0, 0)]
    if p:
        invalid.append(TorsionW(1, 0, 0))
    if w.ordinary:
        invalid.append(TorsionO(w.ordinary[0], 0))
    invalid += [
        TorsionO("nowhere", 1),
        TorsionO("nowhere", 0),
        LineBundle(LElement(0, (0,) * (p + 1))),
        LineBundle(LElement(0, (0,) * (p - 1))) if p else LineBundle(LElement(0, (0,))),
        "O(0)",
        None,
        (1, 0, 1),
        LElement(0, (0,) * p),
    ]
    return valid + invalid


def pin_table(w, classes):
    """hom_ext and euler on every ordered pair, or the error's type and message."""
    table = []
    for f, g in itertools.product(classes, repeat=2):
        try:
            he = hom_ext(w, f, g)
            assert type(he) is wpl.HomExt and he == (he.hom, he.ext1)
            table.append((tuple(he), euler(w, f, g)))
        except Exception as exc:  # noqa: BLE001
            table.append((type(exc).__name__, str(exc)))
    return table


def by_position(q):
    """The quiver with each vertex renamed to its position."""
    pos = {v: k for k, v in enumerate(q.vertices)}
    return Quiver(range(len(pos)), [(pos[s], pos[t]) for s, t in q.arrows])


def graded_euler_oracle(w, L, t):
    """Hom(L, t) as the graded Euler sum over t's composition factors.

    The simple S_{i,j} is the cokernel of O((j-1) x_i) -> O(j x_i), so
    chi(L, S_{i,j}) = chi(L, O(j x_i)) - chi(L, O((j-1) x_i)); at an
    ordinary point the step is c.  For a torsion t, Ext^1(L, t) = 0, so
    the sum is dim Hom(L, t).
    """
    if isinstance(t, TorsionO):
        step, tops = lgroup.cbar(w.weights), range(t.length)
    else:
        step, tops = lgroup.xbar(w.weights, t.i), range(t.top, t.top - t.length, -1)
    total = 0
    for j in tops:
        upper = LineBundle(lgroup.scale(w.weights, j, step))
        lower = LineBundle(lgroup.scale(w.weights, j - 1, step))
        total += euler(w, L, upper) - euler(w, L, lower)
    return total


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k, *rest)


def coordinate_ring_dim(w, d):
    """dim S_d of the model's graded coordinate ring (Geigle-Lenzing).

    S = k[X_1..X_t] / (X_j^{p_j} - X_2^{p_2} - j X_1^{p_1}, j >= 3), one
    generator per point: X_i of degree x_i and p_i = r_i at a weighted
    point, then one of degree c and p = 1 per ordinary point, padded with
    such generators to t >= 2.  For d = a c + sum b_i x_i in normal form a
    monomial of degree d has exponent b_i + r_i k_i at x_i and k at each
    degree-c generator, the k summing to a.  The relations are homogeneous
    of degree c, so S_d is those monomials modulo the span of the
    relations times the monomials of degree d - c.
    """
    ps = list(w.weights.r) + [1] * max(len(w.ordinary), 2 - w.weights.p)
    t = len(ps)
    b = list(d.b) + [0] * (t - w.weights.p)

    def monomials(a):
        if a < 0:
            return []
        return [tuple(e + p * k for e, p, k in zip(b, ps, ks)) for ks in _compositions(a, t)]

    def times(m, i):
        return m[:i] + (m[i] + ps[i],) + m[i + 1:]

    rows = [
        {times(m, j): 1, times(m, 1): -1, times(m, 0): -(j + 1)}
        for m in monomials(d.a - 1)
        for j in range(2, t)
    ]
    return len(monomials(d.a)) - linalg.rank(rows)


class TestModel:
    def test_ordinary_label_validation(self):
        with pytest.raises(ParseError):
            WplData(Weights([2]), ["x1"])
        with pytest.raises(ParseError):
            WplData(Weights([2]), ["17"])
        with pytest.raises(ParseError):
            WplData(Weights([2]), ["y", "y"])

    def test_ordinary_labels_are_stripped(self):
        # parse_sheaf strips the label inside T(...), so a declared label
        # is stripped too, and padding cannot declare a second point
        w = WplData(Weights([]), ["y", " z"])
        assert w.ordinary == ("y", "z")
        assert parse_sheaf(w, "T( z )") == TorsionO("z", 1)
        assert sigma_twist(w, " z ", TorsionO("z", 1)) == TorsionO("z", 1)
        with pytest.raises(ParseError):
            WplData(Weights([2]), ["y", "y "])
        with pytest.raises(ParseError):
            WplData(Weights([2]), [" "])

    def test_ordinary_label_lookup_bisects(self):
        # T(y) is validated by bisection in the sorted labels: one hom_ext
        # against 4,096 declared labels validates y twice, with at most
        # log2(4096) + 2 comparisons each, and checks f.y == g.y once; a
        # scan compares y once per label before it
        compared = []

        def counted(op):
            def compare(self, other):
                compared.append(other)
                return op(self, other)

            return compare

        class Label(str):
            __hash__ = str.__hash__
            __eq__, __ne__ = counted(str.__eq__), counted(str.__ne__)
            __lt__, __le__ = counted(str.__lt__), counted(str.__le__)
            __gt__, __ge__ = counted(str.__gt__), counted(str.__ge__)

        w = WplData(Weights([2, 3]), [f"y{k:04d}" for k in range(4096)])
        y = Label("y3001")
        assert hom_ext(w, TorsionO(y, 1), TorsionO(y, 2)) == (1, 1)
        assert 0 < len(compared) <= 2 * (12 + 2) + 1

    def test_parse_round_trip(self):
        for text in ("O(-c+x1+x2)", "S(1,1)", "S(2,2)[3]", "T(y)[2]", "O(0)"):
            f = parse_sheaf(W23, text)
            assert parse_sheaf(W23, str(f)) == f

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_sheaf(W23, "S(9,1)")
        with pytest.raises(ParseError):
            parse_sheaf(W23, "T(zz)")
        with pytest.raises(ParseError):
            parse_sheaf(W23, "Q(1)")

    def test_torsion_top_normalized(self):
        assert parse_sheaf(W3333, "S(1,3)") == TorsionW(1, 0, 1)


class TestValueTypes:
    """Reprs, hashing and immutability of the grading-group, quiver and
    sheaf value types."""

    def test_reprs(self):
        lam = lgroup.normalize(Weights((2, 3)), 1, [1, 2])
        q = Quiver([1, 2], [(1, 2)])
        classified = classify_generated(W23, [TorsionW(1, 1, 1), TorsionW(2, 1, 1)])
        reprs = [
            (Weights((2, 3)), "Weights(r=(2, 3))"),
            (lam, "LElement(a=1, b=(1, 2))"),
            (q, "Quiver(vertices=(1, 2), arrows=((1, 2),))"),
            (W23, "WplData(weights=Weights(r=(2, 3)), ordinary=('y',))"),
            (LineBundle(lam), "LineBundle(lam=LElement(a=1, b=(1, 2)))"),
            (TorsionW(1, 1, 2), "TorsionW(i=1, top=1, length=2)"),
            (TorsionO("y", 1), "TorsionO(y='y', length=1)"),
            (
                canonical_collection(WplData((2,))),
                "(LineBundle(lam=LElement(a=0, b=(0,))), "
                "LineBundle(lam=LElement(a=0, b=(1,))), LineBundle(lam=LElement(a=1, b=(0,))))",
            ),
            (
                perp_exceptional_torsion(WplData((3, 3)), TorsionW(1, 1, 1)),
                "PerpTorsionResult(new_weights=Weights(r=(2, 3)), dropped_point=False, "
                "line_generators=(), tube_generators=(TorsionW(i=1, top=1, length=2), "
                "TorsionW(i=1, top=2, length=1)))",
            ),
            (
                classified,
                "Classification(kind=<ClassifyKind.QUIVER_LIKE: 'quiver_like'>, witnesses=None, "
                "quiver=Quiver(vertices=('S(1,1)', 'S(2,1)'), arrows=()))",
            ),
        ]
        for obj, text in reprs:
            assert repr(obj) == text

    def test_equal_values_hash_equal(self):
        pairs = [
            (Weights([2, 3]), Weights(("2", 3))),
            (WplData((2, 3), ["z", "y"]), WplData(Weights((2, 3)), ("y", "z"))),
            (Quiver(range(2), [[0, 1]]), Quiver((0, 1), ((0, 1),))),
            (parse_sheaf(W23, "O(c+3x1)"), LineBundle(LElement(2, (1, 0)))),
            (parse_sheaf(W23, "S(2,4)[2]"), TorsionW(2, 1, 2)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    def test_mixed_sheaf_set_keeps_its_size(self):
        classes = [
            LineBundle(LElement(0, (0, 0))),
            LineBundle(LElement(1, (0, 0))),
            TorsionW(1, 0, 1),
            TorsionW(1, 0, 2),
            TorsionW(2, 0, 1),
            TorsionO("y", 1),
            TorsionO("y", 2),
        ]
        assert len(set(classes)) == len(classes)
        assert len(set(classes + [parse_sheaf(W23, str(f)) for f in classes])) == len(classes)

    def test_immutable(self):
        objs = [
            (Weights((2,)), "r"),
            (LElement(0, ()), "a"),
            (Quiver([1], []), "arrows"),
            (W23, "ordinary"),
            (LineBundle(LElement(0, ())), "lam"),
            (TorsionW(1, 0, 1), "top"),
            (TorsionO("y", 1), "length"),
            (perp_exceptional_torsion(W3333, TorsionW(1, 1, 1)), "dropped_point"),
            (classify_generated(W23, [TorsionW(1, 1, 1)]), "quiver"),
        ]
        for obj, field in objs:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: Weights([2, 1]), ParseError),
            (lambda: WplData([2, 3], ["y", "y"]), ParseError),
            (lambda: WplData([2], ["x2"]), ParseError),
            (lambda: Quiver([1, 1], []), UnknownVertex),
            (lambda: Quiver([1], [(1, 2)]), UnknownVertex),
            (lambda: WplData([2], [" "]), ParseError),  # empty once stripped
            # a label with ')' could not be named by a T(...) literal, nor
            # one with a digit run that parse_sheaf refuses
            (lambda: WplData([2], ["a)"]), ParseError),
            (lambda: WplData([2], ["y" + "1" * 5000]), ParseError),
            (lambda: wpl._validate(W23, TorsionW(1, 0, 0)), ModelMismatch),
            (lambda: wpl._validate(W23, TorsionO("y", 0)), ModelMismatch),
            (lambda: wpl._validate(W23, "O(0)"), ModelMismatch),
            # hom_ext would answer floats, or raise a bare TypeError on i = 1.0
            (lambda: hom_ext(W23, TorsionW(1, 0.5, 2), O(W23)), ModelMismatch),
            (lambda: hom_ext(W23, TorsionW(1.0, 0, 2), O(W23)), ModelMismatch),
            (lambda: hom_ext(W23, TorsionW(1, 0, 2.0), O(W23)), ModelMismatch),
            (lambda: hom_ext(W23, TorsionW(1, 0, True), O(W23)), ModelMismatch),
            (lambda: hom_ext(W23, O(W23), TorsionO("y", 1.5)), ModelMismatch),
            # a non-string label would reach the bisection as a bare TypeError
            (lambda: hom_ext(W23, TorsionO(1, 1), TorsionO(1, 1)), ModelMismatch),
            (lambda: hom_ext(W23, O(W23), TorsionO(None, 1)), ModelMismatch),
            (lambda: hom_ext(WplData((2, 3)), O(W23), TorsionO(1, 1)), ModelMismatch),
            (lambda: hom_ext(W23, SubTorsionW(1, 0.5, 2), O(W23)), ModelMismatch),
            (lambda: wpl._resolve_point(W23, 3), UnknownPoint),
            (lambda: wpl._resolve_point(W23, 0), UnknownPoint),
            (lambda: top_m(W23, "x1", O(W23).lam, 0), ModelMismatch),
            (lambda: classify_generated(W23, ()), ModelMismatch),
            (lambda: star_collection(W23, [2, 0]), ModelMismatch),
            (lambda: star_collection(W23, [0, -1]), ModelMismatch),
            # a grading with too few or too many weighted points
            (lambda: top_m(W23, 2, LElement(0, (0,)), 1), ModelMismatch),
            (lambda: top_m(W23, 2, LElement(0, (0, 0, 0)), 1), ModelMismatch),
        ],
    )
    def test_validation_errors(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("b", [(0,), (0, 0, 0)], ids=["short", "long"])
    def test_wrong_length_grading_gives_its_coordinate_count(self, b):
        # the printed name O(...) would drop the coordinates that are wrong
        message = rf"grading over weights \(2, 3\) needs p = 2 coordinates, got {len(b)}$"
        with pytest.raises(ModelMismatch, match=message):
            top_m(W23, 2, LElement(0, b), 1)


class TestHomExt:
    def test_global_sections_of_c(self):
        for w in (W2222, W3333, W23, WP1):
            assert hom_ext(w, O(w), O(w, "c")) == (2, 0)

    def test_example_kronecker_pair(self):
        L = O(W2222, "-c+x1+x2+x3+x4")
        assert hom_ext(W2222, L, O(W2222)) == (0, 2)

    def test_simple_chi(self):
        assert hom_ext(W3333, O(W3333), parse_sheaf(W3333, "S(1,3)")) == (1, 0)
        assert hom_ext(W3333, O(W3333), parse_sheaf(W3333, "S(1,1)")) == (0, 0)
        assert hom_ext(W3333, O(W3333), parse_sheaf(W3333, "S(1,2)")) == (0, 0)

    def test_torsion_bundle_vanishing(self):
        rng = random.Random(1)
        for w in (W2222, W23, WP1):
            for f in random_classes(w, rng, 30):
                for g in random_classes(w, rng, 5):
                    if wpl.rank_of(f) == 0 and wpl.rank_of(g) == 1:
                        assert hom_ext(w, f, g).hom == 0
                    if wpl.rank_of(f) == 1 and wpl.rank_of(g) == 0:
                        assert hom_ext(w, f, g).ext1 == 0

    def test_torsion_distinct_points(self):
        assert hom_ext(W23, TorsionW(1, 0, 1), TorsionW(2, 0, 1)) == (0, 0)
        assert hom_ext(W23, TorsionW(1, 0, 1), TorsionO("y", 1)) == (0, 0)

    def test_torsion_same_point_tube(self):
        r = W3333.weights.r[0]
        sphere = TorsionW(1, 0, r)
        assert hom_ext(W3333, sphere, sphere) == (1, 1)
        assert hom_ext(W3333, TorsionW(1, 0, 1), TorsionW(1, 0, 1)) == (1, 0)

    def test_ordinary_tube(self):
        assert hom_ext(W23, TorsionO("y", 1), TorsionO("y", 1)) == (1, 1)
        assert hom_ext(W23, TorsionO("y", 2), TorsionO("y", 2)) == (2, 2)

    def test_sphere_like_sections(self):
        # hom(O(lam), M) = rank = 1 for every sphere-like torsion class
        rng = random.Random(9)
        for w in (W2222, W23):
            for _ in range(20):
                lam = lgroup.normalize(
                    w.weights,
                    rng.randint(-3, 3),
                    [rng.randrange(r) for r in w.weights.r],
                )
                for i in range(1, w.weights.p + 1):
                    r = w.weights.r[i - 1]
                    m = TorsionW(i, rng.randrange(r), r)
                    assert hom_ext(w, LineBundle(lam), m).hom == 1
                for y in w.ordinary:
                    assert hom_ext(w, LineBundle(lam), TorsionO(y, 1)).hom == 1

    def test_model_mismatch(self):
        with pytest.raises(ModelMismatch):
            hom_ext(W23, O(W2222), O(W23))

    @pytest.mark.parametrize(
        "weights, ordinary",
        [
            ((2, 3, 5), ["y", "z"]),
            ((2, 2, 2, 2), []),
            ((2, 3, 4, 5), ["y"]),
            ((7,), []),
            ((), ["y", "z", "u"]),
            ((), []),
        ],
        ids=["2,3,5+y,z", "2,2,2,2", "2,3,4,5+y", "7", "P1+y,z,u", "P1"],
    )
    def test_bundle_pairs_match_coordinate_ring(self, weights, ordinary):
        # Hom(O(lam), O(mu)) = S_{mu-lam}, and by Serre duality
        # Ext^1(O(lam), O(mu)) = D Hom(O(mu), O(lam+omega)) = S_{lam+omega-mu};
        # hom_ext takes the gradings uncarried (b_i moved by multiples of
        # r_i), on which its closed form is exact too
        w = WplData(Weights(weights), ordinary)
        ws = w.weights
        rng = random.Random(f"ring:{weights}")

        def uncarried(u):
            ks = [rng.randint(-2, 2) for _ in ws.r]
            return LElement(u.a - sum(ks), tuple(b + k * r for b, k, r in zip(u.b, ks, ws.r)))

        for _ in range(100):
            lam, mu = (LElement(rng.randint(-2, 2), tuple(map(rng.randrange, ws.r))) for _ in range(2))
            hom = coordinate_ring_dim(w, lgroup.sub(ws, mu, lam))
            ext1 = coordinate_ring_dim(w, lgroup.add(ws, lgroup.sub(ws, lam, mu), lgroup.omega(ws)))
            f, g = LineBundle(uncarried(lam)), LineBundle(uncarried(mu))
            assert hom_ext(w, f, g) == (hom, ext1), (f, g)

    @pytest.mark.parametrize("weights", [(2, 3, 5, 4), (2, 2, 2, 2), (7,), ()])
    def test_raw_input_matches_normal_form(self, weights):
        # uncarried gradings (b_i in [-3r_i, 3r_i)) and out-of-range tops give
        # the answers of their normal forms; tau_sheaf returns a normal form
        w = WplData(Weights(weights), ["y"])
        rs = w.weights.r
        rng = random.Random(f"raw:{weights}")

        def draw():
            kind = rng.randrange(3)
            if kind == 0 or (kind == 1 and not rs):
                a, b = rng.randint(-4, 4), [rng.randrange(-3 * r, 3 * r) for r in rs]
                normal = lgroup.normalize(w.weights, a, b)
                return LineBundle(LElement(a, tuple(b))), LineBundle(normal)
            if kind == 1:
                i = rng.randint(1, len(rs))
                top, length = rng.randrange(-10, 10), rng.randint(1, 2 * rs[i - 1] + 1)
                return TorsionW(i, top, length), TorsionW(i, top % rs[i - 1], length)
            f = TorsionO("y", rng.randint(1, 3))
            return f, f

        def is_normal(f):
            if isinstance(f, LineBundle):
                return all(0 <= b < r for b, r in zip(f.lam.b, rs))
            return not isinstance(f, TorsionW) or 0 <= f.top < rs[f.i - 1]

        for _ in range(300):
            (f, fn), (g, gn) = draw(), draw()
            assert hom_ext(w, f, g) == hom_ext(w, fn, gn)
            assert euler(w, f, g) == euler(w, fn, gn)
            assert tau_sheaf(w, f) == tau_sheaf(w, fn)
            assert is_normal(tau_sheaf(w, f))

    def test_no_grading_group_arithmetic(self, monkeypatch):
        # hom_ext reads validated fields only: every pair kind still works,
        # with the same answers, while lgroup's arithmetic raises
        pairs = list(itertools.product(EVERY_KIND, repeat=2))
        want = [hom_ext(W23, f, g) for f, g in pairs]

        def forbidden(*args):
            raise AssertionError("grading-group arithmetic on the Hom path")

        for name in ("normalize", "add", "sub", "neg", "scale", "xbar", "cbar", "omega"):
            monkeypatch.setattr(lgroup, name, forbidden)
        assert [hom_ext(W23, f, g) for f, g in pairs] == want

    def test_no_intermediate_object(self, monkeypatch):
        # Hom and Ext^1 are read off integers: no tau f, no tube or arc is
        # built for any pair kind, raw tops and gradings included.  wpl
        # reads serial's arcs only in perp_exceptional_torsion, by these names
        pairs = list(itertools.product(EVERY_KIND, repeat=2))
        want = [hom_ext(W23, f, g) for f, g in pairs]

        def forbidden(*args):
            raise AssertionError("intermediate object on the Hom path")

        for name in ("Arc", "cycle", "perp_arc"):
            monkeypatch.setattr(serial, name, forbidden)
        assert [hom_ext(W23, f, g) for f, g in pairs] == want

    def test_hom_path_loads_no_serial(self):
        # a fresh process that runs hom_ext on every pair kind never
        # imports the thick-subcategory engine
        script = (
            "import sys\n"
            "from wpcalc.lgroup import LElement, Weights\n"
            "from wpcalc.wpl import LineBundle, TorsionO, TorsionW, WplData, hom_ext\n"
            f"kinds = {EVERY_KIND!r}\n"
            "w = WplData(Weights([2, 3]), ['y'])\n"
            "print([tuple(hom_ext(w, f, g)) for f in kinds for g in kinds])\n"
            "print('wpcalc.serial' in sys.modules)"
        )
        src = str(Path(wpl.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        want = [tuple(hom_ext(W23, f, g)) for f, g in itertools.product(EVERY_KIND, repeat=2)]
        assert proc.stdout.splitlines() == [repr(want), "False"]

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_point_index_out_of_range(self, i):
        # _validate indexes the weights tuple directly, so an index <= 0
        # must not read a weight from its end
        f = TorsionW(i, 0, 1)
        message = rf"^no weighted point x{i}$"
        for call in (
            lambda: hom_ext(W23, f, O(W23)),
            lambda: hom_ext(W23, O(W23), f),
            lambda: hom_ext(W23, f, TorsionW(1, 0, 1)),
            lambda: hom_ext(W23, TorsionW(2, 0, 1), f),
            lambda: tau_sheaf(W23, f),
        ):
            with pytest.raises(UnknownPoint, match=message):
                call()

    def test_valid_pairs_call_no_point_helper(self, monkeypatch):
        # a valid class reads the weights tuple only: the full table of a
        # seeded family keeps its values while weight_of and Weights.p raise
        w = WplData(Weights([2, 3, 5]), ["y"])
        family = random_classes(w, random.Random("point-helpers"), 48)

        def forbidden(*args):
            raise AssertionError("point helper on the Hom path")

        monkeypatch.setattr(WplData, "weight_of", forbidden)
        monkeypatch.setattr(Weights, "p", property(forbidden))
        table = [[tuple(hom_ext(w, f, g)) for g in family] for f in family]
        assert {type(f) for f in family} == {LineBundle, TorsionW, TorsionO}
        digest = hashlib.sha256(repr(table).encode()).hexdigest()
        assert digest == "383d677047cb23abd1fa2ccd68db6eed80631cc740c6b31444081e3f003bd049"

    def test_seeded_table_pin(self):
        # every answer and every error of hom_ext and euler on a seeded
        # table, raw classes, long arcs, subclass instances and invalid
        # classes in either slot included
        tables = [
            pin_table(w, pin_classes(w, random.Random(f"pin:{k}")))
            for k, w in enumerate(PIN_MODELS)
        ]
        errors = {entry for table in tables for entry in table if isinstance(entry[0], str)}
        assert {kind for kind, _ in errors} == {"ModelMismatch", "UnknownPoint"}
        assert len(errors) == 22
        digest = hashlib.sha256(repr(tables).encode()).hexdigest()
        assert digest == "4d380c24179a677154eff06bc276a3dccd31851084e959292cd4b9b010c47479"

    @pytest.mark.parametrize("i", [1, 2, 3, "y"])
    def test_integer_tube_route_matches_arc_route(self, i):
        # same-point torsion pairs against serial.dims on the tube's arcs:
        # tops -r..2r-1 and lengths 1..3r at x_i; lengths 1..15 on the rank 1
        # tube of the ordinary point y
        w = WplData(Weights([2, 3, 5]), ["y"])
        if i == "y":
            cat = cycle(1)
            pairs = [(TorsionO("y", l), serial.Arc(cat, 0, l)) for l in range(1, 16)]
        else:
            r = w.weights.r[i - 1]
            cat = cycle(r)
            pairs = [
                (TorsionW(i, t, l), serial.Arc(cat, t, l))
                for t in range(-r, 2 * r)
                for l in range(1, 3 * r + 1)
            ]
        for (f, a), (g, b) in itertools.product(pairs, repeat=2):
            assert hom_ext(w, f, g) == serial.dims(a, b), (f, g)


class TestEuler:
    def test_sphere_like_zero(self):
        assert euler(W3333, TorsionW(2, 1, 3), TorsionW(2, 1, 3)) == 0
        assert euler(W23, TorsionO("y", 1), TorsionO("y", 1)) == 0

    def test_additivity_over_simple_sequences(self):
        # chi(L, O(j x_i)) = chi(L, O((j-1) x_i)) + chi(L, S_{i,j})
        rng = random.Random(4)
        for w in (W23, W3333):
            for _ in range(10):
                lam = lgroup.normalize(
                    w.weights,
                    rng.randint(-3, 3),
                    [rng.randrange(r) for r in w.weights.r],
                )
                L = LineBundle(lam)
                for i in range(1, w.weights.p + 1):
                    xi = lgroup.xbar(w.weights, i)
                    for j in range(-2, 2 * w.weights.r[i - 1] + 1):
                        upper = LineBundle(lgroup.scale(w.weights, j, xi))
                        lower = LineBundle(lgroup.scale(w.weights, j - 1, xi))
                        simple = TorsionW(i, j, 1)
                        assert euler(w, L, upper) == euler(w, L, lower) + euler(w, L, simple)

    def test_chi_independent_of_residue_representative(self):
        # chi(L, S_{i,j}) only depends on j mod r_i
        rng = random.Random(33)
        for w in (W23, W3333):
            for _ in range(10):
                lam = lgroup.normalize(
                    w.weights, rng.randint(-3, 3), [rng.randrange(r) for r in w.weights.r]
                )
                L = LineBundle(lam)
                for i in range(1, w.weights.p + 1):
                    r = w.weights.r[i - 1]
                    for j in range(r):
                        vals = {
                            euler(w, L, TorsionW(i, j + k * r, 1)) for k in (-1, 0, 1, 2)
                        }
                        assert len(vals) == 1

    def test_bundle_to_long_torsion_matches_simple_sums(self):
        # hom(L, arc) is additive over the arc's composition factors
        rng = random.Random(44)
        w = W23
        for _ in range(15):
            lam = lgroup.normalize(
                w.weights, rng.randint(-3, 3), [rng.randrange(r) for r in w.weights.r]
            )
            L = LineBundle(lam)
            for i in range(1, w.weights.p + 1):
                r = w.weights.r[i - 1]
                t = rng.randrange(r)
                length = rng.randint(1, 2 * r)
                total = sum(
                    hom_ext(w, L, TorsionW(i, (t - k) % r, 1)).hom for k in range(length)
                )
                assert hom_ext(w, L, TorsionW(i, t, length)).hom == total

    def test_hom_into_torsion_matches_graded_euler_oracle(self):
        # Hom(L, t) and, by Serre duality, Ext^1(t', L) with t = tau t'
        rng = random.Random(45)
        for rs in ((2, 3, 5, 4), (2, 2, 2, 2), (3, 3, 3, 3)):
            w = WplData(Weights(rs), ["y"])
            for _ in range(150):
                lam = lgroup.normalize(
                    w.weights, rng.randint(-3, 3), [rng.randint(-4, 4) for _ in rs]
                )
                L = LineBundle(lam)
                i = rng.randint(0, len(rs))
                if i:
                    r = rs[i - 1]
                    t_prev = TorsionW(i, rng.randrange(r), rng.randint(1, 4 * r))
                else:
                    t_prev = TorsionO("y", rng.randint(1, 4))
                t = tau_sheaf(w, t_prev)
                expected = graded_euler_oracle(w, L, t)
                assert hom_ext(w, L, t).hom == expected
                assert hom_ext(w, t_prev, L).ext1 == expected

    def test_twist_step_class_identity(self):
        # [O(lam)] - [O(lam - c)] = [top_m(x_i, lam, r_i)] under the pairing,
        # probed in both arguments
        rng = random.Random(8)
        for w in (W2222, W23):
            for _ in range(8):
                lam = lgroup.normalize(
                    w.weights,
                    rng.randint(-2, 2),
                    [rng.randrange(r) for r in w.weights.r],
                )
                v = LineBundle(lam)
                cv = LineBundle(lgroup.sub(w.weights, lam, lgroup.cbar(w.weights)))
                for i in range(1, w.weights.p + 1):
                    top = top_m(w, i, lam, w.weights.r[i - 1])
                    for probe in random_classes(w, rng, 6):
                        assert euler(w, v, probe) == euler(w, cv, probe) + euler(w, top, probe)
                        assert euler(w, probe, v) == euler(w, probe, cv) + euler(w, probe, top)

    @pytest.mark.parametrize(
        "weights, ordinary, count",
        [((2, 3, 5), ["y"], 60), ((2, 2, 3, 4), ["y", "z"], 60), ((), ["y"], 30)],
        ids=["2,3,5+y", "2,2,3,4+y,z", "P1+y"],
    )
    def test_euler_is_bilinear_on_k0(self, weights, ordinary, count):
        # The canonical collection E is a basis of K0 whose Euler matrix C is
        # upper unitriangular.  Back-substitution in C a_f = (<E_i, f>)_i gives
        # the coordinates of [f], and <f, g> = sum_j a_{f,j} <E_j, g> for
        # every pair: every kind of pair, Ext^1 included, meets the pairing
        w = WplData(Weights(weights), ordinary)
        E = canonical_collection(w)
        n = len(E)
        C = [[euler(w, e, e2) for e2 in E] for e in E]
        assert all(C[i][i] == 1 and not any(C[i][:i]) for i in range(n))
        classes = random_classes(w, random.Random(f"k0:{weights}"), count)
        coords = []
        for f in classes:
            a = [euler(w, e, f) for e in E]
            for i in reversed(range(n)):
                a[i] -= sum(C[i][j] * a[j] for j in range(i + 1, n))
            coords.append(a)
        e_to = [[euler(w, e, g) for g in classes] for e in E]
        for a, f in zip(coords, classes):
            for k, g in enumerate(classes):
                assert sum(a[j] * e_to[j][k] for j in range(n)) == euler(w, f, g), (f, g)


class TestTau:
    def test_tau_of_structure_sheaf(self):
        t = tau_sheaf(W23, O(W23))
        assert t == LineBundle(lgroup.omega(W23.weights))

    def test_tau_on_torsion(self):
        assert tau_sheaf(W3333, TorsionW(1, 1, 1)) == TorsionW(1, 0, 1)
        # S_{1,1} -> S_{1,0} = S_{1,r_1}
        assert tau_sheaf(W3333, parse_sheaf(W3333, "S(1,1)")) == parse_sheaf(W3333, "S(1,3)")
        assert tau_sheaf(W23, TorsionO("y", 3)) == TorsionO("y", 3)

    def test_serre_duality_randomized(self):
        rng = random.Random(101)
        for w in (W2222, W23, WP1):
            classes = random_classes(w, rng, 25)
            for f, g in itertools.product(classes, classes):
                assert hom_ext(w, f, g).ext1 == hom_ext(w, g, tau_sheaf(w, f)).hom


class TestTwists:
    def test_sigma_on_bundles(self):
        assert sigma_twist(W23, "x1", O(W23)) == LineBundle(lgroup.xbar(W23.weights, 1))
        assert sigma_twist(W23, "y", O(W23)) == LineBundle(lgroup.cbar(W23.weights))

    def test_sigma_is_tau_inverse_on_local_torsion(self):
        assert sigma_twist(W23, "x2", TorsionW(2, 0, 2)) == TorsionW(2, 1, 2)
        assert sigma_twist(W23, "x1", TorsionW(2, 0, 2)) == TorsionW(2, 0, 2)
        assert sigma_twist(W23, "y", TorsionO("y", 2)) == TorsionO("y", 2)

    def test_c_equals_sigma_iterated(self):
        rng = random.Random(6)
        for w in (W23, W2222, WP1):
            points = [(f"x{i}", r) for i, r in enumerate(w.weights.r, 1)]
            points += [(y, 1) for y in w.ordinary]
            for f in random_classes(w, rng, 20):
                for point, weight in points:
                    g = f
                    for _ in range(weight):
                        g = sigma_twist(w, point, g)
                    assert g == c_twist(w, point, f)

    def test_c_fixes_torsion(self):
        rng = random.Random(7)
        for w in (W23, W2222):
            points = [f"x{i}" for i in range(1, w.weights.p + 1)] + list(w.ordinary)
            for f in random_classes(w, rng, 20):
                if wpl.rank_of(f) == 0:
                    for point in points:
                        assert c_twist(w, point, f) == f

    def test_twists_commute(self):
        rng = random.Random(12)
        w = W23
        points = ["x1", "x2", "y"]
        for f in random_classes(w, rng, 15):
            for p1, p2 in itertools.combinations(points, 2):
                assert sigma_twist(w, p1, sigma_twist(w, p2, f)) == sigma_twist(
                    w, p2, sigma_twist(w, p1, f)
                )
            for p in points:
                assert c_twist(w, p, tau_sheaf(w, f)) == tau_sheaf(w, c_twist(w, p, f))

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            sigma_twist(W23, "x9", O(W23))
        with pytest.raises(UnknownPoint):
            c_twist(W23, "nope", O(W23))


class TestTop:
    def test_top_of_twisted_structure_sheaf(self):
        w = W3333
        xi = lgroup.xbar(w.weights, 1)
        for j in range(0, 7):
            lam = lgroup.scale(w.weights, j, xi)
            assert top_m(w, "x1", lam, 1) == TorsionW(1, j % 3, 1)

    def test_top_hom_characterization(self):
        rng = random.Random(77)
        for w in (W23, W3333):
            for _ in range(25):
                lam = lgroup.normalize(
                    w.weights,
                    rng.randint(-4, 4),
                    [rng.randint(-4, 4) for _ in w.weights.r],
                )
                L = LineBundle(lam)
                for i in range(1, w.weights.p + 1):
                    r = w.weights.r[i - 1]
                    top = top_m(w, i, lam, 1)
                    assert hom_ext(w, L, top).hom == 1
                    for j in range(r):
                        s = TorsionW(i, j, 1)
                        if s != top:
                            assert hom_ext(w, L, s).hom == 0

    def test_ordinary_top(self):
        assert top_m(W23, "y", lgroup.zero(W23.weights), 3) == TorsionO("y", 3)


class TestCollections:
    def test_canonical_lengths(self):
        assert len(canonical_collection(W23)) == 5
        assert len(canonical_collection(WP1)) == 2
        assert len(canonical_collection(W3333)) == 10

    def test_canonical_exceptional_small_weights(self):
        for p in range(0, 5):
            for rs in itertools.combinations_with_replacement((2, 3, 4, 5), p):
                w = WplData(Weights(rs))
                assert is_exceptional_sequence(w, canonical_collection(w))

    def test_kronecker_pair_vertex_like_and_exceptional(self):
        # backward Hom and Ext from O into L vanish, so the pair is
        # exceptional in this order; the forward Ext^1(L, O) = 2 only
        # obstructs strongness
        L = O(W2222, "-c+x1+x2+x3+x4")
        pair = (L, O(W2222))
        assert is_vertex_like(W2222, pair)
        assert is_exceptional_sequence(W2222, pair)
        assert hom_ext(W2222, O(W2222), L) == (0, 0)
        assert not is_exceptional_sequence(W2222, (O(W2222), L))

    def test_long_torsion_fails_both(self):
        c = (TorsionW(1, 0, 4),)  # length > r_1 = 3
        assert not is_vertex_like(W3333, c)
        assert not is_exceptional_sequence(W3333, c)

    def test_dual_star_family(self):
        _, dual = star_collection(W3333, [1, 1, 1, 1])
        assert is_vertex_like(W3333, dual)
        q = ext_quiver_of(W3333, dual)
        center = "O(0)"
        expected = [(center, f"S({i},1)") for i in range(1, 5)]
        assert sorted(q.arrows) == sorted(expected)

    def test_star_arms_of_length_two(self):
        bundles, dual = star_collection(W3333, [2, 0, 1, 0])
        assert len(bundles) == 1 + 2 + 0 + 1 + 0
        assert [str(f) for f in dual] == ["S(1,2)", "S(1,1)", "S(3,1)", "O(0)"]
        assert is_vertex_like(W3333, dual)
        q = ext_quiver_of(W3333, dual)
        assert sorted(q.arrows) == sorted(
            [("O(0)", "S(1,1)"), ("S(1,1)", "S(1,2)"), ("O(0)", "S(3,1)")]
        )

    def test_ext_quiver_requires_vertex_like(self):
        with pytest.raises(NotVertexLike):
            ext_quiver_of(W2222, [O(W2222), O(W2222, "c")])

    def test_relative_simples_of_tube_subcategories(self):
        # the relative simples of every nonzero thick subcategory of U(n),
        # as torsion at a weight-n point, have the Ext-quiver of the
        # disjoint union of the subcategory's factor quivers
        checked = 0
        for n in range(2, 7):
            w = WplData(Weights([n]))
            for t in enumerate_thick(cycle(n))[1:]:
                family = [TorsionW(1, a.top, a.length) for a in t.relative_simples()]
                got = by_position(ext_quiver_of(w, family))
                assert same_multigraph(got, by_position(expected_factor_quiver(t.embedding)))
                checked += 1
        assert checked == 1267

    def test_relative_simples_through_the_cli(self, capsys):
        descs = enumerate_thick(cycle(4))
        for t in (descs[1], descs[len(descs) // 2], descs[-1]):
            literals = [str(TorsionW(1, a.top, a.length)) for a in t.relative_simples()]
            assert main(["extquiver", "--weights", "4", *literals, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["vertices"] == literals
            got = by_position(Quiver(doc["vertices"], doc["arrows"]))
            assert same_multigraph(got, by_position(expected_factor_quiver(t.embedding)))

    def test_single_exceptional_simple(self):
        q = ext_quiver_of(W3333, [TorsionW(1, 1, 1)])
        assert q.arrows == ()


class TestPerpTorsion:
    def test_simple_at_weight3(self):
        res = perp_exceptional_torsion(W3333, TorsionW(1, 0, 1))
        assert res.new_weights == Weights([2, 3, 3, 3])
        assert res.line_generators == ()
        assert not res.dropped_point

    def test_length_two_at_weight5(self):
        w = WplData(Weights([5]))
        res = perp_exceptional_torsion(w, TorsionW(1, 2, 2))
        assert res.new_weights == Weights([3])
        assert len(res.line_generators) == 1

    def test_point_drops_to_ordinary(self):
        w = WplData(Weights([2]))
        res = perp_exceptional_torsion(w, TorsionW(1, 1, 1))
        assert res.new_weights == Weights([])
        assert res.dropped_point
        assert res.line_generators == ()
        # the reduced tube family is a single sphere-like class: Z_1 shape
        (gen,) = res.tube_generators
        assert is_sphere_like(w, gen)
        q = ext_quiver_of(w, [gen])
        assert q.arrows == ((str(gen), str(gen)),)

    def test_tube_generators_match_serial_recipe(self):
        res = perp_exceptional_torsion(W3333, TorsionW(1, 0, 1))
        assert [str(g) for g in res.tube_generators] == ["S(1,0)[2]", "S(1,1)"]

    def test_generators_match_tube_recipe_oracle(self):
        # the generator formulas written out per composition factor
        for r in range(2, 8):
            w = WplData(Weights([r]))
            for top in range(r):
                for m in range(1, r):
                    res = perp_exceptional_torsion(w, TorsionW(1, top, m))
                    line = [TorsionW(1, (top - k) % r, 1) for k in range(1, m)]
                    tube = [TorsionW(1, top, m + 1)] + [
                        TorsionW(1, (top + a) % r, 1) for a in range(1, r - m)
                    ]
                    assert list(res.line_generators) == line
                    assert list(res.tube_generators) == tube

    def test_rejects_sphere_like(self):
        with pytest.raises(NotExceptionalTorsion):
            perp_exceptional_torsion(W3333, TorsionW(1, 0, 3))
        with pytest.raises(NotExceptionalTorsion):
            perp_exceptional_torsion(W3333, O(W3333))

    def test_seeded_sweep_matches_arc_recipes(self):
        # the arc recipes written out: an arc of length l on a rank-r tube is
        # exceptional for l < r and sphere-like for l == r, and the
        # bundle/torsion counts are the factors S_{i,j} with j = b_i mod r
        # among the arc's (Hom) or tau of the arc's (Ext^1), counted one by one
        w = WplData(Weights([2, 3, 4, 5, 6, 7]), ["y"])
        rs = w.weights.r
        rng = random.Random(28)
        bundles = [
            LineBundle(LElement(rng.randint(-5, 5), tuple(rng.randint(-3 * r, 3 * r) for r in rs)))
            for _ in range(6)
        ]
        for i, r in enumerate(rs, start=1):
            for length in range(1, 3 * r + 2):
                for top in (rng.randint(-3 * r, -1), rng.randrange(r), rng.randint(r, 3 * r)):
                    f = TorsionW(i, top, length)
                    assert is_sphere_like(w, f) == (length == r), f
                    if length >= r:
                        message = f"arc of length {length} at a weight-{r} point is not exceptional"
                        with pytest.raises(NotExceptionalTorsion) as exc:
                            perp_exceptional_torsion(w, f)
                        assert str(exc.value) == message
                    else:
                        perp_exceptional_torsion(w, f)
                    for bundle in bundles:
                        b = bundle.lam.b[i - 1]
                        hom = sum((j - b) % r == 0 for j in range(top - length + 1, top + 1))
                        ext1 = sum((j - b) % r == 0 for j in range(top - length, top))
                        assert hom_ext(w, bundle, f) == (hom, 0), (bundle, f)
                        assert hom_ext(w, f, bundle) == (0, ext1), (f, bundle)
        for length in range(1, 5):
            f = TorsionO("y", length)
            assert is_sphere_like(w, f) == (length == 1), f
            for bundle in bundles:
                assert hom_ext(w, bundle, f) == (length, 0)
                assert hom_ext(w, f, bundle) == (0, length)
        assert not any(is_sphere_like(w, bundle) for bundle in bundles)


class TestCountBig:
    def test_values(self):
        assert count_big(WplData(Weights([2]))) == 3
        assert count_big(W23) == 30
        assert count_big(W3333) == 10000
        assert count_big(WP1) == 1

    def test_factor_from_enumeration(self):
        # the per-point factor C(2r,r)/2 counts the thick subcategories of
        # the tube U_r with no cycle factor
        factor = {
            r: sum(1 for t in enumerate_thick(cycle(r)) if not shape_of_thick(t)[0])
            for r in range(1, 7)
        }
        assert list(factor.values()) == [1, 3, 10, 35, 126, 462]
        assert count_big(WplData(Weights([]), ["y"])) == factor[1]
        for r in range(2, 7):
            assert count_big(WplData(Weights([r]))) == factor[r]
        assert count_big(WplData(Weights([2, 3, 6]))) == factor[2] * factor[3] * factor[6]


    def test_left_mask_walk_route(self):
        # the per-point factor counts the left orthogonals of exceptional
        # families in the tube U_r, which the left-mask walk reaches past
        # the enumeration cap
        factor = {r: len(left_mask_states(serial._ArcIndex(cycle(r)))) for r in range(2, 11)}
        rng = random.Random(12)
        for _ in range(25):
            rs = [rng.randint(2, 10) for _ in range(rng.randint(1, 4))]
            expected = 1
            for r in rs:
                expected *= factor[r]
            assert count_big(WplData(Weights(rs))) == expected, rs


class TestClassify:
    def test_big_witnesses(self):
        g = [O(W2222), TorsionW(1, 1, 2)]
        res = classify_generated(W2222, g)
        assert res.kind == ClassifyKind.BIG
        assert res.witnesses == (O(W2222), TorsionW(1, 1, 2))

    def test_quiver_like_kronecker(self):
        g = [O(W2222, "-c+x1+x2+x3+x4"), O(W2222)]
        res = classify_generated(W2222, g)
        assert res.kind == ClassifyKind.QUIVER_LIKE
        assert len(res.quiver.vertices) == 2
        assert len(res.quiver.arrows) == 2
        s, t = res.quiver.arrows[0]
        assert res.quiver.arrows == ((s, t), (s, t))
        assert s == "O(0)"

    def test_quiver_like_dual_star(self):
        _, dual = star_collection(W3333, [1, 1, 1, 1])
        res = classify_generated(W3333, dual)
        assert res.kind == ClassifyKind.QUIVER_LIKE
        # 4-arm star: underlying affine D4 graph
        assert len(res.quiver.vertices) == 5
        assert all(s == "O(0)" for s, _ in res.quiver.arrows)

    @pytest.mark.parametrize("read", [classify_generated, ext_quiver_of])
    def test_one_table_per_family(self, monkeypatch, read):
        # vertex-like test, Ext-quiver and classification share one n x n
        # hom_ext table
        calls = []
        original = wpl.hom_ext

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(wpl, "hom_ext", counted)
        _, dual = star_collection(W3333, [1, 1, 1, 1])
        assert len(dual) == 5 and is_vertex_like(W3333, dual)
        calls.clear()
        read(W3333, dual)
        assert len(calls) == 25

    def test_undetermined(self):
        g = [O(W2222), O(W2222, "c"), O(W2222, "2c")]
        assert classify_generated(W2222, g).kind == ClassifyKind.UNDETERMINED

    def test_repeats_keep_the_first_member(self):
        # TorsionW(1, 3, 1) and TorsionW(1, 1, 1) are one class at weight 2:
        # the criteria see it once, labelled by the member given first
        raw = [TorsionW(1, 3, 1), O(W2222), TorsionW(1, 1, 1), SubLineBundle(LElement(0, (0,) * 4))]
        res = classify_generated(W2222, raw)
        assert res.kind == ClassifyKind.QUIVER_LIKE
        assert res.quiver.vertices == ("S(1,3)", "O(0)")
        assert res == classify_generated(W2222, raw[:2])

    def test_ordinary_sphere_counts(self):
        g = [O(W23), TorsionO("y", 1)]
        assert classify_generated(W23, g).kind == ClassifyKind.BIG

    def test_every_big_carries_a_bundle_and_a_sphere(self):
        # BIG fires exactly on a positive-rank class beside a sphere-like
        # one, and names that pair as its witnesses
        rng = random.Random(8)
        bigs = 0
        for w in (W2222, W3333, W23, WP1):
            for _ in range(150):
                family = random_classes(w, rng, rng.randint(1, 4))
                res = classify_generated(w, family)
                has_bundle = any(wpl.rank_of(f) > 0 for f in family)
                has_sphere = any(is_sphere_like(w, f) for f in family)
                assert (res.kind == ClassifyKind.BIG) == (has_bundle and has_sphere)
                if res.kind != ClassifyKind.BIG:
                    assert res.witnesses is None
                    continue
                bigs += 1
                bundle, sphere = res.witnesses
                assert bundle in family and wpl.rank_of(bundle) > 0
                assert sphere in family and is_sphere_like(w, sphere)
        assert bigs > 50

    def test_torsion_free_split_is_already_vertex_like(self):
        # Hom from torsion to a bundle is 0, so a family whose bundles have
        # no Homs to its torsion, with vertex-like parts, is vertex-like:
        # the split gives no criterion beyond quiver-like
        rng = random.Random(16)
        models = [WplData(Weights(r), ["y"]) for r in ((2, 3, 4), (2, 2), (3, 3, 3, 3), (5,))]
        splits = 0
        for _ in range(20_000):
            w = rng.choice(models)
            family = random_classes(w, rng, rng.randint(2, 4))
            bundles = [f for f in family if wpl.rank_of(f) > 0]
            torsion = [f for f in family if wpl.rank_of(f) == 0]
            if not (bundles and torsion):
                continue
            if any(hom_ext(w, v, t).hom for v in bundles for t in torsion):
                continue
            if not (is_vertex_like(w, bundles) and is_vertex_like(w, torsion)):
                continue
            splits += 1
            assert is_vertex_like(w, family), family
            assert classify_generated(w, family).kind == ClassifyKind.QUIVER_LIKE
        assert splits > 100
