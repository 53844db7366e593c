import itertools
import json
import random

import pytest

from test_serial import expected_factor_quiver, left_mask_states
from wpcalc import lgroup, serial, wpl
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
from wpcalc.quiver import ExtMatrix, Quiver, same_multigraph
from wpcalc.serial import cycle, enumerate_thick, shape_of_thick
from wpcalc.wpl import (
    ClassifyKind,
    Collection,
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
        classified = classify_generated(W23, Collection([TorsionW(1, 1, 1), TorsionW(2, 1, 1)]))
        reprs = [
            (Weights((2, 3)), "Weights(r=(2, 3))"),
            (lam, "LElement(a=1, b=(1, 2))"),
            (q, "Quiver(vertices=(1, 2), arrows=((1, 2),))"),
            (ExtMatrix(["a", "b"], [[0, 1], [0, 0]]), "ExtMatrix(labels=('a', 'b'), ext1=((0, 1), (0, 0)))"),
            (W23, "WplData(weights=Weights(r=(2, 3)), ordinary=('y',))"),
            (LineBundle(lam), "LineBundle(lam=LElement(a=1, b=(1, 2)))"),
            (TorsionW(1, 1, 2), "TorsionW(i=1, top=1, length=2)"),
            (TorsionO("y", 1), "TorsionO(y='y', length=1)"),
            (
                canonical_collection(WplData((2,))),
                "Collection(objects=(LineBundle(lam=LElement(a=0, b=(0,))), "
                "LineBundle(lam=LElement(a=0, b=(1,))), LineBundle(lam=LElement(a=1, b=(0,)))))",
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
            (ExtMatrix("ab", [[0, 1], [0, 0]]), ExtMatrix(("a", "b"), (("0", 1), (0, 0)))),
            (Collection([TorsionO("y", 1)]), Collection((TorsionO("y", 1),))),
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
            (ExtMatrix([], []), "labels"),
            (W23, "ordinary"),
            (LineBundle(LElement(0, ())), "lam"),
            (TorsionW(1, 0, 1), "top"),
            (TorsionO("y", 1), "length"),
            (Collection([]), "objects"),
            (perp_exceptional_torsion(W3333, TorsionW(1, 1, 1)), "dropped_point"),
            (classify_generated(W23, Collection([TorsionW(1, 1, 1)])), "quiver"),
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
            (lambda: ExtMatrix(["a"], [[0, 0]]), ParseError),
            (lambda: ExtMatrix(["a"], [[-1]]), ParseError),
            # a label with ')' could not be named by a T(...) literal
            (lambda: WplData([2], ["a)"]), ParseError),
            (lambda: wpl._validate(W23, TorsionW(1, 0, 0)), ModelMismatch),
            (lambda: wpl._validate(W23, TorsionO("y", 0)), ModelMismatch),
            (lambda: wpl._validate(W23, "O(0)"), ModelMismatch),
            (lambda: wpl._resolve_point(W23, 3), UnknownPoint),
            (lambda: wpl._resolve_point(W23, 0), UnknownPoint),
            (lambda: top_m(W23, "x1", O(W23).lam, 0), ModelMismatch),
            (lambda: classify_generated(W23, Collection([])), ModelMismatch),
            (lambda: star_collection(W23, [2, 0]), ModelMismatch),
            (lambda: star_collection(W23, [0, -1]), ModelMismatch),
        ],
    )
    def test_validation_errors(self, build, error):
        with pytest.raises(error):
            build()


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
        w = WplData(Weights([2, 3]), ["y"])
        classes = [
            LineBundle(LElement(0, (0, 0))),
            LineBundle(LElement(-1, (1, 2))),
            LineBundle(LElement(2, (-3, 7))),
            TorsionW(1, 1, 1),
            TorsionW(1, 0, 3),
            TorsionW(2, 2, 2),
            TorsionW(2, -4, 5),
            TorsionO("y", 1),
            TorsionO("y", 2),
        ]
        pairs = [(f, g) for f in classes for g in classes]
        want = [hom_ext(w, f, g) for f, g in pairs]

        def forbidden(*args):
            raise AssertionError("grading-group arithmetic on the Hom path")

        for name in ("normalize", "add", "sub", "neg", "scale", "xbar", "cbar", "omega"):
            monkeypatch.setattr(lgroup, name, forbidden)
        assert [hom_ext(w, f, g) for f, g in pairs] == want


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
        assert len(canonical_collection(W23).objects) == 5
        assert len(canonical_collection(WP1).objects) == 2
        assert len(canonical_collection(W3333).objects) == 10

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
        pair = Collection([L, O(W2222)])
        assert is_vertex_like(W2222, pair)
        assert is_exceptional_sequence(W2222, pair)
        assert hom_ext(W2222, O(W2222), L) == (0, 0)
        assert not is_exceptional_sequence(W2222, Collection([O(W2222), L]))

    def test_long_torsion_fails_both(self):
        c = Collection([TorsionW(1, 0, 4)])  # length > r_1 = 3
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
        assert len(bundles.objects) == 1 + 2 + 0 + 1 + 0
        assert [str(f) for f in dual.objects] == ["S(1,2)", "S(1,1)", "S(3,1)", "O(0)"]
        assert is_vertex_like(W3333, dual)
        q = ext_quiver_of(W3333, dual)
        assert sorted(q.arrows) == sorted(
            [("O(0)", "S(1,1)"), ("S(1,1)", "S(1,2)"), ("O(0)", "S(3,1)")]
        )

    def test_ext_quiver_requires_vertex_like(self):
        with pytest.raises(NotVertexLike):
            ext_quiver_of(W2222, Collection([O(W2222), O(W2222, "c")]))

    def test_relative_simples_of_tube_subcategories(self):
        # the relative simples of every nonzero thick subcategory of U(n),
        # as torsion at a weight-n point, have the Ext-quiver of the
        # disjoint union of the subcategory's factor quivers
        checked = 0
        for n in range(2, 7):
            w = WplData(Weights([n]))
            for t in enumerate_thick(cycle(n))[1:]:
                family = Collection(TorsionW(1, a.top, a.length) for a in t.relative_simples())
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
        q = ext_quiver_of(W3333, Collection([TorsionW(1, 1, 1)]))
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
        q = ext_quiver_of(w, Collection([gen]))
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
        g = Collection([O(W2222), TorsionW(1, 1, 2)])
        res = classify_generated(W2222, g)
        assert res.kind == ClassifyKind.BIG
        assert res.witnesses == (O(W2222), TorsionW(1, 1, 2))

    def test_quiver_like_kronecker(self):
        g = Collection([O(W2222, "-c+x1+x2+x3+x4"), O(W2222)])
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

    def test_undetermined(self):
        g = Collection([O(W2222), O(W2222, "c"), O(W2222, "2c")])
        assert classify_generated(W2222, g).kind == ClassifyKind.UNDETERMINED

    def test_ordinary_sphere_counts(self):
        g = Collection([O(W23), TorsionO("y", 1)])
        assert classify_generated(W23, g).kind == ClassifyKind.BIG

    def test_every_big_carries_a_bundle_and_a_sphere(self):
        # BIG fires exactly on a positive-rank class beside a sphere-like
        # one, and names that pair as its witnesses
        rng = random.Random(8)
        bigs = 0
        for w in (W2222, W3333, W23, WP1):
            for _ in range(150):
                family = random_classes(w, rng, rng.randint(1, 4))
                res = classify_generated(w, Collection(family))
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
            if not (is_vertex_like(w, Collection(bundles)) and is_vertex_like(w, Collection(torsion))):
                continue
            splits += 1
            assert is_vertex_like(w, Collection(family)), family
            assert classify_generated(w, Collection(family)).kind == ClassifyKind.QUIVER_LIKE
        assert splits > 100
