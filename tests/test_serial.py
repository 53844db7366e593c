import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from test_linalg import mat_mul
from wpcalc import linalg, nilrep, serial
from wpcalc.errors import (
    BoundExceeded,
    CategoryMismatch,
    InvalidArc,
    NoTranslationForLine,
    ParseError,
)
from wpcalc.quiver import ExtMatrix, Quiver, ext_quiver, same_multigraph
from wpcalc.serial import (
    MAX_CYCLE_RANK,
    MAX_LINE_RANK,
    Arc,
    ArcClass,
    SerialCat,
    all_arcs,
    classify_arc,
    count_thick,
    cycle,
    dims,
    enumerate_thick,
    line,
    line_arc,
    membership,
    parse_arc,
    perp_arc,
    realize,
    shape_of_thick,
    tau,
    thick_closure,
)


class TestArcs:
    def test_cycle_top_normalized(self):
        assert Arc(cycle(3), -1, 2) == Arc(cycle(3), 2, 2)

    def test_line_validation(self):
        with pytest.raises(InvalidArc):
            Arc(line(3), 2, 3)  # interval would start at 0
        with pytest.raises(InvalidArc):
            Arc(line(3), 4, 1)
        assert line_arc(4, 2, 3) == Arc(line(4), 3, 2)

    def test_interval_is_for_line_arcs(self):
        assert Arc(line(3), 3, 2).interval() == (2, 3)
        with pytest.raises(InvalidArc):
            Arc(cycle(3), 0, 2).interval()

    def test_closure_generator_from_another_category(self):
        with pytest.raises(CategoryMismatch):
            thick_closure(cycle(3), [Arc(cycle(2), 0, 1)])

    def test_parse(self):
        assert parse_arc("U(3):arc(0,2)") == Arc(cycle(3), 0, 2)
        assert parse_arc("A(4):arc(2,3)") == Arc(line(4), 3, 2)
        with pytest.raises(ParseError):
            parse_arc("U(3):arc(0)")
        with pytest.raises(ParseError):
            parse_arc("A(3):arc(3,1)")


class TestValueTypes:
    """Reprs, order, hashing and immutability of the serial value types."""

    def test_reprs(self):
        c3 = "SerialCat(kind='cycle', rank=3)"
        assert repr(cycle(3)) == c3
        assert repr(Arc(cycle(3), 4, 2)) == f"Arc(cat={c3}, top=1, length=2)"
        emb = perp_arc(Arc(cycle(3), 0, 1))
        images = f"(Arc(cat={c3}, top=0, length=2), Arc(cat={c3}, top=1, length=1))"
        factor = f"EmbeddedFactor(cat=SerialCat(kind='cycle', rank=2), simple_images={images})"
        assert repr(emb.factors[0]) == factor
        assert repr(emb) == (
            f"Embedding(ambient={c3}, factors=({factor}, "
            "EmbeddedFactor(cat=SerialCat(kind='line', rank=0), simple_images=())))"
        )
        c2 = "SerialCat(kind='cycle', rank=2)"
        assert repr(thick_closure(cycle(2), [Arc(cycle(2), 0, 1)])) == (
            f"ThickDesc(cat={c2}, signature=(Arc(cat={c2}, top=0, length=1),), "
            f"embedding=Embedding(ambient={c2}, factors=(EmbeddedFactor("
            f"cat=SerialCat(kind='line', rank=1), simple_images=(Arc(cat={c2}, top=0, length=1),)),)), "
            f"left_orthogonal=(Arc(cat={c2}, top=1, length=2),))"
        )

    def test_sorted_arcs_order_by_top_then_length(self):
        assert [(a.top, a.length) for a in sorted(all_arcs(line(3)))] == [
            (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
        ]
        assert [(a.top, a.length) for a in sorted(all_arcs(cycle(2), 3), reverse=True)] == [
            (1, 3), (1, 2), (1, 1), (0, 3), (0, 2), (0, 1)
        ]

    def test_equal_values_hash_equal(self):
        a, b = Arc(cycle(3), -1, 2), Arc(cycle(3), 2, 2)
        assert a == b and hash(a) == hash(b)
        assert hash(SerialCat("line", 4)) == hash(line(4))
        assert len({a, b, Arc(cycle(3), 2, 1)}) == 2
        t1 = thick_closure(cycle(3), [Arc(cycle(3), 0, 1)])
        t2 = thick_closure(cycle(3), [Arc(cycle(3), 3, 1)])
        assert t1 == t2 and hash(t1) == hash(t2)

    def test_immutable(self):
        a = Arc(cycle(3), 0, 1)
        emb = perp_arc(a)
        for obj, field in [(a, "top"), (a.cat, "rank"), (emb, "factors"),
                           (emb.factors[0], "cat"), (thick_closure(a.cat, [a]), "signature")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SerialCat("tree", 2),
            lambda: cycle(0),
            lambda: line(-1),
            lambda: Arc(cycle(3), 0, 0),
            lambda: Arc(line(3), 0, 1),
            lambda: Arc(line(3), 2, 3),
            lambda: line_arc(3, 2, 1),
        ],
    )
    def test_invalid_arcs(self, build):
        with pytest.raises(InvalidArc):
            build()

    @pytest.mark.parametrize("text", ["U(0):arc(0,1)", "U(3):arc(0,0)", "A(2):arc(2,3)", "A(3):arc(3,1)"])
    def test_bad_literals(self, text):
        with pytest.raises(ParseError):
            parse_arc(text)


class TestTau:
    def test_basic(self):
        assert tau(Arc(cycle(3), 0, 1)) == Arc(cycle(3), 2, 1)

    def test_order_n(self):
        for n in range(1, 6):
            a = Arc(cycle(n), 0, 2)
            b = a
            for _ in range(n):
                b = tau(b)
            assert b == a

    def test_rank_one_identity(self):
        a = Arc(cycle(1), 0, 3)
        assert tau(a) == a

    def test_no_line_translation(self):
        with pytest.raises(NoTranslationForLine):
            tau(line_arc(3, 1, 2))


class TestDims:
    def test_sphere_like(self):
        for n in range(1, 5):
            a = Arc(cycle(n), 1, n)
            assert dims(a, a) == (1, 1)

    def test_exceptional(self):
        a = Arc(cycle(3), 0, 2)
        assert dims(a, a) == (1, 0)

    def test_rank_one_jordan(self):
        a = Arc(cycle(1), 0, 2)
        assert dims(a, a) == (2, 2)

    def test_category_mismatch(self):
        with pytest.raises(CategoryMismatch):
            dims(Arc(cycle(2), 0, 1), Arc(cycle(3), 0, 1))

    def test_matches_nilrep_oracle(self):
        # every enumeration rank: U(1..6) with arcs up to twice the rank,
        # A(0..8) with all arcs; 11,992 pairs.  Each realized arc is
        # conjugated by a random base change, so the solve eliminates on
        # dense rational systems, not on 0/1 shift matrices.
        rng = random.Random(6)
        cats = [(cycle(n), 2 * n) for n in range(1, MAX_CYCLE_RANK + 1)]
        cats += [(line(n), None) for n in range(MAX_LINE_RANK + 1)]
        pairs = 0
        for cat, max_length in cats:
            arcs = all_arcs(cat, max_length)
            reps = {a: _base_change(rng, realize(a)) for a in arcs}
            for x, y in itertools.product(arcs, arcs):
                assert dims(x, y) == nilrep.hom_ext1(reps[x], reps[y])
                pairs += 1
        assert pairs == 11_992

    def test_serre_duality_in_tubes(self):
        for n in (1, 2, 3, 4):
            arcs = all_arcs(cycle(n), 2 * n)
            for x, y in itertools.product(arcs, arcs):
                assert dims(x, y).ext1 == dims(y, tau(x)).hom


def _random_invertible(rng, d):
    """A random invertible d x d integer matrix and its rational inverse,
    by Gauss-Jordan on [m | 1]; a singular draw is drawn again."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(d)] for i, row in enumerate(m)]
        for c in range(d):
            p = next((i for i in range(c, d) if a[i][c]), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            a[c] = [x / a[c][c] for x in a[c]]
            for i in range(d):
                f = a[i][c]
                if i != c and f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        else:
            return m, [row[d:] for row in a]


def _base_change(rng, rep, scalars=None):
    """Conjugate by an invertible matrix P_v at every vertex: a random
    integer matrix with a rational inverse or, given ``scalars``, a
    diagonal rescale by entries drawn from them."""
    p, p_inv = {}, {}
    for v, d in rep.dims.items():
        if scalars:
            diag = [rng.choice(scalars) for _ in range(d)]
            p[v] = [[x if i == j else 0 for j in range(d)] for i, x in enumerate(diag)]
            p_inv[v] = [[1 / x if i == j else 0 for j in range(d)] for i, x in enumerate(diag)]
        else:
            p[v], p_inv[v] = _random_invertible(rng, d)
    mats = [
        mat_mul(p[u], mat_mul(m, p_inv[v])) if m else []
        for (u, v), m in zip(rep.quiver.arrows, rep.mats)
    ]
    return nilrep.Rep(rep.quiver, rep.dims, mats)


class TestClassify:
    @pytest.mark.parametrize(
        "length,expected",
        [(2, ArcClass.EXCEPTIONAL), (3, ArcClass.SPHERE_LIKE), (4, ArcClass.NEITHER)],
    )
    def test_cycle3(self, length, expected):
        assert classify_arc(Arc(cycle(3), 0, length)) == expected

    def test_line_always_exceptional(self):
        for a in all_arcs(line(4)):
            assert classify_arc(a) == ArcClass.EXCEPTIONAL


def expected_factor_quiver(emb):
    """Disjoint union of the factors' defining quivers on image labels."""
    vertices = []
    arrows = []
    for fi, f in enumerate(emb.factors):
        k = len(f.simple_images)
        vertices.extend((fi, a) for a in range(k))
        if f.cat.kind == "cycle":
            arrows.extend(((fi, a), (fi, (a + 1) % k)) for a in range(k))
        else:
            arrows.extend(((fi, a), (fi, a + 1)) for a in range(k - 1))
    return Quiver(vertices, arrows)


def mapped_family_quiver(emb):
    labels = []
    objects = []
    for fi, f in enumerate(emb.factors):
        for a, img in enumerate(f.simple_images):
            labels.append((fi, a))
            objects.append(img)
    rows = [[dims(x, y).ext1 for y in objects] for x in objects]
    return ext_quiver(ExtMatrix(labels, rows)), objects


def embed(factor, a):
    """Ambient arc of an abstract arc of a perpendicular factor.

    The embedding functor concatenates the ambient blocks of the arc's
    composition factors, read from the top down.
    """
    imgs = factor.simple_images
    s = len(imgs)
    if factor.cat.kind == "cycle":
        blocks = [imgs[(a.top - i) % s] for i in range(a.length)]
    else:
        blocks = [imgs[a.top - 1 - i] for i in range(a.length)]
    return Arc(blocks[0].cat, blocks[0].top, sum(b.length for b in blocks))


class TestPerpArc:
    def test_perp_of_simple_in_rank3(self):
        emb = perp_arc(Arc(cycle(3), 0, 1))
        kinds = [(f.cat.kind, f.cat.rank) for f in emb.factors]
        assert kinds == [("cycle", 2), ("line", 0)]
        images = set(emb.factors[0].simple_images)
        assert images == {Arc(cycle(3), 1, 1), Arc(cycle(3), 0, 2)}

    def test_cycle5_length2(self):
        emb = perp_arc(Arc(cycle(5), 0, 2))
        assert [(f.cat.kind, f.cat.rank) for f in emb.factors] == [("cycle", 3), ("line", 1)]

    def test_line4_interval(self):
        emb = perp_arc(line_arc(4, 2, 3))
        assert [(f.cat.kind, f.cat.rank) for f in emb.factors] == [("line", 2), ("line", 1)]

    def test_sphere_like_gives_line_only(self):
        emb = perp_arc(Arc(cycle(4), 2, 4))
        assert [(f.cat.kind, f.cat.rank) for f in emb.factors] == [("line", 3)]

    def test_rejects_overlong(self):
        with pytest.raises(InvalidArc):
            perp_arc(Arc(cycle(3), 0, 4))

    def test_mapped_family_vertex_like_and_quiver(self):
        for n in range(1, 6):
            for e in all_arcs(cycle(n)):
                emb = perp_arc(e)
                q, objects = mapped_family_quiver(emb)
                for i, x in enumerate(objects):
                    assert dims(x, x).hom == 1
                    for j, y in enumerate(objects):
                        if i != j:
                            assert dims(x, y).hom == 0
                    # perpendicularity to e itself
                    assert dims(e, x) == (0, 0)
                assert same_multigraph(q, expected_factor_quiver(emb))
        for n in range(1, 6):
            for e in all_arcs(line(n)):
                emb = perp_arc(e)
                q, objects = mapped_family_quiver(emb)
                for i, x in enumerate(objects):
                    assert dims(x, x) == (1, 0)
                    assert dims(e, x) == (0, 0)
                    for j, y in enumerate(objects):
                        if i != j:
                            assert dims(x, y).hom == 0
                assert same_multigraph(q, expected_factor_quiver(emb))

    def test_closure_of_perp_simples_recovers_perp(self):
        # the explicit recipe against the engine: the thick closure of the
        # perpendicular's simples has the same factors (up to order, rank-0
        # factors dropped) and is exactly the right orthogonal of e
        def factors(embedding):
            return {
                (f.cat, frozenset(f.simple_images)) for f in embedding.factors if f.cat.rank > 0
            }

        cats = [cycle(n) for n in range(1, 7)] + [line(n) for n in range(1, 9)]
        checked = 0
        for cat in cats:
            for e in all_arcs(cat):
                emb = perp_arc(e)
                t = thick_closure(cat, [a for f in emb.factors for a in f.simple_images])
                assert factors(t.embedding) == factors(emb)
                for f in t.embedding.factors:
                    if f.cat.kind == "cycle":  # canonical rotation: smallest block last
                        assert f.simple_images[-1] == min(f.simple_images)
                right = {y for y in all_arcs(cat) if dims(e, y) == (0, 0)}
                assert set(t.signature) == right
                checked += 1
        assert checked == 211

    def test_embed_concatenates(self):
        emb = perp_arc(Arc(cycle(3), 0, 1))
        tube = emb.factors[0]
        # abstract sphere of the rank-2 factor is a length-3 ambient arc
        img = embed(tube, Arc(cycle(2), 0, 2))
        assert img.length == 3

    def test_embed_line_factor_interval(self):
        emb = perp_arc(Arc(cycle(5), 0, 3))
        chain = emb.factors[1]
        assert chain.cat == line(2)
        # abstract interval [1,2] concatenates both simple blocks
        img = embed(chain, line_arc(2, 1, 2))
        assert img == Arc(cycle(5), 4, 2)
        # embedding preserves Hom/Ext data of abstract arcs
        for x in all_arcs(line(2)):
            for y in all_arcs(line(2)):
                assert dims(x, y) == dims(embed(chain, x), embed(chain, y))

    def test_embed_is_fully_faithful_on_tube_factor(self):
        for e in all_arcs(cycle(4)):
            emb = perp_arc(e)
            for f in emb.factors:
                abstract = all_arcs(f.cat)
                for x in abstract:
                    for y in abstract:
                        assert dims(x, y) == dims(embed(f, x), embed(f, y))


# -- independent closure oracle -------------------------------------------------


def _concat(upper, lower):
    return Arc(upper.cat, upper.top, upper.length + lower.length)


def _adjacent(lower, upper):
    n = lower.cat.rank
    if lower.cat.kind == "cycle":
        return lower.top % n == (upper.top - upper.length) % n
    return lower.top == upper.top - upper.length


def closure_oracle(cat, gens, cap):
    """Wide closure computed from raw arc rules, independent of dims().

    Rules: concatenation of adjacent members (extension); top/bottom
    complements inside a member (2-of-3); kernels and cokernels of maps
    between members (image = a common top-part of the source and
    bottom-part of the target, detected by composition-factor indices).
    """
    n = cat.rank
    current = set(gens)
    while True:
        new = set()
        items = list(current)
        for a in items:
            for b in items:
                if _adjacent(a, b) and a.length + b.length <= cap:
                    new.add(_concat(b, a))
                # b a top part of a -> bottom complement
                if a.length > b.length and b.top == a.top:
                    new.add(Arc(cat, a.top - b.length, a.length - b.length))
                # b a bottom part of a -> top complement
                if a.length > b.length and (
                    (b.top - b.length) % n == (a.top - a.length) % n
                    if cat.kind == "cycle"
                    else b.top - b.length == a.top - a.length
                ):
                    new.add(Arc(cat, a.top, a.length - b.length))
                # maps a -> b: image of length i is the top-i part of a
                # and the bottom-i part of b
                for i in range(1, min(a.length, b.length) + 1):
                    bottom_top = b.top - b.length + i
                    same = (
                        a.top % n == bottom_top % n
                        if cat.kind == "cycle"
                        else a.top == bottom_top
                    )
                    if same:
                        if a.length > i:
                            new.add(Arc(cat, a.top - i, a.length - i))  # kernel
                        if b.length > i:
                            new.add(Arc(cat, b.top, b.length - i))  # cokernel
        if new <= current:
            return current
        current |= new


def _minimal_members(sig):
    """Members with no proper member subobject: the relative simples."""

    def proper_subarcs(a):
        for j in range(1, a.length):
            yield Arc(a.cat, a.top - a.length + j, j)

    return sorted(a for a in sig if not any(s in sig for s in proper_subarcs(a)))


def _right_orthogonal_signature(cat, gens):
    return frozenset(
        y for y in all_arcs(cat) if all(dims(g, y) == (0, 0) for g in gens)
    )


def _left_orthogonal_signature(cat, gens):
    return frozenset(
        y for y in all_arcs(cat) if all(dims(y, g) == (0, 0) for g in gens)
    )


def double_orthogonal_oracle(cat, gens):
    """Members (length <= rank) of the thick closure of ``gens``, one arc at a time.

    The same double orthogonality as the engine's bitset index, taken over
    sets of arcs and fresh ``dims`` calls: right orthogonal, its relative
    simples, their left orthogonal.
    """
    right = _minimal_members(_right_orthogonal_signature(cat, gens))
    return _left_orthogonal_signature(cat, right)


class TestMembership:
    def test_generators_belong(self):
        t = thick_closure(cycle(3), [Arc(cycle(3), 0, 1), Arc(cycle(3), 2, 1)])
        assert membership(t, Arc(cycle(3), 0, 1))
        assert membership(t, Arc(cycle(3), 2, 1))

    def test_extension_member(self):
        # the extension of S_0 by tau S_0 = S_2 is the length-2 arc over S_0
        t = thick_closure(cycle(3), [Arc(cycle(3), 0, 1), Arc(cycle(3), 2, 1)])
        assert membership(t, Arc(cycle(3), 0, 2))

    def test_other_simple_not_member(self):
        t = thick_closure(cycle(2), [Arc(cycle(2), 0, 1)])
        assert not membership(t, Arc(cycle(2), 1, 1))
        # brute-force closure of {S_0} never produces S_1
        closed = closure_oracle(cycle(2), [Arc(cycle(2), 0, 1)], cap=4)
        assert Arc(cycle(2), 1, 1) not in closed

    def test_category_mismatch(self):
        t = thick_closure(cycle(2), [Arc(cycle(2), 0, 1)])
        with pytest.raises(CategoryMismatch):
            membership(t, Arc(cycle(3), 0, 1))

    def test_long_arcs_in_sphere_closure(self):
        sphere = Arc(cycle(2), 0, 2)
        t = thick_closure(cycle(2), [sphere])
        assert membership(t, Arc(cycle(2), 0, 4))
        assert not membership(t, Arc(cycle(2), 1, 4))
        assert not membership(t, Arc(cycle(2), 0, 3))

    def test_closure_of_long_arc_contains_image(self):
        # the square of the nilpotent endomorphism of the length-4 arc has
        # image the sphere, so both generate the same subcategory
        long = thick_closure(cycle(2), [Arc(cycle(2), 0, 4)])
        sphere = thick_closure(cycle(2), [Arc(cycle(2), 0, 2)])
        assert long.signature == sphere.signature == (Arc(cycle(2), 0, 2),)

    def test_signatures_match_double_orthogonal_oracle(self):
        cats = [cycle(n) for n in range(1, 6)] + [line(n) for n in range(0, 8)]
        for cat in cats:
            for t in enumerate_thick(cat):
                sig = double_orthogonal_oracle(cat, t.relative_simples())
                assert tuple(sorted(sig)) == t.signature

    def test_long_generator_matches_double_orthogonal_oracle(self):
        for n in (1, 2, 3):
            cat = cycle(n)
            for g in all_arcs(cat, 3 * n):
                sig = double_orthogonal_oracle(cat, [g])
                assert thick_closure(cat, [g]).signature == tuple(sorted(sig))

    def test_signatures_match_closure_oracle(self):
        for n in (1, 2, 3):
            for t in enumerate_thick(cycle(n)):
                gens = t.relative_simples()
                if not gens:
                    continue
                closed = closure_oracle(cycle(n), gens, cap=2 * n)
                assert {a for a in closed if a.length <= n} == set(t.signature)


# every category enumeration accepts
ENUM_CATS = [cycle(n) for n in range(1, MAX_CYCLE_RANK + 1)]
ENUM_CATS += [line(n) for n in range(MAX_LINE_RANK + 1)]
# sha256 over repr((t, t.relative_simples(), shape_of_thick(t))) of every
# descriptor of ENUM_CATS, in enumeration order
DESCRIPTOR_DIGEST = "26b516d4cff7f2cf09f89c66839ec26ceb530a2a40ba914ff7a3ba1734c3cdf1"


def all_rows_walk(full, rows):
    """The right-orthogonal masks as ANDs of sets of arc right masks.

    The oracle for the engine's walk: every state is ANDed with every
    distinct row, not only with the rows of its own set bits.
    """
    rights = set(rows)
    seen = {full}
    todo = [full]
    while todo:
        state = todo.pop()
        for r in rights:
            joined = state & r
            if joined not in seen:
                seen.add(joined)
                todo.append(joined)
    return seen


def _proper_subarcs(a):
    for j in range(1, a.length):
        if a.cat.kind == "cycle":
            yield Arc(a.cat, (a.top - a.length + j) % a.cat.rank, j)
        else:
            yield Arc(a.cat, a.top - a.length + j, j)


def arc_index_oracle(cat):
    """(arcs, sub, below, above) of the bit index, built from ``Arc`` values.

    The oracle for the index's arithmetic: bits number the sorted
    ``all_arcs`` through a dict, subarcs are made as arcs and looked up,
    and the block-below and block-above masks collect the arcs by top and
    by the vertex one step below the socle.
    """
    arcs = sorted(all_arcs(cat))
    bit = {a: k for k, a in enumerate(arcs)}
    sub = [sum(1 << bit[s] for s in _proper_subarcs(a)) for a in arcs]
    if cat.kind == "cycle":
        low = [(a.top - a.length) % cat.rank for a in arcs]
    else:
        low = [a.top - a.length for a in arcs]
    with_top, with_low = {}, {}
    for k, a in enumerate(arcs):
        with_top[a.top] = with_top.get(a.top, 0) | 1 << k
        with_low[low[k]] = with_low.get(low[k], 0) | 1 << k
    below = [with_top.get(t, 0) for t in low]
    above = [with_low.get(a.top, 0) for a in arcs]
    return arcs, sub, below, above


def exceptional_sequences(idx):
    """Memoized DFS over left-mask states from the whole category: {state: (count, lengths)}.

    A sequence (E_1, ..., E_r) is exceptional when its arcs are exceptional
    and Hom and Ext^1 from E_j to E_i vanish for j > i: E_1 is an
    exceptional arc of the state, and (E_2, ..., E_r) an exceptional
    sequence of the state ANDed with E_1's left mask.  ``count`` is the
    number of sequences of a state that no arc extends at the end, and
    ``lengths`` the set of their lengths.
    """
    rows = idx.rows()
    idx.fill_left(rows)
    left = idx._left
    exceptional = 0
    for k, a in enumerate(idx.arcs):
        if classify_arc(a) == ArcClass.EXCEPTIONAL:
            exceptional |= 1 << k
    memo = {}

    def visit(state):
        if state not in memo:
            count, lengths = 0, set()
            for k in serial._bits(state & exceptional):
                c, ls = visit(state & left[k])
                count += c
                lengths |= {length + 1 for length in ls}
            memo[state] = (count, lengths) if lengths else (1, {0})
        return memo[state]

    visit(idx.full)
    return memo


def left_mask_states(idx):
    """The states of ``exceptional_sequences``'s walk.

    Each step leaves the left orthogonal of an exceptional arc inside the
    state, so the states are the left orthogonals of exceptional families:
    a second route to the counts, by left masks where the engine walks
    right masks.
    """
    return set(exceptional_sequences(idx))


class TestWalk:
    WALK_CATS = ENUM_CATS + [cycle(MAX_CYCLE_RANK + 1), line(MAX_LINE_RANK + 1)]
    INDEX_CATS = [cycle(n) for n in range(1, 11)] + [line(n) for n in range(11)]

    @pytest.mark.parametrize("cat", WALK_CATS, ids=str)
    def test_in_state_walk_matches_all_rows_walk(self, cat):
        idx = serial._ArcIndex(cat)
        rows = idx.rows()
        states = dict(serial._right_orthogonals(idx.full, rows))
        assert set(states) == all_rows_walk(idx.full, rows)
        assert all(bits == serial._bits(state) for state, bits in states.items())

    @pytest.mark.parametrize("cat", INDEX_CATS, ids=str)
    def test_arithmetic_index_matches_arc_oracle(self, cat):
        idx = serial._ArcIndex(cat)
        assert (idx.arcs, idx.sub, idx.below, idx.above) == arc_index_oracle(cat)

    def test_rotated_tube_rows_match_per_pair_rows(self):
        for n in range(1, 9):
            idx = serial._ArcIndex(cycle(n))
            per_pair = [serial._zero_bits(dims(g, y) for y in idx.arcs) for g in idx.arcs]
            assert idx.rows() == per_pair, n

    def test_left_mask_walk_counts(self):
        # past the enumeration caps: U(1..10) and A(0..9)
        for n in range(1, 11):
            assert len(left_mask_states(serial._ArcIndex(cycle(n)))) == comb(2 * n, n) // 2, n
        for n in range(10):
            catalan = comb(2 * n + 2, n + 1) // (n + 2)
            assert len(left_mask_states(serial._ArcIndex(line(n)))) == catalan, n

    def test_left_mask_walk_reaches_the_cycle_shaped_subcategories(self):
        # inside one tube the left orthogonals of exceptional families are
        # exactly the subcategories with a cycle factor, half of them
        for n in range(1, MAX_CYCLE_RANK + 1):
            idx = serial._ArcIndex(cycle(n))
            bit = {a: k for k, a in enumerate(idx.arcs)}
            with_cycle = {
                sum(1 << bit[a] for a in t.signature)
                for t in enumerate_thick(cycle(n))
                if shape_of_thick(t)[0]
            }
            assert left_mask_states(idx) == with_cycle, n

    def test_closure_permutes_the_states(self):
        # the descriptor lookups rest on this: every state is a closed
        # member mask, and closing maps the finite state set onto itself,
        # hence bijectively
        for cat in ENUM_CATS:
            idx = serial._ArcIndex(cat)
            rows = idx.rows()
            idx.fill_left(rows)
            states = set(dict(serial._right_orthogonals(idx.full, rows)))
            assert {idx.closure(state) for state in states} == states, cat


class TestEnumerate:
    def test_counts_central_binomial(self):
        for n in range(1, 7):
            assert len(enumerate_thick(cycle(n))) == comb(2 * n, n)

    def test_line2_count_and_oracle(self):
        descs = enumerate_thick(line(2))
        assert len(descs) == 5
        # independent oracle: subsets of the 3 indecomposables closed
        # under the arc rules are exactly the thick subcategories
        arcs = all_arcs(line(2))
        closed_sets = []
        for r in range(len(arcs) + 1):
            for subset in itertools.combinations(arcs, r):
                if closure_oracle(line(2), subset, cap=2) == set(subset) or not subset:
                    closed = closure_oracle(line(2), subset, cap=2)
                    if closed == set(subset):
                        closed_sets.append(frozenset(subset))
        assert len(set(closed_sets)) == 5
        assert {frozenset(t.signature) for t in descs} == set(closed_sets)

    def test_line_counts_catalan(self):
        # thick subcategories of A_n are counted by Catalan(n+1)
        def catalan(k):
            return comb(2 * k, k) // (k + 1)

        for n in range(0, 9):
            assert len(enumerate_thick(line(n))) == catalan(n + 1)

    def test_bounds(self):
        with pytest.raises(BoundExceeded):
            enumerate_thick(cycle(7))
        with pytest.raises(BoundExceeded):
            enumerate_thick(line(9))

    def test_count_matches_enumeration(self):
        cats = [cycle(n) for n in range(1, MAX_CYCLE_RANK + 1)]
        cats += [line(n) for n in range(MAX_LINE_RANK + 1)]
        for cat in cats:
            assert count_thick(cat) == len(enumerate_thick(cat))
        for cat, cap in [(cycle(7), MAX_CYCLE_RANK), (line(9), MAX_LINE_RANK)]:
            with pytest.raises(BoundExceeded) as counted:
                count_thick(cat)
            with pytest.raises(BoundExceeded) as enumerated:
                enumerate_thick(cat)
            assert str(counted.value) == str(enumerated.value)
            assert f"capped at rank {cap}" in str(counted.value)

    def test_no_perpendicular_recursion(self, monkeypatch):
        # enumeration walks right masks in the category itself: it needs
        # no perpendicular
        def forbidden(*args):
            raise AssertionError("perpendicular recursion in enumeration")

        monkeypatch.setattr(serial, "perp_arc", forbidden)
        for n in range(1, MAX_CYCLE_RANK + 1):
            assert count_thick(cycle(n)) == len(enumerate_thick(cycle(n))) == comb(2 * n, n)
        for n in range(MAX_LINE_RANK + 1):
            catalan = comb(2 * n + 2, n + 1) // (n + 2)
            assert count_thick(line(n)) == len(enumerate_thick(line(n))) == catalan

    def test_count_closes_nothing(self, monkeypatch):
        # distinct right orthogonals are one per subcategory, so counting
        # needs no closure
        def forbidden(*args):
            raise AssertionError("closure while counting")

        monkeypatch.setattr(serial._ArcIndex, "closure", forbidden)
        for n in range(1, MAX_CYCLE_RANK + 1):
            assert count_thick(cycle(n)) == comb(2 * n, n)
        for n in range(MAX_LINE_RANK + 1):
            assert count_thick(line(n)) == comb(2 * n + 2, n + 1) // (n + 2)

    def test_deterministic_order(self):
        a = enumerate_thick(cycle(3))
        b = enumerate_thick(cycle(3))
        assert [t.signature for t in a] == [t.signature for t in b]
        assert a[0].signature == ()  # zero subcategory first

    def test_whole_category_present(self):
        descs = enumerate_thick(cycle(3))
        whole = [t for t in descs if len(t.signature) == len(all_arcs(cycle(3)))]
        assert len(whole) == 1
        assert shape_of_thick(whole[0]) == (True, [])

    def test_one_dims_call_per_pair(self, monkeypatch):
        # enumeration reads one zero table: rows are right masks, columns
        # (left masks) come by transposition, not by a second dims sweep;
        # a tube computes only the rows at top 0 and rotates them
        calls = 0
        real_dims = serial.dims

        def counted(x, y):
            nonlocal calls
            calls += 1
            return real_dims(x, y)

        monkeypatch.setattr(serial, "dims", counted)
        for cat in ENUM_CATS:
            calls = 0
            enumerate_thick(cat)
            if cat.kind == "cycle":
                assert calls == cat.rank**3, cat
            else:
                assert calls == len(all_arcs(cat)) ** 2, cat
        # a single closure fills only the left masks it reads
        calls = 0
        thick_closure(cycle(6), [Arc(cycle(6), 0, 2)])
        assert calls < 36**2

    def test_descriptors_pinned(self):
        # pins every field of every enumerated descriptor, and their order
        h = hashlib.sha256()
        count = 0
        for cat in ENUM_CATS:
            for t in enumerate_thick(cat):
                h.update(repr((t, t.relative_simples(), shape_of_thick(t))).encode())
                count += 1
        assert count == 8191
        assert h.hexdigest() == DESCRIPTOR_DIGEST

    def test_factors_made_once(self):
        # every distinct factor value is one object, which all descriptors
        # containing it share
        for cat in ENUM_CATS:
            factors = [f for t in enumerate_thick(cat) for f in t.embedding.factors]
            assert len({id(f) for f in factors}) == len(set(factors)), cat
            if cat == line(8):
                assert (len(factors), len(set(factors))) == (11440, 502)

    def test_membership_consistent_with_signature(self):
        for cat in ENUM_CATS:
            arcs = all_arcs(cat)
            for t in enumerate_thick(cat):
                members = {a for a in arcs if membership(t, a)}
                assert members == set(t.signature)

    def test_stored_embeddings_have_factor_ext_quivers(self):
        # the relative simples of every enumerated subcategory carry the
        # Ext-data of the disjoint union of their factors' defining quivers
        for cat in ENUM_CATS:
            for t in enumerate_thick(cat):
                q, objects = mapped_family_quiver(t.embedding)
                assert same_multigraph(q, expected_factor_quiver(t.embedding))
                for i, x in enumerate(objects):
                    assert dims(x, x).hom == 1
                    for j, y in enumerate(objects):
                        if i != j:
                            assert dims(x, y).hom == 0

    def test_relative_simples_generate_signature(self):
        for cat in (cycle(3), line(4)):
            for t in enumerate_thick(cat):
                regen = thick_closure(cat, t.relative_simples())
                assert regen.signature == t.signature


class TestPaperChecks:
    def test_complete_exceptional_sequences(self):
        # complete exceptional sequences number (n+1)^(n-1) in A_n and n^(n-1)
        # in U_n, and every sequence no arc extends at the end has full
        # length (n in A_n, n-1 in U_n): each is part of a complete one
        for cat in ENUM_CATS:
            n = cat.rank
            idx = serial._ArcIndex(cat)
            memo = exceptional_sequences(idx)
            if cat.kind == "line":
                full, expected = n, (n + 1) ** (n - 1)
            else:
                full, expected = n - 1, n ** (n - 1)
            assert memo[idx.full] == (expected, {full}), cat

    def test_relative_simples_are_a_basis_of_the_members(self):
        # Jordan-Hoelder and no phantoms: the dimension vectors of the
        # relative simples are independent, and every member's lies in their span
        count = 0
        for cat in ENUM_CATS:
            vector = {}
            for a in all_arcs(cat):
                dv = nilrep.dim_vector(realize(a))
                vector[a] = [dv[v] for v in sorted(dv)]
            for t in enumerate_thick(cat):
                simples = [vector[a] for a in t.relative_simples()]
                assert linalg.rank(simples) == len(simples), t
                assert linalg.rank(simples + [vector[a] for a in t.signature]) == len(simples), t
                count += 1
        assert count == 8191


class TestShapes:
    def test_sphere_generated(self):
        n = 3
        t = thick_closure(cycle(n), [Arc(cycle(n), 0, n)])
        assert shape_of_thick(t) == (True, [])
        assert [f.cat for f in t.embedding.factors] == [cycle(1)]

    def test_single_exceptional(self):
        t = thick_closure(cycle(3), [Arc(cycle(3), 0, 1)])
        assert shape_of_thick(t) == (False, [1])

    def test_at_most_one_cycle_factor(self):
        for n in (1, 2, 3, 4):
            for t in enumerate_thick(cycle(n)):
                assert sum(1 for f in t.embedding.factors if f.cat.kind == "cycle") <= 1

    def test_perp_of_sphere_is_line_shaped(self):
        # inside the tube, the right orthogonal of a sphere-like arc is
        # an A_{n-1}-shaped subcategory
        n = 3
        descs = {frozenset(t.signature): t for t in enumerate_thick(cycle(n))}
        sphere = Arc(cycle(n), 0, n)
        sig = frozenset(
            y for y in all_arcs(cycle(n)) if dims(sphere, y) == (0, 0)
        )
        perp_desc = descs[sig]
        assert shape_of_thick(perp_desc) == (False, [n - 1])


class TestDuality:
    def _perp_desc(self, descs_by_sig, t, n):
        sig = frozenset(
            y
            for y in all_arcs(cycle(n))
            if all(dims(s, y) == (0, 0) for s in t.relative_simples())
        )
        return descs_by_sig[sig]

    def test_right_orthogonal_exchanges_types(self):
        for n in (1, 2, 3, 4):
            descs = enumerate_thick(cycle(n))
            by_sig = {frozenset(t.signature): t for t in descs}
            images = set()
            type_b = 0
            for t in descs:
                perp = self._perp_desc(by_sig, t, n)
                images.add(perp.signature)
                has_cycle_t, _ = shape_of_thick(t)
                has_cycle_p, _ = shape_of_thick(perp)
                if t.signature:
                    pass
                # zero and whole are each other's perps; zero counts type (a)
                assert has_cycle_t != has_cycle_p or (
                    not t.signature and not perp.relative_simples()
                )
                # double perp translates by tau, so shapes agree
                double = self._perp_desc(by_sig, perp, n)
                assert shape_of_thick(double) == shape_of_thick(t)
                if has_cycle_t:
                    type_b += 1
            assert len(images) == len(descs)  # bijection
            assert 2 * type_b == len(descs)  # half of each type


class TestZeroCategory:
    def test_line0(self):
        descs = enumerate_thick(line(0))
        assert len(descs) == 1
        assert descs[0].signature == ()
