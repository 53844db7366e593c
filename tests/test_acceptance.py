"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (integer equalities and counts); criteria 1 and 5
also carry wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import itertools
import random
import time
from math import comb

from test_quiver import arrow_count, same_multigraph, simple_rep
from test_serial import expected_factor_quiver, mapped_family_quiver
from test_wpl import random_classes
from wpcalc import lgroup, nilrep, wpl
from wpcalc.lgroup import Weights
from wpcalc.quiver import Quiver
from wpcalc.serial import (
    Arc,
    all_arcs,
    cycle,
    dims,
    enumerate_thick,
    line,
    perp_arc,
    realize,
)
from wpcalc.wpl import (
    LineBundle,
    TorsionO,
    TorsionW,
    WplData,
    c_twist,
    canonical_collection,
    ext_quiver_of,
    hom_ext,
    is_vertex_like,
    perp_exceptional_torsion,
    sigma_twist,
    star_collection,
    tau_sheaf,
    top_m,
)


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


def test_criterion_1_tube_subcategory_counts():
    expected = {1: 2, 2: 6, 3: 20, 4: 70}
    start = time.perf_counter()
    got = {n: len(enumerate_thick(cycle(n))) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start
    assert got == expected, got
    assert all(got[n] == comb(2 * n, n) for n in got)
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    _report(1, f"|thick(U_n)| = {tuple(got.values())} = C(2n,n), {elapsed:.2f}s")


def test_criterion_2_big_subcategory_counts():
    values = {
        (2,): 3,
        (2, 3): 30,
        (3, 3, 3, 3): 10000,
    }
    for weights, expected in values.items():
        assert wpl.count_big(WplData(Weights(weights))) == expected
    _report(2, "big-subcategory counts 3 / 30 / 10000")


def test_criterion_3_kronecker_pair_fixture():
    w = WplData(Weights([2, 2, 2, 2]))
    lam = lgroup.parse_element(w.weights, "-c+x1+x2+x3+x4")
    L, O = LineBundle(lam), LineBundle(lgroup.zero(w.weights))
    assert hom_ext(w, L, O) == (0, 2)
    q = ext_quiver_of(w, [L, O])
    assert len(q.vertices) == 2
    assert q.arrows == ((str(O), str(L)), (str(O), str(L)))
    _report(3, "hom_ext(L, O) = (0, 2) and Ext-quiver is the 2-Kronecker")


def test_criterion_4_dual_star_fixture():
    w = WplData(Weights([3, 3, 3, 3]))
    _, dual = star_collection(w, [1, 1, 1, 1])
    assert is_vertex_like(w, dual)
    q = ext_quiver_of(w, dual)
    center = "O(0)"
    arms = [f"S({i},1)" for i in range(1, 5)]
    assert set(q.vertices) == {center, *arms}
    assert sorted(q.arrows) == sorted((center, a) for a in arms)
    # underlying graph: one degree-4 center, four degree-1 leaves
    degree = {v: 0 for v in q.vertices}
    for s, t in q.arrows:
        degree[s] += 1
        degree[t] += 1
    assert sorted(degree.values()) == [1, 1, 1, 1, 4]
    _report(4, "dual star family is vertex-like with 4-arm star Ext-quiver")


def test_criterion_5_serre_duality_suite():
    rng = random.Random(20240914)
    models = [
        WplData(Weights([2]), ["y"]),
        WplData(Weights([2, 3]), ["y"]),
        WplData(Weights([2, 2, 2, 2])),
    ]
    start = time.perf_counter()
    checked = 0
    for w in models:
        classes = random_classes(w, rng, 15)
        for f, g in itertools.product(classes, classes):
            assert hom_ext(w, f, g).ext1 == hom_ext(w, g, tau_sheaf(w, f)).hom
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 500
    assert elapsed < 5.0, f"Serre suite took {elapsed:.2f}s"
    _report(5, f"ext1(f,g) = hom(g, tau f) on {checked} pairs, {elapsed:.2f}s")


def test_criterion_6_oracle_equivalence():
    pairs = 0
    for n in (1, 2, 3, 4):
        arcs = all_arcs(cycle(n), 2 * n)
        reps = {a: realize(a) for a in arcs}
        for x, y in itertools.product(arcs, arcs):
            assert dims(x, y) == nilrep.hom_ext1(reps[x], reps[y])
            pairs += 1
    for n in (1, 2, 3, 4, 5):
        arcs = all_arcs(line(n))
        reps = {a: realize(a) for a in arcs}
        for x, y in itertools.product(arcs, arcs):
            assert dims(x, y) == nilrep.hom_ext1(reps[x], reps[y])
            pairs += 1
    _report(6, f"serial.dims matches the matrix oracle on {pairs} arc pairs")


def test_criterion_7_lemma_on_simples():
    rng = random.Random(7131)
    checked = 0
    for _ in range(50):
        nv = rng.randint(1, 6)
        vertices = list(range(1, nv + 1))
        arrows = [
            (rng.choice(vertices), rng.choice(vertices))
            for _ in range(rng.randint(0, 10))
        ]
        q = Quiver(vertices, arrows)
        for i in vertices:
            for j in vertices:
                si, sj = simple_rep(q, i), simple_rep(q, j)
                assert nilrep.ext1_dim(si, sj) == arrow_count(q, j, i)
                checked += 1
    _report(7, f"ext1(s_i, s_j) = #arrows(j -> i) on 50 random quivers ({checked} pairs)")


def test_criterion_8_perpendicular_recursion():
    for n in range(1, 6):
        for kind_arcs in (all_arcs(cycle(n)), all_arcs(line(n))):
            for e in kind_arcs:
                emb = perp_arc(e)
                q, objects = mapped_family_quiver(emb)
                for i, x in enumerate(objects):
                    assert dims(x, x).hom == 1
                    assert dims(e, x) == (0, 0)
                    for j, y in enumerate(objects):
                        if i != j:
                            assert dims(x, y).hom == 0
                assert same_multigraph(q, expected_factor_quiver(emb))
    w = WplData(Weights([3, 3, 3, 3]))
    res = perp_exceptional_torsion(w, TorsionW(1, 1, 1))
    assert res.new_weights == Weights([2, 3, 3, 3])
    _report(8, "perp families are vertex-like with the predicted Ext-quivers; "
               "weights (3,3,3,3) reduce to (2,3,3,3)")


def test_criterion_9_twist_identities():
    checked = 0
    for p in (1, 2):
        for rs in itertools.product((2, 3, 4, 5), repeat=p):
            w = WplData(Weights(rs), ["y"])
            gens = list(canonical_collection(w))
            for i in range(1, p + 1):
                r = rs[i - 1]
                gens.extend(TorsionW(i, t, length) for t in range(r) for length in (1, r))
            gens.append(TorsionO("y", 1))
            points = [(f"x{i}", rs[i - 1]) for i in range(1, p + 1)] + [("y", 1)]
            for point, weight in points:
                for f in gens:
                    g = f
                    for _ in range(weight):
                        g = sigma_twist(w, point, g)
                    assert g == c_twist(w, point, f)
                    if wpl.rank_of(f) == 0:
                        assert c_twist(w, point, f) == f
                    checked += 1
    _report(9, f"sigma^w = c and c fixes torsion on {checked} generator/point pairs")


def test_criterion_10_top_validation():
    rng = random.Random(4242)
    w = WplData(Weights([2, 3, 5]), ["y"])
    for _ in range(200):
        lam = lgroup.normalize(
            w.weights, rng.randint(-5, 5), [rng.randint(-6, 6) for _ in w.weights.r]
        )
        bundle = LineBundle(lam)
        for i in range(1, w.weights.p + 1):
            r = w.weights.r[i - 1]
            top = top_m(w, i, lam, 1)
            assert hom_ext(w, bundle, top).hom == 1
            for j in range(r):
                s = TorsionW(i, j, 1)
                if s != top:
                    assert hom_ext(w, bundle, s).hom == 0
    _report(10, "top_m(x_i, lam, 1) is the unique simple with hom = 1, 200 random lam")
