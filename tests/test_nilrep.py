import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_serial
from test_linalg import dense_rank_oracle, mat_mul
from test_quiver import arrow_count
from wpcalc import linalg, nilrep, serial
from wpcalc.errors import NonNegativityViolation, QuiverMismatch, UnknownVertex
from wpcalc.quiver import Quiver
from wpcalc.serial import Arc, cycle, line, line_arc, realize

KRONECKER = Quiver([1, 2], [(1, 2), (1, 2)])
LOOP = serial.cycle_quiver(1)
A2 = serial.line_quiver(2)
A3 = serial.line_quiver(3)
Z3 = serial.cycle_quiver(3)


# (category, longest arc): U(1..4) with arcs up to twice the rank, A(0..6)
# with all arcs; 2,228 ordered pairs of realized arcs
REALIZED_CATS = [(cycle(n), 2 * n) for n in range(1, 5)] + [(line(n), None) for n in range(7)]


def jordan(l):
    """Nilpotent Jordan block of size l as a loop-quiver representation."""
    return realize(Arc(cycle(1), 0, l))


class TestConstruction:
    def test_simple_rep(self):
        s = nilrep.simple_rep(LOOP, 0)
        assert s.dims == {0: 1}
        assert s.mats[0] == [[0]]
        s2 = nilrep.simple_rep(A2, 2)
        assert s2.dims == {1: 0, 2: 1}
        assert s2.mats[0] == []
        k1 = nilrep.simple_rep(KRONECKER, 1)
        assert k1.dims == {1: 1, 2: 0}

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            nilrep.Rep(LOOP, {0: 1}, [[[1]]])

    def test_accepts_nilpotent_loop(self):
        r = nilrep.Rep(LOOP, {0: 2}, [[[0, 0], [1, 0]]])
        assert r.total_dim() == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nilrep.Rep(A2, {1: 1, 2: 1}, [[[1, 2]]])

    def test_negative_dimension(self):
        with pytest.raises(ValueError):
            nilrep.Rep(A2, {1: -1, 2: 1}, [[]])

    def test_one_matrix_per_arrow(self):
        with pytest.raises(ValueError):
            nilrep.Rep(A2, {1: 1, 2: 1}, [])
        with pytest.raises(ValueError):
            nilrep.Rep(A2, {1: 1, 2: 1}, [[[0]], [[0]]])

    def test_non_integral_dimension(self):
        loop = Quiver((0,), ((0, 0),))
        for d in (1.7, Fraction(3, 2)):
            with pytest.raises(ValueError):
                nilrep.Rep(loop, {0: d}, [[]])
        for d in (2, Fraction(4, 2), 2.0):
            r = nilrep.Rep(loop, {0: d}, [[]])
            assert r.dims == {0: 2} and type(r.dims[0]) is int

    def test_zero_dimensional_end(self):
        # a matrix on an arrow u -> v has shape dims[u] x dims[v]; with a
        # zero-dimensional end, only [] (or k empty rows for k x 0) fits
        q = Quiver([0, 1], [(0, 1)])
        cases = [
            ({0: 0, 1: 1}, [[]], [[[5]], [[0]], [[]]]),
            ({0: 2, 1: 0}, [[], [[], []]], [[[5], []], [[0], [0]], [[]], [[], [], []]]),
            ({0: 0, 1: 0}, [[]], [[[]], [[7]]]),
        ]
        for dims, accepted, rejected in cases:
            for m in accepted:
                assert nilrep.Rep(q, dims, [m]).mats == [[]]
            for m in rejected:
                with pytest.raises(ValueError, match="must be"):
                    nilrep.Rep(q, dims, [m])

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            nilrep.simple_rep(A2, 7)
        with pytest.raises(UnknownVertex):
            nilrep.Rep(A2, {7: 1}, [[]])


class TestHomDim:
    def test_simples(self):
        for q in (A3, Z3, KRONECKER):
            for i in q.vertices:
                for j in q.vertices:
                    expect = 1 if i == j else 0
                    assert nilrep.hom_dim(
                        nilrep.simple_rep(q, i), nilrep.simple_rep(q, j)
                    ) == expect

    def test_jordan_commutant(self):
        # the commutant of a nilpotent Jordan block is spanned by its powers
        for l in range(1, 5):
            assert nilrep.hom_dim(jordan(l), jordan(l)) == l

    def test_interval_to_simple(self):
        # hom from an interval to its top simple is 1, to its socle simple 0;
        # the inclusions go the other way (convention-relative, recorded in
        # serial: top of the interval [1,2] is s_2)
        m12 = realize(line_arc(2, 1, 2))
        s1 = nilrep.simple_rep(A2, 1)
        s2 = nilrep.simple_rep(A2, 2)
        assert nilrep.hom_dim(m12, s2) == 1
        assert nilrep.hom_dim(s2, m12) == 0
        assert nilrep.hom_dim(m12, s1) == 0
        assert nilrep.hom_dim(s1, m12) == 1
        # agreement with the closed form
        assert (nilrep.hom_dim(m12, s2), nilrep.hom_dim(m12, s1)) == (
            serial.dims(line_arc(2, 1, 2), line_arc(2, 2, 2)).hom,
            serial.dims(line_arc(2, 1, 2), line_arc(2, 1, 1)).hom,
        )

    def test_quiver_mismatch(self):
        with pytest.raises(QuiverMismatch):
            nilrep.hom_dim(nilrep.simple_rep(A2, 1), nilrep.simple_rep(A3, 1))


def dense_hom_dim_oracle(m, n):
    """Hom dimension from dense equation rows, filled by loops over whole
    arrow matrices and eliminated column by column (``dense_rank_oracle``):
    the route that ``nilrep.hom_dim``'s sparse build replaced."""
    q = m.quiver
    var_offset = {}
    nvars = 0
    for v in q.vertices:
        var_offset[v] = nvars
        nvars += n.dims[v] * m.dims[v]

    def var_index(v, row, col):
        # phi_v has shape (n.dims[v], m.dims[v]), row-major
        return var_offset[v] + row * m.dims[v] + col

    rows = []
    for k, (u, v) in enumerate(q.arrows):
        am, an = m.mats[k], n.mats[k]
        for r in range(n.dims[u]):
            for c in range(m.dims[v]):
                row = [0] * nvars
                # (phi_u . am)[r][c] = sum_s phi_u[r][s] am[s][c]
                for s in range(m.dims[u]):
                    coef = am[s][c]
                    if coef:
                        row[var_index(u, r, s)] += coef
                # -(an . phi_v)[r][c] = -sum_s an[r][s] phi_v[s][c]
                for s in range(n.dims[v]):
                    coef = an[r][s]
                    if coef:
                        row[var_index(v, s, c)] -= coef
                if any(row):
                    rows.append(row)
    return nvars - dense_rank_oracle(rows)


class TestDenseOracle:
    def test_realized_arcs(self):
        # each arc conjugated by a random invertible integer matrix at every
        # vertex, so rows are dense and rational
        rng = random.Random(14)
        pairs = 0
        for cat, max_length in REALIZED_CATS:
            arcs = serial.all_arcs(cat, max_length)
            reps = [test_serial._base_change(rng, realize(a)) for a in arcs]
            for x in reps:
                for y in reps:
                    assert nilrep.hom_dim(x, y) == dense_hom_dim_oracle(x, y)
                    pairs += 1
        assert pairs == 2_228

    def test_random_reps(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 4)
            x = test_serial._base_change(rng, random_cycle_rep(rng, n), TestRationalEntries.SCALARS)
            y = random_cycle_rep(rng, n)
            assert nilrep.hom_dim(x, y) == dense_hom_dim_oracle(x, y)
            assert nilrep.hom_dim(y, x) == dense_hom_dim_oracle(y, x)

    def test_rep_not_isomorphic_to_its_negative(self):
        # two loops acting as J and J^2 (J a 3x3 Jordan block): no base
        # change negates both, so a sign slip between the two sides of
        # phi . A_m = A_n . phi shows
        q = Quiver((0,), ((0, 0), (0, 0)))
        j = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        j2 = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
        x = nilrep.Rep(q, {0: 3}, [j, j2])
        neg = nilrep.Rep(q, {0: 3}, [[[-e for e in row] for row in m] for m in (j, j2)])
        assert (nilrep.hom_dim(x, x), nilrep.hom_dim(x, neg)) == (3, 2)
        rng = random.Random(7)
        reps = [x, neg, test_serial._base_change(rng, x), test_serial._base_change(rng, neg)]
        for a in reps:
            for b in reps:
                assert nilrep.hom_dim(a, b) == dense_hom_dim_oracle(a, b)


def dense_is_nilpotent_oracle(q, dims, mats):
    """Nilpotency of the dense total action on the whole space, with its
    denominators cleared, squared by dense products until it is zero or
    its exponent reaches the dimension: the route that ``Rep``'s sparse
    check replaced.  Takes raw ``(q, dims, mats)``, so it also judges
    input that ``Rep`` rejects."""
    offset = {}
    n = 0
    for v in q.vertices:
        offset[v] = n
        n += dims.get(v, 0)
    big = linalg.zero_matrix(n, n)
    for (u, v), m in zip(q.arrows, mats):
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                big[offset[u] + i][offset[v] + j] += Fraction(x)
    d = lcm(*[x.denominator for row in big for x in row])
    t = [[x.numerator * (d // x.denominator) for x in row] for row in big]
    exponent = 1
    while any(x for row in t for x in row):
        if exponent >= n:
            return False
        t = mat_mul(t, t)
        exponent *= 2
    return True


def _constructs(q, dims, mats) -> bool:
    """Whether ``Rep`` accepts the input; it may only refuse it as not nilpotent."""
    try:
        nilrep.Rep(q, dims, mats)
    except ValueError as exc:
        assert "not nilpotent" in str(exc)
        return False
    return True


TWO_LOOPS = Quiver((0,), ((0, 0), (0, 0)))
NILPOTENCY_QUIVERS = {
    "cycle": Z3,
    "line": A3,
    "loop": LOOP,
    "two loops": TWO_LOOPS,
    "kronecker": KRONECKER,
}


class TestSparseNilpotency:
    def test_hand_cases(self):
        j = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        j2 = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
        a, b = [[0, 1], [0, 0]], [[1, 0], [0, 1]]
        assert mat_mul(a, b) == a  # the 2-cycle's product is nonzero
        c, c_inv = [[1, 1], [0, 1]], [[1, -1], [0, 1]]
        assert mat_mul(c, c_inv) == b  # AB = I
        z2 = serial.cycle_quiver(2)
        cases = [
            (LOOP, {0: 2}, [[[1, 1], [-1, -1]]], True),  # support has a cycle
            (TWO_LOOPS, {0: 3}, [j, j2], True),
            (TWO_LOOPS, {0: 1}, [[[1]], [[-1]]], True),  # the two loops cancel
            (TWO_LOOPS, {0: 2}, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], False),
            (z2, {0: 2, 1: 2}, [a, b], True),
            (z2, {0: 2, 1: 2}, [c, c_inv], False),
            (z2, {0: 1, 1: 1}, [[[Fraction(2, 3)]], [[Fraction(3, 2)]]], False),
            (LOOP, {0: 2}, [[[Fraction(1, 2), Fraction(1, 4)], [-1, Fraction(-1, 2)]]], True),
        ]
        for q, dims, mats, nilpotent in cases:
            assert dense_is_nilpotent_oracle(q, dims, mats) is nilpotent, mats
            assert _constructs(q, dims, mats) is nilpotent, mats

    @pytest.mark.parametrize("name", sorted(NILPOTENCY_QUIVERS))
    @pytest.mark.parametrize("rational", [False, True])
    def test_random_reps(self, name, rational):
        q = NILPOTENCY_QUIVERS[name]
        entries = [0] * 6 + [1, -1, 2]
        if rational:
            entries += [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
        rng = random.Random(f"{name}:{rational}")
        seen = set()
        for _ in range(150):
            dims = {v: rng.randint(0, 3) for v in q.vertices}
            mats = [
                [[rng.choice(entries) for _ in range(dims[v])] for _ in range(dims[u])]
                for u, v in q.arrows
            ]
            nilpotent = dense_is_nilpotent_oracle(q, dims, mats)
            assert _constructs(q, dims, mats) is nilpotent, (dims, mats)
            seen.add(nilpotent)
        # the line and the Kronecker quiver have no oriented cycle
        assert seen == ({True} if name in ("line", "kronecker") else {True, False})

    def test_base_changed_reps(self):
        # dense rational matrices that are nilpotent by construction
        rng = random.Random(15)
        for _ in range(40):
            rep = random_cycle_rep(rng, rng.randint(1, 4))
            rep = test_serial._base_change(rng, rep, TestRationalEntries.SCALARS)
            assert dense_is_nilpotent_oracle(rep.quiver, rep.dims, rep.mats)
            assert rep._is_nilpotent()


class TestEulerForm:
    def test_no_arrows_dot_product(self):
        q = Quiver([1, 2, 3], [])
        ones = {1: 1, 2: 1, 3: 1}
        assert nilrep.euler_form(q, ones, ones) == 3

    def test_kronecker_delta(self):
        assert nilrep.euler_form(KRONECKER, {2: 1}, {1: 1}) == -2

    def test_loop(self):
        assert nilrep.euler_form(LOOP, {0: 1}, {0: 1}) == 0

    def test_unknown_vertex(self):
        with pytest.raises(QuiverMismatch):
            nilrep.euler_form(LOOP, {5: 1}, {0: 1})
        with pytest.raises(QuiverMismatch):
            nilrep.euler_form(KRONECKER, {1: 1}, [(2, 1), (3, 0)])

    def test_missing_vertices_count_as_zero(self):
        assert nilrep.euler_form(KRONECKER, {}, {1: 4}) == 0
        assert nilrep.euler_form(KRONECKER, [(2, 1)], {1: 1, 2: 3}) == 3 - 2


class TestOneEulerRecipe:
    """``hom_ext1`` reads its Euler term off the reps' ``dims`` directly;
    it must equal ``euler_form`` on the copied dimension vectors."""

    @staticmethod
    def _check(x, y):
        d, e = nilrep.dim_vector(x), nilrep.dim_vector(y)
        _, ext = nilrep.hom_ext1(x, y)
        assert ext == nilrep.hom_dim(x, y) - nilrep.euler_form(x.quiver, d, e)

    def test_realized_arcs(self):
        pairs = 0
        for cat, max_length in REALIZED_CATS:
            reps = [realize(a) for a in serial.all_arcs(cat, max_length)]
            for x in reps:
                for y in reps:
                    self._check(x, y)
                    pairs += 1
        assert pairs == 2_228

    def test_random_reps(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(1, 4)
            x = test_serial._base_change(rng, random_cycle_rep(rng, n), TestRationalEntries.SCALARS)
            y = random_cycle_rep(rng, n)
            self._check(x, y)
            self._check(y, x)


class TestExt1:
    def test_lemma_identity_fixed_quivers(self):
        for q in (A3, Z3, KRONECKER):
            for i in q.vertices:
                for j in q.vertices:
                    si, sj = nilrep.simple_rep(q, i), nilrep.simple_rep(q, j)
                    assert nilrep.ext1_dim(si, sj) == arrow_count(q, j, i)

    def test_loop_jordan_pair(self):
        j2, j1 = jordan(2), jordan(1)
        assert nilrep.euler_form(LOOP, nilrep.dim_vector(j2), nilrep.dim_vector(j1)) == 0
        assert nilrep.hom_ext1(j2, j1) == (1, 1)
        # independent check: extension data B modulo coboundaries psi.N - N.psi
        n_j2 = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
        coboundaries = []
        for k in range(2):  # basis psi = e_k^T of Hom(k^2, k^1)
            psi = [[Fraction(1 if t == k else 0) for t in range(2)]]
            coboundaries.append(mat_mul(psi, n_j2)[0])
        assert 2 - linalg.rank(coboundaries) == 1

    def test_hom_ext1_is_hom_dim_and_ext1_dim(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            x, y = random_cycle_rep(rng, n), random_cycle_rep(rng, n)
            assert nilrep.hom_ext1(x, y) == (nilrep.hom_dim(x, y), nilrep.ext1_dim(x, y))
        with pytest.raises(QuiverMismatch):
            nilrep.hom_ext1(nilrep.simple_rep(A2, 1), nilrep.simple_rep(A3, 1))

    def test_zero_target(self):
        z = nilrep.Rep(Z3, {}, [[] for _ in Z3.arrows])
        assert nilrep.ext1_dim(realize(Arc(cycle(3), 0, 2)), z) == 0

    def test_projectives_have_no_ext(self):
        # projective right modules are the full path spans into a vertex:
        # over A_n these are the intervals [1, v]
        for n, quiver in ((2, A2), (3, A3)):
            projs = [realize(line_arc(n, 1, v)) for v in range(1, n + 1)]
            probes = [realize(a) for a in serial.all_arcs(line(n))]
            for p in projs:
                for x in probes:
                    assert nilrep.ext1_dim(p, x) == 0


def random_cycle_rep(rng, n, total_max=6):
    """Random nilpotent rep of Z_n: a direct sum of arcs, base-changed."""
    q = serial.cycle_quiver(n)
    rep = nilrep.Rep(q, {}, [[] for _ in q.arrows])
    budget = rng.randint(1, total_max)
    while budget > 0:
        length = rng.randint(1, min(budget, 2 * n))
        rep = direct_sum(rep, realize(Arc(cycle(n), rng.randrange(n), length)))
        budget -= length
    return test_serial._base_change(rng, rep)


def direct_sum(m, n):
    """Block-diagonal direct sum of two representations of one quiver."""
    q = m.quiver
    assert n.quiver == q
    dims = {v: m.dims[v] + n.dims[v] for v in q.vertices}
    mats = []
    for k, (u, v) in enumerate(q.arrows):
        block = [[0] * dims[v] for _ in range(dims[u])]
        for i, row in enumerate(m.mats[k]):
            block[i][:len(row)] = row
        for i, row in enumerate(n.mats[k]):
            block[m.dims[u] + i][m.dims[v]:] = row
        mats.append(block)
    return nilrep.Rep(q, dims, mats)


def rotate_cycle_rep(rep):
    """tau: relabel vertices by -1; the arrow at u picks up the matrix at u+1."""
    q = rep.quiver
    n = len(q.vertices)
    dims = {v: rep.dims[(v + 1) % n] for v in q.vertices}
    mats = [rep.mats[(u + 1) % n] for (u, _) in q.arrows]
    return nilrep.Rep(q, dims, mats)


class TestSerreDuality:
    def test_rotation_on_simples(self):
        s0 = nilrep.simple_rep(Z3, 0)
        assert nilrep.dim_vector(rotate_cycle_rep(s0)) == {0: 0, 1: 0, 2: 1}

    def test_random_reps(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(1, 4)
            x = random_cycle_rep(rng, n)
            y = random_cycle_rep(rng, n)
            assert nilrep.ext1_dim(x, y) == nilrep.hom_dim(y, rotate_cycle_rep(x))


class TestRationalEntries:
    SCALARS = [Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(5, 7)]

    def test_entries_are_int_where_integral(self):
        # the one base-change recipe gives rational entries in both its
        # forms: a random integer matrix, and a diagonal rescale
        rng = random.Random(17)
        arc = realize(Arc(cycle(2), 1, 4))
        for rep in (test_serial._base_change(rng, arc), test_serial._base_change(rng, arc, self.SCALARS)):
            entries = [x for m in rep.mats for row in m for x in row]
            assert any(type(x) is Fraction for x in entries)
            assert all(type(x) is int or x.denominator != 1 for x in entries)

    def test_nilpotency_check_on_rational_entries(self):
        nilrep.Rep(LOOP, {0: 2}, [[[0, 0], [Fraction(1, 3), 0]]])
        with pytest.raises(ValueError):
            nilrep.Rep(LOOP, {0: 1}, [[[Fraction(1, 2)]]])
        with pytest.raises(ValueError):
            nilrep.Rep(LOOP, {0: 2}, [[[0, Fraction(1, 2)], [Fraction(1, 3), 0]]])

    def test_diagonal_base_change_keeps_hom_and_ext(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            x = random_cycle_rep(rng, n)
            y = random_cycle_rep(rng, n)
            x2 = test_serial._base_change(rng, x, self.SCALARS)
            y2 = test_serial._base_change(rng, y, self.SCALARS[::-1])
            dims = nilrep.hom_ext1(x, y)
            assert nilrep.hom_ext1(x2, y2) == dims
            assert nilrep.hom_ext1(x2, y) == dims
            assert nilrep.hom_ext1(x, y2) == dims


class TestAdditivity:
    def test_direct_sums(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 3)
            a = random_cycle_rep(rng, n, total_max=4)
            b = random_cycle_rep(rng, n, total_max=4)
            c = random_cycle_rep(rng, n, total_max=4)
            ab = direct_sum(a, b)
            assert nilrep.hom_dim(ab, c) == nilrep.hom_dim(a, c) + nilrep.hom_dim(b, c)
            assert nilrep.hom_dim(c, ab) == nilrep.hom_dim(c, a) + nilrep.hom_dim(c, b)
            assert nilrep.ext1_dim(ab, c) == nilrep.ext1_dim(a, c) + nilrep.ext1_dim(b, c)
            assert nilrep.ext1_dim(c, ab) == nilrep.ext1_dim(c, a) + nilrep.ext1_dim(c, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ext1_nonnegative_on_random_quivers(data):
    nv = data.draw(st.integers(1, 5))
    vertices = list(range(nv))
    arrows = data.draw(
        st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=8)
    )
    q = Quiver(vertices, arrows)
    i = data.draw(st.sampled_from(vertices))
    j = data.draw(st.sampled_from(vertices))
    si, sj = nilrep.simple_rep(q, i), nilrep.simple_rep(q, j)
    try:
        val = nilrep.ext1_dim(si, sj)
    except NonNegativityViolation:
        pytest.fail("defect went negative on simples")
    assert val == arrow_count(q, j, i)
