import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcalc import nilrep
from wpcalc.errors import UnknownVertex
from wpcalc.quiver import Quiver, ext_quiver, quiver_to_json_dict, quiver_to_text

KRONECKER = Quiver([1, 2], [(1, 2), (1, 2)])
LOOP = Quiver([1], [(1, 1)])
A3 = Quiver([1, 2, 3], [(1, 2), (2, 3)])
Z3 = Quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


def arrow_count(q, src, dst):
    return sum(1 for s, t in q.arrows if s == src and t == dst)


def same_multigraph(a: Quiver, b: Quiver) -> bool:
    """Equality as labeled multigraphs (vertex sets and arrow multisets)."""
    if set(a.vertices) != set(b.vertices):
        return False
    return sorted(map(repr, a.arrows)) == sorted(map(repr, b.arrows))


def simple_rep(q: Quiver, v) -> nilrep.Rep:
    """The simple module concentrated at vertex ``v``: all matrices zero."""
    if v not in q.vertices:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return nilrep.Rep(q, {v: 1}, [[] for _ in q.arrows])


def simple_ext_dims(q):
    """Ext^1 table of the simple nilpotent modules of ``q``, rows and
    columns in the order of ``q.vertices``.

    ``M[i][j] = dim Ext^1(s_i, s_j)`` equals the number of arrows of ``q``
    from ``j`` to ``i``: the oracle that fixes the Ext-quiver convention.
    Hom dimensions are the identity matrix and are not returned.
    """
    vs = q.vertices
    return tuple(tuple(arrow_count(q, vj, vi) for vj in vs) for vi in vs)


def round_trip(q):
    return ext_quiver(q.vertices, simple_ext_dims(q))


def random_quiver(rng, max_vertices=6, max_arrows=10):
    n = rng.randint(1, max_vertices)
    vertices = list(range(1, n + 1))
    arrows = [
        (rng.choice(vertices), rng.choice(vertices))
        for _ in range(rng.randint(0, max_arrows))
    ]
    return Quiver(vertices, arrows)


class TestSimpleExtDims:
    def test_kronecker(self):
        m = simple_ext_dims(KRONECKER)
        # Ext^1(s_2, s_1) counts arrows 1 -> 2
        i2, i1 = KRONECKER.vertices.index(2), KRONECKER.vertices.index(1)
        assert m[i2][i1] == 2
        assert m[i1][i2] == 0
        assert m[i1][i1] == 0 and m[i2][i2] == 0

    def test_one_loop(self):
        m = simple_ext_dims(LOOP)
        assert m == ((1,),)

    def test_no_arrows(self):
        q = Quiver([1, 2, 3], [])
        assert simple_ext_dims(q) == ((0, 0, 0),) * 3

    def test_matches_matrix_oracle(self):
        rng = random.Random(7)
        for _ in range(12):
            q = random_quiver(rng, max_vertices=4, max_arrows=6)
            m = simple_ext_dims(q)
            for i, vi in enumerate(q.vertices):
                for j, vj in enumerate(q.vertices):
                    si, sj = simple_rep(q, vi), simple_rep(q, vj)
                    assert m[i][j] == nilrep.ext1_dim(si, sj)


class TestExtQuiver:
    def test_round_trip_small(self):
        for q in (KRONECKER, LOOP, A3, Z3, Quiver([1], [])):
            assert same_multigraph(round_trip(q), q)

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            q = random_quiver(rng)
            assert same_multigraph(round_trip(q), q)

    def test_star_from_matrix(self):
        # one Ext^1 from each torsion simple into the center gives a star
        labels = ["S1", "S2", "S3", "S4", "O"]
        rows = [[0] * 5 for _ in range(5)]
        for k in range(4):
            rows[k][4] = 1  # Ext^1(S_k, O) = 1
        q = ext_quiver(labels, rows)
        assert sorted(q.arrows) == [("O", f"S{k}") for k in range(1, 5)]

    def test_single_loop(self):
        q = ext_quiver(["x"], [[1]])
        assert q.arrows == (("x", "x"),)


class TestFormats:
    """The output formats are pinned exactly: no reader round-trips them."""

    def test_text_round_trip(self):
        assert quiver_to_text(Z3) == "vertices: 1 2 3\narrow: 1 2\narrow: 2 3\narrow: 3 1\n"

    def test_text_string_labels(self):
        q = Quiver(["O(0)", "S(1,1)"], [("O(0)", "S(1,1)")])
        assert quiver_to_text(q) == "vertices: O(0) S(1,1)\narrow: O(0) S(1,1)\n"
        assert quiver_to_text(Quiver([1], [])) == "vertices: 1\n"

    def test_json_round_trip(self):
        assert quiver_to_json_dict(KRONECKER) == {"vertices": [1, 2], "arrows": [[1, 2], [1, 2]]}
        assert quiver_to_json_dict(LOOP) == {"vertices": [1], "arrows": [[1, 1]]}


class TestValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(UnknownVertex):
            Quiver([1, 1], [])

    def test_dangling_arrow(self):
        with pytest.raises(UnknownVertex):
            Quiver([1], [(1, 2)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(1, 5))
    vertices = list(range(n))
    arrows = data.draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
            max_size=8,
        )
    )
    q = Quiver(vertices, arrows)
    assert same_multigraph(round_trip(q), q)
