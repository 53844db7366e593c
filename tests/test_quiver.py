import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcalc import nilrep
from wpcalc.errors import DisconnectedQuiver, ParseError, UnknownVertex
from wpcalc.quiver import (
    ExtMatrix,
    Quiver,
    SerreKind,
    ext_quiver,
    is_acyclic,
    quiver_from_json_dict,
    quiver_from_text,
    quiver_to_json_dict,
    quiver_to_text,
    same_multigraph,
    serre_class,
    simple_ext_dims,
)

KRONECKER = Quiver([1, 2], [(1, 2), (1, 2)])
LOOP = Quiver([1], [(1, 1)])
A3 = Quiver([1, 2, 3], [(1, 2), (2, 3)])
Z2 = Quiver([1, 2], [(1, 2), (2, 1)])
Z3 = Quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


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
        i2, i1 = m.labels.index(2), m.labels.index(1)
        assert m.ext1[i2][i1] == 2
        assert m.ext1[i1][i2] == 0
        assert m.ext1[i1][i1] == 0 and m.ext1[i2][i2] == 0

    def test_one_loop(self):
        m = simple_ext_dims(LOOP)
        assert m.ext1 == ((1,),)

    def test_no_arrows(self):
        q = Quiver([1, 2, 3], [])
        assert simple_ext_dims(q).ext1 == ((0, 0, 0),) * 3

    def test_matches_matrix_oracle(self):
        rng = random.Random(7)
        for _ in range(12):
            q = random_quiver(rng, max_vertices=4, max_arrows=6)
            m = simple_ext_dims(q)
            for i, vi in enumerate(q.vertices):
                for j, vj in enumerate(q.vertices):
                    si, sj = nilrep.simple_rep(q, vi), nilrep.simple_rep(q, vj)
                    assert m.ext1[i][j] == nilrep.ext1_dim(si, sj)


class TestExtQuiver:
    def test_round_trip_small(self):
        for q in (KRONECKER, LOOP, A3, Z3, Quiver([1], [])):
            assert same_multigraph(ext_quiver(simple_ext_dims(q)), q)

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            q = random_quiver(rng)
            assert same_multigraph(ext_quiver(simple_ext_dims(q)), q)

    def test_star_from_matrix(self):
        # one Ext^1 from each torsion simple into the center gives a star
        labels = ["S1", "S2", "S3", "S4", "O"]
        rows = [[0] * 5 for _ in range(5)]
        for k in range(4):
            rows[k][4] = 1  # Ext^1(S_k, O) = 1
        q = ext_quiver(ExtMatrix(labels, rows))
        assert sorted(q.arrows) == [("O", f"S{k}") for k in range(1, 5)]

    def test_single_loop(self):
        q = ext_quiver(ExtMatrix(["x"], [[1]]))
        assert q.arrows == (("x", "x"),)


class TestPredicates:
    def test_strong_generator(self):
        assert is_acyclic(A3)
        assert not is_acyclic(Z2)
        assert is_acyclic(Quiver([1], []))
        assert not is_acyclic(LOOP)

    def test_serre_class_finite_paths(self):
        assert serre_class(A3).kind == SerreKind.FINITE_PATHS

    def test_serre_class_cycle(self):
        sc = serre_class(Z3)
        assert sc.kind == SerreKind.CYCLE and sc.cycle_length == 3
        assert serre_class(LOOP) == serre_class(LOOP)
        assert serre_class(LOOP).cycle_length == 1

    def test_serre_class_chord(self):
        # Z_2 plus a chord: infinitely many paths yet not a bare cycle
        chord = Quiver([1, 2], [(1, 2), (2, 1), (1, 2)])
        assert count_paths_is_finite(chord) is False
        assert serre_class(chord).kind == SerreKind.NO_SERRE

    def test_serre_class_requires_connected(self):
        with pytest.raises(DisconnectedQuiver):
            serre_class(Quiver([1, 2], []))

    def test_finite_paths_agrees_with_enumeration(self):
        rng = random.Random(3)
        for _ in range(30):
            q = random_quiver(rng, max_vertices=4, max_arrows=5)
            if not _connected(q):
                continue
            finite = count_paths_is_finite(q)
            assert (serre_class(q).kind == SerreKind.FINITE_PATHS) == finite


def _connected(q):
    from wpcalc.quiver import is_connected

    return is_connected(q)


def count_paths_is_finite(q, cap=200):
    """Independent oracle: enumerate paths breadth-first with a hard cap."""
    paths = [[v] for v in q.vertices]
    frontier = list(paths)
    while frontier:
        if len(paths) > cap:
            return False
        nxt = []
        for p in frontier:
            for s, t in q.arrows:
                if s == p[-1]:
                    nxt.append(p + [t])
        paths.extend(nxt)
        frontier = nxt
    return True


class TestFormats:
    def test_text_round_trip(self):
        text = quiver_to_text(Z3)
        assert quiver_from_text(text) == Z3
        assert "vertices: 1 2 3" in text

    def test_text_string_labels(self):
        q = Quiver(["O(0)", "S(1,1)"], [("O(0)", "S(1,1)")])
        assert quiver_from_text(quiver_to_text(q)) == q

    def test_json_round_trip(self):
        data = quiver_to_json_dict(KRONECKER)
        assert data == {"vertices": [1, 2], "arrows": [[1, 2], [1, 2]]}
        assert quiver_from_json_dict(data) == KRONECKER

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            quiver_from_text("arrow: 1 2\n")
        with pytest.raises(ParseError):
            quiver_from_text("vertices: 1\narrow: 1\n")
        with pytest.raises(ParseError):
            quiver_from_text("vertices: 1\narrow: 1 2\n")


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
    assert same_multigraph(ext_quiver(simple_ext_dims(q)), q)
