import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpcalc import lgroup
from wpcalc.errors import LengthMismatch, ParseError, WeightMismatch
from wpcalc.lgroup import (
    LElement,
    Weights,
    add,
    cbar,
    format_element,
    neg,
    normalize,
    omega,
    parse_element,
    scale,
    sub,
    xbar,
    zero,
)

W4 = Weights([2, 2, 2, 2])
W3333 = Weights([3, 3, 3, 3])
W3 = Weights([3])
W0 = Weights([])


@st.composite
def weights_st(draw):
    return Weights(draw(st.lists(st.integers(2, 5), min_size=0, max_size=4)))


@st.composite
def raw_element(draw, w):
    a = draw(st.integers(-20, 20))
    b = draw(st.lists(st.integers(-20, 20), min_size=w.p, max_size=w.p))
    return normalize(w, a, b)


class TestNormalize:
    def test_carries_down(self):
        # c - (x1+x2+x3+x4) over (2,2,2,2) normalizes to -3c + sum x_i
        assert normalize(W4, 1, [-1, -1, -1, -1]) == LElement(-3, (1, 1, 1, 1))

    def test_identity(self):
        assert normalize(W3333, 0, [0, 0, 0, 0]) == zero(W3333)

    def test_carry_up(self):
        assert normalize(W3, 0, [5]) == LElement(1, (2,))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            normalize(W3, 0, [1, 2])

    def test_idempotent(self):
        u = normalize(W3333, -7, [5, -4, 9, 0])
        assert normalize(W3333, u.a, list(u.b)) == u


class TestGroupOps:
    def test_relation(self):
        x1 = xbar(W3333, 1)
        assert add(W3333, add(W3333, x1, x1), x1) == cbar(W3333)

    def test_relation_all_weights(self):
        for w in (W4, W3, Weights([2, 5])):
            for i in range(1, w.p + 1):
                total = zero(w)
                for _ in range(w.r[i - 1]):
                    total = add(w, total, xbar(w, i))
                assert total == cbar(w)

    def test_inverse(self):
        u = normalize(W4, 3, [1, 0, 1, 1])
        assert add(W4, u, neg(W4, u)) == zero(W4)

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatch):
            add(W3, zero(W3), zero(W4))

    def test_xbar_index_out_of_range(self):
        for i in (0, 2):
            with pytest.raises(WeightMismatch):
                xbar(W3, i)


class TestOmega:
    def test_2222(self):
        assert omega(W4) == LElement(-2, (1, 1, 1, 1))

    def test_empty(self):
        assert omega(W0) == LElement(-2, ())

    def test_double_omega_3333(self):
        # 2*(r_i - 1) = 4 = 3 + 1 carries at every coordinate
        assert add(W3333, omega(W3333), omega(W3333)) == LElement(0, (1, 1, 1, 1))


class TestParseFormat:
    def test_parse_examples(self):
        assert parse_element(W4, "-c+x1+x2+x3+x4") == LElement(-1, (1, 1, 1, 1))
        assert parse_element(W4, "2c + x1 - 3x2") == normalize(W4, 2, [1, -3, 0, 0])
        assert parse_element(W4, "0") == zero(W4)
        assert parse_element(W0, "3") == LElement(3, ())

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_element(W3, "x2")
        with pytest.raises(ParseError):
            parse_element(W3, "c+")
        with pytest.raises(ParseError):
            parse_element(W3, "")
        # terms after the first need a sign; whitespace may not split a number
        for text in ("1 2", "x1x2", "cc", "2c3x1"):
            with pytest.raises(ParseError):
                parse_element(W4, text)
        assert parse_element(W4, "2c + x1 - 3x2") == normalize(W4, 2, [1, -3, 0, 0])
        assert parse_element(W4, "2 x1") == normalize(W4, 0, [2, 0, 0, 0])

    def test_format_round_trip(self):
        for u in (zero(W4), omega(W4), normalize(W4, -3, [1, 1, 1, 1]), cbar(W4)):
            assert parse_element(W4, format_element(u)) == u

    def test_format_examples(self):
        assert format_element(zero(W0)) == "0"
        assert format_element(LElement(-3, (1, 1, 1, 1))) == "-3c+x1+x2+x3+x4"
        assert format_element(LElement(1, (0, 2))) == "c+2x2"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_abelian_group_laws(data):
    w = data.draw(weights_st())
    u = data.draw(raw_element(w))
    v = data.draw(raw_element(w))
    t = data.draw(raw_element(w))
    assert add(w, u, v) == add(w, v, u)
    assert add(w, add(w, u, v), t) == add(w, u, add(w, v, t))
    assert add(w, u, neg(w, u)) == zero(w)
    assert add(w, u, zero(w)) == u


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normalize_well_defined(data):
    w = data.draw(weights_st())
    a1 = data.draw(st.integers(-10, 10))
    b1 = data.draw(st.lists(st.integers(-10, 10), min_size=w.p, max_size=w.p))
    a2 = data.draw(st.integers(-10, 10))
    b2 = data.draw(st.lists(st.integers(-10, 10), min_size=w.p, max_size=w.p))
    lhs = add(w, normalize(w, a1, b1), normalize(w, a2, b2))
    rhs = normalize(w, a1 + a2, [x + y for x, y in zip(b1, b2)])
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scale_matches_repeated_add(data):
    w = data.draw(weights_st())
    u = data.draw(raw_element(w))
    k = data.draw(st.integers(0, 6))
    total = zero(w)
    for _ in range(k):
        total = add(w, total, u)
    assert scale(w, k, u) == total
    assert sub(w, u, u) == zero(w)
