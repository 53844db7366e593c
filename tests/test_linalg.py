from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from wpcalc import linalg


def fraction_rank_oracle(rows):
    """Rank by Gaussian elimination over ``Fraction``: the division route
    that ``linalg.rank``'s fraction-free integer elimination replaced."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0:
                continue
            ratio = f / pv
            mi, mr = m[i], m[r]
            for j in range(c, ncols):
                mi[j] -= ratio * mr[j]
        r += 1
        if r == nrows:
            break
    return r


def integral_rows(rows) -> list:
    """Each row times the lcm of its denominators: int rows of the same rank.

    A row of ints is passed through as it is, not copied.
    """
    out = []
    for row in rows:
        dens = [x.denominator for x in row if type(x) is not int]
        if dens:
            d = lcm(*dens)
            row = [x.numerator * (d // x.denominator) for x in row]
        out.append(row)
    return out


def dense_rank_oracle(rows):
    """Rank by dense fraction-free elimination on integral rows, column by
    column: the route that ``linalg.rank``'s sparse elimination replaced.

    Row i below the pivot row r becomes ``a·row_i − b·row_r`` with
    ``a/b`` the reduced ratio pivot/entry, then is divided by its
    content.
    """
    m = [row for row in integral_rows(rows) if any(row)]
    nrows = len(m)
    if nrows == 0:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        pv = pr[c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f == 0:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], pr)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == nrows:
            break
    return r


def mat_mul(a, b):
    """Dense product of two matrices given as lists of rows, for the tests'
    base changes and ``dense_is_nilpotent_oracle``."""
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = linalg.zero_matrix(n, p)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x == 0:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(p):
                oi[j] += x * bt[j]
    return out


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
)


@st.composite
def matrices(draw):
    """Rows of exact entries; some rows are rational combinations of others,
    some are all zero, and there may be no rows or no columns at all."""
    ncols = draw(st.integers(0, 6))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            coefs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(a * r[j] for a, r in zip(coefs, rows)) for j in range(ncols)])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_rank_matches_fraction_oracle(rows):
    before = [list(r) for r in rows]
    assert linalg.rank(rows) == fraction_rank_oracle(rows) == dense_rank_oracle(rows)
    assert rows == before  # rank works on a copy


@st.composite
def sparse_rows(draw):
    """The rows of ``matrices()`` as ``{column: entry}`` dicts with keys in
    a shuffled column order, each keeping a random part of its zero
    entries; some rows are empty dicts.  Returns (sparse rows, dense rows)."""
    dense = draw(matrices())
    ncols = len(dense[0]) if dense else 0
    cols = draw(st.permutations(range(ncols)))
    sparse = []
    for row in dense:
        keep = draw(st.integers(0, 2**ncols - 1))
        sparse.append({c: row[c] for c in cols if row[c] or keep >> c & 1})
    return sparse, dense


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_rows())
def test_rank_on_sparse_rows(rows):
    sparse, dense = rows
    before = [dict(r) for r in sparse]
    assert linalg.rank(sparse) == fraction_rank_oracle(dense)
    assert [list(r.items()) for r in sparse] == [list(r.items()) for r in before]


def test_rank_fixed_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    half = Fraction(1, 2)
    # (1/2, 1/3) and (3, 2) are proportional: one scale, rank 1
    assert linalg.rank([[half, Fraction(1, 3)], [3, 2]]) == 1
    assert linalg.rank([[half, Fraction(1, 3)], [3, Fraction(5, 2)]]) == 2
    big = 10**6
    assert linalg.rank([[big, big + 1], [big - 1, big]]) == 2
    assert linalg.rank([[big, big + 1], [2 * big, 2 * big + 2]]) == 1
    assert linalg.kernel_dimension([], 3) == 3
    assert linalg.rank([{}, {2: 0}]) == 0
    assert linalg.rank([{3: half, 0: Fraction(1, 3)}, {0: 2, 3: 3}]) == 1
    assert linalg.kernel_dimension([{1: 1, 0: -1}, {}], 3) == 2


def test_exact_entries():
    assert linalg.exact(Fraction(6, 3)) == 2 and type(linalg.exact(Fraction(6, 3))) is int
    assert linalg.exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(linalg.exact(True)) is int
    m = linalg.exact_matrix([[Fraction(4, 2), Fraction(1, 3)]], 1, 2)
    assert [type(x) for x in m[0]] == [int, Fraction]


def test_integral_rows_scale_each_row():
    rows = [[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(2, 1), 0, -1]]
    assert integral_rows(rows) == [[3, 2, 6], [2, 0, -1]]
