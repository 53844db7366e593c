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
    out = [[0] * p for _ in range(n)]
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


def dense_matrices(rep) -> list:
    """The arrow matrices of a ``nilrep.Rep`` as dense lists of rows, rebuilt
    from its ``dims`` and ``nonzeros``, for the tests' dense oracles."""
    mats = []
    for (u, v), nonzeros in zip(rep.quiver.arrows, rep.nonzeros):
        m = [[0] * rep.dims[v] for _ in range(rep.dims[u])]
        for i, j, x in nonzeros:
            m[i][j] = x
        mats.append(m)
    return mats


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
    sparse = [dict(enumerate(r)) for r in rows]  # zero entries kept
    before = [dict(r) for r in sparse]
    assert linalg.rank(sparse) == fraction_rank_oracle(rows) == dense_rank_oracle(rows)
    assert sparse == before  # rank works on a copy


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
    assert linalg.rank([{}, {}]) == 0
    assert linalg.rank([{0: 0, 1: 0}, {0: 0, 1: 0}]) == 0
    half = Fraction(1, 2)
    # (1/2, 1/3) and (3, 2) are proportional: one scale, rank 1
    assert linalg.rank([{0: half, 1: Fraction(1, 3)}, {0: 3, 1: 2}]) == 1
    assert linalg.rank([{0: half, 1: Fraction(1, 3)}, {0: 3, 1: Fraction(5, 2)}]) == 2
    big = 10**6
    assert linalg.rank([{0: big, 1: big + 1}, {0: big - 1, 1: big}]) == 2
    assert linalg.rank([{0: big, 1: big + 1}, {0: 2 * big, 1: 2 * big + 2}]) == 1
    assert linalg.kernel_dimension([], 3) == 3
    assert linalg.rank([{}, {2: 0}]) == 0
    assert linalg.rank([{3: half, 0: Fraction(1, 3)}, {0: 2, 3: 3}]) == 1
    assert linalg.kernel_dimension([{1: 1, 0: -1}, {}], 3) == 2


def rank_keeping_inputs(rows) -> int:
    """``linalg.rank(rows)``, after asserting that every input dict still
    equals, key order included, a copy taken before the call."""
    before = [list(r.items()) for r in rows]
    k = linalg.rank(rows)
    assert [list(r.items()) for r in rows] == before
    return k


def test_rank_same_dict_twice():
    # the first occurrence is stored as the pivot itself; the second must
    # be reduced on a copy, not on the pivot it is reduced against
    row = {0: 1, 1: 2}
    assert rank_keeping_inputs([row, row]) == 1
    content = {0: 2, 1: 4}
    assert rank_keeping_inputs([content, content, row]) == 1


def test_rank_reduces_against_a_stored_clean_row():
    p = {0: 1, 1: 2}  # content 1: kept as the pivot itself
    q = {0: 3, 1: 1}  # q - 3p = {1: -5}, a one-entry pivot
    s = {1: 2, 2: 3}  # scaled by -5, then reduced to the one-entry pivot {2: -15}
    t = {2: 4}  # scaled and reduced to nothing; in the reverse order all
    # four are kept as given and each later row is reduced against them
    assert rank_keeping_inputs([p, q, s, t]) == 3
    assert rank_keeping_inputs([t, s, q, p]) == 3
    w = {0: 2, 1: 4}  # content 2: its pivot is divided
    assert rank_keeping_inputs([w, {0: 1, 1: 3}, {0: 5, 1: 10}]) == 2


def test_rank_zeros_and_fractions_after_clean_rows():
    half = Fraction(1, 2)
    rows = [
        {0: 1, 1: 1},
        {1: 1, 2: 1},
        {0: 2, 1: 0, 2: 0, 3: 0},  # zeros dropped, then reduced to {2: 2}
        {0: half, 2: -half},  # (first row - second row) / 2: reduced to nothing
        {3: Fraction(2, 3), 1: 0},
    ]
    dense = [[r.get(c, 0) for c in range(4)] for r in rows]
    assert rank_keeping_inputs(rows) == fraction_rank_oracle(dense) == 4
    assert rank_keeping_inputs(rows[:4]) == 3


def test_exact_entries():
    assert linalg.exact(Fraction(6, 3)) == 2 and type(linalg.exact(Fraction(6, 3))) is int
    assert linalg.exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(linalg.exact(True)) is int


def test_integral_rows_scale_each_row():
    rows = [[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(2, 1), 0, -1]]
    assert integral_rows(rows) == [[3, 2, 6], [2, 0, -1]]
