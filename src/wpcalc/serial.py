"""Serial categories: linear quivers A_n and tubes U_n.

Indecomposables are arcs, written (top, length).  Composition factors of
an arc, read from the top down to the socle, are the simples
``top, top-1, ..., top-length+1`` (cyclically for a tube).  For a line
category the arc (top=j, length=l) is the interval module supported on
vertices ``j-l+1 .. j``; under the right-module convention its top simple
sits at the *larger* vertex index j.  The translate tau decreases tops by
one; tau^n = id on a rank-n tube.

Hom dimensions between arcs have a closed form (count of admissible
landing positions of the top basis vector), and Ext^1 is Serre-dual to a
Hom on a line as in a tube.  The matrix-level oracle for all of this
lives in :mod:`wpcalc.nilrep` via :func:`realize`.

Thick subcategories are enumerated as joins of one-arc closures.  Every
thick subcategory here is admissible, so it is the join of the
subcategories its member arcs generate, and its right orthogonal
determines it (double orthogonality).  Arcs of length <= rank are bits
of Python ints, and Hom/Ext-orthogonal and subarc sets are masks.  The
right orthogonal of a join is the AND of the members' right masks.  The
walk starts from the zero subcategory's right orthogonal (every arc) and
ANDs each state only with the right masks of its own set bits, the arcs
g in T^perp, which joins T with g; the states it reaches are the right
orthogonals, one per subcategory.  Counting collects them and closes
nothing.  The states are also the member masks: T^perp is thick, and
every thick S is the right orthogonal of its left orthogonal.  So
enumeration reads the signatures off the states, computes each state's
relative simples once, and looks up a subcategory's left generators as
the relative simples of the state that is its left orthogonal.  Bit order is ``Arc`` order, so a
mask lists its arcs sorted, and masks sort like descriptors.

The masks come from one zero table per category: entry (g, y) says
whether Hom(g, y) and Ext^1(g, y) both vanish.  Its rows are the arcs'
right masks, which the walk reads; its columns are the left masks, which
closures read.  On a line, enumeration calls ``dims`` once per ordered
pair of arcs for the rows; on a rank-n tube, tau^-1 moves every bit by n,
so ``dims`` runs only for the n arcs at top 0 (n^3 calls) and the other
rows are rotations.  Every column is filled by transposing the rows; a
single ``thick_closure`` reads few columns and fills only those, from
``dims``.  The index itself is arithmetic: bit(t, l) is t*n + l - 1 on
U_n and t(t-1)/2 + l - 1 on A_n.  Descriptors are built eagerly, their
block structure from per-bit block-below and block-above masks; ``Arc``
values are made only for their output tuples.  An intern table on the
index, keyed by the mask of a factor's blocks, makes each distinct chain
or cycle factor once per enumeration or closure, and every descriptor
that contains it shares it; no table outlives the call.
"""

import re
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    CategoryMismatch,
    InvalidArc,
    NoTranslationForLine,
    ParseError,
    check_digit_runs,
)

MAX_CYCLE_RANK = 6
MAX_LINE_RANK = 8


class _SerialCatFields(NamedTuple):
    kind: str  # "line" | "cycle"
    rank: int


class SerialCat(_SerialCatFields):
    __slots__ = ()

    def __new__(cls, kind, rank):
        if kind not in ("line", "cycle"):
            raise InvalidArc(f"unknown serial kind {kind!r}")
        if kind == "line" and rank < 0:
            raise InvalidArc("line rank must be >= 0")
        if kind == "cycle" and rank < 1:
            raise InvalidArc("cycle rank must be >= 1")
        return tuple.__new__(cls, (kind, rank))

    def __str__(self):
        return ("U(%d)" if self.kind == "cycle" else "A(%d)") % self.rank


def line(n: int) -> SerialCat:
    return SerialCat("line", n)


def cycle(n: int) -> SerialCat:
    return SerialCat("cycle", n)


class _ArcFields(NamedTuple):
    cat: SerialCat
    top: int
    length: int


class Arc(_ArcFields):
    """An arc; arcs order by ``(cat, top, length)``."""

    __slots__ = ()

    def __new__(cls, cat, top, length):
        if length < 1:
            raise InvalidArc("arc length must be >= 1")
        if cat.kind == "cycle":
            top %= cat.rank
        else:
            if not 1 <= top <= cat.rank:
                raise InvalidArc(f"line top {top} out of 1..{cat.rank}")
            if length > top:
                raise InvalidArc(f"interval would leave the quiver: top {top}, length {length}")
        return tuple.__new__(cls, (cat, top, length))

    def interval(self):
        """(low, high) vertex span; line arcs only."""
        if self.cat.kind != "line":
            raise InvalidArc("interval() is for line arcs")
        return (self.top - self.length + 1, self.top)

    def __str__(self):
        if self.cat.kind == "cycle":
            return f"{self.cat}:arc({self.top},{self.length})"
        lo, hi = self.interval()
        return f"{self.cat}:arc({lo},{hi})"


def line_arc(n: int, i: int, j: int) -> Arc:
    """The interval module on vertices i..j of A_n (i <= j)."""
    if i > j:
        raise InvalidArc(f"empty interval [{i},{j}]")
    return Arc(line(n), j, j - i + 1)


class ArcClass(Enum):
    EXCEPTIONAL = "exceptional"
    SPHERE_LIKE = "sphere_like"
    NEITHER = "neither"


class HomExt(NamedTuple):
    hom: int
    ext1: int


def tau(a: Arc) -> Arc:
    """Translate on a tube: same length, top decremented by one (mod n)."""
    if a.cat.kind != "cycle":
        raise NoTranslationForLine("tau is only defined on tube arcs")
    return Arc(a.cat, (a.top - 1) % a.cat.rank, a.length)


def _count_congruent(lo: int, hi: int, residue: int, n: int) -> int:
    """#{ j in [lo, hi] : j = residue mod n }, for hi >= lo - 1."""
    return (hi - residue) // n - (lo - 1 - residue) // n


def _hom(cat: SerialCat, shift: int, lx: int, ly: int) -> int:
    """dim Hom(x, y) for arcs of lengths lx, ly with y.top - x.top = shift.

    A map is determined by the image of the top basis vector of x, which
    must live in the fiber of y at x.top and die after lx shifts; on a
    line the shift is not reduced mod the rank.
    """
    lo = max(0, ly - lx)
    if cat.kind == "cycle":
        n = cat.rank
        return _count_congruent(lo, ly - 1, shift % n, n)
    return 1 if lo <= shift < ly else 0


def dims(x: Arc, y: Arc) -> HomExt:
    """(dim Hom(x,y), dim Ext^1(x,y)) in the serial category.

    Ext^1(x, y) = D Hom(y, tau x) by Serre duality; tau lowers the top by
    one and kills a projective line arc (socle at vertex 1).
    """
    cat = x.cat
    if cat != y.cat:
        raise CategoryMismatch(f"arcs live in different categories: {cat} vs {y.cat}")
    hom = _hom(cat, y.top - x.top, x.length, y.length)
    if cat.kind == "line" and x.length == x.top:
        return HomExt(hom, 0)
    return HomExt(hom, _hom(cat, x.top - 1 - y.top, y.length, x.length))


def classify_arc(a: Arc) -> ArcClass:
    """Exceptional / sphere-like / neither, by length against the rank."""
    if a.cat.kind == "line" or a.length < a.cat.rank:
        return ArcClass.EXCEPTIONAL
    if a.length == a.cat.rank:
        return ArcClass.SPHERE_LIKE
    return ArcClass.NEITHER


# -- matrix realization -------------------------------------------------------


@lru_cache(maxsize=32)
def cycle_quiver(n: int) -> "Quiver":
    """Oriented cycle Z_n on vertices 0..n-1, arrows i -> i+1 (mod n)."""
    from .quiver import Quiver

    return Quiver(range(n), [(i, (i + 1) % n) for i in range(n)])


@lru_cache(maxsize=32)
def line_quiver(n: int) -> "Quiver":
    """Linear quiver A_n on vertices 1..n, arrows i -> i+1."""
    from .quiver import Quiver

    return Quiver(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def realize(a: Arc):
    """The arc as a concrete nilpotent :class:`wpcalc.nilrep.Rep` (0/1 shift matrices).

    Basis vector e_k (k = 0..length-1) sits at vertex top-k; the total
    action sends e_k to e_{k+1}.  The matrix of arrow (u, u+1) maps the
    fiber at u+1 into the fiber at u, per the right-module convention.
    The matrix oracle is imported here, so the closed-form engine and the
    CLI do not load it.
    """
    from . import nilrep

    if a.cat.kind == "cycle":
        n = a.cat.rank
        q = cycle_quiver(n)
        vertex_of = [(a.top - k) % n for k in range(a.length)]
    else:
        n = a.cat.rank
        q = line_quiver(n)
        vertex_of = [a.top - k for k in range(a.length)]
    fiber = {v: [] for v in q.vertices}
    for k, v in enumerate(vertex_of):
        fiber[v].append(k)
    dims = {v: len(ks) for v, ks in fiber.items()}
    mats = []
    for (u, v) in q.arrows:
        if dims[u] == 0 or dims[v] == 0:
            mats.append([])
            continue
        m = [[0] * dims[v] for _ in range(dims[u])]
        for col, k in enumerate(fiber[v]):
            if k + 1 < a.length and vertex_of[k + 1] == u:
                m[fiber[u].index(k + 1)][col] = 1
        mats.append(m)
    return nilrep.Rep(q, dims, mats)


# -- perpendicular categories and embeddings ----------------------------------


class EmbeddedFactor(NamedTuple):
    """One factor of a perpendicular category, with its ambient simples.

    ``simple_images[k]`` is the ambient arc standing for the abstract
    simple: residue k for a cycle factor, vertex k+1 for a line factor.
    The images are consecutive: the block for the abstract simple tau(s)
    sits directly below the block for s.  So the embedding functor sends
    an abstract arc to the ambient arc that concatenates the blocks of its
    composition factors, top block first; the engine never needs that
    image.
    """

    cat: SerialCat
    simple_images: tuple  # of Arc


class Embedding(NamedTuple):
    ambient: SerialCat
    factors: tuple  # of EmbeddedFactor


def perp_arc(e: Arc) -> Embedding:
    """Right perpendicular of an indecomposable, with explicit generators.

    For a tube arc of length m < n the perpendicular is a rank n-m tube
    times A_{m-1}; the tube factor's simples are the later simples
    ``top+1, ..., top+n-m-1`` together with the length m+1 arc over the
    same top, the line factor's simples are the earlier simples
    ``top-m+1, ..., top-1``.  For m = n only the line factor survives.
    Line categories decompose analogously, with the interval one step
    below the removed one extended to its top.
    """
    cat = e.cat
    if cat.kind == "cycle":
        n, m, s = cat.rank, e.length, e.top
        if m > n:
            raise InvalidArc(
                f"perp_arc needs an exceptional or sphere-like arc; length {m} > rank {n}"
            )
        factors = []
        if m < n:
            images = [Arc(cat, s, m + 1)]
            images += [Arc(cat, s + a, 1) for a in range(1, n - m)]
            factors.append(EmbeddedFactor(cycle(n - m), tuple(images)))
        chain = tuple(Arc(cat, s - m + i, 1) for i in range(1, m))
        factors.append(EmbeddedFactor(line(m - 1), chain))
        return Embedding(cat, tuple(factors))

    n, m = cat.rank, e.length
    p, q = e.interval()
    images = []
    if p >= 2:
        images += [Arc(cat, i, 1) for i in range(1, p - 1)]
        images.append(line_arc(n, p - 1, q))
    images += [Arc(cat, i, 1) for i in range(q + 1, n + 1)]
    chain = tuple(Arc(cat, i, 1) for i in range(p, q))
    return Embedding(
        cat,
        (
            EmbeddedFactor(line(n - m), tuple(images)),
            EmbeddedFactor(line(m - 1), chain),
        ),
    )


# -- thick subcategories -------------------------------------------------------


class ThickDesc(NamedTuple):
    """A thick subcategory: member signature, factors, generators.

    ``signature`` lists the member arcs of length <= rank (sorted); it
    determines the subcategory.  ``embedding`` organizes the relative
    simples into at most one cycle factor (first) plus line factors.
    ``left_orthogonal`` generates the left perpendicular and drives the
    membership test.
    """

    cat: SerialCat
    signature: tuple  # of Arc, sorted
    embedding: Embedding
    left_orthogonal: tuple  # of Arc

    def relative_simples(self):
        return [img for f in self.embedding.factors for img in f.simple_images]


def all_arcs(cat: SerialCat, max_length=None):
    """Every arc of length <= max_length (default: the rank)."""
    cap = cat.rank if max_length is None else max_length
    if cat.kind == "cycle":
        return [Arc(cat, t, l) for t in range(cat.rank) for l in range(1, cap + 1)]
    return [
        line_arc(cat.rank, i, j)
        for i in range(1, cat.rank + 1)
        for j in range(i, min(cat.rank, i + cap - 1) + 1)
    ]


def _zero_bits(pairs) -> int:
    """Mask of the positions where (Hom, Ext^1) vanishes."""
    return sum(1 << k for k, he in enumerate(pairs) if he == (0, 0))


def _bits(mask: int) -> list:
    """Positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _ArcIndex:
    """Bitset view of the arcs of length <= rank of one category.

    Bit k stands for ``arcs[k]``; bit order is ``Arc`` order, so ascending
    bits list sorted arcs.  ``sub[k]`` masks the proper subarcs of arc k;
    ``below[k]`` masks the arcs whose top is one step below arc k's socle,
    and ``above[k]`` the arcs whose socle sits one step below arc k's top.
    The zero table holds, for each ordered pair (g, y), whether
    Hom(g, y) = Ext^1(g, y) = 0.  Row g is the right mask of g (the arcs
    right-orthogonal to g); ``rows`` computes every row for the walk over
    right orthogonals, and ``right`` one row, for an arc of any length.  On
    a tube, bits run through the n lengths of one top and then the next,
    so ``rows`` calls ``dims`` only for the n arcs at top 0 (n^3 calls)
    and rotates their rows by n bits for each later top; a line's rows
    take a ``dims`` call per ordered pair.  Column k is the left mask of
    arc k (the arcs left-orthogonal to it): enumeration fills every left
    mask by transposing the rows, and a single closure fills from
    ``dims`` only the left masks it reads, in ``left_of``.
    """

    def __init__(self, cat: SerialCat):
        self.cat = cat
        n = cat.rank
        if cat.kind == "cycle":
            # bit(t, l) = t*n + l - 1; the lists are doubled, so they take the
            # tops t-l and t+j below 0 and past n-1 without reducing mod n
            first, height, reach = [t * n for t in range(n)] * 2, [n] * 2 * n, [n] * n
            tops = range(n)
        else:
            # bit(t, l) = t(t-1)/2 + l - 1; top t has t lengths, top 0 none
            first = [t * (t - 1) // 2 for t in range(n + 1)]
            height, reach, tops = range(n + 1), [n - t for t in range(n + 1)], range(1, n + 1)
        self.arcs = [Arc(cat, t, l) for t in tops for l in range(1, height[t] + 1)]
        self.full = (1 << len(self.arcs)) - 1
        self.sub, self.below, self.above = [], [], []
        for _, t, l in self.arcs:
            # arc (t, l) has the proper subarcs (t-l+j, j), the arcs at top
            # t-l directly below it and the arcs (t+j, j) directly above
            self.sub.append(sum(1 << first[t - l + j] + j - 1 for j in range(1, l)))
            self.below.append((1 << height[t - l]) - 1 << first[t - l])
            self.above.append(sum(1 << first[t + j] + j - 1 for j in range(1, reach[t] + 1)))
        self.lines = [line(m) for m in range(cat.rank + 1)]
        self.cycles = [cycle(m) for m in range(1, cat.rank + 1)]
        # (sort key, factor) by the mask of the factor's blocks; a chain's
        # blocks never close up into a cycle, so one table holds both kinds
        self.factors = {}
        self._left = [None] * len(self.arcs)

    def factor(self, cat: SerialCat, walk: list) -> tuple:
        """(sort key, factor ``cat`` whose simples are the arcs at ``walk``).

        ``walk`` runs from the bottom block up.  Disjoint chains of one
        length differ in their bottom block, so the key, which orders by
        (-length, bottom block), sorts chains by (-length, bits).
        """
        return walk[0] - len(walk) * len(self.arcs), EmbeddedFactor(cat, self.members(walk))

    def right(self, g: Arc) -> int:
        """Mask of the arcs right-orthogonal to g, an arc of any length."""
        return _zero_bits(dims(g, y) for y in self.arcs)

    def rows(self) -> list:
        """The right mask of every arc, by bit."""
        if self.cat.kind == "line":
            return [self.right(g) for g in self.arcs]
        # arc (t+1, l) is tau^-1 of (t, l), and tau^-1 moves every bit by n
        n = self.cat.rank
        size = n * n
        rows = [self.right(g) for g in self.arcs[:n]]
        for k in range(size - n):
            r = rows[k]
            rows.append((r << n | r >> (size - n)) & self.full)
        return rows

    def fill_left(self, rows: list) -> None:
        """Fill every left mask from ``rows``: bit y of column k is bit k of rows[y]."""
        left = [0] * len(rows)
        for y, row in enumerate(rows):
            for k in _bits(row):
                left[k] |= 1 << y
        self._left = left

    def minimal(self, mask: int, bits=None) -> list:
        """Bits of the members with no proper member subarc: the relative simples.

        ``bits``, if given, are the set bits of ``mask``.
        """
        sub = self.sub
        return [k for k in (_bits(mask) if bits is None else bits) if not sub[k] & mask]

    def left_of(self, bits) -> int:
        """Mask of the arcs left-orthogonal to every arc at the given bits.

        A left mask not yet filled is filled from ``dims`` and kept.
        """
        mask = self.full
        left = self._left
        for k in bits:
            if left[k] is None:
                g = self.arcs[k]
                left[k] = _zero_bits(dims(y, g) for y in self.arcs)
            mask &= left[k]
        return mask

    def closure(self, right: int) -> int:
        """Members of the thick subcategory whose right orthogonal is ``right``.

        Double orthogonality: the closure T is admissible, so T = perp(T^perp);
        reduce the right orthogonal to its relative simples and collect
        everything left-orthogonal to those.
        """
        return self.left_of(self.minimal(right))

    def members(self, bits) -> tuple:
        """The arcs at the given bits."""
        return tuple(map(self.arcs.__getitem__, bits))


def _block_structure(idx: _ArcIndex, rel: list) -> Embedding:
    """Organize relative simples (ascending bits) into cycle/line factors by adjacency.

    Block A sits directly below block B when A's top is one step below B's
    socle, that is, A is in ``below[B]``.  Within an orthogonal family tops
    are distinct, so each block has at most one block directly below it and
    one directly above: the walks down from the blocks with nothing above
    are the chains, and the blocks left over tile one cycle.  Chains sort
    by (-length, bits), which is (-rank, simple images) because bit order
    is ``Arc`` order.  A factor is looked up by the mask of its blocks and
    made only the first time the index meets it.
    """
    below, above, interned = idx.below, idx.above, idx.factors
    family = 0
    for k in rel:
        family |= 1 << k
    chains = []
    rest = family
    for k in rel:
        over = above[k] & family
        if over:
            assert not over & (over - 1), "two blocks directly above one block"
            continue
        walk, chain = [k], 1 << k
        under = below[k] & family
        while under:
            assert not under & (under - 1), "two blocks directly below one block"
            walk.append(under.bit_length() - 1)
            chain |= under
            under = below[walk[-1]] & family
        rest ^= chain
        if chain not in interned:
            walk.reverse()
            interned[chain] = idx.factor(idx.lines[len(walk)], walk)
        chains.append(interned[chain])
    chains.sort()
    factors = [f for _, f in chains]
    if not rest:
        return Embedding(idx.cat, tuple(factors))
    if rest not in interned:
        start = (rest & -rest).bit_length() - 1
        walk = [start]
        under = below[start] & family
        while under != 1 << start:
            assert under and not under & (under - 1), "two blocks directly below one block"
            walk.append(under.bit_length() - 1)
            under = below[walk[-1]] & family
        assert len(walk) == rest.bit_count(), "two cycle factors cannot coexist"
        # walk is B_a, B_{a-1}, ...; reverse so images[k-1] is below images[k]
        walk.reverse()
        interned[rest] = idx.factor(idx.cycles[len(walk) - 1], walk)
    return Embedding(idx.cat, (interned[rest][1], *factors))


def _build_desc(idx: _ArcIndex, bits: list, rel: list, left: list) -> ThickDesc:
    """The descriptor of the subcategory with member bits ``bits``.

    ``rel`` are the bits of its relative simples and ``left`` those of the
    relative simples of its left orthogonal, which generate that.
    """
    return ThickDesc(idx.cat, idx.members(bits), _block_structure(idx, rel), idx.members(left))


def thick_closure(cat: SerialCat, gens) -> ThickDesc:
    """The thick subcategory generated by the given arcs."""
    idx = _ArcIndex(cat)
    right = idx.full
    for g in gens:
        if g.cat != cat:
            raise CategoryMismatch(f"generator {g} is not in {cat}")
        right &= idx.right(g)
    closed = idx.closure(right)
    bits = _bits(closed)
    rel = idx.minimal(closed, bits)
    return _build_desc(idx, bits, rel, idx.minimal(idx.left_of(rel)))


def _right_orthogonals(full: int, rows: list):
    """Yield the right-orthogonal masks of all thick subcategories, each with its set bits.

    Walk them from ``full``, the zero subcategory's.  A state is T^perp
    for a thick T, and its set bits are the arcs g right-orthogonal to T;
    ANDing it with g's right mask gives the right orthogonal of the
    semiorthogonal join of T and g.  Every nonzero thick T' is such a
    join of a smaller thick T with an arc of T' in T^perp, so these steps
    reach every state; no state is closed, and no bit list is kept.
    """
    seen = {full}
    todo = [full]
    while todo:
        state = todo.pop()
        bits = _bits(state)
        yield state, bits
        for k in bits:
            joined = state & rows[k]
            if joined not in seen:
                seen.add(joined)
                todo.append(joined)


def membership(t: ThickDesc, x: Arc) -> bool:
    """Does the arc belong to the thick subcategory?

    Double-orthogonal test: Hom and Ext^1 from every stored generator of
    the left perpendicular must vanish on x.  Valid for arcs of any
    length because the subcategory is admissible.
    """
    if x.cat != t.cat:
        raise CategoryMismatch(f"arc {x} is not in {t.cat}")
    return all(dims(g, x) == (0, 0) for g in t.left_orthogonal)


def _capped_index(cat: SerialCat) -> _ArcIndex:
    """The category's index, if enumeration accepts its rank."""
    if cat.kind == "cycle" and cat.rank > MAX_CYCLE_RANK:
        raise BoundExceeded(f"tube enumeration capped at rank {MAX_CYCLE_RANK}")
    if cat.kind == "line" and cat.rank > MAX_LINE_RANK:
        raise BoundExceeded(f"line enumeration capped at rank {MAX_LINE_RANK}")
    return _ArcIndex(cat)


def count_thick(cat: SerialCat) -> int:
    """Number of thick subcategories; closes none and builds no descriptor."""
    idx = _capped_index(cat)
    return sum(1 for _ in _right_orthogonals(idx.full, idx.rows()))


def enumerate_thick(cat: SerialCat):
    """All thick subcategories of the serial category, canonically sorted.

    Every thick T is the right orthogonal of its left orthogonal, so the
    walk's states are exactly the member masks, and each is a descriptor's
    signature as it stands.  The relative simples are computed once per
    state; T's left orthogonal is a state too, and its relative simples,
    looked up, are T's left generators.  The order is (number of members,
    sorted members); bit order is ``Arc`` order, so the states sort by
    (popcount, ascending bits) before any descriptor is built.
    """
    idx = _capped_index(cat)
    rows = idx.rows()
    idx.fill_left(rows)
    states = dict(_right_orthogonals(idx.full, rows))
    rel = {mask: idx.minimal(mask, bits) for mask, bits in states.items()}
    ordered = sorted(states, key=states.__getitem__)
    ordered.sort(key=int.bit_count)  # stable: ties keep the order of their bits
    # a state's bit list serves only its signature: drop it once read
    return [
        _build_desc(idx, states.pop(mask), rel[mask], rel[idx.left_of(rel[mask])])
        for mask in ordered
    ]


def shape_of_thick(t: ThickDesc):
    """(has cycle factor, line factor lengths in sorted order)."""
    cats = [f.cat for f in t.embedding.factors]
    has_cycle = any(f.kind == "cycle" for f in cats)
    lengths = sorted(f.rank for f in cats if f.kind == "line" and f.rank > 0)
    return has_cycle, lengths


# -- CLI literals --------------------------------------------------------------


def parse_arc(text: str) -> Arc:
    """Parse ``U(n):arc(top,len)`` or ``A(n):arc(i,j)`` literals."""
    check_digit_runs(text)
    m = re.fullmatch(r"\s*([UA])\((\d+)\):arc\((-?\d+),(-?\d+)\)\s*", text)
    if not m:
        raise ParseError(f"bad arc literal {text!r}")
    kind, n, first, second = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    try:
        if kind == "U":
            return Arc(cycle(n), first, second)
        return line_arc(n, first, second)
    except InvalidArc as exc:
        raise ParseError(f"bad arc literal {text!r}: {exc}") from exc
