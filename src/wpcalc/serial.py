"""Serial categories: linear quivers A_n and tubes U_n.

Indecomposables are arcs, written (top, length).  Composition factors of
an arc, read from the top down to the socle, are the simples
``top, top-1, ..., top-length+1`` (cyclically for a tube).  For a line
category the arc (top=j, length=l) is the interval module supported on
vertices ``j-l+1 .. j``; under the right-module convention its top simple
sits at the *larger* vertex index j.  The translate tau decreases tops by
one; tau^n = id on a rank-n tube.

A_n is U_{n+1} without residue 0: the Serre subcategory of the modules
with no composition factor there, the arc (j, l) of A_n being the arc of
U_{n+1} with the same top and length.  So Hom and Ext^1 between arcs are
one tube count, :func:`wpcalc.tube.cycle_dims` on
``SerialCat.tube_rank``, for both kinds, and the sheaf model's torsion
pairs share it; ``all_arcs`` and ``perp_arc`` list and cut arcs on that
tube too, and intervals appear only in literals.  The matrix oracle,
:mod:`wpcalc.nilrep` via :func:`realize`, builds a line arc on the
quiver A_n itself, so it checks this reading rather than repeating it.

Thick subcategories are enumerated as joins of one-arc closures.  Every
thick subcategory here is admissible, so it is the join of the
subcategories its member arcs generate, and its right orthogonal
determines it (double orthogonality).  That is why sets of arcs are
masks: arcs of length <= rank are the bits of a Python int, the right
orthogonal of a join is the AND of its members' right masks, and the
thick subcategories are the states of a walk of ANDs.  The masks come
from one zero table per category, :class:`_ArcIndex`, whose rows
:func:`cycle_zero_row` reads off residues; :func:`enumerate_thick` walks
the states, the walk's one loop over a state's bits also reads off its
relative simples and their mask, and :func:`_block_structure` reads the
subcategory's factors off those and one adjacency mask.  ``count_thick``
walks nothing: it returns the closed forms, which the tests check
against the walk.  Each enumeration or closure builds its own index, so
no table outlives the call.
"""

import re
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BoundExceeded,
    CategoryMismatch,
    InvalidArc,
    ParseError,
    check_digit_runs,
)
from .tube import HomExt, cycle_dims

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
        if type(rank) is not int:
            raise InvalidArc(f"{kind} rank must be an integer, got {rank!r}")
        if kind == "line" and rank < 0:
            raise InvalidArc("line rank must be >= 0")
        if kind == "cycle" and rank < 1:
            raise InvalidArc("cycle rank must be >= 1")
        return tuple.__new__(cls, (kind, rank))

    @property
    def tube_rank(self) -> int:
        """Rank of the tube whose counts this category reads: U_n is its
        own tube, and A_n is U_{n+1} without residue 0."""
        return self.rank + 1 if self.kind == "line" else self.rank

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
        if not isinstance(cat, SerialCat):
            raise InvalidArc(f"an arc needs a serial category, got {cat!r}")
        if type(top) is not int or type(length) is not int:
            raise InvalidArc(f"arc top and length must be integers, got {top!r}, {length!r}")
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
    if type(i) is not int or type(j) is not int:
        raise InvalidArc(f"interval ends must be integers, got {i!r}, {j!r}")
    if i > j:
        raise InvalidArc(f"empty interval [{i},{j}]")
    return Arc(line(n), j, j - i + 1)


def cycle_zero_row(n: int, top: int, length: int, arcs) -> int:
    """Mask of the arcs y with Hom(x, y) = Ext^1(x, y) = 0, x the arc of U_n
    with this top and length; bit k stands for ``arcs[k]``.

    ``arcs`` are (cat, top, length) triples, such as the arcs of U_n or
    of a category that reads its counts on U_n (its ``tube_rank``); only
    top and length are read.  A count of the j = r mod n in [lo, hi] is
    zero when its floor quotients agree, that is, when the largest such
    j <= hi, which is hi - (hi - r) mod n, falls below lo.  Both of
    ``cycle_dims``' ranges hold m = min(lx, ly) integers, so with shift s
    Hom vanishes when (ly - 1 - s) mod n >= m and Ext^1 when
    (lx + s) mod n >= m.  No ``HomExt`` is made per entry.
    """
    row, bit = 0, 1
    for _, t, l in arcs:
        m = length if length < l else l
        s = t - top
        if (l - 1 - s) % n >= m and (length + s) % n >= m:
            row |= bit
        bit <<= 1
    return row


def dims(x: Arc, y: Arc) -> HomExt:
    """(dim Hom(x,y), dim Ext^1(x,y)) in the serial category.

    One tube count on the category's ``tube_rank``: an arc of A_n is the
    arc of U_{n+1} with the same top and length.
    """
    if not (isinstance(x, Arc) and isinstance(y, Arc)):
        raise InvalidArc(f"dims needs two arcs, got {x!r}, {y!r}")
    cat = x.cat
    if cat != y.cat:
        raise CategoryMismatch(f"arcs live in different categories: {cat} vs {y.cat}")
    return cycle_dims(cat.tube_rank, y.top - x.top, x.length, y.length)


# -- matrix realization -------------------------------------------------------


def cycle_quiver(n: int) -> "Quiver":
    """Oriented cycle Z_n on vertices 0..n-1, arrows i -> i+1 (mod n)."""
    from .quiver import Quiver

    return Quiver(range(n), [(i, (i + 1) % n) for i in range(n)])


def line_quiver(n: int) -> "Quiver":
    """Linear quiver A_n on vertices 1..n, arrows i -> i+1."""
    from .quiver import Quiver

    return Quiver(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def realize(a: Arc):
    """The arc as a concrete nilpotent :class:`wpcalc.nilrep.Rep` (0/1 shift matrices).

    On the tube of rank n = ``tube_rank``, e_k (k = 0..length-1) is vector
    k // n of the fiber at residue top-k.  The action sends e_{k-1} to e_k
    (k >= 1): with u the residue of e_k, arrow (u, u+1), number u minus the
    first vertex, maps the fiber at u+1 into the fiber at u (right modules)
    and has a 1 at [k // n][(k - 1) // n].  The matrix oracle is imported
    here, so the closed-form engine and the CLI do not load it.
    """
    if not isinstance(a, Arc):
        raise InvalidArc(f"realize needs an arc, got {a!r}")
    from . import nilrep

    n = a.cat.tube_rank
    q = cycle_quiver(n) if a.cat.kind == "cycle" else line_quiver(a.cat.rank)
    dims = dict.fromkeys(q.vertices, 0)
    for k in range(a.length):
        dims[(a.top - k) % n] += 1
    mats = [[[0] * dims[v] for _ in range(dims[u])] for u, v in q.arrows]
    first = q.vertices[0]
    for k in range(1, a.length):
        u = (a.top - k) % n
        mats[u - first][k // n][(k - 1) // n] = 1
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

    Read on the tube of rank n = ``tube_rank``: for an arc of length m < n
    with top s the perpendicular is a rank n-m tube times A_{m-1}; the
    tube factor's simples are the length m+1 arc over s followed by the
    simples ``s+1, ..., s+n-m-1``, the line factor's simples are
    ``s-m+1, ..., s-1``.  For m = n only the line factor survives.  On
    A_{n-1} the tube factor loses its block at residue 0, which leaves a
    line factor read from residue 1 up: the simples ``1, ..., s-m-1``,
    the arc (s, m+1) when s > m, and the simples ``s+1, ..., n-1``.
    """
    if not isinstance(e, Arc):
        raise InvalidArc(f"perp_arc needs an arc, got {e!r}")
    cat = e.cat
    n, m, s = cat.tube_rank, e.length, e.top
    if m > n:
        raise InvalidArc(
            f"perp_arc needs an exceptional or sphere-like arc; length {m} > rank {n}"
        )
    chain = EmbeddedFactor(line(m - 1), tuple(Arc(cat, s - m + i, 1) for i in range(1, m)))
    if cat.kind == "line":
        images = [Arc(cat, i, 1) for i in range(1, s - m)]
        if s > m:
            images.append(Arc(cat, s, m + 1))
        images += [Arc(cat, i, 1) for i in range(s + 1, n)]
        return Embedding(cat, (EmbeddedFactor(line(n - m - 1), tuple(images)), chain))
    if m == n:
        return Embedding(cat, (chain,))
    images = [Arc(cat, s, m + 1)] + [Arc(cat, s + a, 1) for a in range(1, n - m)]
    return Embedding(cat, (EmbeddedFactor(cycle(n - m), tuple(images)), chain))


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
    """Every arc of length <= max_length (default: the rank), in ``Arc`` order.

    These are the arcs of the category's tube, with no factor at residue
    0 on a line: an arc (t, l) of A_n has l <= t.  Each pair is a valid
    arc by construction, so none is checked again.
    """
    cap = cat.rank if max_length is None else max_length
    new = tuple.__new__
    return [
        new(Arc, (cat, t, l))
        for t in range(cat.tube_rank)
        for l in range(1, 1 + (cap if cat.kind == "cycle" else min(cap, t)))
    ]


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

    Bit k stands for ``arcs[k]``, the list of ``all_arcs``; bit order is
    ``Arc`` order, so ascending bits list sorted arcs.  ``sub[k]`` masks
    the proper subarcs of arc k, and ``below[k]`` the arcs whose top is
    one step below arc k's socle: the one adjacency mask that the factor
    walk reads.
    The zero table holds, for each ordered pair (g, y), whether
    Hom(g, y) = Ext^1(g, y) = 0.  Row g, ``rows[g]``, is the right mask of
    g (the arcs right-orthogonal to g); ``right`` computes one row, for an
    arc of any length, as one ``cycle_zero_row`` call on the tube rank.
    On a tube, bits run through the n lengths of one top and then the
    next, so the index computes only the rows of the n arcs at top 0 and
    rotates them by n bits for each later top; a line computes one row
    per arc.  Column k, ``left[k]``, is the left mask of arc k (the arcs
    left-orthogonal to it).  By Serre duality it is the right mask of
    tau^-1 of arc k, the row of the arc one top higher; the n arcs at the
    top of A_n get one more ``cycle_zero_row`` call each, on U_{n+1}.
    """

    def __init__(self, cat: SerialCat):
        self.cat = cat
        n = cat.rank
        if cat.kind == "cycle":
            # bit(t, l) = t*n + l - 1; the lists are doubled, so they take the
            # tops t-l below 0 without reducing mod n
            first, height = [t * n for t in range(n)] * 2, [n] * 2 * n
        else:
            # bit(t, l) = t(t-1)/2 + l - 1; top t has t lengths, top 0 none
            first, height = [t * (t - 1) // 2 for t in range(n + 1)], range(n + 1)
        self.arcs = all_arcs(cat)
        self.full = (1 << len(self.arcs)) - 1
        self.sub, self.below = [], []
        for _, t, l in self.arcs:
            # arc (t, l) has the proper subarcs (t-l+j, j) and the arcs at
            # top t-l directly below it
            self.sub.append(sum(1 << first[t - l + j] + j - 1 for j in range(1, l)))
            self.below.append((1 << height[t - l]) - 1 << first[t - l])
        # a line category has no cycle factor
        self.lines = [line(m) for m in range(n + 1)]
        self.cycles = [cycle(m) for m in range(1, n + 1)] if cat.kind == "cycle" else []
        # (sort key, factor) by the mask of the factor's blocks; a chain's
        # blocks never close up into a cycle, so one table holds both kinds
        self.factors = {}
        # Serre duality: the left mask of y is the right mask of tau^-1 y,
        # and tau^-1 (t, l) is (t+1, l)
        if cat.kind == "line":
            # (t+1, l) sits t bits above (t, l); past the top t = n it is an
            # arc of U_{n+1} outside A_n, which gets a row of its own
            rows = [self.right(g) for g in self.arcs]
            left = [rows[k + t] for k, (_, t, _) in enumerate(self.arcs) if t < n]
            left += [cycle_zero_row(cat.tube_rank, n + 1, l, self.arcs) for l in range(1, n + 1)]
        else:
            # tau^-1 moves every bit by n
            size = n * n
            rows = [self.right(g) for g in self.arcs[:n]]
            for k in range(size - n):
                r = rows[k]
                rows.append((r << n | r >> (size - n)) & self.full)
            left = rows[n:] + rows[:n]
        self.rows, self.left = rows, left

    def right(self, g: Arc) -> int:
        """Mask of the arcs right-orthogonal to g, an arc of any length."""
        return cycle_zero_row(self.cat.tube_rank, g.top, g.length, self.arcs)

    def minimal(self, mask: int) -> list:
        """Bits of the members with no proper member subarc: the relative simples."""
        sub = self.sub
        return [k for k in _bits(mask) if not sub[k] & mask]

    def left_of(self, bits) -> int:
        """Mask of the arcs left-orthogonal to every arc at the given bits."""
        mask = self.full
        left = self.left
        for k in bits:
            mask &= left[k]
        return mask

    def members(self, bits) -> tuple:
        """The arcs at the given bits."""
        return tuple(map(self.arcs.__getitem__, bits))


_factor = itemgetter(1)  # of a (sort key, factor) pair


def _block_structure(idx: _ArcIndex, rel: list, family: int) -> Embedding:
    """Organize relative simples (ascending bits) into cycle/line factors by adjacency.

    ``family`` is the mask of the relative simples, which the caller has
    already read off.

    Block A sits directly below block B when A's top is one step below B's
    socle, that is, A is in ``below[B]``.  Within an orthogonal family tops
    are distinct, so each block has at most one block directly below it and
    one directly above.  The blocks with none above are the chain tops; a
    walk down from each ends where no block is below, and a walk down from
    a block left over ends back at its start, tiling the one cycle.  Chains
    sort by (-length, bottom block), which is (-rank, simple images)
    because bit order is ``Arc`` order.  A factor is looked up by the mask
    of its blocks and made only the first time the index meets it.
    """
    below, interned = idx.below, idx.factors
    covered = 0
    for k in rel:
        under = below[k] & family
        assert not under & (under - 1), "two blocks directly below one block"
        assert not under & covered, "two blocks directly above one block"
        covered |= under
    tops, rest = family & ~covered, family
    chains, cycle_factor = [], ()
    while rest:
        assert not cycle_factor, "two cycle factors cannot coexist"
        pending = tops & rest or rest  # the chains first, then the cycle
        start = pending & -pending
        walk, blocks = [start.bit_length() - 1], start
        under = below[walk[0]] & family
        while under and under != start:
            walk.append(under.bit_length() - 1)
            blocks |= under
            under = below[walk[-1]] & family
        rest ^= blocks
        found = interned.get(blocks)
        if found is None:
            # walk runs from the top block down; reversed, images[k-1] is
            # below images[k]; the key orders by (-length, bottom block)
            walk.reverse()
            factor_cat = idx.cycles[len(walk) - 1] if under else idx.lines[len(walk)]
            key = walk[0] - len(walk) * len(idx.arcs)
            found = interned[blocks] = key, EmbeddedFactor(factor_cat, idx.members(walk))
        if under:
            cycle_factor = (found[1],)
        else:
            chains.append(found)
    chains.sort()
    return tuple.__new__(Embedding, (idx.cat, cycle_factor + tuple(map(_factor, chains))))


def thick_closure(cat: SerialCat, gens) -> ThickDesc:
    """The thick subcategory generated by the given arcs."""
    if not isinstance(cat, SerialCat):
        raise InvalidArc(f"thick_closure needs a serial category, got {cat!r}")
    idx = _ArcIndex(cat)
    right = idx.full
    for g in gens:
        if not isinstance(g, Arc):
            raise InvalidArc(f"generator {g!r} is not an arc")
        if g.cat != cat:
            raise CategoryMismatch(f"generator {g} is not in {cat}")
        right &= idx.right(g)
    # double orthogonality: the closure T is admissible, so T = perp(T^perp);
    # reduce the right orthogonal to its relative simples and collect
    # everything left-orthogonal to those
    closed = idx.left_of(idx.minimal(right))
    rel = idx.minimal(closed)
    return tuple.__new__(ThickDesc, (
        cat,
        idx.members(_bits(closed)),
        _block_structure(idx, rel, sum(1 << k for k in rel)),
        idx.members(idx.minimal(idx.left_of(rel))),
    ))


def _right_orthogonals(idx: _ArcIndex):
    """Yield the right-orthogonal masks of all thick subcategories, each with
    its set bits, its relative simples and their mask.

    Walk them from ``idx.full``, the zero subcategory's.  A state is T^perp
    for a thick T, and its set bits are the arcs g right-orthogonal to T;
    ANDing it with g's right mask gives the right orthogonal of the
    semiorthogonal join of T and g.  Every nonzero thick T' is such a
    join of a smaller thick T with an arc of T' in T^perp, so these steps
    reach every state, and no state is closed.  A state is also a member
    mask, so the one loop over its bits also reads off its relative
    simples: the bits k with no member in ``sub[k]``, the proper subarcs
    of arc k.  No second pass over a state finds them.
    """
    full, rows, sub = idx.full, idx.rows, idx.sub
    seen = {full}
    todo = [full]
    while todo:
        state = todo.pop()
        bits, rel, family = [], [], 0
        rest = state
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            bits.append(k)
            joined = state & rows[k]
            if joined not in seen:
                seen.add(joined)
                todo.append(joined)
            if not sub[k] & state:
                rel.append(k)
                family |= low
        yield state, bits, rel, family


def membership(t: ThickDesc, x: Arc) -> bool:
    """Does the arc belong to the thick subcategory?

    Double-orthogonal test: Hom and Ext^1 from every stored generator of
    the left perpendicular must vanish on x.  Valid for arcs of any
    length because the subcategory is admissible.
    """
    if not (isinstance(t, ThickDesc) and isinstance(x, Arc)):
        raise InvalidArc(f"membership needs a thick subcategory and an arc, got {t!r}, {x!r}")
    if x.cat != t.cat:
        raise CategoryMismatch(f"arc {x} is not in {t.cat}")
    return all(dims(g, x) == (0, 0) for g in t.left_orthogonal)


def _check_rank(cat: SerialCat):
    """Refuse anything but a serial category, and a rank past the enumeration caps."""
    if not isinstance(cat, SerialCat):
        raise InvalidArc(f"enumeration needs a serial category, got {cat!r}")
    if cat.kind == "cycle" and cat.rank > MAX_CYCLE_RANK:
        raise BoundExceeded(f"tube enumeration capped at rank {MAX_CYCLE_RANK}")
    if cat.kind == "line" and cat.rank > MAX_LINE_RANK:
        raise BoundExceeded(f"line enumeration capped at rank {MAX_LINE_RANK}")


def count_thick(cat: SerialCat) -> int:
    """Number of thick subcategories: C(2n, n) on U_n, Catalan C(2n+2, n+1)/(n+2) on A_n."""
    _check_rank(cat)
    n = cat.rank
    if cat.kind == "cycle":
        return comb(2 * n, n)
    return comb(2 * n + 2, n + 1) // (n + 2)


def enumerate_thick(cat: SerialCat):
    """All thick subcategories of the serial category, canonically sorted.

    Every thick T is the right orthogonal of its left orthogonal, so the
    walk's states are exactly the member masks, and each is a descriptor's
    signature as it stands.  The walk reads each state's relative simples
    and their mask on its way; T's left orthogonal is a state too, and its
    relative simples, looked up, are T's left generators.  The order is
    (number of members, sorted members); bit order is ``Arc`` order, so
    the states sort by (popcount, ascending bits) before any descriptor is
    built.
    """
    _check_rank(cat)
    idx = _ArcIndex(cat)
    bits, simples = {}, {}
    for state, members, rel, family in _right_orthogonals(idx):
        bits[state] = members
        simples[state] = rel, family
    ordered = sorted(bits, key=bits.__getitem__)
    ordered.sort(key=int.bit_count)  # stable: ties keep the order of their bits
    arc, left_of, new = idx.arcs.__getitem__, idx.left_of, tuple.__new__
    out = []
    for mask in ordered:
        rel, family = simples[mask]
        out.append(new(ThickDesc, (
            cat,
            tuple(map(arc, bits[mask])),
            _block_structure(idx, rel, family),
            tuple(map(arc, simples[left_of(rel)][0])),
        )))
    return out


def shape_of_thick(t: ThickDesc):
    """(has cycle factor, line factor lengths in sorted order)."""
    if not isinstance(t, ThickDesc):
        raise InvalidArc(f"shape_of_thick needs a thick subcategory, got {t!r}")
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
