"""Serial categories: linear quivers A_n and tubes U_n.

Indecomposables are arcs, written (top, length).  Composition factors of
an arc, read from the top down to the socle, are the simples
``top, top-1, ..., top-length+1`` (cyclically for a tube).  For a line
category the arc (top=j, length=l) is the interval module supported on
vertices ``j-l+1 .. j``; under the right-module convention its top simple
sits at the *larger* vertex index j.  The translate tau decreases tops by
one; tau^n = id on a rank-n tube.

Hom dimensions between arcs have a closed form (count of admissible
landing positions of the top basis vector); Ext^1 in a tube is Serre-dual
to a Hom, and on a line it is the Euler defect.  The matrix-level oracle
for all of this lives in :mod:`wpcalc.nilrep` via :func:`realize`.

Thick subcategories are enumerated by the perpendicular recursion: every
non-zero thick subcategory is generated by an indecomposable E together
with a thick subcategory of the perpendicular of E, translated through
the explicit embedding of the perpendicular's factors.  Signatures (the
member arcs of length <= rank) are computed by double orthogonality,
which is valid because every thick subcategory here is admissible.
Each category keeps a bitset index of those arcs, with Hom/Ext-orthogonal
and subarc masks as Python ints, so a closure is a few mask ANDs.  Bit
order is ``Arc`` order, so a mask lists its arcs sorted.  The recursion
stays on bits: each perpendicular factor arc is lifted once to the right
mask of its ambient image, and a factor signature's ambient right
orthogonal is the AND of its members' lifted masks.
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

    def socle(self) -> int:
        """Index of the bottom composition factor."""
        if self.cat.kind == "cycle":
            return (self.top - self.length + 1) % self.cat.rank
        return self.top - self.length + 1

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


def tau_inv(a: Arc) -> Arc:
    if a.cat.kind != "cycle":
        raise NoTranslationForLine("tau is only defined on tube arcs")
    return Arc(a.cat, (a.top + 1) % a.cat.rank, a.length)


def _count_congruent(lo: int, hi: int, residue: int, n: int) -> int:
    """#{ j in [lo, hi] : j = residue mod n }."""
    if hi < lo:
        return 0
    return (hi - residue) // n - (lo - 1 - residue) // n


def _hom(x: Arc, y: Arc) -> int:
    """dim Hom(x, y).

    A map is determined by the image of the top basis vector of x, which
    must live in the fiber of y at x.top and die after length(x) shifts.
    """
    if x.cat.kind == "cycle":
        n = x.cat.rank
        lo = max(0, y.length - x.length)
        return _count_congruent(lo, y.length - 1, (y.top - x.top) % n, n)
    a, b = x.interval()
    c, d = y.interval()
    return 1 if a <= c <= b <= d else 0


def _line_euler(x: Arc, y: Arc) -> int:
    a, b = x.interval()
    c, d = y.interval()

    def overlap(lo1, hi1, lo2, hi2):
        return max(0, min(hi1, hi2) - max(lo1, lo2) + 1)

    return overlap(a, b, c, d) - overlap(a, b, c + 1, d + 1)


def dims(x: Arc, y: Arc) -> HomExt:
    """(dim Hom(x,y), dim Ext^1(x,y)) in the serial category."""
    if x.cat != y.cat:
        raise CategoryMismatch(f"arcs live in different categories: {x.cat} vs {y.cat}")
    hom = _hom(x, y)
    if x.cat.kind == "cycle":
        ext1 = _hom(y, tau(x))  # Serre duality in the tube
    else:
        ext1 = hom - _line_euler(x, y)
        assert ext1 >= 0, "line Euler defect went negative"
    return HomExt(hom, ext1)


def classify_arc(a: Arc) -> ArcClass:
    """Exceptional / sphere-like / neither, by length against the rank."""
    if a.cat.kind == "line":
        return ArcClass.EXCEPTIONAL
    n = a.cat.rank
    if a.length < n:
        return ArcClass.EXCEPTIONAL
    if a.length == n:
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
    sits directly below the block for s.
    """

    cat: SerialCat
    simple_images: tuple  # of Arc

    def embed(self, a: Arc) -> Arc:
        """Ambient arc of an abstract arc of this factor (block concatenation)."""
        if a.cat != self.cat:
            raise CategoryMismatch(f"arc {a} is not in factor {self.cat}")
        imgs = self.simple_images
        s = len(imgs)
        if self.cat.kind == "cycle":
            blocks = [imgs[(a.top - i) % s] for i in range(a.length)]
        else:
            blocks = [imgs[a.top - 1 - i] for i in range(a.length)]
        top_block = blocks[0]
        return Arc(top_block.cat, top_block.top, sum(b.length for b in blocks))


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


def _proper_subarcs(a: Arc):
    for j in range(1, a.length):
        if a.cat.kind == "cycle":
            yield Arc(a.cat, (a.top - a.length + j) % a.cat.rank, j)
        else:
            yield Arc(a.cat, a.top - a.length + j, j)


def _zero_bits(pairs) -> int:
    """Mask of the positions where (Hom, Ext^1) vanishes."""
    return sum(1 << k for k, he in enumerate(pairs) if he == (0, 0))


def _bits(mask: int):
    """Positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ArcIndex:
    """Bitset view of the arcs of length <= rank of one category.

    Bit k stands for ``arcs[k]``; bit order is ``Arc`` order, so ascending
    bits list sorted arcs.  ``sub[k]`` masks the proper subarcs of arc k.
    The right mask of arc k holds the arcs y with Hom(arc k, y) =
    Ext^1(arc k, y) = 0, the left mask those with Hom(y, arc k) =
    Ext^1(y, arc k) = 0; each is filled from ``dims`` the first time it is
    asked for.
    """

    def __init__(self, cat: SerialCat):
        self.cat = cat
        self.arcs = sorted(all_arcs(cat))
        self.bit = {a: k for k, a in enumerate(self.arcs)}
        self.full = (1 << len(self.arcs)) - 1
        self.sub = [sum(1 << self.bit[s] for s in _proper_subarcs(a)) for a in self.arcs]
        self._right = [None] * len(self.arcs)
        self._left = [None] * len(self.arcs)
        self.signatures = None  # frozenset of masks, once enumerated

    def right(self, k: int) -> int:
        """Mask of the arcs right-orthogonal to arc k."""
        if self._right[k] is None:
            g = self.arcs[k]
            self._right[k] = _zero_bits(dims(g, y) for y in self.arcs)
        return self._right[k]

    def left(self, k: int) -> int:
        """Mask of the arcs left-orthogonal to arc k."""
        if self._left[k] is None:
            g = self.arcs[k]
            self._left[k] = _zero_bits(dims(y, g) for y in self.arcs)
        return self._left[k]

    def minimal(self, mask: int) -> list:
        """Bits of the members with no proper member subarc: the relative simples."""
        sub = self.sub
        return [k for k in _bits(mask) if not sub[k] & mask]

    def left_of(self, bits) -> int:
        mask = self.full
        for k in bits:
            mask &= self.left(k)
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
        return tuple(self.arcs[k] for k in bits)


@lru_cache(maxsize=32)
def _index(cat: SerialCat) -> _ArcIndex:
    return _ArcIndex(cat)


def _block_structure(cat: SerialCat, rel) -> Embedding:
    """Organize relative simples (sorted) into cycle/line factors by adjacency.

    Block A sits directly below block B when A's top is one step below
    B's socle.  Within an orthogonal family tops are distinct, so
    ``below`` is a partial injection: the walks down from the blocks with
    nothing above are the chains, and the blocks left over tile one cycle.
    """
    n = cat.rank
    by_top = {a.top: a for a in rel}
    assert len(by_top) == len(rel), "relative simples must have distinct tops"
    below = {}
    for a in rel:
        b = by_top.get((a.top - a.length) % n if cat.kind == "cycle" else a.top - a.length)
        if b is not None:
            below[a] = b
    has_above = set(below.values())
    assert len(has_above) == len(below), "two blocks directly above one block"

    chains = []
    for walk in ([a] for a in rel if a not in has_above):
        while walk[-1] in below:
            walk.append(below[walk[-1]])
        chains.append(EmbeddedFactor(line(len(walk)), tuple(reversed(walk))))
    chains.sort(key=lambda f: (-f.cat.rank, f.simple_images))
    in_chains = {a for f in chains for a in f.simple_images}
    rest = [a for a in rel if a not in in_chains]
    if not rest:
        return Embedding(cat, tuple(chains))
    walk = [min(rest)]
    while below[walk[-1]] != walk[0]:
        walk.append(below[walk[-1]])
    assert len(walk) == len(rest), "two cycle factors cannot coexist"
    # walk is B_a, B_{a-1}, ...; reverse so images[k-1] is below images[k]
    images = tuple(reversed(walk))
    return Embedding(cat, (EmbeddedFactor(cycle(len(images)), images), *chains))


def _build_desc(idx: _ArcIndex, sig: int) -> ThickDesc:
    rel_bits = idx.minimal(sig)
    return ThickDesc(
        cat=idx.cat,
        signature=idx.members(_bits(sig)),
        embedding=_block_structure(idx.cat, idx.members(rel_bits)),
        left_orthogonal=idx.members(idx.minimal(idx.left_of(rel_bits))),
    )


def thick_closure(cat: SerialCat, gens) -> ThickDesc:
    """The thick subcategory generated by the given arcs."""
    idx = _index(cat)
    right = idx.full
    for g in gens:
        if g.cat != cat:
            raise CategoryMismatch(f"generator {g} is not in {cat}")
        k = idx.bit.get(g)
        # an arc longer than the rank has no bit: its mask is not cached
        right &= idx.right(k) if k is not None else _zero_bits(dims(g, y) for y in idx.arcs)
    return _build_desc(idx, idx.closure(right))


def _enumerate_signatures(idx: _ArcIndex) -> frozenset:
    """All thick-subcategory signatures, via the perpendicular recursion.

    The right orthogonal of the subcategory generated by e and the
    embedded members of one thick subcategory per perpendicular factor is
    the AND of their right masks.  Members and relative simples have the
    same right orthogonal, and an embedded factor arc of length <= the
    factor rank has length <= the ambient rank, so every factor bit lifts
    to the right mask of an ambient bit.  The same right masks recur
    across the arcs e, so they are gathered first and each is closed once.
    """
    if idx.signatures is not None:
        return idx.signatures
    all_rights = set()
    for k, e in enumerate(idx.arcs):
        rights = {idx.right(k)}
        for f in perp_arc(e).factors:
            fidx = _index(f.cat)
            lifted = [idx.right(idx.bit[f.embed(a)]) for a in fidx.arcs]
            factor_rights = set()
            for sig in _enumerate_signatures(fidx):
                mask = idx.full
                for j in _bits(sig):
                    mask &= lifted[j]
                factor_rights.add(mask)
            rights = {r & fr for r in rights for fr in factor_rights}
        all_rights |= rights
    idx.signatures = frozenset({0, *map(idx.closure, all_rights)})
    return idx.signatures


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
    return _index(cat)


def count_thick(cat: SerialCat) -> int:
    """Number of thick subcategories; builds no descriptor."""
    return len(_enumerate_signatures(_capped_index(cat)))


def enumerate_thick(cat: SerialCat):
    """All thick subcategories of the serial category, canonically sorted."""
    idx = _capped_index(cat)
    descs = [_build_desc(idx, sig) for sig in _enumerate_signatures(idx)]
    return sorted(descs, key=lambda t: (len(t.signature), t.signature))


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
