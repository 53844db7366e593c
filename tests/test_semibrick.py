"""An Ext-free route to every thick subcategory of U_n and A_n.

U_n and A_n are hereditary uniserial length categories, so a thick
subcategory of the derived category is fixed by its abelian part, a wide
subcategory: Filt of its relative simples, which are pairwise
Hom-orthogonal bricks (a semibrick); and Filt of every semibrick is wide.
The bricks are the arcs of length <= rank, ``all_arcs(cat)``.

The route below reads Hom off landing positions alone: Hom(x, y) != 0 iff
a quotient of x is a subobject of y, that is, x.top = y.top - y.length + l
(mod the tube rank) for some 1 <= l <= min(x.length, y.length).  It calls
no ``dims``, ``cycle_dims``, ``cycle_zero_row`` or ``nilrep``.  The arcs of
a semibrick have distinct tops (of two arcs with one top, the shorter is a
quotient of the longer), so an arc lies in Filt(S) iff it is a run of arcs
of S stacked socle-on-top, and that run is unique.
"""

import pytest

from wpcalc import serial
from wpcalc.serial import all_arcs, cycle, enumerate_thick, line, shape_of_thick


def hom_nonzero(n, x, y):
    """Hom(x, y) != 0 for arcs of a category read on the rank-n tube."""
    return any(
        (y.top - y.length + l - x.top) % n == 0 for l in range(1, min(x.length, y.length) + 1)
    )


def semibricks(cat):
    """Every semibrick of the category, as a tuple of arcs in ``all_arcs``
    order, which is ``Arc`` order.

    A clique DFS over the pairwise Hom-orthogonality masks; each clique is
    reached once, from its members in ascending order.
    """
    arcs, n = all_arcs(cat), cat.tube_rank
    orthogonal = [
        sum(
            1 << j
            for j, y in enumerate(arcs)
            if j != i and not hom_nonzero(n, x, y) and not hom_nonzero(n, y, x)
        )
        for i, x in enumerate(arcs)
    ]
    todo = [((), (1 << len(arcs)) - 1)]
    while todo:
        clique, candidates = todo.pop()
        yield tuple(arcs[i] for i in clique)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            todo.append((clique + (i,), candidates & orthogonal[i]))


def semibrick_descs(cat):
    """(signature, relative simples, shape) of Filt(S) for every semibrick S.

    The members of length <= rank are the runs stacked socle-on-top: from
    each arc of S, step to the arc of S whose top sits one below the run's
    socle.  The shape reads the same steps: a walk down from a block that
    returns to it is the cycle factor, and the maximal chains are the line
    factors.
    """
    n, rank = cat.tube_rank, cat.rank
    arc_of = {(a.top, a.length): a for a in all_arcs(cat)}
    for simples in semibricks(cat):
        by_top = {s.top % n: s for s in simples}
        below = {s: by_top.get((s.top - s.length) % n) for s in simples}
        members = []
        for s in simples:
            length, block = 0, s
            while block is not None and length + block.length <= rank:
                length += block.length
                members.append(arc_of[s.top, length])
                block = below[block]
        above = set(below.values())
        chains = [s for s in simples if s not in above]
        lengths = []
        for block in chains:
            k = 0
            while block is not None:
                k, block = k + 1, below[block]
            lengths.append(k)
        has_cycle = sum(lengths) < len(simples)
        yield tuple(sorted(members)), list(simples), (has_cycle, sorted(lengths))


def check_against_engine(cat):
    engine = {
        t.signature: (sorted(t.relative_simples()), shape_of_thick(t)) for t in enumerate_thick(cat)
    }
    seen = set()
    for signature, simples, shape in semibrick_descs(cat):
        assert signature not in seen, (cat, signature)
        seen.add(signature)
        assert engine.get(signature) == (simples, shape), (cat, simples)
    assert len(seen) == len(engine)


@pytest.mark.parametrize(
    "cat", [cycle(n) for n in range(1, 7)] + [line(n) for n in range(0, 9)], ids=str
)
def test_semibricks_give_every_descriptor(cat):
    check_against_engine(cat)


@pytest.mark.parametrize("cat", [cycle(7), cycle(8), line(9), line(10)], ids=str)
def test_semibricks_give_every_descriptor_past_the_caps(cat, monkeypatch):
    monkeypatch.setattr(serial, "MAX_CYCLE_RANK", 8)
    monkeypatch.setattr(serial, "MAX_LINE_RANK", 10)
    check_against_engine(cat)


def test_landing_rule_on_small_cases():
    """Hom between arcs of U_3 and A_2 by hand."""
    u3 = cycle(3)
    s0, s1, a12 = serial.Arc(u3, 0, 1), serial.Arc(u3, 1, 1), serial.Arc(u3, 1, 2)
    assert hom_nonzero(3, a12, s1) and not hom_nonzero(3, s1, a12)  # top, not socle
    assert hom_nonzero(3, s0, a12) and not hom_nonzero(3, a12, s0)  # socle, not top
    assert not hom_nonzero(3, s0, s1)
    x, y = serial.line_arc(2, 1, 2), serial.line_arc(2, 2, 2)  # the interval [1,2], its top
    assert hom_nonzero(3, x, y) and not hom_nonzero(3, y, x)
