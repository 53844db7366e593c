"""Independent closed forms the benchmark checks wpcalc's answers against.

Nothing here imports wpcalc.  Sheaf classes are plain tuples:

* ``("O", a, b)``: the line bundle O(a*c + sum b_i*x_i);
* ``("S", i, top, length)``: the torsion arc at weighted point x_i;
* ``("T", y, length)``: the torsion arc at ordinary point y.

The formulas follow the graded model: Hom between line bundles counts
non-negative c-degrees, Hom from O(lam) into an arc at x_i counts the arc's
composition factors S_{i,j} with j = b_i(lam) mod r_i, Hom between arcs of
one tube counts landing positions of the top, and every Ext^1 is
Serre-dual to a Hom (tau shifts bundles by omega and arc tops by -1).
"""

from math import comb


def normal_form(weights, a, b):
    """(a, b) carried so that 0 <= b_i < r_i."""
    out = []
    for coef, r in zip(b, weights):
        carry, rem = divmod(coef, r)
        a += carry
        out.append(rem)
    return a, tuple(out)


def _count_congruent(lo, hi, residue, n):
    return sum(1 for j in range(lo, hi + 1) if (j - residue) % n == 0)


def _bundle_hom(weights, lam, mu):
    a, _ = normal_form(weights, mu[0] - lam[0], [y - x for x, y in zip(lam[1], mu[1])])
    return a + 1 if a >= 0 else 0


def tau(weights, f):
    if f[0] == "O":
        return ("O",) + normal_form(weights, f[1] - 2, [x + r - 1 for x, r in zip(f[2], weights)])
    if f[0] == "S":
        _, i, top, length = f
        return ("S", i, (top - 1) % weights[i - 1], length)
    return f


def hom(weights, f, g):
    """dim Hom(f, g)."""
    if f[0] == "O" and g[0] == "O":
        return _bundle_hom(weights, f[1:], g[1:])
    if f[0] == "O":
        if g[0] == "T":
            return g[2]
        _, i, top, length = g
        r = weights[i - 1]
        return sum(1 for k in range(length) if (top - k - f[2][i - 1]) % r == 0)
    if g[0] == "O":
        return 0
    if f[0] != g[0] or f[1] != g[1]:
        return 0
    n = weights[f[1] - 1] if f[0] == "S" else 1
    (tf, lf), (tg, lg) = _arc(f), _arc(g)
    return _count_congruent(max(0, lg - lf), lg - 1, (tg - tf) % n, n)


def _arc(f):
    return (f[2], f[3]) if f[0] == "S" else (0, f[2])


def ext1(weights, f, g):
    """dim Ext^1(f, g) = dim Hom(g, tau f)."""
    return hom(weights, g, tau(weights, f))


def format_element(a, b):
    terms = []
    if a:
        terms.append(("-" if a < 0 else "+") + (str(abs(a)) if abs(a) != 1 else "") + "c")
    for k, coef in enumerate(b):
        if coef:
            terms.append("+" + (str(coef) if coef != 1 else "") + f"x{k + 1}")
    return "".join(terms).lstrip("+") or "0"


def literal(f):
    """The class as a ``wpc`` command-line literal."""
    if f[0] == "O":
        return f"O({format_element(f[1], f[2])})"
    base = f"S({f[1]},{f[2]})" if f[0] == "S" else f"T({f[1]})"
    length = f[-1]
    return base if length == 1 else f"{base}[{length}]"


def thick_count(kind, rank):
    """|thick(U_n)| = C(2n, n); |thick(A_n)| = Catalan(n + 1)."""
    if kind == "cycle":
        return comb(2 * rank, rank)
    return comb(2 * rank + 2, rank + 1) // (rank + 2)
