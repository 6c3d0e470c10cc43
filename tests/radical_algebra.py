"""Exact integer-radical matrix algebra for checking generator identities.

Lifted generator entries are square roots of integers.  Instead of floats,
matrices here hold ``{(row, col): {square-free radicand: integer coeff}}``:
sqrt(k) is reduced to f*sqrt(m) with m square-free, products multiply
radicands, and sums collect integer coefficients per radicand.  Equality of
two such matrices is exact, so the commutator checks built on top prove the
algebra rather than bounding a float error.
"""

def reduce_radical(k):
    f = 1
    d = 2
    while d * d <= k:
        while k % (d * d) == 0:
            k //= d * d
            f *= d
        d += 1
    return f, k


def exact_generator(basis, a, b):
    """Mode-pair generator with 0-based mode labels a, b.

    Rows are found through a dict built from the basis's own enumeration,
    so the check does not rest on the library's rank.
    """
    states = list(map(tuple, basis.occupations.tolist()))
    row = {s: r for r, s in enumerate(states)}
    out = {}
    for col, s in enumerate(states):
        if a == b:
            if s[a]:
                out[(col, col)] = {1: s[a]}
        elif s[b]:
            t = list(s)
            t[a] += 1
            t[b] -= 1
            f, m = reduce_radical((s[a] + 1) * s[b])
            out[(row[tuple(t)], col)] = {m: f}
    return out


def radical_add(into, key, terms, sign):
    cell = into.setdefault(key, {})
    for m, coeff in terms.items():
        cell[m] = cell.get(m, 0) + sign * coeff
        if cell[m] == 0:
            del cell[m]
    if not cell:
        del into[key]


def radical_matmul(x, y):
    by_row = {}
    for (r, c), terms in y.items():
        by_row.setdefault(r, []).append((c, terms))
    out = {}
    for (r, mid), terms_x in x.items():
        for c, terms_y in by_row.get(mid, []):
            for mx, fx in terms_x.items():
                for my, fy in terms_y.items():
                    f2, m2 = reduce_radical(mx * my)
                    radical_add(out, (r, c), {m2: fx * fy * f2}, 1)
    return out


def commutator_defect(gens, ab, cd):
    """[C_ab, C_cd] minus (delta_bc C_ad - delta_da C_cb), exactly."""
    (a, b), (c, d) = ab, cd
    diff = radical_matmul(gens[ab], gens[cd])
    for key, terms in radical_matmul(gens[cd], gens[ab]).items():
        radical_add(diff, key, terms, -1)
    if b == c:
        for key, terms in gens[(a, d)].items():
            radical_add(diff, key, terms, -1)
    if d == a:
        for key, terms in gens[(c, b)].items():
            radical_add(diff, key, terms, 1)
    return diff
