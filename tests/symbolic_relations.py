"""The U_q(sl_{n+1}) relations checked in Z[q, q^-1], used as an independent oracle in tests.

Entries stay LaurentFracs throughout: each E_i/F_i is read from the module's sparse rows
(`e_rows`, `f_rows`) with any zero value dropped, and each relation is compared entry by
entry as a sum of sparse products.  This is the check `uqmod.verify_relations` made
before it moved to integers at a certified power of two.
"""

from klrlab.combi import CartanA
from klrlab.qint import LaurentFrac, quantum_integer


def nonzero(rows):
    """Sparse rows {row: {col: value}} without their zero values, which a test's mutant
    may store: the grading check reads every entry it is given."""
    return {r: {c: v for c, v in row.items() if v} for r, row in rows.items()}


def product(a, b):
    """Product of two sparse matrices; entries that cancel are kept as zeros."""
    out = {}
    for r, arow in a.items():
        acc = out[r] = {}
        for k, v in arow.items():
            for c, w in b.get(k, {}).items():
                acc[c] = acc[c] + v * w if c in acc else v * w
    return out


def entries(*mats):
    """The nonzero entries {(row, col): value} of a sum of sparse matrices."""
    out = {}
    for m in mats:
        for r, row in m.items():
            for c, v in row.items():
                out[r, c] = out[r, c] + v if (r, c) in out else v
    return {key: v for key, v in out.items() if v}


def verify_relations(module):
    """The weight grading of every nonzero E/F entry, [E_i, F_j] = delta_ij [h_i],
    X_i X_j = X_j X_i for |i - j| >= 2 and X_i^2 X_j - [2] X_i X_j X_i + X_j X_i^2 = 0
    for |i - j| = 1, for X = E and X = F; False on the first that fails."""
    rank = module.rank
    weights = module.weights
    cartan = CartanA(rank)
    e = {i: nonzero(module.e_rows[i]) for i in range(1, rank + 1)}
    f = {i: nonzero(module.f_rows[i]) for i in range(1, rank + 1)}
    for j in range(1, rank + 1):
        alpha = [cartan.entry(i, j) for i in range(1, rank + 1)]
        for mat, sign in ((e[j], 1), (f[j], -1)):
            for r, row in mat.items():
                for c in row:
                    if any(a - b != sign * s for a, b, s in zip(weights[r], weights[c], alpha)):
                        return False
    for i in range(1, rank + 1):
        h = {r: {r: LaurentFrac(quantum_integer(wt[i - 1]))} for r, wt in enumerate(weights)}
        for j in range(1, rank + 1):
            ef, fe = product(e[i], f[j]), product(f[j], e[i])
            if entries(ef) != entries(fe, h if i == j else {}):
                return False
    two = quantum_integer(2)
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if i == j:
                continue
            for x, y in ((e[i], e[j]), (f[i], f[j])):
                xy = product(x, y)
                if abs(i - j) >= 2:
                    if entries(xy) != entries(product(y, x)):
                        return False
                    continue
                xyx = product(xy, x)
                twice = {r: {c: v * two for c, v in row.items()} for r, row in xyx.items()}
                if entries(product(x, xy), product(y, product(x, x))) != entries(twice):
                    return False
    return True
