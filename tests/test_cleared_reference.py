"""`uqmod._cleared` held to the two-walk version it replaced.

The reference below is the earlier implementation, kept verbatim apart from its name: it
drops the zeros and collects the denominators other than 1 in one walk, then clears every
row by the lcm and takes the row sums and least exponent in a second.  The one-walk
`_cleared` takes the row sums and least exponent in its first walk, and returns from it,
when every denominator is 1; both paths must give the same four values.
"""

import json
import random
from pathlib import Path

from klrlab import uqmod
from klrlab.qint import _UNIT, LaurentFrac, LaurentPoly, quantum_integer
from klrlab.uqmod import build_irreducible


def reference_cleared(mat):
    """Sparse rows {row: {col: LaurentFrac}} without denominators: (D, rows, rho, low),
    with D the lcm of the entries' denominators, rows {row: {col: LaurentPoly}} the
    nonzero entries times D, rho the largest l1 sum of a row of those, and low the least
    exponent among them (0 if there is none).

    The rows are read once, and rho and low are taken as each row is cleared, so no
    caller walks the entries again.  A denominator 1 is told by its terms, with no
    hash; only the others are collected.  Each lcm step multiplies D by what a
    denominator d adds to it, d / gcd(D, d), the denominator of LaurentFrac(D, d); once
    D is the lcm, LaurentFrac(D, d) is D / d."""
    rows = {}
    dens = {}
    for r, row in mat.items():
        # the build stores no zero, but a caller's rows may hold one
        nonzero = {c: v for c, v in row.items() if v}
        if nonzero:
            rows[r] = nonzero
            for v in nonzero.values():
                if v.den._t != _UNIT:
                    dens[v.den] = None
    lcm = LaurentPoly.one()
    for d in dens:
        lcm = lcm * LaurentFrac(lcm, d).den
    cofactor = {d: LaurentFrac(lcm, d).num for d in dens}
    cleared = {}
    rho, lows = 0, []
    for r, row in rows.items():
        out = cleared[r] = {
            c: v.num if not dens else v.num * (lcm if v.den._t == _UNIT else cofactor[v.den])
            for c, v in row.items()
        }
        rho = max(rho, sum([p.l1_norm() for p in out.values()]))
        lows.append(min([p.min_exp() for p in out.values()]))
    return lcm, cleared, rho, min(lows, default=0)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
# the 69 weights of the `module` workload, and V(2,1,1) and V(1,2,1), whose E and F have
# 8 and 7 distinct denominators other than 1
WEIGHTS = [tuple(json.loads(key)) for key in json.loads(REFERENCE.read_text("utf-8"))["module"]]
WEIGHTS += [(2, 1, 1), (1, 2, 1)]


def _matrices():
    out = []
    for hw in WEIGHTS:
        mod = build_irreducible(hw)
        for side in (mod.e_rows, mod.f_rows):
            out.extend((hw, mod.dim(), rows) for rows in side.values())
    return out


def _has_denominator(rows):
    return any(v.den._t != _UNIT for row in rows.values() for v in row.values())


def test_cleared_matches_the_two_walk_version_on_the_module_matrices():
    matrices = _matrices()
    # both paths are taken: 228 of the family's 272 matrices have no denominator but 1
    plain = [rows for hw, _, rows in matrices[:272] if not _has_denominator(rows)]
    assert (len(matrices), len(plain)) == (284, 228)
    assert any(_has_denominator(rows) for _, _, rows in matrices[272:])
    for hw, _, rows in matrices:
        assert uqmod._cleared(rows) == reference_cleared(rows), hw


def test_cleared_matches_the_two_walk_version_on_mutants():
    # one entry of a module matrix set to zero (stored, so both must drop it), to 1/[3],
    # or changed by +1, +1/[3], +q^-5 or a factor q^-2; a row that keeps only a stored
    # zero, and an empty matrix, besides
    third = LaurentFrac(LaurentPoly.one(), quantum_integer(3))
    mutations = [
        lambda v: LaurentFrac.zero(),
        lambda v: third,
        lambda v: v + LaurentFrac.one(),
        lambda v: v + third,
        lambda v: v + LaurentFrac(LaurentPoly({-5: 1})),
        lambda v: v * LaurentPoly({-2: 1}),
    ]
    rng = random.Random("cleared mutants")
    matrices = _matrices()
    paths = set()
    for _ in range(400):
        hw, dim, rows = rng.choice(matrices)
        mutant = {r: dict(row) for r, row in rows.items()}
        nonzero = sorted((r, c) for r, row in rows.items() for c in row)
        if nonzero and rng.random() < 0.5:
            r, c = rng.choice(nonzero)
        else:
            r, c = rng.randrange(dim), rng.randrange(dim)
        row = mutant.setdefault(r, {})
        row[c] = rng.choice(mutations)(row.get(c, LaurentFrac.zero()))
        paths.add((_has_denominator(mutant), any(not v for v in row.values())))
        assert uqmod._cleared(mutant) == reference_cleared(mutant), (hw, r, c)
    # a stored zero and a denominator other than 1 each turn up on both paths
    assert paths == {(False, False), (False, True), (True, False), (True, True)}
    for mat in ({}, {0: {1: LaurentFrac.zero()}}, {3: {0: LaurentFrac.zero(), 2: third}}):
        assert uqmod._cleared(mat) == reference_cleared(mat), mat
