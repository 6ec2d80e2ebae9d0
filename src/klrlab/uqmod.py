"""Highest weight modules for the quantum group of type A, with exact contravariant forms."""

import functools
from collections import Counter

from .combi import CartanA, Partition, interlacing_set, weight_of_partition, weyl_dim
from .qint import (
    LaurentFrac,
    LaurentPoly,
    at_power_of_two,
    dense_sum_times_quantum_integers,
    from_parity_class,
    matrix_rank,
    pivot_columns,
    quantum_integer,
    solve_linear,
)

__all__ = [
    "HighestWeightModule",
    "ShapovalovGram",
    "gram_entry",
    "shapovalov_gram",
    "build_irreducible",
    "exhaustion_depth",
    "verify_relations",
    "branching_character_check",
    "monomial_weight",
    "weight_words",
]

def monomial_weight(hw, word):
    """Weight of F_word applied to the highest weight vector, in fundamental coordinates.

    Letter i subtracts column i of the Cartan matrix, whose only nonzero entries are
    a_ii = 2 and a_{i+-1,i} = -1.  A letter outside 1..len(hw) raises ValueError."""
    rank = len(hw)
    wt = list(hw)
    for i in word:
        if not 1 <= i <= rank:
            raise ValueError(f"word letters must lie in 1..{rank}")
        wt[i - 1] -= 2
        if i > 1:
            wt[i - 2] += 1
        if i < rank:
            wt[i] += 1
    return tuple(wt)


def _runs(hw, w, i):
    """The maximal runs of the letter i in w, and the i-th weight entry of F_w v.

    Each run is (start, r, a): r copies of i from w[start], with a the i-th weight entry
    of F_{w[:start]} v.  One scan tracks that entry: -2 at each letter i and +1 at each
    letter i+-1, the nonzero entries of row i of the Cartan matrix."""
    runs = []
    a = hw[i - 1]
    t, n = 0, len(w)
    while t < n:
        x = w[t]
        if x == i:
            start = t
            while t < n and w[t] == i:
                t += 1
            runs.append((start, t - start, a))
            a -= 2 * (t - start)
            continue
        if x == i - 1 or x == i + 1:
            a += 1
        t += 1
    return runs, a


def _check_letters(rank, *words):
    """Raise ValueError if a word has a letter outside 1..rank."""
    for w in words:
        if w and (min(w) < 1 or max(w) > rank):
            raise ValueError(f"word letters must lie in 1..{rank}")


def _dual(hw, words):
    """hw and the words, moved to the dual weight hw[::-1] when that is the smaller.

    The diagram flip i -> n + 1 - i of the Dynkin diagram A_n takes F_w v in V(hw) to
    F_w' v in V(hw[::-1]), w' the flipped word, and preserves the form: it maps each run
    of `_runs` to the run of the flipped letter, with the same weight entry, so the
    recursion of `_gram_entry` gives the same answer on the flipped pair.  V(hw) and
    its dual so share one set of memo entries."""
    dual = hw[::-1]
    if dual < hw:
        top = len(hw) + 1
        return dual, [tuple([top - i for i in w]) for w in words]
    return hw, words


def gram_entry(hw, u, w):
    """Contravariant pairing of the monomial vectors F_u v and F_w v, normalized to <v,v> = 1.

    With u = head + (i,), E_i moves across F_w v and each letter w[t] = i it meets leaves
    the word w[:t] + w[t+1:] with the quantum integer of the weight of F_{w[:t]} v.  The
    deletions are grouped by the word they leave and their coefficients summed first, so
    each distinct remaining word is paired with head once (a string F_i^k v has one, not k),
    and a word whose summed coefficient is zero is not paired at all.  The form is
    symmetric, so the pair is memoized in sorted order, on the smaller of hw and its
    dual (`_dual`).  A letter outside 1..len(hw) raises ValueError.
    """
    hw = tuple(hw)
    _check_letters(len(hw), u, w)
    if sorted(u) != sorted(w):
        return LaurentPoly.zero()
    hw, pair = _dual(hw, (tuple(u), tuple(w)))
    return from_parity_class(*_gram_entry(hw, *sorted(pair)))


_ONE = (0, (1,))


@functools.cache
def _gram_entry(hw, u, w):
    """`gram_entry` on tuples of equal content with letters in 1..len(hw), as (lo, c):
    the form sum_k c[k] q^(lo + 2k), c a tuple with c[0] and c[-1] nonzero (the form 0
    has c = ()).  The memo keeps each entry once, in this form, which the elimination
    of `qint` reads as it is; a LaurentPoly is built only where the public API hands
    one out (`gram_entry`, `ShapovalovGram.entries`, `HighestWeightModule.grams`).
    Entries can share a tuple: an entry whose one term has r = 1 and a - r + 1 = 1
    holds its child's c at another lo, which is safe because a tuple cannot change.

    Deleting any letter of a maximal run of r copies of i in w leaves the same word, and
    the s-th letter of the run meets the weight entry a - 2s, a being the entry at the
    start of the run.  So the run contributes that word's pairing once, with the summed
    coefficient [a] + [a-2] + ... + [a-2r+2] = [r][a-r+1]; deletions from different runs
    leave different words.  [r] is never zero, so the run drops out exactly when
    a - r + 1 = 0, and then its word is not paired at all.

    Every entry lies in one exponent-parity class, so one coefficient list two degrees
    apart holds it: the exponents of <F_u v, F_w v> are all f(u) + N(w) mod 2, with N(w)
    the number of places s < t with w_s = w_t + 1 and f(u) depending on u and hw alone.
    By induction on the length: deleting the letter i at place t of w leaves w' with
    N(w) - N(w') = #(i+1 before t) + #(i-1 after t), and the weight entry there is
    a = hw_i - 2 #(i before t) + #(i-1 before t) + #(i+1 before t), so
    a + N(w') = hw_i + N(w) + m_(i-1) mod 2, m_(i-1) the number of letters i - 1 in w.
    A run's term has parity f(head) + N(w') + (r + a - r + 1 - 2) + (end + 1), which is
    f(head) + hw_i + m_(i-1) + end + N(w) mod 2, the same for every run, as end and
    m_(i-1) depend on the content alone."""
    if not u:
        return _ONE
    head, i = u[:-1], u[-1]
    runs, end = _runs(hw, w, i)
    terms = []
    for start, r, a in runs:
        if a != r - 1:
            lo, c = _gram_entry(hw, head, w[:start] + w[start + 1 :])
            terms.append((lo, c, r, a - r + 1))
    # end is the i-th weight entry of F_w v, the same as of F_u v; F_head v has one
    # letter i fewer, so its entry is end + 2, and the shift is that entry less 1
    lo, c = dense_sum_times_quantum_integers(terms, end + 1)
    return lo, tuple(c)


def weight_words(beta):
    """All monomial words with the given simple root content, in lexicographic order.

    The first word has its letters in increasing order, and each next one is its
    lexicographic successor (Knuth's Algorithm L): find the last place j whose letter is
    less than the one after it, swap in the last later letter greater than it, and
    reverse the tail after j.  A word with no such place is the last."""
    counts = [int(b) for b in beta]
    if any(b < 0 for b in counts):
        raise ValueError("negative root multiplicity")
    a = [i for i, b in enumerate(counts, 1) for _ in range(b)]
    out = [tuple(a)]
    n = len(a)
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]
        out.append(tuple(a))


def _gram_rows(hw, words):
    """The form on sorted monomial words of one content, as rows of `_gram_entry`'s
    (lo, c) pairs: one memo read per unordered pair, which fills both triangles.

    The words share their letters, so one word is checked.  The memo keys each pair in
    sorted order.  On the dual weight (`_dual`) the flip reverses the lexicographic
    order of words of one length, so there the later word of a pair is the smaller."""
    _check_letters(len(hw), words[0])
    key_hw, keys = _dual(hw, words)
    flipped = keys is not words
    n = len(keys)
    rows = [[None] * n for _ in range(n)]
    for a, u in enumerate(keys):
        row = rows[a]
        for b in range(a, n):
            w = keys[b]
            e = _gram_entry(key_hw, w, u) if flipped else _gram_entry(key_hw, u, w)
            row[b] = rows[b][a] = e
    return rows


class ShapovalovGram:
    """The contravariant pairing matrix on the monomial spanning set of one root content.

    It holds the rows of (lo, c) pairs of `_gram_rows`, on which `rank` eliminates;
    `entries`, the matrix of LaurentPolys, is built from them on first access and kept."""

    __slots__ = ("hw", "beta", "labels", "_rows", "_entries")

    def __init__(self, hw, beta, labels, rows):
        self.hw = tuple(hw)
        self.beta = tuple(beta)
        self.labels = tuple(labels)
        self._rows = rows
        self._entries = None

    @property
    def entries(self):
        if self._entries is None:
            self._entries = tuple(
                tuple(from_parity_class(lo, c) for lo, c in row) for row in self._rows
            )
        return self._entries

    def rank(self):
        return matrix_rank(self._rows)

    def to_json(self):
        return {
            "lambda": list(self.hw),
            "beta": list(self.beta),
            "labels": [list(w) for w in self.labels],
            "entries": [
                [{"num": e.to_pairs(), "den": [[0, 1]]} for e in row] for row in self.entries
            ],
        }

    def __repr__(self):
        return f"ShapovalovGram(hw={self.hw}, beta={self.beta}, size={len(self.labels)})"


def shapovalov_gram(hw, beta):
    """Pairing matrix of all F-monomials with root content beta, rows and columns alike."""
    hw = tuple(int(x) for x in hw)
    labels = weight_words(beta)
    return ShapovalovGram(hw, tuple(beta), labels, _gram_rows(hw, labels))


def exhaustion_depth(hw):
    """Height of the weight drop from highest to lowest weight: the last nonzero layer.

    It is <lambda, 2 rho^vee>, which is linear in hw: sum over k of k (n + 1 - k) hw_k."""
    n = len(hw)
    return sum(k * (n + 1 - k) * x for k, x in enumerate(hw, 1))


class HighestWeightModule:
    """An irreducible highest weight module with basis tagged by F-monomial words."""

    def __init__(self, rank, hw, basis, weights, e_mats, f_mats, gram_rows):
        self.rank = rank
        self.hw = tuple(hw)
        self.basis = tuple(basis)
        self.weights = tuple(weights)
        self.e_mats = e_mats
        self.f_mats = f_mats
        self._gram_rows = gram_rows
        self._grams = None
        spaces = {}
        for idx, wt in enumerate(self.weights):
            spaces.setdefault(wt, []).append(idx)
        self.weight_spaces = spaces

    @property
    def grams(self):
        """The Gram matrix of each weight space on its basis words, as LaurentPolys; built
        on first access from the (lo, c) rows of `_gram_entry` that the build keeps."""
        if self._grams is None:
            self._grams = {
                wt: [[from_parity_class(lo, c) for lo, c in row] for row in rows]
                for wt, rows in self._gram_rows.items()
            }
        return self._grams

    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"HighestWeightModule(hw={self.hw}, dim={self.dim()})"


def build_irreducible(hw):
    """Span F-monomials layer by layer, keep a pivot basis of the nondegenerate quotient,
    and assemble the E and F actions as exact matrices; K_i acts on each basis vector
    by q to the i-th entry of its weight.

    The candidates of a layer are the words u + (i,) for the basis words u of the layer
    before, so they are the F images of that layer.  The basis of a weight space is the
    pivot columns (`pivot_columns`) of its candidates' Gram matrix.  That matrix is
    symmetric, so its sub-matrix on the pivots has full rank: it is the weight space's
    Gram matrix.  Every pivot word has the one shared unit coordinate; the other
    candidates of the weight space are solved against that matrix together, one
    elimination with their Gram columns as the right-hand sides (`solve_linear`).

    E needs no form: E_i v = 0, and a basis word u = p + (x,) has p in the basis, so
    E_i F_u v = F_x E_i F_p v + [i = x] [wt(p)_i] F_p v, from E_i F_x - F_x E_i = [h_i]
    on F_p v; both terms are columns already built, and a unit coordinate of F_x
    adds the coordinate of E_i F_p v as it is."""
    hw = tuple(int(x) for x in hw)
    if any(x < 0 for x in hw):
        raise ValueError("highest weight must be dominant")
    rank = len(hw)
    if rank < 1:
        raise ValueError("need at least one node")
    index = {(): 0}  # basis word -> basis index, in basis order
    weights = [hw]
    gram_rows = {hw: [[_ONE]]}
    f_cols = {}  # (i, col) -> the nonzero coordinates {row: value} of F_i on basis vector col
    one = LaurentFrac.one()  # the coordinate of every pivot word, shared
    layer = [()]
    for _ in range(exhaustion_depth(hw)):
        cands = {}
        for u in layer:
            for i in range(1, rank + 1):
                w = u + (i,)
                cands.setdefault(monomial_weight(hw, w), []).append(w)
        layer = []
        for wt in sorted(cands):
            words = sorted(cands[wt])
            gram = _gram_rows(hw, words)
            pivots = pivot_columns(gram)
            if not pivots:
                continue
            sub = gram_rows[wt] = [[gram[a][b] for b in pivots] for a in pivots]
            base = len(index)
            for r, j in enumerate(pivots):
                w = words[j]
                f_cols[w[-1], index[w[:-1]]] = {base + r: one}
            if len(pivots) < len(words):
                rest = [j for j in range(len(words)) if j not in pivots]
                sols = solve_linear(sub, *[[gram[a][j] for a in pivots] for j in rest])
                for j, sol in zip(rest, sols):
                    w = words[j]
                    f_cols[w[-1], index[w[:-1]]] = {base + r: v for r, v in enumerate(sol) if v}
            index.update((words[j], base + r) for r, j in enumerate(pivots))
            layer.extend(words[j] for j in pivots)
            weights.extend([wt] * len(pivots))
    e_cols = {}
    for u, col in index.items():
        if not u:
            continue
        p, x = index[u[:-1]], u[-1]
        for i in range(1, rank + 1):
            acc = {}
            for r, val in e_cols.get((i, p), {}).items():
                for row, fv in f_cols.get((x, r), {}).items():
                    term = val if fv is one else val * fv
                    acc[row] = acc[row] + term if row in acc else term
            if i == x:
                h = quantum_integer(weights[p][i - 1])
                acc[p] = acc[p] + h if p in acc else LaurentFrac(h)
            e_cols[i, col] = {row: v for row, v in acc.items() if not v.is_zero()}
    dim = len(index)
    zero = LaurentFrac.zero()
    e_mats = {i: [[zero] * dim for _ in range(dim)] for i in range(1, rank + 1)}
    f_mats = {i: [[zero] * dim for _ in range(dim)] for i in range(1, rank + 1)}
    for mats, cols in ((e_mats, e_cols), (f_mats, f_cols)):
        for (i, col), coords in cols.items():
            for row, val in coords.items():
                mats[i][row][col] = val
    return HighestWeightModule(rank, hw, list(index), weights, e_mats, f_mats, gram_rows)


def _cleared(mat):
    """A dense matrix of LaurentFracs without denominators: (D, rows), with D the lcm of
    its entries' denominators and rows {row: {col: LaurentPoly}} its nonzero entries
    times D.

    Each lcm step multiplies D by what a denominator d adds to it, d / gcd(D, d), the
    denominator of LaurentFrac(D, d); once D is the lcm, LaurentFrac(D, d) is D / d."""
    # `build_irreducible` fills a dense matrix with one zero object, so an identity test
    # skips most entries before the truth test
    zero = next((v for row in mat for v in row if not v), None)
    rows = {}
    for r, row in enumerate(mat):
        nonzero = {c: v for c, v in enumerate(row) if v is not zero and v}
        if nonzero:
            rows[r] = nonzero
    dens = {v.den for row in rows.values() for v in row.values()}
    lcm = LaurentPoly.one()
    for d in dens:
        if d != 1:
            lcm = lcm * LaurentFrac(lcm, d).den
    if lcm == 1:
        return lcm, {r: {c: v.num for c, v in row.items()} for r, row in rows.items()}
    cofactor = {d: LaurentFrac(lcm, d).num for d in dens}
    return lcm, {
        r: {c: v.num * cofactor[v.den] for c, v in row.items()} for r, row in rows.items()
    }


def _product(a, b):
    """Product of two sparse matrices; entries that cancel are kept as zeros."""
    out = {}
    for r, arow in a.items():
        acc = out[r] = {}
        for k, v in arow.items():
            for c, w in b.get(k, {}).items():
                acc[c] = acc[c] + v * w if c in acc else v * w
    return out


def _entries(*mats):
    """The nonzero entries {(row, col): value} of a sum of sparse matrices."""
    out = {}
    for m in mats:
        for r, row in m.items():
            for c, v in row.items():
                out[r, c] = out[r, c] + v if (r, c) in out else v
    return {key: v for key, v in out.items() if v}


def _certificate(weights, e, f):
    """The shifts s_X and the exponent k at which `verify_relations` evaluates the
    cleared matrices e[i], f[i] (each a `_cleared` pair), as (shifts of E, shifts of F, k).

    q^s_X times a cleared X is a polynomial, and s_E_i + s_F_i is at least |wt_i| - 1 on
    every weight, so q^(s_E_i + s_F_i) [wt_i] is one too.  With rho_X the largest l1 sum
    of a row of the cleared X, an entry of a product XY has l1 norm at most rho_X rho_Y,
    and of XYZ at most rho_X rho_Y rho_Z.  So the difference of the two sides of each
    relation, cleared and shifted, has l1 norm at most
      2 rho_E rho_F + |D_E|_1 |D_F|_1 max|wt_i|  for [E_i, F_j] = delta_ij [h_i],
      2 rho_i rho_j                              for X_i X_j = X_j X_i,
      4 rho_i^2 rho_j                            for Serre, times q: [2] = q^-1 (q^2 + 1),
    and 2^k exceeds all of them."""
    def rho(rows):
        return max((sum(p.l1_norm() for p in row.values()) for row in rows.values()), default=0)

    def low(rows):
        return -min((p.min_exp() for row in rows.values() for p in row.values()), default=0)

    span = range(1, len(e) + 1)
    rho_e = {i: rho(e[i][1]) for i in span}
    rho_f = {i: rho(f[i][1]) for i in span}
    top = {i: max(abs(wt[i - 1]) for wt in weights) for i in span}
    shift_f = {i: max(0, low(f[i][1])) for i in span}
    shift_e = {i: max(0, low(e[i][1]), top[i] - 1 - shift_f[i]) for i in span}
    bound = 0
    for i in span:
        for j in span:
            b = 2 * rho_e[i] * rho_f[j]
            if i == j:
                b += e[i][0].l1_norm() * f[j][0].l1_norm() * top[i]
            elif abs(i - j) >= 2:
                b = max(b, 2 * rho_e[i] * rho_e[j], 2 * rho_f[i] * rho_f[j])
            else:
                b = max(b, 4 * rho_e[i] ** 2 * rho_e[j], 4 * rho_f[i] ** 2 * rho_f[j])
            bound = max(bound, b)
    return shift_e, shift_f, bound.bit_length()


def verify_relations(module):
    """Check the defining relations of U_q(sl_{n+1}) on the module's E and F matrices.

    The K relations K_i E_j K_i^-1 = q^{a_ij} E_j and K_i F_j K_i^-1 = q^{-a_ij} F_j are
    checked as the weight grading they amount to entry by entry: every nonzero entry
    of E_j (of F_j) maps a basis vector of weight wt to one of weight wt + alpha_j
    (wt - alpha_j), alpha_j being column j of the Cartan matrix.  Then
    [E_i, F_j] = delta_ij [h_i], with [h_i] acting on weight wt by the quantum integer
    [wt_i]; X_i X_j = X_j X_i for |i - j| >= 2; and the quantum Serre relation
    X_i^2 X_j - [2] X_i X_j X_i + X_j X_i^2 = 0 for |i - j| = 1, for X = E and X = F.
    Returns False on the first relation that fails.

    No relation is checked in Z[q, q^-1].  Each matrix X is read once and multiplied by
    q^s_X D_X, D_X its common denominator, and every relation by the product of the
    q^s_X D_X of its letters, which is nonzero.  Every entry is then a polynomial in
    Z[q], evaluated once at q = 2^k (`_certificate`), and each relation is an identity
    of integer matrices.  2^k exceeds the l1 norm of the difference of its two sides,
    and a nonzero integer polynomial has no root of modulus at least its l1 norm, so
    the integer identity holds iff the polynomial one does.

    The grading is checked against each column's target weight, computed once.  On
    each side, a distant pair compares X_i X_j with X_j X_i once, and Serre forms
    X_i X_j once per ordered pair and X_i^2 once per i, at i's first neighbour, and
    compares X_i (X_i X_j) and X_j (X_i^2) with (X_i X_j) X_i.
    """
    rank = module.rank
    weights = module.weights
    cartan = CartanA(rank)
    span = range(1, rank + 1)
    e = {i: _cleared(module.e_mats[i]) for i in span}
    f = {i: _cleared(module.f_mats[i]) for i in span}
    for j in span:
        alpha = [cartan.entry(i, j) for i in span]
        for (_, rows), sign in ((e[j], 1), (f[j], -1)):
            # the weight that a row must have for an entry in each column
            target = [tuple([w + sign * a for w, a in zip(wt, alpha)]) for wt in weights]
            for r, row in rows.items():
                wt = weights[r]
                for c in row:
                    if wt != target[c]:
                        return False
    shift_e, shift_f, k = _certificate(weights, e, f)

    def value(rows, shift):
        return {
            r: {c: at_power_of_two(p, k, shift) for c, p in row.items()} for r, row in rows.items()
        }

    ev = {i: value(e[i][1], shift_e[i]) for i in span}
    fv = {i: value(f[i][1], shift_f[i]) for i in span}
    for i in span:
        scale = at_power_of_two(e[i][0], k) * at_power_of_two(f[i][0], k)
        shift = shift_e[i] + shift_f[i]
        bracket = {
            n: scale * at_power_of_two(quantum_integer(n), k, shift)
            for n in {wt[i - 1] for wt in weights}
        }
        h = {r: {r: bracket[wt[i - 1]]} for r, wt in enumerate(weights)}
        for j in span:
            ef, fe = _product(ev[i], fv[j]), _product(fv[j], ev[i])
            if _entries(ef) != _entries(fe, h if i == j else {}):
                return False
    q = 1 << k
    for x in (ev, fv):
        for i in span:
            square = None  # X_i^2, formed at i's first neighbour
            for j in span:
                if abs(i - j) >= 2:
                    if i < j and _entries(_product(x[i], x[j])) != _entries(_product(x[j], x[i])):
                        return False
                elif abs(i - j) == 1:
                    if square is None:
                        square = _product(x[i], x[i])
                    # the Serre relation times q: q X_i^2 X_j + q X_j X_i^2 = (q^2 + 1) X_i X_j X_i
                    xy = _product(x[i], x[j])
                    outer = _entries(_product(x[i], xy), _product(x[j], square))
                    middle = _entries(_product(xy, x[i]))
                    if {key: v * q for key, v in outer.items()} != {
                        key: v * (q * q + 1) for key, v in middle.items()
                    }:
                        return False
    return True


def branching_character_check(lam):
    """Read the restriction of V(lam) from U_q(sl_{n+1}) to U_q(sl_n) off one module.

    By complete reducibility, the vectors of a weight space that E_1 ... E_{n-1} all kill
    span the sl_n highest-weight vectors of that weight, one per summand.  The branching
    rule gives one summand per interlacing mu, whose highest weight in V(lam)'s
    coordinates is (mu_1 - mu_2, ..., mu_{n-1} - mu_n, mu_n - (|lam| - |mu|)).  So the
    check counts those kernels, each as the weight space's dimension less the rank of the
    E rows restricted to it, each E_i multiplied by its common denominator.

    Returns a report dict with the total dimension on the left and the list of summand
    dimensions on the right, in enumeration order.
    """
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if lam.part_count < 2:
        raise ValueError("need at least two parts")
    module = build_irreducible(weight_of_partition(lam).entries)
    n = module.rank
    rhs = []
    expected = Counter()
    for mu in interlacing_set(lam, "all"):
        rhs.append(weyl_dim(mu))
        m = mu.parts
        top = tuple(m[i] - m[i + 1] for i in range(n - 1)) + (m[-1] - lam.size() + mu.size(),)
        expected[top] += 1
    # E_i sends each weight space into one other, so the columns of a row of E_i all lie
    # in one weight space: the rows are grouped by the weight of their first column
    e_rows = {}
    for i in range(1, n):
        for row in _cleared(module.e_mats[i])[1].values():
            e_rows.setdefault(module.weights[next(iter(row))], []).append(row)
    found = {}
    for wt, cols in module.weight_spaces.items():
        rows = [[row.get(c, 0) for c in cols] for row in e_rows.get(wt, ())]
        kernel = len(cols) - matrix_rank(rows)
        if kernel:
            found[wt] = kernel
    ok = found == expected and module.dim() == sum(rhs)
    return {"ok": ok, "lhs": module.dim(), "rhs": rhs}
