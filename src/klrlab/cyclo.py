"""Cyclotomic quotients: exact elimination against rows that span each graded piece of
the ideal, graded Hom dimensions, branching projections, and Gelfand-Tsetlin
idempotents.  Only the degree cap bounds the work."""

import functools
import itertools
from fractions import Fraction
from operator import add

from .combi import GlWeight, Partition, XiSequence, _step_rows, enumerate_gt_patterns
from .combi import weight_of_partition, xi_apply
from .klr import (
    KLRElement,
    KLRWord,
    SpecialIdempotentSpec,
    canonical_terms,
    decorate_regions,
    element_from_canonical,
    idempotent,
    normal_form,
)
from .klr import _bump, _lexmin, _mult_gen, _perm_of
from .qint import LaurentPoly

__all__ = [
    "CycContext",
    "GTIdempotent",
    "make_context",
    "cyc_reduce",
    "gdim_hom",
    "special_idempotent",
    "pi_project",
    "branch_context",
    "append_free_strand",
    "gt_idempotent",
    "gt_orthogonality_cap",
    "gt_orthogonality_check",
    "gt_orthogonality_reach",
    "sl2_vanishing_check",
    "weyl_vanishing_check",
    "hom_record",
]

EXACT = "exact"
CAPPED = "capped"
# The degree cap of a quotient context built without one (`make_context`, the CLI).
DEFAULT_DEGREE_CAP = 16


@functools.cache
def _compositions(total, slots):
    """All exponent tuples of the given length summing to total."""
    if slots == 0:
        return ((),) if total == 0 else ()
    if slots == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in _compositions(total - first, slots - 1)
    )


def _cross_contrib(a, b):
    if a == b:
        return -2
    if abs(a - b) == 1:
        return 1
    return 0


@functools.cache
def _compatible_perms(bottom, top):
    """All strand permutations carrying one boundary to the other, with their lexmin
    reduced words and crossing degrees, in lexicographic order of the permutation.

    The permutations are built label by label: bottom position p takes each free slot
    s of top, in ascending order, that carries its label."""
    m = len(bottom)
    out = []

    def place(p, perm, free):
        if p == m:
            cd = 0
            for i in range(m):
                for j in range(i + 1, m):
                    if perm[i] > perm[j]:
                        cd += _cross_contrib(bottom[i], bottom[j])
            out.append((perm, _lexmin(perm), cd))
            return
        for s in free:
            if top[s - 1] == bottom[p]:
                place(p + 1, perm + (s,), [t for t in free if t != s])

    place(0, (), list(range(1, m + 1)))
    return tuple(out)


@functools.cache
def _coset_middles(bottom):
    """The m - 1 non-identity minimal coset representatives of S_m / (S_1 x S_{m-1}),
    from bottom to the middle boundary, as (mid, vb, cdb).

    The one for bottom position j > 0 (from 0) moves that strand to slot 1 and keeps the
    order of the others: mid is (bottom[j],) + the rest, vb = (j, ..., 1) is its lexmin
    word, and cdb sums the crossing degrees of the strands it passes.  They come sorted
    by (mid, permutation), the order of a scan over every permutation."""
    out = []
    for j in range(1, len(bottom)):
        mid = (bottom[j],) + bottom[:j] + bottom[j + 1:]
        cdb = sum(_cross_contrib(b, bottom[j]) for b in bottom[:j])
        out.append((mid, j, tuple(range(j, 0, -1)), cdb))
    out.sort()
    return tuple((mid, vb, cdb) for mid, _, vb, cdb in out)


@functools.cache
def _basis_keys(bottom, top, delta):
    """The canonical-word keys (dot exponents, crossing word) spanning one graded piece,
    in sorted order, each mapped to its column: its position in that order (a shared
    dict: callers must not mutate it).

    The echelon of a piece runs on columns, not keys: an int hashes and compares far
    faster than a nested tuple, and because the columns number the keys in order, a
    column order is the key order (`_standard_form` reads the normal form on keys off
    it)."""
    m = len(bottom)
    keys = []
    for _, word, cd in _compatible_perms(bottom, top):
        rem = delta - cd
        if rem < 0 or rem % 2:
            continue
        for comp in _compositions(rem // 2, m):
            keys.append((comp, word))
    keys.sort()
    return {key: col for col, key in enumerate(keys)}


class _Echelon:
    """Reduced row echelon form over the columns of one graded piece (`_basis_keys`), in
    exact arithmetic.  A row is a dict {column: coefficient}.

    A row whose pivot coefficient is 1 is stored as it is and one whose pivot is -1 is
    negated; only another pivot coefficient divides the row through by a `Fraction`.
    Every integral entry, stored or reduced, is kept as an int (`_integral`), so on the
    ideal rows, whose coefficients are almost all +-1, the elimination runs on plain ints.

    `rows` maps each pivot (the least column of its row) to a row whose pivot entry is 1
    and which is zero at every other pivot: `insert` back-substitutes each new row into
    the others.  Because of that invariant, clearing one pivot of a vector never changes
    its entry at another, so `reduce` clears the pivots a vector meets in any order, in
    one pass, and the result is the unique normal form of the vector modulo the row span
    on the non-pivot columns.  The pivot order decides the fill-in: on the ideal rows the
    least column stores less than half the entries of the largest at the (3,0) anchor
    e(1,1,1,1), and a fifth on e(1^5) at (4,0).  Rank and span do not depend on it.

    `cols` indexes that back-substitution: it maps a column to a set of pivots that holds
    every stored row with a nonzero entry in the column (other than its own pivot).  The
    set may also hold stale pivots, whose row has since cancelled the column, so each is
    checked with `row.get`; only a row's new columns are added.  Once a column is a
    pivot, back-substitution clears it from every other row and no later row holds it
    (later rows are reduced first), so its entry is popped when its row is inserted.
    """

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows = {}
        self.cols = {}

    def reduce(self, vec):
        out = dict(vec)
        rows = self.rows
        for pivot in [k for k in out if k in rows]:
            _axpy(out, -out[pivot], rows[pivot])
        return out

    def insert(self, vec):
        """Add a row; return its pivot, or None when it reduces to zero."""
        r = self.reduce(vec)
        if not r:
            return None
        pivot = min(r)
        lead = r[pivot]
        if lead == -1:
            r = {k: -v for k, v in r.items()}
        elif lead != 1:
            r = {k: _integral(Fraction(v, lead)) for k, v in r.items()}
        rows = self.rows
        cols = self.cols
        for k in r:
            if k != pivot:
                holders = cols.get(k)
                if holders is None:
                    cols[k] = {pivot}
                else:
                    holders.add(pivot)
        for p in cols.pop(pivot, ()):
            row = rows[p]
            c = row.get(pivot)
            if not c:
                continue
            for k, v in r.items():
                old = row.get(k)
                nv = -c * v if old is None else old - c * v
                if nv:
                    row[k] = nv if type(nv) is int else _integral(nv)
                    if old is None:
                        cols[k].add(p)
                else:
                    row.pop(k, None)
        rows[pivot] = r
        return pivot

    def rank(self):
        return len(self.rows)


def _integral(v):
    """An int or Fraction, as an int when it is one: int arithmetic is far cheaper."""
    return v.numerator if v.denominator == 1 else v


def _axpy(out, c, row):
    """out += c * row in place, dropping entries that cancel; integral values stay ints."""
    for k, v in row.items():
        nv = out.get(k, 0) + c * v
        if nv:
            out[k] = nv if type(nv) is int else _integral(nv)
        else:
            out.pop(k, None)


class _RowSource:
    """Lazily materialized, replayable stream of ideal spanning rows for one graded piece.

    `capped` is always False: the rows of a piece are never cut.  It is kept only for
    readers of the old per-source flag (the benchmark tracer counts capped sources).
    """

    capped = False

    def __init__(self, gen):
        self._gen = gen
        self.rows = []
        self.exhausted = False

    def get(self, idx):
        while len(self.rows) <= idx and not self.exhausted:
            try:
                self.rows.append(next(self._gen))
            except StopIteration:
                self.exhausted = True
        if idx < len(self.rows):
            return self.rows[idx]
        return None


class CycContext:
    """A cyclotomic quotient workspace: the partition, the degree cap, and warm memo state.

    `states` holds one echelon per swept Hom piece, keyed (bottom, top, degree), and
    `sources` its spanning rows.  `reps` (`_ClassReps`) holds one record per label
    sequence `gdim_hom` has been asked about, keyed by the sequence as given and made on
    first sight: (content, rep, flipped), its sorted int labels, its commutation-class
    representative, and that of its Dynkin flip at a self-dual weight (else None).  A
    sequence is converted and range-checked once, when its record is made.  `homs` holds
    each `gdim_hom` answer (poly, status), keyed by the pair as given and by the pair
    swept (the sorted class representatives, or at a self-dual weight the lesser of
    those and of their Dynkin flip's image).  An answer depends only on the pair, and
    the degree cap is fixed per context, so a pair asked again is one lookup, and a new
    pair whose swept pair was answered is three: its two records and the swept pair.
    `children` holds the quotient context one branching step down (`branch_context`),
    keyed by the xi rows, built on first use with the same degree cap.
    """

    def __init__(self, lam, degree_cap):
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        if lam.part_count < 1:
            raise ValueError("partition needs at least one part")
        if degree_cap is None or degree_cap <= 0:
            raise ValueError("degree_cap must be a positive integer")
        self.lam = lam
        self.rank = lam.part_count - 1
        if self.rank >= 1:
            self.weight = tuple(weight_of_partition(lam).entries)
        else:
            self.weight = ()
        self.degree_cap = int(degree_cap)
        self.sources = {}
        self.states = {}
        self.reps = _ClassReps(self.rank, self.weight)
        self.homs = {}
        self.children = {}

    def __repr__(self):
        return f"CycContext(lam={tuple(self.lam)}, degree_cap={self.degree_cap})"


def make_context(lam, degree_cap=DEFAULT_DEGREE_CAP):
    """Build a quotient context."""
    return CycContext(lam, degree_cap)


def _ideal_row_gen(ctx, bottom, top, delta):
    """Yield rows that span the two-sided ideal piece e(bottom) I e(top) of one degree over Z.

    Rows come as dicts {column: coefficient} over the piece's columns (`_basis_keys`):
    each is a canonical-term dict with every key replaced by its column, in the same
    order.  Products are written in the order the ops are read, bottom to top.  Unit rows
    for words already carrying the full dot power on the leftmost strand come first
    (each is x_1^gpow e(bottom) times a word, so it lies in the ideal); then the rows
    x^comp * psi_vb * x_1^gpow * psi_va, where psi_vb runs over the m - 1 non-identity
    minimal coset representatives of S_m / (S_1 x S_{m-1}) from bottom to a middle
    boundary `mid` (`_coset_middles`: the strands that do not end at slot 1 of mid keep
    their order), psi_va over every permutation from mid to top, and x^comp over every
    dot exponent at the bottom that fills the degree.

    Why these span.  The piece is the sum over mid of
    e(bottom) R e(mid) * x_1^gpow e(mid) * e(mid) R e(top).  By the basis theorem
    (Khovanov-Lauda; Rouquier) each factor is spanned over Z by x^c psi_w, dots at the
    bottom, for any choice of a reduced word of each w (two reduced words of one w differ
    by terms with shorter words, so induct on length).  x^c' commutes with x_1^gpow and
    x^c psi_w x^c' lies back in the left factor's span, so the piece is spanned by
    x^c psi_w x_1^gpow psi_w'.  Write w = u * v with u a minimal coset representative and
    v in S_1 x S_{m-1} at the mid end, and take u's word followed by one of v's as w's.
    psi_v involves only psi_2 ... psi_{m-1}, which commute with x_1^gpow (the label at
    slot 1 stays, so gpow is the same), so it joins the right factor; moving the dots of
    the normal form of psi_v psi_w' back down through psi_u leaves x^c psi_u x_1^gpow
    psi_w'' plus terms whose left word is shorter, which span by induction on l(w).  A
    graded piece is finite, so its rows are never cut.

    Why the identity coset is left out.  Its middle is bottom itself and its gpow is
    lambda_{bottom[0]}, so each of its rows is the single key
    ((comp_1 + gpow, comp_2, ...), va): every basis key whose x_1 exponent is at least
    gpow, once each.  That is exactly the set of unit rows, which come first.

    How a row is built.  base = psi_vb * x_1^gpow * psi_va is built once per (mid, vb, va)
    whose degree fits: va is the lexmin word of its permutation (`_compatible_perms`), so
    x_1^gpow * psi_va is the canonical key ((gpow, 0, ...), va), and vb's crossings are
    multiplied in underneath, one `_mult_gen` each, as `canonical_terms` would.  Dots
    sit below crossings in a canonical key, so x^comp * base is base with comp added to
    every exponent tuple: the canonical dict, in the same key order, with no rewriting.
    """
    m = len(bottom)
    if m == 0 or ctx.rank == 0:
        return
    lam_bottom = ctx.weight[bottom[0] - 1]
    cols = _basis_keys(bottom, top, delta)
    for key, col in cols.items():
        if key[0][0] >= lam_bottom:
            yield {col: 1}
    for mid, vb, cdb in _coset_middles(bottom):
        gpow = ctx.weight[mid[0] - 1]
        for _, va, cda in _compatible_perms(mid, top):
            rem = delta - 2 * gpow - cda - cdb
            if rem < 0 or rem % 2:
                continue
            b, base = mid, {((gpow,) + (0,) * (m - 1), va): 1}
            for g in reversed(vb):
                b, base = _mult_gen(b, base, "cross", g)
            if not base:
                continue
            for comp in _compositions(rem // 2, m):
                yield {cols[tuple(map(add, e, comp)), w]: c for (e, w), c in base.items()}


def _new_state(ctx, bottom, top, delta):
    """A fresh echelon on the piece's shared, replayable row source, with the piece's
    columns (`_basis_keys`)."""
    key = (bottom, top, delta)
    source = ctx.sources.get(key)
    if source is None:
        source = ctx.sources[key] = _RowSource(_ideal_row_gen(ctx, bottom, top, delta))
    cols = _basis_keys(bottom, top, delta)
    return {"ech": _Echelon(), "source": source, "fed": 0, "cols": cols, "form": None}


class _ClassReps(dict):
    """{sequence: (content, rep, flipped)} for one context, keyed by the sequence as
    given and filled on first lookup.  content is the sorted tuple of its int labels; rep
    is its `_class_rep`, or the int labels themselves at rank <= 2, where no two labels
    are distant; flipped is the same for the sequence's Dynkin flip i -> n + 1 - i when
    the weight is self-dual and the rank at least 2, and None otherwise.  A label outside
    1..rank raises ValueError and stores no record."""

    __slots__ = ("rank", "distant", "top")

    def __init__(self, rank, weight):
        super().__init__()
        self.rank = rank
        self.distant = rank >= 3
        self.top = rank + 1 if rank >= 2 and weight == weight[::-1] else None

    def __missing__(self, seq):
        labels = tuple(map(int, seq))
        content = tuple(sorted(labels))
        if content and (content[0] < 1 or content[-1] > self.rank):
            raise ValueError(f"strand labels must lie in 1..{self.rank}")
        rep = _class_rep(labels) if self.distant else labels
        flipped = None
        if self.top is not None:
            flipped = tuple(self.top - v for v in labels)
            if self.distant:
                flipped = _class_rep(flipped)
        self[seq] = out = (content, rep, flipped)
        return out


def _class_rep(seq):
    """The lexicographically least sequence reachable from `seq` by swapping adjacent
    labels a, b with |a - b| > 1.  Greedy: each step takes the least letter whose first
    occurrence commutes with every letter before it, and removes that occurrence."""
    rest = list(seq)
    rep = []
    while rest:
        best = None
        for k, a in enumerate(rest):
            if (best is None or a < rest[best]) and all(abs(a - b) > 1 for b in rest[:k]):
                best = k
        rep.append(rest.pop(best))
    return tuple(rep)


def _get_state(ctx, bottom, top, delta):
    key = (bottom, top, delta)
    state = ctx.states.get(key)
    if state is None:
        state = ctx.states[key] = _new_state(ctx, bottom, top, delta)
    return state


def _feed(state):
    """Feed the piece's next spanning row into the echelon.  Return its pivot, None when
    it reduced to zero, or False when the source has run dry."""
    row = state["source"].get(state["fed"])
    if row is None:
        return False
    state["fed"] += 1
    return state["ech"].insert(row)


def _reduce_vec(ctx, bottom, top, delta, vec):
    """Remainder of `vec` (canonical terms of one degree) modulo the ideal piece, feeding
    rows until it vanishes.

    The remainder is reduced once, on columns, then kept reduced as rows come in: a new
    pivot p needs only `rem -= rem[p] * row_p`, since every older row is zero at p and
    the new row is zero at every older pivot.  A remainder that is still nonzero once the
    source runs dry is the normal form on the final echelon's non-pivot columns; it is
    reported on the standard keys instead, read off the quotient once per piece
    (`_standard_form`, kept in the piece's state).
    """
    state = _get_state(ctx, bottom, top, delta)
    cols = state["cols"]
    # plain loops, not comprehensions: on a piece of a few keys the translation is a
    # visible share of a reduction, and before Python 3.12 a comprehension is a call
    colvec = {}
    for k, c in vec.items():
        colvec[cols[k]] = c
    ech = state["ech"]
    remainder = ech.reduce(colvec)
    while remainder:
        pivot = _feed(state)
        if pivot is False:
            break
        if pivot is not None:
            c = remainder.get(pivot)
            if c:
                _axpy(remainder, -c, ech.rows[pivot])
    if not remainder:
        return {}
    if state["form"] is None and not ech.cols.keys().isdisjoint(remainder):
        # a column that no row holds is standard, so until a remainder meets a column
        # that one does (`_Echelon.cols` lists them), no read-off is needed
        state["form"] = _standard_form(ech, cols)
    keys, form = state["form"] or (tuple(cols), {})
    out = {}
    for col, c in remainder.items():
        f = form.get(col)
        if f is None:
            out[keys[col]] = c
        else:
            _axpy(out, c, f)
    return out


def _standard_form(ech, cols):
    """The piece's keys in column order, and {n: {key: coefficient}} for each column n
    that a row of a final echelon holds besides its pivot: the combination of standard
    keys that e_n equals modulo the row span.

    A column is standard when it leads no element of the span under the largest-column
    order, that is when its image in the quotient is independent of the images of every
    smaller column; the standard keys carry the normal form that `cyc_reduce` reports.
    The image of a non-pivot column n is e_n, and that of a pivot p is minus row_p
    without its pivot entry, which lies on the columns the row holds.  So a unit row's
    pivot has image 0, and a non-pivot column that no row holds is independent of every
    other image: it is standard and its own form.  The other columns, the pivots of the
    longer rows and the columns those rows hold, are scanned upward into a second
    echelon: each image that is independent of the ones before goes in with a tag column
    of its own, past the piece's columns, so once every held column is a pivot there, the
    row at n reads e_n as a combination of the tagged images.
    """
    keys = tuple(cols)
    rows = ech.rows
    longer = [p for p, row in rows.items() if len(row) > 1]
    held = {k for p in longer for k in rows[p] if k != p}
    tag = len(keys)
    scan = _Echelon()
    for c in sorted(held.union(longer)):
        if c in held:
            image = {c: 1}
        else:
            image = {k: -v for k, v in rows[c].items() if k != c}
        image[tag + c] = 1
        image = scan.reduce(image)
        if min(image) < tag:
            scan.insert(image)
            if len(scan.rows) == len(held):
                break
    form = {}
    for n in held:
        form[n] = {keys[t - tag]: v for t, v in scan.rows[n].items() if t != n}
    return keys, form


def _rank_dim(state, nbasis):
    """Dimension of one graded piece of the quotient: feed rows until they span it."""
    rows = state["ech"].rows
    while len(rows) < nbasis and _feed(state) is not False:
        pass
    return nbasis - len(rows)


def _reduce_terms(ctx, bottom, top, terms):
    """`cyc_reduce` on canonical terms from `bottom` to `top`: (terms, status).  A key's
    degree is twice its dot count plus its permutation's crossing degree."""
    cross_deg = {word: cd for _, word, cd in _compatible_perms(bottom, top)}
    pieces = {}
    for (exps, word), c in terms.items():
        pieces.setdefault(2 * sum(exps) + cross_deg[word], {})[exps, word] = c
    out = {}
    status = EXACT
    for delta in sorted(pieces):
        vec = pieces[delta]
        if delta > ctx.degree_cap:
            out.update(vec)
            status = CAPPED
            continue
        out.update(_reduce_vec(ctx, bottom, top, delta, vec))
    return out, status


def cyc_reduce(x, ctx):
    """Reduce an element modulo the cyclotomic ideal, one graded piece at a time.

    Returns (element, status).  Each piece's rows span its ideal piece, so the remainder
    is the unique normal form of the piece modulo the ideal: zero is a membership
    certificate and a nonzero remainder is certified too.  Only a piece above
    `ctx.degree_cap` is left unreduced, and then the status is capped.
    """
    if isinstance(x, KLRWord):
        x = KLRElement(x.rank, {x: 1})
    if ctx.rank == 0:
        y = normal_form(x)
        if any(len(w.bottom) for w in y.terms):
            raise ValueError("strands present but the context has an empty quiver")
        return y, EXACT
    if x.rank != ctx.rank:
        raise ValueError(f"element rank {x.rank} does not match context rank {ctx.rank}")
    bottom, terms = canonical_terms(x)
    if bottom is None:
        return KLRElement(ctx.rank, {}), EXACT
    out, status = _reduce_terms(ctx, bottom, x.top, terms)
    return element_from_canonical(ctx.rank, bottom, out), status


def gdim_hom(e, e2, ctx):
    """Graded dimension of the Hom space between two idempotents in the quotient.

    Each degree's dimension is exact (its rows span the ideal piece).  The sweep runs from
    the least crossing degree until the top two computed degrees vanish, or the degree
    cap is hit (then the status is capped).  A label outside 1..ctx.rank raises
    ValueError.

    R^Lambda_beta is graded symmetric and the diagram flip is an anti-involution, so the
    piece is palindromic about d = (Lambda, beta) - (beta, beta)/2: dim_delta equals
    dim_{2d - delta}.  Only the degrees up to d get an echelon; each degree above d is
    read off its mirror, which the sweep has already passed (a mirror below the least
    crossing degree reads 0).  The stopping rule is kept as it is, so every answer and
    status is the one a sweep that computes each degree gives.  That rule is not a
    certificate: a sweep can stop at two zero degrees below d, where a certified sweep
    would run on to d.

    The pair is swept on the least representatives of its commutation classes
    (`_class_rep`, kept in `ctx.reps`), in sorted order, so every pair of two classes
    shares one set of echelons.  If |i_k - i_k+1| > 1, psi_k e(i) has degree 0 and
    psi_k^2 e(i) = e(i); the ideal is two-sided, so multiplying by psi_k on either side
    is a degree-0 isomorphism between the Hom pieces of i and of s_k i.  It toggles only
    the inversion of the two distant strands, whose crossing degree is 0, so dmin is the
    same too, and d depends only on the content.  The flip fixes every dot and
    idempotent, hence the cyclotomic generators, so it maps e R^Lambda e2 onto
    e2 R^Lambda e degree by degree.  So each degree, and with it the stopping rule's
    answer, is the same for the pair as given and for the pair swept.

    At a self-dual weight (Lambda* = Lambda, the fundamental coordinates a palindrome)
    the Dynkin flip sigma: i -> n + 1 - i is an automorphism of the quiver that fixes
    Lambda, so it maps e(i) R^Lambda e(j) onto e(sigma i) R^Lambda e(sigma j) degree by
    degree and keeps every crossing degree, hence dmin and d.  There the pair swept is
    the lesser of the sorted pair of reps and the same pair built for (sigma e,
    sigma e2) (`_swept_pair`), so the two pairs of a flip orbit share one set of
    echelons.

    Each answer is kept in `ctx.homs` under the pair as given and the pair swept.  A
    pair asked again is one lookup; it was validated when its answer was stored.  A new
    pair reads each sequence's record in `ctx.reps` (content, class rep and flip rep,
    made and range-checked the first time the sequence is seen), compares the contents,
    and looks up the swept pair (`_swept_pair`): a pair on an orbit already swept costs
    those three lookups and no conversion, sort or range check.  Lists are turned into
    tuples first, and their answers are kept under the swept pair only.
    """
    given = (e, e2)
    try:
        hit = ctx.homs.get(given)
    except TypeError:
        # unhashable labels (lists) are looked up and stored as the swept pair only
        given = hit = None
        e, e2 = tuple(e), tuple(e2)
    if hit is not None:
        return hit
    rec, rec2 = ctx.reps[e], ctx.reps[e2]
    if rec[0] != rec2[0]:
        return LaurentPoly.zero(), EXACT
    if ctx.rank == 0:
        # no label lies in 1..0, so e = e2 = ()
        return LaurentPoly.one(), EXACT
    pair = _swept_pair(rec, rec2)
    hit = ctx.homs.get(pair)
    if hit is None:
        hit = ctx.homs[pair] = _sweep(ctx, *pair)
    if given is not None:
        ctx.homs[given] = hit
    return hit


def _swept_pair(rec, rec2):
    """The pair `gdim_hom` sweeps for two sequences' `ctx.reps` records: the sorted pair
    of class representatives, or at a self-dual weight the lesser of it and the same pair
    built for the Dynkin flip's image (sigma e, sigma e2)."""
    _, r, f = rec
    _, r2, f2 = rec2
    pair = (r, r2) if r <= r2 else (r2, r)
    if f is not None:
        pair = min(pair, (f, f2) if f <= f2 else (f2, f))
    return pair


def _sweep(ctx, e, e2):
    """The stopping-rule sweep of one pair: `gdim_hom`'s (poly, status)."""
    dmin, dmax = _symmetry_range(ctx.weight, e, e2)
    dims = {}
    delta = dmin
    while delta <= ctx.degree_cap:
        if 2 * delta > dmin + dmax:
            # graded symmetry: the mirror degree was swept already, or lies below dmin
            dims[delta] = dims.get(dmin + dmax - delta, 0)
        else:
            nbasis = len(_basis_keys(e, e2, delta))
            # a piece with no basis keys (a degree of the other parity) needs no echelon
            dims[delta] = _rank_dim(_get_state(ctx, e, e2, delta), nbasis) if nbasis else 0
        if delta >= dmin + 1 and dims[delta] == 0 and dims[delta - 1] == 0:
            status = EXACT
            break
        delta += 1
    else:
        status = CAPPED
    return LaurentPoly({d: v for d, v in dims.items() if v}), status


def _xi_rows(xi):
    return xi.rows if isinstance(xi, XiSequence) else tuple(int(v) for v in xi)


def special_idempotent(xi, tail, ctx):
    """Assemble a block-plus-tail boundary after checking the blocks fit the partition."""
    rows = _xi_rows(xi)
    if rows and not XiSequence(rows).is_dominant(ctx.lam):
        raise ValueError(f"xi sequence {rows} is not dominant for {tuple(ctx.lam)}")
    return SpecialIdempotentSpec(ctx.rank, rows, tail)


def branch_context(ctx, xi):
    """The quotient context one branching step down, cached on the parent."""
    rows = _xi_rows(xi)
    child = ctx.children.get(rows)
    if child is None:
        target = xi_applied_partition(ctx.lam, rows)
        child = CycContext(target, ctx.degree_cap)
        ctx.children[rows] = child
    return child


def xi_applied_partition(lam, rows):
    """Remove one box per row index, then drop the deepest part."""
    mu = xi_apply(XiSequence(rows), lam) if rows else lam
    parts = tuple(mu)
    return Partition(parts[:-1])


def append_free_strand(x, j):
    """Add a non-interacting strand at the right edge."""
    if isinstance(x, KLRWord):
        x = KLRElement(x.rank, {x: 1})
    j = int(j)
    terms = {}
    for w, c in x.terms.items():
        terms[KLRWord(w.rank, w.bottom + (j,), w.ops)] = c
    return KLRElement(x.rank, terms)


def pi_project(x, xi, ctx):
    """Project through one branching step: drop terms that touch the block strands,
    strip the block columns, and reduce in the smaller quotient."""
    rows = _xi_rows(xi)
    if not XiSequence(rows).is_dominant(ctx.lam):
        raise ValueError(f"xi sequence {rows} is not dominant for {tuple(ctx.lam)}")
    n = ctx.rank
    block = SpecialIdempotentSpec(n, rows).bottom()
    blen = len(block)
    tctx = branch_context(ctx, rows)
    trank = max(tctx.rank, 1)
    if isinstance(x, KLRWord):
        x = KLRElement(x.rank, {x: 1})
    if x.rank != n:
        raise ValueError("element rank does not match context")
    bottom, terms = canonical_terms(x)
    if bottom is None:
        return KLRElement(trank, {})
    top = x.top
    if bottom[:blen] != block or top[:blen] != block:
        raise ValueError("boundaries do not start with the block strands")
    tail_bottom = bottom[blen:]
    if any(v > tctx.rank for v in tail_bottom):
        raise ValueError("free strand label outside the smaller quiver")
    m = len(bottom)
    out = {}
    for (exps, word), c in terms.items():
        if any(exps[p] for p in range(blen)):
            continue
        perm = _perm_of(word, m)
        if any(perm[p] != p + 1 for p in range(blen)):
            continue
        _bump(out, (exps[blen:], tuple(g - blen for g in word)), c)
    if tctx.rank:
        # The block strands are fixed, so each word is the lexmin word of its tail.
        out, _ = _reduce_terms(tctx, tail_bottom, top[blen:], out)
    return element_from_canonical(trank, tail_bottom, out)


class GTIdempotent:
    """The nested block boundary of one Gelfand-Tsetlin pattern."""

    __slots__ = ("pattern", "layers", "sequence", "layer_spans", "rank")

    def __init__(self, pattern, layers, sequence, layer_spans, rank):
        self.pattern = pattern
        self.layers = tuple(tuple(x) for x in layers)
        self.sequence = tuple(sequence)
        self.layer_spans = tuple(layer_spans)
        self.rank = rank

    def __repr__(self):
        return f"GTIdempotent(sequence={self.sequence}, layers={self.layers})"


def gt_idempotent(s):
    """Read the removal counts between consecutive layers and lay out the blocks,
    outermost branching step leftmost."""
    m = len(s.top)
    layers = []
    seq = []
    spans = []
    for j in range(m, 1, -1):
        xi = _step_rows(s.layer(j), s.layer(j - 1))
        start = len(seq)
        for i in xi:
            seq.extend(range(i, j))
        layers.append(xi)
        spans.append((start, len(seq)))
    return GTIdempotent(s, layers, tuple(seq), spans, m - 1)


def _killed_keys(g1, g2, delta):
    """Basis keys from g1's boundary to g2's that either pattern's projection tower kills:
    those that dot a strand of some block span, or cross two.  A key's dots sit at the
    bottom and its reduced word crosses exactly the pairs its permutation inverts; a span
    (s, e) of g1 holds bottom positions s..e-1, one of g2 the strands p with
    s < perm[p] <= e."""
    bottom, top = g1.sequence, g2.sequence
    m = len(bottom)
    for perm, word, cd in _compatible_perms(bottom, top):
        rem = delta - cd
        if rem < 0 or rem % 2:
            continue
        spans = [range(s, e) for s, e in g1.layer_spans]
        spans += [[p for p in range(m) if s < perm[p] <= e] for s, e in g2.layer_spans]
        crossed = any(
            perm[p] > perm[q] for span in spans for p, q in itertools.combinations(span, 2)
        )
        for exps in _compositions(rem // 2, m):
            if crossed or any(exps[p] for span in spans for p in span):
                yield (exps, word)


def _defect(weight, seq):
    """d = (Lambda, beta) - (beta, beta)/2 for the content beta of a label sequence."""
    beta = [seq.count(i) for i in range(1, len(weight) + 1)]
    links = sum(a * b for a, b in zip(beta, beta[1:]))
    return sum(w * b for w, b in zip(weight, beta)) - sum(b * b for b in beta) + links


def _symmetry_range(weight, bottom, top):
    """dmin and 2d - dmin: R^Lambda_beta is graded symmetric, so the Hom piece between two
    idempotents of one content, and any quotient of it, lies in these degrees.

    Not cached, as a memo would seldom be read back: `gdim_hom` asks once per pair it
    sweeps (the classes' least representatives in sorted order, at a self-dual weight the
    lesser of that pair and its Dynkin flip's, so once per flip orbit of unordered class
    pairs), and `_tilde_gdim_zero` and `gt_orthogonality_reach` once per pattern pair.
    The permutations it scans are cached (`_compatible_perms`)."""
    dmin = min(cd for _, _, cd in _compatible_perms(bottom, top))
    return dmin, 2 * _defect(weight, bottom) - dmin


def _tilde_gdim_zero(ctx, g1, g2):
    """True when the Hom piece between two pattern idempotents vanishes in every degree.

    The piece lies in its graded-symmetry range (`_symmetry_range`); if that passes the
    degree cap the pair is not certified and the answer is False.  Each degree seeds a
    fresh, unstored echelon with the killed keys' columns.
    """
    bottom, top = g1.sequence, g2.sequence
    if sorted(bottom) != sorted(top):
        return True
    dmin, dmax = _symmetry_range(ctx.weight, bottom, top)
    if dmax > ctx.degree_cap:
        return False
    for delta in range(dmin, dmax + 1):
        state = _new_state(ctx, bottom, top, delta)
        cols = state["cols"]
        for key in _killed_keys(g1, g2, delta):
            state["ech"].insert({cols[key]: 1})
        if _rank_dim(state, len(cols)):
            return False
    return True


def _gt_pairs(lam):
    """Every ordered pair of distinct pattern idempotents."""
    gts = [gt_idempotent(s) for s in enumerate_gt_patterns(lam)]
    return [(g1, g2) for g1 in gts for g2 in gts if g1.pattern != g2.pattern]


def gt_orthogonality_cap(lam):
    """The degree cap of `gt_orthogonality_check` (and `cyc gt-ortho`) given none."""
    return 2 * lam.size() + 4


def gt_orthogonality_check(lam, degree_cap=None):
    """Hom spaces between distinct pattern idempotents all vanish, certified over each
    pair's graded-symmetry degree range; False if that range passes the degree cap."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if degree_cap is None:
        degree_cap = gt_orthogonality_cap(lam)
    ctx = make_context(lam, degree_cap)
    return all(_tilde_gdim_zero(ctx, g1, g2) for g1, g2 in _gt_pairs(lam))


def gt_orthogonality_reach(lam):
    """The degree the orthogonality check must reach to certify lam: the largest end
    2d - dmin of a graded-symmetry range over the pairs of one content (None if no two
    patterns share a content).  A degree cap below it leaves the check uncertified."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    weight = make_context(lam, 1).weight
    return max(
        (
            _symmetry_range(weight, g1.sequence, g2.sequence)[1]
            for g1, g2 in _gt_pairs(lam)
            if sorted(g1.sequence) == sorted(g2.sequence)
        ),
        default=None,
    )


def sl2_vanishing_check(lam1):
    """The idempotent on one strand more than the weight allows reduces to zero exactly."""
    lam1 = int(lam1)
    if lam1 < 0:
        raise ValueError("weight must be nonnegative")
    ctx = make_context(Partition((lam1, 0)))
    e = (1,) * (lam1 + 1)
    red, status = cyc_reduce(idempotent(1, e), ctx)
    return red.is_zero() and status == EXACT


def weyl_vanishing_check(idem, ctx):
    """If the rightmost region label leaves the dominance cone, the idempotent must die."""
    seq = tuple(int(v) for v in idem)
    start = GlWeight(tuple(ctx.lam))
    _, flags = decorate_regions(seq, start)
    if not any(flags):
        return True
    red, status = cyc_reduce(idempotent(max(ctx.rank, 1), seq), ctx)
    return red.is_zero() and status == EXACT


def hom_record(ctx, e, e2, poly, status):
    """The JSON shape shared by the CLI commands that report graded dimensions."""
    return {
        "lambda": list(ctx.lam),
        "left": [int(v) for v in e],
        "right": [int(v) for v in e2],
        "gdim": poly.to_pairs(),
        "status": status,
        "qshift": 0,
    }
