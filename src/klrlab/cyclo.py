"""Cyclotomic quotients: exact elimination against rows that span each graded piece of
the ideal, graded Hom dimensions, branching projections, and Gelfand-Tsetlin
idempotents.  Only the degree cap bounds the work; a dot cap is accepted and ignored."""

import itertools
from fractions import Fraction

from .combi import GlWeight, Partition, XiSequence, weight_of_partition
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
from .klr import _perm_of, _word_from_canonical
from .qint import LaurentPoly

__all__ = [
    "CycContext",
    "PGroupMask",
    "GTIdempotent",
    "make_context",
    "cyc_reduce",
    "gdim_hom",
    "special_idempotent",
    "pi_project",
    "branch_context",
    "append_free_strand",
    "flip_word",
    "tilde_kernel_test",
    "gt_idempotent",
    "gt_orthogonality_check",
    "sl2_vanishing_check",
    "weyl_vanishing_check",
    "hom_record",
]

EXACT = "exact"
CAPPED = "capped"

_compat_memo = {}
_basis_memo = {}
_comp_memo = {}


def _compositions(total, slots):
    """All exponent tuples of the given length summing to total."""
    key = (total, slots)
    got = _comp_memo.get(key)
    if got is not None:
        return got
    if slots == 0:
        out = ((),) if total == 0 else ()
    elif slots == 1:
        out = ((total,),)
    else:
        acc = []
        for first in range(total, -1, -1):
            for rest in _compositions(total - first, slots - 1):
                acc.append((first,) + rest)
        out = tuple(acc)
    _comp_memo[key] = out
    return out


def _cross_contrib(a, b):
    if a == b:
        return -2
    if abs(a - b) == 1:
        return 1
    return 0


def _compatible_perms(bottom, top):
    """All strand permutations carrying one boundary to the other, with their lexmin
    reduced words and crossing degrees."""
    key = (bottom, top)
    got = _compat_memo.get(key)
    if got is not None:
        return got
    from .klr import _lexmin

    m = len(bottom)
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        if any(top[perm[p] - 1] != bottom[p] for p in range(m)):
            continue
        cd = 0
        for p in range(m):
            for q in range(p + 1, m):
                if perm[p] > perm[q]:
                    cd += _cross_contrib(bottom[p], bottom[q])
        out.append((perm, _lexmin(perm), cd))
    out = tuple(out)
    _compat_memo[key] = out
    return out


def _basis_keys(bottom, top, delta):
    """Canonical-word keys (dot exponents, crossing word) spanning one graded piece."""
    key = (bottom, top, delta)
    got = _basis_memo.get(key)
    if got is not None:
        return got
    m = len(bottom)
    keys = []
    for _, word, cd in _compatible_perms(bottom, top):
        rem = delta - cd
        if rem < 0 or rem % 2:
            continue
        for comp in _compositions(rem // 2, m):
            keys.append((comp, word))
    keys = tuple(sorted(keys))
    _basis_memo[key] = keys
    return keys


def _key_degree(bottom, key):
    exps, word = key
    return _word_from_canonical(1 if not bottom else max(bottom), bottom, exps, word).degree()


class _Echelon:
    """Reduced row echelon form over the canonical-word keys, in exact arithmetic.

    A row whose pivot coefficient is 1 is stored as it is and one whose pivot is -1 is
    negated; only another pivot coefficient divides the row through by a `Fraction`.
    Every integral entry, stored or reduced, is kept as an int (`_integral`), so on the
    ideal rows, whose coefficients are almost all +-1, the elimination runs on plain ints.

    `rows` maps each pivot (the largest key of its row) to a row whose pivot entry is 1
    and which is zero at every other pivot: `insert` back-substitutes each new row into
    the others.  Because of that invariant, clearing one pivot of a vector never changes
    its entry at another, so `reduce` clears the pivots a vector meets in any order, in
    one pass, and the result is the unique normal form of the vector modulo the row span.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

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
        pivot = max(r)
        lead = r[pivot]
        if lead == -1:
            r = {k: -v for k, v in r.items()}
        elif lead != 1:
            r = {k: _integral(Fraction(v, lead)) for k, v in r.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                _axpy(row, -c, r)
        self.rows[pivot] = r
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
    """A cyclotomic quotient workspace: the defining partition, caps, and warm memo state.

    Only `degree_cap` bounds the work.  `dot_cap` is validated and kept because the CLI's
    cache keys hold it, but no computation reads it.
    """

    def __init__(self, lam, degree_cap, dot_cap):
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
        if dot_cap is None:
            dot_cap = max(1, lam.size() + (max(self.weight) if self.weight else 0))
        if dot_cap <= 0:
            raise ValueError("dot_cap must be a positive integer")
        self.degree_cap = int(degree_cap)
        self.dot_cap = int(dot_cap)
        self.sources = {}
        self.states = {}
        self.children = {}

    def __repr__(self):
        return (
            f"CycContext(lam={tuple(self.lam)}, degree_cap={self.degree_cap},"
            f" dot_cap={self.dot_cap})"
        )


def make_context(lam, degree_cap=16, dot_cap=None):
    """Build a quotient context; dot_cap (unused) defaults to the box count plus the largest
    weight entry."""
    return CycContext(lam, degree_cap, dot_cap)


def _ideal_row_gen(ctx, bottom, top, delta):
    """Yield rows that span the two-sided ideal piece e(bottom) I e(top) of one degree over Z.

    Rows come as canonical-term dicts; products are written in the order the ops are
    read, bottom to top.  Unit rows for words already carrying the full dot power on the
    leftmost strand come first (each is x_1^gpow e(bottom) times a word, so it lies in
    the ideal); then, for every middle boundary `mid`, the rows
    psi_vb * x_1^gpow * x^compa * psi_va, where psi_va runs over every permutation from
    mid to top, x^compa over every dot exponent that fills the degree, and psi_vb over
    the m minimal coset representatives of S_m / (S_1 x S_{m-1}) from bottom to mid:
    the strands that do not end at slot 1 of mid keep their order.

    Why these span.  The piece is the sum over mid of
    e(bottom) R e(mid) * x_1^gpow e(mid) * e(mid) R e(top).  The left factor is spanned
    over Z by psi_w x^c with the dots at the mid end, for any choice of a reduced word of
    each w: two reduced words of one w give elements that differ by terms psi_w' x^c'
    with l(w') < l(w), so by induction on length any choice spans once one does.  Factor
    w = u * v with u a minimal coset representative and v in S_1 x S_{m-1} at the mid end,
    and take as the reduced word of w the word of u followed by a reduced word of v.
    Then psi_w x^c = psi_u * psi_v x^c, and psi_v x^c involves only dots and
    psi_2 ... psi_{m-1}, which all commute with x_1^gpow; moved across the generator
    (which does not change the label at slot 1, so gpow is the same), psi_v x^c joins the
    right factor, and that is spanned over Z by x^compa psi_va.  So neither bottom dots
    nor the other coset elements are needed.  A graded piece is finite, so its rows are
    never cut.
    """
    m = len(bottom)
    if m == 0 or ctx.rank == 0:
        return
    rank = ctx.rank
    lam_bottom = ctx.weight[bottom[0] - 1]
    for key in _basis_keys(bottom, top, delta):
        if key[0][0] >= lam_bottom:
            yield {key: 1}
    for mid in sorted(set(itertools.permutations(bottom))):
        gpow = ctx.weight[mid[0] - 1]
        for perm, vb, cdb in _compatible_perms(bottom, mid):
            rest = [p for p in perm if p != 1]
            if rest != sorted(rest):
                continue
            for _, va, cda in _compatible_perms(mid, top):
                rem = delta - 2 * gpow - cda - cdb
                if rem < 0 or rem % 2:
                    continue
                for compa in _compositions(rem // 2, m):
                    ops = [("cross", g) for g in vb]
                    ops.extend(("dot", 1) for _ in range(gpow))
                    ops.extend(("dot", p + 1) for p in range(m) for _ in range(compa[p]))
                    ops.extend(("cross", g) for g in va)
                    _, terms = canonical_terms(KLRWord(rank, bottom, ops))
                    if terms:
                        yield terms


def _get_state(ctx, bottom, top, delta, extra_rows=None, tag=None):
    key = (bottom, top, delta, tag)
    state = ctx.states.get(key)
    if state is None:
        source_key = (bottom, top, delta)
        source = ctx.sources.get(source_key)
        if source is None:
            source = _RowSource(_ideal_row_gen(ctx, bottom, top, delta))
            ctx.sources[source_key] = source
        ech = _Echelon()
        if extra_rows:
            for r in extra_rows:
                ech.insert(r)
        state = {"ech": ech, "source": source, "fed": 0}
        ctx.states[key] = state
    return state


def _feed_until(state, stop, on_insert=None):
    """Feed spanning rows into the echelon until `stop(ech)` or the source runs dry.

    `stop` is tested before each row; `on_insert(ech, pivot)` runs after each row that
    raised the rank.
    """
    ech = state["ech"]
    source = state["source"]
    while not stop(ech):
        row = source.get(state["fed"])
        if row is None:
            return
        state["fed"] += 1
        pivot = ech.insert(row)
        if pivot is not None and on_insert is not None:
            on_insert(ech, pivot)


def _reduce_vec(ctx, bottom, top, delta, vec, tag=None, extra_rows=None):
    """Remainder of `vec` modulo the ideal piece, feeding rows until it vanishes.

    The remainder is reduced once, then kept reduced as rows come in: a new pivot p
    needs only `rem -= rem[p] * row_p`, since every older row is zero at p and the new
    row is zero at every older pivot.
    """
    state = _get_state(ctx, bottom, top, delta, extra_rows=extra_rows, tag=tag)
    remainder = state["ech"].reduce(vec)

    def on_insert(ech, pivot):
        c = remainder.get(pivot)
        if c:
            _axpy(remainder, -c, ech.rows[pivot])

    _feed_until(state, lambda ech: not remainder, on_insert)
    return remainder


def _rank_dim(ctx, bottom, top, delta, tag=None, extra_rows=None):
    """Dimension of one graded piece of the quotient."""
    nbasis = len(_basis_keys(bottom, top, delta))
    state = _get_state(ctx, bottom, top, delta, extra_rows=extra_rows, tag=tag)
    _feed_until(state, lambda ech: ech.rank() >= nbasis)
    return nbasis - state["ech"].rank()


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
    top = x.top
    pieces = {}
    for key, c in terms.items():
        pieces.setdefault(_key_degree(bottom, key), {})[key] = c
    out = {}
    status = EXACT
    for delta in sorted(pieces):
        vec = pieces[delta]
        if delta > ctx.degree_cap:
            out.update(vec)
            status = CAPPED
            continue
        out.update(_reduce_vec(ctx, bottom, top, delta, vec))
    return element_from_canonical(ctx.rank, bottom, out), status


def gdim_hom(e, e2, ctx):
    """Graded dimension of the Hom space between two idempotents in the quotient.

    Each degree's dimension is exact (its rows span the ideal piece).  The sweep runs from
    the least crossing degree until the top two computed degrees vanish, or the degree
    cap is hit (then the status is capped).
    """
    e = tuple(int(v) for v in e)
    e2 = tuple(int(v) for v in e2)
    if sorted(e) != sorted(e2):
        return LaurentPoly.zero(), EXACT
    if ctx.rank == 0:
        return (LaurentPoly.one() if e == () else LaurentPoly.zero()), EXACT
    compat = _compatible_perms(e, e2)
    if not compat:
        return LaurentPoly.zero(), EXACT
    dmin = min(cd for _, _, cd in compat)
    dims = {}
    delta = dmin
    while delta <= ctx.degree_cap:
        dims[delta] = _rank_dim(ctx, e, e2, delta)
        if delta >= dmin + 1 and dims[delta] == 0 and dims[delta - 1] == 0:
            status = EXACT
            break
        delta += 1
    else:
        status = CAPPED
    return LaurentPoly({d: v for d, v in dims.items() if v}), status


def special_idempotent(xi, tail, ctx):
    """Assemble a block-plus-tail boundary after checking the blocks fit the partition."""
    if isinstance(xi, XiSequence):
        rows = xi.rows
    else:
        rows = tuple(int(v) for v in xi)
    if rows and not XiSequence(rows).is_dominant(ctx.lam):
        raise ValueError(f"xi sequence {rows} is not dominant for {tuple(ctx.lam)}")
    return SpecialIdempotentSpec(ctx.rank, rows, tail)


def branch_context(ctx, xi):
    """The quotient context one branching step down, cached on the parent."""
    if isinstance(xi, XiSequence):
        rows = xi.rows
    else:
        rows = tuple(int(v) for v in xi)
    child = ctx.children.get(rows)
    if child is None:
        target = xi_applied_partition(ctx.lam, rows)
        child = CycContext(target, ctx.degree_cap, ctx.dot_cap)
        ctx.children[rows] = child
    return child


def xi_applied_partition(lam, rows):
    """Remove one box per row index, then drop the deepest part."""
    from .combi import xi_apply

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


def flip_word(w):
    """Top-for-bottom reflection; an anti-automorphism on words."""
    return KLRWord(w.rank, w.top(), tuple(reversed(w.ops)))


def pi_project(x, xi, ctx):
    """Project through one branching step: drop terms that touch the block strands,
    strip the block columns, and reduce in the smaller quotient."""
    if isinstance(xi, XiSequence):
        rows = xi.rows
    else:
        rows = tuple(int(v) for v in xi)
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
        key = (exps[blen:], tuple(g - blen for g in word))
        out[key] = out.get(key, 0) + c
    if not out:
        return KLRElement(trank, {})
    elem = element_from_canonical(trank, tail_bottom, out)
    red, _ = cyc_reduce(elem, tctx)
    return red


class PGroupMask:
    """Which bottom positions belong to the projected block group."""

    __slots__ = ("size", "members")

    def __init__(self, size, members):
        self.size = int(size)
        self.members = frozenset(int(p) for p in members)
        for p in self.members:
            if not 1 <= p <= self.size:
                raise ValueError(f"position {p} outside 1..{self.size}")

    def flags(self):
        return [p + 1 in self.members for p in range(self.size)]

    def __repr__(self):
        return f"PGroupMask(size={self.size}, members={sorted(self.members)})"


def tilde_kernel_test(w, mask):
    """True when the word dots a block strand or crosses two block strands."""
    if len(w.bottom) != mask.size:
        raise ValueError("mask size does not match the word's bottom")
    cur = mask.flags()
    for kind, p in w.ops:
        if kind == "dot":
            if cur[p - 1]:
                return True
        else:
            if cur[p - 1] and cur[p]:
                return True
            cur[p - 1], cur[p] = cur[p], cur[p - 1]
    return False


class GTIdempotent:
    """The nested block boundary of one Gelfand-Tsetlin pattern."""

    __slots__ = ("pattern", "layers", "sequence", "layer_spans", "rank")

    def __init__(self, pattern, layers, sequence, layer_spans, rank):
        self.pattern = pattern
        self.layers = tuple(tuple(x) for x in layers)
        self.sequence = tuple(sequence)
        self.layer_spans = tuple(layer_spans)
        self.rank = rank

    def masks(self):
        out = []
        for start, end in self.layer_spans:
            if end > start:
                out.append(PGroupMask(len(self.sequence), range(start + 1, end + 1)))
        return out

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
        upper = s.layer(j)
        lower = s.layer(j - 1)
        xi = []
        for i in range(1, j):
            r = upper[i - 1] - lower[i - 1]
            xi.extend([i] * r)
        xi.extend([j] * upper[j - 1])
        xi = tuple(sorted(xi))
        if xi and not XiSequence(xi).is_dominant(Partition(upper)):
            raise ValueError(f"layer {j} removals {xi} not dominant for {upper}")
        start = len(seq)
        for i in xi:
            seq.extend(range(i, j))
        layers.append(xi)
        spans.append((start, len(seq)))
    return GTIdempotent(s, layers, tuple(seq), spans, m - 1)


def _tilde_killed_rows(ctx, g1, g2, delta):
    """Unit rows for basis words in the kernel of either pattern's projection tower."""
    bottom, top = g1.sequence, g2.sequence
    masks_b = g1.masks()
    masks_t = g2.masks()
    rows = []
    for key in _basis_keys(bottom, top, delta):
        exps, word = key
        w = _word_from_canonical(max(ctx.rank, 1), bottom, exps, word)
        killed = any(tilde_kernel_test(w, mk) for mk in masks_b)
        if not killed and masks_t:
            wf = flip_word(w)
            killed = any(tilde_kernel_test(wf, mk) for mk in masks_t)
        if killed:
            rows.append({key: 1})
    return rows


def _tilde_gdim_zero(ctx, g1, g2):
    """True when the Hom piece between two pattern idempotents vanishes in every degree."""
    bottom, top = g1.sequence, g2.sequence
    if sorted(bottom) != sorted(top):
        return True
    if len(bottom) == 0:
        return bottom != top  # both empty means the scalar line: nonzero
    compat = _compatible_perms(bottom, top)
    if not compat:
        return True
    dmin = min(cd for _, _, cd in compat)
    tag = ("tilde", g1.sequence, g1.layers, g2.sequence, g2.layers)
    for delta in range(dmin, ctx.degree_cap + 1):
        extra = _tilde_killed_rows(ctx, g1, g2, delta)
        if _rank_dim(ctx, bottom, top, delta, tag=tag + (delta,), extra_rows=extra):
            return False
        if delta >= dmin + 3:
            return True
    return True


def gt_orthogonality_check(lam, degree_cap=None, dot_cap=None):
    """Hom spaces between distinct pattern idempotents all vanish under the degree cap."""
    from .combi import enumerate_gt_patterns

    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if degree_cap is None:
        degree_cap = 2 * lam.size() + 4
    ctx = make_context(lam, degree_cap, dot_cap)
    gts = [gt_idempotent(s) for s in enumerate_gt_patterns(lam)]
    for g1 in gts:
        for g2 in gts:
            if g1.pattern == g2.pattern:
                continue
            if not _tilde_gdim_zero(ctx, g1, g2):
                return False
    return True


def sl2_vanishing_check(lam1, degree_cap=8, dot_cap=None):
    """The idempotent on one strand more than the weight allows reduces to zero exactly."""
    lam1 = int(lam1)
    if lam1 < 0:
        raise ValueError("weight must be nonnegative")
    ctx = make_context(Partition((lam1, 0)), degree_cap, dot_cap)
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


def hom_record(ctx, e, e2, poly, status, qshift=0):
    """The JSON shape shared by the CLI commands that report graded dimensions."""
    return {
        "lambda": list(ctx.lam),
        "left": [int(v) for v in e],
        "right": [int(v) for v in e2],
        "gdim": poly.to_pairs(),
        "status": status,
        "qshift": int(qshift),
    }
