"""Diagram algebra for type A quiver Hecke relations: words, normal forms, products, factorizations."""

import functools
from fractions import Fraction
from operator import add

__all__ = [
    "KLRWord",
    "KLRElement",
    "SpecialIdempotentSpec",
    "normal_form",
    "multiply",
    "inv_r3",
    "factor_general",
    "decorate_regions",
    "canonical_terms",
    "element_from_canonical",
    "idempotent",
    "rewrite_step_count",
]


class KLRWord:
    """A single diagram: bottom labels plus dot/crossing ops read bottom to top, 1-based positions."""

    __slots__ = ("rank", "bottom", "ops")

    def __init__(self, rank, bottom, ops=()):
        self.rank = int(rank)
        self.bottom = tuple(int(x) for x in bottom)
        self.ops = tuple((str(k), int(p)) for k, p in ops)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        for x in self.bottom:
            if not 1 <= x <= self.rank:
                raise ValueError(f"label {x} outside 1..{self.rank}")
        m = len(self.bottom)
        for k, p in self.ops:
            if k == "dot":
                if not 1 <= p <= m:
                    raise ValueError(f"dot position {p} outside 1..{m}")
            elif k == "cross":
                if not 1 <= p <= m - 1:
                    raise ValueError(f"crossing position {p} outside 1..{m - 1}")
            else:
                raise ValueError(f"unknown op kind {k!r}")

    def top(self):
        seq = list(self.bottom)
        for k, p in self.ops:
            if k == "cross":
                seq[p - 1], seq[p] = seq[p], seq[p - 1]
        return tuple(seq)

    def degree(self):
        seq = list(self.bottom)
        d = 0
        for k, p in self.ops:
            if k == "dot":
                d += 2
            else:
                a, b = seq[p - 1], seq[p]
                if a == b:
                    d -= 2
                elif abs(a - b) == 1:
                    d += 1
                seq[p - 1], seq[p] = b, a
        return d

    def __eq__(self, other):
        return (
            isinstance(other, KLRWord)
            and self.rank == other.rank
            and self.bottom == other.bottom
            and self.ops == other.ops
        )

    def __hash__(self):
        return hash(("KLRWord", self.rank, self.bottom, self.ops))

    def to_json(self):
        return {
            "rank": self.rank,
            "bottom": list(self.bottom),
            "ops": [{"kind": k, "pos": p} for k, p in self.ops],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            _int_from_json(data["rank"], "rank"),
            [_int_from_json(x, "label") for x in data["bottom"]],
            [(o["kind"], _int_from_json(o["pos"], "op position")) for o in data["ops"]],
        )

    def __repr__(self):
        return f"KLRWord(rank={self.rank}, bottom={self.bottom}, ops={list(self.ops)})"


def _int_from_json(v, what):
    """An int (not a bool, float or string) read from a document, or ValueError."""
    if type(v) is not int:
        raise ValueError(f"bad {what} {v!r}: expected an integer")
    return v


def coeff_to_json(c):
    """An int coefficient, or a [numerator, denominator] pair for a non-integral Fraction."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return [c.numerator, c.denominator]
    return int(c)


def _coeff_from_json(c):
    """An int (not a bool), or a [numerator, denominator] pair of them with a nonzero
    denominator."""
    if type(c) is int:
        return c
    if isinstance(c, list) and len(c) == 2 and all(type(v) is int for v in c) and c[1]:
        return Fraction(c[0], c[1])
    raise ValueError(
        f"bad coefficient {c!r}: expected an integer or a [numerator, denominator] pair"
        " of integers with a nonzero denominator"
    )


def idempotent(rank, bottom):
    """The identity diagram on a label sequence, as an element."""
    return KLRElement(rank, {KLRWord(rank, bottom): 1})


class KLRElement:
    """An integer (or exact rational) combination of diagram words with common bottom and top."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = int(rank)
        clean = {}
        if terms:
            for w, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    clean[w] = clean.get(w, 0) + c
                    if not clean[w]:
                        del clean[w]
        words = list(clean)
        for w in words:
            if w.rank != self.rank:
                raise ValueError("mixed ranks in element")
        if len({w.bottom for w in words}) > 1:
            raise ValueError("terms do not share a bottom sequence")
        if len({w.top() for w in words}) > 1:
            raise ValueError("terms do not share a top sequence")
        self.terms = clean

    @property
    def bottom(self):
        for w in self.terms:
            return w.bottom
        return None

    @property
    def top(self):
        for w in self.terms:
            return w.top()
        return None

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        return KLRElement(self.rank, {w: c * v for w, v in self.terms.items()})

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, 0) + c
        return KLRElement(self.rank, t)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        return (
            isinstance(other, KLRElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(("KLRElement", self.rank, tuple(sorted(self.terms.items(), key=repr))))

    def to_json(self):
        out = []
        for w, c in sorted(self.terms.items(), key=lambda t: (t[0].bottom, t[0].ops)):
            out.append({"coeff": coeff_to_json(c), "word": w.to_json()})
        return {"rank": self.rank, "terms": out}

    @classmethod
    def from_json(cls, data):
        terms = {}
        for t in data["terms"]:
            c = _coeff_from_json(t["coeff"])
            w = KLRWord.from_json(t["word"])
            terms[w] = terms.get(w, 0) + c
        rank = _int_from_json(data["rank"], "rank")
        if rank < 0:
            raise ValueError(f"bad rank {rank}: expected a nonnegative integer")
        return cls(rank, terms)

    def __repr__(self):
        if not self.terms:
            return f"KLRElement(rank={self.rank}, 0)"
        bits = ", ".join(f"{c}*{w!r}" for w, c in self.terms.items())
        return f"KLRElement(rank={self.rank}, {bits})"


# ---------------------------------------------------------------------------
# rewriting engine on canonical terms (exponent tuple, reduced crossing word)

def rewrite_step_count():
    """Rewriting steps since `_nf_cross`'s cache was last cleared: each is one cache miss."""
    return _nf_cross.cache_info().misses


def _swapseq(seq, p):
    out = list(seq)
    out[p - 1], out[p] = out[p], out[p - 1]
    return tuple(out)


def _perm_of(v, m):
    """pi(p) = top slot of the strand entering at bottom position p."""
    cur = list(range(1, m + 1))  # cur[q-1] = bottom position currently at slot q
    for p in v:
        cur[p - 1], cur[p] = cur[p], cur[p - 1]
    pi = [0] * m
    for slot, start in enumerate(cur, 1):
        pi[start - 1] = slot
    return tuple(pi)


def _inversions(pi):
    inv = 0
    m = len(pi)
    for i in range(m):
        for j in range(i + 1, m):
            if pi[i] > pi[j]:
                inv += 1
    return inv


def _apply_perm_word(v, seq):
    out = list(seq)
    for p in v:
        out[p - 1], out[p] = out[p], out[p - 1]
    return tuple(out)


@functools.cache
def _lexmin(pi):
    """Lexicographically least reduced word for a permutation, read bottom to top."""
    m = len(pi)
    out = []
    cur = pi
    while True:
        d = None
        for q in range(m - 1):
            if cur[q] > cur[q + 1]:
                d = q + 1
                break
        if d is None:
            break
        out.append(d)
        nxt = list(cur)
        nxt[d - 1], nxt[d] = nxt[d], nxt[d - 1]
        cur = tuple(nxt)
    return tuple(out)


def _mkfirst(v, d, seq):
    """Rewrite a reduced crossing word to start with d; returns (tail, corrections).

    psi_v = psi_{(d,)+tail} + sum sign * psi_w over the same bottom.  Each correction
    arises from a braid move landing on matching outer labels, so it is strictly shorter.
    """
    a = v[0]
    if a == d:
        return v[1:], []
    seq2 = _swapseq(seq, a)
    if abs(a - d) >= 2:
        tail, corrs = _mkfirst(v[1:], d, seq2)
        return (a,) + tail, [(s, (a,) + w) for s, w in corrs]
    tail2, c2 = _mkfirst(v[1:], d, seq2)
    seq3 = _swapseq(seq2, d)
    tail3, c3 = _mkfirst(tail2, a, seq3)
    # v ~ (a,d,a)+tail3; the braid move gives (d,a,d)+tail3 plus, when the triple has
    # labels (i,j,i) with |i-j| = 1, the word with the triple deleted
    r = min(a, d)
    corrs = [(s, (a,) + w) for s, w in c2] + [(s, (a, d) + w) for s, w in c3]
    if seq[r - 1] == seq[r + 1] and abs(seq[r - 1] - seq[r]) == 1:
        corrs.append((1 if a < d else -1, tail3))
    return (a, d) + tail3, corrs


def _mklast(u, p, seq):
    """Rewrite a reduced crossing word to end with p, by flipping, leading with p, flipping back."""
    top = _apply_perm_word(u, seq)
    trev, crev = _mkfirst(tuple(reversed(u)), p, top)
    return tuple(reversed(trev)), [(s, tuple(reversed(w))) for s, w in crev]


def _transform_to(v, u, seq):
    """Corrections relating two reduced words of one permutation: psi_v = psi_u + sum sign psi_w."""
    if v == u:
        return []
    if v[0] == u[0]:
        inner = _transform_to(v[1:], u[1:], _swapseq(seq, v[0]))
        return [(s, (v[0],) + w) for s, w in inner]
    d = u[0]
    tail, corrs = _mkfirst(v, d, seq)
    inner = _transform_to(tail, u[1:], _swapseq(seq, d))
    return corrs + [(s, (d,) + w) for s, w in inner]


def _bump(acc, key, c):
    if not c:
        return
    c2 = acc.get(key, 0) + c
    if c2:
        acc[key] = c2
    elif key in acc:
        del acc[key]


@functools.cache
def _nf_cross(seq, v):
    """Canonical form of a pure crossing word over a bottom sequence (a shared dict: callers
    must not mutate it)."""
    m = len(seq)
    zero_exp = (0,) * m
    if not v:
        return {(zero_exp, ()): 1}
    pi = _perm_of(v, m)
    if _inversions(pi) == len(v):
        u = _lexmin(pi)
        acc = {(zero_exp, u): 1}
        if u != v:
            for s, w in _transform_to(v, u, seq):
                for k2, c2 in _nf_cross(seq, w).items():
                    _bump(acc, k2, s * c2)
        return acc
    # peel at the first non-reduced prefix: v[:j] is reduced, v[:j+1] is not
    cur = list(range(1, m + 1))  # cur[slot-1] = starting position at that slot
    j = None
    for idx, p in enumerate(v):
        # appending a crossing at p stays reduced iff the strand now at slot p
        # started left of the one at slot p+1
        if cur[p - 1] > cur[p]:
            j = idx
            break
        cur[p - 1], cur[p] = cur[p], cur[p - 1]
    t, p, rest = v[:j], v[j], v[j + 1 :]
    tail, corrs = _mklast(t, p, seq)
    mid = _apply_perm_word(tail, seq)
    a, b = mid[p - 1], mid[p]
    acc = {}
    if a == b:
        pass  # double crossing on equal labels is zero
    elif abs(a - b) >= 2:
        for k2, c2 in _nf_cross(seq, tail + rest).items():
            _bump(acc, k2, c2)
    else:
        # double crossing on adjacent labels opens into a dot on each strand
        for dotpos in (p, p + 1):
            ops = (
                [("cross", g) for g in tail]
                + [("dot", dotpos)]
                + [("cross", g) for g in rest]
            )
            for k2, c2 in _nf_ops(seq, ops).items():
                _bump(acc, k2, c2)
    for s, w in corrs:
        for k2, c2 in _nf_cross(seq, w + (p,) + rest).items():
            _bump(acc, k2, s * c2)
    return acc


def _mult_gen(bottom, terms, kind, p):
    """Multiply a canonical dict over `bottom` by one generator placed underneath."""
    if kind == "dot":
        out = {}
        for (e, w), c in terms.items():
            e2 = e[: p - 1] + (e[p - 1] + 1,) + e[p:]
            _bump(out, (e2, w), c)
        return bottom, out
    b2 = _swapseq(bottom, p)
    equal = b2[p - 1] == b2[p]
    out = {}
    get = out.get
    # `_bump` inlined, as this loop builds the cyclotomic ideal rows: a canonical dict
    # holds no zero coefficient, so an entry that sums to zero was already present
    for (e, w), c in terms.items():
        head, k, l, tail = e[: p - 1], e[p - 1], e[p], e[p + 1:]
        if equal:
            # x_p^k x_{p+1}^l psi_p = psi_p x_p^l x_{p+1}^k
            #   + sum_{t<k} x_p^{t+l} x_{p+1}^{k-1-t} - sum_{t<l} x_p^{t+k} x_{p+1}^{l-1-t}
            for t in range(k):
                key = (head + (t + l, k - 1 - t) + tail, w)
                v = get(key, 0) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
            for t in range(l):
                key = (head + (t + k, l - 1 - t) + tail, w)
                v = get(key, 0) - c
                if v:
                    out[key] = v
                else:
                    del out[key]
        main = head + (l, k) + tail
        for (e3, u), c3 in _nf_cross(b2, (p,) + w).items():
            key = (tuple(map(add, main, e3)) if any(e3) else main, u)
            v = get(key, 0) + c * c3
            if v:
                out[key] = v
            else:
                del out[key]
    return b2, out


def _nf_ops(seq, ops):
    """Canonical dict of a word with the given bottom sequence and op list."""
    top = list(seq)
    for k, p in ops:
        if k == "cross":
            top[p - 1], top[p] = top[p], top[p - 1]
    bottom = tuple(top)
    terms = {((0,) * len(seq), ()): 1}
    for k, p in reversed(ops):
        bottom, terms = _mult_gen(bottom, terms, k, p)
    return terms


def canonical_terms(x):
    """Canonical dict {(dot exponents, reduced lexmin crossing word): coeff} plus the bottom."""
    if isinstance(x, KLRWord):
        x = KLRElement(x.rank, {x: 1})
    if x.is_zero():
        return None, {}
    bottom = x.bottom
    acc = {}
    for w, c in x.terms.items():
        for key, c2 in _nf_ops(bottom, w.ops).items():
            _bump(acc, key, c * c2)
    return bottom, acc


def _word_from_canonical(rank, bottom, exps, cross):
    ops = []
    for pos, e in enumerate(exps, 1):
        ops.extend([("dot", pos)] * e)
    ops.extend(("cross", g) for g in cross)
    return KLRWord(rank, bottom, ops)


def element_from_canonical(rank, bottom, terms):
    return KLRElement(
        rank,
        {_word_from_canonical(rank, bottom, e, w): c for (e, w), c in terms.items()},
    )


def normal_form(x):
    """Rewrite onto the spanning set: dots at the bottom, then a lexmin reduced crossing word."""
    rank = x.rank
    bottom, terms = canonical_terms(x)
    if bottom is None:
        return KLRElement(rank, {})
    return element_from_canonical(rank, bottom, terms)


def multiply(a, b):
    """Stack a above b; zero when the boundaries do not meet."""
    if isinstance(a, KLRWord):
        a = KLRElement(a.rank, {a: 1})
    if isinstance(b, KLRWord):
        b = KLRElement(b.rank, {b: 1})
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    rank = a.rank
    if a.is_zero() or b.is_zero():
        return KLRElement(rank, {})
    if b.top != a.bottom:
        return KLRElement(rank, {})
    abottom, aterms = canonical_terms(a)
    acc = {}
    for wb, cb in b.terms.items():
        bottom, terms = abottom, aterms
        for k, p in reversed(wb.ops):
            bottom, terms = _mult_gen(bottom, terms, k, p)
        for key, c in terms.items():
            _bump(acc, key, cb * c)
    return element_from_canonical(rank, b.bottom, acc)


def inv_r3(labels, rank=None):
    """Both sides of the crossing-inversion identity on a braid-adjacent triple.

    Accepts (i,i,j) or (x,y,y) with the distinct labels adjacent; returns the plain
    idempotent and the two-term crossing element, whose normal forms agree.  The terms
    are the ones `factor_general` opens such a triple with (`_split_invr3` or its mirror
    at q = 1), each the word of its right ops then its left ops.
    """
    lab = tuple(int(x) for x in labels)
    a, b, c = lab
    if rank is None:
        rank = max(lab)
    if a == b and abs(a - c) == 1:
        split = _split_invr3
    elif b == c and abs(a - b) == 1:
        split = _split_invr3_mirror
    else:
        raise ValueError(f"labels {lab} are not a braid-adjacent triple of either handed form")
    terms = split((1, (), lab, ()), 1)
    rhs = {KLRWord(rank, lab, rops + lops): coeff for coeff, lops, _, rops in terms}
    return idempotent(rank, lab), KLRElement(rank, rhs)


def decorate_regions(x, start):
    """Label planar regions left to right from a starting vector; crossing a strand with
    label j subtracts the j-th coordinate step and adds the next one.  Returns the
    rightmost region label and per-entry negativity flags."""
    from .combi import GlWeight

    seq = tuple(int(v) for v in x)
    lab = [int(v) for v in start]
    m = len(lab)
    for j in seq:
        if j < 1:
            raise ValueError(f"strand label {j} is below 1")
        if j + 1 > m:
            raise ValueError(f"strand label {j} needs {j + 1} region coordinates, have {m}")
        lab[j - 1] -= 1
        lab[j] += 1
    rightmost = GlWeight(lab)
    flags = tuple(e < 0 for e in rightmost)
    return rightmost, flags


class SpecialIdempotentSpec:
    """A factored boundary: weakly increasing block starts, each block running up to the
    top label, followed by a free tail."""

    __slots__ = ("rank", "xi", "tail")

    def __init__(self, rank, xi, tail=()):
        self.rank = int(rank)
        self.xi = tuple(int(v) for v in xi)
        self.tail = tuple(int(v) for v in tail)
        n = self.rank
        for v in self.xi:
            if not 1 <= v <= n + 1:
                raise ValueError(f"block start {v} outside 1..{n + 1}")
        if any(self.xi[t] > self.xi[t + 1] for t in range(len(self.xi) - 1)):
            raise ValueError(f"block starts {self.xi} not weakly increasing")
        for v in self.tail:
            if not 1 <= v <= n:
                raise ValueError(f"tail label {v} outside 1..{n}")

    def bottom(self):
        out = []
        for s in self.xi:
            out.extend(range(s, self.rank + 1))
        out.extend(self.tail)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, SpecialIdempotentSpec)
            and (self.rank, self.xi, self.tail) == (other.rank, other.xi, other.tail)
        )

    def __hash__(self):
        return hash(("SpecialIdempotentSpec", self.rank, self.xi, self.tail))

    def to_json(self):
        return {"rank": self.rank, "xi": list(self.xi), "tail": list(self.tail)}

    def __repr__(self):
        return f"SpecialIdempotentSpec(rank={self.rank}, xi={self.xi}, tail={self.tail})"


# ---------------------------------------------------------------------------
# factorization worklist: items are (coeff, left ops, middle sequence, right ops),
# maintaining sum coeff * L 1_mid R = 1_seq with all moves exact

def _slide(item, q, count, left=False):
    """Slide the strand at position q past `count` neighbours; distant labels only."""
    coeff, lops, mid, rops = item
    mid2 = list(mid)
    vops = []
    pos = q
    for _ in range(count):
        tgt = pos - 1 if left else pos
        a, b = mid2[tgt - 1], mid2[tgt]
        if abs(a - b) < 2:
            raise AssertionError(f"slide through non-distant labels {a},{b}")
        vops.append(("cross", tgt))
        mid2[tgt - 1], mid2[tgt] = b, a
        pos += -1 if left else 1
    uops = tuple(reversed(vops))
    return (coeff, uops + lops, tuple(mid2), rops + tuple(vops))


def _split_r3diff(item, r):
    """Open the identity through the braid difference at a triple (i,j,i), |i-j| = 1."""
    coeff, lops, mid, rops = item
    i1, j1, i2 = mid[r - 1], mid[r], mid[r + 1]
    assert i1 == i2 and abs(i1 - j1) == 1, (mid, r)
    plus = (
        coeff,
        (("cross", r + 1), ("cross", r)) + lops,
        _swapseq(mid, r),
        rops + (("cross", r),),
    )
    minus = (
        -coeff,
        (("cross", r), ("cross", r + 1)) + lops,
        _swapseq(mid, r + 1),
        rops + (("cross", r + 1),),
    )
    return plus, minus


def _split_invr3(item, q):
    """Open the identity on labels (i,i,j), |i-j| = 1, through the (i,j,i) layout."""
    coeff, lops, mid, rops = item
    assert mid[q - 1] == mid[q] and abs(mid[q - 1] - mid[q + 1]) == 1, (mid, q)
    mid2 = _swapseq(mid, q + 1)
    t1 = (
        coeff,
        (("cross", q + 1), ("cross", q), ("dot", q + 1)) + lops,
        mid2,
        rops + (("cross", q), ("cross", q + 1)),
    )
    t2 = (
        -coeff,
        (("cross", q + 1), ("cross", q)) + lops,
        mid2,
        rops + (("dot", q), ("cross", q), ("cross", q + 1)),
    )
    return [t1, t2]


def _split_invr3_mirror(item, q):
    """Open the identity on labels (x,y,y), |x-y| = 1, through the (y,x,y) layout."""
    coeff, lops, mid, rops = item
    assert mid[q] == mid[q + 1] and abs(mid[q - 1] - mid[q]) == 1, (mid, q)
    mid2 = _swapseq(mid, q)
    t1 = (
        coeff,
        (("cross", q), ("cross", q + 1), ("dot", q + 1)) + lops,
        mid2,
        rops + (("cross", q + 1), ("cross", q)),
    )
    t2 = (
        -coeff,
        (("cross", q), ("cross", q + 1)) + lops,
        mid2,
        rops + (("dot", q + 2), ("cross", q + 1), ("cross", q)),
    )
    return [t1, t2]


def _ladder(item, ls, x, n):
    """Resolve a doubled run (x,x,x+1,x+1,...,n,n) at position ls into two plain runs."""
    if x == n:
        return [item]
    items = _split_invr3(item, ls)
    for t in range(2, n - x + 1):
        nxt = []
        for it in items:
            q = ls + 2 * t - 1
            for br in _split_invr3_mirror(it, q):
                nxt.append(_slide(br, q, t - 1, left=True))
        items = nxt
    return items


def _sort_pair(item, pos, j, i, n):
    """Rewrite two adjacent runs (j..n)(i..n) with j > i into terms with sorted runs."""
    out = []
    len1 = n - j + 1
    it = _slide(item, pos + len1 - 1, n - 1 - i)
    r = pos + len1 - 1 + (n - 1 - i)
    plus, minus = _split_r3diff(it, r)
    # minus branch: (n,n,n-1) at r; pull the doubled pair left over the slid group
    g = n - 1 - i
    mit = _slide(minus, r, g, left=True)
    mit = _slide(mit, r + 1, g, left=True)
    out.append(mit)
    if j < n:
        out.extend(_sort_pair_descend(plus, pos, j, i, n, 1))
    else:
        out.extend(_ladder(plus, pos + (j - i), j, n))
    return out


def _sort_pair_descend(item, pos, j, i, n, d):
    """One descent step: remnant (j..n-d), group (i..n-d-1), a single n-d, doubled tail."""
    out = []
    len1 = n - d - j + 1
    len2 = n - d - i
    it = _slide(item, pos + len1 - 1, len2 - 1)
    t = pos + len1 + len2 - 2
    plus, minus = _split_r3diff(it, t)
    # minus branch: (n-d, n-d, n-d-1); reassemble a doubled run and ladder it
    mit = _slide(minus, t + 2, 2 * d)
    for p in range(pos + len1 + len2 - 3, pos + len1 - 2, -1):
        mit = _slide(mit, p, 2 * d + 2)
    out.extend(_ladder(mit, pos + len1 - 1, n - d, n))
    if d < n - j:
        out.extend(_sort_pair_descend(plus, pos, j, i, n, d + 1))
    else:
        out.extend(_ladder(plus, pos + (j - i), j, n))
    return out


def _parse_blocks(mid, n, kmax):
    """Leading maximal runs that reach n, up to kmax of them: list of (1-based pos, start label)."""
    blocks = []
    q = 0
    while len(blocks) < kmax and q < len(mid):
        s = mid[q]
        r = q
        while r + 1 < len(mid) and mid[r + 1] == mid[r] + 1:
            r += 1
        if mid[r] != n:
            break
        # the run ends at its first n
        r = q + (n - s)
        blocks.append((q + 1, s))
        q = r + 1
    return blocks


def _run_info(mid, n, offset):
    """Leftmost n at or after `offset` strands, its maximal backward run, and the run start."""
    try:
        idx = mid.index(n, offset)
    except ValueError:
        return None
    p = idx + 1
    while p > offset + 1 and mid[p - 2] == mid[p - 1] - 1:
        p -= 1
    return p, mid[p - 1]


_FACTOR_BUDGET = 4_000_000


def factor_general(seq, k, rank=None):
    """Write the identity on a sequence as combinations L e' R with e' carrying k sorted runs.

    Returns a list of (coeff, left word, SpecialIdempotentSpec, right word) whose
    normal-formed sum reconstructs the plain idempotent.
    """
    seq = tuple(int(v) for v in seq)
    if rank is None:
        rank = max(seq) if seq else 1
    n = rank
    if k < 0:
        raise ValueError("block count must be >= 0")
    if seq.count(n) < k:
        raise ValueError(f"sequence has {seq.count(n)} strands with label {n}, need {k}")
    out = []
    work = [(1, (), seq, ())]
    steps = 0
    while work:
        steps += 1
        if steps > _FACTOR_BUDGET:
            raise RuntimeError("factorization budget exceeded")
        item = work.pop()
        coeff, lops, mid, rops = item
        blocks = _parse_blocks(mid, n, k)
        bad = None
        for t in range(len(blocks) - 1):
            if blocks[t][1] > blocks[t + 1][1]:
                bad = t
                break
        if bad is not None:
            work.extend(_sort_pair(item, blocks[bad][0], blocks[bad][1], blocks[bad + 1][1], n))
            continue
        if len(blocks) == k:
            consumed = sum(n - s + 1 for _, s in blocks)
            spec = SpecialIdempotentSpec(n, tuple(s for _, s in blocks), mid[consumed:])
            left = KLRWord(n, mid, lops)
            right = KLRWord(n, seq, rops)
            out.append((coeff, left, spec, right))
            continue
        offset = sum(n - s + 1 for _, s in blocks)
        p, s = _run_info(mid, n, offset)
        if p == offset + 1:
            raise AssertionError("unparsed leading run")
        c = mid[p - 2]
        if c <= s - 2:
            work.append(_slide(item, p - 1, n - s + 1))
        elif c == s:
            work.extend(_split_invr3(item, p - 1))
        else:
            it = _slide(item, p - 1, c - 1 - s) if c - 1 - s else item
            r = p - 1 + (c - 1 - s)
            work.extend(_split_r3diff(it, r))
    return out
