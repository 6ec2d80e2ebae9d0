"""Quotient-level checks: reductions, graded Hom dimensions, projections, patterns."""

import itertools
import random
from fractions import Fraction

import pytest

from klrlab.combi import Partition, enumerate_gt_patterns
from klrlab.cyclo import (
    CAPPED,
    EXACT,
    GTIdempotent,
    PGroupMask,
    append_free_strand,
    branch_context,
    cyc_reduce,
    flip_word,
    gdim_hom,
    gt_idempotent,
    gt_orthogonality_check,
    hom_record,
    make_context,
    pi_project,
    sl2_vanishing_check,
    special_idempotent,
    tilde_kernel_test,
    weyl_vanishing_check,
)
from klrlab.cyclo import (
    _Echelon,
    _RowSource,
    _basis_keys,
    _compatible_perms,
    _compositions,
    _ideal_row_gen,
    _reduce_vec,
)
from klrlab.klr import (
    KLRElement,
    KLRWord,
    SpecialIdempotentSpec,
    canonical_terms,
    idempotent,
    multiply,
)
from klrlab.qint import LaurentPoly
from klrlab.uqmod import gram_entry, weight_words


def elem(rank, bottom, ops=()):
    w = KLRWord(rank, bottom, ops)
    return KLRElement(rank, {w: 1})


def test_make_context_basics():
    ctx = make_context(Partition((1, 0)))
    assert ctx.weight == (1,)
    assert ctx.dot_cap == 1 + 1
    ctx = make_context(Partition((2, 1, 0)))
    assert ctx.weight == (1, 1)
    assert ctx.dot_cap == 3 + 1
    with pytest.raises(ValueError):
        make_context(Partition((1, 0)), degree_cap=0)
    with pytest.raises(ValueError):
        make_context(Partition((1, 0)), dot_cap=-1)


def test_cyc_reduce_examples():
    ctx = make_context(Partition((1, 0)))
    red, st = cyc_reduce(elem(1, (1,), (("dot", 1),)), ctx)
    assert red.is_zero() and st == EXACT
    red, st = cyc_reduce(KLRElement(1, {}), ctx)
    assert red.is_zero() and st == EXACT
    ctx2 = make_context(Partition((2, 0)))
    red, st = cyc_reduce(idempotent(1, (1, 1, 1)), ctx2)
    assert red.is_zero() and st == EXACT
    red, st = cyc_reduce(idempotent(1, (1, 1)), ctx2)
    assert not red.is_zero() and st == EXACT
    with pytest.raises(ValueError):
        cyc_reduce(elem(2, (1, 2)), ctx)


def test_gdim_examples():
    ctx1 = make_context(Partition((1, 0)))
    p, st = gdim_hom((1,), (1,), ctx1)
    assert p == LaurentPoly.one() and st == EXACT
    p, st = gdim_hom((1, 1), (1, 1), ctx1)
    assert p.is_zero() and st == EXACT
    ctx2 = make_context(Partition((2, 0)))
    p, st = gdim_hom((1,), (1,), ctx2)
    assert p == LaurentPoly({0: 1, 2: 1}) and st == EXACT
    p, st = gdim_hom((1,), (1, 1), ctx2)
    assert p.is_zero() and st == EXACT


def oracle_slice(lam, hw, betas):
    """Compare every Hom matrix against the contravariant form, one shift per content."""
    ctx = make_context(Partition(lam))
    for beta in betas:
        words = weight_words(beta)
        shift = None
        for u in words:
            for w in words:
                p, st = gdim_hom(u, w, ctx)
                assert st == EXACT, (lam, beta, u, w)
                g = gram_entry(hw, u, w)
                if g.is_zero():
                    assert p.is_zero(), (lam, beta, u, w)
                    continue
                assert not p.is_zero(), (lam, beta, u, w)
                if shift is None:
                    shift = p.min_exp() - g.min_exp()
                assert p == g.shift(shift), (lam, beta, u, w)


def test_oracle_agreement_sl2():
    oracle_slice((1, 0), (1,), [(1,), (2,)])
    oracle_slice((2, 0), (2,), [(1,), (2,), (3,)])


def test_oracle_agreement_sl3():
    oracle_slice((1, 0, 0), (1, 0), [(1, 0), (0, 1), (1, 1), (2, 1)])
    oracle_slice((1, 1, 0), (0, 1), [(1, 0), (0, 1), (1, 1), (1, 2)])
    oracle_slice((2, 1, 0), (1, 1), [(1, 1), (2, 1), (1, 2)])


@pytest.mark.parametrize(
    "e, e2", [((1, 1, 1, 2), (1, 1, 1, 2)), ((1, 1, 2, 1), (1, 2, 1, 1))]
)
def test_four_strand_hom_at_300_matches_the_form(e, e2):
    """Long four-strand degree sweeps at (3,0,0), with many dots in one piece: exact, and
    equal to the contravariant form with no shift."""
    ctx = make_context(Partition((3, 0, 0)))
    p, st = gdim_hom(e, e2, ctx)
    assert st == EXACT
    assert p == gram_entry((3, 0), e, e2)


def test_block_decomposition_zero_across_contents():
    ctx = make_context(Partition((2, 1, 0)))
    p, st = gdim_hom((1, 2), (1, 1), ctx)
    assert p.is_zero() and st == EXACT
    p, st = gdim_hom((2,), (1,), ctx)
    assert p.is_zero() and st == EXACT


def test_special_idempotent_dominance():
    ctx = make_context(Partition((2, 1, 0)))
    spec = special_idempotent((1,), (1,), ctx)
    assert spec.bottom() == (1, 2, 1)
    spec = special_idempotent((1, 2), (), ctx)
    assert spec.bottom() == (1, 2, 2)
    with pytest.raises(ValueError):
        special_idempotent((1, 1), (), ctx)


def test_branch_context_weights():
    ctx = make_context(Partition((2, 1, 0)))
    tc = branch_context(ctx, (1,))
    assert tuple(tc.lam) == (1, 1) and tc.weight == (0,)
    tc = branch_context(ctx, (2,))
    assert tuple(tc.lam) == (2, 0) and tc.weight == (2,)
    ctx2 = make_context(Partition((3, 1, 0)))
    tc = branch_context(ctx2, (1,))
    assert tuple(tc.lam) == (2, 1) and tc.weight == (1,)


def x_word(n, bottom, block_len, r):
    ops = [("cross", p) for p in range(block_len, 0, -1)]
    ops += [("dot", 1)] * r
    ops += [("cross", p) for p in range(1, block_len + 1)]
    return KLRWord(n, bottom, ops)


def test_pi_cases_frozen():
    # free strand one below the removed row: image gains one dot
    ctx = make_context(Partition((2, 1, 0)))
    out = pi_project(x_word(2, (2, 1), 1, 0), (2,), ctx)
    assert {(w.bottom, w.ops): c for w, c in out.terms.items()} == {
        ((1,), (("dot", 1),)): 1
    }
    out = pi_project(x_word(2, (2, 1), 1, 1), (2,), ctx)
    assert out.is_zero()
    # free strand matching the removed row, small weight: identically zero
    for r in range(4):
        out = pi_project(x_word(2, (1, 2, 1), 2, r), (1,), ctx)
        assert out.is_zero(), r
    # same case with enough weight: one surviving term, one dot fewer, engine sign -1
    ctx2 = make_context(Partition((4, 1, 0)))
    out = pi_project(x_word(2, (1, 2, 1), 2, 1), (1,), ctx2)
    assert {(w.bottom, w.ops): c for w, c in out.terms.items()} == {((1,), ()): -1}
    out = pi_project(x_word(2, (1, 2, 1), 2, 2), (1,), ctx2)
    assert {(w.bottom, w.ops): c for w, c in out.terms.items()} == {
        ((1,), (("dot", 1),)): -1
    }
    out = pi_project(x_word(2, (1, 2, 1), 2, 0), (1,), ctx2)
    assert out.is_zero()
    # free strand well below the removed row: dots pass through
    ctx4 = make_context(Partition((2, 1, 1, 0)))
    out = pi_project(x_word(3, (3, 1), 1, 0), (3,), ctx4)
    assert {(w.bottom, w.ops): c for w, c in out.terms.items()} == {((1,), ()): 1}
    tc = branch_context(ctx4, (3,))
    for r in range(3):
        out = pi_project(x_word(3, (3, 1), 1, r), (3,), ctx4)
        want, st = cyc_reduce(elem(2, (1,), (("dot", 1),) * r), tc)
        assert st == EXACT
        assert out.terms == want.terms, r
    # free strand strictly between: passes through, engine sign -1
    ctx5 = make_context(Partition((3, 2, 1, 0)))
    out = pi_project(x_word(3, (1, 2, 3, 2), 3, 0), (1,), ctx5)
    assert {(w.bottom, w.ops): c for w, c in out.terms.items()} == {((2,), ()): -1}


def test_pi_kernel_elements():
    ctx = make_context(Partition((2, 1, 0)))
    # crossing inside the block
    w = KLRWord(2, (1, 2), (("cross", 1), ("cross", 1)))
    assert pi_project(w, (1,), ctx).is_zero()
    # dot on a block strand
    w = KLRWord(2, (1, 2, 1), (("dot", 2),))
    assert pi_project(w, (1,), ctx).is_zero()


def test_pi_validation():
    ctx = make_context(Partition((2, 1, 0)))
    with pytest.raises(ValueError):
        pi_project(elem(2, (2, 1)), (1, 1), ctx)
    with pytest.raises(ValueError):
        pi_project(elem(2, (1, 1)), (2,), ctx)
    ctx4 = make_context(Partition((3, 2, 1, 0)))
    with pytest.raises(ValueError):
        pi_project(elem(3, (1, 2, 3, 3), (("cross", 3), ("cross", 3))), (1,), ctx4)


def random_endo_word(rng, rank, bottom, max_ops=5):
    m = len(bottom)
    while True:
        ops = []
        for _ in range(rng.randrange(max_ops + 1)):
            if m >= 2 and rng.random() < 0.6:
                ops.append(("cross", rng.randrange(1, m)))
            else:
                ops.append(("dot", rng.randrange(1, m + 1)))
        w = KLRWord(rank, bottom, ops)
        if w.top() == bottom:
            return w


def assert_zero_mod(x, ctx):
    if x.is_zero():
        return
    red, st = cyc_reduce(x, ctx)
    assert red.is_zero() and st == EXACT


def test_pi_multiplicative():
    ctx = make_context(Partition((2, 1, 0)))
    tctx = branch_context(ctx, (2,))
    bot = special_idempotent((2,), (1, 1), ctx).bottom()
    rng = random.Random(11)
    for _ in range(50):
        g = random_endo_word(rng, 2, bot)
        h = random_endo_word(rng, 2, bot)
        gh = multiply(KLRElement(2, {g: 1}), KLRElement(2, {h: 1}))
        lhs = pi_project(gh, (2,), ctx) if not gh.is_zero() else KLRElement(1, {})
        pg = pi_project(g, (2,), ctx)
        ph = pi_project(h, (2,), ctx)
        rhs = multiply(pg, ph) if not (pg.is_zero() or ph.is_zero()) else KLRElement(1, {})
        if lhs.is_zero() or rhs.is_zero():
            assert_zero_mod(rhs if lhs.is_zero() else lhs, tctx)
        else:
            assert lhs.bottom == rhs.bottom and lhs.top == rhs.top
            assert_zero_mod(lhs - rhs, tctx)


def test_pi_phi_commutation():
    ctx = make_context(Partition((2, 1, 0)))
    tctx = branch_context(ctx, (2,))
    bot = special_idempotent((2,), (1,), ctx).bottom()
    rng = random.Random(23)
    for _ in range(50):
        g = KLRElement(2, {random_endo_word(rng, 2, bot): 1})
        lhs = pi_project(append_free_strand(g, 1), (2,), ctx)
        inner = pi_project(g, (2,), ctx)
        rhs = append_free_strand(inner, 1) if not inner.is_zero() else KLRElement(1, {})
        if lhs.is_zero() or rhs.is_zero():
            assert_zero_mod(rhs if lhs.is_zero() else lhs, tctx)
        else:
            assert_zero_mod(lhs - rhs, tctx)


def test_pi_surjectivity_witnesses():
    ctx = make_context(Partition((2, 1, 0)))
    for xi, tail in [((2,), (1, 1)), ((1,), (1,))]:
        tctx = branch_context(ctx, xi)
        block = SpecialIdempotentSpec(2, xi).bottom()
        blen = len(block)
        bot = block + tail
        gens = [KLRWord(1, tail)]
        gens += [KLRWord(1, tail, (("dot", p),)) for p in range(1, len(tail) + 1)]
        gens += [KLRWord(1, tail, (("cross", p),)) for p in range(1, len(tail))]
        for gen in gens:
            lifted_ops = tuple((k, p + blen) for k, p in gen.ops)
            pre = KLRWord(2, bot, lifted_ops)
            got = pi_project(pre, xi, ctx)
            want, _ = cyc_reduce(KLRElement(1, {gen: 1}), tctx)
            if got.is_zero() or want.is_zero():
                assert_zero_mod(want if got.is_zero() else got, tctx)
            else:
                assert_zero_mod(got - want, tctx)


def test_tilde_kernel_rules():
    mask = PGroupMask(3, (1, 2))
    assert not tilde_kernel_test(KLRWord(2, (1, 2, 1)), mask)
    assert tilde_kernel_test(KLRWord(2, (1, 2, 1), (("dot", 2),)), mask)
    assert tilde_kernel_test(KLRWord(2, (1, 2, 1), (("cross", 1),)), mask)
    # block strand may cross a free strand...
    assert not tilde_kernel_test(KLRWord(2, (1, 2, 1), (("cross", 2),)), mask)
    # ...but once swapped inward, block-block contact still counts
    w = KLRWord(2, (1, 2, 1), (("cross", 2), ("cross", 1)))
    assert not tilde_kernel_test(w, mask)
    w = KLRWord(2, (1, 2, 1), (("cross", 2), ("cross", 1), ("cross", 2)))
    assert tilde_kernel_test(w, mask)
    with pytest.raises(ValueError):
        tilde_kernel_test(KLRWord(2, (1, 2)), mask)
    with pytest.raises(ValueError):
        PGroupMask(2, (3,))


def test_gt_idempotent_examples():
    lam = Partition((1, 0))
    pats = enumerate_gt_patterns(lam)
    seqs = {gt_idempotent(s).sequence for s in pats}
    assert seqs == {(), (1,)}
    allzero = Partition((0, 0, 0))
    z = enumerate_gt_patterns(allzero)
    assert len(z) == 1
    assert gt_idempotent(z[0]).sequence == ()


def test_gt_idempotents_210():
    lam = Partition((2, 1, 0))
    pats = enumerate_gt_patterns(lam)
    assert len(pats) == 8
    seqs = [gt_idempotent(s).sequence for s in pats]
    assert len(set(seqs)) == 8
    assert set(seqs) == {
        (),
        (1,),
        (2,),
        (2, 1),
        (2, 1, 1),
        (1, 2),
        (1, 2, 2),
        (1, 2, 2, 1),
    }
    ctx = make_context(lam)
    for s, seq in zip(pats, seqs):
        if not seq:
            continue
        red, st = cyc_reduce(idempotent(2, seq), ctx)
        assert not red.is_zero() and st == EXACT, seq


def test_gt_orthogonality_small():
    assert gt_orthogonality_check(Partition((1, 0)))
    assert gt_orthogonality_check(Partition((2, 0)))
    assert gt_orthogonality_check(Partition((2, 1, 0)))


def test_sl2_vanishing():
    for lam1 in range(4):
        assert sl2_vanishing_check(lam1), lam1
    # certificate on the other side: the last surviving idempotent is nonzero
    for lam1 in (1, 2, 3):
        ctx = make_context(Partition((lam1, 0)))
        red, st = cyc_reduce(idempotent(1, (1,) * lam1), ctx)
        assert not red.is_zero() and st == EXACT, lam1


def test_weyl_vanishing():
    ctx = make_context(Partition((1, 0)))
    assert weyl_vanishing_check((1, 1), ctx)
    assert weyl_vanishing_check((1,), ctx)
    ctx3 = make_context(Partition((1, 0, 0)))
    assert weyl_vanishing_check((1, 1), ctx3)
    assert weyl_vanishing_check((1, 2), ctx3)


def test_hom_record_shape():
    ctx = make_context(Partition((1, 0)))
    p, st = gdim_hom((1,), (1,), ctx)
    rec = hom_record(ctx, (1,), (1,), p, st)
    assert rec == {
        "lambda": [1, 0],
        "left": [1],
        "right": [1],
        "gdim": [[0, 1]],
        "status": "exact",
        "qshift": 0,
    }


def test_flip_and_append():
    w = KLRWord(2, (1, 2), (("cross", 1), ("dot", 1)))
    f = flip_word(w)
    assert f.bottom == w.top() and f.top() == w.bottom
    assert f.ops == (("dot", 1), ("cross", 1))
    x = append_free_strand(KLRElement(2, {w: 1}), 2)
    (w2, c), = x.terms.items()
    assert w2.bottom == (1, 2, 2) and w2.ops == w.ops and c == 1


def test_capped_status_on_tiny_caps():
    ctx = make_context(Partition((2, 0)), degree_cap=1, dot_cap=1)
    red, st = cyc_reduce(elem(1, (1,), (("dot", 1),) * 3), ctx)
    assert st == CAPPED
    assert not red.is_zero()


def piece_rows(ctx, seq, delta):
    """Every ideal row of one graded endomorphism piece, in feeding order."""
    return list(_ideal_row_gen(ctx, seq, seq, delta))


def sorted_pivot_reduce(rows, vec):
    """Reference reduction: clear pivots from the largest down, one at a time."""
    out = dict(vec)
    for pivot in sorted(rows, reverse=True):
        c = out.get(pivot)
        if c:
            for k, v in rows[pivot].items():
                out[k] = out.get(k, 0) - c * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("seq, delta", [((1, 2, 1, 2), 0), ((1, 2, 2), 2)])
def test_echelon_reduce_matches_sorted_pivot_reduction(seq, delta):
    ctx = make_context(Partition((2, 1, 0)))
    rows = piece_rows(ctx, seq, delta)
    keys = _basis_keys(seq, seq, delta)
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    assert 0 < ech.rank() < len(keys)
    for pivot, row in ech.rows.items():
        assert row[pivot] == 1 and pivot == max(row)
        assert not any(k in row for k in ech.rows if k != pivot)
    rng = random.Random(5)
    vecs = rows + [
        {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in keys} for _ in range(20)
    ]
    for vec in vecs:
        vec = {k: v for k, v in vec.items() if v}
        assert ech.reduce(vec) == sorted_pivot_reduce(ech.rows, vec)
    int_reds = [ech.reduce({k: rng.randint(-3, 3) for k in keys}) for _ in range(20)]
    assert any(int_reds)
    assert all(type(v) is int for red in int_reds for v in red.values())


def per_word_rows(ctx, bottom, top, delta, dcap, xcap):
    """Reference ideal rows: rewrite every whole sandwich word
    x^compb * psi_vb * x_1^gpow * x^compa * psi_va, one per (vb, va, compb, compa), over
    every permutation vb and within the dot caps dcap and xcap; a larger spanning set than
    the generator's, kept as the reference."""
    m = len(bottom)
    lam_bottom = ctx.weight[bottom[0] - 1]
    for key in _basis_keys(bottom, top, delta):
        if key[0][0] >= lam_bottom:
            yield {key: 1}
    for mid in sorted(set(itertools.permutations(bottom))):
        gpow = ctx.weight[mid[0] - 1]
        for _, vb, cdb in _compatible_perms(bottom, mid):
            for _, va, cda in _compatible_perms(mid, top):
                rem = delta - 2 * gpow - cda - cdb
                if rem < 0 or rem % 2:
                    continue
                for tb in range(rem // 2 + 1):
                    ta = rem // 2 - tb
                    if tb > xcap or ta > xcap:
                        continue
                    if abs(cdb + 2 * tb) > dcap or abs(cda + 2 * ta) > dcap:
                        continue
                    for compb in _compositions(tb, m):
                        for compa in _compositions(ta, m):
                            ops = [("dot", p + 1) for p in range(m) for _ in range(compb[p])]
                            ops += [("cross", g) for g in vb] + [("dot", 1)] * gpow
                            ops += [("dot", p + 1) for p in range(m) for _ in range(compa[p])]
                            ops += [("cross", g) for g in va]
                            _, terms = canonical_terms(KLRWord(ctx.rank, bottom, ops))
                            if terms:
                                yield dict(terms)


ROW_PIECES = (
    [((3, 0), (1, 1, 1, 1), (1, 1, 1, 1), 0, 14121)]
    + [((2, 1, 0), (1, 2, 1, 2), (1, 2, 2, 1), d, None) for d in range(-4, 5)]
    + [((2, 1, 0), (1, 1, 2), (1, 2, 1), d, None) for d in range(-4, 5)]
    + [((2, 0, 0), (1, 1, 2, 2), (1, 2, 1, 2), 3, None)]
)


@pytest.mark.parametrize("lam, bottom, top, delta, limit", ROW_PIECES)
def test_ideal_rows_match_the_per_word_rewrite(lam, bottom, top, delta, limit):
    """The coset rows (no bottom dots, minimal coset representatives below the generator)
    span the same ideal piece as every whole sandwich word: the same echelon rank, and
    the same normal form of every reference row and of random vectors.  The (3,0)
    reference is cut at 14,121 rows, which reach rank 575; the coset rows span the whole
    610-word piece (e(1,1,1,1) is zero at (3,0)), so there the reference span is only
    contained in theirs."""
    ctx = make_context(Partition(lam))
    want = per_word_rows(ctx, bottom, top, delta, ctx.degree_cap, ctx.dot_cap)
    want = list(itertools.islice(want, limit))
    old, new = _Echelon(), _Echelon()
    for row in want:
        old.insert(row)
    for row in _ideal_row_gen(ctx, bottom, top, delta):
        new.insert(row)
    keys = _basis_keys(bottom, top, delta)
    rng = random.Random(delta)
    vecs = [{k: rng.randint(-3, 3) for k in keys} for _ in range(10)]
    assert not any(new.reduce(row) for row in want)
    if limit is None:
        assert new.rank() == old.rank()
        assert all(new.reduce(vec) == old.reduce(vec) for vec in vecs)
    else:
        assert (len(want), old.rank()) == (limit, 575)
        assert new.rank() == len(keys) == 610


def test_anchor_echelon_stays_in_ints():
    ctx = make_context(Partition((3, 0)))
    red, status = cyc_reduce(idempotent(1, (1, 1, 1, 1)), ctx)
    assert red.is_zero() and status == EXACT
    ((_, state),) = ctx.states.items()
    ech = state["ech"]
    assert (state["fed"], ech.rank()) == (974, 575)
    assert all(type(v) is int for row in ech.rows.values() for v in row.values())


def test_non_unit_pivot_row_is_stored_exactly():
    a, b, c = ((0,), (1,)), ((1,), ()), ((2,), ())
    ech = _Echelon()
    assert ech.insert({c: -1, a: 3}) == c
    assert ech.rows[c] == {c: 1, a: -3} and all(type(v) is int for v in ech.rows[c].values())
    assert ech.insert({b: 2, a: 3}) == b
    row = ech.rows[b]
    assert row == {b: 1, a: Fraction(3, 2)}
    assert type(row[b]) is int and type(row[a]) is Fraction
    assert ech.insert({b: 4, c: 2, a: 1}) == a
    assert ech.rows == {c: {c: 1}, b: {b: 1}, a: {a: 1}}
    assert all(type(v) is int for row in ech.rows.values() for v in row.values())


def test_kept_remainder_matches_a_fresh_reduction_after_every_row():
    ctx = make_context(Partition((2, 1, 0)))
    seq = (1, 2, 1, 2)
    rows = piece_rows(ctx, seq, 0)
    keys = _basis_keys(seq, seq, 0)
    vec = {k: Fraction(i % 3 + 1) for i, k in enumerate(keys)}
    moved = 0
    for n in range(len(rows) + 1):
        ctx = make_context(Partition((2, 1, 0)))
        ctx.sources[(seq, seq, 0)] = _RowSource(iter(rows[:n]))
        rem = _reduce_vec(ctx, seq, seq, 0, vec)
        ech = _Echelon()
        for row in rows[:n]:
            ech.insert(row)
        fresh = ech.reduce(vec)
        assert rem == fresh and rem
        moved += fresh != vec
    assert moved


def test_vanishing_piece_feeds_the_same_rows():
    """e(1,1,1) at (2,0) dies after 37 coset rows, at rank 26 of the 29-word piece."""
    ctx = make_context(Partition((2, 0)))
    red, _ = cyc_reduce(idempotent(1, (1, 1, 1)), ctx)
    assert red.is_zero()
    ((_, state),) = ctx.states.items()
    assert (state["fed"], state["ech"].rank()) == (37, 26)
