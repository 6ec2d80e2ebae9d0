"""Quotient-level checks: reductions, graded Hom dimensions, projections, patterns."""

import itertools
import random
from fractions import Fraction

import pytest

from klrlab import klr, uqmod
from klrlab.combi import Partition, enumerate_gt_patterns, weight_of_partition
from klrlab.cyclo import (
    CAPPED,
    EXACT,
    GTIdempotent,
    append_free_strand,
    branch_context,
    cyc_reduce,
    gdim_hom,
    gt_idempotent,
    gt_orthogonality_check,
    gt_orthogonality_reach,
    hom_record,
    make_context,
    pi_project,
    sl2_vanishing_check,
    special_idempotent,
    weyl_vanishing_check,
)
from klrlab.cyclo import (
    _Echelon,
    _RowSource,
    _basis_keys,
    _class_rep,
    _compatible_perms,
    _compositions,
    _coset_middles,
    _cross_contrib,
    _defect,
    _ideal_row_gen,
    _killed_keys,
    _new_state,
    _rank_dim,
    _reduce_vec,
    _swept_pair,
    _symmetry_range,
    _tilde_gdim_zero,
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
    ctx = make_context(Partition((2, 1, 0)))
    assert ctx.weight == (1, 1)
    with pytest.raises(ValueError):
        make_context(Partition((1, 0)), degree_cap=0)


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


def test_gdim_rejects_labels_outside_the_rank():
    """A refusal is never kept: the pair raises again when asked again, and leaves no
    answer in `ctx.homs` and no record for the invalid sequence in `ctx.reps`."""
    ctx = make_context(Partition((2, 1, 0)))
    for e, e2 in [((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 0)), ((3,), (3,)), ((1, 3), (3, 1)),
                  ((1,), (0,)), ((3,), (1,)), ((2, -1), (2,))]:
        for _ in range(2):
            with pytest.raises(ValueError, match=r"strand labels must lie in 1\.\.2"):
                gdim_hom(e, e2, ctx)
        assert (e, e2) not in ctx.homs, (e, e2)
        assert [s for s in (e, e2) if s in ctx.reps and not set(s) <= {1, 2}] == [], (e, e2)
    p, st = gdim_hom((1, 2), (2, 1), ctx)
    assert st == EXACT and p == gram_entry((1, 1), (1, 2), (2, 1))


def oracle_slice(lam, hw, betas):
    """Compare every Hom matrix against the contravariant form, with no shift."""
    ctx = make_context(Partition(lam))
    for beta in betas:
        words = weight_words(beta)
        for u in words:
            for w in words:
                p, st = gdim_hom(u, w, ctx)
                assert st == EXACT, (lam, beta, u, w)
                assert p == gram_entry(hw, u, w), (lam, beta, u, w)


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


# gdim_hom stops its degree sweep after two zero degrees, so these self pairs come back
# 0 with status exact; the form gives the polynomials below.  A certified sweep flips
# them.
@pytest.mark.xfail(strict=True, reason="gdim_hom stops after two zero degrees")
@pytest.mark.parametrize(
    "lam, e",
    [((3, 1, 0), (2, 1, 2, 1)), ((3, 0, 0), (1, 2, 1, 1)), ((3, 1, 0), (1, 1, 2, 1))],
)
def test_self_hom_that_the_sweep_cuts_short_matches_the_form(lam, e):
    lam = Partition(lam)
    p, st = gdim_hom(e, e, make_context(lam))
    assert st == EXACT
    assert p == gram_entry(weight_of_partition(lam).entries, e, e)


# How far the stopping rule's defect reaches: of the 210 unordered pairs of content
# (3, 3) at (3,1,0), 29 come back with another polynomial than the form's, each with
# status exact.  The certified sweep of ROADMAP item 1 flips this to an XPASS.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: gdim_hom stops after two zero degrees",
)
def test_every_six_strand_pair_at_310_matches_the_form():
    ctx = make_context(Partition((3, 1, 0)))
    words = weight_words((3, 3))
    pairs = list(itertools.combinations_with_replacement(words, 2))
    assert len(pairs) == 210
    bad = [(u, w) for u, w in pairs if gdim_hom(u, w, ctx) != (gram_entry((2, 1), u, w), EXACT)]
    assert bad == []


def _same_content_pairs(rank, strands=4, repeat=2):
    """Every ordered pair of label sequences of one content on 1..strands strands, with at
    most `repeat` equal labels."""
    groups = {}
    for m in range(1, strands + 1):
        for seq in itertools.product(range(1, rank + 1), repeat=m):
            if max(map(seq.count, seq)) <= repeat:
                groups.setdefault(tuple(sorted(seq)), []).append(seq)
    for group in groups.values():
        yield from itertools.product(group, repeat=2)


def _swept_range(ctx, e, e2):
    """Every degree of the graded-symmetry range, each computed on a fresh echelon."""
    dmin, dmax = _symmetry_range(ctx.weight, e, e2)
    dims = {}
    for delta in range(dmin, dmax + 1):
        nbasis = len(_basis_keys(e, e2, delta))
        dims[delta] = _rank_dim(_new_state(ctx, e, e2, delta), nbasis) if nbasis else 0
    return dmin, dims


def _replayed_sweep(dmin, dims, cap):
    """gdim_hom's stopping rule run over computed dims: up from dmin until two zero
    degrees in a row (exact) or past the cap (capped)."""
    seen, delta, status = {}, dmin, CAPPED
    while delta <= cap:
        seen[delta] = dims.get(delta, 0)
        if delta > dmin and seen[delta] == 0 and seen[delta - 1] == 0:
            status = EXACT
            break
        delta += 1
    return LaurentPoly({d: v for d, v in seen.items() if v}), status


@pytest.mark.parametrize(
    "lam, caps",
    [((2, 1, 0), (1, 2, 3, 4, 16)), ((2, 0, 0), (16,)), ((1, 1, 0), (16,)), ((2, 1, 1, 0), (16,))],
)
def test_mirrored_degrees_equal_computed_ones(lam, caps):
    """gdim_hom reads each degree above the middle d of the graded-symmetry range off its
    mirror 2d - delta.  Here every degree of the range is computed, without the mirror:
    the dims are palindromic about d, and gdim_hom is the stopping-rule sweep over them,
    at every cap."""
    full = make_context(Partition(lam))
    ctxs = [make_context(Partition(lam), cap) for cap in caps]
    for e, e2 in _same_content_pairs(full.rank):
        dmin, dims = _swept_range(full, e, e2)
        d = _defect(full.weight, e)
        assert all(dims.get(2 * d - k, 0) == v for k, v in dims.items()), (e, e2, dims)
        for ctx in ctxs:
            want = _replayed_sweep(dmin, dims, ctx.degree_cap)
            assert gdim_hom(e, e2, ctx) == want, (e, e2, ctx.degree_cap)


def test_form_is_palindromic_inside_the_symmetry_range():
    """The contravariant form, which gdim_hom must equal, has every nonzero pairing
    palindromic about d = (Lambda, beta) - (beta, beta)/2 and inside `_symmetry_range`:
    a check of `_defect` that runs no elimination."""
    lams = [(2, 0), (3, 0), (2, 1, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0), (2, 1, 1, 0),
            (1, 1, 0, 0), (2, 2, 0)]
    nonzero = 0
    for lam in lams:
        hw = tuple(weight_of_partition(Partition(lam)).entries)
        for beta in itertools.product(range(5), repeat=len(hw)):
            if not 1 <= sum(beta) <= 4:
                continue
            for u, w in itertools.combinations_with_replacement(weight_words(beta), 2):
                coeffs = dict(map(tuple, gram_entry(hw, u, w).to_pairs()))
                if not coeffs:
                    continue
                nonzero += 1
                d = _defect(hw, u)
                dmin, dmax = _symmetry_range(hw, u, w)
                assert all(coeffs.get(2 * d - k) == c for k, c in coeffs.items()), (lam, u, w)
                assert dmin <= min(coeffs) and max(coeffs) <= dmax, (lam, u, w)
    assert nonzero == 129


def _flip_mismatches(ctx, pairs, read_reversed):
    """The pairs (a, b) on which (b, a) gets another graded-symmetry range than (a, b), or
    another dimension in some degree of it; `read_reversed(ctx, a, b)` gives (b, a)'s
    (dmin, dims)."""
    return [
        (a, b)
        for a, b in pairs
        if _symmetry_range(ctx.weight, a, b) != _symmetry_range(ctx.weight, b, a)
        or _swept_range(ctx, a, b) != read_reversed(ctx, a, b)
    ]


def _swept_reversed(ctx, a, b):
    return _swept_range(ctx, b, a)


def _read_one_degree_up(ctx, a, b):
    """A mutant swap: (b, a) read off (a, b), but each dimension one degree up."""
    dmin, dims = _swept_range(ctx, a, b)
    return dmin, {k: dims.get(k - 1, 0) for k in dims}


def test_reversed_pair_has_the_same_dimension_in_every_degree():
    """The diagram flip fixes every dot and idempotent, hence the cyclotomic generators,
    so e(a) R^Lambda e(b) and e(b) R^Lambda e(a) agree in every degree: gdim_hom sweeps
    each pair in sorted order on that.  Each order is computed here on its own fresh
    echelons, over the whole graded-symmetry range, without gdim_hom.  The five-strand
    pairs are every sequence of content (3, 2) against the alternating (1,2,1,2,1): all
    90 pairs of both five-strand contents take about 10 s."""
    four = {}
    for lam in [(2, 1, 0), (3, 1, 0), (2, 0, 0), (2, 1, 1, 0)]:
        ctx = make_context(Partition(lam))
        four[lam] = ctx, [(a, b) for a, b in _same_content_pairs(ctx.rank) if a < b]
        assert _flip_mismatches(*four[lam], _swept_reversed) == [], lam
    ctx = make_context(Partition((3, 2, 0)))
    alternating = (1, 2, 1, 2, 1)
    others = sorted(set(itertools.permutations(alternating)) - {alternating})
    five = [(alternating, b) for b in others]
    assert len(five) == 9
    assert _flip_mismatches(ctx, five, _swept_reversed) == []
    # the mutant fails on exactly the pairs with a nonzero Hom piece
    for lam, (ctx, pairs) in four.items():
        nonzero = [(a, b) for a, b in pairs if any(_swept_range(ctx, a, b)[1].values())]
        assert nonzero and _flip_mismatches(ctx, pairs, _read_one_degree_up) == nonzero, lam


def _orbit_least(seq):
    """The least sequence reachable from `seq` by swapping adjacent distant labels,
    found by searching the whole orbit."""
    seen, todo = {seq}, [seq]
    while todo:
        cur = todo.pop()
        for k in range(len(cur) - 1):
            if abs(cur[k] - cur[k + 1]) > 1:
                nxt = cur[:k] + (cur[k + 1], cur[k]) + cur[k + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return min(seen)


def test_class_rep_is_the_least_of_its_orbit():
    """`_class_rep`'s greedy pick equals a search of the whole orbit, on every sequence
    over the labels 1..4 of length at most 6."""
    seqs = [s for m in range(7) for s in itertools.product(range(1, 5), repeat=m)]
    assert len(seqs) == 5_461
    assert [s for s in seqs if _class_rep(s) != _orbit_least(s)] == []


def _rep_mismatches(ctx, rep):
    """How many unordered same-content pairs (a, b) `rep` moves, and those among them on
    which (rep a, rep b) gets another whole-range sweep than (a, b)."""
    pairs = [(a, b, rep(a), rep(b)) for a, b in _same_content_pairs(ctx.rank) if a <= b]
    moved = [(a, b, ra, rb) for a, b, ra, rb in pairs if (ra, rb) != (a, b)]
    bad = [(a, b) for a, b, *reps in moved if _swept_range(ctx, a, b) != _swept_range(ctx, *reps)]
    return len(moved), bad


def _sorted_rep(seq):
    """A mutant rep that also swaps neighbouring labels."""
    return tuple(sorted(seq))


@pytest.mark.parametrize(
    "lam, mutant_mismatches", [((2, 1, 1, 0), 289), ((1, 1, 0, 0), 272), ((2, 1, 0, 0), 287)]
)
def test_distant_swaps_keep_every_degree(lam, mutant_mismatches):
    """If |i_k - i_k+1| > 1, multiplying by psi_k is a degree-0 isomorphism between the Hom
    pieces of i and of s_k i, so a pair and the pair of its classes' least
    representatives agree in every degree of the graded-symmetry range.  gdim_hom sweeps
    the reps on that; here each side is computed on fresh echelons, without gdim_hom.
    The mutant rep that also swaps neighbouring labels moves more pairs and breaks
    most of them."""
    ctx = make_context(Partition(lam))
    assert _rep_mismatches(ctx, _class_rep) == (190, [])
    moved, bad = _rep_mismatches(ctx, _sorted_rep)
    assert (moved, len(bad)) == (347, mutant_mismatches)


def _flip(rank, seq):
    return tuple(rank + 1 - v for v in seq)


def test_dynkin_flip_carries_each_pair_to_the_dual_weight():
    """i -> n + 1 - i is an automorphism of the A_n quiver that carries R^Lambda onto
    R^Lambda*, where Lambda* has the fundamental coordinates of Lambda reversed: the pair
    (a, b) at lambda and the flipped pair at lambda* agree in every degree.  The mutant
    that flips the labels but keeps lambda breaks every family that is not self-dual.
    On the self-dual families (2,1,0) and (2,1,1,0) the flip is a symmetry of one
    quotient, which gdim_hom sweeps on the lesser pair of each flip orbit."""
    families = [
        ((3, 1, 0), (3, 2, 0), 52),
        ((2, 0, 0), (2, 2, 0), 32),
        ((2, 1, 0), (2, 1, 0), 0),
        ((2, 1, 1, 0), (2, 1, 1, 0), 0),
        ((3, 1, 0, 0), (3, 3, 2, 0), 478),
    ]
    checked = 0
    for lam, dual, mutant_mismatches in families:
        ctx, dctx = make_context(Partition(lam)), make_context(Partition(dual))
        assert dctx.weight == ctx.weight[::-1]
        n = ctx.rank
        bad, mutant_bad = [], 0
        for a, b in _same_content_pairs(n):
            want = _swept_range(ctx, a, b)
            fa, fb = _flip(n, a), _flip(n, b)
            if _swept_range(dctx, fa, fb) != want:
                bad.append((a, b))
            mutant_bad += _swept_range(ctx, fa, fb) != want
            checked += 1
        assert bad == [], lam
        assert mutant_bad == mutant_mismatches, lam
    assert checked == 1_482


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 1, 1, 0), (3, 1, 0)])
def test_pairs_swept_on_their_flip_orbit_give_their_own_sweep(lam):
    """At a self-dual weight gdim_hom sweeps the lesser pair of each Dynkin-flip orbit and
    keeps the answer for every pair that maps to it.  Every ordered same-content pair,
    any number of equal labels, asked on one context per cap, gets its own stopping-rule
    sweep over its own fresh whole-range echelons, value and status.  (3,1,0) is not
    self-dual (its dual is (3,2,0)), so no pair there may be swept on its flip: a
    gdim_hom that flips at every weight breaks 34 of its 98 pairs, at both caps."""
    full = make_context(Partition(lam))
    ctxs = [make_context(Partition(lam), cap) for cap in (3, 16)]
    pairs = list(_same_content_pairs(full.rank, repeat=4))
    random.Random(37).shuffle(pairs)
    bad = []
    for e, e2 in pairs:
        dmin, dims = _swept_range(full, e, e2)
        for ctx in ctxs:
            if gdim_hom(e, e2, ctx) != _replayed_sweep(dmin, dims, ctx.degree_cap):
                bad.append((e, e2, ctx.degree_cap))
    assert bad == []


def test_idempotent_vanishes_iff_its_form_does():
    """e(u) = 0 in R^Lambda iff <u, u> = 0: the self-Hom of a nonzero idempotent holds the
    idempotent itself.  The converse of criterion 11, on every idempotent of heights <= 4
    at rank 2 and at (1,1,0,0), and of heights <= 3 at (2,1,0,0)."""
    families = [((2, 1, 0), 4), ((3, 1, 0), 4), ((2, 0, 0), 4), ((3, 0, 0), 4), ((1, 1, 0), 4),
                ((2, 2, 0), 4), ((1, 1, 0, 0), 4), ((2, 1, 0, 0), 3)]
    checked = dead = 0
    for lam, height in families:
        lam = Partition(lam)
        ctx = make_context(lam)
        hw = tuple(weight_of_partition(lam).entries)
        for m in range(1, height + 1):
            for u in itertools.product(range(1, ctx.rank + 1), repeat=m):
                red, st = cyc_reduce(idempotent(ctx.rank, u), ctx)
                vanishes = red.is_zero() and st == EXACT
                assert vanishes == gram_entry(hw, u, u).is_zero(), (lam, u)
                checked += 1
                dead += vanishes
    assert (checked, dead) == (339, 263)


def test_reduced_basis_keys_have_the_rank_of_the_form():
    """In each degree of the graded-symmetry range, the remainders of a piece's basis
    keys under `_reduce_vec` span a space of the dimension that the contravariant form
    gives that degree: an oracle for the remainder path that uses none of the ideal rows.
    Every same-content pair of up to 3 strands at (2,1,0) and (3,1,0), and of up to 4
    strands at (2,0,0), (1,1,0), (2,2,0), (3,0,0), (1,1,0,0), (2,1,0,0) and (3,0)."""
    families = [((2, 1, 0), 3), ((3, 1, 0), 3), ((2, 0, 0), 4), ((1, 1, 0), 4), ((2, 2, 0), 4),
                ((3, 0, 0), 4), ((1, 1, 0, 0), 4), ((2, 1, 0, 0), 4), ((3, 0), 4)]
    pairs = total = 0
    for lam, strands in families:
        lam = Partition(lam)
        ctx = make_context(lam)
        hw = tuple(weight_of_partition(lam).entries)
        for u, w in _same_content_pairs(ctx.rank, strands, repeat=strands):
            want = dict(map(tuple, gram_entry(hw, u, w).to_pairs()))
            dmin, dmax = _symmetry_range(ctx.weight, u, w)
            got = {}
            for delta in range(dmin, dmax + 1):
                span = _Echelon()
                for key in _basis_keys(u, w, delta):
                    span.insert(_reduce_vec(ctx, u, w, delta, {key: 1}))
                if span.rank():
                    got[delta] = span.rank()
            assert got == want, (lam, u, w)
            pairs += 1
            total += sum(got.values())
    assert (pairs, total) == (1952, 1167)


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


def shared_label_ideal_row():
    """psi_2 psi_3 psi_2 e(b) - e(b) at (2,0,0), b = (1,2,1,2): the block idempotent of
    xi = (1,1), whose two blocks share their labels."""
    b = (1, 2, 1, 2)
    braid = KLRWord(2, b, (("cross", 2), ("cross", 3), ("cross", 2)))
    return make_context(Partition((2, 0, 0))), KLRElement(2, {braid: 1}) - idempotent(2, b)


def test_shared_label_row_lies_in_the_ideal():
    ctx, x = shared_label_ideal_row()
    red, st = cyc_reduce(x, ctx)
    assert red.is_zero() and st == EXACT


@pytest.mark.xfail(
    strict=True, reason="pi does not kill the ideal when the blocks of xi share labels"
)
def test_pi_kills_a_shared_label_ideal_row():
    ctx, x = shared_label_ideal_row()
    # Today the image is -e() in the child quotient (0,0), which is not zero there.
    assert pi_project(x, (1, 1), ctx).is_zero()


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


@pytest.mark.parametrize(
    "lam, xi, word, want",
    [
        ((1, 0), (1,), KLRWord(1, (1,)), 1),
        ((1, 0), (1,), KLRWord(1, (1,), (("dot", 1),)), 0),
        ((2, 0), (1,), KLRWord(1, (1,)), 1),
        ((2, 0), (1,), KLRWord(1, (1,), (("dot", 1),)), 0),
        ((2, 0), (1, 1), KLRWord(1, (1, 1)), 1),
        ((2, 0), (1, 1), KLRWord(1, (1, 1), (("cross", 1),)), 0),
        ((2, 0), (1, 1), KLRWord(1, (1, 1), (("cross", 1), ("dot", 1))), 1),
    ],
)
def test_pi_onto_a_child_without_strands(lam, xi, word, want):
    """A child quotient of rank 0 keeps the projected terms unreduced: e() or zero."""
    ctx = make_context(Partition(lam))
    assert branch_context(ctx, xi).rank == 0
    out = pi_project(word, xi, ctx)
    assert out.rank == 1
    assert out.terms == ({KLRWord(1, ()): want} if want else {})


def word_kernel_test(w, members):
    """Reference word-level kernel rule: True when the word dots a strand that starts at
    one of the 1-based bottom positions `members`, or crosses two of them."""
    cur = [p + 1 in members for p in range(len(w.bottom))]
    for kind, p in w.ops:
        if kind == "dot":
            if cur[p - 1]:
                return True
        else:
            if cur[p - 1] and cur[p]:
                return True
            cur[p - 1], cur[p] = cur[p], cur[p - 1]
    return False


def flip_word(w):
    """Top-for-bottom reflection of a word."""
    return KLRWord(w.rank, w.top(), tuple(reversed(w.ops)))


def test_killed_keys_match_the_word_level_kernel_rule():
    """Every same-content pattern pair, self pairs included, in degrees dmin..dmin+5: a
    key is killed iff its word hits a block span of the first pattern, or its flipped
    word one of the second."""
    pairs = keys = kept = 0
    for lam in [(2, 1, 0), (3, 1, 0), (2, 1, 1, 0), (3, 2, 0)]:
        rank = len(lam) - 1
        gts = [gt_idempotent(s) for s in enumerate_gt_patterns(Partition(lam))]
        for g1, g2 in itertools.product(gts, repeat=2):
            bottom, top = g1.sequence, g2.sequence
            if not bottom or sorted(bottom) != sorted(top):
                continue
            pairs += 1
            dmin = min(cd for _, _, cd in _compatible_perms(bottom, top))
            for delta in range(dmin, dmin + 6):
                want = set()
                for exps, word in _basis_keys(bottom, top, delta):
                    w = klr._word_from_canonical(rank, bottom, exps, word)
                    spans = [(w, s, e) for s, e in g1.layer_spans]
                    spans += [(flip_word(w), s, e) for s, e in g2.layer_spans]
                    if any(word_kernel_test(v, range(s + 1, e + 1)) for v, s, e in spans):
                        want.add((exps, word))
                got = list(_killed_keys(g1, g2, delta))
                assert len(got) == len(set(got)) and set(got) == want, (lam, g1, g2, delta)
                keys += len(_basis_keys(bottom, top, delta))
                kept += len(_basis_keys(bottom, top, delta)) - len(want)
    assert (pairs, keys, kept) == (69, 1250, 42)


def test_orthogonality_keeps_no_echelon():
    """Each degree's echelon reads the piece's shared row source and is then dropped."""
    lam = Partition((2, 1, 0))
    ctx = make_context(lam, 2 * lam.size() + 4)
    gts = {g.sequence: g for g in map(gt_idempotent, enumerate_gt_patterns(lam))}
    assert _tilde_gdim_zero(ctx, gts[1, 2], gts[2, 1])
    assert ctx.sources and not ctx.states


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


def test_gt_orthogonality_past_the_degree_cap_is_not_certified():
    """At (3,2,0) the graded-symmetry ranges 2d - dmin reach degree 6: a cap of 6
    certifies the check and a cap of 5 or less does not."""
    lam = Partition((3, 2, 0))
    assert gt_orthogonality_reach(lam) == 6
    assert gt_orthogonality_check(lam)
    assert gt_orthogonality_check(lam, degree_cap=6)
    assert not gt_orthogonality_check(lam, degree_cap=5)
    assert not gt_orthogonality_check(lam, degree_cap=1)
    assert gt_orthogonality_reach(Partition((2, 0, 0))) is None


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


def test_weyl_vanishing_rejects_labels_outside_the_rank():
    ctx = make_context(Partition((2, 1, 1)))
    for idem in [(0,), (1, 0), (3,), (2, 3)]:
        with pytest.raises(ValueError):
            weyl_vanishing_check(idem, ctx)


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


def test_append_free_strand():
    w = KLRWord(2, (1, 2), (("cross", 1), ("dot", 1)))
    x = append_free_strand(KLRElement(2, {w: 1}), 2)
    (w2, c), = x.terms.items()
    assert w2.bottom == (1, 2, 2) and w2.ops == w.ops and c == 1


def test_capped_status_on_tiny_caps():
    ctx = make_context(Partition((2, 0)), degree_cap=1)
    red, st = cyc_reduce(elem(1, (1,), (("dot", 1),) * 3), ctx)
    assert st == CAPPED
    assert not red.is_zero()


def piece_rows(ctx, seq, delta):
    """Every ideal row of one graded endomorphism piece, in feeding order, on columns."""
    return list(_ideal_row_gen(ctx, seq, seq, delta))


def as_columns(row, bottom, top, delta):
    """A dict of canonical keys of one graded piece with each key read as its column."""
    cols = _basis_keys(bottom, top, delta)
    return {cols[k]: c for k, c in row.items()}


def sorted_pivot_reduce(rows, vec):
    """Reference reduction: clear pivots from the least up, one at a time."""
    out = dict(vec)
    for pivot in sorted(rows):
        c = out.get(pivot)
        if c:
            for k, v in rows[pivot].items():
                out[k] = out.get(k, 0) - c * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("seq, delta", [((1, 2, 1, 2), 0), ((1, 2, 2), 2)])
def test_echelon_reduce_matches_sorted_pivot_reduction(seq, delta):
    ctx = make_context(Partition((2, 1, 0)))
    rows = piece_rows(ctx, seq, delta)
    keys = list(_basis_keys(seq, seq, delta).values())
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    assert 0 < ech.rank() < len(keys)
    for pivot, row in ech.rows.items():
        assert row[pivot] == 1 and pivot == min(row)
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


# The reference's dot cap for each lambda: the one contexts used to default to, the box
# count plus the largest weight entry.
REFERENCE_DOT_CAP = {(3, 0): 6, (2, 1, 0): 4, (2, 0, 0): 4}

ROW_PIECES = (
    [((3, 0), (1, 1, 1, 1), (1, 1, 1, 1), 0, 14121)]
    + [((2, 1, 0), (1, 2, 1, 2), (1, 2, 2, 1), d, None) for d in range(-4, 5)]
    + [((2, 1, 0), (1, 1, 2), (1, 2, 1), d, None) for d in range(-4, 5)]
    + [((2, 0, 0), (1, 1, 2, 2), (1, 2, 1, 2), 3, None)]
)


@pytest.mark.parametrize("lam, bottom, top, delta, limit", ROW_PIECES)
def test_ideal_rows_match_the_per_word_rewrite(lam, bottom, top, delta, limit):
    """The coset rows (dots only at the bottom, minimal coset representatives below the
    generator) span the same ideal piece as every whole sandwich word: the same echelon
    rank, and the same normal form of every reference row and of random vectors.  The (3,0)
    reference is cut at 14,121 rows, which reach rank 575; the coset rows span the whole
    610-word piece (e(1,1,1,1) is zero at (3,0)), so there the reference span is only
    contained in theirs."""
    ctx = make_context(Partition(lam))
    want = per_word_rows(ctx, bottom, top, delta, ctx.degree_cap, REFERENCE_DOT_CAP[lam])
    want = [as_columns(row, bottom, top, delta) for row in itertools.islice(want, limit)]
    old, new = _Echelon(), _Echelon()
    for row in want:
        old.insert(row)
    for row in _ideal_row_gen(ctx, bottom, top, delta):
        new.insert(row)
    keys = list(_basis_keys(bottom, top, delta).values())
    rng = random.Random(delta)
    vecs = [{k: rng.randint(-3, 3) for k in keys} for _ in range(10)]
    assert not any(new.reduce(row) for row in want)
    if limit is None:
        assert new.rank() == old.rank()
        assert all(new.reduce(vec) == old.reduce(vec) for vec in vecs)
    else:
        assert (len(want), old.rank()) == (limit, 575)
        assert new.rank() == len(keys) == 610


def coset_word_rows(ctx, bottom, top, delta):
    """Reference coset rows: the generator's unit rows, then each non-identity coset word
    x^comp * psi_vb * x_1^gpow * psi_va rewritten whole by `canonical_terms`, with the
    comp dots as its first ops, in the generator's order."""
    m = len(bottom)
    lam_bottom = ctx.weight[bottom[0] - 1]
    for key in _basis_keys(bottom, top, delta):
        if key[0][0] >= lam_bottom:
            yield {key: 1}
    for mid in sorted(set(itertools.permutations(bottom))):
        gpow = ctx.weight[mid[0] - 1]
        for perm, vb, cdb in _compatible_perms(bottom, mid):
            rest = [p for p in perm if p != 1]
            if rest != sorted(rest) or not vb:
                continue
            for _, va, cda in _compatible_perms(mid, top):
                rem = delta - 2 * gpow - cda - cdb
                if rem < 0 or rem % 2:
                    continue
                for comp in _compositions(rem // 2, m):
                    ops = [("dot", p + 1) for p in range(m) for _ in range(comp[p])]
                    ops += [("cross", g) for g in vb] + [("dot", 1)] * gpow
                    ops += [("cross", g) for g in va]
                    _, terms = canonical_terms(KLRWord(ctx.rank, bottom, ops))
                    if terms:
                        yield terms


IDENTITY_PIECES = [piece[:4] for piece in ROW_PIECES] + [
    ((2, 1, 1, 0), (1, 2, 3, 1), (1, 2, 1, 3), 4),
    ((2, 1, 1, 0), (1, 2, 3, 1), (1, 2, 1, 3), 6),
    ((2, 1, 1, 0), (1, 2, 3, 2), (2, 1, 2, 3), 4),
    ((3, 1, 0), (1, 1, 2, 1), (1, 2, 1, 1), 3),
    ((3, 1, 0), (1, 1, 2, 1), (1, 2, 1, 1), 5),
    ((3, 1, 0), (1, 2, 1, 2), (2, 1, 1, 2), 5),
]


@pytest.mark.parametrize("lam, bottom, top, delta", IDENTITY_PIECES)
def test_ideal_rows_equal_the_whole_word_rewrite(lam, bottom, top, delta):
    """Building each coset product psi_vb * x_1^gpow * psi_va once and shifting its bottom
    dots gives the rows of rewriting each whole coset word, read on columns: the same
    dicts, in the same order, with the same key order."""
    ctx = make_context(Partition(lam))
    got = [list(row.items()) for row in _ideal_row_gen(ctx, bottom, top, delta)]
    want = [
        list(as_columns(row, bottom, top, delta).items())
        for row in coset_word_rows(ctx, bottom, top, delta)
    ]
    assert got == want


def mid_dot_rows(ctx, bottom, top, delta, shift=True):
    """Reference rows with the free dots at the middle boundary: the unit rows, then
    psi_vb * x_1^gpow * x^comp * psi_va for each coset triple (mid, vb, va) and each comp
    that fills the degree, built by multiplying vb's crossings in under the canonical key
    ((comp_1 + gpow, comp_2, ...), va), so that the dots slide down through them.  With
    shift=False, a mutant of the generator that drops its bottom-dot shift: only the
    products that fill the degree with comp = 0."""
    m = len(bottom)
    cols = _basis_keys(bottom, top, delta)
    for key, col in cols.items():
        if key[0][0] >= ctx.weight[bottom[0] - 1]:
            yield {col: 1}
    for mid, vb, cdb in _coset_middles(bottom):
        gpow = ctx.weight[mid[0] - 1]
        for _, va, cda in _compatible_perms(mid, top):
            rem = delta - 2 * gpow - cda - cdb
            if rem < 0 or rem % 2 or (rem and not shift):
                continue
            for comp in _compositions(rem // 2, m):
                b, terms = mid, {((comp[0] + gpow,) + comp[1:], va): 1}
                for g in reversed(vb):
                    b, terms = klr._mult_gen(b, terms, "cross", g)
                if terms:
                    yield {cols[k]: c for k, c in terms.items()}


def exhausted_rows(rows):
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
    return ech.rows


# (lambda, strands): every same-content pair of label sequences on up to that many strands
SPAN_FAMILIES = [((1, 1, 0), 3), ((2, 0, 0), 3), ((3, 0), 4), ((2, 0), 4), ((2, 1, 0), 4),
                 ((3, 1, 0), 4), ((2, 1, 1, 0), 4), ((2, 2, 0), 4), ((1, 1, 0, 0), 4)]


def test_bottom_dot_rows_span_what_the_mid_level_dots_span():
    """The generator's rows, each coset product shifted by bottom dots, and the rows with
    the dots at the middle boundary give the same exhausted echelon (a reduced echelon
    form, so the same span) on every nonempty piece of the graded-symmetry range of every
    same-content pair of these families.  The mutant that drops the shift spans less on
    some of them."""
    pieces = mutant_misses = 0
    for lam, strands in SPAN_FAMILIES:
        ctx = make_context(Partition(lam))
        for e, e2 in _same_content_pairs(ctx.rank, strands, repeat=strands):
            dmin, dmax = _symmetry_range(ctx.weight, e, e2)
            for delta in range(dmin, dmax + 1):
                if not _basis_keys(e, e2, delta):
                    continue
                want = exhausted_rows(mid_dot_rows(ctx, e, e2, delta))
                got = exhausted_rows(_ideal_row_gen(ctx, e, e2, delta))
                assert got == want, (lam, e, e2, delta)
                pieces += 1
                mutant_misses += exhausted_rows(mid_dot_rows(ctx, e, e2, delta, False)) != want
    assert (pieces, mutant_misses) == (2_041, 643)


def brute_compatible_perms(bottom, top):
    """Reference: scan every permutation and keep those that carry each label to it."""
    m = len(bottom)
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        if any(top[perm[p] - 1] != bottom[p] for p in range(m)):
            continue
        cd = sum(
            _cross_contrib(bottom[p], bottom[q])
            for p, q in itertools.combinations(range(m), 2)
            if perm[p] > perm[q]
        )
        out.append((perm, klr._lexmin(perm), cd))
    return tuple(out)


def test_compatible_perms_match_a_scan_of_every_permutation():
    """Every (bottom, top) of up to four strands over labels 1-3, and of five strands
    over labels 1-2: the same tuples in the same order."""
    seqs = [s for m in range(5) for s in itertools.product((1, 2, 3), repeat=m)]
    pairs = [(b, t) for b in seqs for t in seqs if len(b) == len(t)]
    five = list(itertools.product((1, 2), repeat=5))
    pairs += itertools.product(five, five)
    found = 0
    for bottom, top in pairs:
        want = brute_compatible_perms(bottom, top)
        assert _compatible_perms(bottom, top) == want, (bottom, top)
        found += len(want)
    assert found == 5_968


def scanned_coset_middles(bottom):
    """Reference: the middles and permutations a scan over every permutation keeps, the
    strands that do not end at slot 1 in their order, identity included."""
    out = []
    for mid in sorted(set(itertools.permutations(bottom))):
        for perm, vb, cdb in brute_compatible_perms(bottom, mid):
            rest = [p for p in perm if p != 1]
            if rest == sorted(rest):
                out.append((mid, vb, cdb))
    return out


def test_coset_middles_match_the_scan_without_the_identity():
    for m in range(1, 6):
        for bottom in itertools.product((1, 2, 3), repeat=m):
            want = scanned_coset_middles(bottom)
            assert len(want) == m and want.count((bottom, (), 0)) == 1
            want = [entry for entry in want if entry[1]]
            assert list(_coset_middles(bottom)) == want, bottom


def identity_coset_rows(ctx, bottom, top, delta):
    """The rows of the identity coset, x_1^gpow * x^compa * psi_va over bottom, each
    rewritten whole by `canonical_terms`."""
    m = len(bottom)
    gpow = ctx.weight[bottom[0] - 1]
    for _, va, cda in _compatible_perms(bottom, top):
        rem = delta - 2 * gpow - cda
        if rem < 0 or rem % 2:
            continue
        for compa in _compositions(rem // 2, m):
            ops = [("dot", 1)] * gpow
            ops += [("dot", p + 1) for p in range(m) for _ in range(compa[p])]
            ops += [("cross", g) for g in va]
            _, terms = canonical_terms(KLRWord(ctx.rank, bottom, ops))
            yield terms


@pytest.mark.parametrize("lam, bottom, top, delta", IDENTITY_PIECES)
def test_identity_coset_rows_are_the_unit_rows(lam, bottom, top, delta):
    """The rows the generator leaves out are, as a set, the unit rows it yields first."""
    ctx = make_context(Partition(lam))
    dropped = [
        tuple(as_columns(row, bottom, top, delta).items())
        for row in identity_coset_rows(ctx, bottom, top, delta)
    ]
    units = [
        ((col, 1),)
        for key, col in _basis_keys(bottom, top, delta).items()
        if key[0][0] >= ctx.weight[bottom[0] - 1]
    ]
    got = [tuple(row.items()) for row in _ideal_row_gen(ctx, bottom, top, delta)]
    assert got[: len(units)] == units
    assert len(set(dropped)) == len(dropped) and set(dropped) == set(units)


def check_echelon_index(ech):
    """Each row is 1 at its pivot and 0 at every other pivot, and `cols` lists the row's
    pivot under each other key the row holds."""
    for pivot, row in ech.rows.items():
        assert row[pivot] == 1 and pivot == min(row)
        assert not any(k in row for k in ech.rows if k != pivot)
        assert all(pivot in ech.cols[k] for k in row if k != pivot)


def test_echelon_column_index_covers_every_row():
    """Seeded sparse rows with non-unit pivots, every fifth one a combination of two
    earlier rows."""
    rng = random.Random(17)
    ech = _Echelon()
    inserted = []
    for i in range(80):
        if i % 5 == 4:
            a, b = rng.sample(inserted, 2)
            vec = {k: a.get(k, 0) - 2 * b.get(k, 0) for k in set(a) | set(b)}
            assert ech.insert({k: v for k, v in vec.items() if v}) is None
        else:
            size = rng.randint(1, 6)
            vec = {rng.randrange(100): rng.choice((-2, -1, 1, 1, 1, 3)) for _ in range(size)}
            assert ech.insert(vec) in ech.rows
            inserted.append(vec)
        check_echelon_index(ech)
    assert ech.rank() == 64
    assert any(type(v) is Fraction for row in ech.rows.values() for v in row.values())
    assert not any(ech.reduce(vec) for vec in inserted)


def test_anchor_echelon_stays_in_ints():
    """The anchor's rows reach the same rank on any pivot order; on least-column pivots
    the echelon stores 1,445 entries (3,107 on largest-column pivots)."""
    ctx = make_context(Partition((3, 0)))
    red, status = cyc_reduce(idempotent(1, (1, 1, 1, 1)), ctx)
    assert red.is_zero() and status == EXACT
    ((_, state),) = ctx.states.items()
    ech = state["ech"]
    assert (state["fed"], ech.rank()) == (938, 580)
    assert sum(map(len, ech.rows.values())) == 1_445
    assert all(type(v) is int for row in ech.rows.values() for v in row.values())


def test_cleared_caches_recompute_the_same_answers():
    hw, u, w = (2, 1), (1, 2, 1, 2), (2, 1, 1, 2)
    gram = gram_entry(hw, u, w)
    caches = (
        _compositions,
        _compatible_perms,
        _coset_middles,
        _basis_keys,
        klr._lexmin,
        klr._nf_cross,
        uqmod._gram_entry,
    )
    for fn in caches:
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    ctx = make_context(Partition((3, 0)))
    red, status = cyc_reduce(idempotent(1, (1, 1, 1, 1)), ctx)
    assert red.is_zero() and status == EXACT
    ((_, state),) = ctx.states.items()
    assert (state["fed"], state["ech"].rank()) == (938, 580)
    poly, status = gdim_hom(u, w, make_context(Partition((3, 1, 0))))
    assert poly == gram and status == EXACT
    assert gram_entry(hw, u, w) == gram and not gram.is_zero()
    assert all(fn.cache_info().currsize for fn in caches)


def test_non_unit_pivot_row_is_stored_exactly():
    a, b, c = ((0,), (1,)), ((1,), ()), ((2,), ())
    ech = _Echelon()
    assert ech.insert({a: -1, c: 3}) == a
    assert ech.rows[a] == {a: 1, c: -3} and all(type(v) is int for v in ech.rows[a].values())
    assert ech.insert({b: 2, c: 3}) == b
    row = ech.rows[b]
    assert row == {b: 1, c: Fraction(3, 2)}
    assert type(row[b]) is int and type(row[c]) is Fraction
    assert ech.insert({b: 4, a: 2, c: 1}) == c
    assert ech.rows == {c: {c: 1}, b: {b: 1}, a: {a: 1}}
    assert all(type(v) is int for row in ech.rows.values() for v in row.values())


def largest_column_form(rows, vec):
    """Reference normal form of `vec` modulo the span of `rows`: a triangular echelon on
    largest-column pivots, and every vector reduced by clearing its pivots from the
    largest down.  The result lies on the columns that lead no row, the standard ones."""

    def reduce(v):
        v = dict(v)
        for pivot in sorted(echelon, reverse=True):
            c = v.get(pivot)
            if c:
                for k, a in echelon[pivot].items():
                    v[k] = v.get(k, 0) - c * a
        return {k: a for k, a in v.items() if a}

    echelon = {}
    for row in rows:
        r = reduce(row)
        if r:
            pivot = max(r)
            echelon[pivot] = {k: Fraction(a) / r[pivot] for k, a in r.items()}
    return reduce(vec)


DRY_PIECES = [((2, 1, 0), (1, 2, 1, 2), (1, 2, 2, 1), d) for d in range(-4, 5)] + [
    ((3, 0), (1, 1, 1), (1, 1, 1), d) for d in range(5)
]


def test_remainder_matches_the_largest_column_reference():
    """On every piece of (2,1,0) e(1,2,1,2)/e(1,2,2,1) at degrees -4..4 and of (3,0)
    e(1,1,1) at 0..4, random `Fraction` vectors reduce to the normal form of a largest-
    column echelon, although the piece's own echelon pivots on least columns.  Five of
    the pieces run dry (those of the other parity are empty, and degree 3 of the first
    pair is all ideal), and each of them needs a read-off that is not the identity."""
    rng = random.Random(29)
    dry = moved = 0
    for lam, bottom, top, delta in DRY_PIECES:
        ctx = make_context(Partition(lam))
        keys = tuple(_basis_keys(bottom, top, delta))
        if not keys:
            continue
        rows = list(_ideal_row_gen(ctx, bottom, top, delta))
        for _ in range(5):
            vec = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in keys}
            vec = {k: c for k, c in vec.items() if c}
            got = _reduce_vec(ctx, bottom, top, delta, vec)
            want = largest_column_form(rows, as_columns(vec, bottom, top, delta))
            assert got == {keys[col]: c for col, c in want.items()}, (lam, bottom, delta)
        state = ctx.states[(bottom, top, delta)]
        if state["source"].exhausted:
            dry += 1
            moved += any(f != {keys[n]: 1} for n, f in state["form"][1].items())
    assert (dry, moved) == (5, 5)


def test_kept_remainder_matches_a_fresh_reduction_after_every_row():
    ctx = make_context(Partition((2, 1, 0)))
    seq = (1, 2, 1, 2)
    rows = piece_rows(ctx, seq, 0)
    keys = tuple(_basis_keys(seq, seq, 0))
    vec = {k: Fraction(i % 3 + 1) for i, k in enumerate(keys)}
    moved = 0
    for n in range(len(rows) + 1):
        ctx = make_context(Partition((2, 1, 0)))
        ctx.sources[(seq, seq, 0)] = _RowSource(iter(rows[:n]))
        rem = _reduce_vec(ctx, seq, seq, 0, vec)
        fresh = largest_column_form(rows[:n], as_columns(vec, seq, seq, 0))
        fresh = {keys[col]: c for col, c in fresh.items()}
        assert rem == fresh and rem
        moved += fresh != vec
    assert moved


def _piece_work(ctx):
    """Each stored piece's rows generated, rows fed and echelon rank."""
    return {
        key: (len(ctx.sources[key].rows), state["fed"], state["ech"].rank())
        for key, state in ctx.states.items()
    }


def test_heaviest_hom_pair_does_the_same_work():
    """e(1,1,2,2) against e(1,2,1,2) at (2,0,0), the heaviest pair of the hom benchmark:
    the rows each odd piece generates and feeds and the rank they reach (the traced
    `cyclo.rows_generated`, `rows_fed` and `echelon_rank` are their sums).  The range is
    -3 ... 3 about d = 0, so only pieces -3 and -1 get an echelon; degrees 1, 3 and 5 are
    read off their mirrors (5 mirrors below the range, so it reads 0).  The reversed pair
    is swept in sorted order, so it gives the same answer off the same echelons: no new
    piece, and no row fed."""
    ctx = make_context(Partition((2, 0, 0)))
    poly, status = gdim_hom((1, 1, 2, 2), (1, 2, 1, 2), ctx)
    assert poly.to_pairs() == [[-3, 1], [-1, 3], [1, 3], [3, 1]] and status == EXACT
    forward = _piece_work(ctx)
    assert {key[2]: w for key, w in forward.items() if w[1]} == {-1: (3, 3, 3)}
    assert {key[2] for key in forward} == {-3, -1}
    back, back_status = gdim_hom((1, 2, 1, 2), (1, 1, 2, 2), ctx)
    assert back.to_pairs() == poly.to_pairs() and back_status == status
    assert _piece_work(ctx) == forward


def test_hom_family_sweeps_one_set_of_echelons_per_class_pair():
    """The `hom` benchmark family at (2,1,1,0) keeps 69 echelon states: 282 when each
    pair was swept as given, 126 when swept on its commutation-class representatives,
    and 69 now that (2,1,1,0), which is self-dual, also sweeps the lesser pair of each
    Dynkin-flip orbit.  (3,1,2,2) and (1,3,2,2) differ by a swap of the distant labels 1
    and 3, so once (1,3,2,2) against itself is swept, both mixed pairs give the same
    answer off the same echelons: no new piece, and no row fed.  The flip i -> 4 - i
    carries (3,2,1,1) to (1,2,3,3), so once (3,2,1,1) against itself is swept, so is
    (1,2,3,3) against itself."""
    ctx = make_context(Partition((2, 1, 1, 0)))
    for e, e2 in _same_content_pairs(ctx.rank):
        gdim_hom(e, e2, ctx)
    assert len(ctx.states) == 69

    ctx = make_context(Partition((2, 1, 1, 0)))
    want = (LaurentPoly({-2: 1, 0: 2, 2: 1}), EXACT)
    assert gdim_hom((1, 3, 2, 2), (1, 3, 2, 2), ctx) == want
    work = _piece_work(ctx)
    for e, e2 in [((3, 1, 2, 2), (1, 3, 2, 2)), ((1, 3, 2, 2), (3, 1, 2, 2))]:
        assert gdim_hom(e, e2, ctx) == want
        assert _piece_work(ctx) == work

    ctx = make_context(Partition((2, 1, 1, 0)))
    assert gdim_hom((3, 2, 1, 1), (3, 2, 1, 1), ctx) == want
    work = _piece_work(ctx)
    assert work
    assert gdim_hom((1, 2, 3, 3), (1, 2, 3, 3), ctx) == want
    assert _piece_work(ctx) == work


def test_pair_asked_again_is_one_lookup():
    """Once (3,2,1,2) against (3,1,2,2) is swept at (2,1,1,0), on its flip image
    ((1,2,3,2), (1,3,2,2)), the pair asked again, reversed, with (1,3,2,2) for its class
    member (3,1,2,2), flipped (i -> 4 - i), or as lists, gets the kept answer itself: no
    new piece, and no row fed."""
    ctx = make_context(Partition((2, 1, 1, 0)))
    e, e2 = (3, 2, 1, 2), (3, 1, 2, 2)
    assert _swept_pair(ctx.reps[e], ctx.reps[e2]) == ((1, 2, 3, 2), (1, 3, 2, 2))
    want = gdim_hom(e, e2, ctx)
    assert want == (LaurentPoly({-1: 1, 1: 1}), EXACT)
    work = _piece_work(ctx)
    assert work
    asked = [
        (e, e2),
        (e2, e),
        (e, (1, 3, 2, 2)),
        (_flip(3, e), _flip(3, e2)),
        (list(e2), list(e)),
    ]
    for a, b in asked:
        assert gdim_hom(a, b, ctx) is want, (a, b)
        assert _piece_work(ctx) == work


def test_pair_asked_first_as_lists_keeps_the_answer_for_the_tuples():
    """Lists are unhashable, so they skip the as-given lookup and are read as tuples; their
    answer, kept under the swept pair, is the one the tuples get afterwards."""
    e, e2 = (3, 2, 1, 2), (3, 1, 2, 2)
    ctx = make_context(Partition((2, 1, 1, 0)))
    want = gdim_hom(list(e), list(e2), ctx)
    assert want == (LaurentPoly({-1: 1, 1: 1}), EXACT)
    assert gdim_hom(e, e2, ctx) is want


@pytest.mark.parametrize(
    "lam, strands, repeat, count", [((2, 1, 1, 0), 4, 2, 648), ((2, 1, 0), 5, 5, 350)]
)
def test_shared_context_answers_each_pair_as_a_fresh_one(lam, strands, repeat, count):
    """Every ordered same-content pair, asked on one context in a seeded shuffled order,
    gets what it gets alone on a fresh context, status included: an answer does not
    depend on which sequences the context has already seen, kept records and swept
    pairs included.  (2,1,1,0) and (2,1,0) are self-dual, so the flip records are read
    too."""
    pairs = list(_same_content_pairs(len(lam) - 1, strands, repeat))
    alone = {pair: gdim_hom(*pair, make_context(Partition(lam))) for pair in pairs}
    random.Random(44).shuffle(pairs)
    ctx = make_context(Partition(lam))
    assert len(pairs) == count
    assert [pair for pair in pairs if gdim_hom(*pair, ctx) != alone[pair]] == []


def test_vanishing_piece_feeds_the_same_rows():
    """e(1,1,1) at (2,0) dies after 38 coset rows, at rank 27 of the 29-word piece."""
    ctx = make_context(Partition((2, 0)))
    red, _ = cyc_reduce(idempotent(1, (1, 1, 1)), ctx)
    assert red.is_zero()
    ((_, state),) = ctx.states.items()
    assert (state["fed"], state["ech"].rank()) == (38, 27)
