"""Batch verification: the eleven desk-scale checks behind `suite acceptance`."""

import itertools
import math
import random
import time

from .combi import (
    Partition,
    enumerate_gt_patterns,
    interlacing_set,
    schur_weights,
    weight_of_partition,
    weyl_dim,
)
from .cyclo import (
    EXACT,
    append_free_strand,
    branch_context,
    cyc_reduce,
    gdim_hom,
    gt_orthogonality_check,
    make_context,
    pi_project,
    sl2_vanishing_check,
    weyl_vanishing_check,
)
from .klr import (
    KLRElement,
    KLRWord,
    SpecialIdempotentSpec,
    factor_general,
    idempotent,
    inv_r3,
    multiply,
    normal_form,
)
from .uqmod import (
    branching_character_check,
    build_irreducible,
    gram_entry,
    verify_relations,
    weight_words,
)


def _random_ops(rng, m, max_ops, p_cross):
    """Up to max_ops random dots and crossings on m strands; each op is a crossing with
    probability p_cross, but one strand draws no coin and takes only dots."""
    ops = []
    for _ in range(rng.randrange(max_ops + 1)):
        if m > 1 and rng.random() < p_cross:
            ops.append(("cross", rng.randrange(1, m)))
        else:
            ops.append(("dot", rng.randrange(1, m + 1)))
    return ops


def _random_word(rng, max_ops=6):
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    bottom = tuple(rng.randint(1, n) for _ in range(m))
    return KLRWord(n, bottom, _random_ops(rng, m, max_ops, 0.7))


def _small_partitions(parts):
    """The partitions with the given number of parts and at most 6 boxes."""
    for d in range(7):
        for w in schur_weights(parts, d, dominant_only=True):
            yield Partition(w)


def check_branching_dimension_sums():
    """The Weyl dimensions of the interlacing family sum to lam's, and where lam's Weyl
    dimension is at most 20 the module check reads the same family off V(lam)."""
    count = modules = 0
    for parts in (3, 4):
        for lam in _small_partitions(parts):
            total = sum(weyl_dim(mu) for mu in interlacing_set(lam, "all"))
            if total != weyl_dim(lam):
                return False, f"sum mismatch at {tuple(lam)}"
            count += 1
            if weyl_dim(lam) <= 20:
                if not branching_character_check(lam)["ok"]:
                    return False, f"module check fails at {tuple(lam)}"
                modules += 1
    return True, f"{count} partitions, {modules} read off their modules"


def check_gt_pattern_counts():
    if len(enumerate_gt_patterns(Partition((2, 1, 0)))) != 8:
        return False, "(2,1,0) does not have 8 patterns"
    count = 0
    for parts in (3, 4):
        for lam in _small_partitions(parts):
            if len(enumerate_gt_patterns(lam)) != weyl_dim(lam):
                return False, f"count mismatch at {tuple(lam)}"
            count += 1
    return True, f"{count} partitions"


def check_module_relations():
    """Every V(hw) of rank 1-4 and Weyl dimension <= 30 satisfies the relations and has
    Weyl's dimension."""
    jobs = []
    for rank in range(1, 5):
        # the dimension grows with each entry, and V(a w_i) is at least as large as
        # V(a w_1), the a-th symmetric power of dimension C(a + rank, rank)
        top = max(a for a in range(30) if math.comb(a + rank, rank) <= 30)
        for hw in itertools.product(range(top + 1), repeat=rank):
            lam = Partition([sum(hw[j:]) for j in range(rank)] + [0])
            if weyl_dim(lam) <= 30:
                jobs.append((hw, lam))
    for hw, lam in jobs:
        module = build_irreducible(hw)
        if not verify_relations(module):
            return False, f"relations fail at {hw}"
        if module.dim() != weyl_dim(lam):
            return False, f"dimension mismatch at {hw}"
    return True, f"{len(jobs)} modules"


def check_rewriting_confluence():
    rng = random.Random(41)
    for _ in range(200):
        w = _random_word(rng)
        cut = rng.randint(0, len(w.ops))
        lower = KLRWord(w.rank, w.bottom, w.ops[:cut])
        upper = KLRWord(w.rank, lower.top(), w.ops[cut:])
        if multiply(upper, lower) != normal_form(w):
            return False, f"split orders disagree on {w!r}"
    for _ in range(100):
        c = _random_word(rng, max_ops=4)
        m = len(c.bottom)
        b = KLRWord(c.rank, c.top(), _random_ops(rng, m, 4, 0.7))
        a = KLRWord(c.rank, b.top(), _random_ops(rng, m, 4, 0.7))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            return False, "association orders disagree"
    return True, "200 words, 100 triples"


def check_crossing_inverse_identity():
    checked = 0
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in (i - 1, i + 1):
                if not 1 <= j <= n:
                    continue
                for labels in ((i, i, j), (j, i, i)):
                    lhs, rhs = inv_r3(labels, n)
                    if normal_form(lhs) != normal_form(rhs):
                        return False, f"identity fails at {labels} in rank {n}"
                    if normal_form(lhs) != idempotent(n, labels):
                        return False, f"left side is not the idempotent at {labels}"
                    checked += 1
    return True, f"{checked} triples over ranks 2-4"


def check_factorization_roundtrip():
    rng = random.Random(42)
    n = 3
    for trial in range(100):
        m = rng.randint(1, 5)
        seq = tuple(rng.randint(1, n) for _ in range(m))
        k = min(seq.count(n), rng.randint(0, 2))
        acc = KLRElement(n, {})
        for coeff, left, spec, right in factor_general(seq, k, n):
            if tuple(spec.xi) != tuple(sorted(spec.xi)):
                return False, f"through blocks out of order for {seq}"
            mid = idempotent(n, spec.bottom())
            acc = acc + multiply(KLRElement(n, {left: coeff}), multiply(mid, right))
        if normal_form(acc) != idempotent(n, seq):
            return False, f"reconstruction failed for {seq} with k={k}"
    return True, "100 factorizations"


def check_gdim_matches_bilinear_form():
    sl2_betas = [(m,) for m in range(4)]
    sl3_betas = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    jobs = [((m, 0), sl2_betas) for m in (1, 2, 3)]
    jobs += [((1, 0, 0), sl3_betas), ((1, 1, 0), sl3_betas)]
    pairs = 0
    for lam_parts, betas in jobs:
        lam = Partition(lam_parts)
        ctx = make_context(lam)
        hw = weight_of_partition(lam).entries
        for beta in betas:
            words = weight_words(beta)
            for u in words:
                for w in words:
                    poly, status = gdim_hom(u, w, ctx)
                    if status != EXACT:
                        return False, f"capped at {lam_parts} {u} {w}"
                    if poly != gram_entry(hw, u, w):
                        return False, f"values differ at {lam_parts} {u} {w}"
                    pairs += 1
    return True, f"{pairs} Hom pairs against the form"


def check_one_row_vanishing():
    for lam1 in (0, 1, 2, 3):
        if not sl2_vanishing_check(lam1):
            return False, f"vanishing fails at {lam1}"
        ctx = make_context(Partition((lam1, 0)))
        red, status = cyc_reduce(idempotent(1, (1,) * lam1), ctx)
        if red.is_zero() or status != EXACT:
            return False, f"nonzero certificate fails at {lam1}"
    return True, "weights 0-3 with nonzero certificates"


def _random_endo_word(rng, rank, bottom):
    while True:
        w = KLRWord(rank, bottom, _random_ops(rng, len(bottom), 5, 0.6))
        if w.top() == bottom:
            return w


def _zero_mod(x, ctx):
    if x.is_zero():
        return True
    red, status = cyc_reduce(x, ctx)
    return red.is_zero() and status == EXACT


def _same_mod(a, b, ctx):
    if a.is_zero() or b.is_zero():
        return _zero_mod(b if a.is_zero() else a, ctx)
    return _zero_mod(a - b, ctx)


def check_projection_checks():
    ctx = make_context(Partition((2, 1, 0)))
    for xi, tail in [((1,), (1,)), ((2,), (1, 1))]:
        tctx = branch_context(ctx, xi)
        block = SpecialIdempotentSpec(2, xi).bottom()
        blen = len(block)
        bot = block + tail
        gens = [KLRWord(1, tail)]
        gens += [KLRWord(1, tail, (("dot", p),)) for p in range(1, len(tail) + 1)]
        gens += [KLRWord(1, tail, (("cross", p),)) for p in range(1, len(tail))]
        for gen in gens:
            lifted = KLRWord(2, bot, tuple((k, p + blen) for k, p in gen.ops))
            got = pi_project(lifted, xi, ctx)
            want, _ = cyc_reduce(KLRElement(1, {gen: 1}), tctx)
            if not _same_mod(got, want, tctx):
                return False, f"generator preimage fails for {gen!r} over {xi}"
    tctx = branch_context(ctx, (2,))
    bot = SpecialIdempotentSpec(2, (2,), (1, 1)).bottom()
    rng = random.Random(43)
    for _ in range(50):
        g = _random_endo_word(rng, 2, bot)
        h = _random_endo_word(rng, 2, bot)
        gh = multiply(KLRElement(2, {g: 1}), KLRElement(2, {h: 1}))
        lhs = pi_project(gh, (2,), ctx) if not gh.is_zero() else KLRElement(1, {})
        pg = pi_project(g, (2,), ctx)
        ph = pi_project(h, (2,), ctx)
        if pg.is_zero() or ph.is_zero():
            rhs = KLRElement(1, {})
        else:
            rhs = multiply(pg, ph)
        if not _same_mod(lhs, rhs, tctx):
            return False, "projection is not multiplicative"
    bot = SpecialIdempotentSpec(2, (2,), (1,)).bottom()
    for _ in range(50):
        g = KLRElement(2, {_random_endo_word(rng, 2, bot): 1})
        lhs = pi_project(append_free_strand(g, 1), (2,), ctx)
        inner = pi_project(g, (2,), ctx)
        rhs = append_free_strand(inner, 1) if not inner.is_zero() else KLRElement(1, {})
        if not _same_mod(lhs, rhs, tctx):
            return False, "projection does not commute with strand appension"
    return True, "preimages, 50 products, 50 strand commutations"


def check_pattern_orthogonality():
    for parts in ((1, 0), (2, 0), (1, 1, 0), (2, 1, 0)):
        if not gt_orthogonality_check(Partition(parts)):
            return False, f"orthogonality fails at {parts}"
    return True, "4 partitions"


def check_region_weight_vanishing():
    count = 0
    for parts in ((1, 0), (1, 0, 0), (1, 1, 0)):
        lam = Partition(parts)
        ctx = make_context(lam)
        seqs = [()]
        for m in (1, 2, 3):
            seqs += list(itertools.product(range(1, ctx.rank + 1), repeat=m))
        for seq in seqs:
            if not weyl_vanishing_check(seq, ctx):
                return False, f"vanishing fails at {parts} for {seq}"
            count += 1
    return True, f"{count} idempotents"


CRITERIA = [
    ("branching dimension sums", 1.0, check_branching_dimension_sums),
    ("pattern counts match module dimensions", 1.0, check_gt_pattern_counts),
    ("quantum module relations", 30.0, check_module_relations),
    ("rewriting confluence and associativity", 60.0, check_rewriting_confluence),
    ("crossing inverse identity", 1.0, check_crossing_inverse_identity),
    ("idempotent factorization roundtrip", 120.0, check_factorization_roundtrip),
    ("graded dimensions match the bilinear form", 300.0, check_gdim_matches_bilinear_form),
    ("one-row vanishing", 60.0, check_one_row_vanishing),
    ("projection to the smaller quotient", 120.0, check_projection_checks),
    ("pattern idempotent orthogonality", 300.0, check_pattern_orthogonality),
    ("region weight vanishing", 120.0, check_region_weight_vanishing),
]


def run_criterion(index):
    """Run one numbered criterion; the result records both outcome and timing."""
    name, budget, func = CRITERIA[index - 1]
    start = time.perf_counter()
    ok, detail = func()
    elapsed = time.perf_counter() - start
    if ok and elapsed > budget:
        ok = False
        detail = f"{detail}; over the {budget}s budget"
    return {
        "criterion": index,
        "name": name,
        "ok": bool(ok),
        "seconds": round(elapsed, 3),
        "budget": budget,
        "detail": detail,
    }


def format_result(result):
    verdict = "PASS" if result["ok"] else "FAIL"
    return (
        f"criterion {result['criterion']:2d} {result['name']}: "
        f"{verdict} ({result['seconds']}s; {result['detail']})"
    )


def run_suite(stream=None):
    results = []
    for index in range(1, len(CRITERIA) + 1):
        result = run_criterion(index)
        if stream is not None:
            print(format_result(result), file=stream)
        results.append(result)
    return results
