import random

import pytest

import polyrep
from klrlab import klr
from klrlab.klr import (
    KLRElement,
    KLRWord,
    SpecialIdempotentSpec,
    decorate_regions,
    factor_general,
    idempotent,
    inv_r3,
    multiply,
    normal_form,
)


def random_word(rng, max_rank=3, max_strands=4, max_ops=6):
    n = rng.randint(1, max_rank)
    m = rng.randint(1, max_strands)
    bottom = tuple(rng.randint(1, n) for _ in range(m))
    ops = []
    for _ in range(rng.randint(0, max_ops)):
        if m > 1 and rng.random() < 0.7:
            ops.append(("cross", rng.randint(1, m - 1)))
        else:
            ops.append(("dot", rng.randint(1, m)))
    return KLRWord(n, bottom, ops)


def random_poly(rng, m, terms=3, deg=2):
    f = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(m))
        f[e] = f.get(e, 0) + rng.randint(-3, 3)
    return {e: c for e, c in f.items() if c}


def assert_elements_agree_in_oracle(x, y, rng):
    sx, fx = polyrep.act_element(x)
    sy, fy = polyrep.act_element(y)
    assert fx == fy and (sx == sy or not fx)
    m = len(x.bottom or y.bottom or ())
    if m:
        f0 = random_poly(rng, m)
        _, fx = polyrep.act_element(x, f0)
        _, fy = polyrep.act_element(y, f0)
        assert fx == fy


def test_word_validation():
    KLRWord(2, (1, 2), [("cross", 1), ("dot", 2)])
    with pytest.raises(ValueError):
        KLRWord(1, (1,), [("cross", 1)])
    with pytest.raises(ValueError):
        KLRWord(2, (1, 3), [])
    with pytest.raises(ValueError):
        KLRWord(2, (1, 2), [("dot", 3)])
    with pytest.raises(ValueError):
        KLRWord(2, (1, 2), [("twist", 1)])


def test_degree_of_generators():
    assert KLRWord(2, (1, 2), [("dot", 1)]).degree() == 2
    assert KLRWord(2, (1, 1), [("cross", 1)]).degree() == -2
    assert KLRWord(2, (1, 2), [("cross", 1)]).degree() == 1
    assert KLRWord(3, (1, 3), [("cross", 1)]).degree() == 0


def test_double_crossing_equal_labels_is_zero():
    w = KLRWord(2, (1, 1), [("cross", 1), ("cross", 1)])
    assert normal_form(w).is_zero()


def test_double_crossing_distant_labels_is_identity():
    w = KLRWord(3, (1, 3), [("cross", 1), ("cross", 1)])
    assert normal_form(w) == idempotent(3, (1, 3))


def test_double_crossing_adjacent_labels_opens_to_dots():
    for bottom in ((1, 2), (2, 1)):
        w = KLRWord(2, bottom, [("cross", 1), ("cross", 1)])
        want = KLRElement(
            2,
            {
                KLRWord(2, bottom, [("dot", 1)]): 1,
                KLRWord(2, bottom, [("dot", 2)]): 1,
            },
        )
        assert normal_form(w) == want


def test_dot_slide_relations():
    # psi_1 x_1 - x_2 psi_1 is the idempotent on equal labels, zero otherwise
    for bottom, want_one in (((1, 1), True), ((1, 2), False), ((1, 3), False)):
        a = KLRWord(2 if max(bottom) < 3 else 3, bottom, [("dot", 1), ("cross", 1)])
        b = KLRWord(a.rank, bottom, [("cross", 1), ("dot", 2)])
        dif = normal_form(KLRElement(a.rank, {a: 1, b: -1}))
        if want_one:
            assert dif == idempotent(a.rank, bottom)
        else:
            assert dif.is_zero()


def test_braid_difference():
    # [1,2,1] - [2,1,2] is the idempotent exactly when the outer labels match and
    # the middle is adjacent
    cases = [
        ((1, 2, 1), True),
        ((2, 1, 2), True),
        ((1, 3, 1), False),
        ((1, 2, 3), False),
        ((1, 1, 1), False),
        ((2, 3, 2), True),
    ]
    for bottom, want_one in cases:
        n = max(bottom)
        a = KLRWord(n, bottom, [("cross", 1), ("cross", 2), ("cross", 1)])
        b = KLRWord(n, bottom, [("cross", 2), ("cross", 1), ("cross", 2)])
        dif = normal_form(KLRElement(n, {a: 1, b: -1}))
        if want_one:
            assert dif == idempotent(n, bottom)
        else:
            assert dif.is_zero()


def test_normal_form_matches_polynomial_oracle():
    rng = random.Random(31)
    for _ in range(300):
        w = random_word(rng)
        nf = normal_form(w)
        x = KLRElement(w.rank, {w: 1})
        assert_elements_agree_in_oracle(x, nf, rng)


def random_canonical_terms(rng, m):
    """One to three canonical keys on m strands that share a random permutation (so they
    share a top), with dot exponents up to 5 and small nonzero coefficients."""
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    word = klr._lexmin(tuple(perm))
    return {
        (tuple(rng.randint(0, 5) for _ in range(m)), word): rng.choice((-2, -1, 1, 3))
        for _ in range(rng.randint(1, 3))
    }


def test_crossing_under_canonical_terms_matches_polynomial_oracle():
    """`_mult_gen` places one crossing under canonical terms with high dot powers, as the
    cyclotomic ideal rows do under x_1^gpow x^compa psi_va: 2-4 strands, and the two
    crossed labels equal, adjacent (either way round) or distant, 120 cases each."""
    rng = random.Random(36)
    rank = 4
    for case in range(360):
        m = rng.randint(2, 4)
        bottom = [rng.randint(1, rank) for _ in range(m)]
        p = rng.randint(1, m - 1)
        a = bottom[p - 1]
        if case % 3 == 0:
            bottom[p] = a
        elif case % 3 == 1:
            bottom[p] = rng.choice([b for b in (a - 1, a + 1) if 1 <= b <= rank])
        else:
            bottom[p] = rng.choice([b for b in range(1, rank + 1) if abs(b - a) >= 2])
        bottom = tuple(bottom)
        terms = random_canonical_terms(rng, m)
        b2, out = klr._mult_gen(bottom, terms, "cross", p)
        upper = klr.element_from_canonical(rank, bottom, terms)
        x = KLRElement(
            rank, {KLRWord(rank, b2, (("cross", p),) + w.ops): c for w, c in upper.terms.items()}
        )
        assert_elements_agree_in_oracle(x, klr.element_from_canonical(rank, b2, out), rng)


def test_normal_form_terms_are_canonical():
    rng = random.Random(32)
    for _ in range(200):
        w = random_word(rng)
        for term in normal_form(w).terms:
            dots = [op for op in term.ops if op[0] == "dot"]
            crossings = [op for op in term.ops if op[0] == "cross"]
            assert term.ops == tuple(dots) + tuple(crossings)
            v = tuple(p for _, p in crossings)
            pi = klr._perm_of(v, len(term.bottom))
            assert klr._inversions(pi) == len(v)
            assert klr._lexmin(pi) == v


def test_normal_form_preserves_degree():
    rng = random.Random(33)
    for _ in range(200):
        w = random_word(rng)
        d = w.degree()
        for term in normal_form(w).terms:
            assert term.degree() == d


def test_normal_form_idempotent_on_canonical_output():
    rng = random.Random(34)
    for _ in range(100):
        w = random_word(rng)
        nf = normal_form(w)
        assert normal_form(nf) == nf


def test_confluence_random_split_orders():
    rng = random.Random(35)
    for _ in range(200):
        w = random_word(rng)
        cut = rng.randint(0, len(w.ops))
        lower = KLRWord(w.rank, w.bottom, w.ops[:cut])
        upper = KLRWord(w.rank, lower.top(), w.ops[cut:])
        assert multiply(upper, lower) == normal_form(w)


def test_multiply_associativity():
    rng = random.Random(36)
    for _ in range(100):
        c = random_word(rng, max_ops=4)

        def rand_ops(m):
            ops = []
            for _ in range(rng.randint(0, 4)):
                if m > 1 and rng.random() < 0.7:
                    ops.append(("cross", rng.randint(1, m - 1)))
                else:
                    ops.append(("dot", rng.randint(1, m)))
            return ops

        m = len(c.bottom)
        b = KLRWord(c.rank, c.top(), rand_ops(m))
        a = KLRWord(c.rank, b.top(), rand_ops(m))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left == right


def test_multiply_boundary_mismatch_is_zero():
    a = KLRWord(2, (1, 2))
    b = KLRWord(2, (2, 2))
    assert multiply(a, b).is_zero()
    assert multiply(KLRElement(2, {}), KLRElement(2, {a: 1})).is_zero()


def test_multiply_adds_degrees():
    rng = random.Random(37)
    for _ in range(100):
        b = random_word(rng, max_ops=4)
        m = len(b.bottom)
        ops = []
        for _ in range(rng.randint(0, 3)):
            if m > 1 and rng.random() < 0.7:
                ops.append(("cross", rng.randint(1, m - 1)))
            else:
                ops.append(("dot", rng.randint(1, m)))
        a = KLRWord(b.rank, b.top(), ops)
        prod = multiply(a, b)
        if prod.is_zero():
            continue
        want = a.degree() + b.degree()
        for term in prod.terms:
            assert term.degree() == want


def test_rewrite_budget():
    rng = random.Random(38)
    for _ in range(50):
        w = random_word(rng)
        before = klr.rewrite_step_count()
        normal_form(w)
        used = klr.rewrite_step_count() - before
        assert used <= 100 * (len(w.ops) + len(w.bottom)) ** 4


def test_rewrite_steps_are_the_nf_cross_misses():
    klr._nf_cross.cache_clear()
    w = KLRWord(2, (1, 2, 1, 2), [("cross", p) for p in (2, 1, 3, 2, 1, 2, 3, 2)])
    normal_form(w)
    steps = klr.rewrite_step_count()
    assert steps == klr._nf_cross.cache_info().misses > 0
    normal_form(w)
    assert klr.rewrite_step_count() == steps


def test_inv_r3_all_triples_ranks_2_to_4():
    x, d = "cross", "dot"
    left_words = (
        (((x, 1), (x, 2), (x, 2), (x, 1), (d, 2)), 1),
        (((d, 1), (x, 1), (x, 2), (x, 2), (x, 1)), -1),
    )
    right_words = (
        (((x, 2), (x, 1), (x, 1), (x, 2), (d, 2)), 1),
        (((d, 3), (x, 2), (x, 1), (x, 1), (x, 2)), -1),
    )
    checked = 0
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            for j in (i - 1, i + 1):
                if not 1 <= j <= n:
                    continue
                for labels, words in (((i, i, j), left_words), ((j, i, i), right_words)):
                    lhs, rhs = inv_r3(labels, n)
                    assert list(rhs.terms.items()) == [
                        (KLRWord(n, labels, ops), c) for ops, c in words
                    ]
                    assert normal_form(lhs) == normal_form(rhs) == idempotent(n, labels)
                    assert all(w.degree() == 0 for w in rhs.terms)
                    checked += 1
    assert checked == 2 * (2 + 4 + 6)


def test_inv_r3_rejects_bad_layouts():
    with pytest.raises(ValueError):
        inv_r3((1, 1, 3))
    with pytest.raises(ValueError):
        inv_r3((1, 2, 3))
    with pytest.raises(ValueError):
        inv_r3((2, 2, 2))


def reconstruct(terms, rank):
    total = KLRElement(rank, {})
    for coeff, left, spec, right in terms:
        prod = multiply(multiply(left, idempotent(rank, spec.bottom())), right)
        total = total + prod.scaled(coeff)
    return total


def test_factor_one_strand_adjacent_double_example():
    for n in (2, 3):
        seq = (n - 1, n - 1, n)
        terms = factor_general(seq, 1, n)
        assert len(terms) == 2
        for coeff, left, spec, right in terms:
            assert spec.xi == (n - 1,)
            assert spec.tail == (n - 1,)
            assert left.bottom == spec.bottom()
            assert left.top() == seq
            assert right.bottom == seq
            assert right.top() == spec.bottom()
        assert reconstruct(terms, n) == normal_form(idempotent(n, seq))


def test_factor_one_strand_random_reconstruction():
    rng = random.Random(39)
    done = 0
    while done < 40:
        n = rng.randint(2, 3)
        m = rng.randint(1, 4)
        seq = tuple(rng.randint(1, n) for _ in range(m))
        if n not in seq:
            continue
        terms = factor_general(seq, 1, n)
        assert reconstruct(terms, n) == normal_form(idempotent(n, seq))
        for _, left, spec, right in terms:
            assert len(spec.xi) == 1
        done += 1


def test_factor_general_zero_blocks_is_identity():
    terms = factor_general((1, 2, 1), 0, 2)
    assert len(terms) == 1
    coeff, left, spec, right = terms[0]
    assert coeff == 1 and spec.xi == () and spec.tail == (1, 2, 1)
    assert left.ops == () and right.ops == ()


def test_factor_general_requires_enough_top_strands():
    with pytest.raises(ValueError):
        factor_general((1, 1), 1, 2)
    with pytest.raises(ValueError):
        factor_general((2, 1), 2, 2)


def test_factor_general_sorted_blocks_and_reconstruction():
    rng = random.Random(40)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        m = rng.randint(2, 5)
        seq = tuple(rng.randint(1, n) for _ in range(m))
        k = rng.randint(1, 2)
        if seq.count(n) < k:
            continue
        terms = factor_general(seq, k, n)
        for _, left, spec, right in terms:
            assert len(spec.xi) == k
            assert all(spec.xi[t] <= spec.xi[t + 1] for t in range(k - 1))
            assert left.bottom == spec.bottom() and left.top() == seq
            assert right.bottom == seq and right.top() == spec.bottom()
        assert reconstruct(terms, n) == normal_form(idempotent(n, seq))
        done += 1


def test_decorate_regions_example():
    rightmost, flags = decorate_regions((1, 1), (1, 0, 0))
    assert rightmost.entries == (-1, 2, 0)
    assert flags == (True, False, False)
    rightmost, flags = decorate_regions((2, 1), (2, 1, 0))
    assert rightmost.entries == (1, 1, 1)
    assert flags == (False, False, False)
    with pytest.raises(ValueError):
        decorate_regions((3,), (1, 0, 0))
    for seq in [(0,), (1, 0), (-1,)]:
        with pytest.raises(ValueError):
            decorate_regions(seq, (2, 1, 1))


def test_json_roundtrips():
    w = KLRWord(2, (1, 2), [("cross", 1), ("dot", 2)])
    assert KLRWord.from_json(w.to_json()) == w
    e = KLRElement(2, {w: 3, KLRWord(2, (1, 2), [("dot", 1), ("cross", 1)]): -1})
    assert KLRElement.from_json(e.to_json()) == e
    # rank 0 is the one-part quotient's; a negative rank is no rank at all
    assert KLRElement.from_json({"rank": 0, "terms": []}) == KLRElement(0)
    with pytest.raises(ValueError):
        KLRElement.from_json({"rank": -3, "terms": []})
    spec = SpecialIdempotentSpec(3, (1, 2), (1, 1))
    assert spec.bottom() == (1, 2, 3, 2, 3, 1, 1)


def test_special_idempotent_spec_validation():
    SpecialIdempotentSpec(2, (3,), ())  # start n+1 gives an empty block
    assert SpecialIdempotentSpec(2, (3,), ()).bottom() == ()
    with pytest.raises(ValueError):
        SpecialIdempotentSpec(2, (2, 1), ())
    with pytest.raises(ValueError):
        SpecialIdempotentSpec(2, (4,), ())
    with pytest.raises(ValueError):
        SpecialIdempotentSpec(2, (1,), (3,))
