"""Module-level checks: forms, relation verification, branching."""

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest

import symbolic_relations
from klrlab import uqmod
from klrlab.combi import CartanA, Partition, weight_of_partition, weyl_dim
from klrlab.qint import (
    LaurentFrac,
    LaurentPoly,
    _evaluate,
    pivot_columns,
    quantum_integer,
    row_echelon_bareiss,
)
from klrlab.uqmod import (
    HighestWeightModule,
    _gram_entry,
    branching_character_check,
    build_irreducible,
    exhaustion_depth,
    gram_entry,
    monomial_weight,
    shapovalov_gram,
    verify_relations,
    weight_words,
)


def partitions_with(parts, max_size):
    out = []
    def grow(prefix, remaining, cap):
        if len(prefix) == parts:
            out.append(Partition(prefix))
            return
        for v in range(min(cap, remaining), -1, -1):
            grow(prefix + [v], remaining - v, v)
    for total in range(max_size + 1):
        grow([], total, total)
    return out


def test_highest_weight_vector_normalized():
    assert gram_entry((3, 1), (), ()) == LaurentPoly.one()


def test_single_step_pairings():
    for hw in [(1,), (2,), (3,), (1, 1), (2, 1), (0, 2, 1)]:
        for i in range(1, len(hw) + 1):
            got = gram_entry(hw, (i,), (i,))
            want = quantum_integer(hw[i - 1]).shift(hw[i - 1] - 1)
            assert got == want
            for j in range(1, len(hw) + 1):
                if j != i:
                    assert gram_entry(hw, (i,), (j,)).is_zero()


def test_weight_words_enumeration():
    assert weight_words((1, 1)) == [(1, 2), (2, 1)]
    assert weight_words((2, 0)) == [(1, 1)]
    assert weight_words((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert weight_words(()) == [()]


def test_monomial_weight():
    assert monomial_weight((1, 1), ()) == (1, 1)
    assert monomial_weight((1, 1), (1,)) == (-1, 2)
    assert monomial_weight((1, 1), (1, 2)) == (0, 0)


def test_monomial_weight_subtracts_cartan_columns():
    rng = random.Random(23)
    for rank in range(1, 6):
        cartan = CartanA(rank)
        for _ in range(40):
            hw = tuple(rng.randint(0, 4) for _ in range(rank))
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 8)))
            want = [x - sum(cartan.entry(j, i) for i in word) for j, x in enumerate(hw, 1)]
            assert monomial_weight(hw, word) == tuple(want), (hw, word)
        for bad in (0, rank + 1):
            with pytest.raises(ValueError):
                monomial_weight((1,) * rank, (1, bad))


def test_exhaustion_depth_examples():
    assert exhaustion_depth((2,)) == 2
    assert exhaustion_depth((1, 1)) == 4
    assert exhaustion_depth((2, 1)) == 6
    assert exhaustion_depth((0,)) == 0
    assert exhaustion_depth((1, 0, 1)) == 6


def test_sl2_string_dims():
    mod = build_irreducible((2,))
    assert mod.dim() == 3
    assert {wt: len(cols) for wt, cols in mod.weight_spaces.items()} == {
        (2,): 1, (0,): 1, (-2,): 1
    }
    assert mod.basis == ((), (1,), (1, 1))


def test_sl3_adjoint_dim():
    mod = build_irreducible((1, 1))
    assert mod.dim() == 8
    assert len(mod.weight_spaces[(0, 0)]) == 2


def test_dominance_required():
    try:
        build_irreducible((-1, 2))
        assert False
    except ValueError:
        pass


def test_dims_match_weyl_formula():
    sample = []
    for parts in (2, 3, 4):
        for lam in partitions_with(parts, 6):
            if lam[0] == 0:
                continue
            d = weyl_dim(lam)
            if d > 100:
                continue
            sample.append(weight_of_partition(lam).entries)
    seen = set()
    for hw in sample:
        if hw in seen:
            continue
        seen.add(hw)
        mod = build_irreducible(hw)
        lam = []
        acc = 0
        for x in reversed(hw):
            acc += x
            lam.append(acc)
        lam = list(reversed(lam)) + [0]
        assert mod.dim() == weyl_dim(Partition(lam)), hw


def test_gram_rank_equals_weight_multiplicity():
    for hw in [(2,), (3,), (1, 1), (2, 1)]:
        mod = build_irreducible(hw)
        rank = len(hw)
        for beta in itertools.product(range(3), repeat=rank):
            if sum(beta) == 0 or sum(beta) > 4:
                continue
            g = shapovalov_gram(hw, beta)
            assert g.entries == tuple(zip(*g.entries))
            wt = monomial_weight(hw, weight_words(beta)[0]) if g.labels else None
            mult = len(mod.weight_spaces.get(wt, []))
            assert g.rank() == mult, (hw, beta)


def test_gram_bar_symmetry_per_weight_space():
    for hw in [(2,), (3,), (1, 1)]:
        mod = build_irreducible(hw)
        for wt, idxs in mod.weight_spaces.items():
            g = mod.grams[wt]
            shift = None
            for row in g:
                for e in row:
                    if e.is_zero():
                        continue
                    s = e.min_exp() + e.max_exp()
                    if shift is None:
                        shift = s
                    assert e.bar().shift(shift) == e, (hw, wt)


def test_sl2_string_norms_match_the_closed_form():
    # <F^k v, F^k v> = q^{k(m-k)} [k]! [m][m-1]...[m-k+1] on the highest weight m
    # up to m = 29, the longest string of the benchmark's module family: read by
    # gram_entry, and as the 1 x 1 Gram matrix of root content (k,), whose LaurentPoly
    # entries are built from the memo's coefficient tuples on first access
    for m in range(30):
        prod = LaurentPoly.one()
        for k in range(m + 3):
            if k:
                prod = prod * quantum_integer(k) * quantum_integer(m - k + 1)
            want = prod.shift(k * (m - k)) if k <= m else LaurentPoly.zero()
            assert gram_entry((m,), (1,) * k, (1,) * k) == want, (m, k)
            g = shapovalov_gram((m,), (k,))
            assert g.rank() == (k <= m), (m, k)
            assert g.to_json()["entries"] == [[{"num": want.to_pairs(), "den": [[0, 1]]}]]
            assert g.entries == ((want,),) and g.entries is g.entries, (m, k)


def _ungrouped_gram(hw, u, w, memo):
    """The pairing recursion with one product per deleted letter, as a reference."""
    if len(u) != len(w) or sorted(u) != sorted(w):
        return LaurentPoly.zero()
    if not u:
        return LaurentPoly.one()
    if (u, w) not in memo:
        head, i = u[:-1], u[-1]
        total = LaurentPoly.zero()
        for t in range(len(w)):
            if w[t] == i:
                coeff = quantum_integer(monomial_weight(hw, w[:t])[i - 1])
                total = total + coeff * _ungrouped_gram(hw, head, w[:t] + w[t + 1 :], memo)
        memo[u, w] = total.shift(monomial_weight(hw, head)[i - 1] - 1)
    return memo[u, w]


def test_grouped_gram_matches_the_ungrouped_recursion():
    # every word pair of every weight space of (2,1), (1,0,1) and (4,); the 140-dimensional
    # (2,1,1) module is slow to build and has up to 90090 words of one weight, so there
    # every root content up to height 5
    cases = []
    for hw in [(2, 1), (1, 0, 1), (4,)]:
        mod = build_irreducible(hw)
        contents = {tuple(w.count(i) for i in range(1, len(hw) + 1)) for w in mod.basis}
        cases.append((hw, contents))
    cases.append(((2, 1, 1), [b for b in itertools.product(range(6), repeat=3) if sum(b) <= 5]))
    for hw, contents in cases:
        memo = {}
        for beta in contents:
            for u, w in itertools.product(weight_words(beta), repeat=2):
                assert gram_entry(hw, u, w) == _ungrouped_gram(hw, u, w, memo), (hw, u, w)


def _partition_of(hw):
    """The partition with a trailing zero part whose successive differences are hw."""
    parts = [0]
    for x in reversed(hw):
        parts.append(parts[-1] + x)
    return tuple(reversed(parts))


def _flip(hw, word):
    """The word under the diagram flip i -> n + 1 - i of A_n, n = len(hw)."""
    return tuple(len(hw) + 1 - i for i in word)


def _unit_inversions(w):
    """N(w): the places s < t with w_s = w_t + 1."""
    return sum(1 for s, t in itertools.combinations(range(len(w)), 2) if w[s] == w[t] + 1)


def test_gram_entry_is_symmetric_on_the_module_family():
    # the 69 dominant highest weights of rank 1-4 with Weyl dimension <= 30, and every
    # root content in the box [0, lambda_1] whose weight space has at most 12 words;
    # gram_entry memoizes one order of each pair, so the two orders are compared on the
    # recursion itself.  Each pair is also held to the ungrouped recursion at hw, and
    # flipped at the dual weight hw[::-1]: gram_entry reads one of the two off the
    # other's memo entry, the reference computes both.  The memo keeps each entry as
    # one coefficient list two degrees apart, which holds because the exponents of
    # <F_u v, F_w v> are f(u) + N(w) mod 2, N(w) = #{s < t : w_s = w_t + 1}: that is
    # read off the reference too
    family = [(m,) for m in range(30)]
    for rank in range(2, 5):
        for hw in itertools.product(range(8), repeat=rank):
            if weyl_dim(_partition_of(hw)) <= 30:
                family.append(hw)
    assert len(family) == 69
    pairs = 0
    memo = {}
    for hw in family:
        dual = hw[::-1]
        top = _partition_of(hw)[0]
        for beta in itertools.product(range(top + 1), repeat=len(hw)):
            words = weight_words(beta)
            if not any(beta) or len(words) > 12:
                continue
            parities = {u: set() for u in words}
            for u, w in itertools.product(words, repeat=2):
                lo, c = _gram_entry(hw, u, w)
                assert type(lo) is int and type(c) is tuple, (hw, u, w)
                assert _gram_entry(hw, u, w) == _gram_entry(hw, w, u), (hw, u, w)
                got = gram_entry(hw, u, w)
                assert got == gram_entry(hw, w, u), (hw, u, w)
                assert got == _ungrouped_gram(hw, u, w, memo.setdefault(hw, {})), (hw, u, w)
                fu, fw = _flip(hw, u), _flip(hw, w)
                want = _ungrouped_gram(dual, fu, fw, memo.setdefault(dual, {}))
                assert gram_entry(dual, fu, fw) == want == got, (hw, u, w)
                parities[u] |= {(e - _unit_inversions(w)) % 2 for e, _ in want.items()}
                pairs += 1
            assert all(len(p) <= 1 for p in parities.values()), (hw, beta)
    assert pairs == 19552


def test_the_dual_weight_reads_the_same_memo_entries():
    # V(hw) and V(hw[::-1]) share their memo entries through the diagram flip, in
    # either order of first use
    for hw, beta in [((2, 1), (2, 1)), ((1, 0, 2), (1, 2, 1)), ((3, 1, 0, 1), (1, 1, 1, 1))]:
        dual, rbeta = hw[::-1], beta[::-1]
        for first, second in [((hw, beta), (dual, rbeta)), ((dual, rbeta), (hw, beta))]:
            _gram_entry.cache_clear()
            g1 = shapovalov_gram(*first)
            misses = _gram_entry.cache_info().misses
            assert misses > 0
            g2 = shapovalov_gram(*second)
            assert _gram_entry.cache_info().misses == misses, (first, second)
            flipped = [_flip(hw, w) for w in g1.labels]
            index = {w: a for a, w in enumerate(g2.labels)}
            for (a, u), (b, w) in itertools.product(enumerate(flipped), repeat=2):
                assert g1.entries[a][b] == g2.entries[index[u]][index[w]], (first, u, w)


def test_gram_entry_rejects_letters_outside_the_rank():
    for u, w in [((0,), (0,)), ((3,), (3,)), ((1, 3), (3, 1)), ((1,), (0,)), ((1, 2), (2, -1))]:
        with pytest.raises(ValueError):
            gram_entry((2, 1), u, w)


def test_weight_words_are_the_sorted_distinct_permutations():
    count = 0
    for rank in range(1, 5):
        for beta in itertools.product(range(7), repeat=rank):
            if sum(beta) > 6:
                continue
            letters = [i for i, b in enumerate(beta, 1) for _ in range(b)]
            assert weight_words(beta) == sorted(set(itertools.permutations(letters))), beta
            count += 1
    assert count == 7 + 28 + 84 + 210
    for beta in [(-1,), (1, -2), (0, 0, -1)]:
        with pytest.raises(ValueError):
            weight_words(beta)


def test_shapovalov_gram_entries_are_the_form_in_both_triangles():
    for hw, top in [((2, 1), 3), ((1, 0, 1), 2), ((2, 1, 1), 2), ((3, 1, 0, 0), 1)]:
        for beta in itertools.product(range(top + 1), repeat=len(hw)):
            g = shapovalov_gram(hw, beta)
            assert g.labels == tuple(weight_words(beta))
            for (a, u), (b, w) in itertools.product(enumerate(g.labels), repeat=2):
                assert g.entries[a][b] == gram_entry(hw, u, w), (hw, u, w)


def test_build_grams_are_the_form_on_the_basis_words():
    for hw in [(2, 1), (1, 0, 1), (2, 1, 1), (3, 1, 0, 0)]:
        mod = build_irreducible(hw)
        assert mod.grams.keys() == mod.weight_spaces.keys()
        for wt, cols in mod.weight_spaces.items():
            words = [mod.basis[c] for c in cols]
            want = [[gram_entry(hw, u, w) for w in words] for u in words]
            assert mod.grams[wt] == want, (hw, wt)


def test_build_pairs_each_unordered_candidate_pair_once(monkeypatch):
    hw = (2, 1)
    calls = []
    depth = [0]

    def counted(*args):
        # only the memo reads of a Gram cell, not the recursion under them
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return _gram_entry(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(uqmod, "_gram_entry", counted)
    mod = build_irreducible(hw)
    # the candidates of a weight space are the words u + (i,), u a basis word of the
    # layer before; the last layer has no successor
    depth = exhaustion_depth(hw)
    cands = {}
    for u in mod.basis:
        if len(u) < depth:
            for i in range(1, len(hw) + 1):
                cands.setdefault(monomial_weight(hw, u + (i,)), set()).add(u + (i,))
    want = sum(len(c) * (len(c) + 1) // 2 for c in cands.values())
    assert want == 42  # the full squares would take 56
    assert len(calls) == want
    assert len(set(calls)) == want


# sha256 of the basis and the E/F records of build_irreducible, recorded before the
# polynomial fast path of LaurentFrac and the one-scan weights of gram_entry
EF_DIGESTS = {
    (29,): "0f7e3784f6db07687a3f0fc06e6955846eda04e0c9c1cce3efc01d4c0d82956d",
    (1, 0, 1): "3b8b5438c808e4651efe4499a70c9bcd58a1b5153342519b99c876cf2b387748",
    (2, 1, 1): "6b858b7fe9a77c2c7c50613046f4c9070e36c6c5a635c9f266b867a1e74c18f5",
}


def ef_sha256(mod):
    """sha256 of the basis and the E/F records, as perfbench's `module` workload hashes them."""
    mats = [
        [[v.to_record() for v in row] for row in side[i]]
        for side in (mod.e_mats, mod.f_mats)
        for i in sorted(side)
    ]
    doc = json.dumps([list(w) for w in mod.basis] + mats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def test_ef_matrices_match_recorded_digests():
    for hw, want in EF_DIGESTS.items():
        assert ef_sha256(build_irreducible(hw)) == want, hw


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_ef_matrices_match_every_benchmark_reference():
    # the `module` workload's reference digests: the first 16 hex digits of the same sha256
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["module"]
    assert len(refs) == 69
    for key, want in refs.items():
        hw = tuple(json.loads(key))
        assert ef_sha256(build_irreducible(hw))[:16] == want, hw


def test_f_of_a_basis_word_onto_a_basis_word_is_a_unit_column():
    # build_irreducible gives these images unit coordinates without solving
    for hw in [(2, 1), (1, 1, 1), (5,)]:
        mod = build_irreducible(hw)
        index = {w: idx for idx, w in enumerate(mod.basis)}
        seen = 0
        for col, u in enumerate(mod.basis):
            for i in range(1, mod.rank + 1):
                row = index.get(u + (i,))
                if row is None:
                    continue
                seen += 1
                column = [mod.f_mats[i][r][col] for r in range(mod.dim())]
                assert column[row] == LaurentFrac.one(), (hw, u, i)
                assert all(v.is_zero() for r, v in enumerate(column) if r != row), (hw, u, i)
        assert seen == mod.dim() - 1, hw


def test_verify_relations_good_modules():
    for hw in [(1,), (3,), (1, 1), (2, 1), (1, 0, 1)]:
        mod = build_irreducible(hw)
        assert verify_relations(mod), hw


def test_verify_relations_detects_mutation():
    mod = build_irreducible((1, 1))
    mod.e_mats[1][0][1] = mod.e_mats[1][0][1] + LaurentFrac.one()
    assert not verify_relations(mod)
    mod = build_irreducible((2,))
    mod.f_mats[1][2][1] = LaurentFrac.zero()
    assert not verify_relations(mod)
    # E_1 must raise the weight, so no nonzero entry may stay inside one weight space
    mod = build_irreducible((1, 1))
    r, c = mod.weight_spaces[(0, 0)]
    mod.e_mats[1][r][c] = LaurentFrac.one()
    assert not verify_relations(mod)
    # every single-entry +1 mutation of every E_i and F_i
    for hw in [(2,), (1, 1), (1, 0, 1)]:
        mod = build_irreducible(hw)
        for mats in (mod.e_mats, mod.f_mats):
            for i, mat in mats.items():
                for r, c in itertools.product(range(mod.dim()), repeat=2):
                    keep = mat[r][c]
                    mat[r][c] = keep + LaurentFrac.one()
                    assert not verify_relations(mod), (hw, i, r, c)
                    mat[r][c] = keep
        assert verify_relations(mod), hw


# the 69 weights of the `module` workload
MODULE_FAMILY = [
    tuple(json.loads(key)) for key in json.loads(REFERENCE.read_text(encoding="utf-8"))["module"]
]


def _mutations():
    """The entry mutations: zero it, add 1, q^40, 3q^-37, 2^70, 1/[3] or [2]/[5], or
    scale it by q^-1, q or q^2."""
    def plus(x):
        return lambda v: v + x

    def times(k):
        return lambda v: v * LaurentPoly({k: 1})

    return [
        lambda v: LaurentFrac.zero(),
        plus(LaurentFrac.one()),
        plus(LaurentFrac(LaurentPoly({40: 1}))),
        plus(LaurentFrac(LaurentPoly({-37: 3}))),
        plus(LaurentFrac(2**70)),
        plus(LaurentFrac(LaurentPoly.one(), quantum_integer(3))),
        plus(LaurentFrac(quantum_integer(2), quantum_integer(5))),
        times(-1),
        times(1),
        times(2),
    ]


def test_verify_relations_holds_on_the_module_family():
    assert len(MODULE_FAMILY) == 69
    for hw in MODULE_FAMILY:
        assert verify_relations(build_irreducible(hw)), hw


def _family_gram_betas(hw):
    """The root contents of the `module` benchmark's Gram ops at hw: at most 12 monomial
    words, and the gl weight inside the box [0, lambda_1]."""
    lam = _partition_of(hw)
    out = []
    for beta in itertools.product(range(lam[0] + 1), repeat=len(hw)):
        words = math.factorial(sum(beta)) // math.prod(map(math.factorial, beta))
        ext = (0,) + beta + (0,)
        gl = [lam[j] - ext[j + 1] + ext[j] for j in range(len(lam))]
        if any(beta) and words <= 12 and all(0 <= v <= lam[0] for v in gl):
            out.append(beta)
    return out


def test_pruned_pivots_match_the_unpruned_elimination():
    # pivot_columns drops zero and repeated rows and columns before it eliminates; it is
    # held to the elimination of the whole Gram at every Gram op of the `module`
    # benchmark and at the Grams of height <= 5 at (1,2,1), where many rows are zero or
    # repeat a row before them
    family = [shapovalov_gram(hw, beta) for hw in MODULE_FAMILY for beta in _family_gram_betas(hw)]
    small = [
        shapovalov_gram((1, 2, 1), beta)
        for beta in itertools.product(range(6), repeat=3)
        if 0 < sum(beta) <= 5
    ]
    assert (len(family), len(small)) == (737, 55)
    zero = repeated = 0
    for g in family:
        nonzero = [tuple(row) for row in g._rows if any(c for _, c in row)]
        zero += len(nonzero) < len(g._rows)
        repeated += len(set(nonzero)) < len(nonzero)
    assert (zero, repeated) == (190, 53)
    for g in family + small:
        assert pivot_columns(g._rows) == row_echelon_bareiss(_evaluate(g._rows)[0])[0], g


def test_verify_relations_agrees_with_the_symbolic_check_on_mutants():
    rng = random.Random("verify_relations mutants")
    modules = {hw: build_irreducible(hw) for hw in MODULE_FAMILY}
    mutations = _mutations()
    verdicts = []
    for _ in range(600):
        mod = modules[rng.choice(MODULE_FAMILY)]
        mats = rng.choice((mod.e_mats, mod.f_mats))
        mat = mats[rng.randint(1, mod.rank)]
        nonzero = [(r, c) for r, row in enumerate(mat) for c, v in enumerate(row) if v]
        if nonzero and rng.random() < 0.5:
            r, c = rng.choice(nonzero)
        else:
            r, c = rng.randrange(mod.dim()), rng.randrange(mod.dim())
        keep = mat[r][c]
        mat[r][c] = rng.choice(mutations)(keep)
        want = symbolic_relations.verify_relations(mod)
        assert verify_relations(mod) is want, (mod.hw, r, c, mat[r][c])
        verdicts.append(want)
        mat[r][c] = keep
    # both verdicts are well represented
    assert verdicts.count(False) >= 200 and verdicts.count(True) >= 100


def _cleared_module(mod):
    e = {i: uqmod._cleared(mod.e_mats[i]) for i in range(1, mod.rank + 1)}
    f = {i: uqmod._cleared(mod.f_mats[i]) for i in range(1, mod.rank + 1)}
    return e, f


def test_verify_relations_shift_floors_at_zero():
    # E_i -> q^m E_i and F_i -> q^-m F_i keeps every relation, and with m large every
    # entry of E has a positive exponent, so E needs no shift
    for hw in [(1,), (3,), (2, 1), (1, 0, 1), (1, 1, 0, 0)]:
        mod = build_irreducible(hw)
        for i in range(1, mod.rank + 1):
            for mats, k in ((mod.e_mats, 12), (mod.f_mats, -12)):
                mats[i] = [[v * LaurentPoly({k: 1}) for v in row] for row in mats[i]]
        e, f = _cleared_module(mod)
        rows = [row for _, cleared in e.values() for row in cleared.values()]
        assert min(p.min_exp() for row in rows for p in row.values()) > 0, hw
        shift_e, _, _ = uqmod._certificate(mod.weights, e, f)
        assert set(shift_e.values()) == {0}, hw
        assert verify_relations(mod) and symbolic_relations.verify_relations(mod), hw
        # without the compensating F the commutator fails
        mod.f_mats[1] = build_irreducible(hw).f_mats[1]
        assert not verify_relations(mod) and not symbolic_relations.verify_relations(mod), hw


def test_verify_relations_on_zero_matrices_and_rank_one():
    for hw in [(0,), (1,)]:
        mod = build_irreducible(hw)
        assert verify_relations(mod) and symbolic_relations.verify_relations(mod), hw
    zero = build_irreducible((0,))
    assert zero.dim() == 1 and not zero.e_mats[1][0][0] and not zero.f_mats[1][0][0]
    for hw in [(1,), (1, 1), (2, 0, 1)]:
        for side in ("e_mats", "f_mats"):
            mod = build_irreducible(hw)
            mats = getattr(mod, side)
            mats[1] = [[LaurentFrac.zero()] * mod.dim() for _ in range(mod.dim())]
            assert not verify_relations(mod) and not symbolic_relations.verify_relations(mod)


def _relation_sides(mod, e, f, shift_e, shift_f):
    """Both sides of every relation of `verify_relations`, cleared and shifted, as sparse
    LaurentPoly matrices."""
    span = range(1, mod.rank + 1)
    prod, ent = symbolic_relations.product, symbolic_relations.entries

    def shifted(rows, s):
        return {r: {c: p.shift(s) for c, p in row.items()} for r, row in rows.items()}

    ev = {i: shifted(e[i][1], shift_e[i]) for i in span}
    fv = {i: shifted(f[i][1], shift_f[i]) for i in span}
    for i in span:
        scale = e[i][0] * f[i][0]
        h = {
            r: {r: (scale * quantum_integer(wt[i - 1])).shift(shift_e[i] + shift_f[i])}
            for r, wt in enumerate(mod.weights)
        }
        for j in span:
            yield ent(prod(ev[i], fv[j])), ent(prod(fv[j], ev[i]), h if i == j else {})
    q, q2 = LaurentPoly({1: 1}), LaurentPoly({2: 1, 0: 1})
    for i in span:
        for j in span:
            for x, y in ((ev[i], ev[j]), (fv[i], fv[j])):
                if abs(i - j) >= 2:
                    yield ent(prod(x, y)), ent(prod(y, x))
                elif abs(i - j) == 1:
                    outer = ent(prod(x, prod(x, y)), prod(y, prod(x, x)))
                    middle = ent(prod(prod(x, y), x))
                    yield (
                        {key: v * q for key, v in outer.items()},
                        {key: v * q2 for key, v in middle.items()},
                    )


def test_certified_point_exceeds_every_relation_difference():
    # the l1 norm of each side bounds that of the difference, for the module and for a
    # mutant of it that breaks a relation
    rng = random.Random("certified point")
    mutations = _mutations()
    broken = 0
    for hw in MODULE_FAMILY:
        mod = build_irreducible(hw)
        for mutate in (False, True):
            if mutate:
                mat = mod.e_mats[rng.randint(1, mod.rank)]
                r, c = rng.randrange(mod.dim()), rng.randrange(mod.dim())
                mat[r][c] = rng.choice(mutations[1:7])(mat[r][c])
            e, f = _cleared_module(mod)
            shift_e, shift_f, k = uqmod._certificate(mod.weights, e, f)
            for lhs, rhs in _relation_sides(mod, e, f, shift_e, shift_f):
                for key in lhs.keys() | rhs.keys():
                    a, b = lhs.get(key, LaurentPoly.zero()), rhs.get(key, LaurentPoly.zero())
                    assert min(a.min_exp(), b.min_exp()) >= 0, (hw, key)
                    assert a.l1_norm() + b.l1_norm() < 2**k, (hw, mutate, key)
                    broken += a != b
    assert broken


def test_biadjointness_on_basis():
    # E is built from F and [E_i, F_i]; this ties it to the contravariant form
    for hw in [(2,), (1, 1), (2, 1), (1, 0, 1), (3, 1), (1, 1, 1)]:
        mod = build_irreducible(hw)

        def pair(r, c):
            if mod.weights[r] != mod.weights[c]:
                return LaurentFrac.zero()
            idxs = mod.weight_spaces[mod.weights[r]]
            return LaurentFrac(mod.grams[mod.weights[r]][idxs.index(r)][idxs.index(c)])

        dim = mod.dim()
        for i in range(1, mod.rank + 1):
            for r in range(dim):
                for c in range(dim):
                    lhs = LaurentFrac.zero()
                    for s in range(dim):
                        v = mod.f_mats[i][s][r]
                        if not v.is_zero():
                            lhs = lhs + v * pair(s, c)
                    rhs = LaurentFrac.zero()
                    for s in range(dim):
                        v = mod.e_mats[i][s][c]
                        if not v.is_zero():
                            rhs = rhs + v * pair(r, s)
                    rhs = rhs * LaurentPoly({mod.weights[r][i - 1] - 1: 1})
                    assert lhs == rhs, (hw, i, r, c)


def test_ef_entries_move_weight_by_a_simple_root():
    for hw in [(2, 1), (1, 0, 1)]:
        mod = build_irreducible(hw)
        cartan = CartanA(mod.rank)
        for i in range(1, mod.rank + 1):
            alpha = tuple(cartan.entry(j, i) for j in range(1, mod.rank + 1))
            for mats, sign in ((mod.e_mats, 1), (mod.f_mats, -1)):
                for r, c in itertools.product(range(mod.dim()), repeat=2):
                    if not mats[i][r][c].is_zero():
                        step = tuple(a - b for a, b in zip(mod.weights[r], mod.weights[c]))
                        assert step == tuple(sign * a for a in alpha), (hw, i, r, c)


def test_branching_character_examples():
    rep = branching_character_check(Partition((2, 1, 0)))
    assert rep == {"ok": True, "lhs": 8, "rhs": [2, 3, 1, 2]}
    rep = branching_character_check((1, 0, 0))
    assert rep == {"ok": True, "lhs": 3, "rhs": [2, 1]}
    rep = branching_character_check((1, 0))
    assert rep["ok"] and rep["lhs"] == 2 and rep["rhs"] == [1, 1]
    # a nonzero last part, and a rank-3 restriction
    rep = branching_character_check((2, 2, 1))
    assert rep == {"ok": True, "lhs": 3, "rhs": [1, 2]}
    rep = branching_character_check((3, 2, 1, 0))
    assert rep == {"ok": True, "lhs": 64, "rhs": [8, 15, 6, 15, 3, 6, 3, 8]}


def test_branching_character_family():
    rng = random.Random(7)
    fam = [lam for lam in partitions_with(3, 5) if weyl_dim(lam) <= 40]
    for lam in rng.sample(fam, 6):
        rep = branching_character_check(lam)
        assert rep["ok"], lam
        assert rep["lhs"] == sum(rep["rhs"])


def test_branching_check_builds_one_module(monkeypatch):
    calls = []

    def counted(hw):
        calls.append(hw)
        return build_irreducible(hw)

    monkeypatch.setattr(uqmod, "build_irreducible", counted)
    for lam in [(1, 0), (2, 1, 0), (2, 2, 1), (3, 2, 1, 0)]:
        calls.clear()
        assert branching_character_check(lam)["ok"], lam
        assert calls == [weight_of_partition(Partition(lam)).entries], lam


def test_branching_check_reads_the_e_action(monkeypatch):
    """With E_1 F_1 v = 0 at (2,1,0), F_1 v is one more sl_2 highest-weight vector, and
    its weight is no summand's; the weights alone do not change."""

    def broken(hw):
        mod = build_irreducible(hw)
        if mod.hw == (1, 1):
            mod.e_mats[1][0][mod.basis.index((1,))] = LaurentFrac.zero()
        return mod

    monkeypatch.setattr(uqmod, "build_irreducible", broken)
    rep = branching_character_check((2, 1, 0))
    assert rep == {"ok": False, "lhs": 8, "rhs": [2, 3, 1, 2]}


def test_module_repr_and_type():
    mod = build_irreducible((1,))
    assert isinstance(mod, HighestWeightModule)
    assert "dim=2" in repr(mod)
