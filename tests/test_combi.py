import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klrlab.combi import (
    CartanA,
    GlWeight,
    GTPattern,
    Partition,
    SlWeight,
    XiSequence,
    enumerate_dominant,
    enumerate_gt_patterns,
    gt_weight,
    interlacing_set,
    schur_weights,
    weight_of_partition,
    weyl_dim,
    xi_apply,
)


def partitions_with(parts, max_size):
    """All partitions with exactly `parts` parts (trailing zeros allowed) and size <= max_size."""
    out = []

    def grow(prefix, left):
        if len(prefix) == parts:
            out.append(Partition(prefix))
            return
        hi = prefix[-1] if prefix else left
        for v in range(min(hi, left), -1, -1):
            grow(prefix + [v], left - v)

    grow([], max_size)
    return out


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def schur_value(lam, xs):
    """Bialternant ratio of alternants, evaluated at distinct numbers xs."""
    n = len(xs)
    num = [[Fraction(xs[i]) ** (lam[j] + n - 1 - j) for j in range(n)] for i in range(n)]
    den = [[Fraction(xs[i]) ** (n - 1 - j) for j in range(n)] for i in range(n)]
    return det(num) / det(den)


def test_partition_validation():
    assert Partition((2, 1, 0)).parts == (2, 1, 0)
    assert Partition((2, 1, 0)) != Partition((2, 1))
    assert Partition((2, 1, 0)).part_count == 3
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_weight_of_partition():
    assert weight_of_partition(Partition((2, 1, 0))) == SlWeight((1, 1))
    assert weight_of_partition(Partition((3, 3, 1))) == SlWeight((0, 2))
    with pytest.raises(ValueError):
        weight_of_partition(Partition((4,)))


def test_interlacing_set_examples():
    got = interlacing_set(Partition((2, 1, 0)), "all")
    assert [m.parts for m in got] == [(2, 1), (2, 0), (1, 1), (1, 0)]
    assert interlacing_set(Partition((2, 1, 0)), 3) == []
    assert [m.parts for m in interlacing_set(Partition((2, 1, 0)), 1)] == [(2, 0), (1, 1)]
    with pytest.raises(ValueError):
        interlacing_set(Partition((2, 1, 0)), -1)


def test_interlacing_set_is_multiplicity_free_and_ordered():
    for lam in partitions_with(4, 6):
        got = interlacing_set(lam, "all")
        assert len(set(got)) == len(got)
        assert [m.parts for m in got] == sorted((m.parts for m in got), reverse=True)


def test_branching_dimension_sum():
    for parts in (3, 4):
        for lam in partitions_with(parts, 6):
            total = sum(weyl_dim(mu) for mu in interlacing_set(lam, "all"))
            assert total == weyl_dim(lam), lam


@st.composite
def small_partitions(draw, min_parts=2, max_parts=4, max_first=5):
    count = draw(st.integers(min_value=min_parts, max_value=max_parts))
    parts = []
    bound = max_first
    for _ in range(count):
        v = draw(st.integers(min_value=0, max_value=bound))
        parts.append(v)
        bound = v
    return Partition(tuple(parts))


@given(small_partitions())
def test_interlacing_members_interlace(lam):
    for mu in interlacing_set(lam, "all"):
        assert mu.part_count == lam.part_count - 1
        for i in range(mu.part_count):
            assert lam[i + 1] <= mu[i] <= lam[i]


@given(small_partitions())
def test_branching_dimension_sum_hypothesis(lam):
    total = sum(weyl_dim(mu) for mu in interlacing_set(lam, "all"))
    assert total == weyl_dim(lam)


@given(small_partitions())
def test_gt_pattern_count_hypothesis(lam):
    assert len(enumerate_gt_patterns(lam)) == weyl_dim(lam)


def test_xi_apply_partition():
    lam = Partition((2, 1, 0))
    assert xi_apply(XiSequence((1,)), lam) == Partition((1, 1, 0))
    assert xi_apply(XiSequence((1, 2)), lam) == Partition((1, 0, 0))
    with pytest.raises(ValueError):
        xi_apply(XiSequence((1, 1)), lam)
    with pytest.raises(ValueError):
        xi_apply(XiSequence((4,)), lam)
    assert XiSequence((1, 2)).is_dominant(lam)
    assert not XiSequence((1, 1)).is_dominant(lam)


def test_xi_dominant_iff_columns_distinct_for_sorted_sequences():
    # for weakly increasing row sequences, staying inside the partition order is the
    # same as never removing two boxes from one column
    rng = random.Random(21)
    for _ in range(500):
        parts = rng.randint(2, 4)
        lam = rng.choice(partitions_with(parts, 6))
        k = rng.randint(1, 3)
        xi = XiSequence(sorted(rng.randint(1, parts) for _ in range(k)))
        cur = lam
        cols = []
        ok = True
        for r in xi:
            col = cur.parts[r - 1]
            try:
                cur = cur.remove_box(r)
            except ValueError:
                ok = False
                break
            cols.append(col)
        assert ok == xi.is_dominant(lam)
        if ok:
            assert len(set(cols)) == len(cols)


def test_xi_apply_weight_matches_partition_route():
    rng = random.Random(22)
    for _ in range(300):
        parts = rng.randint(2, 4)
        lam = rng.choice(partitions_with(parts, 6))
        k = rng.randint(0, 3)
        xi = XiSequence([rng.randint(1, parts) for _ in range(k)])
        if not xi.is_dominant(lam):
            continue
        sigma = xi_apply(xi, lam)
        want = weight_of_partition(sigma).entries[: parts - 2]
        got = xi_apply(xi, weight_of_partition(lam))
        assert got.entries == tuple(want)


def test_enumerate_dominant_examples():
    lam = Partition((2, 1, 0))
    assert {x.rows for x in enumerate_dominant(lam, 1)} == {(1,), (2,)}
    assert {x.rows for x in enumerate_dominant(lam, 2)} == {(1, 2)}
    lam2 = Partition((2, 1, 1))
    assert {x.rows for x in enumerate_dominant(lam2, 1)} == {(3,)}
    assert {x.rows for x in enumerate_dominant(lam2, 2)} == {(1, 3)}


def test_enumerate_dominant_needs_a_part():
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="partition needs at least one part"):
            enumerate_dominant(Partition(()), k)


def test_enumerate_dominant_bijection_with_interlacing():
    for parts in (2, 3, 4):
        for lam in partitions_with(parts, 6):
            for k in range(0, lam.size() + 1):
                seqs = enumerate_dominant(lam, k)
                assert all(tuple(x) == tuple(sorted(x)) for x in seqs)
                finals = {Partition(xi_apply(x, lam).parts[: parts - 1]) for x in seqs}
                assert len(finals) == len(seqs)
                assert finals == set(interlacing_set(lam, k))


def test_enumerate_gt_patterns_counts():
    assert len(enumerate_gt_patterns(Partition((1, 0, 0)))) == 3
    assert len(enumerate_gt_patterns(Partition((2, 1, 0)))) == 8
    for parts in (2, 3, 4):
        for lam in partitions_with(parts, 5):
            got = enumerate_gt_patterns(lam)
            assert len(got) == weyl_dim(lam)
            assert len(set(got)) == len(got)
            assert got == sorted(got, reverse=True)


def test_gt_pattern_validation():
    with pytest.raises(ValueError):
        GTPattern(((2, 1, 0), (2, 2), (2,)))
    with pytest.raises(ValueError):
        GTPattern(((2, 1, 0), (2,)))
    p = GTPattern(((2, 1, 0), (2, 1), (1,)))
    assert p.top == Partition((2, 1, 0))
    assert p.layer(1) == (1,)
    assert p.layer(3) == (2, 1, 0)


def test_gt_weight():
    p = GTPattern(((2, 1, 0), (2, 1), (1,)))
    assert gt_weight(p) == GlWeight((1, 2, 0))
    # total of the weight entries is the size of the top layer
    for lam in partitions_with(3, 4):
        for p in enumerate_gt_patterns(lam):
            assert sum(gt_weight(p)) == lam.size()


XS = (2, 3, 5, 7, 11)


def test_character_identity_against_alternant():
    """The pattern character sum_p x^gt_weight(p) is the bialternant s_lambda(x) (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3), on 2-5 parts of size <= 6."""
    for parts in (2, 3, 4, 5):
        xs = XS[:parts]
        for lam in partitions_with(parts, 6):
            want = schur_value(lam.parts, xs)
            got = Fraction(0)
            for p in enumerate_gt_patterns(lam):
                w = gt_weight(p)
                term = Fraction(1)
                for x, e in zip(xs, w):
                    term *= Fraction(x) ** e
                got += term
            assert got == want, lam


def test_branching_identity_against_alternant():
    """s_lambda(x) = sum over mu in interlacing_set(lambda) of s_mu(x') x_n^(|lambda| - |mu|),
    x' being x without its last entry x_n: the branching rule as a character identity."""
    count = 0
    for parts in (2, 3, 4, 5):
        xs = XS[:parts]
        for lam in partitions_with(parts, 6):
            got = sum(
                schur_value(mu.parts, xs[:-1]) * Fraction(xs[-1]) ** (lam.size() - mu.size())
                for mu in interlacing_set(lam)
            )
            assert got == schur_value(lam.parts, xs), lam
            count += 1
    assert count == 95


def test_weyl_dim_values():
    assert weyl_dim(Partition((1, 0, 0))) == 3
    assert weyl_dim(Partition((2, 1, 0))) == 8
    assert weyl_dim(Partition((1, 1, 0))) == 3
    assert weyl_dim(Partition((2, 0))) == 3
    assert weyl_dim(Partition((1, 1))) == 1
    assert weyl_dim(Partition((3, 3, 3))) == 1


def test_schur_weights():
    got = schur_weights(2, 2, False)
    assert [w.entries for w in got] == [(2, 0), (1, 1), (0, 2)]
    got = schur_weights(2, 2, True)
    assert [w.entries for w in got] == [(2, 0), (1, 1)]
    for n, d in ((2, 3), (3, 4), (4, 3)):
        allw = schur_weights(n, d, False)
        # stars and bars count
        import math

        assert len(allw) == math.comb(n + d - 1, d)
        assert all(sum(w) == d and all(e >= 0 for e in w) for w in allw)
        dom = schur_weights(n, d, True)
        assert [w for w in allw if list(w) == sorted(w, reverse=True)] == dom
        ents = [w.entries for w in allw]
        assert ents == sorted(ents, reverse=True)


def test_gt_weights_lie_in_schur_weight_set():
    lam = Partition((2, 1, 0))
    allowed = set(schur_weights(3, lam.size(), False))
    for p in enumerate_gt_patterns(lam):
        assert gt_weight(p) in allowed


def test_cartan_matrix():
    c = CartanA(3)
    assert c.entry(1, 3) == 0
    with pytest.raises(ValueError):
        c.entry(0, 1)


def test_json_roundtrips():
    assert Partition((2, 1, 0)).to_json() == [2, 1, 0]
    assert XiSequence((1, 2)).to_json() == [1, 2]
    p = GTPattern(((2, 1, 0), (2, 1), (1,)))
    assert GTPattern(p.to_json()) == p
    assert p.to_json() == [[2, 1, 0], [2, 1], [1]]



VALUES = [
    (Partition, "parts", (2, 1, 0), "Partition(2, 1, 0)"),
    (SlWeight, "entries", (1, 1), "SlWeight(1, 1)"),
    (GlWeight, "entries", (2, 1, 0), "GlWeight(2, 1, 0)"),
    (XiSequence, "rows", (1, 2), "XiSequence(1, 2)"),
    (GTPattern, "layers", ((2, 1, 0), (2, 1), (1,)), "GTPattern((2, 1, 0), (2, 1), (1,))"),
]


@pytest.mark.parametrize("cls, attr, tup, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type_protocol(cls, attr, tup, text):
    """Each value type equals only its own class with an equal tuple, hashes as
    (class name, tuple), and reads and writes its tuple the same way."""
    x = cls(tup)
    assert x == cls(tup) and not x != cls(tup)
    assert hash(x) == hash(cls(tup)) == hash((cls.__name__, tup))
    assert getattr(x, attr) == tup and type(getattr(x, attr)) is tuple
    assert repr(x) == text
    want_json = [list(layer) for layer in tup] if cls is GTPattern else list(tup)
    assert x.to_json() == want_json
    assert x != tup and x != list(tup)
    if cls is not GTPattern:
        assert list(x) == list(tup) and len(x) == len(tup) and x[0] == tup[0] and x[-1] == tup[-1]


def test_value_types_holding_one_tuple_differ_by_class():
    flat = [cls((2, 1, 1)) for cls in (Partition, SlWeight, GlWeight, XiSequence)]
    for x, y in itertools.combinations(flat, 2):
        assert x != y and y != x
    assert len(set(flat)) == len(flat)


def test_single_part_values_repr_as_one_tuples():
    assert repr(Partition((3,))) == "Partition(3,)"
    assert repr(SlWeight(())) == "SlWeight()"
    assert repr(XiSequence(())) == "XiSequence()"
    assert repr(GTPattern(((1,),))) == "GTPattern((1,),)"


def test_gt_pattern_reads_as_a_sequence_of_layers():
    p = GTPattern(((2, 1, 0), (2, 1), (1,)))
    assert list(p) == [(2, 1, 0), (2, 1), (1,)] and len(p) == 3
    assert p[0] == p.top.parts and p[-1] == p.layer(1) == (1,)
