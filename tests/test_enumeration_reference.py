"""The branching enumerations held to the recursions they replaced.

Each reference below is the earlier implementation, kept verbatim apart from its name and
the reference it calls: the interlacing set grown part by part, dominant sequences found by
trial removal, GT patterns sorted after the walk, the pattern idempotent rebuilt, sorted
and re-checked for dominance, and the module depth as a double loop over lambda.
"""

import itertools

from klrlab.combi import (
    GTPattern,
    Partition,
    XiSequence,
    enumerate_dominant,
    enumerate_gt_patterns,
    interlacing_set,
)
from klrlab.cyclo import GTIdempotent, gt_idempotent
from klrlab.uqmod import exhaustion_depth


def reference_interlacing_set(lam, boxes="all"):
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if boxes != "all":
        boxes = int(boxes)
        if boxes < 0:
            raise ValueError("box count must be >= 0")
    out = []

    def grow(prefix, i):
        if i == lam.part_count - 1:
            mu = Partition(prefix)
            if boxes == "all" or lam.size() - mu.size() == boxes:
                out.append(mu)
            return
        hi = lam[i]
        lo = lam[i + 1]
        if prefix:
            hi = min(hi, prefix[-1])
        for v in range(hi, lo - 1, -1):
            grow(prefix + [v], i + 1)

    if lam.part_count >= 1:
        grow([], 0)
    return out


def reference_enumerate_dominant(lam, k):
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if k < 0:
        raise ValueError("sequence length must be >= 0")
    n1 = lam.part_count
    out = []

    def grow(seq, cur, minrow):
        if len(seq) == k:
            if cur[n1 - 1] == 0:
                out.append(XiSequence(seq))
            return
        for r in range(n1, minrow - 1, -1):
            if cur[r - 1] == 0:
                continue
            try:
                nxt = cur.remove_box(r)
            except ValueError:
                continue
            grow(seq + [r], nxt, r)

    grow([], lam, 1)
    return out


def reference_enumerate_gt_patterns(lam):
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    out = []

    def grow(layers, cur):
        if cur.part_count == 1:
            out.append(GTPattern(layers))
            return
        for mu in reference_interlacing_set(cur, "all"):
            grow(layers + [mu.parts], mu)

    grow([lam.parts], lam)
    out.sort(reverse=True)
    return out


def reference_gt_idempotent(s):
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


def reference_exhaustion_depth(hw):
    m = len(hw) + 1
    lam = []
    acc = 0
    for x in reversed(hw):
        acc += x
        lam.append(acc)
    lam = list(reversed(lam)) + [0]
    total = 0
    for j in range(1, m):
        for t in range(1, j + 1):
            total += lam[t - 1] - lam[m - t]
    return total


def partitions(max_parts, max_size):
    """Every partition with 1..max_parts parts (trailing zeros count) and size <= max_size."""
    out = []
    for parts in range(1, max_parts + 1):
        for lam in itertools.product(range(max_size, -1, -1), repeat=parts):
            if list(lam) == sorted(lam, reverse=True) and sum(lam) <= max_size:
                out.append(Partition(lam))
    return out


PARTITIONS = partitions(5, 7)


def test_interlacing_set_matches_the_recursion():
    for lam in PARTITIONS + [Partition(())]:
        assert interlacing_set(lam) == reference_interlacing_set(lam), lam
        for k in range(lam.size() + 2):
            assert interlacing_set(lam, k) == reference_interlacing_set(lam, k), (lam, k)


def test_enumerate_dominant_matches_trial_removal():
    for lam in PARTITIONS:
        for k in range(lam.size() + 2):
            assert enumerate_dominant(lam, k) == reference_enumerate_dominant(lam, k), (lam, k)


def test_gt_patterns_and_idempotents_match_the_sorted_walk():
    patterns = 0
    for lam in PARTITIONS:
        got = enumerate_gt_patterns(lam)
        assert got == reference_enumerate_gt_patterns(lam), lam
        assert all(a > b for a, b in zip(got, got[1:])), lam
        for s in got:
            g, want = gt_idempotent(s), reference_gt_idempotent(s)
            assert g.sequence == want.sequence, s
            assert g.layers == want.layers, s
            assert g.layer_spans == want.layer_spans, s
            assert g.rank == want.rank, s
        patterns += len(got)
    assert (len(PARTITIONS), patterns) == (139, 10339)


def test_exhaustion_depth_matches_the_double_loop():
    for n in range(1, 6):
        for hw in itertools.product(range(5), repeat=n):
            assert exhaustion_depth(hw) == reference_exhaustion_depth(hw), hw
