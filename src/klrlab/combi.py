"""Partitions, weights, box-removal sequences, Gelfand-Tsetlin patterns, and branching counts."""

import itertools
from fractions import Fraction


class _Value:
    """A value held as one tuple, in the slot `_v` that each subclass also names publicly.

    It equals only a value of its own class with an equal tuple, hashes as (class name,
    tuple), reads as a sequence over the tuple and writes it to JSON as a list.
    """

    __slots__ = ("_v",)

    def __init__(self, values):
        self._v = tuple(int(v) for v in values)

    def __eq__(self, other):
        return type(other) is type(self) and self._v == other._v

    def __hash__(self):
        return hash((type(self).__name__, self._v))

    def __iter__(self):
        return iter(self._v)

    def __len__(self):
        return len(self._v)

    def __getitem__(self, i):
        return self._v[i]

    def to_json(self):
        return list(self._v)

    def __repr__(self):
        return f"{type(self).__name__}{self._v}"


class Partition(_Value):
    """A weakly decreasing tuple of nonnegative ints; trailing zeros are significant parts."""

    __slots__ = ()
    parts = _Value._v

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"negative part {p} in {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def part_count(self):
        return len(self.parts)

    def size(self):
        return sum(self.parts)

    def remove_box(self, row):
        """Remove one box from the given 1-based row; the result must again be a partition."""
        if not 1 <= row <= len(self.parts):
            raise ValueError(f"row {row} out of range for {self.parts}")
        new = list(self.parts)
        new[row - 1] -= 1
        return Partition(new)

    def __lt__(self, other):
        return self.parts < other.parts


class SlWeight(_Value):
    """An integral weight in the fundamental-weight basis; dominant iff all entries >= 0."""

    __slots__ = ()
    entries = _Value._v

    @property
    def rank(self):
        return len(self.entries)


class GlWeight(_Value):
    """An integer vector in the epsilon basis."""

    __slots__ = ()
    entries = _Value._v


class XiSequence(_Value):
    """A sequence of 1-based row indices, applied left to right as single box removals."""

    __slots__ = ()
    rows = _Value._v

    def __init__(self, rows):
        rows = tuple(int(r) for r in rows)
        for r in rows:
            if r < 1:
                raise ValueError(f"row index {r} must be >= 1")
        self.rows = rows

    def is_dominant(self, lam):
        """True iff every prefix image of lam is a valid partition."""
        try:
            xi_apply(self, lam)
        except ValueError:
            return False
        return True


class GTPattern(_Value):
    """A triangular array of interlacing partition layers, largest on top; a sequence
    of its layers."""

    __slots__ = ()
    layers = _Value._v

    def __init__(self, layers):
        layers = tuple(tuple(int(v) for v in layer) for layer in layers)
        m = len(layers)
        if m == 0:
            raise ValueError("empty pattern")
        for j, layer in enumerate(layers):
            if len(layer) != m - j:
                raise ValueError(f"layer {j} has {len(layer)} parts, expected {m - j}")
        for j in range(m - 1):
            upper, lower = layers[j], layers[j + 1]
            for i in range(len(lower)):
                if not upper[i + 1] <= lower[i] <= upper[i]:
                    raise ValueError(f"layers {upper} and {lower} do not interlace")
        self.layers = layers

    @property
    def top(self):
        return Partition(self.layers[0])

    def layer(self, j):
        """The layer with j parts (1-based from the bottom)."""
        return self.layers[len(self.layers) - j]

    def __lt__(self, other):
        return self.layers < other.layers

    def to_json(self):
        return [list(layer) for layer in self.layers]


class CartanA:
    """The type-A Cartan matrix: 2 on the diagonal, -1 between neighbours, 0 otherwise."""

    __slots__ = ("rank",)

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def entry(self, i, j):
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise ValueError(f"indices ({i},{j}) out of range for rank {self.rank}")
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0

    def __repr__(self):
        return f"CartanA({self.rank})"


def weight_of_partition(lam):
    """Successive part differences of a partition, as a weight one entry shorter."""
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if lam.part_count < 2:
        raise ValueError("need at least two parts to take differences")
    return SlWeight(lam[i] - lam[i + 1] for i in range(lam.part_count - 1))


def interlacing_set(lam, boxes="all"):
    """Partitions with one fewer part squeezed between consecutive parts of lam.

    Part i of mu ranges over [lam_{i+1}, lam_i] independently of the other parts, since
    lam_{i+1} bounds part i from below and part i+1 from above; so the set is a product of
    intervals.  boxes='all' gives every such partition; an integer k keeps those with
    |lam| - |mu| = k.  Listed in lexicographically descending order.
    """
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if boxes != "all":
        boxes = int(boxes)
        if boxes < 0:
            raise ValueError("box count must be >= 0")
    if not lam.part_count:
        return []
    size = lam.size()
    intervals = [range(hi, lo - 1, -1) for hi, lo in zip(lam, lam[1:])]
    return [
        Partition(mu)
        for mu in itertools.product(*intervals)
        if boxes == "all" or size - sum(mu) == boxes
    ]


def xi_apply(xi, target):
    """Apply a removal sequence to a partition, or its weight-level counterpart to a weight.

    On a partition each entry removes one box from that row, failing loudly if any
    intermediate shape is not a partition.  On a weight with n entries, entry i bumps
    position i-1 up and position i down, and the final entry is dropped at the end.
    """
    if isinstance(xi, (list, tuple)):
        xi = XiSequence(xi)
    if isinstance(target, Partition):
        cur = target
        for r in xi:
            if r > cur.part_count:
                raise ValueError(f"row {r} exceeds part count {cur.part_count}")
            cur = cur.remove_box(r)
        return cur
    if isinstance(target, SlWeight):
        n = target.rank
        ent = list(target.entries)
        for r in xi:
            if r > n + 1:
                raise ValueError(f"row {r} exceeds rank bound {n + 1}")
            if r - 1 >= 1:
                ent[r - 2] += 1
            if r <= n:
                ent[r - 1] -= 1
        return SlWeight(ent[: n - 1])
    raise TypeError(f"cannot apply removal sequence to {type(target).__name__}")


def _step_rows(upper, lower):
    """The weakly increasing removal sequence from partition upper to lower, which has at
    most as many parts and is padded with zeros: row r repeated upper_r - lower_r times."""
    lower = tuple(lower) + (0,) * (len(upper) - len(lower))
    return tuple(r for r, (a, b) in enumerate(zip(upper, lower), 1) for _ in range(a - b))


def enumerate_dominant(lam, k):
    """Weakly increasing removal sequences of length k that stay inside the partition order
    and empty the last row, listed lexicographically descending.

    A sequence that removes c_r boxes from row r stays a partition iff
    lam_r - c_r >= lam_{r+1}, so the sequences are the steps from lam to the mu of
    interlacing_set(lam + (0,), k) with last part 0, and descending mu gives descending
    sequences."""
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    if k < 0:
        raise ValueError("sequence length must be >= 0")
    if not lam.part_count:
        raise ValueError("partition needs at least one part")
    return [
        XiSequence(_step_rows(lam, mu))
        for mu in interlacing_set(Partition(lam.parts + (0,)), k)
        if mu[-1] == 0
    ]


def enumerate_gt_patterns(lam):
    """All interlacing towers below a partition, in lexicographically descending order:
    the depth-first walk over each layer's descending interlacing set lists them so."""
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    out = []

    def grow(layers, cur):
        if cur.part_count == 1:
            out.append(GTPattern(layers))
            return
        for mu in interlacing_set(cur, "all"):
            grow(layers + [mu.parts], mu)

    grow([lam.parts], lam)
    return out


def gt_weight(pattern):
    """Layer-size differences of a pattern, bottom layer first."""
    m = len(pattern.layers)
    sizes = [sum(pattern.layer(j)) for j in range(1, m + 1)]
    return GlWeight([sizes[0]] + [sizes[j] - sizes[j - 1] for j in range(1, m)])


def weyl_dim(lam):
    """Dimension of the irreducible with the given highest weight: prod (lam_i - lam_j + j - i)/(j - i)."""
    if isinstance(lam, (list, tuple)):
        lam = Partition(lam)
    d = Fraction(1)
    m = lam.part_count
    for i in range(m):
        for j in range(i + 1, m):
            d *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert d.denominator == 1
    return int(d)


def schur_weights(n, d, dominant_only=False):
    """Nonnegative integer vectors of length n summing to d, lexicographically descending."""
    if n < 1:
        raise ValueError("need at least one entry")
    if d < 0:
        raise ValueError("degree must be >= 0")
    out = []

    def grow(prefix, left):
        if len(prefix) == n - 1:
            last = left
            if dominant_only and prefix and last > prefix[-1]:
                return
            out.append(GlWeight(prefix + [last]))
            return
        hi = left
        if dominant_only and prefix:
            hi = min(hi, prefix[-1])
        for v in range(hi, -1, -1):
            if dominant_only:
                # remaining entries are each at most v, so v must be large enough
                if v * (n - len(prefix)) < left:
                    continue
            grow(prefix + [v], left - v)

    grow([], d)
    return out
