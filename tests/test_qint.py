import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klrlab.qint import (
    LaurentFrac,
    LaurentPoly,
    _dense_divexact,
    _dense_gcd,
    _evaluate,
    _from_balanced_digits,
    at_power_of_two,
    dense_sum_times_quantum_integers,
    from_parity_class,
    matrix_rank,
    pivot_columns,
    quantum_integer,
    row_echelon_bareiss,
    solve_linear,
)


def rand_poly(rng, span=6, nterms=5, cmax=9):
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-cmax, cmax) for _ in range(rng.randint(0, nterms))}
    )


def test_quantum_integer_small_values():
    assert quantum_integer(0) == LaurentPoly.zero()
    assert quantum_integer(1) == LaurentPoly.one()
    assert quantum_integer(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert quantum_integer(-3) == LaurentPoly({2: -1, 0: -1, -2: -1})


def test_quantum_integer_negation_and_specialization():
    for n in range(-12, 13):
        assert quantum_integer(-n) == -quantum_integer(n)
        assert sum(c for _, c in quantum_integer(n).items()) == n
        assert quantum_integer(n).bar() == quantum_integer(n)


def test_bar_is_an_involution_on_random_polys():
    rng = random.Random(11)
    for _ in range(1000):
        p = rand_poly(rng)
        assert p.bar().bar() == p


def test_bar_is_a_ring_map():
    rng = random.Random(12)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_quantum_integer_multiplication_identity():
    # [2][n] = [n+1] + [n-1]
    two = quantum_integer(2)
    for n in range(1, 9):
        assert two * quantum_integer(n) == quantum_integer(n + 1) + quantum_integer(n - 1)


def _by_products(terms, shift):
    total = LaurentPoly.zero()
    for p, r, n in terms:
        total = total + quantum_integer(r) * quantum_integer(n) * p
    return total.shift(shift)


def _classes(p):
    """p's nonzero exponent-parity classes, each as a trimmed list (lo, c) of
    coefficients two degrees apart."""
    out = []
    for par in (0, 1):
        exps = [e for e, _ in p.items() if e % 2 == par]
        if exps:
            lo, hi = min(exps), max(exps)
            out.append((lo, [dict(p.items()).get(e, 0) for e in range(lo, hi + 1, 2)]))
    return out


def _dense_sum(terms, shift):
    """`dense_sum_times_quantum_integers` on terms (p, r, n) of any parities: each p is
    split into its classes, the classes whose products share a parity are summed in one
    call, and the results are checked trimmed and added up."""
    groups = {}
    for p, r, n in terms:
        for lo, c in _classes(p):
            groups.setdefault((lo + r + n) % 2, []).append((lo, c, r, n))
    total = LaurentPoly.zero()
    for group in groups.values():
        lo, c = dense_sum_times_quantum_integers(group, shift)
        assert (lo, c) == (0, []) or (c[0] and c[-1]), (group, shift, lo, c)
        got = from_parity_class(lo, c)
        assert 0 not in got._t.values()
        total = total + got
    return total


def test_dense_sum_times_quantum_integers_matches_the_products():
    # the norm <F^14 v, F^14 v> = q^210 [14]! [29][28]...[16] of the highest weight 29
    norm = LaurentPoly.one()
    for j in range(1, 15):
        norm = norm * quantum_integer(j) * quantum_integer(30 - j)
    cases = [
        LaurentPoly.one(),
        LaurentPoly({-5: 7}),
        LaurentPoly({-9: 2, -8: -1, 0: 5, 7: -3, 20: 1}),  # both exponent parities
        LaurentPoly({-12: 1, -11: 4, -3: -6}),
        norm.shift(210),
    ]
    for p in cases:
        for r in (1, 2, 3, 7):
            for n in (-9, -2, -1, 1, 2, 5, 30):
                for shift in (-4, 0, 3):
                    got = _dense_sum([(p, r, n)], shift)
                    assert got == _by_products([(p, r, n)], shift), (p, r, n, shift)
    rng = random.Random(23)
    for _ in range(300):
        terms = [
            (rand_poly(rng, span=9, nterms=7), rng.randint(1, 6), rng.choice([-1, 1]) * rng.randint(1, 7))
            for _ in range(rng.randint(1, 5))
        ]
        shift = rng.randint(-8, 8)
        assert _dense_sum(terms, shift) == _by_products(terms, shift), (terms, shift)


def test_dense_sum_times_quantum_integers_edge_cases():
    p = LaurentPoly({-3: 2, 0: -1, 1: 4})  # both exponent parities
    assert dense_sum_times_quantum_integers([], 5) == (0, [])
    assert dense_sum_times_quantum_integers([(0, [], 3, 4)], 2) == (0, [])
    assert _dense_sum([(p, 1, 1)], 0) == p
    assert _dense_sum([(p, 1, -1)], 2) == -p.shift(2)
    assert _dense_sum([(p, 1, 0)], 0).is_zero()
    # [2][3] p + [3][2] (-p) and [r][-n] p + [r][n] p cancel to zero
    assert _dense_sum([(p, 2, 3), (-p, 3, 2)], 1).is_zero()
    assert _dense_sum([(p, 4, -5), (p, 4, 5)], 0).is_zero()
    # [2][2] = [3] + [1], so [2][2] p - [3] p leaves p, trimmed at both ends
    assert _dense_sum([(p, 2, 2), (-p, 1, 3)], 0) == p
    # [3] - (q^-2 + q^2) cancels at both ends and leaves the middle
    assert dense_sum_times_quantum_integers([(0, [1], 3, 1), (-2, [-1, 0, -1], 1, 1)], 0) == (
        0,
        [1],
    )
    # [1][1] on q^0 and on q^1 lands in two parity classes
    with pytest.raises(ValueError):
        dense_sum_times_quantum_integers([(0, [1], 1, 1), (1, [1], 1, 1)], 0)


def test_laurent_operators():
    a = quantum_integer(2)
    b = quantum_integer(3)
    assert a + b == LaurentPoly({2: 1, 1: 1, 0: 1, -1: 1, -2: 1})
    assert a * b == quantum_integer(4) + quantum_integer(2)
    assert (a == a) is True
    assert (a == b) is False


def test_json_pairs_roundtrip_and_order():
    p = quantum_integer(2)
    assert p.to_pairs() == [[-1, 1], [1, 1]]
    rng = random.Random(13)
    for _ in range(200):
        p = rand_poly(rng)
        pairs = p.to_pairs()
        assert pairs == sorted(pairs)
        assert LaurentPoly(pairs) == p


def test_value_semantics():
    p = quantum_integer(3)
    q = p + LaurentPoly.zero()
    assert p == q and hash(p) == hash(q)
    d = {p: "x"}
    assert d[q] == "x"
    assert p.shift(2) != p
    assert p.shift(2).shift(-2) == p


def test_ring_axioms_random():
    rng = random.Random(14)
    for _ in range(100):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == LaurentPoly.zero()


laurent = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


@given(laurent, laurent, laurent)
def test_ring_axioms_hypothesis(a, b, c):
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(laurent, laurent)
def test_bar_ring_map_hypothesis(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()


@given(laurent, laurent, st.integers(min_value=-4, max_value=4))
def test_shift_is_multiplication_by_a_power(a, b, k):
    assert a.shift(k) == a * LaurentPoly({k: 1})
    assert (a * b).shift(k) == a.shift(k) * b


nonzero = st.integers(min_value=-9, max_value=9).filter(bool)


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=6), nonzero)
def test_gcd_with_a_constant_is_one(f, c):
    assert _dense_gcd(f, [c]) == [1]
    assert _dense_gcd([c], f) == [1]


@given(laurent, nonzero, st.integers(min_value=-4, max_value=4))
def test_fraction_over_a_monomial(a, c, k):
    den_in = LaurentPoly({k: c})
    f = LaurentFrac(a, den_in)
    assert f.num * den_in == a * f.den
    ((exp, den),) = f.den.items()
    assert exp == 0 and den > 0
    content = 0
    for _, v in f.num.items():
        content = math.gcd(content, v)
    assert math.gcd(content, den) == 1


def dense_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)
non_unit = st.integers(min_value=-9, max_value=9).filter(lambda c: abs(c) > 1)


@given(coeffs.filter(any), coeffs, non_unit)
def test_dense_divexact_by_a_non_monic_divisor(f, g_low, lead):
    g = g_low + [lead]
    q = _dense_divexact(dense_mul(f, g), g)
    assert q == f and all(type(v) is int for v in q)


def test_dense_divexact_rejects_inexact_quotients():
    with pytest.raises(ArithmeticError):
        _dense_divexact([2, 2], [4, 4])  # (2 + 2q) / (4 + 4q) = 1/2
    with pytest.raises(ArithmeticError):
        _dense_divexact([1, 0, 1], [1, 1])  # 1 + q^2 = (q - 1)(1 + q) + 2


def test_fraction_reduction():
    a = quantum_integer(4)
    b = quantum_integer(2)
    f = LaurentFrac(a, b)
    # [4]/[2] = q^2 + q^{-2}
    assert f == LaurentFrac(LaurentPoly({2: 1, -2: 1}))
    rng = random.Random(16)
    for _ in range(100):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if b.is_zero() or c.is_zero():
            continue
        assert LaurentFrac(a * c, b * c) == LaurentFrac(a, b)


def test_fraction_arithmetic():
    rng = random.Random(17)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        c, d = rand_poly(rng), rand_poly(rng)
        if b.is_zero() or d.is_zero():
            continue
        x = LaurentFrac(a, b)
        y = LaurentFrac(c, d)
        assert x + y == LaurentFrac(a * d + c * b, b * d)
        assert x * y == LaurentFrac(a * c, b * d)


non_constant = laurent.filter(lambda d: d.min_exp() != 0 or d.max_exp() != 0)


@given(laurent, laurent, non_constant)
def test_polynomial_fractions_keep_the_canonical_form(a, b, d):
    # sums, differences and products of polynomials skip the gcd; through the gcd they
    # come out the same, to the dict and the record
    x, y = LaurentFrac(a), LaurentFrac(b)
    for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b)):
        ref = LaurentFrac(want * d, d)
        assert got.num._t == ref.num._t and got.den._t == ref.den._t
        assert got.to_record() == ref.to_record()


@given(laurent, st.integers(min_value=-9, max_value=9), laurent.filter(bool))
def test_hash_agrees_with_equality(a, c, d):
    const = LaurentPoly({0: c})
    assert const == c and hash(const) == hash(c)
    assert LaurentFrac(c) == c and hash(LaurentFrac(c)) == hash(c)
    for frac in (LaurentFrac(a), LaurentFrac(a * d, d)):
        assert frac == a and hash(frac) == hash(a)


def test_polynomial_operators_defer_to_a_fraction_operand():
    rng = random.Random(19)
    for _ in range(20):
        p, a, b = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        f = LaurentFrac(a, b)
        assert p * f == f * p == LaurentFrac(p * a, b)
        assert p + f == f + p == LaurentFrac(p * b + a, b)
        assert p - f == -(f - p) == LaurentFrac(p * b - a, b)


def test_bareiss_rank_integer():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert matrix_rank(rows) == 2
    pivots, _ = row_echelon_bareiss(rows)
    assert pivots == [0, 1]


def test_bareiss_rank_laurent():
    q = LaurentPoly({1: 1})
    one = LaurentPoly.one()
    rows = [[one, q], [q, q * q]]
    assert matrix_rank(rows) == 1
    rows = [[one, q], [q.bar(), one + q]]
    assert matrix_rank(rows) == 2


def test_solve_linear():
    q = LaurentPoly({1: 1})
    m = [[LaurentPoly.one(), q], [q, LaurentPoly.one() + q * q]]
    rhs = [quantum_integer(2), quantum_integer(3)]
    [x] = solve_linear(m, rhs)
    got0 = x[0] * m[0][0] + x[1] * m[0][1]
    got1 = x[0] * m[1][0] + x[1] * m[1][1]
    assert got0 == LaurentFrac(rhs[0])
    assert got1 == LaurentFrac(rhs[1])


small_laurent = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(LaurentPoly)


@st.composite
def square_systems(draw):
    """An n x n matrix and a right-hand side, 1 <= n <= 4, of ints and small Laurent
    polynomials."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.integers(min_value=-3, max_value=3), small_laurent)
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return matrix, [draw(entry) for _ in range(n)]


@given(square_systems())
def test_solve_linear_hypothesis(system):
    matrix, rhs = system
    if matrix_rank(matrix) < len(matrix):
        with pytest.raises(ArithmeticError):
            solve_linear(matrix, rhs)
        return
    [x] = solve_linear(matrix, rhs)
    for row, b in zip(matrix, rhs):
        acc = LaurentFrac.zero()
        for a, v in zip(row, x):
            acc = acc + v * a
        assert acc == LaurentFrac(b)


def test_several_right_hand_sides_solve_as_one_each():
    # one elimination of [M | b_1 | ... | b_m] is certified for the minors that border M
    # with one b_t, though the bound takes only the largest b_t of each row: each
    # column's solution is the one solve_linear gives it alone, and solves the system
    rng = random.Random(48)
    for _ in range(150):
        n = rng.randint(1, 4)
        matrix = [[rand_poly(rng, span=3, nterms=3, cmax=5) for _ in range(n)] for _ in range(n)]
        if matrix_rank(matrix) < n:
            continue
        # right-hand sides of very different sizes, so each row's largest differs
        columns = [
            [rand_poly(rng, span=4, nterms=4, cmax=rng.choice([1, 9, 400])) for _ in range(n)]
            for _ in range(rng.randint(1, 4))
        ]
        sols = solve_linear(matrix, *columns)
        assert len(sols) == len(columns)
        for col, x in zip(columns, sols):
            assert solve_linear(matrix, col) == [x]
            for row, b in zip(matrix, col):
                assert sum((v * a for a, v in zip(row, x)), LaurentFrac.zero()) == b


def test_degenerate_systems():
    assert solve_linear([], []) == [[]] and solve_linear([[1]]) == []
    assert matrix_rank([]) == matrix_rank([[]]) == matrix_rank([[0, 0]]) == 0
    q = LaurentPoly({1: 1})
    for singular in ([[0]], [[1, 2], [2, 4]], [[q, q * q], [LaurentPoly.one(), q]]):
        with pytest.raises(ArithmeticError, match="singular system"):
            solve_linear(singular, [1] * len(singular))


def _as_poly(e):
    if isinstance(e, tuple):
        return from_parity_class(*e)
    return LaurentPoly({0: e}) if isinstance(e, int) else e


def _rand_pair(rng):
    """A (lo, c) entry of one exponent-parity class, c trimmed; zero, with any lo, one
    time in four."""
    if rng.random() < 0.25:
        return rng.randint(-4, 4), ()
    c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
    c[0], c[-1] = c[0] or 1, c[-1] or -1
    return rng.randint(-6, 6), tuple(c)


def _mixed(rng, e):
    """The entry e as a pair, as its LaurentPoly, or, one time in five, as an int."""
    kind = rng.randrange(5)
    return rng.randint(-3, 3) if kind == 4 else e if kind < 2 else _as_poly(e)


def _solution(matrix, rhs):
    try:
        [x] = solve_linear(matrix, rhs)
        return x
    except ArithmeticError:
        return "singular"


def test_elimination_reads_parity_class_pairs_as_their_polynomials():
    # pivot_columns, matrix_rank and solve_linear answer the same on (lo, c) pairs as on
    # the LaurentPolys they stand for; (lo, ()) is zero, though a nonempty tuple
    assert pivot_columns([[(3, ())]]) == [] and _solution([[(3, ())]], [(0, (1,))]) == "singular"
    assert pivot_columns([[(0, ()), (-2, ()), 0, LaurentPoly()]]) == []
    assert pivot_columns([[(0, ()), (-2, (1, 2)), 0]]) == [1]
    # [2] x = [2]^2
    assert solve_linear([[(-1, (1, 1))]], [(-2, (1, 2, 1))]) == [[LaurentFrac(quantum_integer(2))]]
    rng = random.Random(29)
    seen = set()
    for trial in range(600):
        n = rng.randint(1, 4)
        m = n if trial % 2 else rng.randint(1, 4)
        rows = [[_rand_pair(rng) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            # q^s times another row keeps the matrix rank-deficient
            s = rng.randint(-2, 2)
            rows[-1] = [(lo + s, c) for lo, c in rows[0]]
        rhs = [_rand_pair(rng) for _ in range(n)]
        if trial >= 400:
            rows = [[_mixed(rng, e) for e in row] for row in rows]
            rhs = [_mixed(rng, e) for e in rhs]
        polys = [[_as_poly(e) for e in row] for row in rows]
        want = pivot_columns(polys)
        assert pivot_columns(rows) == want, rows
        assert matrix_rank(rows) == len(want), rows
        if n == m:
            got = _solution(rows, rhs)
            assert got == _solution(polys, [_as_poly(b) for b in rhs]), (rows, rhs)
            seen.add((n, got == "singular"))
    assert seen == {(n, singular) for n in range(1, 5) for singular in (False, True)}


def _leibniz_det(rows):
    """The determinant by the Leibniz formula, in LaurentPoly arithmetic."""
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = LaurentPoly({0: (-1) ** inversions})
        for i, j in enumerate(perm):
            term = term * _as_poly(rows[i][j])
        total = total + term
    return total


def _oracle_pivots(rows):
    """The columns at which the rank of the column prefix grows, the rank of a prefix
    being the size of its largest nonvanishing minor."""
    pivots, prev = [], 0
    for c in range(len(rows[0]) if rows else 0):
        rank = max(
            (
                s
                for s in range(1, min(len(rows), c + 1) + 1)
                for rs in itertools.combinations(range(len(rows)), s)
                for cs in itertools.combinations(range(c + 1), s)
                if _leibniz_det([[rows[r][j] for j in cs] for r in rs])
            ),
            default=0,
        )
        if rank > prev:
            pivots.append(c)
        prev = rank
    return pivots


mixed_entry = st.one_of(st.integers(min_value=-3, max_value=3), small_laurent)


@st.composite
def small_matrices(draw):
    """Matrices of 1-4 rows and columns, of ints and small Laurent polynomials; half of
    them are products A B with an inner dimension below the row count, so rank-deficient.
    Two in three then gain one more row or column, at a drawn place: a copy of one they
    have, or a zero one, which `pivot_columns` prunes before it eliminates."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        rows = [[draw(mixed_entry) for _ in range(m)] for _ in range(n)]
    else:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        a = [[draw(mixed_entry) for _ in range(k)] for _ in range(n)]
        b = [[draw(mixed_entry) for _ in range(m)] for _ in range(k)]
        rows = [
            [sum((a[i][t] * b[t][j] for t in range(k)), LaurentPoly.zero()) for j in range(m)]
            for i in range(n)
        ]
    extra = draw(st.sampled_from([None, "copy", "zero"]))
    if extra is None:
        return rows
    # a column is added as a row of the transpose
    columns = draw(st.booleans())
    if columns:
        rows = [list(col) for col in zip(*rows)]
    if extra == "copy":
        new = list(draw(st.sampled_from(rows)))
    else:
        new = [draw(st.sampled_from([0, LaurentPoly.zero()])) for _ in rows[0]]
    rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), new)
    return [list(row) for row in zip(*rows)] if columns else rows


@given(small_matrices())
def test_pivot_columns_match_the_minor_oracle(rows):
    want = _oracle_pivots(rows)
    assert pivot_columns(rows) == want
    assert matrix_rank(rows) == len(want)


def test_minors_that_vanish_at_a_small_power_of_two():
    # a point 2^k below the certified one would zero these determinants (or, in the
    # 3 x 3 case, the leading 2 x 2 minor that picks the second pivot) and lose a pivot
    q = LaurentPoly({1: 1})
    one = LaurentPoly.one()
    for j in range(1, 12):
        c = 1 << j
        cases = ([[q, c], [1, 1]], [[1, 1, 0], [c, q, 0], [0, 0, one]], [[q * q, c * c], [1, one]])
        for rows in cases:
            n = len(rows)
            assert pivot_columns(rows) == list(range(n)), (j, rows)
            [x] = solve_linear(rows, [1] + [0] * (n - 1))
            for row, b in zip(rows, [1] + [0] * (n - 1)):
                assert sum((v * a for a, v in zip(row, x)), LaurentFrac.zero()) == b
    # det M = 2^j (times q^2) reaches the bound B = 2^j + 1 of [M | rhs], so reading it
    # back needs the spare bit
    for j in range(1, 12):
        for a in (LaurentPoly({0: 1 << j}), LaurentPoly({2: 1 << j})):
            assert solve_linear([[a, 0], [0, 1]], [-1, 0]) == [[LaurentFrac(-1, a), 0]]


def _first_point_pivots(rows):
    """The pivots of a LaurentPoly matrix with no zero or repeated row or column (so
    nothing to prune) eliminated at the point `pivot_columns` tries first: 2^k with
    k = B_2.bit_length(), B_2 the lesser of the products of the two largest row and
    the two largest column l1 sums."""
    norms = [[p.l1_norm() for p in row] for row in rows]
    by_row = sorted((max(1, sum(row)) for row in norms), reverse=True)
    by_col = sorted((max(1, sum(col)) for col in zip(*norms)), reverse=True)
    k = min(by_row[0] * by_row[1], by_col[0] * by_col[1]).bit_length()
    lows = [min(e.min_exp() for e in row if e) for row in rows]
    values = [[at_power_of_two(p, k, -low) for p in row] for row, low in zip(rows, lows)]
    return row_echelon_bareiss(values)[0]


def _rank_three_product(rng):
    """A B, with A of 5-8 rows and rank 3 and B of 3 rows and 5-8 columns.  The first
    three rows of A are N = [[q, c1, 0], [0, 1, c2], [-c3, 0, 1]], c1, c2, c3 powers of
    two, and the rest are sums and differences of them, so A = T N with T an integer
    matrix.  By Cauchy-Binet every 3-minor of A B is det(T_R) det(N) det(B_C), and
    det N is q - c1 c2 c3: at q = c1 c2 c3 every 3-minor vanishes, so the product's
    rank there is at most 2."""
    q, one, zero = LaurentPoly({1: 1}), LaurentPoly.one(), LaurentPoly.zero()
    c1, c2, c3 = (1 << rng.randint(2, 9) for _ in range(3))
    top = [[q, one * c1, zero], [zero, one, one * c2], [one * -c3, zero, one]]
    a = [list(row) for row in top]
    for _ in range(rng.randint(2, 5)):
        t = [rng.choice([0, 1, -1]) for _ in range(3)]
        a.append([sum((top[s][j] * t[s] for s in range(3)), zero) for j in range(3)])
    rng.shuffle(a)
    m = rng.randint(5, 8)
    b = [
        [LaurentPoly({rng.randint(0, 1): rng.choice([1, -1])}) if rng.random() < 0.6 else zero
         for _ in range(m)]
        for _ in range(3)
    ]
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def test_pivots_stay_certified_where_the_first_point_loses_one():
    # pivot_columns first eliminates at a point sized for 2-minors and steps up while a
    # run may have tested larger ones.  Of the 170 products kept here, 13 lose a pivot
    # at that first point, as q - c1 c2 c3 vanishes there, and the pivots must still be
    # those of the point that `_evaluate` certifies for every minor
    rng = random.Random(49)
    kept = lost = 0
    for _ in range(600):
        rows = _rank_three_product(rng)
        cols = list(zip(*rows))
        if not all(map(any, rows + cols)) or len(set(map(tuple, rows))) < len(rows):
            continue
        if len(set(cols)) < len(cols):
            continue
        want = row_echelon_bareiss(_evaluate(rows)[0])[0]
        assert pivot_columns(rows) == want, rows
        kept += 1
        lost += len(_first_point_pivots(rows)) < len(want)
    assert (kept, lost) == (170, 13)


def test_balanced_digits_round_trip():
    cases = [
        LaurentPoly(),
        LaurentPoly({0: -5, 3: 7, 4: -1, 9: 2}),
        LaurentPoly({2: -8, 6: 7, 7: -8}),
        LaurentPoly({0: 1, 11: -1}),
    ]
    for p in cases:
        assert _from_balanced_digits(sum(c << 4 * e for e, c in p.items()), 4) == p
    # a row evaluated one bit past its certified point reads back as the row, less its
    # lowest power of q
    rng = random.Random(21)
    for _ in range(200):
        row = [rand_poly(rng, cmax=40) for _ in range(rng.randint(1, 4))] + [rng.randint(-9, 9)]
        [values], k = _evaluate([row], 1)
        lo = min((_as_poly(e).min_exp() for e in row if e), default=0)
        want = [_as_poly(e).shift(-lo) for e in row]
        assert [_from_balanced_digits(v, k) for v in values] == want


def test_at_power_of_two_and_l1_norm():
    p = LaurentPoly({-1: 1, 2: -2, 5: 3})
    assert p.l1_norm() == 6 and LaurentPoly().l1_norm() == 0
    assert at_power_of_two(p, 3, 1) == 1 - 2 * 8**3 + 3 * 8**6
    assert at_power_of_two(LaurentPoly(), 5) == 0
    # with 2^k above the l1 norm, the value determines the polynomial
    rng = random.Random(24)
    for _ in range(200):
        p = rand_poly(rng, cmax=40)
        k = p.l1_norm().bit_length()
        shift = -p.min_exp()
        assert _from_balanced_digits(at_power_of_two(p, k + 1, shift), k + 1) == p.shift(shift)
