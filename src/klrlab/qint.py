"""Laurent polynomials in q with integer coefficients, plus exact fraction and elimination helpers."""

from itertools import accumulate, count
from math import gcd as _int_gcd
from math import prod
from operator import add as _add
from operator import sub as _sub


class LaurentPoly:
    """A Laurent polynomial in q, stored as {exponent: nonzero int coefficient}."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                if c:
                    c2 = t.get(e, 0) + c
                    if c2:
                        t[e] = c2
                    elif e in t:
                        del t[e]
        self._t = t

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def items(self):
        return self._t.items()

    def is_zero(self):
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # a constant hashes as the int it equals
        if self._t.keys() <= {0}:
            return hash(self._t.get(0, 0))
        return hash(tuple(sorted(self._t.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._t)
        for e, c in other._t.items():
            c2 = t.get(e, 0) + c
            if c2:
                t[e] = c2
            elif e in t:
                del t[e]
        out = LaurentPoly()
        out._t = t
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly()
        out._t = {e: -c for e, c in self._t.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, (int, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly()
            out._t = {e: c * other for e, c in self._t.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = {}
        for e1, c1 in self._t.items():
            for e2, c2 in other._t.items():
                e = e1 + e2
                c = t.get(e, 0) + c1 * c2
                if c:
                    t[e] = c
                elif e in t:
                    del t[e]
        out = LaurentPoly()
        out._t = t
        return out

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        out = LaurentPoly()
        out._t = {e + k: c for e, c in self._t.items()}
        return out

    def bar(self):
        """Substitute q -> q^{-1}."""
        out = LaurentPoly()
        out._t = {-e: c for e, c in self._t.items()}
        return out

    def l1_norm(self):
        """The sum of the absolute values of the coefficients."""
        return sum(map(abs, self._t.values()))

    def min_exp(self):
        return min(self._t) if self._t else 0

    def max_exp(self):
        return max(self._t) if self._t else 0

    def to_pairs(self):
        """JSON form: [[exponent, coefficient], ...] with exponents ascending."""
        return [[e, self._t[e]] for e in sorted(self._t)]

    def __repr__(self):
        if not self._t:
            return "0"
        bits = []
        for e in sorted(self._t, reverse=True):
            c = self._t[e]
            if e == 0:
                bits.append(f"{c:+d}")
            elif e == 1:
                bits.append(f"{c:+d}*q")
            else:
                bits.append(f"{c:+d}*q^{e}")
        s = " ".join(bits)
        return s[1:] if s.startswith("+") else s


def quantum_integer(n):
    """The balanced quantum integer [n] = q^{n-1} + q^{n-3} + ... + q^{1-n}, with [-n] = -[n]."""
    if n == 0:
        return LaurentPoly.zero()
    sign = 1 if n > 0 else -1
    m = abs(n)
    return LaurentPoly({m - 1 - 2 * k: sign for k in range(m)})


def _window_sums(c, m):
    """The coefficients of c times 1 + x + ... + x^(m-1): running sums of m entries of c."""
    if m == 1:
        return c
    pad = [0] * (m - 1)
    return list(accumulate(map(_sub, [*c, *pad], [0, *pad, *c])))


def dense_sum_times_quantum_integers(terms, shift):
    """q^shift times the sum of [r][n] * p over the terms (lo, c, r, n), r >= 1, on
    coefficient lists of one exponent-parity class.

    Each p is given as p = sum_k c[k] q^(lo + 2k), c a list or tuple with c[0] and c[-1]
    nonzero (an empty c is p = 0), and the result comes back the same way, as (lo, c)
    with c trimmed and (0, []) for zero.  [m] is a run of |m| monomials two degrees
    apart, so on such a list it is a running sum of |m| consecutive entries that lowers
    lo by |m| - 1, and [-m] is its negation.  All the products must lie in one parity
    class, as they do when lo + r + n has one parity over the terms (else ValueError);
    each is then added slice-wise into one list.  A single nonzero term needs no sum:
    its product with [r][n] keeps its end coefficients, up to sign, so it is already
    trimmed; with r = n = 1 its own c comes back, a tuple if it was given as one."""
    parts = []
    for lo, c, r, n in terms:
        if c and n:
            m = abs(n)
            parts.append((lo + shift - r - m + 2, _window_sums(_window_sums(c, r), m), n < 0))
    if not parts:
        return 0, []
    if len(parts) == 1:
        ((lo, c, neg),) = parts
        return lo, [-v for v in c] if neg else c
    base = min([lo for lo, _, _ in parts])
    size = max([lo + 2 * len(c) for lo, c, _ in parts]) - base
    if any((lo - base) & 1 for lo, _, _ in parts):
        raise ValueError("the products lie in two exponent-parity classes")
    acc = [0] * (size >> 1)
    for lo, c, neg in parts:
        k = (lo - base) >> 1
        end = k + len(c)
        acc[k:end] = map(_sub if neg else _add, acc[k:end], c)
    if acc[0] and acc[-1]:
        return base, acc
    first = next((k for k, v in enumerate(acc) if v), None)
    if first is None:
        return 0, []
    last = len(acc)
    while not acc[last - 1]:
        last -= 1
    return base + 2 * first, acc[first:last]


def from_parity_class(lo, c):
    """The LaurentPoly sum_k c[k] q^(lo + 2k) of a coefficient list of one parity class."""
    out = LaurentPoly()
    out._t = {e: v for e, v in zip(count(lo, 2), c) if v}
    return out


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (for gcd / exact division of Laurent polys)

def _to_dense(p):
    """LaurentPoly -> (shift, coefficient list c[0..d]) with c[0] != 0, as q^shift * sum c_k q^k."""
    if p.is_zero():
        return 0, []
    lo = p.min_exp()
    hi = p.max_exp()
    c = [0] * (hi - lo + 1)
    for e, v in p.items():
        c[e - lo] = v
    return lo, c


def _from_dense(shift, c):
    return LaurentPoly({shift + k: v for k, v in enumerate(c) if v})


def _dense_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_content(c):
    g = 0
    for v in c:
        g = _int_gcd(g, abs(v))
    return g or 1


def _dense_mul_scalar(c, s):
    return [v * s for v in c]


def _dense_pseudo_rem(f, g):
    """Pseudo-remainder of f by g (both dense int lists, g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lf = f[-1]
        f = _dense_mul_scalar(f, lg)
        for k in range(dg + 1):
            f[df - dg + k] -= lf * g[k]
        _dense_trim(f)
    return f


def _dense_gcd(f, g):
    """Primitive gcd of two dense int polynomials (primitive PRS); [1] when either is a
    nonzero constant."""
    f = _dense_trim(list(f))
    g = _dense_trim(list(g))
    if len(f) == 1 or len(g) == 1:
        return [1]
    while g:
        r = _dense_pseudo_rem(f, g)
        _dense_trim(r)
        if r:
            cont = _dense_content(r)
            r = [v // cont for v in r]
        f, g = g, r
    cont = _dense_content(f)
    f = [v // cont for v in f]
    if f and f[-1] < 0:
        f = [-v for v in f]
    return f


def _dense_divexact(f, g):
    """Exact quotient f/g of dense integer polynomials, with integer coefficients.

    Every caller divides where the quotient is integral: a Bareiss step, or a primitive
    polynomial by a primitive gcd (Gauss's lemma).  So each step of the long division
    divides by g's leading coefficient with `divmod`; a nonzero remainder there (the
    quotient is not integral) or a nonzero final remainder (g does not divide f) raises
    ArithmeticError.
    """
    dg = len(g) - 1
    lg = g[-1]
    work = list(f)
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        coef, r = divmod(work[i + dg], lg)
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[i] = coef
        if coef:
            for k in range(dg + 1):
                work[i + k] -= coef * g[k]
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return q


# the terms of the denominator 1
_UNIT = {0: 1}


class LaurentFrac:
    """A reduced fraction of Laurent polynomials: numerator and denominator share no
    polynomial or integer factor, and the denominator has lowest exponent 0 and a
    positive leading coefficient.

    A polynomial is already reduced, with denominator 1, so `LaurentFrac(num)` and the
    sum and product of two fractions with denominator 1 skip the gcd (and so does their
    difference, a sum with the negation)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        if den is None:
            # a polynomial is already in canonical form
            self.num = num
            self.den = LaurentPoly.one()
            return
        if isinstance(den, int):
            den = LaurentPoly({0: den})
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        sn, fn = _to_dense(num)
        sd, fd = _to_dense(den)
        cn, cd = _dense_content(fn), _dense_content(fd)
        pn = [v // cn for v in fn]
        pd = [v // cd for v in fd]
        g = _dense_gcd(pn, pd)
        if len(g) > 1 or g[0] != 1:
            pn = _dense_divexact(pn, g)
            pd = _dense_divexact(pd, g)
        cg = _int_gcd(cn, cd)
        cn //= cg
        cd //= cg
        if pd[-1] < 0:
            pd = [-v for v in pd]
            pn = [-v for v in pn]
        if cd < 0:
            cd = -cd
            cn = -cn
        # absorb the q-power shift entirely into the numerator
        self.num = _from_dense(sn - sd, _dense_mul_scalar(pn, cn))
        self.den = _from_dense(0, _dense_mul_scalar(pd, cd))

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = LaurentFrac(other)
        if not isinstance(other, LaurentFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial hashes as its numerator, which it equals
        if self.den._t == _UNIT:
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = LaurentFrac(other)
        if self.den._t == _UNIT and other.den._t == _UNIT:
            return LaurentFrac(self.num + other.num)
        return LaurentFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentFrac.__new__(LaurentFrac)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = LaurentFrac(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = LaurentFrac(other)
        if self.den._t == _UNIT and other.den._t == _UNIT:
            return LaurentFrac(self.num * other.num)
        return LaurentFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def to_record(self):
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    def __repr__(self):
        if self.den == LaurentPoly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# fraction-free elimination (Bareiss) over Z, and Laurent matrices evaluated into it

def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact integer division in elimination")
    return q


def row_echelon_bareiss(rows):
    """Fraction-free row reduction of an integer matrix; returns (pivot column list,
    reduced rows).  Works on a copy.

    Every intermediate entry is a minor of the input (Bareiss, from Sylvester's
    identity), so each division is exact."""
    m = [list(r) for r in rows]
    if not m:
        return [], m
    ncols = len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for row in m[r + 1 :]:
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = _exact_div(p * row[j] - f * top[j], prev)
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, m


def _dense_entry(e):
    """An elimination entry (see `_evaluate`) as (lo, step, c), the polynomial
    sum_j c[j] q^(lo + step j)."""
    if isinstance(e, tuple):
        return e[0], 2, e[1]
    if isinstance(e, LaurentPoly):
        lo, c = _to_dense(e)
        return lo, 1, c
    return 0, 1, (e,) if e else ()


def _nonzero(e):
    """Whether an elimination entry (see `_evaluate`) is nonzero; a pair (lo, ()) is
    zero, though a nonempty tuple."""
    return bool(e[1] if isinstance(e, tuple) else e)


def _prepare(rows):
    """A matrix of elimination entries (see `_evaluate`) made ready to evaluate: each
    row as (low, entries), every entry in `_dense_entry`'s form and low the least
    exponent of the row, together with the l1 norms of the entries, as rows."""
    prepared = []
    norms = []
    for row in rows:
        ds = [_dense_entry(e) for e in row]
        prepared.append((min([lo for lo, _, c in ds if c], default=0), ds))
        norms.append([sum(map(abs, c)) for _, _, c in ds])
    return prepared, norms


def _at(prepared, k):
    """The rows of `_prepare`, each times q^-low, as integer rows at q = 2^k."""
    return [
        [sum([v << k * (lo - low + step * j) for j, v in enumerate(c) if v]) for lo, step, c in ds]
        for low, ds in prepared
    ]


def _evaluate(rows, spare_bits=0, width=None):
    """A matrix of elimination entries as an integer matrix at a certified point q = 2^k;
    returns (integer rows, k).

    An elimination entry is an int, a LaurentPoly or a pair (lo, c), c a tuple: the
    polynomial sum_j c[j] q^(lo + 2j) of one exponent-parity class (zero when c is
    empty, whatever lo is).  The pair is the form in which `uqmod._gram_entry` keeps
    each entry of the contravariant form, once; Gram ranks, basis pivots and solves
    read it here as it is, and `uqmod` builds a LaurentPoly from it only where its
    public API hands one out.

    Each row is first multiplied by the power of q that makes it polynomial, a unit, so
    no minor changes whether it is zero.  With B = prod_i max(1, sum_j |M_ij|_1), every
    minor has l1 norm at most B (expand the product of the row sums), and a nonzero
    integer polynomial has no root of modulus at least its l1 norm (Cauchy's bound).
    So with k = B.bit_length() + spare_bits no minor vanishes at 2^k unless it is 0,
    and `row_echelon_bareiss`, whose intermediate entries are all minors, takes the
    same row swaps and pivot columns on the integers as on the polynomials.

    With `width`, the columns from `width` on are right-hand sides, and only the minors
    that border the first `width` columns with at most one of them need the bound
    (`solve_linear`): a row's factor of B is then the sum of its first `width` norms
    plus the largest of the rest.  `pivot_columns` sizes its own point by the minors it
    reads, on the same preparation (`_prepare`, `_at`)."""
    prepared, norms = _prepare(rows)
    bound = 1
    for row in norms:
        if width is not None:
            row = row[:width] + [max(row[width:], default=0)]
        bound *= max(1, sum(row))
    k = bound.bit_length() + spare_bits
    return _at(prepared, k), k


def at_power_of_two(p, k, shift=0):
    """The integer value of q^shift * p at q = 2^k; q^shift * p must be a polynomial.

    Two Laurent polynomials of that form are equal iff their values are, once 2^k
    exceeds the l1 norm of their difference (Cauchy's bound, as in `_evaluate`)."""
    return sum([c << k * (e + shift) for e, c in p._t.items()])


def _from_balanced_digits(v, k):
    """The polynomial with coefficients in [-2^(k-1), 2^(k-1)) whose value at q = 2^k is v,
    for k >= 2.  Each step divides |v| by 2^k and adds less than 1, so a value of b bits
    has at most b // k + 2 digits."""
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    t = {}
    for e in range(v.bit_length() // k + 2):
        c = ((v + half) & mask) - half
        if c:
            t[e] = c
        v = (v - c) >> k
    out = LaurentPoly()
    out._t = t
    return out


def pivot_columns(rows):
    """The pivot columns of the row echelon form of a matrix of elimination entries
    (ints, LaurentPolys and (lo, c) pairs, `_evaluate`).

    The matrix is pruned before it is evaluated: a row that is zero or equal to an
    earlier row is dropped, and then so is a column that is zero or equal to an earlier
    column.  The dropped rows leave the row space as it is, and so every dependency
    among the columns.  A dropped column is zero or a copy of a column before it, so it
    never raises the rank of the columns to its left and is never a pivot; nor does it
    change the rank of any set of the other columns.  So the pivots of the pruned
    matrix, mapped back to the columns they came from, are the pivots of the matrix.
    Entries are compared as they are given, so an int and the pair that stands for the
    same polynomial count as different, which only prunes less.

    A single row's pivot is its first nonzero column.  A larger matrix, n = min(rows,
    columns) after pruning, is eliminated over Z at a point 2^k sized to the minors the
    elimination reads.  With each row made polynomial as in `_evaluate`, let B_s be the
    lesser of the products of the s largest row l1 sums and of the s largest column l1
    sums (of all of them, where there are fewer); no pruned row or column is zero, so
    each sum is at least 1.  Expanding either product bounds the l1 norm of every
    minor of size at most s, so no such minor vanishes at 2^k, k >= B_s.bit_length(),
    unless it is 0 (Cauchy's bound).
    Once t pivots are found, the elimination tests only (t + 1)-minors (Bareiss: its
    entries are the minors that border the pivot rows and columns with one more), so a
    run that finds r pivots has tested minors of size at most s = min(r + 1, n) and no
    larger.  If B_s.bit_length() <= k, each of those tests answers as it does on the
    polynomials, so the polynomial elimination takes the same row swaps and pivots and
    the run is certified; otherwise the matrix is eliminated again at
    k = B_s.bit_length().  k starts at B_2.bit_length() and only grows, so this ends,
    at the latest at B_n, which is at most `_evaluate`'s bound.  A run with a pivot in
    every column is certified at once: its pivots are nonzero minors, so the columns
    are independent on the polynomials as well.  A matrix of two rows has no minor
    larger than 2, and the product of its two row sums bounds them all, so it is
    eliminated once, at that point, without the sorted sums."""
    if len(rows) > 1:
        rows = list(dict.fromkeys(tuple(row) for row in rows if any(map(_nonzero, row))))
    if len(rows) < 2:
        return next(([c] for c, e in enumerate(rows[0]) if _nonzero(e)), []) if rows else []
    cols = {}
    for c, col in enumerate(zip(*rows)):
        if any(map(_nonzero, col)):
            cols.setdefault(col, c)
    index = list(cols.values())
    prepared, norms = _prepare(list(zip(*cols)))
    if len(norms) == 2:
        k = (sum(norms[0]) * sum(norms[1])).bit_length()
        return [index[c] for c in row_echelon_bareiss(_at(prepared, k))[0]]
    row_sums = sorted(map(sum, norms), reverse=True)
    col_sums = sorted(map(sum, zip(*norms)), reverse=True)
    n = min(len(row_sums), len(col_sums))
    k = min(prod(row_sums[:2]), prod(col_sums[:2])).bit_length()
    while True:
        pivots = row_echelon_bareiss(_at(prepared, k))[0]
        if len(pivots) == len(index):
            break
        s = min(len(pivots) + 1, n)
        need = min(prod(row_sums[:s]), prod(col_sums[:s])).bit_length()
        if need <= k:
            break
        k = need
    return [index[c] for c in pivots]


def matrix_rank(rows):
    """Rank of a matrix of elimination entries (`_evaluate`)."""
    return len(pivot_columns(rows))


def solve_linear(matrix, *columns):
    """Solve M x = b exactly for each right-hand side b in `columns`; returns one list of
    LaurentFracs per column.  Entries are elimination entries (ints, LaurentPolys and
    (lo, c) pairs, `_evaluate`).

    `[M | b_1 | b_2 | ...]` is evaluated one bit past the point q = 2^k that certifies
    every minor bordering M with at most one right-hand side (`_evaluate` with
    `width`), and eliminated over Z once; M is nonsingular iff the pivots are the
    columns 0..n-1 (else ArithmeticError).  Back substitution without fractions gives
    P_i = D x_i for each column, with D the last pivot.  D and P_i are det M and
    det M_i (Cramer's rule), minors of [M | b] whose coefficients lie below 2^(k-1) in
    absolute value, so each is read back from its balanced base-2^k digits.  A single
    equation m x = b with m nonzero is x = b/m, without the evaluation."""
    n = len(matrix)
    if n == 1 and _nonzero(matrix[0][0]):
        m, *bs = (
            from_parity_class(*e) if isinstance(e, tuple) else e
            for e in (matrix[0][0], *(col[0] for col in columns))
        )
        return [[LaurentFrac(b, m)] for b in bs]
    augmented = [list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
    rows, k = _evaluate(augmented, 1, n)
    pivots, m = row_echelon_bareiss(rows)
    if pivots != list(range(n)):
        raise ArithmeticError("singular system")
    d = m[n - 1][n - 1] if n else 1
    den = _from_balanced_digits(d, k)
    out = []
    for t in range(n, n + len(columns)):
        p = [0] * n
        for i in range(n - 1, -1, -1):
            acc = d * m[i][t] - sum(m[i][j] * p[j] for j in range(i + 1, n))
            p[i] = _exact_div(acc, m[i][i])
        out.append([LaurentFrac(_from_balanced_digits(v, k), den) for v in p])
    return out
