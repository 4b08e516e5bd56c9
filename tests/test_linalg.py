import random
import time
from fractions import Fraction
from math import floor, lcm

import pytest

from truncalg.errors import UnsupportedRingError
import truncalg.linalg as linalg
from truncalg.linalg import (
    Mat,
    SNFResult,
    _snf_chain,
    base_snf,
    expand_matrix,
    expand_rows,
    in_row_span,
    invert,
    kernel_left,
    reassemble_rows,
    smith_normal_form,
    solve_left,
    solve_left_info,
    solve_left_mod,
)
from truncalg.cw import ZRING
from truncalg.modules import (PresentedModule, decompose_elementary, elementary_divisors,
                              failure_primes)
from truncalg.rings import (
    LocalizedIntegers,
    TruncatedBK,
    TruncatedLambda,
    TruncatedPadic,
    TruncatedPowerSeries,
    _PolyTruncMixin,
    primes_outside,
)

Z2_6 = TruncatedPadic(2, 6)
Z3_4 = TruncatedPadic(3, 4)
S1 = TruncatedPowerSeries(3, 3)
Z = LocalizedIntegers(())
ZL2 = LocalizedIntegers((2,))
Z6 = LocalizedIntegers((2, 3))
BK = TruncatedBK(3, 2, 2)
LAM = TruncatedLambda((2,), 2)


def mk(ring, rows):
    return Mat(len(rows), len(rows[0]) if rows else 0,
               [[ring.from_int(x) if isinstance(x, int) else x for x in r] for r in rows])


def brute_divisor_valuations(mat, ring):
    """Independent oracle for chain-ring SNF: valuations of elementary divisors
    from greatest-common-valuation of minors (Smith's classical determinantal
    characterization), computed by brute-force minor expansion."""
    from itertools import combinations

    def det(rows, cols):
        if not rows:
            return ring.one
        i = rows[0]
        acc = ring.zero
        sign = ring.one
        for idx, j in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            acc = ring.add(acc, ring.mul(sign, ring.mul(mat.data[i][j], sub)))
            sign = ring.neg(sign)
        return acc

    vals = []
    prev = 0
    for k in range(1, min(mat.rows, mat.cols) + 1):
        best = None
        for rows in combinations(range(mat.rows), k):
            for cols in combinations(range(mat.cols), k):
                d = det(list(rows), list(cols))
                if not ring.is_zero(d):
                    v = ring.val(d)
                    best = v if best is None else min(best, v)
        if best is None:
            vals.append(None)  # divisor zero at truncation
            prev = None
        else:
            vals.append(best - prev)
            prev = best
    return vals


def test_snf_already_diagonal():
    ring = TruncatedPadic(2, 5)
    m = mk(ring, [[2, 0], [0, 4]])
    res = smith_normal_form(m, ring)
    assert res.divisors == [2, 4]
    assert res.verify(m, ring)


def test_snf_identity():
    res = smith_normal_form(Mat.identity(2, Z2_6), Z2_6)
    assert res.divisors == [1, 1]


def test_snf_derived_golden_2468():
    # oracle first: determinant -8, content 2 -> divisor valuations (1, 2)
    m = mk(Z2_6, [[2, 4], [6, 8]])
    assert brute_divisor_valuations(m, Z2_6) == [1, 2]
    res = smith_normal_form(m, Z2_6)
    assert res.divisors == [2, 4]
    assert res.verify(m, Z2_6)


def test_snf_unsupported_rings():
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(Mat.identity(1, BK), BK)
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(Mat.identity(1, LAM), LAM)


def test_snf_localized_strips_s_primes():
    m = mk(ZL2, [[Fraction(6), 0], [0, Fraction(10)]])
    res = smith_normal_form(m, ZL2)
    assert res.divisors == [Fraction(1), Fraction(15)] or res.divisors == [Fraction(3), Fraction(5)]
    # divisors form a chain and carry no factor 2
    d1, d2 = res.divisors
    assert d2 % d1 == 0
    assert res.verify(m, ZL2)


def random_matrix(ring, rng, rows, cols):
    def rand_elt():
        if isinstance(ring, LocalizedIntegers):
            return Fraction(rng.randint(-12, 12), 2 ** rng.randint(0, 2))
        if isinstance(ring, TruncatedPadic):
            return ring.from_int(rng.randint(0, ring.modulus - 1))
        if isinstance(ring, TruncatedLambda):
            return ring.from_coeffs([Fraction(rng.randint(-6, 6)) for _ in range(ring.mlen)])
        return ring.from_coeffs([ring.scalar.from_int(rng.randint(0, 8)) for _ in range(ring.mlen)])

    return Mat(rows, cols, [[rand_elt() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("ring", [Z2_6, Z3_4, S1, ZL2], ids=lambda r: type(r).__name__)
def test_snf_random_verified(ring):
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = random_matrix(ring, rng, rows, cols)
        res = smith_normal_form(m, ring)
        assert res.verify(m, ring)
        vals = []
        for d in res.divisors:
            if ring.is_zero(d):
                vals.append(float("inf"))
            elif isinstance(ring, LocalizedIntegers):
                vals.append(0)
            else:
                vals.append(ring.val(d))
        assert vals == sorted(vals)


def sparse_matrix(ring, rng, rows, cols, zero_share):
    m = random_matrix(ring, rng, rows, cols)
    return Mat(rows, cols, [[ring.zero if rng.random() < zero_share else x for x in r]
                            for r in m.data])


def naive_product(a, b, ring):
    """Entry (i, j) summed over k in one pass, the textbook triple loop."""
    return Mat(a.rows, b.cols,
               [[ring.sum(ring.mul(a.data[i][k], b.data[k][j]) for k in range(a.cols))
                 for j in range(b.cols)] for i in range(a.rows)])


class _Worker:
    """Mutable state for SNF: applies elementary ops to the matrix and to the
    witnesses left and right."""

    def __init__(self, mat, ring):
        self.ring = ring
        self.a = [list(r) for r in mat.data]
        self.rows = mat.rows
        self.cols = mat.cols
        one, zero = ring.one, ring.zero

        def identity(n):
            return [[one if i == j else zero for j in range(n)] for i in range(n)]

        self.l = identity(mat.rows)
        self.r = identity(mat.cols)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.l[i], self.l[j] = self.l[j], self.l[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.r:
            row[i], row[j] = row[j], row[i]

    def scale_row(self, i, u):
        """row_i *= u, u a unit"""
        rg = self.ring
        self.a[i] = [rg.mul(u, x) for x in self.a[i]]
        self.l[i] = [rg.mul(u, x) for x in self.l[i]]

    def add_row(self, dst, src, c):
        """row_dst += c * row_src, skipping the zero entries of row_src."""
        add, mul, is_zero = self.ring.add, self.ring.mul, self.ring.is_zero
        for rows in (self.a, self.l):
            rows[dst] = [x if is_zero(y) else add(x, mul(c, y))
                         for x, y in zip(rows[dst], rows[src])]

    def add_col(self, dst, src, c):
        """col_dst += c * col_src, skipping the zero entries of col_src."""
        add, mul, is_zero = self.ring.add, self.ring.mul, self.ring.is_zero
        for row in self.a + self.r:
            y = row[src]
            if not is_zero(y):
                row[dst] = add(row[dst], mul(c, y))

    def result(self):
        k = min(self.rows, self.cols)
        return SNFResult(
            left=Mat(self.rows, self.rows, self.l),
            right=Mat(self.cols, self.cols, self.r),
            divisors=[self.a[i][i] for i in range(k)],
        )


def unit_part(ring, x):
    """u with x = u * uniformizer^v(x) over a chain ring."""
    return ring.shift_down(x, ring.val(x))


def divide(ring, x, y):
    """q with q*y = x, or None: over a chain ring when v(x) >= v(y), over
    Z[1/S] when x/y has its denominator supported on S."""
    if ring.is_zero(x):
        return ring.zero
    if ring.is_zero(y):
        return None
    if ring.untruncated:
        q = x / y
        return q if ring.strip_s(q.denominator) == 1 else None
    v = ring.val(y)
    if ring.val(x) < v:
        return None
    return ring.mul(ring.shift_down(x, v), ring.inv(unit_part(ring, y)))


def reference_snf_chain(mat, ring):
    """`_snf_chain` as it was before its pivot scan stopped at a unit: every
    entry of the remaining block is scanned for the least valuation."""
    w = _Worker(mat, ring)
    for k in range(min(mat.rows, mat.cols)):
        best = None
        for i in range(k, w.rows):
            for j in range(k, w.cols):
                x = w.a[i][j]
                if ring.is_zero(x):
                    continue
                v = ring.val(x)
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        w.swap_rows(k, bi)
        w.swap_cols(k, bj)
        unit = unit_part(ring, w.a[k][k])
        if unit != ring.one:
            w.scale_row(k, ring.inv(unit))
        pivot = w.a[k][k]
        for i in range(k + 1, w.rows):
            if not ring.is_zero(w.a[i][k]):
                q = divide(ring, w.a[i][k], pivot)
                w.add_row(i, k, ring.neg(q))
        for j in range(k + 1, w.cols):
            if not ring.is_zero(w.a[k][j]):
                q = divide(ring, w.a[k][j], pivot)
                w.add_col(j, k, ring.neg(q))
    return w.result()


@pytest.mark.parametrize("ring", [Z2_6, Z3_4, TruncatedPadic(5, 3), S1,
                                  TruncatedPowerSeries(2, 4), TruncatedPowerSeries(3, 1)],
                         ids=repr)
def test_snf_chain_pivot_matches_full_scan(ring):
    """Stopping the pivot scan at the first unit picks the pivot the full
    scan picks: left, right and divisors are equal, not just valid.  The
    inputs include zero matrices, matrices with no unit entry (every entry
    times a power of the uniformizer) and matrices whose units sit in a
    late row only."""
    rng = random.Random(37)
    for style in ("dense", "no_unit", "late_unit", "zero") * 20:
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = random_matrix(ring, rng, rows, cols)
        if style == "zero":
            m = Mat.zero(rows, cols, ring)
        elif style in ("no_unit", "late_unit"):
            keep = rows - 1 if style == "late_unit" else rows
            m = Mat(rows, cols, [[ring.mul(ring.uniformizer_power(rng.randint(1, 2)), x)
                                  if i < keep else x for x in row]
                                 for i, row in enumerate(m.data)])
        if style == "no_unit":
            assert all(ring.is_zero(x) or ring.val(x) > 0 for row in m.data for x in row)
        fast, full = _snf_chain(m, ring), reference_snf_chain(m, ring)
        assert fast.left == full.left and fast.right == full.right
        assert fast.divisors == full.divisors
        assert fast.verify(m, ring)


PADIC_RINGS = [TruncatedPadic(p, k) for p in (2, 3, 5) for k in (1, 2, 3, 4)]


def padic_cases(ring, rng):
    """Seeded Z/p^k matrices: empty shapes, zero rows and columns, unit and
    non-unit pivots, and all-zero blocks (a nonzero corner in an otherwise
    zero matrix, and rank-deficient stacks that leave a zero block)."""
    p = ring.p
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        yield Mat.zero(rows, cols, ring)
    for _ in range(12):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        yield sparse_matrix(ring, rng, rows, cols, rng.choice((0.0, 0.5)))
        m = random_matrix(ring, rng, rows, cols)
        data = [list(r) for r in m.data]
        data[rng.randrange(rows)] = [0] * cols
        for row in data:
            row[rng.randrange(cols)] = 0
        yield Mat(rows, cols, data)
        yield Mat(rows, cols, [[ring.mul(p ** rng.randint(1, 2) % ring.modulus, x) for x in r]
                               for r in m.data])
        yield Mat(rows, cols, [[x if i == rows - 1 else p * x % ring.modulus for x in r]
                               for i, r in enumerate(m.data)])
        corner = Mat.zero(rows, cols, ring).tolist()
        corner[-1][-1] = ring.from_int(p ** rng.randint(0, ring.precision_n - 1))
        yield Mat(rows, cols, corner)
        top = random_matrix(ring, rng, 2, cols)
        yield top.vstack(Mat(rows, 2, [[rng.randrange(ring.modulus) for _ in range(2)]
                                       for _ in range(rows)]).mul(top, ring))


def reference_solve_snf(snf, b, ring, failures):
    """`_solve_snf` with a ring call on every entry: `divide` and the
    triple-loop products."""
    rows, cols = snf.left.rows, snf.right.rows
    c = naive_product(b, snf.right, ring)
    ys = []
    for i in range(b.rows):
        y = [ring.zero] * rows
        for j in range(cols):
            cj = c.data[i][j]
            if j < len(snf.divisors):
                q = divide(ring, cj, snf.divisors[j])
                if q is None:
                    failures.append((i, j, snf.divisors[j], cj))
                else:
                    y[j] = q
            elif not ring.is_zero(cj):
                failures.append((i, j, ring.zero, cj))
        ys.append(y)
    return None if failures else naive_product(Mat(b.rows, rows, ys), snf.left, ring)


@pytest.mark.parametrize("ring", PADIC_RINGS, ids=repr)
def test_snf_padic_equals_chain_kernel(ring):
    """The integer kernel returns `_snf_chain`'s left, right and divisors
    exactly, and `base_snf` serves Z/p^N from it.  On the same inputs the
    integer products and the integer solve equal the ring-call routes:
    solutions and failure records alike."""
    rng = random.Random(2100 + 10 * ring.p + ring.precision_n)
    for m in padic_cases(ring, rng):
        fast, chain = linalg._snf_padic(m, ring), _snf_chain(m, ring)
        assert (fast.left, fast.right, fast.divisors) == (chain.left, chain.right, chain.divisors)
        assert all(type(d) is int for d in fast.divisors)
        base_snf.cache_clear()
        assert base_snf(m, ring) == fast
        for a, b in ((fast.left, m), (m, fast.right), (fast.left, fast.left)):
            assert a.mul(b, ring) == naive_product(a, b, ring)
        xs = random_matrix(ring, rng, 2, m.rows)
        targets = [xs.mul(m, ring), random_matrix(ring, rng, 3, m.cols),
                   sparse_matrix(ring, rng, 2, m.cols, 0.7)]
        for b in targets:
            got, want = [], []
            sol = linalg._solve_snf(fast, b, ring, got, fast.left.rows)
            assert sol == reference_solve_snf(fast, b, ring, want)
            assert got == want
        if m.rows:
            assert linalg._solve_snf(fast, targets[0], ring, [], fast.left.rows) is not None


Z_FAMILY_RINGS = ([TruncatedBK(p, k, m) for p, k, m in ((2, 3, 3), (3, 2, 4), (5, 4, 6))]
                  + [TruncatedPowerSeries(p, m) for p, m in ((2, 3), (3, 4), (5, 6))])


@pytest.mark.parametrize("ring", Z_FAMILY_RINGS, ids=repr)
def test_z_family_mul_equals_ring_calls(ring):
    """The integer product of the z-families equals the coefficient-by-
    coefficient ring-call product, on zero, unit and non-unit factors."""
    rng = random.Random(2101)
    q = ring.scalar.modulus
    elems = [ring.zero, ring.one, ring.var_power(1), ring.var_power(ring.mlen - 1)]
    elems += [ring.from_coeffs([rng.randrange(q) if rng.random() < share else 0
                                for _ in range(ring.mlen)])
              for share in (1.0, 0.5, 0.2) for _ in range(8)]
    elems += [ring.mul(ring.from_int(ring.p), x) for x in elems[4:12]]
    for x in elems:
        for y in elems:
            assert ring.mul(x, y) == _PolyTruncMixin.mul(ring, x, y)


@pytest.mark.parametrize("ring", Z_FAMILY_RINGS, ids=repr)
def test_z_family_add_neg_inv_equal_ring_calls(ring):
    """The integer sum, negation and unit inverse of the z-families equal
    the coefficient-by-coefficient scalar-ring-call routes."""
    rng = random.Random(2201)
    q = ring.scalar.modulus
    elems = [ring.zero, ring.one, ring.var_power(1), ring.var_power(ring.mlen - 1)]
    elems += [ring.from_coeffs([rng.randrange(q) if rng.random() < share else 0
                                for _ in range(ring.mlen)])
              for share in (1.0, 0.5, 0.2) for _ in range(8)]
    units = [ring.add(ring.one, ring.mul(ring.from_int(ring.p), x)) for x in elems]
    units += [x for x in elems if ring.is_unit(x)]
    for x in elems:
        assert ring.neg(x) == _PolyTruncMixin.neg(ring, x)
        for y in elems:
            assert ring.add(x, y) == _PolyTruncMixin.add(ring, x, y)
    for u in units:
        assert ring.inv(u) == _PolyTruncMixin.inv(ring, u)
        assert ring.mul(u, ring.inv(u)) == ring.one
    with pytest.raises(ValueError):
        ring.inv(ring.var_power(1))


def reference_snf_localized(mat, ring):
    """`_snf_localized` transcribed onto Fractions through `_Worker`: rows
    scaled by Fraction(den), the same pivot order, each step's multiplier the
    Fraction floor(entry/pivot + 1/2) and the same fix-up.  A negative
    divisor's row is negated before the S-strip, where the kernel folds the
    sign into the strip's unit factor."""
    w = _Worker(mat, ring)
    for i in range(w.rows):
        den = 1
        for x in w.a[i]:
            den = lcm(den, x.denominator)
        if den != 1:
            w.scale_row(i, Fraction(den))

    def entry(i, j):
        return int(w.a[i][j])

    def nearest(b, a):
        return Fraction(floor(Fraction(b, a) + Fraction(1, 2)))

    for k in range(min(w.rows, w.cols)):
        while True:
            best = None
            for i in range(k, w.rows):
                for j in range(k, w.cols):
                    x = entry(i, j)
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
            if best is None:
                break
            _, bi, bj = best
            w.swap_rows(k, bi)
            w.swap_cols(k, bj)
            a = entry(k, k)
            for i in range(k + 1, w.rows):
                if entry(i, k):
                    w.add_row(i, k, -nearest(entry(i, k), a))
            for j in range(k + 1, w.cols):
                if entry(k, j):
                    w.add_col(j, k, -nearest(entry(k, j), a))
            if (any(entry(k, j) for j in range(k + 1, w.cols))
                    or any(entry(i, k) for i in range(k + 1, w.rows))):
                continue
            bad = None
            for i in range(k + 1, w.rows):
                for j in range(k + 1, w.cols):
                    if entry(i, j) % a != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            w.add_row(k, bad, Fraction(1))
        if entry(k, k) < 0:
            w.scale_row(k, Fraction(-1))

    for k in range(min(w.rows, w.cols)):
        d = int(w.a[k][k])
        if d == 0:
            continue
        stripped = ring.strip_s(d)
        if stripped != d:
            w.scale_row(k, Fraction(stripped, d))
    return w.result()


def reference_solve_localized(snf, b, ring, failures, lead):
    """`_solve_snf` over Z[1/S] as it read the Fraction witnesses: each row
    of b scaled by the lcm D of its denominators, times the numerators of
    right; the integer divisor rule; the quotients Fraction(cj // d, D); and
    their Fraction product with the first `lead` columns of left."""
    rows, ndiv = snf.left.rows, len(snf.divisors)
    divisors = snf.divisors + [ring.zero] * (snf.right.cols - ndiv)
    rint = [[x.numerator for x in row] for row in snf.right.data]
    dens, c = [], []
    for row in b.data:
        den = lcm(*(x.denominator for x in row))
        scaled = [x.numerator * (den // x.denominator) for x in row]
        dens.append(den)
        c.append([sum(x * y for x, y in zip(scaled, col)) for col in zip(*rint)])
    for i, ci in enumerate(c):
        for j, cj in enumerate(ci):
            d = divisors[j].numerator
            if cj and (not d or cj % d):
                failures.append((i, j, divisors[j], Fraction(cj, dens[i])))
    if failures:
        return None
    ys = [[Fraction(cj // d.numerator, den) if cj else ring.zero
           for cj, d in zip(ci, divisors[:ndiv])] + [ring.zero] * (rows - ndiv)
          for ci, den in zip(c, dens)]
    left = Mat(rows, lead, [r[:lead] for r in snf.left.data])
    return naive_product(Mat(b.rows, rows, ys), left, ring)


def reference_kernel_localized(snf, ring, lead):
    """`_kernel_snf` over Z[1/S] as it read the Fraction witness left: each
    row of left times the generator of its divisor's annihilator (1 for a
    zero divisor; a nonzero one annihilates nothing), kept when nonzero,
    then the rows past the divisors."""
    gens = []
    for j, d in enumerate(snf.divisors):
        a = ring.one if d == 0 else None
        if a is None:
            continue
        row = snf.left.data[j]
        if any(not ring.is_zero(ring.mul(a, x)) for x in row):
            gens.append([ring.mul(a, x) for x in row[:lead]])
    gens.extend(snf.left.data[j][:lead] for j in range(len(snf.divisors), snf.left.rows))
    return Mat.from_rows(gens, lead)


def reference_diagonalizes(snf, mat, ring):
    """`SNFResult.diagonalizes` as it read the Fraction witnesses: the
    triple-loop product left . mat . right against diag(divisors)."""
    lhs = naive_product(naive_product(snf.left, mat, ring), snf.right, ring)
    return lhs == snf.diagonal(mat.rows, mat.cols, ring)


def assert_same_snf(m, ring):
    """The kernel's witnesses and divisors equal the reference's, the
    divisors are nonnegative S-free integers each dividing the next, and
    L . m . R = D with invertible witnesses: since the SNF is unique, that
    certifies the divisors."""
    got, ref = smith_normal_form(m, ring), reference_snf_localized(m, ring)
    assert got.left == ref.left and got.right == ref.right, m
    assert got.divisors == ref.divisors, m
    ds = [int(d) for d in got.divisors]
    assert ds == got.divisors and all(d >= 0 and (d == 0 or ring.strip_s(d) == d) for d in ds), m
    assert all(e == 0 if d == 0 else e % d == 0 for d, e in zip(ds, ds[1:])), m
    assert got.verify(m, ring), m


def localized_matrix(ring, rng, rows, cols):
    """Seeded entries up to 10^6 in size over denominators up to 2^3 * 3^2
    (as far as S allows); a random row and column may be zero."""
    caps = {2: 3, 3: 2}
    size = rng.choice((10, 1000, 10 ** 6))

    def rand_elt():
        den = 1
        for q in ring.inverted_primes:
            den *= q ** rng.randint(0, caps[q])
        return Fraction(rng.randint(-size, size), den)

    data = [[rand_elt() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [ring.zero] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = ring.zero
    return Mat(rows, cols, data)


@pytest.mark.parametrize("ring", [Z, ZL2, LocalizedIntegers((2, 3))], ids=repr)
def test_snf_localized_matches_fraction_reference(ring):
    """The integer elimination returns the Fraction route's left, right and
    divisors exactly, on dense, sparse, zero-row, zero-column and empty
    shapes."""
    rng = random.Random(53)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
    for rows, cols in shapes:
        assert_same_snf(localized_matrix(ring, rng, rows, cols), ring)


def test_snf_localized_matches_fraction_reference_on_lambda_expansions():
    """The Z[1/2] SNF of expanded TruncatedLambda((2,), 3) matrices equals
    the Fraction route's, and so does the memo's entry for the Lambda key."""
    lam = TruncatedLambda((2,), 3)
    base = lam.scalar
    rng = random.Random(59)
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Mat(rows, cols, [[lam.from_coeffs(
            [Fraction(rng.randint(-50, 50), 2 ** rng.randint(0, 3)) for _ in range(lam.mlen)])
            for _ in range(cols)] for _ in range(rows)])
        expanded = expand_matrix(m, lam)
        assert_same_snf(expanded, base)
        memo = base_snf(m, lam)
        ref = reference_snf_localized(expanded, base)
        assert (memo.left, memo.right, memo.divisors) == (ref.left, ref.right, ref.divisors)


@pytest.mark.parametrize("ring, rows, divisors, left, right", [
    (Z, [[2], [4]], [2], [[1, 0], [-2, 1]], [[1]]),
    (Z, [[5], [8]], [1], [[-3, 2], [-8, 5]], [[1]]),
    (Z, [[5, 8]], [1], [[1]], [[-3, -8], [2, 5]]),
    (Z, [[2, 0], [0, 3]], [1, 6], [[-1, -1], [3, 4]], [[-2, -3], [1, 2]]),
    (Z, [[-3]], [3], [[-1]], [[1]]),
    (ZL2, [[12]], [3], [[Fraction(1, 4)]], [[1]]),
], ids=["divisible_row", "nearest_row", "nearest_col", "bad_entry", "sign_flip", "s_strip"])
def test_snf_localized_branches(ring, rows, divisors, left, right):
    """Each input takes one branch of the integer elimination and gives these
    exact divisors and witnesses.  8 = 2 * 5 - 2: the nearest quotient is 2,
    not the floor 1, in the row step of [[5], [8]] and the column step of
    [[5, 8]].  [[2, 0], [0, 3]] needs the fix-up that adds the row of the
    entry 2 does not divide to the pivot row.  Every divisor and witness
    entry the caller gets is a Fraction."""
    m = mk(ring, rows)
    res = linalg._snf_localized(m, ring)
    assert (res.divisors, res.left.tolist(), res.right.tolist()) == (divisors, left, right)
    assert res.verify(m, ring)
    entries = res.divisors + [x for w in (res.left, res.right) for row in w.data for x in row]
    assert all(type(x) is Fraction for x in entries), entries


def assert_readers_match_fraction_route(mat, ring, targets):
    """On mat's memo entry, at every lead: `_solve_snf` gives the Fraction
    route's solution (entry types included) and failure record on each
    target, and `_kernel_snf` its kernel rows; `diagonalizes` agrees with
    the Fraction product on mat and on mat with its first entry moved.
    Returns the kinds of case met."""
    seen = set()
    snf = base_snf(mat, ring)
    for lead in range(snf.rows + 1):
        got = linalg._kernel_snf(snf, ring, lead)
        want = reference_kernel_localized(snf, ring, lead)
        assert got == want and got.cols == want.cols, (mat, lead)
        assert all(type(x) is Fraction for r in got.data for x in r)
        seen.add("kernel" if got.rows else "no kernel")
        for b in targets:
            got_failures, want_failures = [], []
            sol = linalg._solve_snf(snf, b, ring, got_failures, lead)
            ref = reference_solve_localized(snf, b, ring, want_failures, lead)
            assert got_failures == want_failures, (mat, b, lead)
            assert [type(r) for *_, r in got_failures] == [type(r) for *_, r in want_failures]
            assert sol == ref, (mat, b, lead)
            if sol is not None:
                assert sol.rows == b.rows and sol.cols == lead
                assert all(type(x) is Fraction for r in sol.data for x in r)
            seen.add("solved" if sol is not None else "failed")
    assert snf.diagonalizes(mat, ring) and reference_diagonalizes(snf, mat, ring)
    if mat.rows and mat.cols:
        moved = [list(r) for r in mat.data]
        moved[0][0] += Fraction(1, 2 if 2 in ring.inverted_primes else 1)
        moved = Mat(mat.rows, mat.cols, moved)
        assert snf.diagonalizes(moved, ring) == reference_diagonalizes(snf, moved, ring)
    if any(s != snf.lden for s in snf.lscale):
        seen.add("stripped")
    return seen


@pytest.mark.parametrize("ring", [Z, ZL2, Z6], ids=repr)
def test_localized_readers_match_fraction_route(ring):
    """The integer solve, kernel and L . A . R = D check over Z, Z[1/2] and
    Z[1/6] equal the Fraction route they replace, entry for entry and at
    every lead: on seeded matrices with S-unit denominators, zero rows and
    columns, 60 times rank-deficient integer stacks (divisors with stripped
    S-factors) and empty shapes, against targets inside and outside the row
    span and a zero target."""
    rng = random.Random(3501)
    base_snf.cache_clear()
    seen = set()
    shapes = [(0, 3, False), (3, 0, False), (0, 0, False)]
    for _ in range(2):
        shapes += list(witness_shapes(rng))
    for rows, cols, deficient in shapes:
        stack = integer_matrix(rng, rows, cols, deficient)
        for a in (localized_matrix(ring, rng, rows, cols), stack.scale(Fraction(60), ring)):
            targets = [s_unit_matrix(ring, rng, 2, rows).mul(a, ring),
                       s_unit_matrix(ring, rng, 2, cols), Mat.zero(1, cols, ring)]
            seen |= assert_readers_match_fraction_route(a, ring, targets)
    want = {"kernel", "no kernel", "solved", "failed"}
    if ring.inverted_primes:
        want.add("stripped")
    assert want <= seen, seen


def test_localized_readers_match_fraction_route_on_lambda_expansions():
    """The same on the Z[1/2] memo entries of TruncatedLambda((2,), 3)
    matrices, keyed by the Lambda matrix, with expanded targets."""
    lam = TruncatedLambda((2,), 3)
    base = lam.scalar
    rng = random.Random(3502)
    base_snf.cache_clear()
    seen = set()
    for _ in range(12):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Mat(rows, cols, [[lam.from_coeffs(
            [Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 2)) for _ in range(lam.mlen)])
            for _ in range(cols)] for _ in range(rows)])
        if rows > 1 and rng.random() < 0.5:
            m = Mat(rows, cols, m.data[:-1] + (tuple(lam.add(x, y) for x, y in zip(*m.data[:2])),))
        targets = [random_matrix(lam, rng, 2, rows).mul(m, lam), random_matrix(lam, rng, 1, cols)]
        snf = base_snf(m, lam)
        assert snf.rows == rows * lam.mlen and snf.cols == cols * lam.mlen
        expanded = [expand_rows(b, lam) for b in targets]
        for lead in range(snf.rows + 1):
            got = linalg._kernel_snf(snf, base, lead)
            assert got == reference_kernel_localized(snf, base, lead)
            for b in expanded:
                got_failures, want_failures = [], []
                sol = linalg._solve_snf(snf, b, base, got_failures, lead)
                assert sol == reference_solve_localized(snf, b, base, want_failures, lead)
                assert got_failures == want_failures
                seen.add("solved" if sol is not None else "failed")
            seen.add("kernel" if got.rows else "no kernel")
        assert snf.diagonalizes(expand_matrix(m, lam), base)
    assert seen == {"solved", "failed", "kernel", "no kernel"}, seen


def test_localized_witnesses_stay_unbuilt_until_read(monkeypatch):
    """Over Z[1/2] a solve, a kernel, a membership test, a divisor read and
    `diagonalizes` run on the memo entry's integer witnesses: with reads of
    the Fraction `left` and `right` made to raise, each still answers.  A
    later `.left`/`.right` read builds them, equal to the Fraction route's."""
    ring = ZL2
    m = mk(ring, [[12, 6, Fraction(3, 2)], [4, 10, 8], [16, 16, Fraction(19, 2)]])
    b = mk(ring, [[1, Fraction(1, 2), 3]]).mul(m, ring)
    base_snf.cache_clear()

    def unread(self):
        raise AssertionError("a Fraction witness was read")

    with monkeypatch.context() as mp:
        mp.setattr(linalg._LocalizedSNF, "left", property(unread))
        mp.setattr(linalg._LocalizedSNF, "right", property(unread))
        assert solve_left(m, b, ring).mul(m, ring) == b
        assert kernel_left(m, ring).mul(m, ring).is_zero(ring)
        assert not in_row_span(m, mk(ring, [[1, 0, 0]]), ring)
        divs = elementary_divisors(PresentedModule(ring, 3, m))
        assert divs.free_rank == 1 and divs.torsion_divisors
        entry = base_snf(m, ring)
        assert entry.diagonalizes(m, ring)
    assert base_snf.cache_info().misses == 1
    assert any(s != entry.lden for s in entry.lscale[:2])
    ref = reference_snf_localized(m, ring)
    own = smith_normal_form(m, ring)
    assert (own.left, own.right) == (ref.left, ref.right)
    assert own.verify(m, ring) and entry == ref


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2], ids=lambda r: type(r).__name__)
def test_diagonalizes_reads_every_entry(ring):
    """A product left . mat . right that matches diag(divisors) on the
    diagonal but not off it fails `diagonalizes`: the SNF witnesses of m0
    against m0 + left^-1 . E . right^-1, E one off-diagonal unit, and
    identity witnesses against an upper triangular matrix."""
    half = Fraction(1, 2) if ring is ZL2 else 1
    m0 = mk(ring, [[half, 3], [5, 7]])
    res = smith_normal_form(m0, ring)
    e = mk(ring, [[0, 1], [0, 0]])
    m = m0.add(invert(res.left, ring).mul(e, ring).mul(invert(res.right, ring), ring), ring)
    assert res.diagonalizes(m0, ring) and not res.diagonalizes(m, ring)
    lhs = res.left.mul(m, ring).mul(res.right, ring)
    assert [lhs.data[i][i] for i in range(2)] == res.divisors
    tri = mk(ring, [[1, 1], [0, 1]])
    ident = SNFResult(Mat.identity(2, ring), Mat.identity(2, ring), [ring.one, ring.one])
    assert not ident.diagonalizes(tri, ring)
    assert ident.diagonalizes(Mat.identity(2, ring), ring)


def int_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_over_z_ladder_stays_small():
    """n x n matrices over Z with entries in [-9, 9] from Random(n): each SNF
    finishes inside its CPU budget, L . A . R = D holds on the integer
    witnesses, and no witness entry reaches 4300 decimal digits, Python's
    int-to-str limit, so a report can print it.  The rungs run in order and
    the first failing rung ends the test: with the Bezout steps that the
    nearest-quotient rule replaced, n = 28 took several seconds with
    million-bit witnesses, and n = 48 did not finish."""
    budgets = {8: 0.5, 16: 0.5, 28: 1.0, 48: 6.0}
    for n, budget in budgets.items():
        rng = random.Random(n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = mk(Z, rows)
        base_snf.cache_clear()
        start = time.process_time()
        res = base_snf(m, Z)
        spent = time.process_time() - start
        assert spent < budget, (n, spent)
        assert all(x.denominator == 1 for w in (res.left, res.right) for row in w.data for x in row)
        left, right = ([[int(x) for x in row] for row in w.data] for w in (res.left, res.right))
        assert max(abs(x) for w in (left, right) for row in w for x in row) < 10 ** 4299, n
        assert int_product(int_product(left, rows), right) == res.diagonal(n, n, Z).tolist(), n


def test_localized_zero_one_and_is_zero():
    values = [Fraction(0), Fraction(5), Fraction(-3), Fraction(1, 2), Fraction(-7, 4), 0, 2]
    for ring in (Z, ZL2):
        assert [ring.is_zero(x) for x in values] == [x == 0 for x in values]
        assert type(ring.zero) is Fraction and type(ring.one) is Fraction
        assert (ring.zero, ring.one) == (0, 1)


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2, BK, LAM], ids=lambda r: type(r).__name__)
def test_mat_mul_matches_triple_loop(ring):
    """Row-by-row products against the triple loop: empty shapes (no rows,
    no columns, no inner dimension), dense and mostly zero factors."""
    rng = random.Random(43)
    shapes = [(0, 2, 3), (2, 3, 0), (3, 0, 2), (0, 0, 0), (1, 1, 1), (2, 3, 4), (4, 2, 3)]
    shapes += [(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(6)]
    for rows, inner, cols in shapes:
        for zero_share in (0.0, 0.8, 1.0):
            a = sparse_matrix(ring, rng, rows, inner, zero_share)
            b = sparse_matrix(ring, rng, inner, cols, rng.choice((0.0, 0.8)))
            got = a.mul(b, ring)
            assert (got.rows, got.cols) == (rows, cols)
            assert got == naive_product(a, b, ring), (a, b)


def witness_shapes(rng):
    """(rows, cols, rank deficient): tall (rows >= 3 cols) and wide, then
    rank-deficient square and tall."""
    for cols in (1, 2, 3):
        yield 3 * cols + rng.randint(0, 2), cols, False
        yield rng.randint(1, cols), cols + rng.randint(1, 3), False
        yield cols + 1, cols + 1, True
        yield 3 * cols, cols, True


def shaped_matrix(ring, rng, rows, cols, deficient):
    """A seeded matrix; when deficient, its first row is zero and its last
    row a combination of the others."""
    m = sparse_matrix(ring, rng, rows, cols, rng.choice((0.0, 0.5)))
    data = [list(r) for r in m.data]
    if deficient:
        data[0] = [ring.zero] * cols
        c = [random_matrix(ring, rng, 1, 1).data[0][0] for _ in range(rows - 1)]
        data[-1] = [ring.sum(ring.mul(ci, data[i][j]) for i, ci in enumerate(c))
                    for j in range(cols)]
    return Mat(rows, cols, data)


@pytest.mark.parametrize("ring", [Z2_6, Z3_4, S1, ZL2], ids=lambda r: type(r).__name__)
def test_snf_witnesses_on_every_shape(ring):
    """verify passes on tall, wide and rank-deficient inputs, and the
    elementary decomposition's from_canonical is the kept rows of the
    inverse of the SNF's right witness."""
    rng = random.Random(47)
    for _ in range(3):
        for rows, cols, deficient in witness_shapes(rng):
            m = shaped_matrix(ring, rng, rows, cols, deficient)
            res = smith_normal_form(m, ring)
            assert res.verify(m, ring), m
            assert len(res.divisors) == min(rows, cols)
            divisors = res.divisors + [ring.zero] * (cols - len(res.divisors))
            kept = [j for j, d in enumerate(divisors) if not ring.is_unit(d)]
            kept.sort(key=lambda j: ring.is_zero(divisors[j]))
            right_inv = invert(res.right, ring)
            assert right_inv is not None
            dec = decompose_elementary(PresentedModule(ring, cols, m))
            assert dec.from_canonical.matrix == right_inv.take_rows(kept), m
            assert dec.to_canonical.matrix == res.right.take_cols(kept), m


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2], ids=lambda r: type(r).__name__)
def test_verify_checks_witness_invertibility(ring):
    """For the zero matrix, L . A . R = D holds with left = 0 or right = 0,
    but such witnesses are not invertible and verify says so."""
    m = Mat.zero(2, 3, ring)
    zeros = [ring.zero, ring.zero]
    assert SNFResult(Mat.identity(2, ring), Mat.identity(3, ring), zeros).verify(m, ring)
    assert not SNFResult(Mat.zero(2, 2, ring), Mat.identity(3, ring), zeros).verify(m, ring)
    assert not SNFResult(Mat.identity(2, ring), Mat.zero(3, 3, ring), zeros).verify(m, ring)


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2], ids=lambda r: type(r).__name__)
def test_diagonalizes_rejects_a_wrong_identity(ring):
    """Invertible witnesses whose product is not diag(divisors) fail both
    `diagonalizes` and `verify`: a divisor off by one, or the witnesses of
    another matrix."""
    m = mk(ring, [[1, 2], [3, 4]])
    res = smith_normal_form(m, ring)
    assert res.diagonalizes(m, ring)
    wrong = SNFResult(res.left, res.right, [ring.add(res.divisors[0], ring.one)] + res.divisors[1:])
    other = smith_normal_form(mk(ring, [[1, 0], [0, 1]]), ring)
    for bad in (wrong, other):
        assert not bad.diagonalizes(m, ring)
        assert not bad.verify(m, ring)


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2, BK, LAM], ids=lambda r: type(r).__name__)
def test_solve_and_kernel_random(ring):
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(ring, rng, rows, cols)
        x = random_matrix(ring, rng, 2, rows)
        b = x.mul(a, ring)
        sol = solve_left(a, b, ring)
        assert sol is not None
        assert sol.mul(a, ring) == b
        ker = kernel_left(a, ring)
        if ker.rows:
            assert ker.mul(a, ring).is_zero(ring)


def test_kernel_catches_annihilators():
    # kernel of multiplication by p on Z/p^2 is generated by p^(N-1)
    ring = TruncatedPadic(2, 2)
    a = mk(ring, [[2]])
    ker = kernel_left(a, ring)
    assert ker.rows == 1 and ker.data[0][0] == 2


def test_expand_reassemble_roundtrip():
    rng = random.Random(3)
    m = random_matrix(BK, rng, 2, 3)
    exp = expand_rows(m, BK)
    back = reassemble_rows(exp, BK, 3)
    assert back == m


def test_expansion_matrix_model():
    # x . A over T must equal the base-expanded product
    rng = random.Random(4)
    a = random_matrix(BK, rng, 2, 2)
    x = random_matrix(BK, rng, 1, 2)
    lhs = expand_rows(x.mul(a, BK), BK)
    rhs = expand_rows(x, BK).mul(expand_matrix(a, BK), BK.scalar)
    assert lhs == rhs


def test_solve_left_mod():
    ring = Z2_6
    a = mk(ring, [[2]])
    rel = mk(ring, [[8]])
    b = mk(ring, [[10]])
    x = solve_left_mod(a, b, rel, ring)
    assert x is not None
    # b - X . a lies in the row span of rel: some Y has Y . rel = b - X . a
    rest = b.sub(x.mul(a, ring), ring)
    y = solve_left(rel, rest, ring)
    assert y is not None and y.mul(rel, ring) == rest


SPAN_RINGS = [Z2_6, Z3_4, S1, ZL2, BK, LAM]


def reference_kernel_left_parts(mats, ring):
    """The kernel of the vertical stack of `mats`, every block's columns
    sliced out: the route that kept all the blocks."""
    stacked = mats[0]
    for m in mats[1:]:
        stacked = stacked.vstack(m)
    ker = kernel_left(stacked, ring)
    parts, at = [], 0
    for m in mats:
        parts.append(ker.take_cols(list(range(at, at + m.rows))))
        at += m.rows
    return parts


def reference_solve_left_mod(mat, b, rel, ring):
    """(X, Y) with X . mat + Y . rel = b from the full solve of the stack,
    or None: the route that back-multiplied every unknown."""
    sol = solve_left(mat.vstack(rel), b, ring)
    if sol is None:
        return None
    return (sol.take_cols(list(range(mat.rows))),
            sol.take_cols(list(range(mat.rows, mat.rows + rel.rows))))


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: type(r).__name__)
def test_leading_blocks_and_membership_match_full_routes(ring):
    """On seeded systems [A; Rel] with A the first k rows: the membership
    test gives the full solve's verdict, the leading-block solve gives the
    full solution's first k columns and the same failure record, and the
    leading-block kernel gives the full kernel's first k columns, row for
    row (zero leading rows included)."""
    rng = random.Random(2202)
    verdicts = set()
    for _ in range(3):
        for rows, cols, deficient in witness_shapes(rng):
            a = shaped_matrix(ring, rng, rows, cols, deficient)
            k = rng.randint(0, rows)
            top, rel = a.take_rows(list(range(k))), a.take_rows(list(range(k, rows)))
            full_ker = kernel_left(a, ring)
            assert kernel_left(a, ring, k) == full_ker.take_cols(range(k))
            assert kernel_left(a, ring, k) == reference_kernel_left_parts([top, rel], ring)[0]
            targets = [random_matrix(ring, rng, 2, rows).mul(a, ring),
                       random_matrix(ring, rng, 2, cols), sparse_matrix(ring, rng, 3, cols, 0.6)]
            for b in targets:
                full, full_failures = solve_left_info(a, b, ring)
                lead, lead_failures = solve_left_info(a, b, ring, k)
                assert lead_failures == full_failures
                assert lead == (None if full is None else full.take_cols(range(k)))
                assert in_row_span(a, b, ring) == (full is not None)
                verdicts.add(full is not None)
                ref = reference_solve_left_mod(top, b, rel, ring)
                assert solve_left_mod(top, b, rel, ring) == (None if ref is None else ref[0])
    assert verdicts == {True, False}
    # empty shapes: no rows to span with, no columns to check
    b = random_matrix(ring, rng, 2, 2)
    assert in_row_span(Mat(0, 2, []), Mat.zero(2, 2, ring), ring)
    assert in_row_span(Mat(0, 2, []), b, ring) == b.is_zero(ring)
    assert in_row_span(Mat(3, 0, [[]] * 3), Mat(2, 0, [[]] * 2), ring)
    assert in_row_span(b, Mat(0, 2, []), ring)
    assert kernel_left(Mat(3, 0, [[]] * 3), ring, 2) == Mat.identity(3, ring).take_cols(range(2))


def assert_solve_matches_reference(snf, b, ring, rng):
    """`_solve_snf` at lead 0, a middle lead and the full width against the
    per-entry reference: the reference solution's leading columns (entry
    types included) and the same failure record, residue types and failure
    primes included.  Returns the reference's (solution, record) and the
    kinds of lead run: 0, "k" (a middle one) and "full"."""
    want = []
    ref = reference_solve_snf(snf, b, ring, want)
    full = snf.left.rows
    kinds = set()
    for lead in (0, rng.randint(1, full - 1) if full > 1 else full, full):
        kinds.add(0 if not lead else "full" if lead == full else "k")
        got = []
        sol = linalg._solve_snf(snf, b, ring, got, lead)
        assert got == want
        assert [type(r) for *_, r in got] == [type(r) for *_, r in want]
        assert sol == (None if ref is None else ref.take_cols(range(lead)))
        if sol is not None:
            assert {type(x) for r in sol.data for x in r} <= {type(ring.zero)}
        if isinstance(ring, LocalizedIntegers):
            sset = ring.inverted_primes
            assert failure_primes(got, sset) == failure_primes(want, sset)
    return ref, want, kinds


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: type(r).__name__)
def test_solve_snf_matches_reference_at_every_lead(ring):
    """`_solve_snf` on a matrix's base SNF (expanded rows over TruncatedBK
    and TruncatedLambda) equals the per-entry reference at lead 0, a middle
    lead and the full width: the reference solution's leading columns, and
    the reference failure record at every lead, lead 0 included."""
    rng = random.Random(2301)
    expand = ring.expands
    base = ring.scalar if expand else ring
    outcomes, leads = set(), set()
    for _ in range(2):
        for rows, cols, deficient in witness_shapes(rng):
            a = shaped_matrix(ring, rng, rows, cols, deficient)
            snf = base_snf(a, ring)
            targets = [random_matrix(ring, rng, 2, rows).mul(a, ring),
                       random_matrix(ring, rng, 2, cols), sparse_matrix(ring, rng, 3, cols, 0.6)]
            for b in targets:
                ref, _, kinds = assert_solve_matches_reference(
                    snf, expand_rows(b, ring) if expand else b, base, rng)
                outcomes.add(ref is not None)
                leads |= kinds
    assert outcomes == {True, False}
    assert leads == {0, "k", "full"}


def unimodular(ring, rng, n):
    """A seeded invertible n x n matrix: the identity after row additions."""
    m = [list(r) for r in Mat.identity(n, ring).data]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = random_matrix(ring, rng, 1, 1).data[0][0]
        m[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(m[i], m[j])]
    return Mat(n, n, m)


# a non-unit of each family: p, z, or a prime outside S
NON_UNITS = {Z2_6: 2, Z3_4: 3, S1: S1.var_power(1), ZL2: 3, BK: 3, LAM: 3}


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: type(r).__name__)
def test_membership_fails_on_the_last_row(ring):
    """mat = P . diag(pi, 1, 1) . Q spans pi*q1, q2, q3 (q_i the rows of Q,
    pi a non-unit), so q1 lies outside it.  With q1 as the last row of b
    after two rows inside the span, the membership test reads False; with
    pi*q1 there it reads True.  A test that reads only the first row, or
    always says yes, fails here."""
    rng = random.Random(2203)
    pi = NON_UNITS[ring]
    pi = ring.from_int(pi) if isinstance(pi, int) else pi
    for _ in range(4):
        p_mat, q_mat = unimodular(ring, rng, 3), unimodular(ring, rng, 3)
        d = Mat(3, 3, [[pi if i == j == 0 else ring.one if i == j else ring.zero
                        for j in range(3)] for i in range(3)])
        mat = p_mat.mul(d, ring).mul(q_mat, ring)
        inside = random_matrix(ring, rng, 2, 3).mul(mat, ring)
        q1 = q_mat.take_rows([0])
        assert not in_row_span(mat, inside.vstack(q1), ring)
        assert solve_left(mat, inside.vstack(q1), ring) is None
        assert in_row_span(mat, inside.vstack(q1.scale(pi, ring)), ring)
        assert in_row_span(mat, inside, ring)


def test_membership_fails_on_a_zero_divisor():
    """Over Z[1/S]: mat = P . [[3, 0], [0, 0], [0, 0]] . Q (divisors 3 and
    0) and mat = [[3, 0]] . Q (one divisor, a column past it) span the
    multiples of 3*q1 (q_i the rows of Q).  3*q2 lies outside, obstructed
    by a zero divisor alone (its coordinates are multiples of 3).  As the
    last row of b it makes the membership test read False."""
    ring = ZL2
    rng = random.Random(2204)
    for rows in (3, 3, 1, 1):
        p_mat = unimodular(ring, rng, 3) if rows == 3 else Mat.identity(1, ring)
        q_mat = unimodular(ring, rng, 2)
        d = mk(ring, [[3, 0]] + [[0, 0]] * (rows - 1))
        mat = p_mat.mul(d, ring).mul(q_mat, ring)
        b = random_matrix(ring, rng, 2, rows).mul(mat, ring).vstack(
            q_mat.take_rows([1]).scale(ring.from_int(3), ring))
        assert not in_row_span(mat, b, ring)
        sol, failures = solve_left_info(mat, b, ring)
        assert sol is None and failures
        assert all(row == 2 and d == 0 for row, _, d, _ in failures)



def integer_matrix(rng, rows, cols, deficient):
    """A seeded integer matrix over Z (as Fractions); when deficient, its
    first row is zero and its last a combination of the others."""
    data = [[Fraction(rng.randint(-6, 6)) for _ in range(cols)] for _ in range(rows)]
    if deficient:
        data[0] = [Fraction(0)] * cols
        c = [rng.randint(-3, 3) for _ in range(rows - 1)]
        data[-1] = [sum(ci * data[i][j] for i, ci in enumerate(c)) for j in range(cols)]
    return Mat(rows, cols, data)


def s_unit_matrix(ring, rng, rows, cols):
    """Seeded entries with denominators that are products of primes of S."""
    def den():
        out = 1
        for q in ring.inverted_primes:
            out *= q ** rng.randint(0, 2)
        return out
    return Mat(rows, cols, [[Fraction(rng.randint(-20, 20), den()) for _ in range(cols)]
                            for _ in range(rows)])


@pytest.mark.parametrize("ring", [ZL2, Z6, ZRING], ids=repr)
def test_integer_rule_matches_reference_over_localized_integers(ring):
    """Over Z[1/2], Z[1/6] and Z (`cw.ZRING`) the integer divisor rule
    gives the per-entry reference's solutions and failure records at every
    lead: targets with S-unit denominators, divisors whose S-parts were
    stripped (60 times an integer matrix), zero divisors and failures past
    the divisors."""
    rng = random.Random(2401)
    seen = set()
    for _ in range(3):
        for rows, cols, deficient in witness_shapes(rng):
            m = integer_matrix(rng, rows, cols, deficient)
            for a in (m, m.scale(Fraction(60), ring)):
                snf = base_snf(a, ring)
                if snf.divisors != base_snf(a, ZRING).divisors:
                    seen.add("stripped")
                targets = [s_unit_matrix(ring, rng, 2, rows).mul(a, ring),
                           s_unit_matrix(ring, rng, 2, rows).mul(m, ring),
                           s_unit_matrix(ring, rng, 2, cols)]
                for b in targets:
                    if any(x.denominator > 1 for r in b.data for x in r):
                        seen.add("denominators")
                    ref, want, _ = assert_solve_matches_reference(snf, b, ring, rng)
                    seen.add("solved" if ref is not None else "failed")
                    ndiv = len(snf.divisors)
                    seen.update("zero divisor" if j < ndiv else "past the divisors"
                                for _, j, d, _ in want if d == 0)
                    seen.update("nonzero divisor" for _, _, d, _ in want if d != 0)
    want_seen = {"solved", "failed", "zero divisor", "past the divisors", "nonzero divisor"}
    if ring.inverted_primes:
        want_seen |= {"stripped", "denominators"}
    assert want_seen <= seen


@pytest.mark.parametrize("ring, entry", [(ZRING, Fraction(1, 2)), (ZL2, Fraction(1, 3)),
                                         (Z6, Fraction(5, 84))], ids=repr)
def test_solve_refuses_a_denominator_outside_s(ring, entry):
    """A target entry whose denominator has a prime outside S (built
    directly: `normalize` refuses it on input) is not an element of Z[1/S],
    and the solve asserts rather than reading it at another scale."""
    a = mk(ring, [[2, 0], [0, 3]])
    b = Mat(2, 2, [[ring.one, ring.zero], [ring.zero, entry]])
    for lead in (0, 1, 2):
        with pytest.raises(AssertionError, match="outside S"):
            solve_left_info(a, b, ring, lead)
    with pytest.raises(AssertionError, match="outside S"):
        in_row_span(a, b, ring)


@pytest.mark.parametrize("ring", [S1, TruncatedPowerSeries(2, 4), TruncatedPowerSeries(5, 4)],
                         ids=repr)
def test_valuation_rule_matches_reference_over_power_series(ring):
    """Over F_p[z]/z^M every SNF divisor is 0 or exactly z^v, and the
    valuation rule gives `divide`'s quotients and the reference's
    failure records at every lead, on targets z^k times a seeded row (their
    first k coefficients vanish) for every k up to M: solved with a nonzero
    quotient of a divisor z^v, v > 0, and failed with 0 < v(c) < v."""
    rng = random.Random(2402)
    seen = set()
    for _ in range(2):
        for rows, cols, deficient in witness_shapes(rng):
            a = shaped_matrix(ring, rng, rows, cols, deficient)
            a = a.scale(ring.var_power(rng.randint(0, 2)), ring)
            snf = base_snf(a, ring)
            assert all(d == ring.zero or d == ring.var_power(ring.val(d)) for d in snf.divisors)
            for k in range(ring.mlen + 1):
                b = random_matrix(ring, rng, 2, cols).scale(ring.var_power(k), ring)
                ref, want, _ = assert_solve_matches_reference(snf, b, ring, rng)
                seen.add("solved" if ref is not None else "failed")
                c = b.mul(snf.right, ring)
                if ref is not None and any(not ring.is_zero(d) and ring.val(d) > 0
                                           and not ring.is_zero(cj)
                                           for r in c.data for cj, d in zip(r, snf.divisors)):
                    seen.add("shifted")
                seen.update("partly divisible" for _, _, d, c in want
                            if not ring.is_zero(d) and 0 < ring.val(c) < ring.val(d))
    assert seen == {"solved", "failed", "shifted", "partly divisible"}


def reference_transpose(m):
    """The double-index transpose."""
    return Mat(m.cols, m.rows, [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)])


def test_mat_constructor_contract():
    """Rows given as lists, tuples or generators build equal Mats of tuple
    rows; ragged rows and a wrong row count raise; 0 x n and n x 0 build."""
    rows = [[1, 2, 3], [4, 5, 6]]
    want = Mat(2, 3, rows)
    assert want.data == ((1, 2, 3), (4, 5, 6))
    assert Mat(2, 3, [tuple(r) for r in rows]) == want
    assert Mat(2, 3, tuple(map(tuple, rows))) == want
    assert Mat(2, 3, (list(r) for r in rows)) == want
    assert Mat(2, 3, [(x for x in r) for r in rows]) == want
    for bad_rows, bad in ((2, [[1, 2, 3], [4, 5]]), (2, [[1, 2], [4, 5, 6]]), (2, [[1, 2], [4, 5]]),
                          (3, rows), (1, rows), (0, rows), (2, [])):
        with pytest.raises(AssertionError):
            Mat(bad_rows, 3, bad)
    for r, c in ((0, 0), (0, 4), (3, 0)):
        m = Mat(r, c, [[]] * r)
        assert (m.rows, m.cols, m.data) == (r, c, ((),) * r)
    with pytest.raises(AssertionError):
        Mat(3, 0, [[], [1], []])
    with pytest.raises(AssertionError):
        Mat(3, 1, [[]] * 3)


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: type(r).__name__)
def test_transpose_matches_double_index(ring):
    rng = random.Random(2302)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3)):
        m = random_matrix(ring, rng, rows, cols)
        t = m.transpose()
        assert t == reference_transpose(m)
        assert (t.rows, t.cols) == (cols, rows)
        assert t.transpose() == m


def test_invert():
    m = mk(Z2_6, [[1, 2], [0, 1]])
    inv = invert(m, Z2_6)
    assert inv is not None
    assert m.mul(inv, Z2_6) == Mat.identity(2, Z2_6)
    assert invert(mk(Z2_6, [[2]]), Z2_6) is None


def det_by_expansion(rows):
    """The reference determinant: Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det_by_expansion([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def test_bareiss_det_matches_laplace_expansion():
    """Sign included, on dense, sparse (zero pivots force row swaps) and
    singular integer matrices up to 5 x 5."""
    rng = random.Random(3301)
    for n in range(6):
        for share in (0.0, 0.6):
            for _ in range(5):
                rows = [[0 if rng.random() < share else rng.randint(-9, 9) for _ in range(n)]
                        for _ in range(n)]
                if n > 1 and rng.random() < 0.3:
                    rows[-1] = [2 * x for x in rows[0]]
                assert linalg._bareiss_det(rows) == det_by_expansion(rows), rows


# the five families, two primes each among the local ones, and Z[1/S] with
# S empty, one prime and two primes
INVERTIBILITY_RINGS = [Z2_6, Z3_4, S1, TruncatedPowerSeries(2, 3), Z, ZL2,
                       LocalizedIntegers((2, 3)), BK, TruncatedBK(2, 2, 3), LAM]


def square_cases(ring, rng):
    """Seeded square matrices, n = 0..3: random ones; invertible ones (row
    additions on the identity); P . diag(pi, 1, ...) . Q with pi a
    non-unit (p, z, q - 1 or a prime outside S), whose determinant is not
    a unit; pi times an invertible one, every entry in the maximal ideal;
    rank-deficient ones; over Z[1/S] and Lambda also P . diag(s, 1, ...) . Q
    with s in S, whose determinant is an S-unit other than +-1."""
    def element():
        if isinstance(ring, LocalizedIntegers):
            den = 1
            for q in ring.inverted_primes:
                den *= q ** rng.randint(0, 1)
            return Fraction(rng.randint(-6, 6), den)
        return random_matrix(ring, rng, 1, 1).data[0][0]

    def scalar(c):
        return ring.from_int(c) if isinstance(c, int) else c

    def invertible(n):
        return unimodular(ring, rng, n) if n > 1 else Mat.identity(n, ring)

    base = ring.scalar if ring.expands else ring
    if isinstance(base, LocalizedIntegers):
        pis = [primes_outside(base.inverted_primes, 1)[0]]
        pis += [ring.q_minus_one()] if isinstance(ring, TruncatedLambda) else []
    else:
        pis = [base.p] + ([ring.var_power(1)] if hasattr(ring, "var_power") else [])
    specials = list(getattr(ring, "inverted_primes", ()))
    for n in range(4):
        yield Mat(n, n, [[element() for _ in range(n)] for _ in range(n)])
        yield invertible(n)
        for c in (pis + specials) if n else ():
            d = Mat(n, n, [[scalar(c) if i == j == 0 else ring.one if i == j else ring.zero
                            for j in range(n)] for i in range(n)])
            right = invertible(n)
            yield invertible(n).mul(d, ring).mul(right, ring)
            if c in pis:
                yield right.scale(scalar(c), ring)
        if n > 1:
            yield shaped_matrix(ring, rng, n, n, True)


@pytest.mark.parametrize("ring", INVERTIBILITY_RINGS, ids=repr)
def test_is_invertible_matches_invert(ring):
    """is_invertible (residue rank, or an S-unit Bareiss determinant) gives
    the verdict of invert on every case of `square_cases`, both verdicts
    occurring, and holds every SNF witness invertible."""
    rng = random.Random(3302)
    seen = set()
    for _ in range(3):
        for m in square_cases(ring, rng):
            want = invert(m, ring) is not None
            assert linalg.is_invertible(m, ring) == want, m
            seen.add(want)
    assert seen == {True, False}
    if not ring.expands:
        for n in range(1, 4):
            m = random_matrix(ring, rng, n, n + 1) if not isinstance(ring, LocalizedIntegers) \
                else integer_matrix(rng, n, n + 1, False)
            res = smith_normal_form(m, ring)
            assert linalg.is_invertible(res.left, ring) and linalg.is_invertible(res.right, ring)


def test_block_concatenates_and_keeps_empty_blocks():
    a, b = mk(Z2_6, [[1, 2]]), mk(Z2_6, [[3]])
    c, d = Mat.zero(2, 2, Z2_6), mk(Z2_6, [[4], [5]])
    assert Mat.block([[a, b], [c, d]]) == mk(Z2_6, [[1, 2, 3], [0, 0, 4], [0, 0, 5]])
    # a 0-row grid row adds no rows; a 0-column grid column adds no columns
    assert Mat.block([[a, b], [Mat.zero(0, 2, Z2_6), Mat.zero(0, 1, Z2_6)]]) == mk(Z2_6, [[1, 2, 3]])
    got = Mat.block([[a, Mat.zero(1, 0, Z2_6)], [Mat.zero(2, 2, Z2_6), Mat.zero(2, 0, Z2_6)]])
    assert got == mk(Z2_6, [[1, 2], [0, 0], [0, 0]])
    empty = Mat.block([[Mat.zero(0, 0, Z2_6), Mat.zero(0, 3, Z2_6)]])
    assert (empty.rows, empty.cols) == (0, 3)


def test_block_refuses_mismatched_blocks():
    a, b = mk(Z2_6, [[1, 2]]), mk(Z2_6, [[3], [4]])
    with pytest.raises(AssertionError):
        Mat.block([[a, b]])          # one grid row, different row counts
    with pytest.raises(AssertionError):
        Mat.block([[a], [b]])        # one grid column, different column counts


@pytest.mark.parametrize("ring", [Z2_6, S1, ZL2, BK, LAM], ids=lambda r: type(r).__name__)
def test_kron_index_law(ring):
    rng = random.Random(41)
    for ar, ac, orows, ocols in [(2, 3, 2, 1), (1, 1, 3, 2), (0, 2, 2, 2), (2, 0, 1, 3),
                                 (2, 2, 0, 1), (3, 1, 2, 0)]:
        a, o = random_matrix(ring, rng, ar, ac), random_matrix(ring, rng, orows, ocols)
        k = a.kron(o, ring)
        assert (k.rows, k.cols) == (ar * orows, ac * ocols)
        for i in range(ar):
            for j in range(ac):
                for r in range(orows):
                    for c in range(ocols):
                        assert k.data[i * orows + r][j * ocols + c] == \
                            ring.mul(a.data[i][j], o.data[r][c])
    # the Kronecker product with an identity is block diagonal
    a = random_matrix(ring, rng, 2, 2)
    zero = Mat.zero(2, 2, ring)
    assert Mat.identity(2, ring).kron(a, ring) == Mat.block([[a, zero], [zero, a]])


from hypothesis import given, settings, strategies as st


@given(st.lists(st.lists(st.integers(min_value=0, max_value=63),
                          min_size=2, max_size=2), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_snf_hypothesis_verified_z2(rows):
    ring = Z2_6
    m = Mat(len(rows), 2, [[ring.from_int(v) for v in r] for r in rows])
    res = smith_normal_form(m, ring)
    assert res.verify(m, ring)
    vals = [float("inf") if ring.is_zero(d) else ring.val(d) for d in res.divisors]
    assert vals == sorted(vals)


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                          min_size=2, max_size=2), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_snf_hypothesis_localized_chain(rows):
    ring = ZL2
    m = Mat(len(rows), 2, [[Fraction(v) for v in r] for r in rows])
    res = smith_normal_form(m, ring)
    assert res.verify(m, ring)
    nonzero = [int(d) for d in res.divisors if d != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    for d in nonzero:
        assert d % 2 != 0 or d == 0  # S-primes stripped


def test_zero_dimension_edges():
    for ring in (Z2_6, BK):
        empty_rows = Mat(0, 2, [])
        assert kernel_left(empty_rows, ring).rows == 0
        no_cols = Mat(2, 0, [[], []])
        k = kernel_left(no_cols, ring)
        assert k.rows == 2
        b = Mat(1, 2, [[ring.zero, ring.zero]])
        assert solve_left(empty_rows, b, ring) is not None


@pytest.mark.parametrize("ring", [Z2_6, Z3_4, S1, ZL2], ids=lambda r: type(r).__name__)
def test_base_snf_cold_equals_warm(ring):
    rng = random.Random(23)
    for _ in range(10):
        m = random_matrix(ring, rng, rng.randint(1, 4), rng.randint(1, 4))
        base_snf.cache_clear()
        cold = smith_normal_form(m, ring)
        hits = base_snf.cache_info().hits
        warm = smith_normal_form(m, ring)
        assert base_snf.cache_info().hits == hits + 1
        assert warm == cold
        assert cold.verify(m, ring) and warm.verify(m, ring)


@pytest.mark.parametrize("ring", [BK, LAM], ids=lambda r: type(r).__name__)
def test_expansion_solve_memo_cold_equals_warm(ring, monkeypatch):
    """BK and Lambda solves and kernels share the memo, keyed by the caller's
    matrix: a warm call returns the cold result and expands nothing."""
    expansions = []

    def counting_expand(mat, r):
        expansions.append(mat)
        return expand_matrix(mat, r)

    monkeypatch.setattr(linalg, "expand_matrix", counting_expand)
    rng = random.Random(29)
    for _ in range(8):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(ring, rng, rows, cols)
        b = random_matrix(ring, rng, 2, rows).mul(a, ring)
        base_snf.cache_clear()
        cold = solve_left(a, b, ring)
        cold_kernel = kernel_left(a, ring)
        assert len(expansions) == 1
        hits = base_snf.cache_info().hits
        warm = solve_left(a, b, ring)
        warm_kernel = kernel_left(a, ring)
        assert base_snf.cache_info().hits == hits + 2
        assert len(expansions) == 1
        assert warm == cold and cold.mul(a, ring) == b
        assert warm_kernel == cold_kernel and cold_kernel.mul(a, ring).is_zero(ring)
        expansions.clear()


def test_base_snf_result_is_the_callers_own():
    ring = TruncatedPadic(2, 5)
    m = mk(ring, [[4, 2], [6, 8]])
    first = smith_normal_form(m, ring)
    expected = list(first.divisors)
    first.divisors.append(99)
    first.divisors[0] = 7
    first.left = Mat.identity(2, ring)
    again = smith_normal_form(m, ring)
    assert again.divisors == expected
    assert again.verify(m, ring)


def test_base_snf_evicts_and_stays_correct():
    """More distinct inputs than the memo holds: evicted entries are
    recomputed with the same result."""
    rng = random.Random(31)
    mats = [random_matrix(Z2_6, rng, 3, 3) for _ in range(40)]
    assert len(set(mats)) == 40
    base_snf.cache_clear()
    first = [smith_normal_form(m, Z2_6) for m in mats]
    assert base_snf.cache_info().currsize < 40
    for m, res in zip(mats, first):
        again = smith_normal_form(m, Z2_6)
        assert again == res and again.verify(m, Z2_6)


def test_base_snf_shared_by_threads():
    """Threads sharing the memo (the memo is documented as thread-safe), with
    eviction and a short switch interval, all get the single-threaded
    results: SNFs, kernel rows at each lead and membership verdicts.  The
    first matrix is asked more targets than an entry keeps, so reads are
    evicted under the threads too.  A Z[1/2] pool runs beside it: some
    threads read the Fraction witnesses of `smith_normal_form` while others
    solve and take kernels on the same entries' integer witnesses, and
    every thread sees the single-threaded witnesses and solutions."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    lrng = random.Random(38)
    lmats = [integer_matrix(lrng, 3, 3, lrng.random() < 0.3).scale(
        Fraction(lrng.choice((1, 4, 12)), 2), ZL2) for _ in range(40)]
    ltargets = [s_unit_matrix(ZL2, lrng, 2, 3).mul(m, ZL2) for m in lmats]
    lexpected = []
    for m, b in zip(lmats, ltargets):
        base_snf.cache_clear()
        res = smith_normal_form(m, ZL2)
        base_snf.cache_clear()
        lexpected.append((res.left, res.right, res.divisors, solve_left(m, b, ZL2),
                          [kernel_left(m, ZL2, lead) for lead in range(4)]))

    rng = random.Random(37)
    mats = [random_matrix(Z3_4, rng, 3, 3) for _ in range(40)]
    targets = [[random_matrix(Z3_4, rng, 1, 3).mul(m, Z3_4), random_matrix(Z3_4, rng, 1, 3)]
               for m in mats]
    targets[0] += [random_matrix(Z3_4, rng, 1, 3) for _ in range(linalg._READS + 8)]
    base_snf.cache_clear()
    expected = [smith_normal_form(m, Z3_4) for m in mats]
    kernels, verdicts = [], []
    for m, bs in zip(mats, targets):
        base_snf.cache_clear()
        kernels.append([kernel_left(m, Z3_4, lead) for lead in range(4)])
        verdicts.append([solve_left(m, b, Z3_4) is not None for b in bs])
    base_snf.cache_clear()

    def work(seed):
        order = list(range(len(mats)))
        random.Random(seed).shuffle(order)
        return all(smith_normal_form(mats[i], Z3_4) == expected[i]
                   and [kernel_left(mats[i], Z3_4, lead) for lead in range(4)] == kernels[i]
                   and [in_row_span(mats[i], b, Z3_4) for b in targets[i]] == verdicts[i]
                   for i in order * 3)

    def read_witnesses(seed):
        order = list(range(len(lmats)))
        random.Random(seed).shuffle(order)
        for i in order * 2:
            res = smith_normal_form(lmats[i], ZL2)
            if (res.left, res.right, res.divisors) != lexpected[i][:3]:
                return False
        return True

    def solve_localized(seed):
        order = list(range(len(lmats)))
        random.Random(seed).shuffle(order)
        return all(solve_left(lmats[i], ltargets[i], ZL2) == lexpected[i][3]
                   and [kernel_left(lmats[i], ZL2, lead) for lead in range(4)] == lexpected[i][4]
                   for i in order * 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(task, seed) for seed in range(8)
                       for task in (work, read_witnesses if seed % 2 else solve_localized)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def equal_copy(m):
    """An equal Mat built separately: reads are keyed by value."""
    return Mat(m.rows, m.cols, [list(r) for r in m.data])


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: type(r).__name__)
def test_warm_reads_equal_cold_reads(ring, monkeypatch):
    """Kernel rows at each lead and membership verdicts kept on a memo entry
    equal the cold reads (memo cleared before each), asked with equal
    targets built separately, and a warm read computes nothing.  Each
    matrix is asked an in-span target first, so a verdict keyed without its
    target, or kernel rows keyed without their lead, answer wrongly."""
    rng = random.Random(3401)
    verdicts = set()
    for rows, cols, deficient in witness_shapes(rng):
        a = shaped_matrix(ring, rng, rows, cols, deficient)
        targets = [random_matrix(ring, rng, 2, rows).mul(a, ring),
                   random_matrix(ring, rng, 2, cols), sparse_matrix(ring, rng, 1, cols, 0.5)]
        cold_kernels, cold_verdicts = [], []
        for lead in range(rows + 1):
            base_snf.cache_clear()
            cold_kernels.append(kernel_left(a, ring, lead))
        for b in targets:
            base_snf.cache_clear()
            cold_verdicts.append(in_row_span(a, b, ring))
        verdicts.update(cold_verdicts)
        base_snf.cache_clear()
        for warm in (False, True):
            with monkeypatch.context() as mp:
                if warm:
                    for name in ("_kernel_snf", "_solve_snf"):
                        mp.setattr(linalg, name, None)
                assert [kernel_left(a, ring, lead) for lead in range(rows + 1)] == cold_kernels
                assert [in_row_span(a, equal_copy(b), ring) for b in targets] == cold_verdicts
    assert verdicts == {True, False}


def test_reads_per_entry_are_capped():
    """One matrix asked 100 distinct targets keeps at most `_READS` (32)
    reads, the newest ones, and answers every target as a cold call does,
    both while filling its entry and after the early reads are evicted."""
    ring = Z2_6
    rng = random.Random(3402)
    a = mk(ring, [[2, 4, 6], [0, 8, 4], [4, 0, 16]])
    targets = []
    while len(targets) < 100:
        b = random_matrix(ring, rng, 1, 3)
        b = b.mul(a, ring) if len(targets) % 2 else b
        if not b.is_zero(ring) and b not in targets:
            targets.append(b)
    cold = []
    for b in targets:
        base_snf.cache_clear()
        cold.append(in_row_span(a, b, ring))
    assert set(cold) == {True, False}
    assert linalg._READS == 32
    base_snf.cache_clear()
    for _ in range(2):
        for b, verdict in zip(targets, cold):
            assert in_row_span(a, b, ring) == verdict
            assert len(base_snf(a, ring).reads) <= linalg._READS
    assert list(base_snf(a, ring).reads) == targets[-linalg._READS:]
