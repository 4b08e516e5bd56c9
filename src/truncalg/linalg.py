"""Exact linear algebra over the coefficient rings.

Everything is row-convention: vectors are rows, a map R^g -> R^h is a g x h
matrix A acting by x |-> x . A.

Family facts have two homes.  Each ring class in `rings` is the record of
its ring-level facts (`expands`, `modulus`, `residues`, ...), and the table
`_BASE` at the end of this module holds the SNF facts of each base family:
its Smith normal form kernel, the divisor rule of its solve, its kernel read
and its invertibility read.  TruncatedBK and TruncatedLambda (`expands`)
are expanded by restriction of scalars to their `scalar`, whose entry they
read: a T-linear map is base-linear, and solutions and kernels reassemble
because T^g = base^(g*M) is a base-module isomorphism.  The kernels:

  Z/p^N        `_snf_padic`, on Python ints: minimal-valuation pivoting with
               a deterministic row-major tie-break, each step x + c*y mod p^N;
  F_p[z]/z^M   `_snf_chain`, the same loop with each step a ring call;
  Z[1/S]       `_snf_localized`, on Python ints: least-|entry| pivoting, the
               nearest-integer multiple of the pivot subtracted, so the least
               |entry| falls until the pivot divides its block; the sign and
               S-unit factors stripped from the divisors.  The witnesses stay
               on ints (`_LocalizedSNF`): left as integer rows with one
               S-unit scalar per row, right as integer rows.

Over Z/p^N (`modulus`), `Mat.mul` and the solve run on ints as well.  Z/p^N
and Z[1/S] share the integer divisor rule, F_p[z]/z^M has the valuation
rule.  Over Z[1/S] the products with the witnesses, the kernel and the
L . A . R = D check run on their ints; a result builds its Fraction `left`
or `right` on each read, for the callers that print or invert them (the
CLI's Smith form report, `verify`, `modules.decompose_elementary`).  One
32-entry memo, `base_snf`, keyed by the caller's (matrix, ring), holds the
SNFs; a BK or Lambda matrix is expanded only when its key misses.  Each
entry also keeps up to 32 reads of its matrix, the oldest dropped first:
the kernel rows of each `lead` and the membership verdict on each target,
each the value the first call computed, checks included, so a warm call
answers as a cold one does.

Invertibility (`is_invertible`) is decided by an invariant, by a route
that shares no code with the SNF kernels: the rank over F_p of the
residues (`residue_rank`) for the local families, an S-unit Bareiss
determinant over Z[1/S], which TruncatedLambda reaches through its constant
terms.  `invert` solves only for callers that read the inverse.

Solves and kernels back-multiply only the unknowns the caller reads: X of
X . mat + Y . rel = b (`solve_left_mod`), the first `lead` unknowns
(`solve_left_info`) or kernel columns (`kernel_left`).  A membership test
(`in_row_span`) is a solve with lead 0 that stops at the divisor rule: no
quotient row is formed and nothing is multiplied back; a zero target is in
every span and takes no lookup.  `modules.module_map` checks a map this way.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import UnsupportedRingError
from .rings import LocalizedIntegers, TruncatedPadic, TruncatedPowerSeries


def _int_products(arows, brows):
    """Row by row, the unreduced integer sums of a[i][k] * (row k of b) over
    the nonzero a[i][k]; None for a row with no nonzero entry."""
    for arow in arows:
        acc = None
        for a, brow in zip(arow, brows):
            if a:
                acc = ([a * y for y in brow] if acc is None
                       else [x + a * y for x, y in zip(acc, brow)])
        yield acc


class Mat:
    """Small immutable matrix of raw ring elements with explicit shape."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = data = tuple(map(tuple, data))
        assert len(data) == rows and set(map(len, data)) <= {cols}

    @staticmethod
    def from_rows(rows_list, cols):
        return Mat(len(rows_list), cols, rows_list)

    @staticmethod
    def identity(n, ring):
        return Mat.scalar(n, ring.one, ring)

    @staticmethod
    def scalar(n, c, ring):
        """c times the n x n identity."""
        return Mat(n, n, [[c if i == j else ring.zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(r, c, ring):
        return Mat(r, c, [[ring.zero] * c for _ in range(r)])

    def mul(self, other, ring):
        """Row by row: output row i sums a[i][k] * (row k of other) over the
        nonzero a[i][k].  Over Z/p^N the sums are of raw int products, and
        each output entry is reduced once."""
        assert self.cols == other.rows, f"shape mismatch {self.cols} != {other.rows}"
        zero_row, q = (ring.zero,) * other.cols, ring.modulus
        if q:
            return Mat(self.rows, other.cols,
                       [zero_row if acc is None else [x % q for x in acc]
                        for acc in _int_products(self.data, other.data)])
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        out = []
        for arow in self.data:
            acc = None
            for a, orow in zip(arow, other.data):
                if is_zero(a):
                    continue
                if acc is None:
                    acc = [mul(a, y) for y in orow]
                else:
                    acc = [add(x, mul(a, y)) for x, y in zip(acc, orow)]
            out.append(zero_row if acc is None else acc)
        return Mat(self.rows, other.cols, out)

    def vstack(self, other):
        assert self.cols == other.cols
        return Mat(self.rows + other.rows, self.cols, self.data + other.data)

    @staticmethod
    def block(grid):
        """Concatenate a grid of Mats (zero blocks given as `Mat.zero`): the
        blocks of a grid row share a row count, those of a grid column a
        column count."""
        widths = [m.cols for m in grid[0]]
        data = []
        for brow in grid:
            height = brow[0].rows
            assert [m.cols for m in brow] == widths and all(m.rows == height for m in brow)
            data.extend(sum((m.data[i] for m in brow), ()) for i in range(height))
        return Mat(len(data), sum(widths), data)

    def kron(self, other, ring):
        """Kronecker product: a_ij * o_kl at (i * other.rows + k, j * other.cols + l)."""
        mul, is_zero = ring.mul, ring.is_zero
        zero_row = (ring.zero,) * other.cols
        data = [[x for a in arow for x in (zero_row if is_zero(a) else [mul(a, o) for o in orow])]
                for arow in self.data for orow in other.data]
        return Mat(self.rows * other.rows, self.cols * other.cols, data)

    def transpose(self):
        return Mat(self.cols, self.rows, zip(*self.data) if self.rows else [()] * self.cols)

    def scale(self, c, ring):
        return Mat(self.rows, self.cols, [[ring.mul(c, x) for x in r] for r in self.data])

    def add(self, other, ring):
        assert self.rows == other.rows and self.cols == other.cols
        return Mat(self.rows, self.cols,
                   [[ring.add(self.data[i][j], other.data[i][j]) for j in range(self.cols)]
                    for i in range(self.rows)])

    def sub(self, other, ring):
        return self.add(other.scale(ring.neg(ring.one), ring), ring)

    def is_zero(self, ring):
        return all(ring.is_zero(x) for r in self.data for x in r)

    def take_rows(self, idxs):
        return Mat(len(idxs), self.cols, [self.data[i] for i in idxs])

    def take_cols(self, idxs):
        return Mat(self.rows, len(idxs), [[self.data[i][j] for j in idxs] for i in range(self.rows)])

    def tolist(self):
        return [list(r) for r in self.data]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.data == other.data and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.data})"


class SNFResult:
    """left . mat . right = diag(divisors) with left and right invertible,
    for a rows x cols matrix; a Z[1/S] result is a `_LocalizedSNF`, its
    witnesses on ints.  No inverse is stored: `verify` decides invertibility
    by `is_invertible`, and `diagonalizes`, the exact identity alone,
    certifies a divisor read.  The solve multiplies by the witnesses through
    `right_product` and `left_product`.  `reads` holds what `kernel_left`
    and `in_row_span` derived from a `base_snf` entry (`_read`); a copy
    starts with none."""

    __slots__ = ("left", "right", "divisors", "rows", "cols", "reads")

    def __init__(self, left, right, divisors):
        self.left, self.right, self.divisors, self.reads = left, right, divisors, {}
        self.rows, self.cols = left.rows, right.cols

    def __eq__(self, other):
        return (isinstance(other, SNFResult) and self.divisors == other.divisors
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"SNFResult(left={self.left!r}, right={self.right!r}, divisors={self.divisors!r})"

    def copy(self):
        """The caller's own result: the same immutable witnesses, its own
        divisors list and no reads."""
        return SNFResult(self.left, self.right, list(self.divisors))

    def diagonal(self, rows, cols, ring):
        d = Mat.zero(rows, cols, ring).tolist()
        for i, x in enumerate(self.divisors):
            d[i][i] = x
        return Mat(rows, cols, d)

    def diagonalizes(self, mat, ring):
        """left . mat . right == diag(divisors), exactly."""
        lhs = self.left.mul(mat, ring).mul(self.right, ring)
        return lhs == self.diagonal(mat.rows, mat.cols, ring)

    def verify(self, mat, ring):
        return (self.diagonalizes(mat, ring) and is_invertible(self.left, ring)
                and is_invertible(self.right, ring))

    def right_product(self, b, ring):
        return None, b.mul(self.right, ring).data

    def left_product(self, ys, dens, lead, ring):
        """The first `lead` columns of Y . left, Y's rows `ys` zero-padded."""
        rows = self.rows
        pad = [ring.zero] * (rows - len(self.divisors))
        left = self.left if lead == rows else Mat(rows, lead, [r[:lead] for r in self.left.data])
        return Mat(len(ys), rows, [y + pad for y in ys]).mul(left, ring)


class _LocalizedSNF(SNFResult):
    """A Z[1/S] SNF from `_snf_localized`, its witnesses held on ints.  Row
    k of left is (lscale[k] / lden) . lrows[k], its row scalar an S-unit:
    s_k/d_k for a divisor d_k stripped to s_k, else 1; lden is the lcm of
    the scalars' denominators.  right is rrows, integral.  The solve, the
    kernel and `diagonalizes` read these.  Each read of `left` or `right`
    builds its Fraction Mat, for the callers that print or invert it."""

    __slots__ = ("lrows", "lscale", "lden", "rrows")

    def __init__(self, divisors, lrows, lscale, lden, rrows):
        self.divisors, self.reads = divisors, {}
        self.lrows, self.lscale, self.lden, self.rrows = lrows, lscale, lden, rrows
        self.rows, self.cols = len(lrows), len(rrows)

    @property
    def left(self):
        return Mat(self.rows, self.rows, [[Fraction(x * s, self.lden) for x in row]
                                          for s, row in zip(self.lscale, self.lrows)])

    @property
    def right(self):
        return Mat(self.cols, self.cols, [[Fraction(x) for x in row] for row in self.rrows])

    def copy(self):
        return _LocalizedSNF(list(self.divisors), self.lrows, self.lscale, self.lden, self.rrows)

    def right_product(self, b, ring):
        """(dens, c): per row of b the lcm D of its denominators, an S-unit,
        and the integer rows c = (D . b) . right."""
        scaled = list(_integer_rows(b.data))
        dens = [den for den, _ in scaled]
        assert all(ring.strip_s(den) == 1 for den in dens), "a denominator outside S"
        c = _int_products((row for _, row in scaled), self.rrows)
        return dens, [[0] * self.cols if acc is None else acc for acc in c]

    def left_product(self, ys, dens, lead, ring):
        """Y . left on ints: the quotient (cj // d)/D times row j's scalar
        lscale[j]/lden is the integer (cj // d) . lscale[j] over lden . D,
        so one Fraction per nonzero output entry."""
        lrows = self.lrows if lead == self.rows else [r[:lead] for r in self.lrows]
        zero, lden, lscale = ring.zero, self.lden, self.lscale
        ys = ([y * s for y, s in zip(yi, lscale)] for yi in ys)
        return Mat(len(dens), lead, [[zero] * lead if acc is None
                                     else [Fraction(x, lden * den) if x else zero for x in acc]
                                     for acc, den in zip(_int_products(ys, lrows), dens)])

    def diagonalizes(self, mat, ring):
        """left . mat . right == diag(divisors), exactly, on ints.  With
        mat = A'/E, A' integral and E the common denominator of its
        entries, row k of the identity reads
        lscale[k] . (lrows . A' . rrows)[k] == lden . E . diag(divisors)[k],
        a divisor n/m read as m . lscale[k] on the left and n on the right."""
        assert (self.rows, self.cols) == (mat.rows, mat.cols), "shape mismatch"
        scaled = list(_integer_rows(mat.data))
        aden = lcm(*(d for d, _ in scaled))
        den = self.lden * aden
        zero, divisors = [0] * mat.cols, self.divisors
        la = [zero if acc is None else acc
              for acc in _int_products(self.lrows, [[x * (aden // d) for x in row]
                                                    for d, row in scaled])]
        for k, (s, acc) in enumerate(zip(self.lscale, _int_products(la, self.rrows))):
            want = list(zero)
            if k < len(divisors):
                s *= divisors[k].denominator
                want[k] = den * divisors[k].numerator
            if (zero if acc is None else [s * x for x in acc]) != want:
                return False
        return True


def _chain_pivot(a, k, ring):
    """(i, j) of the first entry of least valuation in a[k:][k:], scanning
    row-major, or None if that block is zero.  A unit ends the scan: nothing
    can beat valuation 0, and a later unit would lose the strict `<` tie."""
    best = None
    for i in range(k, len(a)):
        row = a[i]
        for j in range(k, len(row)):
            x = row[j]
            if ring.is_zero(x):
                continue
            v = ring.val(x)
            if v == 0:
                return i, j
            if best is None or v < best[0]:
                best = (v, i, j)
    return None if best is None else best[1:]


def _snf_chain(mat, ring):
    """SNF over a chain ring, F_p[z]/z^M here: `_snf_padic`'s loop with each
    int step a ring call.  With `_chain_pivot`'s pivot scaled to
    uniformizer^v, the step for an entry x of its row or column is
    -shift_down(x, v); zero entries take no step."""
    add, mul, neg, is_zero, shift = ring.add, ring.mul, ring.neg, ring.is_zero, ring.shift_down
    nrows, ncols = mat.rows, mat.cols
    a = [list(r) for r in mat.data]
    left, right = (Mat.identity(n, ring).tolist() for n in (nrows, ncols))
    for k in range(min(nrows, ncols)):
        at = _chain_pivot(a, k, ring)
        if at is None:
            break
        i, j = at
        a[k], a[i] = a[i], a[k]
        left[k], left[i] = left[i], left[k]
        if j != k:
            for row in a + right:
                row[k], row[j] = row[j], row[k]
        v = ring.val(a[k][k])
        unit = shift(a[k][k], v)
        if unit != ring.one:
            u = ring.inv(unit)
            a[k] = [mul(u, x) for x in a[k]]
            left[k] = [mul(u, x) for x in left[k]]
        ak, lk = a[k], left[k]
        for i in range(k + 1, nrows):
            if not is_zero(a[i][k]):
                c = neg(shift(a[i][k], v))
                a[i] = [x if is_zero(y) else add(x, mul(c, y)) for x, y in zip(a[i], ak)]
                left[i] = [x if is_zero(y) else add(x, mul(c, y)) for x, y in zip(left[i], lk)]
        cs = [(j, neg(shift(x, v))) for j, x in enumerate(ak[k + 1:], k + 1) if not is_zero(x)]
        if cs:
            for row in a + right:
                y = row[k]
                if not is_zero(y):
                    for j, c in cs:
                        row[j] = add(row[j], mul(c, y))
    return SNFResult(left=Mat(nrows, nrows, left), right=Mat(ncols, ncols, right),
                     divisors=[a[i][i] for i in range(min(nrows, ncols))])


def _snf_padic(mat, ring):
    """SNF over Z/p^N on Python ints: `_snf_chain`'s pivots and steps in its
    order, so left, right and divisors equal its result exactly.

    The pivot is the first entry of least valuation in the remaining block,
    row-major, and a unit ends the scan.  Its unit part is scaled away, which
    leaves the pivot p^v; every row and column step is then x + c*y mod q,
    one list comprehension per row.
    """
    p, q = ring.p, ring.modulus
    nrows, ncols = mat.rows, mat.cols
    a = [list(r) for r in mat.data]
    left = [[0] * nrows for _ in range(nrows)]
    right = [[0] * ncols for _ in range(ncols)]
    for w in (left, right):
        for i, row in enumerate(w):
            row[i] = 1
    for k in range(min(nrows, ncols)):
        # x % bound is nonzero exactly when x is nonzero and of valuation
        # below the best so far (q: nothing found yet)
        bound, at = q, None
        for i in range(k, nrows):
            for j, x in enumerate(a[i][k:], k):
                if x % bound:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    bound, at = p ** v, (i, j)
                    if v == 0:
                        break
            if bound == 1:
                break
        if at is None:
            break
        i, j = at
        a[k], a[i] = a[i], a[k]
        left[k], left[i] = left[i], left[k]
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            for row in right:
                row[k], row[j] = row[j], row[k]
        unit = a[k][k] // bound
        if unit != 1:
            u = pow(unit, -1, q)
            a[k] = [u * x % q for x in a[k]]
            left[k] = [u * x % q for x in left[k]]
        ak, lk = a[k], left[k]
        for i in range(k + 1, nrows):
            if a[i][k]:
                c = -(a[i][k] // bound) % q
                a[i] = [(x + c * y) % q for x, y in zip(a[i], ak)]
                left[i] = [(x + c * y) % q for x, y in zip(left[i], lk)]
        cs = [-(x // bound) % q for x in ak[k + 1:]]
        if any(cs):
            for row in a + right:
                y = row[k]
                if y:
                    row[k + 1:] = [(x + c * y) % q for x, c in zip(row[k + 1:], cs)]
    return SNFResult(left=Mat(nrows, nrows, left), right=Mat(ncols, ncols, right),
                     divisors=[a[i][i] for i in range(min(nrows, ncols))])


def _integer_rows(rows):
    """(D, D . row) for each row of Fractions: D the lcm of the row's
    denominators, D . row as ints."""
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        yield den, [x.numerator * (den // x.denominator) for x in row]


def _nearest(b, piv):
    """The integer q nearest b / piv, ties rounded up: |b - q*piv| <= |piv|/2."""
    return (2 * b + piv) // (2 * piv)


def _snf_localized(mat, ring):
    """SNF over Z[1/S] on Python ints: scale rows to integers, reduce with
    one step rule, strip the sign and S-units.

    Each row of the input is scaled by the lcm of its denominators (recorded
    in `left`), so the block is integral.  The pivot is the first entry of
    least absolute value in the remaining block, row-major.  Every row and
    column step subtracts the nearest-integer multiple of the pivot, so a
    remainder is at most half the pivot in size, and a nonzero one makes the
    next pivot smaller.  Once row k and column k are clear, a block entry
    the pivot does not divide has its row added to row k, and the next
    round's column step leaves a nonzero remainder.  So the least |entry|
    falls at least every second round, and the loop ends.  The divisor d is
    returned as s = strip_s(d), d with its sign and S-unit factors stripped,
    a Fraction; the witnesses stay on ints (`_LocalizedSNF`), row k of
    `left` with the row scalar s/d = 1/u, u = d/s, and every other row
    with the scalar 1.
    """
    nrows, ncols = mat.rows, mat.cols
    a, left = [], []
    for i, (den, row) in enumerate(_integer_rows(mat.data)):
        a.append(row)
        left.append([0] * i + [den] + [0] * (nrows - i - 1))
    right = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for k in range(min(nrows, ncols)):
        while True:
            least, at = 0, None
            for i in range(k, nrows):
                for j, x in enumerate(a[i][k:], k):
                    if x and (not least or abs(x) < least):
                        least, at = abs(x), (i, j)
            if at is None:
                break
            i, j = at
            a[k], a[i] = a[i], a[k]
            left[k], left[i] = left[i], left[k]
            if j != k:
                for row in a + right:
                    row[k], row[j] = row[j], row[k]
            ak, lk, piv = a[k], left[k], a[k][k]
            for i in range(k + 1, nrows):
                if a[i][k]:
                    c = _nearest(a[i][k], piv)
                    a[i] = [x - c * y for x, y in zip(a[i], ak)]
                    left[i] = [x - c * y for x, y in zip(left[i], lk)]
            cs = [_nearest(x, piv) for x in ak[k + 1:]]
            if any(cs):
                for row in a + right:
                    y = row[k]
                    if y:
                        row[k + 1:] = [x - c * y for x, c in zip(row[k + 1:], cs)]
            if any(ak[k + 1:]) or any(a[i][k] for i in range(k + 1, nrows)):
                continue
            bad = next((i for i in range(k + 1, nrows) if any(x % piv for x in a[i][k + 1:])),
                       None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(ak, a[bad])]
            left[k] = [x + y for x, y in zip(lk, left[bad])]

    divisors, units = [], []
    for k in range(min(nrows, ncols)):
        d = a[k][k]
        stripped = ring.strip_s(d) if d else d
        divisors.append(Fraction(stripped))
        units.append(d // stripped if d else 1)
    lden = lcm(*units)
    lscale = [lden // u for u in units] + [lden] * (nrows - len(units))
    return _LocalizedSNF(divisors, left, lscale, lden, right)


def smith_normal_form(mat, ring):
    """SNF left . mat . right = diag(divisors) with invertible witnesses left
    and right; divisors ordered by non-decreasing valuation.

    The witnesses' inverses are not computed: `SNFResult.verify` decides
    invertibility by `is_invertible`; callers needing an inverse `invert`.
    Raises UnsupportedRing for TruncatedBK and TruncatedLambda: use the
    restriction-of-scalars solvers, or `base_snf` for the SNF of the
    expansion.  Results come from the `base_snf` memo; each call returns
    its own SNFResult.
    """
    if ring.expands:
        raise UnsupportedRingError(
            f"{type(ring).__name__} admits no Smith normal form; use restriction of scalars")
    return base_snf(mat, ring).copy()


# Each memo entry keeps up to _READS reads of its matrix, the oldest dropped
# first: a job asks the same question of the same matrix again and again
# (the exactness nodes of a tower, the skeleta of a CW complex).  Kernel
# rows are keyed by their `lead` (an int), verdicts by their target (a Mat).
_READS = 32


def _read(snf, key, compute):
    """The read `key` of the matrix whose `base_snf` entry is `snf`:
    `compute()` on the first call, the stored value on every later call
    with an equal key.  Two threads may compute one read or evict one key
    at once: the value is the same, and `pop(old, None)` cannot raise."""
    reads = snf.reads
    value = reads.get(key)
    if value is None:
        value = reads[key] = compute()
        for old in list(reads)[:-_READS]:
            reads.pop(old, None)
    return value


# Solvers and kernels repeat the same (matrix, ring) inputs within a job: a
# random tower check makes about 35 SNF lookups on about 13 distinct inputs.
# The key is the caller's (matrix, ring), so a TruncatedBK or TruncatedLambda
# matrix is expanded to its base ring (`expand_matrix`) only on a miss, and
# its entry holds the SNF of the expansion.  With 32 entries the misses equal
# the distinct inputs on every corpus job (at most 22, ext_golden_p2) and
# every tower; filtered complexes with up to 61 distinct inputs miss 1 to 3
# more.  A membership test with a nonzero target looks its matrix up, and
# once more through its solve when its verdict is not kept.  `invert` of an
# SNF witness (`decompose_elementary`, `smodules._read_slice`) goes through
# the memo too; a divisor read and `SNFResult.verify` invert nothing.
# On the 48 towers of tower_check seed 601, memo cleared per tower: 1681
# lookups, 641 misses (as many as distinct inputs) and 397 expansions, and
# 357 of 704 kernel and membership reads kept; on the 128 complexes of
# oracle_fuzz seed 7, one memo throughout, 10610 lookups, 4361 misses and
# 2481 of 6872 reads kept.  No entry there holds more than 7 reads, so the
# cap is a bound, not a working size.  lru_cache is thread-safe, and so are
# the reads (`_read`), so an embedding program may run jobs on several
# threads.
@lru_cache(maxsize=32)
def base_snf(mat, ring):
    """The SNF of `mat` over its base ring, memoized: the SNF of `mat` over
    Z/p^N, F_p[z]/z^M and Z[1/S], and of `expand_matrix(mat, ring)` over
    `ring.scalar` for TruncatedBK and TruncatedLambda.  The result is
    shared by every caller and must not be mutated."""
    if ring.expands:
        mat, ring = expand_matrix(mat, ring), ring.scalar
    return _BASE[type(ring)].snf(mat, ring)


def _integer_rule(divisors, ndiv, ring):
    """The divisor rule of Z/p^N and Z[1/S]: a divisor d is 0, p^v or a
    positive S-free integer (`_snf_localized` strips the S-units), and an
    entry c of b . right is read as cj/D, D an S-unit (1 over Z/p^N).  So d
    divides cj/D iff cj is 0, or d is nonzero and divides cj as an integer;
    the quotient is (cj // d)/D.  Returns the per-row readers (failing
    positions, quotients of the first `ndiv` positions)."""
    ints = [d.numerator for d in divisors]
    heads = ints[:ndiv]
    return ((lambda ci: [j for j, (cj, d) in enumerate(zip(ci, ints))
                         if cj and (not d or cj % d)]),
            (lambda ci: [cj // d if cj else 0 for cj, d in zip(ci, heads)]))


def _valuation_rule(divisors, ndiv, ring):
    """The divisor rule of F_p[z]/z^M: a divisor is 0 or exactly z^v, its
    unit part scaled away, so d divides cj iff the first v coefficients of
    cj vanish (v = M for 0); the quotient is cj shifted down by v."""
    vals = [ring.mlen if v is None else v for v in map(ring.var_valuation, divisors)]
    heads, shift = vals[:ndiv], ring.shift_down
    return ((lambda ci: [j for j, (cj, v) in enumerate(zip(ci, vals)) if any(cj[:v])]),
            (lambda ci: [shift(cj, v) for cj, v in zip(ci, heads)]))


def _solve_snf(snf, b, ring, failures, lead):
    """The first `lead` columns of X with X . mat = b given mat's SNF, or
    None.  b a Mat of row targets; mat's shape is that of the witnesses.

    With c = b . right, X = Y . left solves it iff Y . diag(divisors) = c,
    a divisor past the diagonal being zero: the family's divisor rule
    (`_BASE`) decides each entry and forms its quotient.  Every unsolvable
    equation is appended to the (empty) list `failures` as (row, position,
    divisor, residue), the residue the entry of b . right, so callers get a
    complete obstruction record.  Y and its product with the first `lead`
    columns of `left` are built only when the check passes and `lead` > 0:
    with lead 0 the check is the answer."""
    ndiv = len(snf.divisors)
    divisors = snf.divisors + [ring.zero] * (snf.cols - ndiv)
    dens, c = snf.right_product(b, ring)
    failing, quotients = _BASE[type(ring)].rule(divisors, ndiv, ring)
    for i, ci in enumerate(c):
        failures.extend((i, j, divisors[j], ci[j] if dens is None else Fraction(ci[j], dens[i]))
                        for j in failing(ci))
    if failures:
        return None
    if not lead:
        return Mat(b.rows, 0, [()] * b.rows)
    return snf.left_product([quotients(ci) for ci in c], dens, lead, ring)


def _kernel_snf(snf, ring, lead):
    """The first `lead` columns of rows spanning {x : x . mat = 0} given
    mat's SNF: the base family's kernel read (`_BASE`), reassembled for an
    expanding ring."""
    if ring.expands:
        return reassemble_rows(_kernel_snf(snf, ring.scalar, lead * ring.mlen), ring, lead)
    return _BASE[type(ring)].kernel(snf, ring, lead)


def _kernel_localized(snf, ring, lead):
    """A nonzero divisor annihilates nothing in Z[1/S], so the kernel is
    spanned by the rows of `left` at a zero divisor or past the divisors."""
    zero, lden, divisors, ndiv = ring.zero, snf.lden, snf.divisors, len(snf.divisors)
    return Mat.from_rows([[Fraction(x * s, lden) if x else zero for x in row[:lead]]
                          for j, (s, row) in enumerate(zip(snf.lscale, snf.lrows))
                          if j >= ndiv or not divisors[j]], lead)


def _kernel_chain(snf, ring, lead):
    """ann(d) . left[j] for each divisor d with a nonzero annihilator, and
    the rows of `left` past the divisors.  A row is kept when it is nonzero
    as a whole, so it may read zero in its first `lead` columns."""
    mul, is_zero, divisors = ring.mul, ring.is_zero, snf.divisors
    gens = []
    for j, d in enumerate(divisors):
        a = ring.ann_gen(d)
        if a is None:
            continue
        row = snf.left.data[j]
        head = [mul(a, x) for x in row[:lead]]
        if not all(map(is_zero, head)) or any(not is_zero(mul(a, x)) for x in row[lead:]):
            gens.append(head)
    gens.extend(snf.left.data[j][:lead] for j in range(len(divisors), snf.rows))
    return Mat.from_rows(gens, lead)


def expand_matrix(mat, ring):
    """Base-ring matrix of x |-> x . mat under T^g = base^(g*M)."""
    base = ring.scalar
    m = ring.mlen
    out = [[base.zero] * (mat.cols * m) for _ in range(mat.rows * m)]
    for i in range(mat.rows):
        for j in range(mat.cols):
            t = mat.data[i][j]
            for a in range(m):
                for b in range(a, m):
                    out[i * m + a][j * m + b] = t[b - a]
    return Mat(mat.rows * m, mat.cols * m, out)


def expand_rows(mat, ring):
    """Row-wise coordinate expansion: T^g rows -> base^(g*M) rows."""
    m = ring.mlen
    out = []
    for row in mat.data:
        flat = []
        for t in row:
            flat.extend(t)
        out.append(flat)
    return Mat(mat.rows, mat.cols * m, out)


def reassemble_rows(mat, ring, cols):
    """Inverse of expand_rows: base^(g*M) rows -> T^g rows."""
    m = ring.mlen
    assert mat.cols == cols * m
    out = []
    for row in mat.data:
        out.append([tuple(row[j * m: (j + 1) * m]) for j in range(cols)])
    return Mat(mat.rows, cols, out)


def solve_left(mat, b, ring):
    """X with X . mat = b over any family, or None."""
    sol, _ = solve_left_info(mat, b, ring)
    return sol


def solve_left_info(mat, b, ring, lead=None):
    """Like solve_left but also returns the unsolvable-equation record:
    a list of (rhs_row, diag_position, divisor, residue) over the base ring.
    With `lead`, the solution holds only the first `lead` unknowns of each
    row, the columns X[:, :lead] of a full solution."""
    lead = mat.rows if lead is None else lead
    if mat.rows == 0:
        if b.is_zero(ring):
            return Mat(b.rows, 0, [[] for _ in range(b.rows)]), []
        bad = [(i, j, ring.zero, b.data[i][j]) for i in range(b.rows)
               for j in range(b.cols) if not ring.is_zero(b.data[i][j])]
        return None, bad
    if mat.cols == 0:
        return Mat.zero(b.rows, lead, ring), []
    failures = []
    if ring.expands:
        xb = _solve_snf(base_snf(mat, ring), expand_rows(b, ring), ring.scalar, failures,
                        lead * ring.mlen)
        return (xb if xb is None or not lead else reassemble_rows(xb, ring, lead)), failures
    return _solve_snf(base_snf(mat, ring), b, ring, failures, lead), failures


def in_row_span(mat, b, ring):
    """Does every row of b lie in the row span of mat?  The verdict of
    `solve_left(mat, b, ring) is not None`: the same SNF and divisor check,
    with no quotient formed and no unknown multiplied back.  A zero b lies
    in every span; any other verdict is kept on mat's `base_snf` entry."""
    if b.is_zero(ring):
        return True
    if not mat.rows:
        return False
    return _read(base_snf(mat, ring), b, lambda: solve_left_info(mat, b, ring, 0)[0] is not None)


def kernel_left(mat, ring, lead=None):
    """Rows spanning {x : x . mat = 0} over any family.  With `lead`, only
    their first `lead` columns: for mat = [A; Rel] and lead = A.rows, rows
    spanning {x : x . A in the row span of Rel}.  A row is kept when its
    full kernel row is nonzero."""
    lead = mat.rows if lead is None else lead
    if mat.rows == 0:
        return Mat(0, 0, [])
    if mat.cols == 0:
        return Mat.identity(mat.rows, ring).take_cols(range(lead))
    snf = base_snf(mat, ring)
    return _read(snf, lead, lambda: _kernel_snf(snf, ring, lead))


def solve_left_mod(mat, b, rel, ring):
    """X with X . mat + Y . rel = b for some Y, or None. rel may have 0 rows."""
    sol, _ = solve_left_info(mat.vstack(rel), b, ring, mat.rows)
    return sol


def invert(mat, ring):
    """Inverse of a square matrix, or None if not invertible.  A caller that
    reads only the verdict asks `is_invertible`."""
    assert mat.rows == mat.cols
    inv = solve_left(mat, Mat.identity(mat.rows, ring), ring)
    if inv is None:
        return None
    if mat.mul(inv, ring) != Mat.identity(mat.rows, ring):
        return None
    return inv


def residue_rank(mat, ring):
    """Rank over the residue field F_p of a matrix over a local family
    (Z/p^N, F_p[z]/z^M, TruncatedBK): Gaussian elimination mod p on the
    residues of its rows (`ring.residues`).  By Nakayama, rows span the free
    module exactly when their residues span F_p^cols."""
    return _rank_mod_p(list(map(ring.residues, mat.data)), ring.p)


def _rank_mod_p(rows, p):
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        top = rows[rank]
        u = pow(top[j], -1, p)
        for i in range(rank + 1, len(rows)):
            c = rows[i][j] * u % p
            if c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _bareiss_det(rows):
    """Determinant of a square integer matrix, given as int rows, by
    Bareiss's fraction-free elimination: each division by the previous
    pivot is exact, and every entry stays a minor of the input."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        at = next((i for i in range(k, n) if a[i][k]), None)
        if at is None:
            return 0
        if at != k:
            a[k], a[at] = a[at], a[k]
            sign = -sign
        ak = a[k]
        for ai in a[k + 1:]:
            c = ai[k]
            ai[k + 1:] = [(ak[k] * x - c * y) // prev for x, y in zip(ai[k + 1:], ak[k + 1:])]
        prev = ak[k]
    return sign * prev


def is_invertible(mat, ring):
    """`invert(mat, ring) is not None`, decided with no solve.  A square
    matrix over a ring with a nilpotent ideal I is invertible exactly when
    its image over R/I is, so the family's invertibility read (`_BASE`)
    takes the residues of the rows (`ring.residues`): full rank over F_p
    for Z/p^N, F_p[z]/z^M and TruncatedBK; over Z[1/S], and for
    TruncatedLambda its constant terms, the rows scaled to integers by their
    S-unit denominators, whose Bareiss determinant must be an S-unit."""
    assert mat.rows == mat.cols
    base = ring.scalar if ring.expands else ring
    return _BASE[type(base)].invertible(list(map(ring.residues, mat.data)), base)


def _residue_invertible(rows, ring):
    return _rank_mod_p(rows, ring.p) == len(rows)


def _determinant_invertible(rows, ring):
    det = _bareiss_det([row for _, row in _integer_rows(rows)])
    return det != 0 and ring.strip_s(det) == 1


# The SNF facts of each base family: its Smith normal form kernel, the
# divisor rule of its solve, its kernel read and its invertibility read.
# TruncatedBK and TruncatedLambda read the entry of their `scalar`.
_Base = namedtuple("_Base", "snf rule kernel invertible")
_BASE = {
    TruncatedPadic: _Base(_snf_padic, _integer_rule, _kernel_chain, _residue_invertible),
    TruncatedPowerSeries: _Base(_snf_chain, _valuation_rule, _kernel_chain, _residue_invertible),
    LocalizedIntegers: _Base(_snf_localized, _integer_rule, _kernel_localized,
                             _determinant_invertible),
}
