"""Coefficient rings: exact arithmetic for the five ring families.

Families and raw element representations (always canonical):

  LocalizedIntegers(S)          Fraction, denominator supported on S
  TruncatedPadic(p, N)          int in [0, p^N)                    -- chain ring, uniformizer p
  TruncatedPowerSeries(p, M)    tuple of M ints in [0, p)          -- chain ring, uniformizer z
  TruncatedBK(p, N, M, E)       tuple of M ints in [0, p^N)        -- bivariate truncation of W[[z]]
  TruncatedLambda(S, M)         tuple of M Fractions               -- truncation of Z[1/S][[q-1]]

Each class is the record of its family's ring-level facts (see RingBase):
callers read these and never test the family.  The two chain rings and
LocalizedIntegers support Smith normal forms directly; TruncatedBK and
TruncatedLambda expand to their `scalar` (TruncatedPadic resp.
LocalizedIntegers) by restriction of scalars, see linalg.expand_matrix.
The SNF facts of the three base families live in linalg's table, as this
module imports nothing of linalg.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import count, islice, product
from math import gcd, isqrt

from .errors import SchemaError, UnsupportedRingError

# a Z[1/S] element as a string; Fraction also reads "1.5", "1e3", " 3 ", "+3", "1_0"
_FRACTION_STRING = re.compile("-?[0-9]+(/[0-9]+)?")

# ---------------------------------------------------------------------------
# Prime arithmetic: primality, prime ranges, factorization, valuations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
# the least strong pseudoprime to all 13 bases in _SMALL_PRIMES (Sorenson &
# Webster 2015): below it those bases decide primality exactly
_SPRP13_BOUND = 3317044064679887385961981


def _as_int(n):
    if isinstance(n, bool):
        raise ValueError(f"{n} is not an integer")
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None


def _is_sprp(n, bases):
    """Strong probable-prime test of an odd n > max(bases) to every base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a, n):
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _half(x, n):
    """x / 2 mod the odd modulus n."""
    x %= n
    return (x + n) // 2 if x & 1 else x // 2


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test with Selfridge's parameters: D is the
    first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1, Q = (1 - D)/4.
    n must be odd, not a square, and larger than every |D| tried."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 1, 1, Q % n          # U_1, V_1, Q^1; binary ladder up to U_k, V_k
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half(u + v, n), _half(D * u + v, n)
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def isprime(n):
    """Primality of an integer; non-integers (bools included) raise ValueError.

    Exact below 3.3e24: trial division by the primes up to 41, then strong
    probable-prime tests to those 13 bases.  Above, the BPSW test (base-2
    Miller-Rabin plus a strong Lucas test), which has no known counterexample.
    """
    if type(n) is not int:
        n = _as_int(n)
    if n < 43:
        return n in _SMALL_PRIME_SET
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return False
    if n < 43 * 43:
        return True
    if n < _SPRP13_BOUND:
        return _is_sprp(n, _SMALL_PRIMES)
    return _is_sprp(n, (2,)) and isqrt(n) ** 2 != n and _is_strong_lucas_prp(n)


def primerange(lo, hi):
    """The primes q with lo <= q < hi, in increasing order, generated lazily."""
    for n in range(max(lo, 2), hi):
        if isprime(n):
            yield n


def primes_outside(sset, k):
    """The k smallest primes not in sset, in increasing order."""
    return list(islice((q for q in count(2) if q not in sset and isprime(q)), k))


def _rho_divisor(n):
    """A proper divisor of a composite n free of prime factors up to 41:
    Pollard's rho with Brent's cycle search, from x0 = 2 with c = 1, 2, ..."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: replay the batch step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorint(n):
    """Prime factorization {prime: exponent} of an integer n >= 1, in
    increasing prime order: trial division by the primes up to 41, then
    Pollard-Brent rho on the cofactors that are not prime."""
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def prime_valuation(n, q):
    """Exponent of the prime q in the integer n; 0 for n = 0, so zero entries
    never raise a maximum of valuations.  q < 2 raises ValueError (q = 1
    divides every n and would never stop)."""
    if q < 2:
        raise ValueError(f"valuation at {q}: the base must be a prime")
    n = abs(int(n))
    v = 0
    while n and n % q == 0:
        n //= q
        v += 1
    return v


def _check_primes(primes):
    primes = tuple(int(q) for q in primes)
    if list(primes) != sorted(set(primes)):
        raise SchemaError("inverted primes must be sorted and duplicate-free", "/inverted_primes")
    for k, q in enumerate(primes):
        if not isprime(q):
            raise SchemaError(f"{q} is not prime", f"/inverted_primes/{k}")
    return primes


@dataclass(frozen=True)
class EisensteinSpec:
    """Monic polynomial c_0 + c_1 z + ... + z^e with p | c_i and v_p(c_0) = 1."""

    coefficients: tuple
    ramification_e: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(int(c) for c in self.coefficients))

    def validate(self, p):
        c, e, loc = self.coefficients, self.ramification_e, "/eisenstein/coefficients"
        if e < 1 or len(c) != e + 1:
            raise SchemaError("eisenstein polynomial needs degree e >= 1 and e+1 coefficients",
                              "/eisenstein/ramification_e" if e < 1 else loc)
        if c[-1] != 1:
            raise SchemaError("eisenstein polynomial must be monic", f"{loc}/{e}")
        if c[0] % p != 0 or c[0] % (p * p) == 0:
            raise SchemaError("eisenstein constant term must have p-valuation exactly 1", f"{loc}/0")
        for i in range(1, e):
            if c[i] % p != 0:
                raise SchemaError("eisenstein middle coefficients must be divisible by p",
                                  f"{loc}/{i}")


def default_eisenstein(p):
    """E(z) = z - p, the unramified case e = 1."""
    return EisensteinSpec(coefficients=(-p, 1), ramification_e=1)


class RingBase:
    """A family's record of ring-level facts, read by callers in place of a
    family test.  Defaults below; a family overrides what differs:

      expands             elements are coefficient vectors over `scalar`, over
                          which the engine solves (TruncatedBK, TruncatedLambda)
      untruncated         Z[1/S] itself: torsion has a prime-power profile
      local               residue field F_p, so Nakayama reads spans mod p
      structure_via_gr_p  the structure theorem goes through gr_p (TruncatedBK)
      modulus             elements are the ints mod `modulus` (Z/p^N), or None
      inverted_primes     the primes S inverted; () for the local families
      residues(row)       the row modulo the nilradical: mod p for the local
                          families, the constant terms over TruncatedLambda
      torsion_exponent(d), elements(), element_count(), to_json(),
      element_from_json(v, loc)"""

    expands = untruncated = local = structure_via_gr_p = False
    modulus = None

    def elements(self):
        raise UnsupportedRingError(f"cannot enumerate {type(self).__name__}")

    element_count = elements

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def sum(self, xs):
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def is_zero(self, x):
        return x == self.zero

    def pow(self, x, k):
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def element_str(self, x):
        return str(x)


@dataclass(frozen=True)
class LocalizedIntegers(RingBase):
    inverted_primes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inverted_primes", _check_primes(self.inverted_primes))

    # shared by every access and every instance: Fractions are immutable
    zero = Fraction(0)
    one = Fraction(1)
    untruncated = True

    def residues(self, row):
        return row

    def to_json(self):
        return {"family": "LocalizedIntegers", "inverted_primes": list(self.inverted_primes)}

    def element_from_json(self, v, loc):
        """An int, or a string of ASCII digits -?a or -?a/b in lowest terms;
        the denominator must be supported on S."""
        if isinstance(v, bool):
            raise SchemaError("booleans are not ring elements", loc)
        if not isinstance(v, (int, str)):
            raise SchemaError("expected an integer or fraction string", loc)
        if isinstance(v, str) and not _FRACTION_STRING.fullmatch(v):
            raise SchemaError(f"'{v}' is not a fraction string", loc)
        try:
            fr = Fraction(v)
        except Exception:
            raise SchemaError(f"'{v}' is not a fraction string", loc)
        if isinstance(v, str) and "/" in v and int(v.split("/")[1]) != fr.denominator:
            raise SchemaError(f"'{v}' is not reduced; write '{fr.numerator}/{fr.denominator}'", loc)
        if self.strip_s(fr.denominator) != 1:
            raise SchemaError(
                f"denominator {fr.denominator} is not supported on the inverted primes", loc)
        return fr

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, x):
        return not x

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def is_unit(self, x):
        if x == 0:
            return False
        return self.strip_s(abs(x.numerator)) == 1

    def inv(self, x):
        if not self.is_unit(x):
            raise ZeroDivisionError(f"{x} is not a unit in Z[1/S]")
        return 1 / x

    def strip_s(self, n):
        """Remove all inverted-prime factors from a positive integer."""
        n = abs(int(n))
        for q in self.inverted_primes:
            while n % q == 0:
                n //= q
        return n

    def normalize(self, raw):
        x = Fraction(raw)
        if self.strip_s(x.denominator) != 1:
            raise SchemaError(
                f"denominator {x.denominator} has a prime factor outside S={list(self.inverted_primes)}"
            )
        return x


class ChainRing(RingBase):
    """Common protocol for Z/p^N and F_p[z]/(z^M): every ideal is
    (uniformizer^k).  A chain ring defines `precision`, `val`,
    `uniformizer_power`, `shift_down` (exact division by uniformizer^k,
    which requires v(x) >= k) and `inv` of a unit, which `linalg._snf_chain`
    reads; `ann_gen` and `torsion_exponent` follow from them."""

    local = True
    inverted_primes = ()

    def ann_gen(self, d):
        if self.is_zero(d):
            return self.one
        k = self.val(d)
        if k == 0:
            return None
        return self.uniformizer_power(self.precision - k)

    def torsion_exponent(self, d):
        return self.val(d)


@dataclass(frozen=True)
class TruncatedPadic(ChainRing):
    p: int
    precision_n: int

    def __post_init__(self):
        if not isprime(self.p):
            raise SchemaError(f"{self.p} is not prime", "/p")
        if self.precision_n < 1:
            raise SchemaError("precision must be >= 1", "/N")

    # ring constants are cached on the instance: cached_property writes the
    # instance __dict__ directly, so it works on the frozen dataclasses, and
    # equality and hashing stay field-only
    @cached_property
    def modulus(self):
        return self.p ** self.precision_n

    @property
    def precision(self):
        return self.precision_n

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        return int(n) % self.modulus

    def is_zero(self, x):
        return x == 0

    def add(self, x, y):
        return (x + y) % self.modulus

    def neg(self, x):
        return (-x) % self.modulus

    def mul(self, x, y):
        return (x * y) % self.modulus

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        return pow(x, -1, self.modulus)

    def val(self, x):
        if x == 0:
            raise ValueError("valuation of zero")
        k = 0
        while x % self.p == 0:
            x //= self.p
            k += 1
        return k

    def uniformizer_power(self, k):
        return self.from_int(self.p ** k) if k < self.precision_n else 0

    def shift_down(self, x, k):
        return x // (self.p ** k)

    def normalize(self, raw):
        return self.from_int(raw)

    mlen = 1  # one coefficient per element

    def residues(self, row):
        p = self.p
        return [x % p for x in row]

    def elements(self):
        return list(range(self.modulus))

    def element_count(self):
        return self.modulus

    def to_json(self):
        return {"family": "TruncatedPadic", "p": self.p, "N": self.precision_n}

    def element_from_json(self, v, loc):
        """The canonical int in [0, p^N)."""
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError("expected an integer", loc)
        if not (0 <= v < self.modulus):
            raise SchemaError(
                f"{v} is not canonical mod {self.modulus}; write {v % self.modulus}", loc)
        return v


class _PolyTruncMixin:
    """Coefficient-vector arithmetic truncated at var^mlen over the
    coefficient ring `scalar` (TruncatedPadic or LocalizedIntegers); a
    family defines both."""

    @cached_property
    def zero(self):
        return (self.scalar.zero,) * self.mlen

    @property
    def one(self):
        s = self.scalar
        return (s.one,) + (s.zero,) * (self.mlen - 1)

    def from_int(self, n):
        s = self.scalar
        return (s.from_int(n),) + (s.zero,) * (self.mlen - 1)

    def from_coeffs(self, coeffs):
        s = self.scalar
        coeffs = list(coeffs)[: self.mlen]
        coeffs += [s.zero] * (self.mlen - len(coeffs))
        return tuple(s.normalize(c) for c in coeffs)

    def normalize(self, raw):
        return self.from_coeffs(raw if isinstance(raw, (list, tuple)) else [raw])

    def add(self, x, y):
        s = self.scalar
        return tuple(s.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        s = self.scalar
        return tuple(s.neg(a) for a in x)

    def mul(self, x, y):
        s = self.scalar
        out = [s.zero] * self.mlen
        for i, a in enumerate(x):
            if s.is_zero(a):
                continue
            for j, b in enumerate(y):
                if i + j >= self.mlen:
                    break
                out[i + j] = s.add(out[i + j], s.mul(a, b))
        return tuple(out)

    def var_power(self, k):
        """z^k (resp. (q-1)^k), zero once k reaches the truncation order."""
        s = self.scalar
        out = [s.zero] * self.mlen
        if k < self.mlen:
            out[k] = s.one
        return tuple(out)

    def var_valuation(self, x):
        for i, a in enumerate(x):
            if not self.scalar.is_zero(a):
                return i
        return None

    def is_unit(self, x):
        return self.scalar.is_unit(x[0])

    def inv(self, x):
        """Inverse of a unit: invert the constant term, then lift order by order."""
        s = self.scalar
        c0inv = s.inv(x[0])
        out = [s.zero] * self.mlen
        out[0] = c0inv
        for k in range(1, self.mlen):
            acc = s.zero
            for i in range(1, k + 1):
                acc = s.add(acc, s.mul(x[i], out[k - i]))
            out[k] = s.neg(s.mul(c0inv, acc))
        return tuple(out)

    def element_str(self, x):
        return "[" + ", ".join(self.scalar.element_str(c) for c in x) + "]"

    def element_from_json(self, v, loc):
        """A list of `mlen` coefficients, each an element of `scalar`."""
        if not isinstance(v, list):
            raise SchemaError(f"expected a coefficient array of length {self.mlen}", loc)
        if len(v) != self.mlen:
            raise SchemaError(f"coefficient array must have exactly length {self.mlen}", loc)
        return tuple(self.scalar.element_from_json(c, f"{loc}/{i}") for i, c in enumerate(v))


class _ZFamilyMixin(_PolyTruncMixin):
    """The z-families over W/p^N with k = F_p: the Frobenius z |-> z^p, and
    the arithmetic on raw ints (the coefficients are ints mod p^N), one
    reduction by the scalar modulus per coefficient."""

    def add(self, x, y):
        q = self.scalar.modulus
        return tuple([(a + b) % q for a, b in zip(x, y)])

    def neg(self, x):
        q = self.scalar.modulus
        return tuple([-a % q for a in x])

    def inv(self, x):
        """Inverse of a unit: invert the constant term, then lift order by
        order."""
        q = self.scalar.modulus
        c0inv = pow(x[0], -1, q)
        out = [c0inv]
        for k in range(1, self.mlen):
            out.append(-c0inv * sum(x[i] * out[k - i] for i in range(1, k + 1)) % q)
        return tuple(out)

    def mul(self, x, y):
        """Schoolbook product truncated at z^mlen: int sums of products, one
        reduction by the scalar modulus (p^N, or p for F_p[z]/z^M) per
        coefficient."""
        m = self.mlen
        out = [0] * m
        for i, a in enumerate(x):
            if a:
                for j in range(m - i):
                    out[i + j] += a * y[j]
        q = self.scalar.modulus
        return tuple([c % q for c in out])

    def residues(self, row):
        """The constant terms mod p."""
        p = self.p
        return [x[0] % p for x in row]

    def frobenius(self, x):
        """z |-> z^p; identity on the W-coefficients."""
        s = self.scalar
        out = [s.zero] * self.mlen
        for j, a in enumerate(x):
            if j * self.p >= self.mlen:
                break
            out[j * self.p] = a
        return tuple(out)

    @property
    def frobenius_trusted_precision(self):
        return (self.mlen + self.p - 1) // self.p


@dataclass(frozen=True)
class TruncatedPowerSeries(_ZFamilyMixin, ChainRing):
    """k[[z]] truncated: F_p[z]/(z^M). Chain ring with uniformizer z."""

    p: int
    precision_m: int

    def __post_init__(self):
        if not isprime(self.p):
            raise SchemaError(f"{self.p} is not prime", "/p")
        if self.precision_m < 1:
            raise SchemaError("precision must be >= 1", "/M")

    @property
    def mlen(self):
        return self.precision_m

    @cached_property
    def scalar(self):
        return TruncatedPadic(self.p, 1)

    @property
    def precision(self):
        return self.precision_m

    def val(self, x):
        v = self.var_valuation(x)
        if v is None:
            raise ValueError("valuation of zero")
        return v

    def uniformizer_power(self, k):
        return self.var_power(k)

    def shift_down(self, x, k):
        s = self.scalar
        return tuple(list(x[k:]) + [s.zero] * k)

    def elements(self):
        return list(product(range(self.p), repeat=self.mlen))

    def element_count(self):
        return self.p ** self.mlen

    def to_json(self):
        return {"family": "TruncatedPowerSeries", "p": self.p, "M": self.precision_m}


@dataclass(frozen=True)
class TruncatedBK(_ZFamilyMixin, RingBase):
    """W[[z]] at bi-truncation (p^N, z^M), W = Z_p with k = F_p."""

    p: int
    precision_n: int
    precision_m: int
    eisenstein: EisensteinSpec = None

    def __post_init__(self):
        if not isprime(self.p):
            raise SchemaError(f"{self.p} is not prime", "/p")
        if self.precision_n < 1 or self.precision_m < 1:
            raise SchemaError("precisions must be >= 1", "/N" if self.precision_n < 1 else "/M")
        e = self.eisenstein if self.eisenstein is not None else default_eisenstein(self.p)
        e.validate(self.p)
        object.__setattr__(self, "eisenstein", e)

    @property
    def mlen(self):
        return self.precision_m

    @cached_property
    def scalar(self):
        return TruncatedPadic(self.p, self.precision_n)

    def p_valuation(self, x):
        """Largest k with x in (p^k): min of coefficient p-valuations."""
        s = self.scalar
        vals = [s.val(c) for c in x if not s.is_zero(c)]
        return min(vals) if vals else None

    def z_valuation(self, x):
        return self.var_valuation(x)

    def eisenstein_element(self):
        return self.from_coeffs([self.scalar.from_int(c) for c in self.eisenstein.coefficients])

    expands = local = structure_via_gr_p = True
    inverted_primes = ()
    torsion_exponent = p_valuation

    def to_json(self):
        return {"family": "TruncatedBK", "p": self.p, "N": self.precision_n,
                "M": self.precision_m,
                "eisenstein": {"coefficients": list(self.eisenstein.coefficients),
                               "ramification_e": self.eisenstein.ramification_e}}


@dataclass(frozen=True)
class TruncatedLambda(_PolyTruncMixin, RingBase):
    """Z[1/S][[q-1]] truncated at (q-1)^M. Base ring is the PID Z[1/S]."""

    inverted_primes: tuple
    precision_m: int

    def __post_init__(self):
        object.__setattr__(self, "inverted_primes", _check_primes(self.inverted_primes))
        if self.precision_m < 1:
            raise SchemaError("precision must be >= 1", "/M")

    @property
    def mlen(self):
        return self.precision_m

    @cached_property
    def scalar(self):
        return LocalizedIntegers(self.inverted_primes)

    def q_minus_one(self):
        return self.var_power(1)

    expands = True

    def residues(self, row):
        """The constant terms, the values at q = 1."""
        return [x[0] for x in row]

    def to_json(self):
        return {"family": "TruncatedLambda", "inverted_primes": list(self.inverted_primes),
                "M": self.precision_m}
