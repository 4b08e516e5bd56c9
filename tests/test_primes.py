"""Prime arithmetic in truncalg.rings: fixed cases, and sympy as a reference
(sympy is a dev-only dependency; those tests skip without it)."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from truncalg.rings import (
    TruncatedPadic,
    _is_strong_lucas_prp,
    factorint,
    isprime,
    prime_valuation,
    primerange,
)

# strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
SMALL_BASE_SPSPS = (3215031751, 3825123056546413051)
# the least strong pseudoprime to the 13 primes up to 41, where the
# deterministic Miller-Rabin range ends and BPSW takes over
SPRP13_BOUNDARY = 3317044064679887385961981
# strong Lucas (Selfridge) pseudoprimes, OEIS A217255
STRONG_LUCAS_PSPS = (5459, 5777, 10877, 16109, 18971)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def test_isprime_fixed_cases():
    assert not isprime(0) and not isprime(1) and isprime(2)
    assert not isprime(561)
    for n in SMALL_BASE_SPSPS:
        assert not isprime(n)
    assert not isprime(SPRP13_BOUNDARY)
    assert isprime(2 ** 89 - 1) and not isprime(2 ** 89 + 1)
    assert TruncatedPadic(2 ** 89 - 1, 1).modulus == 2 ** 89 - 1
    for bad in (3.0, True, "3"):
        with pytest.raises(ValueError):
            isprime(bad)


def test_strong_lucas_pseudoprimes_pass_the_lucas_step():
    for n in STRONG_LUCAS_PSPS:
        assert _is_strong_lucas_prp(n) and not isprime(n)


def test_factorint_primerange_valuation_fixed_cases():
    assert factorint(1) == {}
    assert factorint(3215031751) == {151: 1, 751: 1, 28351: 1}
    assert factorint(2 ** 10 * 43 ** 2 * (10 ** 9 + 7)) == {2: 10, 43: 2, 10 ** 9 + 7: 1}
    with pytest.raises(ValueError):
        factorint(0)
    assert list(primerange(10, 30)) == [11, 13, 17, 19, 23, 29]
    assert list(primerange(-5, 3)) == [2]
    assert next(primerange(2, 10 ** 30)) == 2
    assert prime_valuation(-72, 2) == 3 and prime_valuation(-72, 3) == 2
    assert prime_valuation(0, 5) == 0 and prime_valuation(7, 5) == 0
    for q in (1, 0, -2):  # q = 1 used to loop forever
        with pytest.raises(ValueError):
            prime_valuation(12, q)


@given(st.integers(min_value=-10, max_value=10 ** 30))
@settings(max_examples=300, deadline=None)
def test_isprime_matches_sympy(sympy, n):
    assert isprime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    assert isprime(p)


@given(st.integers(min_value=1, max_value=10 ** 20))
@settings(max_examples=200, deadline=None)
def test_factorint_matches_sympy(sympy, n):
    f = factorint(n)
    assert f == sympy.factorint(n)
    assert list(f) == sorted(f)


def test_strong_lucas_matches_sympy(sympy):
    from sympy.ntheory.primetest import is_strong_lucas_prp

    for n in range(45, 20000, 2):
        if isqrt(n) ** 2 != n:
            assert _is_strong_lucas_prp(n) == is_strong_lucas_prp(n), n
