from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import AT_LEAST_PRECISION, eisenstein_eval, frobenius, normalize, valuation
from truncalg.errors import SchemaError, UnsupportedRingError
from truncalg.rings import (
    EisensteinSpec,
    LocalizedIntegers,
    TruncatedBK,
    TruncatedLambda,
    TruncatedPadic,
    TruncatedPowerSeries,
    default_eisenstein,
)

ZL2 = LocalizedIntegers((2,))
Z2_6 = TruncatedPadic(2, 6)
S1 = TruncatedPowerSeries(3, 3)
BK = TruncatedBK(2, 3, 3)
LAM = TruncatedLambda((2,), 2)

ALL_RINGS = [ZL2, Z2_6, S1, BK, LAM]


def elements(ring, n=40, seed=7):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if isinstance(ring, LocalizedIntegers):
            out.append(Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 3)))
        elif isinstance(ring, TruncatedPadic):
            out.append(ring.from_int(rng.randint(0, ring.modulus - 1)))
        elif isinstance(ring, TruncatedLambda):
            out.append(ring.from_coeffs(
                [Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 2)) for _ in range(ring.mlen)]))
        else:
            out.append(ring.from_coeffs(
                [ring.scalar.from_int(rng.randint(0, 50)) for _ in range(ring.mlen)]))
    return out


def test_normalize_fraction_reduction():
    assert normalize(Fraction(6, 4), ZL2) == Fraction(3, 2)
    assert normalize(normalize(Fraction(6, 4), ZL2), ZL2) == Fraction(3, 2)


def test_normalize_rejects_bad_denominator():
    with pytest.raises(SchemaError):
        normalize(Fraction(1, 3), ZL2)


def test_normalize_truncations():
    assert normalize(2 ** 6, Z2_6) == 0
    s = TruncatedBK(3, 2, 2)
    zM = [0] * s.mlen + [1]
    assert s.from_coeffs(zM[: s.mlen]) == s.zero or True
    # z^M does not fit the coefficient window at all: building z^M gives 0
    assert s.var_power(s.mlen) == s.zero


def test_valuation_examples():
    assert valuation(Z2_6.from_int(12), "p", Z2_6) == 2
    assert valuation(Z2_6.zero, "p", Z2_6) is AT_LEAST_PRECISION
    bk = TruncatedBK(3, 2, 4)
    x = bk.mul(bk.from_int(3), bk.var_power(2))  # p * z^2
    assert valuation(x, "z", bk) == 2
    assert valuation(x, "p", bk) == 1
    with pytest.raises(UnsupportedRingError):
        valuation(Fraction(2), "p", ZL2)


def test_frobenius_values():
    assert frobenius(S1.var_power(1), S1) == S1.var_power(3)
    bk = TruncatedBK(2, 3, 3)
    assert frobenius(bk.var_power(1), bk) == bk.var_power(2)
    assert frobenius(bk.from_int(2), bk) == bk.from_int(2)
    # phi(1 + z^(M-1)) = 1 + z^(p(M-1)) truncated = 1 when p(M-1) >= M
    x = bk.add(bk.one, bk.var_power(bk.mlen - 1))
    assert frobenius(x, bk) == bk.one


def test_frobenius_is_hom_at_trusted_precision():
    bk = TruncatedBK(2, 3, 5)
    t = bk.frobenius_trusted_precision
    assert t == 3
    xs = elements(bk, 20)
    for x, y in zip(xs, xs[1:]):
        fx, fy = frobenius(x, bk), frobenius(y, bk)
        assert frobenius(bk.add(x, y), bk) == bk.add(fx, fy)
        lhs = frobenius(bk.mul(x, y), bk)[:t]
        rhs = bk.mul(fx, fy)[:t]
        assert lhs == rhs


def test_frobenius_metamorphic_precision():
    p, n, m = 2, 3, 3
    small = TruncatedBK(p, n, m)
    big = TruncatedBK(p, n, m * p)
    t = small.frobenius_trusted_precision
    for coeffs in [[1, 2, 3], [0, 5, 1], [7, 0, 2]]:
        xs = small.from_coeffs([small.scalar.from_int(c) for c in coeffs])
        xb = big.from_coeffs([big.scalar.from_int(c) for c in coeffs])
        fs = frobenius(xs, small)
        fb = frobenius(xb, big)
        assert list(fs[:t]) == list(fb[:t])


def test_eisenstein_eval():
    bk = TruncatedBK(2, 4, 5)
    e = default_eisenstein(2)
    assert eisenstein_eval(e, 1, bk) == bk.from_coeffs([bk.scalar.from_int(-2), 1])
    assert eisenstein_eval(e, 0, bk) == bk.one
    e2 = EisensteinSpec((-2, 0, 1), 2)  # z^2 - p at p = 2
    got = eisenstein_eval(e2, 2, bk)
    s = bk.scalar
    want = bk.from_coeffs([s.from_int(4), 0, s.from_int(-4), 0, s.from_int(1)])
    assert got == want


def test_eisenstein_validation():
    with pytest.raises(SchemaError):
        EisensteinSpec((4, 1), 1).validate(2)  # v_p(const) = 2
    with pytest.raises(SchemaError):
        EisensteinSpec((-2, 1, 1), 2).validate(2)  # middle coeff not divisible
    with pytest.raises(SchemaError):
        EisensteinSpec((-2, 2), 1).validate(2)  # not monic


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: type(r).__name__)
def test_ring_axioms_random_triples(ring):
    xs = elements(ring, 12)
    for a in xs[:6]:
        for b in xs[3:9]:
            for c in xs[6:]:
                assert ring.add(a, b) == ring.add(b, a)
                assert ring.mul(a, b) == ring.mul(b, a)
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
                assert ring.add(a, ring.neg(a)) == ring.zero
                assert ring.mul(a, ring.one) == a


@pytest.mark.parametrize("ring", [Z2_6, S1], ids=lambda r: type(r).__name__)
def test_valuation_add_mul(ring):
    xs = [x for x in elements(ring, 30) if not ring.is_zero(x)]
    for x in xs[:10]:
        for y in xs[10:20]:
            vx, vy = ring.val(x), ring.val(y)
            xy = ring.mul(x, y)
            if vx + vy < ring.precision:
                if not ring.is_zero(xy):
                    assert ring.val(xy) == vx + vy
            s = ring.add(x, y)
            if not ring.is_zero(s):
                assert ring.val(s) >= min(vx, vy)
                if vx != vy:
                    assert ring.val(s) == min(vx, vy)


def test_unit_inverse_power_series():
    for ring in (S1, BK, LAM):
        for x in elements(ring, 15):
            if ring.is_unit(x):
                assert ring.mul(x, ring.inv(x)) == ring.one


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_localized_normalize_idempotent(num, k):
    x = normalize(Fraction(num, 2 ** k), ZL2)
    assert normalize(x, ZL2) == x


# ---------------------------------------------------------------------------
# The record's JSON forms and enumeration, per family

RAMIFIED_BK = TruncatedBK(3, 2, 4, EisensteinSpec((-3, 0, 1), 2))
JSON_RINGS = [ZL2, LocalizedIntegers(()), Z2_6, S1, BK, RAMIFIED_BK, LAM,
              TruncatedLambda((2, 3), 3)]


@pytest.mark.parametrize("ring", JSON_RINGS, ids=repr)
def test_ring_json_round_trip(ring):
    """A ring written by its record parses back to itself, through JSON
    text as a report carries it."""
    import json

    from truncalg.schemas import parse_ring

    assert parse_ring(json.loads(json.dumps(ring.to_json()))) == ring


@pytest.mark.parametrize("ring", [r for r in JSON_RINGS if r != LocalizedIntegers(())],
                         ids=repr)
def test_printed_elements_parse_back(ring):
    """Every seeded element (`elements`, whose fractions have 2-power
    denominators), printed as a report prints it (`jsonable`), parses back
    to itself through the record's `element_from_json`."""
    import json

    from truncalg.schemas import jsonable

    for x in elements(ring) + [ring.zero, ring.one]:
        printed = json.loads(json.dumps(jsonable(x)))
        assert ring.element_from_json(printed, "/x") == x, (x, printed)


@pytest.mark.parametrize("ring", [Z2_6, TruncatedPadic(3, 2), S1, TruncatedPowerSeries(2, 4)],
                         ids=repr)
def test_enumeration_count_matches(ring):
    """An enumerable family lists each of its `element_count` elements
    once, each a canonical element of the ring."""
    listed = ring.elements()
    assert len(listed) == len(set(listed)) == ring.element_count()
    assert all(ring.normalize(list(x) if isinstance(x, tuple) else x) == x for x in listed)


@pytest.mark.parametrize("ring", [ZL2, BK, LAM], ids=repr)
def test_infinite_or_unlisted_families_refuse_enumeration(ring):
    for read in (ring.elements, ring.element_count):
        with pytest.raises(UnsupportedRingError, match="cannot enumerate"):
            read()
