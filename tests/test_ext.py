import pytest

from lemmas import ext1
from truncalg.errors import NotElementaryError, PrecisionError
from truncalg.ext import _elementary_exponents, ext1_cocycle_oracle
from truncalg.modules import PresentedModule, is_zero_module
from truncalg.rings import TruncatedBK, TruncatedPadic

BK24 = TruncatedBK(2, 4, 3)
BK34 = TruncatedBK(3, 4, 3)


def cyc(ring, a):
    return PresentedModule.cyclic(ring, ring.from_int(ring.p ** a))


@pytest.mark.parametrize("p,ring", [(2, BK24), (3, BK34)])
def test_ext_golden_table(p, ring):
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            exps, free = _elementary_exponents(ext1(cyc(ring, a), cyc(ring, b)))
            assert exps == [min(a, b)] and free == 0


def test_ext_free_source_vanishes():
    free = PresentedModule.free(BK24, 1)
    assert is_zero_module(ext1(free, cyc(BK24, 2)))


def test_ext_padic_case():
    zp = TruncatedPadic(2, 3)
    exps, free = _elementary_exponents(ext1(PresentedModule.cyclic(zp, 2),
                                            PresentedModule.cyclic(zp, 2)))
    assert exps == [1] and free == 0


def test_ext_rejects_z_torsion_source():
    spz = PresentedModule.from_relation_rows(BK24, 1,
                                             [[BK24.from_int(2)], [BK24.var_power(1)]])
    with pytest.raises(NotElementaryError):
        ext1(spz, cyc(BK24, 1))


def test_cocycle_oracle_full_p2():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            res = ext1_cocycle_oracle(a, b, BK24)
            assert res.split_set_is_coboundaries
            assert res.quotient_cyclic_over_ring
            assert res.abelian_exponent_multiset == [min(a, b)] * BK24.mlen
            assert res.class_count == BK24.p ** (min(a, b) * BK24.mlen)


def test_cocycle_oracle_p3_reduced():
    ring = TruncatedBK(3, 4, 2)
    res = ext1_cocycle_oracle(2, 1, ring)
    assert res.abelian_exponent_multiset == [1, 1]
    zp = TruncatedPadic(3, 4)
    res2 = ext1_cocycle_oracle(2, 2, zp)
    assert res2.abelian_exponent_multiset == [2]


def test_oracle_precision_gate():
    with pytest.raises(PrecisionError):
        ext1_cocycle_oracle(4, 1, BK24)
