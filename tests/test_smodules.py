import random

import pytest

from truncalg.bkrandom import scrambled_elementary
from truncalg.errors import UnsupportedRingError
from truncalg.linalg import Mat
from truncalg.modules import PresentedModule, module_from_divisors
from truncalg.rings import TruncatedBK, TruncatedPadic
from truncalg.smodules import NotElementary, decompose_over_s, gr_p

BK = TruncatedBK(3, 3, 2)


def test_gr_slices_of_cyclic():
    sp2 = PresentedModule.cyclic(BK, BK.from_int(9))
    dec0 = gr_p(sp2, 0).decomposition
    assert not dec0.torsion_divisors and dec0.free_rank == 1
    assert gr_p(sp2, 1).decomposition.free_rank == 1
    assert gr_p(sp2, 2).decomposition.free_rank == 0


def test_gr_slice_not_free():
    spz = PresentedModule.from_relation_rows(BK, 1, [[BK.from_int(3)], [BK.var_power(1)]])
    sl = gr_p(spz, 0)
    assert sl.decomposition.torsion_divisors  # not free: z-torsion certificate


def test_gr_needs_bk_ring():
    with pytest.raises(UnsupportedRingError):
        gr_p(PresentedModule.free(TruncatedPadic(3, 2), 1), 0)


def test_decompose_already_elementary():
    m = PresentedModule.from_relation_rows(BK, 3, [
        [BK.from_int(9), BK.zero, BK.zero],
        [BK.zero, BK.from_int(3), BK.zero],
        [BK.zero, BK.zero, BK.zero]])
    dec = decompose_over_s(m)
    assert dec.free_rank == 1
    assert sorted(BK.p_valuation(d) for d in dec.torsion_divisors) == [1, 2]
    assert dec.verify()


def test_decompose_rejects_z_torsion():
    spz = PresentedModule.from_relation_rows(BK, 1, [[BK.from_int(3)], [BK.var_power(1)]])
    res = decompose_over_s(spz)
    assert isinstance(res, NotElementary)
    assert res.failing_j == 0
    assert res.certificate["z_torsion_divisors"]


def test_decompose_hidden_free_plus_torsion():
    # rank-3 presentation of S + S/p^2 via a redundant generator and scramble
    rel = Mat(2, 3, [[BK.from_int(9), BK.zero, BK.zero],
                     [BK.one, BK.one, BK.neg(BK.one)]])
    m = PresentedModule(BK, 3, rel)
    dec = decompose_over_s(m)
    assert dec.free_rank == 1
    assert [BK.p_valuation(d) for d in dec.torsion_divisors] == [2]


def test_decompose_zero_and_free():
    assert decompose_over_s(PresentedModule.zero(BK)).free_rank == 0
    dec = decompose_over_s(PresentedModule.free(BK, 2))
    assert dec.free_rank == 2 and not dec.torsion_divisors


@pytest.mark.parametrize("p", [3, 5])
def test_scramble_round_trip(p):
    rng = random.Random(100 + p)
    ring = TruncatedBK(p, 3, 3)
    for _ in range(12):
        mod, m, exps = scrambled_elementary(ring, rng)
        dec = decompose_over_s(mod)
        assert not isinstance(dec, NotElementary)
        got = sorted(ring.p_valuation(d) for d in dec.torsion_divisors)
        assert (dec.free_rank, got) == (m, exps)
        assert dec.verify()
