import json
import os
import random

import pytest

from helpers import random_tower, scrambled_elementary
from truncalg import linalg, modules, smodules
from truncalg.errors import InternalInconsistencyError, UnsupportedRingError
from truncalg.linalg import Mat, expand_matrix, invert
from truncalg.modules import (
    ElementaryDecomposition,
    PresentedModule,
    elementary_divisors,
    is_injective,
    is_surjective,
    rows_are_zero_classes,
)
from truncalg.rings import TruncatedBK, TruncatedPadic, TruncatedPowerSeries
from truncalg.schemas import parse_module
from truncalg.smodules import NotElementary, _gr_slices, decompose_over_s, gr_p

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

BK = TruncatedBK(3, 3, 2)


def test_gr_slices_of_cyclic():
    sp2 = PresentedModule.cyclic(BK, BK.from_int(9))
    divs0 = gr_p(sp2, 0).divisors
    assert not divs0.torsion_divisors and divs0.free_rank == 1
    assert gr_p(sp2, 1).divisors.free_rank == 1
    assert gr_p(sp2, 2).divisors.free_rank == 0


def test_gr_slice_not_free():
    spz = PresentedModule.from_relation_rows(BK, 1, [[BK.from_int(3)], [BK.var_power(1)]])
    sl = gr_p(spz, 0)
    assert sl.divisors.torsion_divisors  # not free: z-torsion certificate


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


def test_scramble_at_precision_one_draws_no_torsion():
    """At n = 1 no exponent 1 <= a <= n - 1 exists: the module is free of
    the returned rank."""
    ring = TruncatedBK(3, 1, 2)
    mod, m, exps = scrambled_elementary(ring, random.Random(3))
    assert exps == []
    dec = decompose_over_s(mod)
    assert (dec.free_rank, dec.torsion_divisors) == (m, [])
    for seed in range(4, 12):
        mod, m, exps = scrambled_elementary(ring, random.Random(seed))
        dec = decompose_over_s(mod)
        assert (dec.free_rank, dec.torsion_divisors, exps) == (m, [], [])
        assert dec.verify()


def _tower_modules(node):
    yield node.bk.module
    if node.kind == "extension":
        yield from _tower_modules(node.sub)
        yield from _tower_modules(node.quot)


def _random_bk_module(ring, rng):
    """Random relations: any number of rows (zero included), g = 0 included;
    mostly not elementary."""
    def rand_elt():
        coeffs = [rng.choice([0, 0, 1, ring.p, rng.randrange(ring.scalar.modulus)])
                  for _ in range(ring.mlen)]
        return ring.from_coeffs([ring.scalar.from_int(c) for c in coeffs])

    g = rng.randint(0, 3)
    rows = [[rand_elt() for _ in range(g)] for _ in range(rng.randint(0, 3))]
    return PresentedModule(ring, g, Mat(len(rows), g, rows))


def _slice_modules():
    rng = random.Random(1207)
    for p in (3, 5):
        for _ in range(4):
            yield from _tower_modules(random_tower(p, rng, depth=rng.randint(1, 3), n=2, r=1))
    for ring in (TruncatedBK(3, 3, 3), TruncatedBK(5, 3, 2)):
        for _ in range(8):
            yield scrambled_elementary(ring, rng)[0]
    for _ in range(40):
        ring = TruncatedBK(rng.choice([3, 5]), rng.randint(1, 3), rng.randint(1, 3))
        yield _random_bk_module(ring, rng)


def test_gr_slices_match_the_kernel_presentation():
    """The SNF reader presents every slice with the row span of gr_p's
    kernel presentation, hence the same S1 invariants."""
    free = not_free = 0
    for m in _slice_modules():
        slices = list(_gr_slices(m))
        assert len(slices) == m.ring.precision_n
        for j, mod in enumerate(slices):
            ref = gr_p(m, j)
            assert mod.gens == ref.module.gens == m.gens
            assert rows_are_zero_classes(ref.module, mod.relations)
            assert rows_are_zero_classes(mod, ref.module.relations)
            divs = elementary_divisors(mod)
            assert divs.free_rank == ref.divisors.free_rank
            assert divs.torsion_divisors == ref.divisors.torsion_divisors
            if divs.torsion_divisors:
                not_free += 1
            else:
                free += 1
    assert free and not_free


def test_decompose_reads_slices_without_gr_p(monkeypatch):
    def refuse(m, j):
        raise AssertionError("gr_p reached on an elementary module")

    monkeypatch.setattr(smodules, "gr_p", refuse)
    rng = random.Random(1208)
    ring = TruncatedBK(3, 3, 3)
    for _ in range(8):
        mod, m, exps = scrambled_elementary(ring, rng)
        dec = decompose_over_s(mod)
        got = sorted(ring.p_valuation(d) for d in dec.torsion_divisors)
        assert (dec.free_rank, got) == (m, exps)


def _certificate_from_gr_p(m, j):
    sl = gr_p(m, j)
    s1 = sl.module.ring
    return {"z_torsion_divisors": [s1.element_str(d) for d in sl.divisors.torsion_divisors],
            "gr_relations": sl.module.relations.tolist()}


def test_not_elementary_certificate_is_gr_p_slice():
    with open(os.path.join(CORPUS, "decompose_spz.json")) as fh:
        spz_job = parse_module(json.load(fh)["input"]["module"])
    spz = PresentedModule.from_relation_rows(BK, 1, [[BK.from_int(3)], [BK.var_power(1)]])
    for m in (spz, spz_job):
        res = decompose_over_s(m)
        assert isinstance(res, NotElementary)
        assert res.certificate == _certificate_from_gr_p(m, res.failing_j)


def test_decompose_witness_is_a_checked_isomorphism():
    """Both witness maps were checked to be well defined, and
    from_canonical is injective and surjective: the checks the single
    `verify` call implies, recomputed here as the reference."""
    elementary = 0
    for m in _slice_modules():
        dec = decompose_over_s(m)
        if isinstance(dec, NotElementary):
            continue
        elementary += 1
        for f in (dec.to_canonical, dec.from_canonical):
            assert f.checked
            assert rows_are_zero_classes(f.target, f.source.relations.mul(f.matrix, m.ring))
        assert is_injective(dec.from_canonical)
        assert is_surjective(dec.from_canonical)
        assert dec.verify()
    assert elementary >= 40


def test_decompose_raises_when_the_witness_fails_to_verify(monkeypatch):
    # the slices build no witness, so the assembled one is the only verify
    monkeypatch.setattr(ElementaryDecomposition, "verify", lambda dec: False)
    mod = scrambled_elementary(TruncatedBK(3, 3, 3), random.Random(1209))[0]
    with pytest.raises(InternalInconsistencyError, match="compose to identity"):
        decompose_over_s(mod)


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("ring,max_torsion", [
    (TruncatedBK(3, 3, 3), 2), (TruncatedBK(5, 3, 2), 2), (TruncatedBK(3, 1, 2), 0)])
def test_decompose_reads_slices_without_witnesses(monkeypatch, ring, max_torsion):
    """No slice builds or verifies a witness: one verify, of the assembled
    map, and only its two module_maps per decomposition."""
    calls = {}
    _counting(monkeypatch, modules, "decompose_elementary", calls)
    _counting(monkeypatch, ElementaryDecomposition, "verify", calls)
    _counting(monkeypatch, smodules, "module_map", calls)
    rng = random.Random(1501)
    for _ in range(10):
        mod, m, exps = scrambled_elementary(ring, rng, max_torsion=max_torsion)
        calls.clear()
        dec = decompose_over_s(mod)
        got = sorted(ring.p_valuation(d) for d in dec.torsion_divisors)
        assert (dec.free_rank, got) == (m, exps)
        assert calls == {"verify": 1, "module_map": 2}


def test_decompose_factors_the_expanded_relations_once(monkeypatch):
    """The gr_p slices and the later solves against the relations read one
    memo entry: the expansion of the relations is factored once, and no
    SNF input repeats.  The expansion is factored over Z/p^N by
    `_snf_padic`, the gr_p slices over F_p[z]/z^M by `_snf_chain`, each
    its family's kernel in `linalg._BASE`."""
    inputs = []

    def recording(real):
        def kernel(mat, ring):
            inputs.append(mat)
            return real(mat, ring)
        return kernel

    for family in (TruncatedPadic, TruncatedPowerSeries):
        entry = linalg._BASE[family]
        monkeypatch.setitem(linalg._BASE, family, entry._replace(snf=recording(entry.snf)))
    ring = TruncatedBK(3, 2, 4)
    rng = random.Random(5)
    for _ in range(3):
        mod = scrambled_elementary(ring, rng)[0]
        linalg.base_snf.cache_clear()
        inputs.clear()
        decompose_over_s(mod)
        assert inputs.count(expand_matrix(mod.relations, ring)) == 1
        assert len(set(inputs)) == len(inputs)


def _corrupting_reader(real, s1, hits):
    def reader(mod, j, n):
        divs, to_can, from_can = real(mod, j, n)
        if j == 0:
            rows = from_can.tolist()
            rows[1] = [s1.mul(s1.var_power(1), x) for x in rows[1]]
            from_can = Mat.from_rows(rows, from_can.cols)
            hits.append(j)
        return divs, to_can, from_can
    return reader


@pytest.mark.parametrize("ring,free,exps", [
    (TruncatedBK(3, 3, 2), 1, [1, 2]), (TruncatedBK(5, 2, 2), 2, []),
    (TruncatedBK(3, 1, 2), 2, [])])
def test_decompose_raises_on_a_corrupted_slice(monkeypatch, ring, free, exps):
    """A free slice's from-canonical matrix with one row multiplied by z is
    caught by the checks on the assembled map: nothing is returned."""
    mod = _scrambled(ring, exps, free, random.Random(1502))
    assert gr_p(mod, 0).divisors.free_rank >= 2
    hits = []
    s1 = smodules._s1_of(ring)
    monkeypatch.setattr(smodules, "_read_slice",
                        _corrupting_reader(smodules._read_slice, s1, hits))
    with pytest.raises(InternalInconsistencyError):
        decompose_over_s(mod)
    assert hits == [0]


def _scrambled(ring, exps, free, rng):
    """sum of S/p^a over exps plus S^free, generators scrambled by an
    invertible matrix with entries drawn from rng."""
    g = len(exps) + free
    rel = Mat(len(exps), g, [[ring.from_int(ring.p ** a) if i == k else ring.zero
                              for i in range(g)] for k, a in enumerate(exps)])
    while True:
        w = Mat(g, g, [[ring.from_coeffs([ring.scalar.from_int(rng.randrange(ring.p ** 2))
                                          for _ in range(ring.mlen)])
                        for _ in range(g)] for _ in range(g)])
        if invert(w, ring) is not None:
            return PresentedModule(ring, g, rel.mul(w, ring))


def test_torsion_corrections_are_batched_by_exponent(monkeypatch):
    """Two generators of exponent 1 share one correction solve and one
    check; exponent 2 = N - 1 takes the no-correction branch.  The batch
    gives each row what a solve of its own gives."""
    ring = TruncatedBK(3, 3, 2)
    mod = _scrambled(ring, [1, 1, 2], 1, random.Random(1503))
    calls = {}
    _counting(monkeypatch, smodules, "solve_left_mod", calls)
    _counting(monkeypatch, smodules, "rows_are_zero_classes", calls)
    dec = decompose_over_s(mod)
    # one correction solve plus the inverse solve; the a = 1 check and the
    # a = 2 no-correction check
    assert calls == {"solve_left_mod": 2, "rows_are_zero_classes": 2}
    assert dec.divisors.exponents() == [1, 1, 2] and dec.free_rank == 1
    rows = dec.from_canonical.matrix.data
    for row, a in zip(rows, dec.divisors.exponents()):
        pa = ring.from_int(ring.p ** a)
        assert rows_are_zero_classes(mod, Mat(1, mod.gens, [[ring.mul(pa, x) for x in row]]))
    # moved off their corrected values by p, the two rows need a correction
    shifted = [[ring.add(x, ring.from_int(ring.p)) for x in r] for r in rows[:2]]
    batch = smodules._correct_torsion_generators(mod, shifted, 1)
    assert batch != shifted
    assert batch == [smodules._correct_torsion_generators(mod, [r], 1)[0] for r in shifted]
