"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live."""

import json
import os
import random
import time

from helpers import random_filtered_complex, random_lambda_map, scrambled_split_lambda_ses

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def _line(number, text, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: {text} ... PASS ({elapsed:.1f}s)")


def test_criterion_1_ext_golden_table():
    """ext1(S/p^a, S/p^b) = S/p^min(a,b) for p in {2,3}, a,b in {1,2,3},
    N = 4, M = 3; every p = 2 case also matches the cocycle oracle."""
    from lemmas import ext1
    from truncalg.ext import _elementary_exponents, ext1_cocycle_oracle
    from truncalg.modules import PresentedModule
    from truncalg.rings import TruncatedBK

    started = time.time()
    for p in (2, 3):
        ring = TruncatedBK(p, 4, 3)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                c = PresentedModule.cyclic(ring, ring.from_int(p ** a))
                amod = PresentedModule.cyclic(ring, ring.from_int(p ** b))
                exps, free = _elementary_exponents(ext1(c, amod))
                assert exps == [min(a, b)] and free == 0, (p, a, b, exps)
    ring2 = TruncatedBK(2, 4, 3)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            orc = ext1_cocycle_oracle(a, b, ring2)
            assert orc.split_set_is_coboundaries
            assert orc.quotient_cyclic_over_ring
            assert orc.abelian_exponent_multiset == [min(a, b)] * 3
    _line(1, "Ext golden table with p=2 cocycle oracle", started, 60)


def test_criterion_2_trichotomy_golden():
    """The filtered Z/p^2 with fil^1 = p Z/p^2 at p = 3: degenerate, saturated
    with ledger 2 = 1 + 1, split fails with divisor mismatch; oracle agrees."""
    from truncalg.linalg import Mat
    from truncalg.modules import PresentedModule
    from truncalg.rings import TruncatedPadic
    from truncalg.spectral import degeneration_report, oracle, validate

    started = time.time()
    ring = TruncatedPadic(3, 4)
    c0 = PresentedModule.cyclic(ring, ring.from_int(9))
    sub = PresentedModule.cyclic(ring, ring.from_int(3))
    x = validate(ring, 0, 0, 0, 1, {0: c0}, {}, {(0, 1): (sub, Mat(1, 1, [[3]]))})
    rep = degeneration_report(x)
    assert rep.degenerate and rep.saturated and not rep.split
    assert rep.length_ledger[0] == (2, [1, 1])
    assert rep.h_torsion_profiles[0] == (2,)
    assert rep.e1_torsion_profiles[0] == (1, 1)
    assert rep.witnesses["divisor_mismatch"]
    orc = oracle(x)
    assert orc == {"rationally_degenerate": True, "degenerate": True,
                   "saturated": True, "split": False}
    _line(2, "degeneration trichotomy golden case with exact oracle", started, 1)


def test_criterion_3_sscrit_fuzz():
    """>= 200 random filtered complexes over Z/2^2 and Z/3^2 within oracle
    bounds; all verdict tiers agree with the exhaustive oracle on 100%."""
    from truncalg.errors import UnsupportedRingError
    from truncalg.rings import TruncatedPadic
    from truncalg.spectral import degeneration_report, oracle

    started = time.time()
    total = agree = 0
    for p, want in ((2, 120), (3, 80)):
        ring = TruncatedPadic(p, 2)
        rng = random.Random(4000 + p)
        done = 0
        for _ in range(5000):
            if done >= want:
                break
            x = random_filtered_complex(ring, rng, max_gens=2,
                                        weights=rng.choice([2, 3]))
            if x is None:
                continue
            try:
                orc = oracle(x)
            except UnsupportedRingError:
                continue
            rep = degeneration_report(x)
            got = {"rationally_degenerate": rep.rationally_degenerate,
                   "degenerate": rep.degenerate, "saturated": rep.saturated,
                   "split": rep.split}
            total += 1
            done += 1
            assert got == orc, (p, got, orc,
                                {i: x.module(i).relations.data for i in range(x.lo, x.hi + 1)})
            agree += 1
    assert total >= 200 and agree == total
    _line(3, f"sscrit fuzz: {agree}/{total} oracle agreement", started, 600)


def test_criterion_4_decompose_round_trip():
    """>= 100 hidden elementary modules (p in {3,5}, N <= 3, M <= 3, rank <= 2,
    <= 2 torsion factors) recovered exactly; S/(p,z) rejected at slice 0."""
    from helpers import scrambled_elementary
    from truncalg.modules import PresentedModule
    from truncalg.rings import TruncatedBK
    from truncalg.smodules import NotElementary, decompose_over_s

    started = time.time()
    total = 0
    for p in (3, 5):
        rng = random.Random(8800 + p)
        for _ in range(52):
            n = rng.randint(2, 3)
            m = rng.randint(1, 3)
            ring = TruncatedBK(p, n, m)
            mod, free, exps = scrambled_elementary(ring, rng)
            dec = decompose_over_s(mod)
            assert not isinstance(dec, NotElementary)
            got = sorted(ring.p_valuation(d) for d in dec.torsion_divisors)
            assert (dec.free_rank, got) == (free, exps)
            assert dec.verify()
            total += 1
    ring = TruncatedBK(3, 3, 2)
    spz = PresentedModule.from_relation_rows(
        ring, 1, [[ring.from_int(3)], [ring.var_power(1)]])
    res = decompose_over_s(spz)
    assert isinstance(res, NotElementary) and res.failing_j == 0
    assert total >= 100
    _line(4, f"decompose round trip on {total} hidden modules + S/(p,z) rejection",
          started, 300)


def test_criterion_5_structure_theorem_towers():
    """>= 100 random extension towers at e = 1, r = 1, p in {3,5}:
    structure_check succeeds on every tower; exit code 4 never fires."""
    from helpers import random_tower
    from truncalg.breuil_kisin import structure_check, verify_tower
    from truncalg.errors import InternalInconsistencyError

    started = time.time()
    total = 0
    for p, want in ((3, 60), (5, 42)):
        rng = random.Random(7000 + p)
        for _ in range(want):
            tw = random_tower(p, rng, depth=rng.randint(1, 3), n=2, r=1)
            ok, why = verify_tower(tw, 1, bar=True)
            assert ok, why
            try:
                res = structure_check(tw.bk, 1, tower=tw)
            except InternalInconsistencyError as exc:
                raise AssertionError(f"exit-4 event on a random tower: {exc}")
            assert res.hypothesis_met and res.elementary is not None
            exps = []
            for j in range(1, len(res.gr_ranks)):
                exps.extend([j] * (res.gr_ranks[j - 1] - res.gr_ranks[j]))
            got = sorted(tw.bk.ring.p_valuation(d)
                         for d in res.elementary.torsion_divisors)
            assert got == sorted(exps)
            assert res.elementary.free_rank == res.gr_ranks[-1]
            total += 1
    assert total >= 100
    _line(5, f"structure theorem on {total} random towers, no exit-4", started, 600)


def test_criterion_6_cw_goldens():
    """Sphere values for d <= 4, RP^2 -> K0 = Z/2 at M = 1, CP^2 -> K0 rank 2
    at M = 2, with every skeletal LES node exact."""
    from truncalg.cw import (LocalizedAbelianGroup, ktheory, make_cw,
                             skeletal_verification, sphere)

    started = time.time()
    for d in range(5):
        k = ktheory(sphere(d))
        even = k.k0 if d % 2 == 0 else k.k1
        odd = k.k1 if d % 2 == 0 else k.k0
        assert even == LocalizedAbelianGroup(1, ()) and odd == LocalizedAbelianGroup(0, ())
    rp2 = make_cw([1, 1, 1], [[[0]], [[2]]])
    krp = ktheory(rp2)
    assert krp.m_index == 1
    assert krp.k0 == LocalizedAbelianGroup(0, (2,))
    assert krp.k1 == LocalizedAbelianGroup(0, ())
    cp2 = make_cw([1, 0, 1, 0, 1], [[], [[]], [], [[]]])
    kcp = ktheory(cp2)
    assert kcp.m_index == 2 and kcp.k0.rank == 2 and not kcp.k0.torsion_divisors
    assert kcp.k1 == LocalizedAbelianGroup(0, ())
    for x in (rp2, cp2) + tuple(sphere(d) for d in range(1, 5)):
        trace = skeletal_verification(x)
        assert all(step["wedge_values_ok"] for step in trace)
        assert all(n["exact"] for step in trace for n in step["nodes"])
    _line(6, "CW K-theory goldens with exact skeletal traces", started, 5)


def test_criterion_7_local_global():
    """On the Lambda corpus (S = {2}, M = 2): zero_local_global agreement on
    >= 100 fuzzed maps; survey + conclude recover sections on scrambled-split
    instances; the /9 family flags NonSplit exactly at 3."""
    from truncalg.local_global import (global_split_conclude, local_split_survey,
                                       make_lambda_ses)
    from truncalg.linalg import Mat
    from truncalg.modules import PresentedModule, is_zero_map
    from truncalg.local_global import zero_local_global
    from truncalg.rings import TruncatedLambda

    started = time.time()
    lam = TruncatedLambda((2,), 2)
    rng = random.Random(321)
    fuzzed = 0
    for _ in range(600):
        if fuzzed >= 100:
            break
        f = random_lambda_map(lam, rng)
        if f is None:
            continue
        rep = zero_local_global(f)
        assert rep.agreement and rep.direct_zero == is_zero_map(f)
        fuzzed += 1
    assert fuzzed >= 100
    for _ in range(20):
        ls = scrambled_split_lambda_ses(lam, rng)
        survey = local_split_survey(ls)
        section = global_split_conclude(ls, survey)
        assert section is not None
    a = PresentedModule.cyclic(lam, lam.from_int(3))
    b = PresentedModule.cyclic(lam, lam.from_int(9))
    ls9 = make_lambda_ses(a, b, a, Mat(1, 1, [[lam.from_int(3)]]),
                          Mat(1, 1, [[lam.one]]))
    survey9 = local_split_survey(ls9, primes=[3, 5, 7])
    nonsplit = {q for q, ok in survey9.verdicts.items() if not ok}
    assert nonsplit == {3}
    _line(7, f"local-global lemmas: {fuzzed} fuzzed maps, scrambled splits, /9 family",
          started, 300)


def test_criterion_8_precision_honesty():
    """Operations crossing the Frobenius trusted precision exit with code 3 on
    the corpus; metamorphic M-vs-pM comparisons agree below the boundary."""
    from truncalg.cli import run_job
    from lemmas import frobenius
    from truncalg.rings import TruncatedBK

    started = time.time()
    with open(os.path.join(CORPUS, "bk_height_precision_cross.json")) as fh:
        job = json.load(fh)
    report, code = run_job(job)
    assert code == 3 and report["error_kind"] == "precision_limited"
    # every in-bounds corpus bk job reports its trusted precision in the trail
    with open(os.path.join(CORPUS, "bk_height_identity.json")) as fh:
        okjob = json.load(fh)
    okreport, okcode = run_job(okjob)
    assert okcode == 0 and any("trusted" in t for t in okreport["precision_trail"])
    # metamorphic: frobenius at M and pM agree after truncating to ceil(M/p)
    p, n, m = 2, 3, 4
    small = TruncatedBK(p, n, m)
    big = TruncatedBK(p, n, p * m)
    t = small.frobenius_trusted_precision
    rng = random.Random(12)
    for _ in range(50):
        coeffs = [rng.randrange(small.scalar.modulus) for _ in range(m)]
        xs = small.from_coeffs([small.scalar.from_int(c) for c in coeffs])
        xb = big.from_coeffs([big.scalar.from_int(c) for c in coeffs])
        assert list(frobenius(xs, small)[:t]) == list(frobenius(xb, big)[:t])
    # module level: the frobenius twist truncated to the trusted window agrees
    from truncalg.breuil_kisin import frob_matrix
    from truncalg.modules import PresentedModule

    for rel_deg in range(m):
        ms = PresentedModule.from_relation_rows(small, 1, [[small.var_power(rel_deg)]])
        mb = PresentedModule.from_relation_rows(big, 1, [[big.var_power(rel_deg)]])
        tws = frob_matrix(ms.relations, small)
        twb = frob_matrix(mb.relations, big)
        assert list(tws.data[0][0][:t]) == list(twb.data[0][0][:t])
    _line(8, "precision honesty: exit-3 on boundary crossing, metamorphic M vs pM",
          started, 60)
