import random

import pytest

from helpers import random_lambda_map, scrambled_split_lambda_ses
from truncalg import local_global
from truncalg.cli import run_job
from truncalg.errors import HypothesisUnmetError, InternalInconsistencyError
from truncalg.linalg import Mat
from truncalg.local_global import (
    adaptive_precision,
    certified_obstruction_data,
    complete,
    complete_ses,
    completion_precision,
    global_split_conclude,
    local_split_survey,
    make_lambda_ses,
    zero_local_global,
)
from truncalg.modules import (
    PresentedModule,
    direct_sum,
    identity_map,
    is_zero_map,
    module_map,
    split_test,
    zero_map,
)
from truncalg.rings import TruncatedLambda, primerange

LAM = TruncatedLambda((2,), 2)


def nonsplit_nine():
    a = PresentedModule.cyclic(LAM, LAM.from_int(3))
    b = PresentedModule.cyclic(LAM, LAM.from_int(9))
    c = PresentedModule.cyclic(LAM, LAM.from_int(3))
    return make_lambda_ses(a, b, c, Mat(1, 1, [[LAM.from_int(3)]]),
                           Mat(1, 1, [[LAM.one]]))


def test_nonsplit_nine_survey():
    ls = nonsplit_nine()
    survey = local_split_survey(ls)
    assert survey.obstruction_primes == [3]
    assert survey.verdicts == {3: False}
    assert not survey.globally_split
    with pytest.raises(HypothesisUnmetError):
        global_split_conclude(ls, survey)
    # vacuously split away from the support: completed sequence is zero
    comp = complete_ses(ls, 5)
    assert split_test(comp).split


def test_globally_split_survey_and_conclude():
    a = PresentedModule.cyclic(LAM, LAM.from_int(3))
    c = PresentedModule.free(LAM, 1)
    ds = direct_sum([a, c])
    ls = make_lambda_ses(a, ds, c, Mat(1, 2, [[LAM.one, LAM.zero]]),
                         Mat(2, 1, [[LAM.zero], [LAM.one]]))
    survey = local_split_survey(ls, primes=[3, 5, 7])
    assert all(survey.verdicts.values())
    section = global_split_conclude(ls, survey)
    assert section is not None


def test_free_sequence_split_everywhere():
    fr2 = PresentedModule.free(LAM, 2)
    fr1 = PresentedModule.free(LAM, 1)
    ls = make_lambda_ses(fr1, fr2, fr1,
                         Mat(1, 2, [[LAM.one, LAM.neg(LAM.q_minus_one())]]),
                         Mat(2, 1, [[LAM.q_minus_one()], [LAM.one]]))
    survey = local_split_survey(ls, primes=[3, 5])
    assert all(survey.verdicts.values()) and survey.globally_split


def test_scrambled_split_instances():
    rng = random.Random(55)
    recovered = 0
    for _ in range(25):
        ls = scrambled_split_lambda_ses(LAM, rng)
        glob, section, obst = certified_obstruction_data(ls)
        assert glob, "scrambled split sequence must stay split"
        survey = local_split_survey(ls)
        sec = global_split_conclude(ls, survey)
        assert sec is not None
        recovered += 1
    assert recovered == 25


def test_survey_rejects_inverted_prime():
    ls = nonsplit_nine()
    with pytest.raises(HypothesisUnmetError):
        local_split_survey(ls, primes=[2])


def test_zero_local_global_examples():
    fr = PresentedModule.free(LAM, 1)
    rep0 = zero_local_global(zero_map(fr, fr))
    assert rep0.direct_zero and rep0.agreement and rep0.witness_prime is None
    f2 = module_map(fr, fr, Mat(1, 1, [[LAM.from_int(2)]]))
    rep = zero_local_global(f2)
    assert not rep.direct_zero and rep.witness_prime == 3 and rep.agreement
    lam3 = TruncatedLambda((2,), 3)
    mq = PresentedModule.cyclic(lam3, lam3.mul(lam3.q_minus_one(), lam3.q_minus_one()))
    fq = module_map(mq, mq, Mat(1, 1, [[lam3.q_minus_one()]]))
    rep2 = zero_local_global(fq)
    assert not rep2.direct_zero and rep2.support_everywhere and rep2.agreement
    assert rep2.witness_prime == 3 and not rep2.local_zero[3]


def _count_completions(monkeypatch):
    calls = []
    real = local_global.complete

    def counted(maps, ell):
        calls.append(ell)
        return real(maps, ell)

    monkeypatch.setattr(local_global, "complete", counted)
    return calls


def test_everywhere_support_is_tested_past_the_inverted_primes():
    """The identity of Lambda/(q-1) over Z[1/S] is supported at every prime;
    it is tested at the three smallest primes outside S, however large S
    is.  With S the 25 primes below 100 those are 101, 103 and 107; with 97
    not inverted, 97, 101 and 103."""
    below_100 = tuple(primerange(2, 100))
    for sset, want in ((below_100, [101, 103, 107]), (below_100[:-1], [97, 101, 103])):
        lam = TruncatedLambda(sset, 2)
        m = PresentedModule.cyclic(lam, lam.q_minus_one())
        rep = zero_local_global(identity_map(m))
        assert rep.support_everywhere and sorted(rep.local_zero) == want
        assert rep.witness_prime == want[0] and not any(rep.local_zero.values())
        mod = {"ring": {"family": "TruncatedLambda", "inverted_primes": list(sset), "M": 2},
               "generators": 1, "relations": [[[0, 1]]]}
        report, code = run_job({"command": "lambda-zero", "input": {"map": {
            "source": mod, "target": mod, "matrix": [[[1, 0]]]}}})
        assert code == 0, report.get("error")
        assert report["verdicts"]["witness_prime"] == want[0]


def test_completion_builds_one_ring(monkeypatch):
    """One complete_ses, and each prime zero_local_global tests, builds the
    completed ring once; the five completed pieces share it."""
    calls = _count_completions(monkeypatch)
    comp = complete_ses(nonsplit_nine(), 3)
    assert calls == [3]
    ring = comp.a.ring
    assert comp.b.ring is ring and comp.c.ring is ring
    assert (comp.inject.source, comp.inject.target) == (comp.a, comp.b)
    assert (comp.surject.source, comp.surject.target) == (comp.b, comp.c)
    del calls[:]
    fr = PresentedModule.free(LAM, 1)
    rep = zero_local_global(module_map(fr, fr, Mat(1, 1, [[LAM.from_int(2)]])))
    assert calls == sorted(rep.local_zero) == [3, 5, 7]


def test_complete_ses_precision_reads_the_quotient():
    """The quotient's presentation carries the largest 3-valuation (a
    redundant relation 3^6), and the completed precision is read off it."""
    a = PresentedModule.free(LAM, 1)
    b = PresentedModule.free(LAM, 1)
    c = PresentedModule.from_relation_rows(LAM, 1, [[LAM.from_int(3)], [LAM.from_int(3 ** 6)]])
    ls = make_lambda_ses(a, b, c, Mat(1, 1, [[LAM.from_int(3)]]), Mat(1, 1, [[LAM.one]]))
    n = complete_ses(ls, 3).c.ring.precision_n
    assert n == adaptive_precision(3, c.relations) == 8
    assert n > adaptive_precision(3, a.relations, b.relations, ls.inject.matrix)


def test_completion_precision_reads_torsion():
    """Lambda/(3^6), presented by [[27, 1], [0, 27]], shows no coefficient
    of 3-valuation above 3; its torsion exponent 6 sets the completed
    precision, so the nonzero endomorphism 3^5 times a generator stays
    nonzero at 3."""
    m = PresentedModule(LAM, 2, Mat(2, 2, [[LAM.from_int(27), LAM.one],
                                          [LAM.zero, LAM.from_int(27)]]))
    f = module_map(m, m, Mat(2, 2, [[LAM.zero, LAM.from_int(-9)], [LAM.zero, LAM.zero]]))
    (g,) = complete([f], 3)
    assert g.source.ring.precision_n == 8
    assert complete([identity_map(m)], 3)[0].source.ring == g.source.ring
    rep = zero_local_global(f)
    assert not rep.direct_zero and rep.witness_prime == 3 and not rep.local_zero[3]
    ring = {"family": "TruncatedLambda", "inverted_primes": [2], "M": 2}
    mod = {"ring": ring, "generators": 2, "relations": [[[27, 0], [1, 0]], [[0, 0], [27, 0]]]}
    report, code = run_job({"command": "lambda-zero", "input": {"map": {
        "source": mod, "target": mod, "matrix": [[[0, 0], [-9, 0]], [[0, 0], [0, 0]]]}}})
    assert code == 0
    assert report["verdicts"]["is_zero"] is False and report["verdicts"]["witness_prime"] == 3


def test_completion_precision_reads_torsion_deepened_by_q_minus_one():
    """Lambda/(q-1+27) over (q-1)^2 is Z/3^6 at 3 (q-1 acts as -27), though
    no coefficient and no constant-term divisor has 3-valuation above 3;
    the expanded relations' divisor 3^6 sets the precision, so 9(q-1),
    which is -3^5 there, stays nonzero at 3."""
    m = PresentedModule.cyclic(LAM, LAM.add(LAM.q_minus_one(), LAM.from_int(27)))
    nine_q = LAM.mul(LAM.from_int(9), LAM.q_minus_one())
    f = module_map(m, m, Mat(1, 1, [[nine_q]]))
    assert completion_precision(3, [m], [f.matrix]) == 8
    rep = zero_local_global(f)
    assert rep.witness_prime == 3 and not rep.local_zero[3]
    mod = {"ring": {"family": "TruncatedLambda", "inverted_primes": [2], "M": 2},
           "generators": 1, "relations": [[[27, 1]]]}
    report, code = run_job({"command": "lambda-zero", "input": {"map": {
        "source": mod, "target": mod, "matrix": [[[0, 9]]]}}})
    assert code == 0 and report["verdicts"]["witness_prime"] == 3


def test_vanishing_completion_at_first_support_prime_is_inconsistent(monkeypatch):
    """Every support prime is a witness: a completion that vanishes at the
    first one is an internal inconsistency, even when a later prime sees
    the map."""
    real = local_global.complete

    def vanishing_at_3(maps, ell):
        (g,) = real(maps, ell)
        return [zero_map(g.source, g.target) if ell == 3 else g]

    monkeypatch.setattr(local_global, "complete", vanishing_at_3)
    fr = PresentedModule.free(LAM, 1)
    with pytest.raises(InternalInconsistencyError, match="support prime 3"):
        zero_local_global(module_map(fr, fr, Mat(1, 1, [[LAM.from_int(2)]])))


def test_zero_local_global_fuzz():
    rng = random.Random(77)
    count = 0
    for _ in range(200):
        if count >= 30:
            break
        f = random_lambda_map(LAM, rng)
        if f is None:
            continue
        rep = zero_local_global(f)
        assert rep.agreement
        assert rep.direct_zero == is_zero_map(f)
        count += 1
    assert count >= 25


def test_completeness_monotone_vs_bounded_search():
    # the certified set contains every nonsplit prime a larger bounded survey finds
    ls = nonsplit_nine()
    survey_small = local_split_survey(ls)
    survey_big = local_split_survey(ls, primes=[3, 5, 7, 11, 13])
    bad_big = {q for q, ok in survey_big.verdicts.items() if not ok}
    assert bad_big <= set(survey_small.obstruction_primes)
