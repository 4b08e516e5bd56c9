"""Prime-local detection and splitting over the truncated Lambda ring.

The lemmas quantify over every prime outside S; completeness at desk scale
comes from diagonalizing the relevant linear system once over the integer
base: the section-lifting system solves over Z_ell exactly when the diagonal
divisibilities hold ell-adically, so the finitely many divisibility-failure
primes are a certified-complete obstruction support.  Both directions of each
lemma are tested; disagreement is raised as an internal inconsistency."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    UnsupportedRingError,
)
from .modules import (
    BaseChangeSpec,
    ShortExactSequence,
    base_change,
    base_change_map,
    build_ses,
    is_zero_map,
    image,
    split_test,
    support_primes,
    zero_detect,
)
from .rings import TruncatedLambda, factorint, prime_valuation, primerange


@dataclass
class LambdaSES:
    ses: ShortExactSequence
    completions: dict = field(default_factory=dict)

    @property
    def ring(self):
        return self.ses.a.ring


def make_lambda_ses(a, b, c, inject_matrix, surject_matrix):
    if not isinstance(a.ring, TruncatedLambda):
        raise UnsupportedRingError("LambdaSES needs TruncatedLambda modules")
    return LambdaSES(build_ses(a, b, c, inject_matrix, surject_matrix))


def complete_ses(ls, ell, precision_n=None):
    """The sequence base-changed along the (ell, q-1)-completion surrogate."""
    key = (ell, precision_n)
    if key in ls.completions:
        return ls.completions[key]
    spec = BaseChangeSpec("lambda_completion", ell=ell, precision_n=precision_n)
    inj, _ = base_change_map(ls.ses.inject, spec)
    # reuse the precision the map resolved to, so all three modules agree
    resolved_n = inj.target.ring.precision_n
    spec = BaseChangeSpec("lambda_completion", ell=ell, precision_n=resolved_n)
    a, _ = base_change(ls.ses.a, spec)
    b, _ = base_change(ls.ses.b, spec)
    c, _ = base_change(ls.ses.c, spec)
    inj, _ = base_change_map(ls.ses.inject, spec)
    sur, _ = base_change_map(ls.ses.surject, spec)
    out = ShortExactSequence(a, b, c, inj, sur)
    ls.completions[key] = out
    return out


def _failure_primes(obstruction, sset):
    """Primes outside S at which the diagonalized system's divisibility fails.

    Entries are (row, position, divisor, residue) over the integer base; a
    zero divisor with nonzero residue obstructs at every prime, witnessed by
    the smallest one."""
    primes = set()
    everywhere = False
    for _, _, d, c in obstruction:
        d, c = Fraction(d), Fraction(c)
        if d == 0:
            # the equation y . 0 = c with c != 0 fails at every prime
            everywhere = True
            continue
        if c == 0:
            continue
        for q, e in factorint(abs(d.numerator)).items():
            if q not in sset and prime_valuation(c.numerator, q) < e:
                primes.add(q)
    if everywhere:
        smallest = next(q for q in primerange(2, 1000) if q not in sset)
        primes.add(smallest)
    return sorted(primes), everywhere


@dataclass
class SurveyResult:
    verdicts: dict            # ell -> bool (split) with witness sections
    sections: dict
    obstruction_primes: list  # certified-complete potential-nonsplit set
    obstruction_everywhere: bool
    globally_split: bool
    global_section: object
    covered: bool


def certified_obstruction_data(ls):
    """(globally_split, section_or_None, certified prime set, everywhere)."""
    verdict = split_test(ls.ses)
    sset = set(ls.ring.inverted_primes)
    if verdict.split:
        return True, verdict.section, [], False
    primes, everywhere = _failure_primes(verdict.obstruction or [], sset)
    if not primes and not everywhere:
        raise InternalInconsistencyError(
            "non-split sequence with no obstruction primes contradicts the local lemma")
    return False, None, primes, everywhere


def local_split_survey(ls, primes=None, precision_n=None):
    """Per-prime split verdicts; with primes=None the content-derived
    certified-complete set is used."""
    sset = set(ls.ring.inverted_primes)
    glob, section, obst, everywhere = certified_obstruction_data(ls)
    if primes is None:
        survey_set = obst
    else:
        bad = [q for q in primes if q in sset]
        if bad:
            raise HypothesisUnmetError(f"primes {bad} are inverted in the base ring")
        survey_set = sorted(set(primes) | set(obst))
    verdicts = {}
    sections = {}
    for ell in survey_set:
        comp = complete_ses(ls, ell, precision_n)
        v = split_test(comp)
        verdicts[ell] = v.split
        if v.split:
            sections[ell] = v.section
    covered = set(obst) <= set(survey_set)
    return SurveyResult(verdicts, sections, obst, everywhere, glob, section, covered)


def global_split_conclude(ls, survey):
    """Assert global splitness from an all-split survey over a certified set
    and construct the section by solving over Lambda directly."""
    if not survey.covered:
        raise HypothesisUnmetError("survey does not cover the certified obstruction set")
    if not all(survey.verdicts.get(ell, True) for ell in survey.obstruction_primes):
        raise HypothesisUnmetError("survey contains non-split verdicts; nothing to conclude")
    if survey.globally_split:
        return survey.global_section
    raise InternalInconsistencyError(
        "all-local splitness over the certified set but the global solve fails; "
        "this would contradict the local-global splitting lemma at exact precision")


@dataclass
class ZeroLocalGlobalReport:
    direct_zero: bool
    certified_primes: list
    support_everywhere: bool
    local_zero: dict
    witness_prime: int
    agreement: bool


def zero_local_global(f, bound_for_everywhere=3):
    """Evaluate both sides of the prime-local zero-detection lemma."""
    ring = f.source.ring
    if not isinstance(ring, TruncatedLambda):
        raise UnsupportedRingError("zero_local_global needs a TruncatedLambda map")
    direct = is_zero_map(f)
    if direct:
        return ZeroLocalGlobalReport(True, [], False, {}, None, True)
    imod, _, _ = image(f)
    supp = support_primes(imod)
    sset = set(ring.inverted_primes)
    if supp.everywhere:
        test_primes = [q for q in primerange(2, 100) if q not in sset][:bound_for_everywhere]
    else:
        test_primes = supp.primes
    local = {}
    for ell in test_primes:
        floc, _ = base_change_map(f, BaseChangeSpec("lambda_completion", ell=ell))
        local[ell] = is_zero_map(floc)
    all_local_zero = all(local.values()) and not supp.everywhere and not supp.primes
    agreement = (direct == all_local_zero)
    if not agreement:
        raise InternalInconsistencyError(
            "direct zero test disagrees with the certified per-prime tests")
    witness = None
    for ell in test_primes:
        if not local[ell]:
            witness = ell
            break
    if witness is None:
        raise InternalInconsistencyError(
            "nonzero map vanished at every certified support prime")
    det = zero_detect(f)
    if det.is_zero:
        raise InternalInconsistencyError("zero_detect disagrees with the direct test")
    return ZeroLocalGlobalReport(False, supp.primes, supp.everywhere, local,
                                 witness, agreement)
