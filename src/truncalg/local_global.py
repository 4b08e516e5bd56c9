"""Prime-local detection and splitting over the truncated Lambda ring.

The lemmas quantify over every prime outside S; completeness at desk scale
comes from diagonalizing the relevant linear system once over the integer
base: the section-lifting system solves over Z_ell exactly when the diagonal
divisibilities hold ell-adically, so the finitely many divisibility-failure
primes are a certified-complete obstruction support.  Both directions of each
lemma are tested; disagreement is raised as an internal inconsistency."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    UnsupportedRingError,
)
from .modules import (
    BaseChangeSpec,
    ShortExactSequence,
    base_change_maps,
    build_ses,
    failure_primes,
    is_zero_map,
    image,
    split_test,
    support_primes,
)
from .rings import TruncatedLambda, primerange

# a map whose image is supported at every prime is tested at this many of
# the smallest primes outside S
EVERYWHERE_TEST_PRIMES = 3


def make_lambda_ses(a, b, c, inject_matrix, surject_matrix):
    """The validated short exact sequence of TruncatedLambda modules."""
    if not isinstance(a.ring, TruncatedLambda):
        raise UnsupportedRingError("Lambda sequences need TruncatedLambda modules")
    return build_ses(a, b, c, inject_matrix, surject_matrix)


def complete_ses(ses, ell, precision_n=None):
    """The sequence base-changed along the (ell, q-1)-completion surrogate."""
    spec = BaseChangeSpec("lambda_completion", ell=ell, precision_n=precision_n)
    (inj, sur), _ = base_change_maps([ses.inject, ses.surject], spec)
    return ShortExactSequence(inj.source, inj.target, sur.target, inj, sur)


@dataclass
class SurveyResult:
    verdicts: dict            # ell -> bool (split)
    obstruction_primes: list  # certified-complete potential-nonsplit set
    globally_split: bool
    global_section: object
    covered: bool


def certified_obstruction_data(ses):
    """(globally_split, section_or_None, certified prime set, everywhere)."""
    verdict = split_test(ses)
    sset = set(ses.a.ring.inverted_primes)
    if verdict.split:
        return True, verdict.section, [], False
    primes, everywhere = failure_primes(verdict.obstruction, sset)
    if not primes and not everywhere:
        raise InternalInconsistencyError(
            "non-split sequence with no obstruction primes contradicts the local lemma")
    return False, None, primes, everywhere


def local_split_survey(ses, primes=None, precision_n=None):
    """Per-prime split verdicts; with primes=None the content-derived
    certified-complete set is used."""
    sset = set(ses.a.ring.inverted_primes)
    glob, section, obst, _ = certified_obstruction_data(ses)
    if primes is None:
        survey_set = obst
    else:
        bad = [q for q in primes if q in sset]
        if bad:
            raise HypothesisUnmetError(f"primes {bad} are inverted in the base ring")
        survey_set = sorted(set(primes) | set(obst))
    verdicts = {ell: split_test(complete_ses(ses, ell, precision_n)).split
                for ell in survey_set}
    covered = set(obst) <= set(survey_set)
    return SurveyResult(verdicts, obst, glob, section, covered)


def global_split_conclude(ses, survey):
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


def zero_local_global(f):
    """Evaluate both sides of the prime-local zero-detection lemma."""
    ring = f.source.ring
    if not isinstance(ring, TruncatedLambda):
        raise UnsupportedRingError("zero_local_global needs a TruncatedLambda map")
    if is_zero_map(f):
        return ZeroLocalGlobalReport(True, [], False, {}, None, True)
    imod, _, _ = image(f)
    supp = support_primes(imod)
    sset = set(ring.inverted_primes)
    if supp.everywhere:
        test_primes = [q for q in primerange(2, 100) if q not in sset][:EVERYWHERE_TEST_PRIMES]
    else:
        test_primes = supp.primes
    if not test_primes:
        raise InternalInconsistencyError(
            "nonzero map with empty certified support contradicts prime-local detection")
    local = {}
    for ell in test_primes:
        (floc,), _ = base_change_maps([f], BaseChangeSpec("lambda_completion", ell=ell))
        local[ell] = is_zero_map(floc)
    # every support prime is a witness: the completed map is nonzero there
    witness = test_primes[0]
    if local[witness]:
        raise InternalInconsistencyError(
            f"nonzero map vanished at its certified support prime {witness}")
    return ZeroLocalGlobalReport(False, supp.primes, supp.everywhere, local,
                                 witness, True)
