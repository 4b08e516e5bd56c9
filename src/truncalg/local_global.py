"""Prime-local detection and splitting over the truncated Lambda ring.

The lemmas quantify over every prime outside S; completeness at desk scale
comes from diagonalizing the relevant linear system once over the integer
base: the section-lifting system solves over Z_ell exactly when the diagonal
divisibilities hold ell-adically, so the finitely many divisibility-failure
primes are a certified-complete obstruction support.  Both directions of each
lemma are tested; disagreement is raised as an internal inconsistency."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    UnsupportedRingError,
)
from .linalg import Mat
from .modules import (
    PresentedModule,
    ShortExactSequence,
    build_ses,
    check_completion_prime,
    failure_primes,
    is_zero_map,
    image,
    module_map,
    split_test,
    support_primes,
)
from .rings import (
    TruncatedBK,
    TruncatedLambda,
    default_eisenstein,
    prime_valuation,
    primes_outside,
)

# a map whose image is supported at every prime is tested at this many of
# the smallest primes outside S
EVERYWHERE_TEST_PRIMES = 3


def make_lambda_ses(a, b, c, inject_matrix, surject_matrix):
    """The validated short exact sequence of TruncatedLambda modules."""
    if not isinstance(a.ring, TruncatedLambda):
        raise UnsupportedRingError("Lambda sequences need TruncatedLambda modules")
    return build_ses(a, b, c, inject_matrix, surject_matrix)


# ---------------------------------------------------------------------------
# The (ell, q-1)-completion Lambda -> TruncatedBK(ell, n, M)


def adaptive_precision(ell, *mats):
    """Working p-precision of a completion at ell: two above the largest
    ell-valuation of any coefficient of the Lambda matrices, and at least 4."""
    worst = 0
    for mat in mats:
        for row in mat.data:
            for x in row:
                for c in x:
                    worst = max(worst, prime_valuation(Fraction(c).numerator, ell))
    return max(4, worst + 2)


def completion_precision(ell, mods, mats=()):
    """Working p-precision of a completion at ell of the modules `mods`
    and the maps `mats` between them: the coefficient bound of
    `adaptive_precision`, raised to two above the exponent of each
    module's ell-power torsion.

    That exponent is the largest ell-valuation among the divisors of the
    module's relations over its base ring (`linalg.base_snf`: over Z[1/S],
    or expanded from TruncatedLambda to Z[1/S]), so the completion keeps
    every ell-power torsion summand nonzero."""
    depth = max((prime_valuation(d, ell) for m in mods
                 for d in linalg.base_snf(m.relations, m.ring).divisors), default=0)
    return max(adaptive_precision(ell, *(m.relations for m in mods), *mats), depth + 2)


def complete(maps, ell):
    """Push a chain of composable Lambda maps M_0 -> M_1 -> ... -> M_k along
    the (ell, q-1)-completion to TruncatedBK(ell, n, M): the target ring is
    built once, at n = `completion_precision`, and every module and matrix
    is pushed once.  Returns the pushed maps, each checked
    well defined."""
    assert all(f.target == g.source for f, g in zip(maps, maps[1:]))
    mods = [maps[0].source] + [f.target for f in maps]
    ring = mods[0].ring
    if not isinstance(ring, TruncatedLambda):
        raise UnsupportedRingError("lambda_completion needs a TruncatedLambda source")
    check_completion_prime(ring, ell)
    tgt = TruncatedBK(ell, completion_precision(ell, mods, [f.matrix for f in maps]),
                      ring.precision_m, default_eisenstein(ell))
    base = tgt.scalar

    def push(mat):
        return Mat(mat.rows, mat.cols, [[tuple(
            base.mul(base.from_int(c.numerator), base.inv(base.from_int(c.denominator)))
            for c in map(Fraction, x)) for x in row] for row in mat.data])

    pushed = [PresentedModule(tgt, m.gens, push(m.relations)) for m in mods]
    return [module_map(src, dst, push(f.matrix))
            for src, dst, f in zip(pushed, pushed[1:], maps)]


def complete_ses(ses, ell):
    """The sequence base-changed along the (ell, q-1)-completion surrogate."""
    inj, sur = complete([ses.inject, ses.surject], ell)
    return ShortExactSequence(inj.source, inj.target, sur.target, inj, sur)


@dataclass
class SurveyResult:
    verdicts: dict            # ell -> bool (split)
    obstruction_primes: list  # certified-complete potential-nonsplit set
    globally_split: bool
    global_section: object
    covered: bool


def certified_obstruction_data(ses):
    """(globally_split, section_or_None, certified prime set)."""
    verdict = split_test(ses)
    sset = set(ses.a.ring.inverted_primes)
    if verdict.split:
        return True, verdict.section, []
    primes, everywhere = failure_primes(verdict.obstruction, sset)
    if not primes and not everywhere:
        raise InternalInconsistencyError(
            "non-split sequence with no obstruction primes contradicts the local lemma")
    return False, None, primes


def local_split_survey(ses, primes=None):
    """Per-prime split verdicts; with primes=None the content-derived
    certified-complete set is used."""
    sset = set(ses.a.ring.inverted_primes)
    glob, section, obst = certified_obstruction_data(ses)
    if primes is None:
        survey_set = obst
    else:
        bad = [q for q in primes if q in sset]
        if bad:
            raise HypothesisUnmetError(f"primes {bad} are inverted in the base ring")
        survey_set = sorted(set(primes) | set(obst))
    verdicts = {ell: split_test(complete_ses(ses, ell)).split for ell in survey_set}
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
        test_primes = primes_outside(sset, EVERYWHERE_TEST_PRIMES)
    else:
        test_primes = supp.primes
    if not test_primes:
        raise InternalInconsistencyError(
            "nonzero map with empty certified support contradicts prime-local detection")
    local = {}
    for ell in test_primes:
        (floc,) = complete([f], ell)
        local[ell] = is_zero_map(floc)
    # every support prime is a witness: the completed map is nonzero there
    witness = test_primes[0]
    if local[witness]:
        raise InternalInconsistencyError(
            f"nonzero map vanished at its certified support prime {witness}")
    return ZeroLocalGlobalReport(False, supp.primes, supp.everywhere, local,
                                 witness, True)
