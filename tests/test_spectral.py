import json
import os
import random
import sys
from fractions import Fraction

import pytest

from helpers import random_filtered_complex
from lemmas import lenfil_check
from truncalg import linalg, modules, spectral
from truncalg.cli import emit, run_job
from truncalg.errors import HypothesisUnmetError, SchemaError, UnsupportedRingError
from truncalg.linalg import Mat
from truncalg.modules import (
    ElementaryDecomposition,
    PresentedModule,
    direct_sum,
    elementary_divisors,
    structure_divisors,
)
from truncalg.rings import LocalizedIntegers, TruncatedPadic, TruncatedPowerSeries
from truncalg.spectral import (
    base_change_report,
    degeneration_report,
    homology_filtered,
    oracle,
    page,
    validate,
)

ZP34 = TruncatedPadic(3, 4)


def golden_complex():
    c0 = PresentedModule.cyclic(ZP34, ZP34.from_int(9))
    sub = PresentedModule.cyclic(ZP34, ZP34.from_int(3))
    return validate(ZP34, 0, 0, 0, 1, {0: c0}, {}, {(0, 1): (sub, Mat(1, 1, [[3]]))})


def depf_complex():
    ring = TruncatedPadic(2, 2)
    c1 = PresentedModule.free(ring, 1)
    c0 = PresentedModule.free(ring, 1)
    return validate(ring, 0, 1, 0, 1, {0: c0, 1: c1}, {1: Mat(1, 1, [[2]])},
                    {(0, 1): (PresentedModule.free(ring, 1), Mat(1, 1, [[1]])),
                     (1, 1): (PresentedModule.zero(ring), Mat(0, 1, []))})


def test_validate_rejections():
    ring = TruncatedPadic(2, 3)
    m = PresentedModule.free(ring, 1)
    # d o d != 0
    with pytest.raises(SchemaError):
        validate(ring, 0, 2, 0, 0, {0: m, 1: m, 2: m},
                 {1: Mat(1, 1, [[1]]), 2: Mat(1, 1, [[1]])}, {})
    # filtration violated: d(e) lands outside fil^1
    with pytest.raises(SchemaError):
        validate(ring, 0, 1, 0, 1, {0: m, 1: m}, {1: Mat(1, 1, [[1]])},
                 {(0, 1): (PresentedModule.cyclic(ring, 2), Mat(1, 1, [[2]])),
                  (1, 1): (PresentedModule.free(ring, 1), Mat(1, 1, [[1]]))})
    # valid single module with zero differential
    x = validate(ring, 0, 0, 0, 0, {0: m}, {}, {})
    assert x.width == 1


def test_homology_filtered_golden():
    x = golden_complex()
    h = homology_filtered(x, 0)
    assert structure_divisors(h.h).profile() == (2,)
    assert structure_divisors(h.gr_modules[0]).profile() == (1,)
    assert structure_divisors(h.gr_modules[1]).profile() == (1,)


def test_homology_acyclic():
    ring = TruncatedPadic(2, 3)
    m = PresentedModule.free(ring, 1)
    x = validate(ring, 0, 1, 0, 0, {0: m, 1: m}, {1: Mat(1, 1, [[1]])}, {})
    from truncalg.modules import is_zero_module

    assert is_zero_module(homology_filtered(x, 0).h)
    assert is_zero_module(homology_filtered(x, 1).h)


def test_degeneration_golden_trichotomy():
    x = golden_complex()
    rep = degeneration_report(x)
    assert rep.rationally_degenerate and rep.degenerate and rep.saturated
    assert not rep.split
    assert rep.length_ledger[0] == (2, [1, 1])
    assert rep.h_torsion_profiles[0] == (2,)
    assert rep.e1_torsion_profiles[0] == (1, 1)
    assert rep.witnesses["divisor_mismatch"]
    assert not rep.precision_limited
    assert oracle(x) == {"rationally_degenerate": True, "degenerate": True,
                         "saturated": True, "split": False}


def test_degeneration_direct_sum_split():
    m = direct_sum([PresentedModule.cyclic(ZP34, ZP34.from_int(9)),
                    PresentedModule.cyclic(ZP34, ZP34.from_int(3))])
    sub = PresentedModule.cyclic(ZP34, ZP34.from_int(3))
    x = validate(ZP34, 0, 0, 0, 1, {0: m}, {}, {(0, 1): (sub, Mat(1, 2, [[0, 1]]))})
    rep = degeneration_report(x)
    assert rep.split and rep.saturated and rep.degenerate
    assert rep.witnesses["sections"]


def _count_witness_work(monkeypatch):
    """Count linalg.invert calls, under every name a truncalg module binds
    it to, and ElementaryDecomposition.verify calls."""
    counts = {"invert": 0, "verify": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    invert = linalg.invert
    for name, mod in list(sys.modules.items()):
        if name.startswith("truncalg") and getattr(mod, "invert", None) is invert:
            monkeypatch.setattr(mod, "invert", counting("invert", invert))
    monkeypatch.setattr(ElementaryDecomposition, "verify",
                        counting("verify", ElementaryDecomposition.verify))
    return counts


@pytest.mark.parametrize("name", ["ss_golden_trichotomy", "ss_direct_sum_split"])
def test_degeneration_reads_divisors_without_a_witness(monkeypatch, name):
    """The degeneration criteria read divisors only: an ss-report job
    inverts no SNF witness and verifies no decomposition, and its report is
    the frozen one."""
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    with open(os.path.join(corpus, name + ".json")) as fh:
        job = json.load(fh)
    with open(os.path.join(corpus, name + ".report.json")) as fh:
        frozen = fh.read()
    linalg.base_snf.cache_clear()
    counts = _count_witness_work(monkeypatch)
    report, _ = run_job(job)
    assert counts == {"invert": 0, "verify": 0}
    assert emit(report, "json") == frozen


def test_degeneration_report_on_z3_z9_builds_no_witness(monkeypatch):
    ring = TruncatedPadic(3, 3)
    m = direct_sum([PresentedModule.cyclic(ring, ring.from_int(3)),
                    PresentedModule.cyclic(ring, ring.from_int(9))])
    sub = PresentedModule.cyclic(ring, ring.from_int(9))
    x = validate(ring, 0, 0, 0, 1, {0: m}, {}, {(0, 1): (sub, Mat(1, 2, [[1, 1]]))})
    linalg.base_snf.cache_clear()
    counts = _count_witness_work(monkeypatch)
    rep = degeneration_report(x)
    assert counts == {"invert": 0, "verify": 0}
    assert rep.length_ledger[0] == (3, [1, 2])
    assert rep.h_torsion_profiles[0] == (1, 2)


def test_degeneration_report_reads_each_homology_once(monkeypatch):
    """One divisor read of H_0 serves the length ledger, the profile, the
    saturation sum and the precision check."""
    ring = TruncatedPadic(3, 3)
    m = direct_sum([PresentedModule.cyclic(ring, ring.from_int(3)),
                    PresentedModule.cyclic(ring, ring.from_int(9))])
    sub = PresentedModule.cyclic(ring, ring.from_int(9))
    x = validate(ring, 0, 0, 0, 1, {0: m}, {}, {(0, 1): (sub, Mat(1, 2, [[1, 1]]))})
    h = homology_filtered(x, 0).h
    read = []
    real = modules.read_snf
    monkeypatch.setattr(modules, "read_snf", lambda mod: read.append(mod) or real(mod))
    rep = degeneration_report(x)
    assert rep.saturated and rep.length_ledger[0] == (3, [1, 2])
    assert sum(mod == h for mod in read) == 1


def _direct_sum_split_job():
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    with open(os.path.join(corpus, "ss_direct_sum_split.json")) as fh:
        return json.load(fh)


def test_flipped_retraction_verdict_is_an_internal_inconsistency(monkeypatch):
    """ss_direct_sum_split splits and its divisor multisets agree: a
    retraction search that reports no retraction contradicts the multiset
    criterion, and the job exits 4."""
    real = spectral.retraction_test
    flipped = []

    def flip(inclusion):
        verdict = real(inclusion)
        assert verdict.split
        flipped.append(inclusion)
        return modules.SplitVerdict(False, obstruction=[])

    monkeypatch.setattr(spectral, "retraction_test", flip)
    linalg.base_snf.cache_clear()
    report, code = run_job(_direct_sum_split_job())
    assert flipped
    assert (code, report["error_kind"]) == (4, "internal_inconsistency"), report.get("error")
    assert "divisor-multiset criterion disagrees" in report["error"]


def test_zero_submodule_section_witness_is_the_zero_matrix():
    """A zero fil^n H_i retracts by the zero map, decided by the zero test
    with no Hom system, and the report prints the zero matrix.  On this
    seeded complex over Z/4 the Kronecker solve, which ran before the zero
    test did, returned [[1, 0, 0], [0, 0, 0]] for fil^1 H_1: another matrix
    of the same zero map."""
    ring = TruncatedPadic(2, 2)
    x = random_filtered_complex(ring, random.Random(0), weights=3)
    report = degeneration_report(x)
    incl = report.homologies[1].fil_inclusions[1]
    a = incl.source
    assert modules.is_zero_module(a) and report.split
    assert report.witnesses["sections"][(1, 1)] == [[0, 0, 0], [0, 0, 0]]
    old, _ = modules._hom_solve(incl.target, a, incl.matrix, Mat.identity(a.gens, ring),
                                a.relations)
    assert old.tolist() == [[1, 0, 0], [0, 0, 0]]
    assert modules.maps_equal(modules.module_map(incl.target, a, old),
                              modules.zero_map(incl.target, a))


def test_one_wrong_divisor_read_is_an_internal_inconsistency(monkeypatch):
    """One E1 divisor read raised by a factor p unbalances the torsion-length
    ledger while the saturation checks, which read gr_n H, still pass: the
    job exits 4 at the ledger cross-check."""
    real = spectral.elementary_divisors
    wrong = []

    def read(mod):
        divs = real(mod)
        ring = divs.ring
        if not wrong and divs.torsion_divisors:
            d = divs.torsion_divisors[0]
            wrong.append(d)
            assert ring.val(d) + 1 < ring.precision
            return modules.ElementaryDivisors(ring, divs.free_rank,
                                              [ring.mul(d, ring.p)] + divs.torsion_divisors[1:])
        return divs

    monkeypatch.setattr(spectral, "elementary_divisors", read)
    linalg.base_snf.cache_clear()
    report, code = run_job(_direct_sum_split_job())
    assert wrong
    assert (code, report["error_kind"]) == (4, "internal_inconsistency"), report.get("error")
    assert "torsion-length criterion disagrees" in report["error"]


def test_split_verdict_without_saturated_verdict_is_an_internal_inconsistency(monkeypatch):
    """d = 1 from C_1 = Z/4 in weight 0 to C_0 = Z/4 in weight 1: the E1
    differential is a unit, so rational degeneration fails and neither
    criterion is cross-checked.  The homology is zero, so every inclusion
    splits, and only a wrong injectivity read makes the complex degenerate.
    With a gr_n H read that reports one torsion summand too many, the
    saturation check fails while the split verdict stands: the job exits 4."""
    free = {"generators": 1, "relations": []}
    job = {"command": "ss-report", "options": {},
           "input": {"complex": {
               "ring": {"family": "TruncatedPadic", "p": 2, "N": 2},
               "lo": 0, "hi": 1, "wmin": 0, "wmax": 1,
               "modules": [free, free], "differentials": [[[1]]],
               "filtration": [
                   {"degree": 0, "weight": 1, "module": free, "inclusion": [[1]]},
                   {"degree": 1, "weight": 1, "module": {"generators": 0, "relations": []},
                    "inclusion": []}]}}}
    real_homology = spectral.homology_filtered
    gr = []

    def injective(x, i):
        hdata = real_homology(x, i)
        hdata.degenerate_at = dict.fromkeys(hdata.degenerate_at, True)
        gr.extend(hdata.gr_modules.values())
        return hdata

    real = spectral.elementary_divisors

    def read(mod):
        divs = real(mod)
        if any(mod is g for g in gr):
            return modules.ElementaryDivisors(divs.ring, divs.free_rank,
                                              divs.torsion_divisors + [2])
        return divs

    monkeypatch.setattr(spectral, "homology_filtered", injective)
    report, code = run_job(job)
    verdicts = report["verdicts"]
    assert verdicts["degenerate"] and verdicts["saturated"] and verdicts["split"]
    assert not verdicts["rationally_degenerate"] and code == 3   # precision-limited
    monkeypatch.setattr(spectral, "elementary_divisors", read)
    report, code = run_job(job)
    assert gr
    assert (code, report["error_kind"]) == (4, "internal_inconsistency"), report.get("error")
    assert report["error"] == "split verdict without saturated verdict"


def _record_calls(monkeypatch, name, key):
    """Record key(args) for every call of spectral.<name>."""
    calls = []
    real = getattr(spectral, name)

    def recorded(*args):
        calls.append(key(args))
        return real(*args)

    monkeypatch.setattr(spectral, name, recorded)
    return calls


def test_localized_base_change_report_builds_each_piece_once(monkeypatch):
    """The completion route reads the filtered homology, the pages and the
    divisors off the one degeneration pass."""
    zl = LocalizedIntegers((2,))
    fr = PresentedModule.free(zl, 1)
    x = validate(zl, 0, 1, 0, 1, {0: fr, 1: fr}, {1: Mat(1, 1, [[Fraction(9)]])},
                 {(0, 1): (fr, Mat(1, 1, [[Fraction(3)]])),
                  (1, 1): (fr, Mat(1, 1, [[Fraction(1)]]))})
    degrees = _record_calls(monkeypatch, "homology_filtered", lambda a: a[1])
    pages = _record_calls(monkeypatch, "page", lambda a: a[1])
    rep, descent = base_change_report(x, "localized_completion", 3)
    assert sorted(degrees) == [0, 1]
    assert sorted(pages) == [1, 2]
    assert rep.degenerate and not rep.split and descent["re_verified"]


def test_lenfil_check_reads_the_report(monkeypatch):
    x = golden_complex()
    rep = degeneration_report(x)
    degrees = _record_calls(monkeypatch, "homology_filtered", lambda a: a[1])
    pages = _record_calls(monkeypatch, "page", lambda a: a[1])
    assert lenfil_check(x, 1, rep)[0] == (1, 2)
    assert degrees == pages == []


def test_degeneration_depf_gate():
    x = depf_complex()
    p1 = page(x, 1)
    assert not p1.diffs[(0, 1)].matrix.is_zero(x.ring)
    rep = degeneration_report(x)
    assert not rep.rationally_degenerate and not rep.degenerate
    assert not rep.sscrit_applicable
    assert rep.precision_limited
    assert oracle(x)["degenerate"] is False


def test_zero_complex_vacuous():
    ring = TruncatedPadic(2, 2)
    x = validate(ring, 0, 0, 0, 0, {0: PresentedModule.zero(ring)}, {}, {})
    rep = degeneration_report(x)
    assert rep.split and rep.saturated and rep.degenerate and rep.rationally_degenerate
    assert oracle(x)["split"] is True


def test_page_stabilization_and_e1():
    rng = random.Random(5)
    ring = TruncatedPadic(2, 2)
    checked = 0
    for _ in range(200):
        if checked >= 12:
            break
        x = random_filtered_complex(ring, rng, weights=3)
        if x is None:
            continue
        checked += 1
        w = x.width
        stable = page(x, w + 1)
        beyond = page(x, w + 2)
        for key in stable.entries:
            assert (structure_divisors(stable.entries[key].module).profile()
                    == structure_divisors(beyond.entries[key].module).profile())
        # the stable page equals the graded pieces of filtered homology
        for i in range(x.lo, x.hi + 1):
            h = homology_filtered(x, i)
            for n in range(x.wmin, x.wmax + 1):
                assert (structure_divisors(stable.entries[(n, i)].module).profile()
                        == structure_divisors(h.gr_modules[n]).profile()), (n, i)
    assert checked >= 10


def test_euler_conservation_on_torsion_complexes():
    rng = random.Random(19)
    ring = TruncatedPadic(2, 3)
    checked = 0
    for _ in range(300):
        if checked >= 8:
            break
        x = random_filtered_complex(ring, rng, weights=2)
        if x is None:
            continue
        # only torsion instances: all entries must have free rank 0
        e1 = page(x, 1)
        if any(structure_divisors(e.module).free_rank for e in e1.entries.values()):
            continue
        totals = []
        for r in range(1, x.width + 2):
            pg = page(x, r)
            total = 0
            for (n, i), ent in pg.entries.items():
                total += (-1) ** i * elementary_divisors(ent.module).length()
            totals.append(total)
        assert len(set(totals)) == 1
        checked += 1
    assert checked >= 5


def test_lenfil_golden():
    x = golden_complex()
    rep = degeneration_report(x)
    out = lenfil_check(x, 1, rep)
    assert out[0] == (1, 2)
    out2 = lenfil_check(x, 5, rep)
    assert out2[0][0] <= out2[0][1]
    with pytest.raises(HypothesisUnmetError):
        lenfil_check(depf_complex(), 1)


def test_lenfil_free_equality():
    ring = TruncatedPadic(2, 3)
    m = PresentedModule.free(ring, 2)
    x = validate(ring, 0, 0, 0, 0, {0: m}, {}, {})
    rep = degeneration_report(x)
    for n in (1, 2):
        lhs, rhs = lenfil_check(x, n, rep)[0]
        assert lhs == rhs == 2 * n


def test_oracle_bound():
    ring = TruncatedPadic(3, 4)
    m = PresentedModule.free(ring, 2)  # 81^2 elements
    x = validate(ring, 0, 0, 0, 0, {0: m}, {}, {})
    with pytest.raises(UnsupportedRingError):
        oracle(x)


def test_base_change_report_identity():
    x = golden_complex()
    rep, descent = base_change_report(x, "identity", None)
    assert descent["applied"] and rep.saturated and not rep.split


def test_base_change_descent_from_localized():
    zl = LocalizedIntegers((2,))
    # torsion-free E1: free modules, zero differential; fil = 3 Z[1/2]
    m = PresentedModule.free(zl, 1)
    sub = PresentedModule.free(zl, 1)
    x = validate(zl, 0, 0, 0, 1, {0: m}, {},
                 {(0, 1): (sub, Mat(1, 1, [[Fraction(3)]]))})
    rep, descent = base_change_report(x, "localized_completion", 3)
    assert descent["applied"] and descent.get("re_verified")
    assert rep.degenerate
    # the 3-divisible filtration stage is not split after tensoring at 3
    assert not rep.split and rep.sscritflat_checked
    # an entry killed by base change fails the injectivity hypothesis
    tors = PresentedModule.cyclic(zl, Fraction(5))
    x2 = validate(zl, 0, 0, 0, 1, {0: tors}, {},
                  {(0, 1): (PresentedModule.zero(zl), Mat(0, 1, []))})
    with pytest.raises(HypothesisUnmetError):
        base_change_report(x2, "localized_completion", 3)


def test_base_change_report_refuses_inverted_completion_prime():
    """Z[1/3] tensored with Z_3 is Q_3, not a completion: the report refuses
    it rather than returning verdicts for it."""
    zl = LocalizedIntegers((3,))
    x = validate(zl, 0, 0, 0, 1, {0: PresentedModule.free(zl, 1)}, {},
                 {(0, 1): (PresentedModule.free(zl, 1), Mat(1, 1, [[Fraction(1)]]))})
    with pytest.raises(SchemaError, match="3 is inverted"):
        base_change_report(x, "localized_completion", 3)


def test_oracle_agreement_at_higher_precision():
    """At N = 2 saturated and split coincide (all exponents are 1); rank-1
    complexes over Z/2^3 and Z/3^4 stay within the oracle bound and separate
    the tiers. Checker and oracle must agree there too."""
    from truncalg.errors import UnsupportedRingError

    rng = random.Random(61)
    hist = set()
    for ring in (TruncatedPadic(2, 3), TruncatedPadic(3, 4)):
        done = 0
        for _ in range(600):
            if done >= 25:
                break
            x = random_filtered_complex(ring, rng, max_gens=1,
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
            assert got == orc
            hist.add((got["saturated"], got["split"]))
            done += 1
        assert done >= 20
    assert (True, False) in hist  # the saturated-but-not-split tier appears


def _agreement_classes(ring, seed, count, max_gens, keep=None):
    """Draw random complexes until `count` of them pass `keep`, assert that
    checker and oracle agree on all four tiers of each, and return how often
    each tier class occurred."""
    rng = random.Random(seed)
    hist = {}
    done = 0
    for _ in range(600):
        if done >= count:
            break
        x = random_filtered_complex(ring, rng, max_gens=max_gens, weights=rng.choice([2, 3]))
        if x is None or (keep is not None and not keep(x)):
            continue
        orc = oracle(x)
        rep = degeneration_report(x)
        got = {"rationally_degenerate": rep.rationally_degenerate,
               "degenerate": rep.degenerate, "saturated": rep.saturated,
               "split": rep.split}
        assert got == orc, {i: x.module(i).relations.data for i in range(x.lo, x.hi + 1)}
        tiers = tuple(got[k] for k in sorted(got))
        hist[tiers] = hist.get(tiers, 0) + 1
        done += 1
    assert done == count
    return hist


def test_oracle_agreement_two_generators_z8():
    """Two-generator complexes over Z/2^3 (up to 64 elements per degree):
    checker and oracle agree on all four tiers, over more than one tier
    class."""
    hist = _agreement_classes(TruncatedPadic(2, 3), 71, 20, 2)
    assert len(hist) >= 2, hist


def test_oracle_agreement_three_generators_z9():
    """Complexes over Z/3^2 with a three-generator module (up to 729
    elements in that degree), which the oracle's split tier could not reach
    while it enumerated submodules: checker and oracle agree on all four
    tiers, over more than one tier class."""
    def has_three(x):
        return max(x.module(i).gens for i in range(x.lo, x.hi + 1)) == 3

    hist = _agreement_classes(TruncatedPadic(3, 2), 82, 30, 3, keep=has_three)
    assert len(hist) >= 2, hist


def test_oracle_agreement_power_series():
    """Complexes over F_2[z]/z^3 with up to two generators: checker and
    oracle agree on all four tiers, over more than one tier class."""
    hist = _agreement_classes(TruncatedPowerSeries(2, 3), 92, 20, 2)
    assert len(hist) >= 2, hist


def test_verdict_monotonicity_fuzz():
    rng = random.Random(23)
    ring = TruncatedPadic(2, 2)
    checked = 0
    for _ in range(400):
        if checked >= 40:
            break
        x = random_filtered_complex(ring, rng, weights=rng.choice([2, 3]))
        if x is None:
            continue
        rep = degeneration_report(x)
        checked += 1
        if rep.split:
            assert rep.saturated
        if rep.saturated:
            assert rep.degenerate
    assert checked >= 30
