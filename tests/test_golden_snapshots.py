"""Byte-level golden comparison against the frozen reports: the corpus
(corpus/, which the benchmark also runs) and the command paths no corpus job
reaches (tests/golden/).  The golden verdicts are checked by a route of
their own below.

Regenerate the jobs with `python3 scripts/gen_corpus.py` and the frozen
snapshots with:
    python3 -m truncalg.cli --corpus-dir corpus
    python3 -m truncalg.cli --corpus-dir tests/golden
"""

import json
import os
from fractions import Fraction

import pytest

from truncalg.cli import emit, run_job
from truncalg.linalg import SNFResult
from truncalg.modules import (ElementaryDecomposition, is_zero_map, module_from_divisors,
                              module_map)
from truncalg.schemas import (parse_filtered_complex, parse_matrix,
                              parse_module, parse_ring)
from truncalg.spectral import _entry_val_ge_one, _free_block_vanishes, page

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(ROOT, "corpus")
GOLDEN = os.path.join(ROOT, "tests", "golden")


def _jobs(folder):
    return sorted(p for p in os.listdir(folder)
                  if p.endswith(".json") and not p.endswith(".report.json"))


JOBS = ([pytest.param(CORPUS, name, id=name) for name in _jobs(CORPUS)]
        + [pytest.param(GOLDEN, name, id=f"golden/{name}") for name in _jobs(GOLDEN)])


@pytest.mark.parametrize("folder,name", JOBS)
def test_byte_stable_against_snapshot(folder, name):
    with open(os.path.join(folder, name)) as fh:
        job = json.load(fh)
    report, _ = run_job(job)
    frozen_path = os.path.join(folder, name[:-5] + ".report.json")
    assert os.path.exists(frozen_path), "snapshot missing; regenerate the corpus reports"
    with open(frozen_path) as fh:
        frozen = fh.read()
    assert emit(report, "json") == frozen


def _golden(name):
    """(job, frozen report) of tests/golden/<name>.json."""
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        job = json.load(fh)
    with open(os.path.join(GOLDEN, name + ".report.json")) as fh:
        return job, json.load(fh)


def test_golden_oracle_matches_the_checker():
    """The `oracle` command's verdicts are those of `ss-report --oracle`,
    whose checker the oracle agrees with, on the same complex."""
    job, rep = _golden("oracle_two_term")
    checked, code = run_job({"command": "ss-report", "input": job["input"],
                             "options": {"oracle": True}})
    assert code == 0 and rep["exit_code"] == 0
    assert checked["verdicts"]["oracle_agrees"] is True
    assert rep["verdicts"] == {k: checked["verdicts"][k] for k in rep["verdicts"]}


def test_golden_decompose_witnesses_verify():
    """The frozen change-of-basis maps over Z/27 are inverse isomorphisms
    onto Z/3 + Z/9 + Z/27 (the free summand at the truncation)."""
    job, rep = _golden("decompose_zp")
    m = parse_module(job["input"]["module"])
    verdicts, witnesses = rep["verdicts"], rep["witnesses"]
    assert verdicts == {"elementary": True, "free_rank": 1, "torsion_divisors": [3, 9]}
    divisors = [m.ring.element_from_json(d, "") for d in verdicts["torsion_divisors"]]
    canon = module_from_divisors(m.ring, divisors, verdicts["free_rank"])
    to_c = module_map(m, canon, parse_matrix(witnesses["to_canonical"], m.ring, canon.gens, ""))
    from_c = module_map(canon, m, parse_matrix(witnesses["from_canonical"], m.ring, m.gens, ""))
    dec = ElementaryDecomposition(verdicts["free_rank"], divisors, to_c, from_c, canon)
    assert dec.verify() and witnesses["witness_verified"] is True


@pytest.mark.parametrize("name", ["snf_localized", "snf_power_series"])
def test_golden_snf_witnesses_verify(name):
    """left . A . right is the frozen diagonal, with both witnesses
    invertible, over Z[1/2] and over F_3[z]/z^3."""
    job, rep = _golden(name)
    ring = parse_ring(job["input"]["ring"])
    rows = job["input"]["matrix"]
    mat = parse_matrix(rows, ring, len(rows[0]), "")
    left = parse_matrix(rep["witnesses"]["left"], ring, mat.rows, "")
    right = parse_matrix(rep["witnesses"]["right"], ring, mat.cols, "")
    divisors = [ring.element_from_json(d, "") for d in rep["verdicts"]["divisors"]]
    assert SNFResult(left, right, divisors).verify(mat, ring)


def test_golden_completion_verdicts_by_hand():
    """H = Z[1/2]/9 with fil^1 = 3H = Z/3, so gr^0 = gr^1 = Z/3.

    At 3 nothing is lost: Z/3 -> Z/9 stays injective and is not split (Z/9
    is not Z/3 + Z/3), H has 3-exponent 2 and the E1 entries 1 and 1.  At 5
    both E1 entries Z/3 die, so the descent hypothesis (E1 injects into its
    completion) fails at weight 0 first.  The Lambda completion is not a
    report the command gives."""
    _, rep3 = _golden("ss_basechange_localized_ell3")
    assert rep3["exit_code"] == 0
    assert rep3["verdicts"]["degenerate_after_tensoring"] is True
    assert rep3["verdicts"]["split_after_tensoring"] is False
    assert rep3["witnesses"]["per_entry"] == {"0,1": {"injective": True, "split": False}}
    assert rep3["ledgers"] == {"tensored_h_profiles": {"0": [2]},
                               "tensored_e1_profiles": {"0": [1, 1]}}
    _, rep5 = _golden("ss_basechange_localized_ell5")
    assert (rep5["exit_code"], rep5["error_kind"]) == (2, "hypothesis_gate")
    assert rep5["error"].startswith("E1 entry at weight 0 degree 0 fails injectivity")
    _, replam = _golden("ss_basechange_lambda_ell3")
    assert (replam["exit_code"], replam["error_kind"]) == (2, "hypothesis_gate")


def test_golden_free_block_report_agrees_with_the_oracle():
    """Over Z/4 the d_1 of the frozen complex is 2 : Z/4 -> Z/4, nonzero and
    inside 2 . target, so the free-block test decides rational degeneration:
    coker d_1 = Z/2 has free rank 0 against the target's 1, and the report
    reads it as failed.  The report ran with the oracle, which agrees with
    every verdict; exit 3 marks the free-at-truncation target."""
    job, rep = _golden("ss_report_free_block")
    x = parse_filtered_complex(job["input"]["complex"])
    d1 = page(x, 1).diffs[(0, 1)]
    assert not is_zero_map(d1) and _entry_val_ge_one(x, d1)
    assert not _free_block_vanishes(d1, 1)
    assert rep["exit_code"] == 3 and job["options"] == {"oracle": True}
    assert rep["verdicts"]["oracle_agrees"] is True
    assert rep["verdicts"]["rationally_degenerate"] is False


def test_golden_ramified_structure_matches_gr_ranks():
    """The frozen bk-structure report at e = 2 (E = z^2 - 5, inside the gate
    e*r < p - 1) reads the exponents and free rank that its gr ranks give,
    by the rule the benchmark's tower check applies: rank drops from gr_p
    slice j-1 to slice j are the summands of exponent j, and the last rank
    is the free rank."""
    job, rep = _golden("bk_structure_ramified")
    ring = parse_ring(job["input"]["bk"]["module"]["ring"])
    assert ring.eisenstein.ramification_e == 2 and rep["exit_code"] == 0
    verdicts = rep["verdicts"]
    assert verdicts["hypothesis_met"] is True and verdicts["elementary"] is True
    ranks = verdicts["gr_ranks"]
    want = [j for j in range(1, len(ranks)) for _ in range(ranks[j - 1] - ranks[j])]
    assert verdicts["torsion_exponents"] == sorted(want) == [2]
    assert verdicts["free_rank"] == ranks[-1] == 0


def _power_of_two(q):
    """Is the Fraction q in Z[1/2]: its denominator a power of 2?"""
    return q.denominator & (q.denominator - 1) == 0


def _lambda_mul(x, y):
    """x . y in Z[1/2][[q-1]] truncated at len(x) coefficients, on Fractions."""
    x, y = [Fraction(c) for c in x], [Fraction(c) for c in y]
    return [sum((x[i] * y[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(x))]


def _multiple_of(x, rel):
    """Is x a Z[1/2][[q-1]]-multiple of the constant relation rel = [n, 0, ...]?"""
    n, *rest = rel
    assert n and not any(rest)
    return all(_power_of_two(Fraction(c) / n) for c in x)


def test_golden_global_section_splits_the_surjection():
    """0 -> Lambda/3 -> Lambda/15 -> Lambda/5 -> 0 over Z[1/2][[q-1]] at
    M = 2 splits, 3 and 5 being coprime.  The frozen section s is well
    defined (5 . s lies in (15)) and s . surject = 1 modulo 5, both read in
    Fraction arithmetic.  A split sequence stays split at every completion,
    so the survey at 3 and at 5 reads split, and nothing obstructs."""
    job, rep = _golden("lambda_survey_split15")
    ses = job["input"]["ses"]
    assert rep["exit_code"] == 0
    [[s]], [[surject]] = rep["witnesses"]["global_section"], ses["surject"]
    [[c_rel]], [[b_rel]] = ses["c"]["relations"], ses["b"]["relations"]
    assert _multiple_of(_lambda_mul(c_rel, s), b_rel)
    off_one = [x - int(k == 0) for k, x in enumerate(_lambda_mul(s, surject))]
    assert _multiple_of(off_one, c_rel)
    assert not _multiple_of(off_one, b_rel)  # the read can fail: s . surject is not 1 in b
    assert rep["verdicts"] == {"covered": True, "globally_split": True, "obstruction_primes": [],
                               "per_prime": {str(q): True for q in job["input"]["primes"]}}


def test_golden_free_layer_structure_by_hand():
    """The frozen bk-structure tower has a free layer: its quotient leaf has
    no relations.  The top module's relations are constants, one per row
    and one nonzero entry each, so it is the sum of S/p^v(entry) over the
    rows and a free summand per untouched generator: S/3 + S.  The report
    reads that, inside the gate e*r < p - 1, with its tower verified, and
    its gr ranks give the same by the rule of the ramified case."""
    job, rep = _golden("bk_structure_free_layer")
    tower, module = job["input"]["tower"], job["input"]["bk"]["module"]
    assert tower["quot"]["kind"] == "free" and tower["quot"]["bk"]["module"]["relations"] == []
    assert tower["bk"] == job["input"]["bk"]
    p, exponents, touched = module["ring"]["p"], [], set()
    for row in module["relations"]:
        [(j, x)] = [(j, x) for j, x in enumerate(row) if any(x)]
        assert x[0] and not any(x[1:])
        exponents.append(next(v for v in range(x[0].bit_length()) if x[0] % p ** (v + 1)))
        touched.add(j)
    verdicts = rep["verdicts"]
    assert rep["exit_code"] == 0 and rep["witnesses"]["notes"] == ["tower of depth 2 verified"]
    assert verdicts["hypothesis_met"] is True and verdicts["elementary"] is True
    assert verdicts["torsion_exponents"] == sorted(exponents) == [1]
    assert verdicts["free_rank"] == module["generators"] - len(touched) == 1
    ranks = verdicts["gr_ranks"]
    assert [j for j in range(1, len(ranks)) for _ in range(ranks[j - 1] - ranks[j])] == [1]
    assert ranks[-1] == 1
