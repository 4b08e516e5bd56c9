import json
import os
import subprocess
import sys

import pytest

from truncalg.cli import emit, run_job

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def load(name):
    with open(os.path.join(CORPUS, name)) as fh:
        return json.load(fh)


def test_exit_codes_on_corpus():
    """Taxonomy is total and code 4 never occurs on the shipped corpus."""
    codes = {}
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".json") or name.endswith(".report.json"):
            continue
        report, code = run_job(load(name))
        codes[name] = code
        assert code in (0, 2, 3), (name, code, report.get("error"))
        assert code != 4
    assert codes["bk_height_precision_cross.json"] == 3
    assert codes["ss_golden_trichotomy.json"] == 0


def test_golden_trichotomy_verdicts():
    report, code = run_job(load("ss_golden_trichotomy.json"))
    v = report["verdicts"]
    assert (v["degenerate"], v["saturated"], v["split"]) == (True, True, False)
    assert v["oracle_agrees"]
    assert report["ledgers"]["torsion_lengths"]["0"] == {"homology": 2, "graded": [1, 1]}


def test_byte_determinism():
    job = load("ss_golden_trichotomy.json")
    r1, _ = run_job(job)
    r2, _ = run_job(job)
    assert emit(r1) == emit(r2)
    assert r1["timing_ms"] is None


def test_round_trip_parse_emit():
    report, _ = run_job(load("cw_rp2.json"))
    text = emit(report)
    back = json.loads(text)
    assert back["verdicts"] == json.loads(emit(report))["verdicts"]
    assert back["version"] == report["version"]


def test_schema_error_exit_1():
    report, code = run_job({"command": "snf",
                            "input": {"ring": {"family": "Bogus"}, "matrix": []}})
    assert code == 1 and report["error_kind"] == "schema"
    report2, code2 = run_job({"command": "nope", "input": {}})
    assert code2 == 1


def test_noncanonical_element_rejected_with_hint():
    job = {"command": "snf",
           "input": {"ring": {"family": "TruncatedPadic", "p": 2, "N": 2},
                     "matrix": [[5]]},
           "options": {}}
    report, code = run_job(job)
    assert code == 1
    assert "canonical" in report["error"] and "1" in report["error"]


def test_fraction_denominator_rejected():
    job = {"command": "snf",
           "input": {"ring": {"family": "LocalizedIntegers", "inverted_primes": [2]},
                     "matrix": [["1/3"]]},
           "options": {}}
    report, code = run_job(job)
    assert code == 1 and "/input/matrix/0/0" in report["error"]


def test_precision_override_option():
    job = load("ext_golden_p2.json")
    job = dict(job, options={"precision_n": 5})
    report, code = run_job(job)
    assert code == 0
    assert report["job"]["options"]["precision_n"] == 5


def test_text_format_renders_ledger():
    report, _ = run_job(load("ss_golden_trichotomy.json"))
    text = emit(report, "text")
    assert "torsion-length ledger" in text
    assert "degree | len(H_tors)" in text


def test_cli_process_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "cw-ktheory",
         "--input", os.path.join(CORPUS, "cw_rp2.json"),
         "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["verdicts"]["k0"] == {"rank": 0, "torsion": [2]}


def test_cli_batch_mode(tmp_path):
    """The whole corpus on two worker threads, which share the SNF memo,
    reproduces every frozen report byte for byte with its exit code."""
    import shutil

    names = sorted(n for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".report.json"))
    assert len(names) == 18
    for name in names:
        shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "--corpus-dir", str(tmp_path),
         "--workers", "2"],
        capture_output=True, text=True)
    codes = {}
    for name in names:
        report = name[:-5] + ".report.json"
        with open(os.path.join(CORPUS, report)) as fh:
            frozen = fh.read()
        assert (tmp_path / report).read_text() == frozen, name
        codes[name] = json.loads(frozen)["exit_code"]
    assert proc.stdout.splitlines() == [f"{n}: exit {codes[n]}" for n in names]
    assert proc.returncode == max(codes.values()), proc.stderr


def test_exploration_mode_flag():
    report, code = run_job(load("bk_structure_exploration.json"))
    assert code == 0
    assert report["hypothesis_flag"] is True
    assert report["verdicts"]["elementary"] is True


def test_tower_job():
    report, code = run_job(load("bk_structure_tower.json"))
    assert code == 0
    assert report["verdicts"]["torsion_exponents"] == [2]
    assert any("tower" in n for n in report["witnesses"]["notes"])


Z8 = {"family": "TruncatedPadic", "p": 2, "N": 3}
Z64 = {"family": "TruncatedPadic", "p": 2, "N": 6}
Z27 = {"family": "TruncatedPadic", "p": 3, "N": 3}


def _cyclic(ring, d):
    return {"ring": ring, "generators": 1, "relations": [[d]]}


@pytest.mark.parametrize("job, pointer", [
    ({"command": "ext1", "input": {"c": _cyclic(Z8, 2), "a": _cyclic(Z27, 3)}},
     "/input/a/ring"),
    ({"command": "split",
      "input": {"ses": {"a": _cyclic(Z8, 2), "b": _cyclic(Z8, 4), "c": _cyclic(Z27, 2),
                        "inject": [[2]], "surject": [[1]]}}},
     "/input/ses/c/ring"),
    ({"command": "lambda-zero",
      "input": {"map": {
          "source": _cyclic({"family": "TruncatedLambda", "inverted_primes": [2], "M": 2},
                            [3, 0]),
          "target": _cyclic({"family": "TruncatedLambda", "inverted_primes": [3], "M": 2},
                            [3, 0]),
          "matrix": [[[1, 0]]]}}},
     "/input/map/target/ring"),
])
def test_operand_ring_mismatch_rejected(job, pointer):
    """An operand's own ring field must match the ring it is parsed over;
    it is never silently reread in the other ring."""
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema"
    assert report["error"].startswith(pointer + ":")


def test_runtime_import_graph_has_no_sympy():
    """Importing every truncalg module and running corpus jobs loads no sympy."""
    child = (
        "import importlib, json, pkgutil, sys\n"
        "import truncalg\n"
        "for info in pkgutil.iter_modules(truncalg.__path__):\n"
        "    importlib.import_module('truncalg.' + info.name)\n"
        "from truncalg.cli import run_job\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path) as fh:\n"
        "        assert run_job(json.load(fh))[1] == 0, path\n"
        "assert 'sympy' not in sys.modules\n")
    jobs = [os.path.join(CORPUS, n) for n in ("cw_rp2.json", "lambda_zero_qminus1.json")]
    proc = subprocess.run([sys.executable, "-c", child] + jobs, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _mutant(name, pointer, value):
    """Corpus job `name` with the field at JSON pointer `pointer` set to value."""
    job = load(name)
    *path, last = pointer.strip("/").split("/")
    node = job
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return job


_CHILD_RUN_JOB = (
    "import json, sys\n"
    "from truncalg.cli import run_job\n"
    "report, code = run_job(json.load(sys.stdin))\n"
    "json.dump({'code': code, 'report': report}, sys.stdout)\n")


@pytest.mark.parametrize("name, field, value, pointer", [
    ("lambda_survey_nonsplit9.json", "/input/primes", ["x"], "/input/primes/0"),
    ("lambda_survey_nonsplit9.json", "/input/primes", 7, "/input/primes"),
    ("lambda_survey_nonsplit9.json", "/input/primes", [5.0], "/input/primes/0"),
    ("lambda_survey_nonsplit9.json", "/input/primes", [5, 1], "/input/primes/1"),
    ("lambda_survey_nonsplit9.json", "/input/primes", [1], "/input/primes/0"),
    ("lambda_survey_nonsplit9.json", "/input/primes", [True], "/input/primes/0"),
    ("bk_height_identity.json", "/input/s", "a", "/input/s"),
    ("bk_height_identity.json", "/input/s", 2.7, "/input/s"),
    ("bk_height_identity.json", "/input/r", "a", "/input/r"),
    ("bk_structure_tower.json", "/input/r", "a", "/input/r"),
    ("bk_structure_tower.json", "/input/r", 1.5, "/input/r"),
    ("ss_golden_trichotomy.json", "/input/complex/filtration/0/degree", 1,
     "/input/complex/filtration/0/degree"),
    ("ss_basechange_identity.json", "/input/complex/filtration/0/degree", -1,
     "/input/complex/filtration/0/degree"),
    ("snf_2468.json", "/input/matrix", 5, "/input/matrix"),
    ("snf_2468.json", "/input/matrix", [5], "/input/matrix/0"),
    ("snf_2468.json", "/input", {"ring": Z64, "matrix": [], "cols": "a"}, "/input/cols"),
    ("snf_2468.json", "/input", {"ring": Z64, "matrix": [], "cols": -1}, "/input/cols"),
    ("ss_basechange_identity.json", "/input/spec", 5, "/input/spec"),
])
def test_malformed_field_rejected_at_parse_time(name, field, value, pointer):
    """Each mutant once raised, hung or was silently truncated; now it exits 1
    with a schema error at the field.  The job runs in a child process with a
    timeout, so a regression to the old hang ([1] and [true] looped forever
    in prime_valuation) fails instead of stalling the suite."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_RUN_JOB],
                          input=json.dumps(_mutant(name, field, value)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    report = out["report"]
    assert out["code"] == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ":"), report["error"]


# Z/p^N whose modulus has ~900k digits: formatting it raises ValueError
# (Python's int-to-str digit limit) while the non-canonical -1 is rejected
HUGE_MODULUS_JOB = {
    "command": "snf",
    "input": {"ring": {"family": "TruncatedPadic", "p": 1000000007, "N": 100000},
              "matrix": [[-1]]},
    "options": {}}


def test_unexpected_exception_is_an_internal_error_report(tmp_path):
    """An exception outside the error taxonomy becomes an exit-4 report that
    names its type, and in batch mode the other jobs still get theirs."""
    import shutil

    report, code = run_job(HUGE_MODULUS_JOB)
    assert code == 4 and report["error_kind"] == "internal_error"
    assert "ValueError" in report["error"]
    assert report["job"] == HUGE_MODULUS_JOB

    (tmp_path / "snf_huge_modulus.json").write_text(json.dumps(HUGE_MODULUS_JOB))
    shutil.copy(os.path.join(CORPUS, "snf_2468.json"), tmp_path / "snf_2468.json")
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "--corpus-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout.splitlines() == ["snf_2468.json: exit 0",
                                        "snf_huge_modulus.json: exit 4"]
    with open(os.path.join(CORPUS, "snf_2468.report.json")) as fh:
        assert (tmp_path / "snf_2468.report.json").read_text() == fh.read()
    huge = json.loads((tmp_path / "snf_huge_modulus.report.json").read_text())
    assert huge["exit_code"] == 4 and huge["error_kind"] == "internal_error"
    assert "ValueError" in huge["error"]
