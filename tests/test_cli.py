import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from truncalg.cli import COMMANDS, emit, main, run_job

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
# a child interpreter imports the truncalg of this checkout, whatever the
# environment's PYTHONPATH or installed copy
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


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
    for command in (["snf"], {}):
        report3, code3 = run_job({"command": command, "input": {}})
        assert code3 == 1 and report3["error"].startswith("/command:"), report3["error"]


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


@pytest.mark.parametrize("value", ["1.5", "1e3", " 3 ", "+3", "1_0", "\u0663", "1/2 ", "1//2"])
def test_noncanonical_fraction_string_rejected(value):
    """A Z[1/S] element string is -?a or -?a/b in ASCII digits; the other
    spellings Fraction reads (a decimal, an exponent, spaces, a plus sign,
    an underscore, a non-ASCII digit) are refused at their pointer."""
    job = {"command": "snf",
           "input": {"ring": {"family": "LocalizedIntegers", "inverted_primes": [2]},
                     "matrix": [["1/2", value]]}}
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"] == f"/input/matrix/0/1: '{value}' is not a fraction string"


def test_canonical_fraction_strings_parse():
    from truncalg.rings import LocalizedIntegers

    ring = LocalizedIntegers((2,))
    assert [ring.element_from_json(v, "") for v in ("1/2", "3/4", "-3/4", "12", "-5", 7)] \
        == [Fraction(1, 2), Fraction(3, 4), Fraction(-3, 4), 12, -5, 7]


@pytest.mark.parametrize("ring", [
    {"family": "TruncatedPadic", "p": 2, "N": 3},
    {"family": "TruncatedPowerSeries", "p": 2, "M": 3},
    {"family": "TruncatedBK", "p": 2, "N": 3, "M": 2},
    {"family": "TruncatedLambda", "inverted_primes": [2], "M": 3},
], ids=lambda ring: ring["family"])
def test_ring_without_its_precision_refused(ring):
    """A ring that omits its N or M is refused: the input states its
    precisions, and no option supplies them."""
    for key in {"N", "M"} & set(ring):
        omitted = {k: v for k, v in ring.items() if k != key}
        report, code = run_job({"command": "snf", "options": {},
                                "input": {"ring": omitted, "matrix": []}})
        assert code == 1, report.get("error")
        assert report["error"] == f"/input/ring: missing field '{key}'"


def test_ext1_oracle_decomposes_each_module_once(monkeypatch):
    """c, Ext^1(c, a) and a are decomposed once each; c's exponents feed
    both Ext^1 and the oracle's single-exponent gate."""
    from truncalg import modules

    real = modules.decompose
    seen = []

    def counting(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(modules, "decompose", counting)
    job = load("ext_golden_p2.json")
    report, code = run_job(job)
    assert code == 0 and report["verdicts"]["oracle_agrees"]
    assert len(seen) == 3
    c = seen[0]
    assert (c.gens, c.relations.tolist()) == (1, [[(4, 0, 0)]])
    with open(os.path.join(CORPUS, "ext_golden_p2.report.json")) as fh:
        assert emit(report, "json") == fh.read()


def test_text_format_renders_ledger():
    report, _ = run_job(load("ss_golden_trichotomy.json"))
    text = emit(report, "text")
    assert "torsion-length ledger" in text
    assert "degree | len(H_tors)" in text


def test_text_format_renders_a_schema_error():
    report, code = run_job(dict(load("snf_2468.json"), options={"oracel": True}))
    assert code == 1
    lines = emit(report, "text").splitlines()
    assert lines[2] == ("error [schema]: /options/oracel: "
                        "unknown option 'oracel': the only option is 'oracle'"), lines


def test_timing_flag_reports_wall_time(tmp_path, capsys):
    """--timing sets `timing_ms`, an int >= 0, in single and --corpus-dir
    mode, and the text form ends with the wall time; without it the field
    is null and the text form has no such line."""
    src = os.path.join(CORPUS, "snf_2468.json")
    assert main(["snf", "--input", src, "--timing"]) == 0
    ms = json.loads(capsys.readouterr().out)["timing_ms"]
    assert type(ms) is int and ms >= 0
    assert main(["snf", "--input", src, "--timing", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert re.fullmatch(r"  wall time: \d+ ms", text.splitlines()[-1]), text
    assert main(["snf", "--input", src, "--format", "text"]) == 0
    assert "wall time" not in capsys.readouterr().out
    for name in ("snf_2468.json", "cw_rp2.json"):
        shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
    assert main(["--corpus-dir", str(tmp_path), "--timing"]) == 0
    for name in ("snf_2468", "cw_rp2"):
        ms = json.loads((tmp_path / f"{name}.report.json").read_text())["timing_ms"]
        assert type(ms) is int and ms >= 0, name


def test_cli_process_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "cw-ktheory",
         "--input", os.path.join(CORPUS, "cw_rp2.json"),
         "--output", str(out)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["verdicts"]["k0"] == {"rank": 0, "torsion": [2]}


def test_cli_oracle_three_generators_z9(tmp_path):
    """`ss-report --oracle` on (Z/9)^3 (729 elements, within
    ORACLE_ELEMENT_BOUND) filtered by 3Z/9 + Z/9: the oracle's split tier
    finishes and agrees with the checker."""
    job = {"command": "ss-report",
           "input": {"complex": {
               "ring": {"family": "TruncatedPadic", "p": 3, "N": 2},
               "lo": 0, "hi": 0, "wmin": 0, "wmax": 1,
               "modules": [{"generators": 3, "relations": []}],
               "differentials": [],
               "filtration": [{"degree": 0, "weight": 1,
                               "module": {"generators": 2, "relations": [[3, 0]]},
                               "inclusion": [[3, 0, 0], [0, 1, 0]]}]}}}
    src = tmp_path / "z9_three.json"
    src.write_text(json.dumps(job))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "ss-report", "--oracle",
         "--input", str(src), "--output", str(out)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    v = json.loads(out.read_text())["verdicts"]
    assert v["oracle_agrees"] is True
    assert (v["degenerate"], v["split"]) == (True, False)


def test_cli_batch_mode(tmp_path):
    """The whole corpus in one batch reproduces every frozen report byte for
    byte with its exit code."""
    import shutil

    names = sorted(n for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".report.json"))
    assert len(names) == 18
    for name in names:
        shutil.copy(os.path.join(CORPUS, name), tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "--corpus-dir", str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV)
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
# a completion at 3 over Z[1/3]: Z[1/3] tensored with Z_3 is Q_3
INVERTED_ELL_BASECHANGE = {
    "complex": {"ring": {"family": "LocalizedIntegers", "inverted_primes": [3]},
                "lo": 0, "hi": 0, "wmin": 0, "wmax": 1,
                "modules": [{"generators": 1, "relations": []}],
                "filtration": [{"degree": 0, "weight": 1, "inclusion": [[1]],
                                "module": {"generators": 1, "relations": []}}]},
    "spec": {"kind": "localized_completion", "ell": 3}}


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
    proc = subprocess.run([sys.executable, "-c", child] + jobs,
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr


# the truncalg modules every CLI job loads, and those each command adds
_BASE_MODULES = {"errors", "rings", "linalg", "modules", "schemas", "cli"}
_COMMAND_MODULES = {
    "snf": set(), "split": set(), "decompose": {"smodules"},
    "ext1": {"ext", "bruteforce", "smodules"},
    "ss-report": {"spectral", "bruteforce"}, "ss-basechange": {"spectral", "bruteforce"},
    "oracle": {"spectral", "bruteforce"},
    "bk-height": {"breuil_kisin", "smodules"}, "bk-structure": {"breuil_kisin", "smodules"},
    "cw-ktheory": {"cw"}, "cw-verify": {"cw"},
    "lambda-survey": {"local_global"}, "lambda-zero": {"local_global"},
}

_CHILD_MAIN = (
    "import json, sys\n"
    "from truncalg.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m[len('truncalg.'):] for m in sys.modules\n"
    "                        if m.startswith('truncalg.'))))\n"
    "sys.exit(code)\n")


def test_each_command_loads_only_its_modules(tmp_path):
    """A fresh interpreter running one corpus job writes the golden report
    byte for byte and loads only the base modules and its command's."""
    assert set(_COMMAND_MODULES) == set(COMMANDS)
    names = sorted(n for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".report.json"))
    out = tmp_path / "report.json"
    for name in names:
        command = load(name)["command"]
        with open(os.path.join(CORPUS, name[:-5] + ".report.json")) as fh:
            golden = fh.read()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_MAIN, command,
             "--input", os.path.join(CORPUS, name), "--output", str(out)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=120)
        assert proc.returncode == json.loads(golden)["exit_code"], (name, proc.stderr)
        assert out.read_text() == golden, name
        loaded = set(json.loads(proc.stdout))
        assert loaded == _BASE_MODULES | _COMMAND_MODULES[command], (name, sorted(loaded))


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
    ("ss_basechange_identity.json", "/input/spec/precision_n", 0, "/input/spec/precision_n"),
    ("ss_basechange_identity.json", "/input/spec/precision_n", -1, "/input/spec/precision_n"),
    ("ss_basechange_identity.json", "/input/spec/precision_n", 9, "/input/spec/precision_n"),
    ("ss_basechange_identity.json", "/input/spec/unit", 5, "/input/spec/unit"),
    ("ss_golden_trichotomy.json", "/input/complex/filtration",
     [{"degree": 0, "weight": 1, "module": {"generators": 1, "relations": [[3]]},
       "inclusion": [[3]]},
      {"degree": 0, "weight": 1, "module": {"generators": 0, "relations": []},
       "inclusion": []}],
     "/input/complex/filtration/1"),
    ("ss_golden_trichotomy.json", "/input/complex/filtration/0/weight", 0,
     "/input/complex/filtration/0/weight"),
    ("ss_golden_trichotomy.json", "/input/complex/filtration/0/weight", 2,
     "/input/complex/filtration/0/weight"),
    ("ss_golden_trichotomy.json", "/input/complex/filtration/0/inclusion", [],
     "/input/complex/filtration/0/inclusion"),
    ("ss_basechange_identity.json", "/input/spec", {}, "/input/spec/kind"),
    ("ss_basechange_identity.json", "/input/spec/kind", "bogus", "/input/spec/kind"),
    ("ss_basechange_identity.json", "/input/spec/kind", 5, "/input/spec/kind"),
    ("ss_basechange_identity.json", "/input", INVERTED_ELL_BASECHANGE, "/input/spec/ell"),
    ("snf_2468.json", "/input/ring/p", 4, "/input/ring/p"),
    ("snf_2468.json", "/input/ring/N", 0, "/input/ring/N"),
    ("snf_2468.json", "/input/ring", {"family": "TruncatedPowerSeries", "p": 3, "M": 0},
     "/input/ring/M"),
    ("snf_2468.json", "/input/ring", {"family": "LocalizedIntegers", "inverted_primes": [3, 2]},
     "/input/ring/inverted_primes"),
    ("lambda_zero_qminus1.json", "/input/map/source/ring/inverted_primes", [2, 2],
     "/input/map/source/ring/inverted_primes"),
    ("bk_height_identity.json", "/input/bk/module/ring/eisenstein/coefficients", [],
     "/input/bk/module/ring/eisenstein/coefficients"),
    ("bk_height_identity.json", "/input/bk/module/ring/eisenstein/coefficients", [-3, 2],
     "/input/bk/module/ring/eisenstein/coefficients/1"),
    ("bk_height_identity.json", "/input/bk/module/ring/eisenstein/ramification_e", 0,
     "/input/bk/module/ring/eisenstein/ramification_e"),
    ("bk_height_identity.json", "/input/bk/module/ring/M", 0, "/input/bk/module/ring/M"),
])
def test_malformed_field_rejected_at_parse_time(name, field, value, pointer):
    """Each mutant once raised, hung or was silently truncated; now it exits 1
    with a schema error at the field.  The job runs in a child process with a
    timeout, so a regression to the old hang ([1] and [true] looped forever
    in prime_valuation) fails instead of stalling the suite."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_RUN_JOB],
                          input=json.dumps(_mutant(name, field, value)),
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    report = out["report"]
    assert out["code"] == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ":"), report["error"]


def _inexact_split_job():
    """split_nonsplit_zp2 with b = Z/8 free and inject 1 |-> 4: inject is
    injective and surject onto Z/2 surjective, but 4Z/8 is not the kernel 2Z/8."""
    job = _mutant("split_nonsplit_zp2.json", "/input/ses/b/relations", [])
    job["input"]["ses"]["inject"] = [[4]]
    return job


@pytest.mark.parametrize("job, pointer", [
    (_mutant("split_nonsplit_zp2.json", "/input/ses/inject", [[0]]), "/input/ses/inject"),
    (_mutant("lambda_survey_nonsplit9.json", "/input/ses/inject", [[[0, 0]]]),
     "/input/ses/inject"),
    (_mutant("split_nonsplit_zp2.json", "/input/ses/surject", [[0]]), "/input/ses/surject"),
    (_mutant("lambda_survey_nonsplit9.json", "/input/ses/surject", [[[3, 0]]]),
     "/input/ses/surject"),
    (_inexact_split_job(), "/input/ses"),
], ids=["split_inject", "survey_inject", "split_surject", "survey_surject", "split_exactness"])
def test_ses_refusal_names_the_failing_map(job, pointer):
    """A sequence that is not short exact exits 1 with a schema error at the
    map at fault, or at the sequence when only exactness at b fails."""
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ": not a short exact sequence"), report["error"]


def _complex_mutant(**fields):
    """tests/golden/ss_report_free_block.json (Z/4, C_1 = C_0 = R, d_1 = 2,
    fil^1 C_1 = 0 and fil^1 C_0 = C_0) with the given fields of its complex
    replaced."""
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "ss_report_free_block.json")) as fh:
        job = json.load(fh)
    job["input"]["complex"].update(fields)
    return job


def _fil(degree, weight, relations, inclusion, gens=1):
    return {"degree": degree, "weight": weight, "inclusion": inclusion,
            "module": {"generators": gens, "relations": relations}}


FREE = {"generators": 1, "relations": []}


@pytest.mark.parametrize("job, pointer, message", [
    (_complex_mutant(hi=-1, modules=[], differentials=[], filtration=[]),
     "/input/complex/hi", "empty degree or weight range"),
    (_complex_mutant(modules=[FREE, {"generators": 1, "relations": [[2]]}],
                     differentials=[[[1]]]),
     "/input/complex/differentials/0", "differential d_1 is not well defined"),
    (_complex_mutant(hi=2, modules=[FREE] * 3, differentials=[[[1]], [[1]]],
                     filtration=[_fil(i, 1, [], [], 0) for i in range(3)]),
     "/input/complex/differentials/1", "d o d != 0 at degree 2"),
    (_complex_mutant(filtration=[_fil(1, 1, [], [], 0)]),
     "/input/complex/filtration", "missing filtration data at degree 0 weight 1"),
    (_complex_mutant(filtration=[_fil(1, 1, [], [], 0), _fil(0, 1, [[2]], [[1]])]),
     "/input/complex/filtration/1/inclusion", "filtration inclusion (0,1) not well defined"),
    (_complex_mutant(filtration=[_fil(1, 1, [], [], 0), _fil(0, 1, [], [[0]])]),
     "/input/complex/filtration/1/inclusion", "filtration map (0,1) is not injective"),
    (_complex_mutant(wmax=2, filtration=[_fil(0, 1, [[2]], [[2]]), _fil(0, 2, [], [[1]]),
                                         _fil(1, 1, [], [], 0), _fil(1, 2, [], [], 0)]),
     "/input/complex/filtration/1/inclusion", "filtration not nested at degree 0 weight 2"),
    (_complex_mutant(filtration=[_fil(1, 1, [], [[1]]), _fil(0, 1, [], [], 0)]),
     "/input/complex/filtration/0/inclusion",
     "differential violates the filtration at degree 1 weight 1"),
], ids=["empty_range", "differential_not_well_defined", "d_squared", "missing_entry",
        "inclusion_not_well_defined", "not_injective", "not_nested", "violates_filtration"])
def test_filtered_complex_refusals_carry_their_pointer(job, pointer, message):
    """Each algebraic refusal of `spectral.validate`, one mutant of a golden
    ss-report job apiece, exits 1 with a schema error that starts with the
    JSON pointer of the entry at fault."""
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(f"{pointer}: {message}"), report["error"]


@pytest.mark.parametrize("command", ["cw-ktheory", "cw-verify"])
@pytest.mark.parametrize("cw", [
    {"cells": [1, 1], "boundaries": [[[2]]]},
    {"cells": [2, 1], "boundaries": [[[1, 1]]]},
], ids=["loop_times_2", "segment_plus_plus"])
def test_cw_unaugmented_boundary_refused_at_its_pointer(tmp_path, command, cw):
    """A 1-cell whose boundary coefficients do not sum to zero is refused at
    its boundary list entry by both cw commands: exit 1, a schema error and
    nothing on stderr.  Before the augmentation check the loop read a reduced
    H^0 of rank -1 with exit 0, and cw-verify failed at a map or a traceback."""
    src = tmp_path / "job.json"
    src.write_text(json.dumps({"command": command, "input": {"cw": cw}, "options": {}}))
    proc = subprocess.run([sys.executable, "-m", "truncalg.cli", command, "--input", str(src)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    report = json.loads(proc.stdout)
    assert proc.returncode == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"] == ("/input/cw/boundaries/0: the boundary coefficients of "
                               "each 1-cell must sum to zero")
    assert proc.stderr == ""


def test_cw_verify_refuses_a_disconnected_complex_at_its_pointer(tmp_path):
    """Two 0-cells and a 1-cell with zero boundary: a valid, disconnected
    complex.  cw-verify refuses it at /input/cw with exit 1, a schema error
    and nothing on stderr."""
    src = tmp_path / "job.json"
    src.write_text(json.dumps({"command": "cw-verify", "options": {},
                               "input": {"cw": {"cells": [2, 1], "boundaries": [[[0, 0]]]}}}))
    proc = subprocess.run([sys.executable, "-m", "truncalg.cli", "cw-verify", "--input", str(src)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    report = json.loads(proc.stdout)
    assert proc.returncode == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"] == "/input/cw: skeletal verification needs a connected complex"
    assert proc.stderr == ""


@pytest.mark.parametrize("name", ["cw_s2.json", "cw_cp2.json"])
def test_cw_oversized_cell_count_refused_at_its_pointer(tmp_path, name):
    """A corpus CW job with its 0-cell count set to 10**30 exits 1 with a
    schema error at /input/cw/cells/0 and nothing on stderr; it ended as an
    internal error (exit 4) when the count reached the augmentation column."""
    job = load(name)
    job["input"]["cw"]["cells"][0] = 10 ** 30
    src = tmp_path / "job.json"
    src.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", job["command"], "--input", str(src)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    report = json.loads(proc.stdout)
    assert proc.returncode == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"] == "/input/cw/cells/0: more than 48 cells in one dimension"
    assert proc.stderr == ""


def test_cw_verify_sphere_at_the_dimension_bound_finishes(tmp_path):
    """cw-verify on the sphere [1] + [0]*(MAX_DIMENSION - 1) + [1] exits 0 as
    a child inside a 5 s CPU budget; one more dimension exits 1 at
    /input/cw/cells.  Without the bound, n = 400 zeros took 8.7 s CPU and
    117 MB."""
    from truncalg.schemas import MAX_DIMENSION

    for cells, code in (([1] + [0] * (MAX_DIMENSION - 1) + [1], 0),
                        ([1] + [0] * MAX_DIMENSION + [1], 1)):
        src = tmp_path / "job.json"
        src.write_text(json.dumps({"command": "cw-verify", "options": {},
                                   "input": {"cw": {"cells": cells}}}))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-m", "truncalg.cli", "cw-verify",
                               "--input", str(src)],
                              capture_output=True, text=True, env=CHILD_ENV, timeout=20)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        spent = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        report = json.loads(proc.stdout)
        assert proc.returncode == code == report["exit_code"], report.get("error")
        assert spent < 5.0, spent
    assert report["error"] == f"/input/cw/cells: cells above dimension {MAX_DIMENSION}"


def test_cw_ktheory_with_a_large_semiprime_torsion_finishes(tmp_path):
    """RP^2's cell structure with the 2-cell attached by degree N, a product
    of two 18-digit primes: the K-groups are read without factoring N, so the
    job finishes well inside its timeout with torsion [N] in K^0."""
    n = 10000000000000001600000000000000039
    src = tmp_path / "job.json"
    src.write_text(json.dumps({"command": "cw-ktheory", "options": {},
                               "input": {"cw": {"cells": [1, 1, 1],
                                                "boundaries": [[[0]], [[n]]]}}}))
    proc = subprocess.run([sys.executable, "-m", "truncalg.cli", "cw-ktheory",
                           "--input", str(src)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=10)
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(proc.stdout)["verdicts"]
    assert verdicts["k0"] == {"rank": 0, "torsion": [n]}
    assert verdicts["k1"] == {"rank": 0, "torsion": []}


def lambda_identity_job(seed, n=8, m=4):
    """lambda-zero on the identity of a TruncatedLambda((2,), 4) module with
    n generators and n x n relations, coefficients in [-5, 5] from
    Random(seed)."""
    rng = random.Random(seed)
    module = {"ring": {"family": "TruncatedLambda", "inverted_primes": [2], "M": m},
              "generators": n,
              "relations": [[[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
                            for _ in range(n)]}
    identity = [[[int(i == j)] + [0] * (m - 1) for j in range(n)] for i in range(n)]
    return {"command": "lambda-zero", "options": {},
            "input": {"map": {"matrix": identity, "source": module, "target": module}}}


def z_snf_job(n):
    """snf over Z of an n x n matrix with entries in [-9, 9] from Random(n)."""
    rng = random.Random(n)
    return {"command": "snf", "options": {},
            "input": {"ring": {"family": "LocalizedIntegers", "inverted_primes": []},
                      "matrix": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]}}


@pytest.mark.parametrize("job", [lambda_identity_job(1), lambda_identity_job(2), z_snf_job(24)],
                         ids=["lambda_zero_seed1", "lambda_zero_seed2", "snf_z_24"])
def test_z_s_snf_jobs_finish(tmp_path, job):
    """Jobs whose Z[1/S] SNF ran without end under the Bezout steps: each
    child exits 0 with a report inside a 20 s timeout.  Under those steps
    the 8 x 8 Lambda SNFs of seeds 1 and 2 built witnesses of hundreds of
    thousands of bits, and the n = 24 witnesses of snf over Z passed the
    4300-digit limit of int-to-str."""
    src = tmp_path / "job.json"
    src.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, "-m", "truncalg.cli", job["command"],
                           "--input", str(src)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exit_code"] == 0


@pytest.mark.parametrize("n, budget", [(28, 4.0), (48, 8.0)])
def test_snf_over_z_verifies_within_budget(tmp_path, n, budget):
    """snf over Z at n = 28 and 48 writes a verified report (exit 0) inside
    a stated CPU budget for the child, start-up included.  When verify
    inverted both witnesses by solves, n = 28 took 18 to 33 s of child CPU
    (two measurements) against 0.04 s for the SNF; the witnesses'
    invertibility is now an S-unit Bareiss determinant (0.3 s and 1.2 s
    for the whole child on a 2-vCPU VM)."""
    src = tmp_path / "job.json"
    src.write_text(json.dumps(z_snf_job(n)))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "truncalg.cli", "snf", "--input", str(src)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    spent = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exit_code"] == 0
    assert spent < budget, spent


@pytest.mark.parametrize("kind", ["z_to_zero", "z_to_unit", "frobenius_twist"])
def test_unsupported_base_change_kind_is_a_gate(kind):
    """A known kind the report does not cover parses and exits 2; only an
    unknown kind is a schema error."""
    report, code = run_job(_mutant("ss_basechange_identity.json", "/input/spec/kind", kind))
    assert code == 2 and report["error_kind"] == "hypothesis_gate", report.get("error")


# Over Z (no inverted primes) the second divisor of this matrix of 4000-digit
# integers has about 8000 digits, beyond Python's int-to-str limit: the SNF
# computes and the report cannot be printed
BIG_INTEGER_SNF_JOB = {
    "command": "snf",
    "input": {"ring": {"family": "LocalizedIntegers", "inverted_primes": []},
              "matrix": [[10**3999 + 7, 10**3999 + 9], [3 * 10**3999 + 1, 10**3999 - 11]]},
    "options": {}}


def test_unexpected_exception_is_an_internal_error_report(tmp_path, monkeypatch):
    """An exception outside the error taxonomy becomes an exit-4 report that
    names its type, and in batch mode the other jobs still get theirs."""
    import shutil

    import truncalg.cli

    def boom(*args):
        raise ValueError("boom")

    job = load("snf_2468.json")
    with monkeypatch.context() as patch:
        patch.setattr(truncalg.cli, "smith_normal_form", boom)
        report, code = run_job(job)
    assert code == 4 and report["error_kind"] == "internal_error"
    assert "ValueError" in report["error"]
    assert report["job"] == job

    (tmp_path / "snf_big_integers.json").write_text(json.dumps(BIG_INTEGER_SNF_JOB))
    shutil.copy(os.path.join(CORPUS, "snf_2468.json"), tmp_path / "snf_2468.json")
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "--corpus-dir", str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout.splitlines() == ["snf_2468.json: exit 0",
                                        "snf_big_integers.json: exit 4"]
    with open(os.path.join(CORPUS, "snf_2468.report.json")) as fh:
        assert (tmp_path / "snf_2468.report.json").read_text() == fh.read()
    big = json.loads((tmp_path / "snf_big_integers.report.json").read_text())
    assert big["exit_code"] == 4 and big["error_kind"] == "internal_error"
    assert "ValueError" in big["error"]


def test_snf_witnesses_that_fail_to_verify_are_an_internal_inconsistency(monkeypatch):
    """The snf command checks L . A . R = D and the invertibility of L and R
    before it reports; witnesses that fail the check exit 4."""
    import truncalg.cli
    from truncalg.linalg import Mat, smith_normal_form

    def of_zero(mat, ring):  # the Smith form of the zero matrix of mat's shape
        return smith_normal_form(Mat.zero(mat.rows, mat.cols, ring), ring)

    monkeypatch.setattr(truncalg.cli, "smith_normal_form", of_zero)
    report, code = run_job(load("snf_2468.json"))
    assert code == 4 and report["error_kind"] == "internal_inconsistency", report.get("error")
    assert report["error"] == "SNF witnesses failed to verify"


def test_oracle_disagreement_is_an_internal_inconsistency(monkeypatch):
    """Under --oracle, ss-report compares the element-level oracle's verdicts
    with the checker's; a disagreement exits 4."""
    from truncalg import spectral

    real = spectral.oracle

    def flipped(x):
        verdicts = real(x)
        return dict(verdicts, split=not verdicts["split"])

    monkeypatch.setattr(spectral, "oracle", flipped)
    report, code = run_job(load("ss_golden_trichotomy.json"))
    assert code == 4 and report["error_kind"] == "internal_inconsistency", report.get("error")
    assert report["error"] == "oracle disagrees with the checker"


def test_batch_reports_every_job_file(tmp_path):
    """A job file that is not an object, one that is not JSON and one whose
    report cannot be printed each get a report; the others are unchanged."""
    import shutil

    (tmp_path / "a_array.json").write_text("[1, 2]")
    (tmp_path / "b_broken.json").write_text('{"command": "snf",')
    (tmp_path / "c_big_integers.json").write_text(json.dumps(BIG_INTEGER_SNF_JOB))
    shutil.copy(os.path.join(CORPUS, "snf_2468.json"), tmp_path / "snf_2468.json")
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "--corpus-dir", str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert proc.stdout.splitlines() == ["a_array.json: exit 1", "b_broken.json: exit 1",
                                        "c_big_integers.json: exit 4", "snf_2468.json: exit 0"]
    assert proc.returncode == 4, proc.stderr
    reports = {name: json.loads((tmp_path / (name + ".report.json")).read_text())
               for name in ("a_array", "b_broken", "c_big_integers")}
    assert reports["a_array"]["error_kind"] == "schema"
    assert reports["a_array"]["error"] == "a job must be a JSON object"
    assert reports["a_array"]["job"] == [1, 2]
    assert reports["b_broken"]["error_kind"] == "schema"
    assert "JSONDecodeError" in reports["b_broken"]["error"]
    assert reports["c_big_integers"]["error_kind"] == "internal_error"
    assert "ValueError" in reports["c_big_integers"]["error"]
    with open(os.path.join(CORPUS, "snf_2468.report.json")) as fh:
        assert (tmp_path / "snf_2468.report.json").read_text() == fh.read()
    # single-job mode takes the same path
    proc = subprocess.run(
        [sys.executable, "-m", "truncalg.cli", "snf",
         "--input", str(tmp_path / "c_big_integers.json")],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error_kind"] == "internal_error"


@pytest.mark.parametrize("ring, pointer", [
    ({"family": "TruncatedPadic", "p": 1000000007, "N": 100000}, "/input/ring/N"),
    ({"family": "TruncatedPadic", "p": 2, "N": 13288}, "/input/ring/N"),
    ({"family": "TruncatedBK", "p": 3, "N": 10000, "M": 2}, "/input/ring/N"),
])
def test_huge_modulus_refused_at_parse_time(ring, pointer):
    """p^N with more than 4000 decimal digits is refused before it is built."""
    report, code = run_job({"command": "snf", "input": {"ring": ring, "matrix": [[0]]}})
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ":"), report["error"]


def test_largest_modulus_accepted():
    # 2^13287 has 4000 decimal digits
    report, code = run_job({"command": "snf", "input": {
        "ring": {"family": "TruncatedPadic", "p": 2, "N": 13287}, "matrix": [[2]]}})
    assert code == 0, report.get("error")


@pytest.mark.parametrize("key", ["prime_bound", "precision_n", "precision_m",
                                 "precision_n_local", "oracel"])
@pytest.mark.parametrize("value", [1, 0, None, True, "a"])
def test_unknown_option_rejected(key, value):
    """`oracle` is the only job option: the former integer options and any
    other key are refused at their pointer whatever their value (null, once
    read as unset, included), never ignored."""
    report, code = run_job(dict(load("snf_2468.json"), options={key: value}))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(f"/options/{key}:"), report["error"]


@pytest.mark.parametrize("value", ["yes", "no", "true", 1, 0, 2.5, [], {}, None])
def test_malformed_option_rejected(value):
    """`oracle` must be a JSON boolean; "no" used to run the oracle."""
    report, code = run_job(dict(load("snf_2468.json"), options={"oracle": value}))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith("/options/oracle:"), report["error"]


@pytest.mark.parametrize("value", [True, False])
def test_boolean_oracle_option_runs(value):
    report, code = run_job(dict(load("ss_golden_trichotomy.json"), options={"oracle": value}))
    assert code == 0, report.get("error")
    assert ("oracle_agrees" in report["verdicts"]) is value


def test_local_precision_option_refused_on_nonsplit_survey():
    """The completion precision is always the derived one: the option that
    replaced it (and at 1 read the non-split sequence as split at 3) is
    refused, and without it the survey reports the non-split prime."""
    job = load("lambda_survey_nonsplit9.json")
    report, code = run_job(dict(job, options={"precision_n_local": 1}))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith("/options/precision_n_local:"), report["error"]
    report, code = run_job(job)
    assert code == 0, report.get("error")
    assert report["verdicts"]["per_prime"] == {"3": False}


@pytest.mark.parametrize("value", [0, [], "", False])
def test_falsy_options_refused(value, tmp_path, capsys):
    """Only a missing or null `options` means no options.  Any other value
    that is not an object is refused at /options, also under --oracle,
    which once replaced it with {"oracle": true}."""
    job = dict(load("ss_golden_trichotomy.json"), options=value)
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith("/options:"), report["error"]
    src = tmp_path / "job.json"
    src.write_text(json.dumps(job))
    assert main(["ss-report", "--input", str(src), "--oracle"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith("/options:"), report["error"]
    assert report["job"]["options"] == value and type(report["job"]["options"]) is type(value)


def test_null_options_are_no_options(tmp_path, capsys):
    """A null `options` runs as none, and --oracle still turns the oracle on."""
    job = dict(load("ss_golden_trichotomy.json"), options=None)
    report, code = run_job(job)
    assert code == 0 and "oracle_agrees" not in report["verdicts"], report.get("error")
    src = tmp_path / "job.json"
    src.write_text(json.dumps(job))
    assert main(["ss-report", "--input", str(src), "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["job"]["options"] == {"oracle": True} and report["verdicts"]["oracle_agrees"]


def test_survey_checks_a_global_non_split_against_its_local_verdicts(monkeypatch):
    """A completion too coarse to see the 3-torsion reads every certified
    prime as split; the global non-split then contradicts the local-global
    lemma and exits 4 instead of reporting both verdicts."""
    from truncalg import local_global

    monkeypatch.setattr(local_global, "completion_precision", lambda *args: 1)
    report, code = run_job(load("lambda_survey_nonsplit9.json"))
    assert code == 4 and report["error_kind"] == "internal_inconsistency", report.get("error")
    assert "local-global splitting lemma" in report["error"]


@pytest.mark.parametrize("argv", [["--bogus"], [], ["snf", "--prime-bound", "x"],
                                  ["snf", "--precision-N", "3"], ["snf", "--format", "xml"]],
                         ids=["unknown-flag", "no-command", "removed-flag-bad-value",
                              "removed-flag", "bad-choice"])
def test_usage_error_exits_1(argv, capsys):
    """A command-line usage error exits 1, as any input error does (2 is an
    unmet hypothesis gate), with argparse's usage message on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: truncalg") and "truncalg: error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: truncalg")


@pytest.mark.parametrize("value", [[], 0, "", {}])
def test_malformed_tower_rejected(value):
    """A tower that is present must parse; it used to be dropped silently."""
    report, code = run_job(_mutant("bk_structure_tower.json", "/input/tower", value))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith("/input/tower:"), report["error"]


def test_tower_node_over_another_ring_refused_at_its_own_ring():
    """When sub and quot share a ring and the node's own ring differs, the
    node's ring is the field at fault."""
    pointer = "/input/tower/bk/module/ring"
    report, code = run_job(_mutant("bk_structure_tower.json", pointer + "/N", 4))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ":"), report["error"]


@pytest.mark.parametrize("part", ["sub", "quot"])
def test_tower_part_over_another_ring_refused_at_its_pointer(part):
    """An extension node whose sub or quotient tower lives over another ring
    is refused at that tower's ring, before any map between them is built."""
    pointer = f"/input/tower/{part}/bk/module/ring"
    report, code = run_job(_mutant("bk_structure_tower.json", pointer + "/N", 4))
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith(pointer + ":"), report["error"]


def _tower_of_another_module():
    """A bk-structure job over T = TruncatedBK(3, 2, 4) whose `bk` is
    T/(3, z), with a valid mod_s1 leaf on T/(3) as its tower."""
    ring = {"family": "TruncatedBK", "p": 3, "N": 2, "M": 4}
    z3 = {"ring": ring, "generators": 1, "relations": [[[3, 0, 0, 0]]]}
    bk = {"module": dict(z3, relations=[[[3, 0, 0, 0]], [[0, 1, 0, 0]]]),
          "phi": [[[1, 0, 0, 0]]]}
    return {"command": "bk-structure", "options": {},
            "input": {"bk": bk, "r": 1,
                      "tower": {"kind": "mod_s1", "bk": {"module": z3, "phi": bk["phi"]}}}}


@pytest.mark.parametrize("case", ["relations", "phi"])
def test_tower_of_another_module_refused(case):
    """A tower certifies its own top module: one whose relations or phi are
    not the job's `bk` is refused at /input/tower/bk, where it once exited 4
    as a failed structure theorem.  Without the tower the job runs."""
    if case == "relations":
        job = _tower_of_another_module()
        untowered = dict(job, input={"bk": job["input"]["bk"], "r": 1})
        report, code = run_job(untowered)
        assert code == 0 and report["verdicts"]["elementary"] is False, report.get("error")
    else:
        job = _mutant("bk_structure_tower.json", "/input/tower/bk/phi", [[[3, 0]]])
    report, code = run_job(job)
    assert code == 1 and report["error_kind"] == "schema", report.get("error")
    assert report["error"].startswith("/input/tower/bk:"), report["error"]


def _field_paths(node, pointer):
    """(pointer, value) of every field below node, the first two entries of
    each list included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, value in items:
        yield f"{pointer}/{key}", value
        yield from _field_paths(value, f"{pointer}/{key}")


def test_corpus_type_mutants_are_schema_errors():
    """Every input field of every corpus job, set to a value of the wrong
    type, yields a report without an internal error; a float or a boolean in
    an integer field exits 1 as a schema error.  Every schema refusal names
    the location at fault."""
    import contextlib
    import io

    names = sorted(n for n in os.listdir(CORPUS)
                   if n.endswith(".json") and not n.endswith(".report.json"))
    count = 0
    for name in names:
        job = load(name)
        for pointer, old in list(_field_paths(job["input"], "/input")):
            integer = type(old) is int
            for value in ["a", [], {}, None, 2.5] + ([float(old), True] if integer else []):
                with contextlib.redirect_stderr(io.StringIO()):
                    report, code = run_job(_mutant(name, pointer, value))
                count += 1
                where = (name, pointer, value, report.get("error"))
                assert report.get("error_kind") != "internal_error", where
                if report.get("error_kind") == "schema":
                    assert report["error"].startswith("/input"), where
                if integer and type(value) in (float, bool):
                    assert code == 1 and report["error_kind"] == "schema", where
    assert count > 3000


def test_schema_documents_match_the_generator():
    """docs/schemas is what scripts/gen_schemas.py writes, the base-change
    spec lists exactly the kinds the library dispatches on, and the job
    schema exactly the CLI's commands and options."""
    import importlib.util

    from truncalg.schemas import BASE_CHANGE_KINDS

    root = os.path.join(os.path.dirname(__file__), "..")
    spec = importlib.util.spec_from_file_location(
        "gen_schemas", os.path.join(root, "scripts", "gen_schemas.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs_dir = os.path.join(root, "docs", "schemas")
    assert sorted(os.listdir(docs_dir)) == sorted(f"{n}.schema.json" for n, _ in gen.DOCUMENTS)
    for name, doc in gen.DOCUMENTS:
        with open(os.path.join(docs_dir, f"{name}.schema.json")) as fh:
            assert fh.read() == json.dumps(doc, indent=2, sort_keys=True) + "\n", name
    docs = dict(gen.DOCUMENTS)
    assert docs["base_change_spec"]["properties"]["kind"]["enum"] == list(BASE_CHANGE_KINDS)
    job = docs["job"]["properties"]
    assert job["command"]["enum"] == list(COMMANDS)
    assert job["options"]["properties"] == {"oracle": {"type": "boolean"}}
    assert job["options"]["additionalProperties"] is False
