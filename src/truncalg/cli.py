"""Batch front end: input parsing, command dispatch, report emission.

Exit codes: 0 completed, 2 hypothesis gate unmet, 3 precision-limited,
4 internal inconsistency (a checked theorem came out false -- a bug or a
precision artifact, never a mathematical discovery claim) or internal error
(any other exception, reported with its type).  Input and schema problems
exit 1 at a JSON-pointer location, nearly all while the input is parsed;
`cw.skeletal_verification` refuses a disconnected complex.

Reports are byte-deterministic for fixed input and version: keys are sorted
and the timing field stays null unless --timing is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
import traceback

from . import VERSION_STAMP
from . import modules as mods
from .errors import (
    InternalInconsistencyError,
    SchemaError,
    TruncalgError,
    UnsupportedRingError,
)
from .linalg import smith_normal_form
from .schemas import (
    _want,
    jsonable,
    module_to_json,
    parse_base_change_spec,
    parse_bk_module,
    parse_cw,
    parse_filtered_complex,
    parse_map,
    parse_matrix,
    parse_module,
    parse_primes,
    parse_ring,
    parse_ses,
    parse_tower,
)

# one run(input, options) per command, returning its payload (run_job fills in
# empty witnesses and ledgers); each imports only the modules it uses
def _snf(input_data, options):
    ring = parse_ring(_want(input_data, "ring", "/input"), "/input/ring")
    rows = _want(input_data, "matrix", "/input", list)
    if rows and not isinstance(rows[0], list):
        raise SchemaError("row 0 must be an array", "/input/matrix/0")
    cols = (len(rows[0]) if rows else
            _want(input_data, "cols", "/input", int) if "cols" in input_data else 0)
    if cols < 0:
        raise SchemaError("field 'cols' must be >= 0", "/input/cols")
    mat = parse_matrix(rows, ring, cols, "/input/matrix")
    res = smith_normal_form(mat, ring)
    if not res.verify(mat, ring):
        raise InternalInconsistencyError("SNF witnesses failed to verify")
    return {"verdicts": {"divisors": jsonable(res.divisors)},
            "witnesses": {"left": jsonable(res.left), "right": jsonable(res.right)}}


def _decompose(input_data, options):
    m = parse_module(_want(input_data, "module", "/input"), "/input/module")
    dec = mods.decompose(m)
    if isinstance(dec, mods.NotElementary):
        return {"verdicts": {"elementary": False, "failing_gr_slice": dec.failing_j},
                "witnesses": {"certificate": jsonable(dec.certificate)}}
    return {"verdicts": {"elementary": True, "free_rank": dec.free_rank,
                         "torsion_divisors": jsonable(dec.torsion_divisors)},
            "witnesses": {"to_canonical": jsonable(dec.to_canonical.matrix),
                          "from_canonical": jsonable(dec.from_canonical.matrix),
                          "witness_verified": dec.verify()}}


def _ext1(input_data, options):
    from . import ext as extm

    c = parse_module(_want(input_data, "c", "/input"), "/input/c")
    a = parse_module(_want(input_data, "a", "/input"), "/input/a", ring=c.ring)
    cexp, cfree = extm._elementary_exponents(c)
    e = extm._ext1_of_exponents(cexp, a)
    exps, free = extm._elementary_exponents(e)
    payload = {"verdicts": {"torsion_exponents": exps, "free_rank": free},
               "witnesses": {"module": module_to_json(e)}}
    if options.get("oracle"):
        aexp, afree = extm._elementary_exponents(a)
        if len(cexp) == 1 and len(aexp) == 1 and not cfree and not afree:
            orc = extm.ext1_cocycle_oracle(cexp[0], aexp[0], c.ring)
            agree = orc.abelian_exponent_multiset == sorted(exps * c.ring.mlen)
            payload["verdicts"]["oracle_agrees"] = bool(agree and orc.split_set_is_coboundaries)
            payload["witnesses"]["oracle"] = jsonable(orc)
    return payload


def _split(input_data, options):
    v = mods.split_test(parse_ses(_want(input_data, "ses", "/input"), "/input/ses"))
    return {"verdicts": {"split": v.split},
            "witnesses": ({"section": jsonable(v.section.matrix)} if v.split
                          else {"obstruction": jsonable(v.obstruction)})}


def _complex(input_data):
    return parse_filtered_complex(_want(input_data, "complex", "/input"), "/input/complex")


def _ss_report(input_data, options):
    from . import spectral as spec

    x = _complex(input_data)
    rep = spec.degeneration_report(x)
    payload = report_payload(rep)
    if options.get("oracle"):
        try:
            orc = spec.oracle(x)
        except UnsupportedRingError as exc:
            payload["verdicts"]["oracle"] = f"skipped: {exc}"
        else:
            if any(orc[k] != payload["verdicts"][k] for k in orc):
                raise InternalInconsistencyError("oracle disagrees with the checker")
            payload["verdicts"]["oracle_agrees"] = True
    if rep.precision_limited:
        payload["exit_code_override"] = 3
    return payload


def _oracle(input_data, options):
    from . import spectral as spec

    return {"verdicts": jsonable(spec.oracle(_complex(input_data)))}


def _ss_basechange(input_data, options):
    from . import spectral as spec

    x = _complex(input_data)
    kind, ell = parse_base_change_spec(_want(input_data, "spec", "/input", dict),
                                       "/input/spec", x.ring)
    rep, descent = spec.base_change_report(x, kind, ell)
    if isinstance(rep, spec.TensoredReport):
        payload = {"verdicts": {"degenerate_after_tensoring": rep.degenerate,
                                "split_after_tensoring": rep.split,
                                "sscritflat_checked": rep.sscritflat_checked},
                   "witnesses": {"per_entry": jsonable(
                       {f"{i},{n}": v for (i, n), v in rep.per_entry.items()})},
                   "ledgers": {"tensored_h_profiles": jsonable(rep.h_profiles),
                               "tensored_e1_profiles": jsonable(rep.e1_profiles)}}
    else:
        payload = report_payload(rep)
    payload["verdicts"]["descent"] = jsonable(descent)
    return payload


def _bk_height(input_data, options):
    from . import breuil_kisin as bkm

    b = parse_bk_module(_want(input_data, "bk", "/input"), "/input/bk")
    s, r = _want(input_data, "s", "/input", int), _want(input_data, "r", "/input", int)
    trail = [f"frobenius trusted z-precision: {b.ring.frobenius_trusted_precision}"]
    cert = bkm.check_height(b, s, r)
    if isinstance(cert, bkm.HeightFailure):
        return {"verdicts": {"height_in_window": False, "failed_side": cert.side},
                "witnesses": {"failures": jsonable(cert.failures)}, "precision_trail": trail}
    return {"verdicts": {"height_in_window": True},
            "witnesses": {"upper": jsonable(cert.upper), "lower": jsonable(cert.lower)},
            "precision_trail": trail}


def _bk_structure(input_data, options):
    from . import breuil_kisin as bkm

    b = parse_bk_module(_want(input_data, "bk", "/input"), "/input/bk")
    r = _want(input_data, "r", "/input", int) if "r" in input_data else b.height_window[1]
    tower = (parse_tower(input_data["tower"], "/input/tower")
             if input_data.get("tower") is not None else None)
    if tower is not None and tower.bk.phi != b.phi:  # equal maps have equal targets
        raise SchemaError("the tower certifies another module than bk", "/input/tower/bk")
    res = bkm.structure_check(b, r, tower=tower)
    verdicts = {"hypothesis_met": res.hypothesis_met,
                "elementary": res.elementary is not None,
                "gr_ranks": res.gr_ranks}
    witnesses = {"notes": res.notes}
    if res.elementary is not None:
        verdicts["free_rank"] = res.elementary.free_rank
        verdicts["torsion_exponents"] = res.elementary.divisors.exponents()
    else:
        witnesses["counterexample"] = jsonable(res.counterexample.certificate)
        verdicts["failing_gr_slice"] = res.counterexample.failing_j
    return {"verdicts": verdicts, "witnesses": witnesses,
            "hypothesis_flag": not res.hypothesis_met}


def _cw_ktheory(input_data, options):
    from . import cw as cwm

    k = cwm.ktheory(parse_cw(_want(input_data, "cw", "/input"), "/input/cw"))
    return {"verdicts": {
                "dimension": k.d, "denominator_index": k.m_index,
                "denominator_factorial": k.m_factorial,
                "inverted_primes": list(k.inverted),
                "k0": {"rank": k.k0.rank, "torsion": list(k.k0.torsion_divisors)},
                "k1": {"rank": k.k1.rank, "torsion": list(k.k1.torsion_divisors)}},
            "witnesses": {"even_odd_identity": True},
            "ledgers": {"reduced_cohomology": {
                str(j): {"rank": g.rank, "torsion": list(g.torsion_divisors)}
                for j, g in k.groups.items()}}}


def _cw_verify(input_data, options):
    from . import cw as cwm

    x = parse_cw(_want(input_data, "cw", "/input"), "/input/cw")
    trace = cwm.skeletal_verification(x, "/input/cw")
    return {"verdicts": {"all_nodes_exact": all(n["exact"] for step in trace
                                                for n in step["nodes"]),
                         "steps": len(trace)},
            "witnesses": {"trace": jsonable(trace)}}


def _lambda_survey(input_data, options):
    from . import local_global as lgm

    ses = parse_ses(_want(input_data, "ses", "/input"), "/input/ses")
    primes = input_data.get("primes")
    if primes is not None:
        primes = parse_primes(primes, "/input/primes")
    survey = lgm.local_split_survey(ses, primes=primes)
    witnesses = {}
    # the lemma both ways: with every certified prime split locally, a global
    # failure is raised as an inconsistency (exit 4), never reported
    if survey.covered and all(survey.verdicts.get(q, True) for q in survey.obstruction_primes):
        witnesses["global_section"] = jsonable(lgm.global_split_conclude(ses, survey).matrix)
    return {"verdicts": {"per_prime": {str(k): v for k, v in survey.verdicts.items()},
                         "globally_split": survey.globally_split,
                         "obstruction_primes": survey.obstruction_primes,
                         "covered": survey.covered},
            "witnesses": witnesses}


def _lambda_zero(input_data, options):
    from . import local_global as lgm

    rep = lgm.zero_local_global(parse_map(_want(input_data, "map", "/input"), "/input/map"))
    return {"verdicts": {"is_zero": rep.direct_zero,
                         "witness_prime": rep.witness_prime,
                         "support_everywhere": rep.support_everywhere,
                         "agreement": rep.agreement},
            "witnesses": {"certified_primes": rep.certified_primes,
                          "per_prime_zero": {str(k): v for k, v in rep.local_zero.items()}}}


# the commands, in the order --help lists them
COMMANDS = {"snf": _snf, "decompose": _decompose, "ext1": _ext1, "split": _split,
            "ss-report": _ss_report, "ss-basechange": _ss_basechange,
            "bk-height": _bk_height, "bk-structure": _bk_structure,
            "cw-ktheory": _cw_ktheory, "cw-verify": _cw_verify,
            "lambda-survey": _lambda_survey, "lambda-zero": _lambda_zero, "oracle": _oracle}


def report_payload(rep):
    return {"verdicts": {"rationally_degenerate": rep.rationally_degenerate,
                         "degenerate": rep.degenerate,
                         "saturated": rep.saturated,
                         "split": rep.split,
                         "sscrit_applicable": rep.sscrit_applicable,
                         "precision_limited": rep.precision_limited},
            "witnesses": jsonable(rep.witnesses),
            "ledgers": {"torsion_lengths": {
                str(i): {"homology": lt, "graded": per}
                for i, (lt, per) in sorted(rep.length_ledger.items())},
                "homology_profiles": {str(i): list(v)
                                      for i, v in sorted(rep.h_torsion_profiles.items())},
                "e1_profiles": {str(i): list(v)
                                for i, v in sorted(rep.e1_torsion_profiles.items())}},
            "notes": rep.notes}


ERROR_KINDS = {1: "schema", 2: "hypothesis_gate", 3: "precision_limited",
               4: "internal_inconsistency"}


def _failure(exc):
    """(payload, exit code) for the exception that ended a job."""
    if isinstance(exc, TruncalgError):
        return {"error": str(exc), "error_kind": ERROR_KINDS[exc.exit_code]}, exc.exit_code
    # a bug, not a verdict: report it so a batch still records every job
    traceback.print_exception(exc)
    return {"error": f"{type(exc).__name__}: {exc}", "error_kind": "internal_error"}, 4


def _report(job, payload, exit_code, hypothesis_flag=False, timing_ms=None):
    report = {
        "version": VERSION_STAMP,
        "command": job.get("command") if isinstance(job, dict) else None,
        "job": job,
        "exit_code": exit_code,
        "hypothesis_flag": hypothesis_flag,
        "timing_ms": timing_ms,
    }
    report.update({k: payload[k] for k in ("verdicts", "witnesses", "ledgers", "notes",
                                           "error", "error_kind") if k in payload})
    report["precision_trail"] = payload.get("precision_trail", [])
    return report


def run_job(job, timing=False):
    """Execute one job (a parsed JSON document); returns (report dict, exit code)."""
    started = time.time()
    hypothesis_flag = False
    try:
        if not isinstance(job, dict):
            raise SchemaError("a job must be a JSON object")
        command = job.get("command")
        if not isinstance(command, str) or command not in COMMANDS:
            raise SchemaError(f"unknown command '{command}'", "/command")
        options = _parse_options(job)
        payload = {"witnesses": {}, "ledgers": {},
                   **COMMANDS[command](job.get("input", {}), options)}
        hypothesis_flag = payload.pop("hypothesis_flag", False)
        exit_code = payload.pop("exit_code_override", 0)
    except Exception as exc:
        payload, exit_code = _failure(exc)
    elapsed_ms = int((time.time() - started) * 1000)
    report = _report(job, payload, exit_code, hypothesis_flag,
                     elapsed_ms if timing else None)
    return report, exit_code


def _parse_options(job):
    """The job's options: at most `oracle`, a boolean.  A missing or null
    `options` is no options; any other value that is not an object is
    refused."""
    options = job.get("options")
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise SchemaError("options must be an object", "/options")
    for key, value in options.items():
        if key != "oracle":
            raise SchemaError(f"unknown option '{key}': the only option is 'oracle'",
                              f"/options/{key}")
        if not isinstance(value, bool):
            raise SchemaError("field 'oracle' must be a boolean", "/options/oracle")
    return options


def emit(report, fmt="json"):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    lines = [f"truncalg report ({report['version']})",
             f"command: {report['command']}  exit: {report['exit_code']}"]
    if report.get("error"):
        lines.append(f"error [{report['error_kind']}]: {report['error']}")
    verdicts = report.get("verdicts") or {}
    for k, v in sorted(verdicts.items()):
        lines.append(f"  {k}: {v}")
    ledgers = report.get("ledgers") or {}
    tl = ledgers.get("torsion_lengths")
    if tl:
        lines.append("  torsion-length ledger:")
        lines.append("    degree | len(H_tors) | per-weight graded lengths")
        for i, row in sorted(tl.items(), key=lambda kv: int(kv[0])):
            lines.append(f"    {i:>6} | {row['homology']:>11} | {row['graded']}")
    if report.get("timing_ms") is not None:
        lines.append(f"  wall time: {report['timing_ms']} ms")
    return "\n".join(lines) + "\n"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".truncalg-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every input error does; 2 means an unmet
    hypothesis gate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    ap = _Parser(
        prog="truncalg",
        description="exact desk-scale algebra over truncated local rings")
    ap.add_argument("command", nargs="?", choices=COMMANDS,
                    help="command to run (omit with --corpus-dir)")
    ap.add_argument("--input", help="path to a JSON input document")
    ap.add_argument("--output", help="path to write the report (default stdout)")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--oracle", action="store_true",
                    help="run the element-level oracle when in bounds")
    ap.add_argument("--corpus-dir", help="process every .json job in a directory")
    ap.add_argument("--timing", action="store_true",
                    help="include wall time in the JSON report (breaks byte stability)")
    args = ap.parse_args(argv)

    if args.corpus_dir:
        names = sorted(p for p in os.listdir(args.corpus_dir)
                       if p.endswith(".json") and not p.endswith(".report.json"))
        worst = 0
        for name in names:
            full = os.path.join(args.corpus_dir, name)
            text, code = _run_file(full, None, args, "json")
            _atomic_write(full[:-5] + ".report.json", text)
            print(f"{name}: exit {code}")
            worst = max(worst, code)
        return worst

    if not args.command:
        ap.error("a command or --corpus-dir is required")
    text, code = _run_file(args.input, args.command, args, args.format)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)
    return code


def _run_file(path, command, args, fmt):
    """load -> run_job -> emit for one job file (stdin when path is None);
    returns (report text, exit code).  Every failure, an unreadable file and a
    report that cannot be printed included, ends as a report.

    With a command (single mode) a document without "command" is that
    command's input; in batch mode each file is a whole job."""
    try:
        if path is None:
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as exc:
        payload, code = _failure(SchemaError(f"unreadable job: {type(exc).__name__}: {exc}"))
        report = _report(None, payload, code, timing_ms=0 if args.timing else None)
    else:
        report, code = run_job(_merge_cli_options(_as_job(doc, command), args),
                               timing=args.timing)
    try:
        return emit(report, fmt), code
    except Exception as exc:
        payload, code = _failure(exc)
        return emit(_report(report["job"], payload, code,
                            timing_ms=report["timing_ms"]), fmt), code


def _as_job(doc, command):
    if command is None:
        return doc
    if isinstance(doc, dict) and "command" in doc:
        if doc.get("command") != command:
            print(f"warning: job file command {doc.get('command')!r} "
                  f"overridden by CLI {command!r}", file=sys.stderr)
            return dict(doc, command=command)
        return doc
    return {"command": command, "input": doc, "options": {}}


def _merge_cli_options(job, args):
    """The job with the CLI's --oracle flag merged in; a job or an options
    value of the wrong type is left for run_job to report."""
    if not isinstance(job, dict):
        return job
    options = {} if job.get("options") is None else job["options"]
    if not isinstance(options, dict):
        return job
    options = dict(options)
    if args.oracle:
        options["oracle"] = True
    return dict(job, options=options)


if __name__ == "__main__":
    sys.exit(main())
