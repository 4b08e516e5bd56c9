#!/usr/bin/env python3
"""Reach scan: which `src/truncalg` functions does no command enter?

Runs every job of the given directories (default: `corpus/` and
`tests/golden/`) through `cli.run_job` under a `sys.settrace` tracer that
records each function call into `src/truncalg`, then prints every function
and method defined there (nested ones included) that no job entered, as
`file:line qualified.name`, and a summary line.  A function listed here is
reached, if at all, only by tests or the benchmark: a candidate to delete or
to freeze with a golden report.  Standard library only.

    python3 scripts/reach.py                 # corpus/ and tests/golden/
    python3 scripts/reach.py DIR ...         # the jobs of these directories
"""

from __future__ import annotations

import ast
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "truncalg")


def defined_functions():
    """{(path, first line): qualified name} of every def in src/truncalg.
    The first line is the code object's: the first decorator's, if any."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        out[(path, first)] = qual
                    walk(child, qual + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def job_paths(folders):
    for folder in folders:
        for name in sorted(os.listdir(folder)):
            if name.endswith(".json") and not name.endswith(".report.json"):
                yield os.path.join(folder, name)


def scan(folders):
    """(entered (path, first line) keys, number of jobs run)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from truncalg.cli import run_job

    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(SRC):
            entered.add((code.co_filename, code.co_firstlineno))
        return None

    count = 0
    for path in job_paths(folders):
        with open(path, encoding="utf-8") as fh:
            job = json.load(fh)
        sys.settrace(tracer)
        try:
            run_job(job)
        finally:
            sys.settrace(None)
        count += 1
    return entered, count


def main(argv):
    folders = argv or [os.path.join(ROOT, "corpus"), os.path.join(ROOT, "tests", "golden")]
    functions = defined_functions()
    entered, jobs = scan(folders)
    missed = sorted(key for key in functions if key not in entered)
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line} {functions[(path, line)]}")
    print(f"{len(functions) - len(missed)} of {len(functions)} functions in src/truncalg "
          f"entered ({jobs} job files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
