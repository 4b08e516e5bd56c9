import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_reach_scan_on_one_job(tmp_path):
    """scripts/reach.py on the one corpus job snf_2468 (over Z/2^6) lists
    the Z[1/S] and F_p[z]/z^M SNF kernels as not entered, not the Z/p^N
    one, and ends with its summary line."""
    shutil.copy(os.path.join(ROOT, "corpus", "snf_2468.json"), tmp_path)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "reach.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    missed = {line.split()[-1] for line in lines[:-1]}
    assert {"_snf_localized", "_snf_chain", "decompose_over_s"} <= missed
    assert not {"_snf_padic", "smith_normal_form", "run_job"} & missed
    assert lines[-1].endswith("functions in src/truncalg entered (1 job files)")
