"""A fixed speed probe: how fast this machine runs Python code right now.

On a shared machine the CPU time of the same job drifts by up to twofold
(the neighbours' load on caches and memory shows as CPU time, not as wall
time or steal), in phases from under a second to about a minute.  The timed
passes run `probe()` between every two jobs; a job's CPU is scaled by
PROBE_REF_S over the median of the probes around it, which gives CPU seconds
at the speed the probe ran at when the benchmark was defined.  The
probe is benchmark code and never calls the program, so a change to the
program moves the job's CPU and not the probe's.

The probe does what the program's inner loops do: exact arithmetic on small
Python objects.  It eliminates a fixed 7 x 7 matrix of Fractions, about 0.55 ms
in a fast phase.  In paired runs, where this probe and one that walks a
shuffled table of a few MB ran between the same jobs, eight seeds gave
quartile spreads (IQR over median) of 0.054, 0.029 and 0.035 for
tower_check's job_cpu_s.p50, job_cpu_s.tail and jobs_per_cpu_s scaled by
this probe, against 0.134, 0.087 and 0.062 scaled by the table walk, and on
lambda_cw 0.068, 0.019 and 0.027 against 0.139, 0.059 and 0.068.
"""

import gc
import statistics
import time
from fractions import Fraction

# probe CPU seconds in the machine's fast phase when the benchmark was defined
# (README, "Environment and noise"): the unit the scaled CPU is given in
PROBE_REF_S = 0.00055
# probes on either side of a job that its scaling takes the median of
WINDOW = 3

_N = 7


def _routine():
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N)]
         for i in range(_N)]
    for c in range(_N):
        pivot = next((r for r in range(c, _N) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(c + 1, _N):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def probe():
    """CPU seconds of one run of the fixed probe routine."""
    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the machine
    try:
        # an untimed run first, so the timed one does not depend on what the
        # job before it left in the caches
        _routine()
        t0 = time.process_time()
        _routine()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def job_speeds(probes):
    """Probe time to scale each job of a pass by, from the pass's probe times
    (one before each job, one after the last): the median of the WINDOW
    probes on either side of the job.  One probe's noise is then spread
    over a few jobs, while the speed stays the one around the job."""
    return [statistics.median(probes[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
            for k in range(len(probes) - 1)]


def scale(cpu, probe_s):
    """`cpu` seconds at the probe's reference speed, from the probe's time
    around them."""
    return cpu * PROBE_REF_S / probe_s
