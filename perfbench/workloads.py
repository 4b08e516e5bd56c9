"""The four benchmark workloads: seeded input generation, one job, its check.

Each workload object has
  cycle                -> the list of job shapes one cycle runs through,
  generate(rng, count) -> `count` jobs, shapes taken from the cycle in turn,
  run(job)             -> the program's output for one job,
  check(job, out)      -> None, or a one-line reason the output is wrong.
A job is a (job_id, payload) pair; `payload` is what `digest_of` serializes.
Shapes are cycled so that every run of whole cycles has the same mix of
shapes whatever the seed; the seed draws the entries.

The in-process workloads hand the library only generated inputs; the seed
never reaches it.  `cli_corpus` runs the golden corpus through the real
command line, one child process per job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# Input digests


def canonical(x):
    """A JSON-able canonical form of a generated input.

    Dataclass fields marked compare=False (solver certificates) are left out:
    the digest covers what equality of the inputs sees."""
    from truncalg.linalg import Mat

    if isinstance(x, Mat):
        return ["Mat", x.rows, x.cols, canonical(x.data)]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__] + [
            [f.name, canonical(getattr(x, f.name))]
            for f in dataclasses.fields(x) if f.compare]
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return ["dict"] + sorted([canonical(k), canonical(v)] for k, v in x.items())
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest_of(jobs):
    h = hashlib.sha256()
    for job_id, payload in jobs:
        h.update(json.dumps([job_id, canonical(payload)], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tower_check: solver-bound (BK restriction of scalars onto Z/p^N SNF)


def build_tower(p, layers, rng):
    """A bar-tower grown with bkrandom's own steps, as `random_tower` grows
    one, but with the layer ranks fixed: `layers` lists the rank of each
    p-killed layer bottom-up, 0 standing for a free layer.  Every extension is
    scrambled (`random_tower` scrambles seven in ten), so that whether a
    tower is scrambled is part of its shape, not of the seed."""
    from truncalg.bkrandom import (extend_by_free, extend_by_mod_s1,
                                   random_free_leaf, random_mod_s1_leaf, scramble_node)
    from truncalg.rings import TruncatedBK

    ring = TruncatedBK(p, 2, p + 1)

    def s1_leaf(rank):
        while True:
            leaf = random_mod_s1_leaf(ring, rng, max_rank=rank, r=1)
            if leaf.bk.module.gens == rank:
                return leaf

    node = s1_leaf(layers[0])
    for rank in layers[1:]:
        if rank == 0:
            node = extend_by_free(node, random_free_leaf(ring, rng, r=1), rng)
        else:
            node = extend_by_mod_s1(node, s1_leaf(rank), rng)
        node = scramble_node(node, rng)
    return node


class TowerCheck:
    name = "tower_check"
    # (p, layer ranks) cycled, so every pool has the same shape mix: depth
    # 1-3 at e = 1, r = 1 as in acceptance criterion 5.  The module's
    # generator count sets most of a tower's cost; the mid-cost shape with
    # the narrowest cost appears four times, so the median falls inside one
    # shape's samples, and the heaviest shape three times, so that in a
    # three-cycle pool (48 towers) the tail, the 38th, falls inside the five
    # heavy entries' samples.
    # A p-killed layer only ever extends a p-killed base: on a base that p
    # does not kill, extend_by_mod_s1 can return a tower whose inclusion is
    # not injective (verify_tower rightly rejects it), so free layers come last.
    cycle = [(3, [1]), (5, [1]), (3, [2]), (3, [1, 1]), (5, [1, 0]), (3, [2, 0]),
             (3, [1, 2]), (3, [1, 2]), (3, [1, 2]), (3, [1, 2]),
             (5, [1, 1]), (5, [1, 1, 0]), (3, [2, 1, 0]), (3, [2, 2]), (3, [2, 2]),
             (3, [2, 2])]

    def generate(self, rng, count):
        return [(f"tower-{k}", build_tower(*self.cycle[k % len(self.cycle)], rng))
                for k in range(count)]

    def run(self, job):
        from truncalg.breuil_kisin import structure_check, verify_tower

        tower = job[1]
        ok, why = verify_tower(tower, 1, bar=True)
        if not ok:
            return ("invalid", why)
        res = structure_check(tower.bk, 1, tower=tower)
        if res.elementary is None:
            return ("not_elementary", res.gr_ranks)
        exps = sorted(tower.bk.ring.p_valuation(d) for d in res.elementary.torsion_divisors)
        return ("elementary", res.gr_ranks, exps, res.elementary.free_rank)

    def check(self, job, out):
        if out[0] != "elementary":
            return f"{job[0]}: {out[0]} {out[1]}"
        _, ranks, exps, free = out
        want = []
        for j in range(1, len(ranks)):
            want.extend([j] * (ranks[j - 1] - ranks[j]))
        if exps != sorted(want) or free != ranks[-1]:
            return f"{job[0]}: exponents {exps} free {free} vs gr ranks {ranks}"
        return None


# ---------------------------------------------------------------------------
# oracle_fuzz: oracle-bound (element enumeration), small solver share


def random_filtered_complex(ring, rng, types, weights, row_counts):
    """A random valid two-term filtered complex C_1 -> C_0, or None when the
    random differential fails to be well defined.

    types = (exponents of C_0, exponents of C_1): C_i is isomorphic to the
    sum of R/p^a over its exponents (a = N is a free summand), presented
    through a random change of basis, so the module sizes -- which set the
    oracle's cost -- are fixed by the shape while every entry is random.
    Filtrations are random submodules built compatibly: fil of the target
    absorbs the differential images.  fil^w C_i is spanned by
    row_counts[(i, w)] random combinations of the rows of fil^(w-1) C_i, plus
    the images from C_(i+1).  After the module sizes, the row counts set most
    of the oracle's cost (one to seven rows in all moved a complex's cost
    fourfold), so the caller fixes them rather than the seed."""
    from truncalg.errors import SchemaError
    from truncalg.linalg import Mat
    from truncalg.modules import PresentedModule, module_map, submodule_from_rows
    from truncalg.spectral import validate

    p, n = ring.p, ring.precision_n

    def rand_elt():
        return ring.from_int(rng.randint(0, ring.modulus - 1))

    def rand_unit():
        return ring.from_int(rng.choice([u for u in range(1, ring.modulus) if u % p]))

    def rand_mod(exps):
        g = len(exps)
        rows = [[ring.from_int(p ** a) if j == i else ring.zero for j in range(g)]
                for i, a in enumerate(exps) if a < n]
        # change of basis W = L.U, unit triangular factors, so W is invertible
        lower = [[rand_elt() if j < i else (ring.one if j == i else ring.zero)
                  for j in range(g)] for i in range(g)]
        upper = [[rand_elt() if j > i else (rand_unit() if j == i else ring.zero)
                  for j in range(g)] for i in range(g)]
        w = Mat(g, g, lower).mul(Mat(g, g, upper), ring)
        rel = Mat(len(rows), g, rows).mul(w, ring) if rows else Mat(0, g, [])
        return PresentedModule(ring, g, rel)

    degrees = 2
    mods = {i: rand_mod(types[i]) for i in range(degrees)}
    dmats = {}
    for i in range(1, degrees):
        for _ in range(60):
            d = Mat(mods[i].gens, mods[i - 1].gens,
                    [[rand_elt() for _ in range(mods[i - 1].gens)]
                     for _ in range(mods[i].gens)])
            try:
                module_map(mods[i], mods[i - 1], d)
            except Exception:
                continue
            dmats[i] = d
            break
        else:
            return None

    fil = {}
    prev_rows = {i: Mat.identity(mods[i].gens, ring).tolist() for i in range(degrees)}
    for w in range(1, weights):
        new_rows = {}
        for i in range(degrees - 1, -1, -1):
            rows = []
            for _ in range(row_counts[(i, w)]):
                c = [rand_elt() for _ in range(len(prev_rows[i]))]
                rows.append([ring.sum(ring.mul(ci, prev_rows[i][k][j])
                                      for k, ci in enumerate(c))
                             for j in range(mods[i].gens)])
            if i + 1 in dmats and new_rows.get(i + 1):
                pushed = Mat(len(new_rows[i + 1]), mods[i + 1].gens,
                             new_rows[i + 1]).mul(dmats[i + 1], ring)
                rows.extend(pushed.tolist())
            new_rows[i] = rows
            sub, incl = submodule_from_rows(mods[i], Mat(len(rows), mods[i].gens, rows))
            fil[(i, w)] = (sub, incl.matrix)
        prev_rows = new_rows
    try:
        return validate(ring, 0, degrees - 1, 0, weights - 1, mods, dmats, fil)
    except SchemaError:
        return None


class OracleFuzz:
    name = "oracle_fuzz"
    # (p, weights, (exponents of C_0, exponents of C_1)) over Z/p^2, cycled:
    # criterion 3's shapes, at most two generators and two or three weights.
    # Z/9 + Z/9 (81 elements) is left out: it alone costs the oracle ~5 s.
    cycle = [(p, w, t) for p in (2, 3) for w in (2, 3)
             for t in (((2,), (2,)), ((1,), (1, 2)), ((1, 2), (1,)), ((1, 1), (2,)),
                       ((2,), (1, 1)), ((), (1, 2)), ((1, 2), ()), ((1, 1), (1, 1)))]

    def generate(self, rng, count):
        from truncalg.rings import TruncatedPadic

        rings = {p: TruncatedPadic(p, 2) for p in (2, 3)}
        jobs = []
        for k in range(count):
            p, weights, types = self.cycle[k % len(self.cycle)]
            # 0, 1 or 2 new rows per filtration step, fixed by the job's place
            # in the pool (the cycle's 32 entries run through all three)
            counts = {(i, w): (k + i + 2 * w) % 3 for i in (0, 1) for w in range(1, weights)}
            x = None
            while x is None:
                x = random_filtered_complex(rings[p], rng, types, weights, counts)
            jobs.append((f"complex-{k}", x))
        return jobs

    def run(self, job):
        from truncalg.spectral import degeneration_report, oracle

        x = job[1]
        rep = degeneration_report(x)
        got = {"rationally_degenerate": rep.rationally_degenerate,
               "degenerate": rep.degenerate, "saturated": rep.saturated,
               "split": rep.split}
        return got, oracle(x)

    def check(self, job, out):
        got, want = out
        if got != want:
            return f"{job[0]}: checker {got} oracle {want}"
        return None


# ---------------------------------------------------------------------------
# lambda_cw: the Z[1/S] route (Fraction SNF, support primes) plus CW K-theory


def _lambda_map(lam, rng, gens, want_zero, d):
    """A map Lambda^gens -> Lambda/(d) whose zero-ness is known by
    construction: a zero map sends every generator into (d), a nonzero one
    sends some generator to 1.  The target stays cyclic and d is part of the
    shape: a second target generator, or a second prime in d (one more
    completion to test), changes a map's cost by up to twofold."""
    from truncalg.linalg import Mat
    from truncalg.modules import PresentedModule, module_map

    def rand_elt(choices):
        return lam.from_coeffs([rng.choice(choices) for _ in range(lam.mlen)])

    d = lam.from_int(d)
    tgt = PresentedModule.cyclic(lam, d)
    src = PresentedModule.free(lam, gens)
    if want_zero:
        rows = [[lam.mul(rand_elt([0, 1, 2, -1]), d)] for _ in range(gens)]
    else:
        rows = [[rand_elt([0, 1, 2, 4, -1])] for _ in range(gens)]
        rows[rng.randrange(gens)][0] = lam.one
    return module_map(src, tgt, Mat(gens, 1, rows))


def _scrambled_split_ses(lam, rng, styles):
    """A split SES A -> A + C -> C over Lambda hidden by an invertible
    generator change; styles name A and C: "int" (Lambda/n, n in {3, 5, 9}),
    "free" (Lambda) or "qtors" (Lambda/(q-1))."""
    from truncalg.linalg import Mat, invert
    from truncalg.local_global import make_lambda_ses
    from truncalg.modules import PresentedModule, direct_sum

    def piece(style):
        if style == "free":
            return PresentedModule.free(lam, 1)
        if style == "int":
            return PresentedModule.cyclic(lam, lam.from_int(rng.choice([3, 5, 9])))
        return PresentedModule.cyclic(lam, lam.q_minus_one())

    a, c = piece(styles[0]), piece(styles[1])
    ds = direct_sum([a, c])
    while True:
        w = Mat(2, 2, [[lam.from_coeffs([rng.randint(-3, 3) for _ in range(lam.mlen)])
                        for _ in range(2)] for _ in range(2)])
        winv = invert(w, lam)
        if winv is not None:
            break
    mid = PresentedModule(lam, 2, ds.relations.mul(winv, lam))
    inj = Mat(1, 2, [[lam.one, lam.zero]]).mul(winv, lam)
    sur = w.mul(Mat(2, 1, [[lam.zero], [lam.one]]), lam)
    return make_lambda_ses(a, mid, c, inj, sur)


# pieces of a CW wedge: (name, {degree: (free rank, torsion orders)}), reduced
_CW_PIECES = {
    "S1": {1: (1, ())}, "S2": {2: (1, ())}, "S3": {3: (1, ())},
    "RP2": {2: (0, (2,))}, "CP2": {2: (1, ()), 4: (1, ())},
}


def _cw_piece(name, susp):
    from truncalg.cw import make_cw, sphere, suspension

    if name == "RP2":
        x = make_cw([1, 1, 1], [[[0]], [[2]]])
    elif name == "CP2":
        x = make_cw([1, 0, 1, 0, 1], [[], [[]], [], [[]]])
    else:
        x = sphere(int(name[1:]))
    for _ in range(susp):
        x = suspension(x)
    return x


def _cw_expected(parts):
    """Reduced K^0/K^1 of a wedge of suspended pieces, read off the known
    reduced cohomology: degrees shift by the suspension count, torsion at
    primes the theorem inverts (p <= floor((dim+1)/2)) disappears."""
    dim = max(max(_CW_PIECES[n]) + s for n, s in parts)
    m = (dim + 1) // 2
    rank = [0, 0]
    tors = [[], []]
    for name, susp in parts:
        for deg, (free, orders) in _CW_PIECES[name].items():
            rank[(deg + susp) % 2] += free
            tors[(deg + susp) % 2].extend(q for q in orders if q > m)
    return [(rank[0], sorted(tors[0])), (rank[1], sorted(tors[1]))]


class LambdaCW:
    name = "lambda_cw"
    # One job is one round over the three routes: a Lambda map through
    # zero_local_global, a scrambled split SES over the same ring through
    # survey + conclude, and a wedge of two pieces through K-theory and
    # skeletal verification.  A cycle entry fixes the map's (M, generators,
    # built zero, target order d), the SES piece styles and the wedge's pieces
    # (suspension counts); the seed draws the map and SES entries and the
    # wedge order.
    # A round's cost is set by its map and the shapes' costs lie apart, so
    # their counts place the percentiles of a two-cycle pool (30 rounds):
    # six cheap rounds, then three M = 3 three-generator maps (the median
    # falls inside them), four M = 2 four-generator maps (the tail, the 20th
    # of 30, falls inside them) and the two heavy Z[1/S] maps, which carry
    # most of the CPU.  The minor gcd grows factorially, so five generators
    # occur only at M = 2 (at M = 3 one such map takes 15-20 s).
    cycle = [(2, 3, True, 15, ("int", "free"), [("S1", 0), ("S2", 0)]),
             (2, 2, False, 15, ("free", "qtors"), [("RP2", 0), ("S3", 0)]),
             (2, 3, False, 5, ("qtors", "int"), [("CP2", 0), ("S1", 0)]),
             (2, 3, True, 15, ("free", "int"), [("S2", 1), ("RP2", 0)]),
             (2, 2, False, 15, ("qtors", "free"), [("CP2", 0), ("S3", 0)]),
             (2, 3, False, 5, ("int", "qtors"), [("RP2", 0), ("S1", 1)]),
             (3, 3, False, 3, ("int", "qtors"), [("RP2", 1), ("S2", 0)]),
             (3, 3, False, 3, ("free", "int"), [("S1", 0), ("CP2", 0)]),
             (3, 3, False, 3, ("qtors", "int"), [("S3", 0), ("RP2", 0)]),
             (2, 4, False, 9, ("int", "free"), [("RP2", 0), ("S2", 0)]),
             (2, 4, False, 9, ("int", "free"), [("RP2", 0), ("S2", 0)]),
             (2, 4, False, 9, ("int", "free"), [("RP2", 0), ("S2", 0)]),
             (2, 4, False, 9, ("int", "free"), [("RP2", 0), ("S2", 0)]),
             (3, 4, False, 5, ("free", "int"), [("CP2", 1), ("S1", 1)]),
             (2, 5, False, 15, ("qtors", "free"), [("S3", 1), ("RP2", 0)])]

    def generate(self, rng, count):
        from truncalg.cw import wedge
        from truncalg.rings import TruncatedLambda

        lams = {m: TruncatedLambda((2,), m) for m in (2, 3)}
        jobs = []
        for k in range(count):
            m, gens, zero, d, styles, pieces = self.cycle[k % len(self.cycle)]
            f = _lambda_map(lams[m], rng, gens, zero, d)
            ses = _scrambled_split_ses(lams[m], rng, styles)
            parts = list(pieces)
            rng.shuffle(parts)
            x = wedge(_cw_piece(*parts[0]), _cw_piece(*parts[1]))
            jobs.append((f"round-{k}", {"map": f, "zero": zero, "ses": ses,
                                        "cw": x, "pieces": parts}))
        return jobs

    def run(self, job):
        from truncalg.cw import ktheory, skeletal_verification
        from truncalg.local_global import (global_split_conclude, local_split_survey,
                                           zero_local_global)

        case = job[1]
        rep = zero_local_global(case["map"])
        survey = local_split_survey(case["ses"])
        section = global_split_conclude(case["ses"], survey)
        k = ktheory(case["cw"])
        trace = skeletal_verification(case["cw"])
        return {"map": (rep.agreement, rep.direct_zero, rep.witness_prime),
                "ses": (survey.globally_split, all(survey.verdicts.values()),
                        section is not None),
                "cw": ([(k.k0.rank, sorted(k.k0.torsion_divisors)),
                        (k.k1.rank, sorted(k.k1.torsion_divisors))],
                       all(n["exact"] for step in trace for n in step["nodes"]))}

    def check(self, job, out):
        case = job[1]
        agreement, direct_zero, witness = out["map"]
        if not agreement or direct_zero != case["zero"]:
            return f"{job[0]}: map agreement {agreement} zero {direct_zero}, built zero {case['zero']}"
        if not direct_zero and witness is None:
            return f"{job[0]}: nonzero map without a witness prime"
        if not all(out["ses"]):
            return f"{job[0]}: split SES reported {out['ses']}"
        want = _cw_expected(case["pieces"])
        if out["cw"] != (want, True):
            return f"{job[0]}: K-groups/exactness {out['cw']}, expected {want}"
        return None


# ---------------------------------------------------------------------------
# cli_corpus: the golden corpus through `python -m truncalg.cli`, one child
# process per job, against a private copy of corpus/


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("TRUNCALG_CONFIG", None)
    return env


def run_child(argv, env, cwd):
    """Run one child to completion; (exit code, CPU seconds, max RSS in MB).

    CPU and RSS come from os.wait4 on that child alone; RUSAGE_CHILDREN
    would fold every child into a running total and max."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class CliCorpus:
    name = "cli_corpus"

    def __init__(self, root, workdir):
        self.corpus = os.path.join(root, "corpus")
        self.copy = os.path.join(workdir, "corpus")
        self.out = os.path.join(workdir, "out.report.json")
        self.workdir = workdir
        self.env = child_env(root)
        self.cycle = sorted(n[:-5] for n in os.listdir(self.corpus)
                            if n.endswith(".json") and not n.endswith(".report.json"))
        if not self.cycle:
            raise FileNotFoundError(f"no corpus jobs in {self.corpus}")

    def generate(self, rng, count):
        """Whole passes over the corpus, each in its own seeded order, read
        from a private copy so a run can never touch corpus/."""
        shutil.rmtree(self.copy, ignore_errors=True)
        shutil.copytree(self.corpus, self.copy)
        jobs = []
        order = []
        for k in range(count):
            if not order:
                order = list(self.cycle)
                rng.shuffle(order)
            name = order.pop()
            with open(os.path.join(self.copy, name + ".json"), "rb") as fh:
                job_doc = fh.read()
            with open(os.path.join(self.copy, name + ".report.json"), "rb") as fh:
                golden = fh.read()
            jobs.append((f"{name}#{k}", {
                "name": name, "command": json.loads(job_doc)["command"],
                "job_sha256": hashlib.sha256(job_doc).hexdigest(),
                "report_sha256": hashlib.sha256(golden).hexdigest()}))
        return jobs

    def _argv(self, spec):
        return [spec["command"], "--input", os.path.join(self.copy, spec["name"] + ".json"),
                "--output", self.out]

    def _take_report(self):
        if not os.path.exists(self.out):
            return b""
        with open(self.out, "rb") as fh:
            report = fh.read()
        os.unlink(self.out)
        return report

    def run(self, job):
        """One child `python -m truncalg.cli`: (exit code, CPU s, max RSS MB, report)."""
        code, cpu, rss = run_child([sys.executable, "-m", "truncalg.cli"] + self._argv(job[1]),
                                   self.env, self.workdir)
        return code, cpu, rss, self._take_report()

    def run_in_process(self, job):
        """The same job through `truncalg.cli.main` in this process."""
        from truncalg import cli

        code = cli.main(self._argv(job[1]))
        return code, None, None, self._take_report()

    def check(self, job, out):
        code, report = out[0], out[3]
        with open(os.path.join(self.copy, job[1]["name"] + ".report.json"), "rb") as fh:
            golden = fh.read()
        want_code = json.loads(golden)["exit_code"]
        if code != want_code:
            return f"{job[0]}: exit {code}, golden {want_code}"
        if report != golden:
            return f"{job[0]}: report differs from the golden report"
        return None


def corpus_fingerprint(root):
    """SHA-256 over every file of corpus/, to prove a run left it untouched."""
    h = hashlib.sha256()
    corpus = os.path.join(root, "corpus")
    for name in sorted(os.listdir(corpus)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(corpus, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
