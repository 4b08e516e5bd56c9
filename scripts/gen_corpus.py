#!/usr/bin/env python3
"""Regenerate the shipped job corpus (corpus/*.json) and the golden jobs
that the benchmark does not run (tests/golden/*.json).

Deterministic: file contents depend only on this script.  Regenerate the
reports of either directory with `python3 -m truncalg.cli --corpus-dir DIR`."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "..", "tests", "golden")


def bk_ring(p, n, m):
    return {"family": "TruncatedBK", "p": p, "N": n, "M": m,
            "eisenstein": {"coefficients": [-p, 1], "ramification_e": 1}}


def zp_ring(p, n):
    return {"family": "TruncatedPadic", "p": p, "N": n}


def zl_ring(s):
    return {"family": "LocalizedIntegers", "inverted_primes": s}


def lam_ring(s, m):
    return {"family": "TruncatedLambda", "inverted_primes": s, "M": m}


def vec(m, *coeffs):
    out = list(coeffs) + [0] * (m - len(coeffs))
    return out[:m]


def jobs():
    out = {}

    # golden degeneration trichotomy: Z/p^2 with fil^1 = p Z/p^2, p = 3, N = 4
    zp34 = zp_ring(3, 4)
    out["ss_golden_trichotomy.json"] = {
        "command": "ss-report",
        "input": {"complex": {
            "ring": zp34, "lo": 0, "hi": 0, "wmin": 0, "wmax": 1,
            "modules": [{"generators": 1, "relations": [[9]]}],
            "differentials": [],
            "filtration": [{"degree": 0, "weight": 1,
                            "module": {"generators": 1, "relations": [[3]]},
                            "inclusion": [[3]]}]}},
        "options": {"oracle": True}}

    # direct-sum filtration: split
    out["ss_direct_sum_split.json"] = {
        "command": "ss-report",
        "input": {"complex": {
            "ring": zp34, "lo": 0, "hi": 0, "wmin": 0, "wmax": 1,
            "modules": [{"generators": 2, "relations": [[9, 0], [0, 3]]}],
            "differentials": [],
            "filtration": [{"degree": 0, "weight": 1,
                            "module": {"generators": 1, "relations": [[3]]},
                            "inclusion": [[0, 1]]}]}},
        "options": {}}

    # identity base change of the golden case
    out["ss_basechange_identity.json"] = {
        "command": "ss-basechange",
        "input": {"complex": out["ss_golden_trichotomy.json"]["input"]["complex"],
                  "spec": {"kind": "identity"}},
        "options": {}}

    # SNF golden
    out["snf_2468.json"] = {
        "command": "snf",
        "input": {"ring": zp_ring(2, 6), "matrix": [[2, 4], [6, 8]]},
        "options": {}}

    # ext1 golden with oracle (p = 2, N = 4, M = 3)
    bk243 = bk_ring(2, 4, 3)
    out["ext_golden_p2.json"] = {
        "command": "ext1",
        "input": {"c": {"ring": bk243, "generators": 1, "relations": [[vec(3, 4)]]},
                  "a": {"ring": bk243, "generators": 1, "relations": [[vec(3, 8)]]}},
        "options": {"oracle": True}}

    # split test: genuinely p^2-cyclic middle is nonsplit
    zp23 = zp_ring(2, 3)
    out["split_nonsplit_zp2.json"] = {
        "command": "split",
        "input": {"ses": {
            "a": {"ring": zp23, "generators": 1, "relations": [[2]]},
            "b": {"ring": zp23, "generators": 1, "relations": [[4]]},
            "c": {"ring": zp23, "generators": 1, "relations": [[2]]},
            "inject": [[2]], "surject": [[1]]}},
        "options": {}}

    # decompose: scrambled elementary module over truncated W[[z]]
    bk332 = bk_ring(3, 3, 2)
    out["decompose_scrambled.json"] = {
        "command": "decompose",
        "input": {"module": {"ring": bk332, "generators": 2,
                             "relations": [[vec(2, 9), vec(2, 9)],
                                           [vec(2, 0), vec(2, 0)]]}},
        "options": {}}

    # decompose rejection: S/(p, z) with the slice-0 certificate
    out["decompose_spz.json"] = {
        "command": "decompose",
        "input": {"module": {"ring": bk332, "generators": 1,
                             "relations": [[vec(2, 3)], [vec(2, 0, 1)]]}},
        "options": {}}

    # cw goldens
    out["cw_s2.json"] = {"command": "cw-ktheory",
                         "input": {"cw": {"cells": [1, 0, 1],
                                          "boundaries": [[], [[]]]}},
                         "options": {}}
    out["cw_rp2.json"] = {"command": "cw-ktheory",
                          "input": {"cw": {"cells": [1, 1, 1],
                                           "boundaries": [[[0]], [[2]]]}},
                          "options": {}}
    out["cw_cp2.json"] = {"command": "cw-ktheory",
                          "input": {"cw": {"cells": [1, 0, 1, 0, 1],
                                           "boundaries": [[], [[]], [], [[]]]}},
                          "options": {}}
    out["cw_verify_rp2.json"] = {"command": "cw-verify",
                                 "input": out["cw_rp2.json"]["input"], "options": {}}

    # lambda: the nonsplit /9 family over S = {2}
    lam = lam_ring([2], 2)
    out["lambda_survey_nonsplit9.json"] = {
        "command": "lambda-survey",
        "input": {"ses": {
            "a": {"ring": lam, "generators": 1, "relations": [[[3, 0]]]},
            "b": {"ring": lam, "generators": 1, "relations": [[[9, 0]]]},
            "c": {"ring": lam, "generators": 1, "relations": [[[3, 0]]]},
            "inject": [[[3, 0]]], "surject": [[[1, 0]]]}},
        "options": {}}

    # lambda zero-detection: multiplication by (q-1) on Lambda/(q-1)^2 at M = 3
    lam3 = lam_ring([2], 3)
    out["lambda_zero_qminus1.json"] = {
        "command": "lambda-zero",
        "input": {"map": {
            "source": {"ring": lam3, "generators": 1, "relations": [[[0, 0, 1]]]},
            "target": {"ring": lam3, "generators": 1, "relations": [[[0, 0, 1]]]},
            "matrix": [[[0, 1, 0]]]}},
        "options": {}}

    # bk heights
    bk334 = bk_ring(3, 3, 4)
    out["bk_height_identity.json"] = {
        "command": "bk-height",
        "input": {"bk": {"module": {"ring": bk334, "generators": 1,
                                    "relations": [[vec(4, 3)]]},
                         "phi": [[vec(4, 1)]], "height_window": [0, 0]},
                  "s": 0, "r": 0},
        "options": {}}

    # crossing the Frobenius trusted-precision boundary must exit 3
    bk222 = bk_ring(2, 2, 2)
    out["bk_height_precision_cross.json"] = {
        "command": "bk-height",
        "input": {"bk": {"module": {"ring": bk222, "generators": 1,
                                    "relations": [[vec(2, 2)]]},
                         "phi": [[vec(2, 0, 1)]], "height_window": [0, 1]},
                  "s": 0, "r": 1},
        "options": {}}

    # bk structure with an explicit tower: S/p^2 as an extension of S/p by S/p
    bk232 = bk_ring(2, 3, 2)
    sp1 = {"module": {"ring": bk232, "generators": 1, "relations": [[vec(2, 2)]]},
           "phi": [[vec(2, 1)]], "height_window": [0, 1]}
    sp2 = {"module": {"ring": bk232, "generators": 1, "relations": [[vec(2, 4)]]},
           "phi": [[vec(2, 1)]], "height_window": [0, 1]}
    out["bk_structure_tower.json"] = {
        "command": "bk-structure",
        "input": {"bk": sp2, "r": 1,
                  "tower": {"kind": "extension", "bk": sp2,
                            "sub": {"kind": "mod_s1", "bk": sp1},
                            "quot": {"kind": "mod_s1", "bk": sp1},
                            "incl": [[vec(2, 2)]], "proj": [[vec(2, 1)]]}},
        "options": {}}

    # exploration mode: e*r >= p-1 at p = 2
    out["bk_structure_exploration.json"] = {
        "command": "bk-structure",
        "input": {"bk": sp2, "r": 1},
        "options": {}}
    return out


def golden_jobs():
    """Command paths that no corpus job runs; kept out of corpus/ so the
    benchmark's corpus pool stays fixed."""
    out = {}

    # completion descent on H = Z[1/2]/9 with fil^1 = 3H = Z/3: at 3 the
    # E1 torsion is 3-power and the sequence 0 -> Z/3 -> Z/9 stays nonsplit;
    # at 5 the E1 entries Z/3 die, so the injectivity hypothesis fails
    cx = {"ring": zl_ring([2]), "lo": 0, "hi": 0, "wmin": 0, "wmax": 1,
          "modules": [{"generators": 1, "relations": [[9]]}],
          "differentials": [],
          "filtration": [{"degree": 0, "weight": 1,
                          "module": {"generators": 1, "relations": [[3]]},
                          "inclusion": [[3]]}]}
    for kind, ell in (("localized_completion", 3), ("localized_completion", 5),
                      ("lambda_completion", 3)):
        out[f"ss_basechange_{kind.split('_')[0]}_ell{ell}.json"] = {
            "command": "ss-basechange",
            "input": {"complex": cx, "spec": {"kind": kind, "ell": ell}},
            "options": {}}

    # the element-level oracle on a two-term complex over Z/8:
    # d = 2 from C_1 = Z/8 to C_0 = Z/8, fil^1 C_1 = C_1, fil^1 C_0 = 2 C_0
    zp23 = zp_ring(2, 3)
    free = {"generators": 1, "relations": []}
    twice = {"generators": 1, "relations": [[4]]}
    out["oracle_two_term.json"] = {
        "command": "oracle",
        "input": {"complex": {
            "ring": zp23, "lo": 0, "hi": 1, "wmin": 0, "wmax": 1,
            "modules": [free, free],
            "differentials": [[[2]]],
            "filtration": [{"degree": 1, "weight": 1, "module": free, "inclusion": [[1]]},
                           {"degree": 0, "weight": 1, "module": twice, "inclusion": [[2]]}]}},
        "options": {}}

    # ss-report over Z/4 with a nonzero d_1 inside 2 . target, decided by
    # the free-block test: C_1 = Z/4 in weight 0 only, C_0 = Z/4 in weight 1,
    # d = 2, so d_1 = 2 : E_1^{0,1} = Z/4 -> E_1^{1,0} = Z/4
    empty = {"generators": 0, "relations": []}
    out["ss_report_free_block.json"] = {
        "command": "ss-report",
        "input": {"complex": {
            "ring": zp_ring(2, 2), "lo": 0, "hi": 1, "wmin": 0, "wmax": 1,
            "modules": [free, free],
            "differentials": [[[2]]],
            "filtration": [{"degree": 1, "weight": 1, "module": empty, "inclusion": []},
                           {"degree": 0, "weight": 1, "module": free, "inclusion": [[1]]}]}},
        "options": {"oracle": True}}

    # bk-structure in the ramified case, e = 2 inside the gate e*r < p - 1
    # (p = 5, r = 1): E = z^2 - 5 and M = e*r*p + 1 = 11, S/25 as an
    # extension of S/5 by S/5, phi = E on every layer
    bk5 = {"family": "TruncatedBK", "p": 5, "N": 3, "M": 11,
           "eisenstein": {"coefficients": [-5, 0, 1], "ramification_e": 2}}
    e5 = vec(11, 120, 0, 1)  # E mod 125

    def line(order):
        return {"module": {"ring": bk5, "generators": 1, "relations": [[vec(11, order)]]},
                "phi": [[e5]], "height_window": [0, 1]}

    out["bk_structure_ramified.json"] = {
        "command": "bk-structure",
        "input": {"bk": line(25), "r": 1,
                  "tower": {"kind": "extension", "bk": line(25),
                            "sub": {"kind": "mod_s1", "bk": line(5)},
                            "quot": {"kind": "mod_s1", "bk": line(5)},
                            "incl": [[vec(11, 5)]], "proj": [[vec(11, 1)]]}},
        "options": {}}

    # decompose over Z/3^3: Z/3 + Z/9 + Z/27, scrambled by row and column
    # operations
    out["decompose_zp.json"] = {
        "command": "decompose",
        "input": {"module": {"ring": zp_ring(3, 3), "generators": 3,
                             "relations": [[3, 9, 3], [3, 18, 3]]}},
        "options": {}}

    # lambda-survey on a globally split sequence over Lambda = Z[1/2][[q-1]]
    # at M = 2: 0 -> Lambda/3 -> Lambda/15 -> Lambda/5 -> 0, split since 3
    # and 5 are coprime; surveyed at 3 and 5
    lam = lam_ring([2], 2)
    out["lambda_survey_split15.json"] = {
        "command": "lambda-survey",
        "input": {"ses": {
            "a": {"ring": lam, "generators": 1, "relations": [[[3, 0]]]},
            "b": {"ring": lam, "generators": 1, "relations": [[[15, 0]]]},
            "c": {"ring": lam, "generators": 1, "relations": [[[5, 0]]]},
            "inject": [[[5, 0]]], "surject": [[[1, 0]]]},
            "primes": [3, 5]},
        "options": {}}

    # bk-structure with a free layer in its tower, inside the gate e*r < p - 1
    # (p = 3, e = r = 1): S/3 + S, phi = diag(1, E), as the split extension
    # of the free leaf (S, E) by the mod_s1 leaf (S/3, 1)
    bk324 = bk_ring(3, 2, 4)
    e3 = vec(4, 6, 1)  # E = z - 3 mod 9
    s3 = {"module": {"ring": bk324, "generators": 1, "relations": [[vec(4, 3)]]},
          "phi": [[vec(4, 1)]], "height_window": [0, 1]}
    free = {"module": {"ring": bk324, "generators": 1, "relations": []},
            "phi": [[e3]], "height_window": [0, 1]}
    top = {"module": {"ring": bk324, "generators": 2, "relations": [[vec(4, 3), vec(4)]]},
           "phi": [[vec(4, 1), vec(4)], [vec(4), e3]], "height_window": [0, 1]}
    out["bk_structure_free_layer.json"] = {
        "command": "bk-structure",
        "input": {"bk": top, "r": 1,
                  "tower": {"kind": "extension", "bk": top,
                            "sub": {"kind": "mod_s1", "bk": s3},
                            "quot": {"kind": "free", "bk": free},
                            "incl": [[vec(4, 1), vec(4)]], "proj": [[vec(4)], [vec(4, 1)]]}},
        "options": {}}

    # snf over Z[1/2] and over F_3[z]/z^3
    out["snf_localized.json"] = {
        "command": "snf",
        "input": {"ring": zl_ring([2]),
                  "matrix": [[6, "1/2", 10], [4, 10, "3/4"], [18, 0, 12]]},
        "options": {}}
    out["snf_power_series.json"] = {
        "command": "snf",
        "input": {"ring": {"family": "TruncatedPowerSeries", "p": 3, "M": 3},
                  "matrix": [[[0, 1, 0], [0, 2, 1]], [[0, 1, 1], [0, 0, 2]]]},
        "options": {}}
    return out


def main():
    for folder, batch in ((CORPUS, jobs()), (GOLDEN, golden_jobs())):
        os.makedirs(folder, exist_ok=True)
        for name, job in batch.items():
            path = os.path.join(folder, name)
            with open(path, "w") as fh:
                json.dump(job, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print("wrote", os.path.relpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
