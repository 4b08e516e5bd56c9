"""Ext^1 of elementary modules over the truncated local rings.

The presentation of the source is first normalized to elementary form, so
that the diagonal p-power presentation is injective in the untruncated
model; with that resolution the second syzygy vanishes and
Ext^1(sum S/p^{a_i} (+) free, A) = (+)_i A / p^{a_i} A.  Truncation-artifact
syzygies (annihilators of p^a in the quotient ring) are deliberately
excluded: they belong to the quotient ring, not to the model.

The cocycle-enumeration oracle constructs every extension of a cyclic module
by A explicitly and decides splitness by exhausting section candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .bruteforce import _grow_submodule, exponent_multiset
from .errors import InternalInconsistencyError, PrecisionError, UnsupportedRingError
from .linalg import Mat
from .modules import (
    PresentedModule,
    build_ses,
    direct_sum,
    split_test,
    structure_divisors,
)
from .rings import TruncatedBK, TruncatedPadic


def _elementary_exponents(m):
    """Torsion p-exponents and free rank of an elementary module."""
    if not isinstance(m.ring, (TruncatedBK, TruncatedPadic)):
        raise UnsupportedRingError("ext1 supports TruncatedBK and TruncatedPadic")
    divs = structure_divisors(m)
    return divs.exponents(), divs.free_rank


def _ext1_of_exponents(exps, a):
    """Ext^1(C, A) from C's torsion exponents: (+)_i A / p^{a_i} A."""
    ring = a.ring
    n = ring.precision_n
    if any(e >= n for e in exps):
        raise PrecisionError("torsion exponent reaches the working p-precision")
    blocks = []
    for e in exps:
        pe = ring.from_int(ring.p ** e)
        rel = a.relations.vstack(Mat.scalar(a.gens, pe, ring))
        blocks.append(PresentedModule(ring, a.gens, rel))
    if not blocks:
        return PresentedModule.zero(ring)
    return direct_sum(blocks)


# ---------------------------------------------------------------------------
# Brute-force oracle


@dataclass
class CocycleOracleResult:
    class_count: int
    split_count: int
    split_set_is_coboundaries: bool
    abelian_exponent_multiset: list
    quotient_cyclic_over_ring: bool


def ext1_cocycle_oracle(a_exp, b_exp, ring):
    """Classify extensions of S/p^a by S/p^b by explicit enumeration.

    Every extension class is realized by the value v = p^a . (lift of the
    cyclic generator) in A; the class splits exactly when a section exists,
    that is when v + p^a . alpha = 0 for some alpha in A, i.e. -v lies in
    p^a A.  The split set therefore equals the coboundary set p^a A by
    construction; the independent content is the sampled check against the
    production split test.  The quotient's abelian exponent profile and
    ring-cyclicity are reported.
    """
    if not isinstance(ring, (TruncatedBK, TruncatedPadic)):
        raise UnsupportedRingError("oracle supports TruncatedBK and TruncatedPadic")
    p, n, mlen = ring.p, ring.precision_n, ring.mlen
    if a_exp >= n or b_exp >= n:
        raise PrecisionError("oracle exponents must stay below the p-precision")
    pb = p ** b_exp
    pa = p ** a_exp
    avals = list(product(range(pb), repeat=mlen))

    def add(x, y):
        return tuple((xi + yi) % pb for xi, yi in zip(x, y))

    def smul(c, x):
        return tuple((c * xi) % pb for xi in x)

    zero = (0,) * mlen

    def closure(gens):
        return _grow_submodule({zero}, gens, lambda x: {smul(c, x) for c in range(pb)}, add)

    coboundaries = {smul(pa, x) for x in avals}
    split_set = {v for v in avals if smul(-1, v) in coboundaries}
    split_is_cob = split_set == coboundaries
    dsub = closure(split_set)

    # abelian exponent profile of A/D from the sizes |p^j (A/D)|
    sizes = [len(closure({smul(p ** j, x) for x in avals} | dsub)) // len(dsub)
             for j in range(n + 1)]

    # ring-cyclicity of A/D: scalar multiples of all shifts of the class of 1
    gen = (1,) + (0,) * (mlen - 1)
    seeds = set()
    for k in range(mlen):
        shifted = tuple([0] * k + list(gen[: mlen - k]))
        for c in range(pb):
            seeds.add(smul(c, shifted))
    cyclic = len(closure(seeds | dsub)) == pb ** mlen

    result = CocycleOracleResult(
        class_count=(pb ** mlen) // len(dsub),
        split_count=len(dsub),
        split_set_is_coboundaries=split_is_cob,
        abelian_exponent_multiset=exponent_multiset(sizes, p),
        quotient_cyclic_over_ring=cyclic,
    )

    for v in (zero, gen, smul(pa, gen)):
        if _ses_split_verdict(ring, a_exp, b_exp, v) != (v in split_set):
            raise InternalInconsistencyError(f"SES split test disagrees at v={v}")
    return result


def _ses_split_verdict(ring, a_exp, b_exp, v):
    """Production-path split test on the explicitly constructed extension.

    The middle of an extension of S/p^a by S/p^b can have exponent a+b, so
    the extension module is only faithful at p-precision >= a+b; the check
    therefore lifts the ring precision while keeping the same arithmetic."""
    if ring.precision_n < a_exp + b_exp:
        ring = replace(ring, precision_n=a_exp + b_exp)
    velt = ring.normalize(list(v) if ring.expands else v[0])
    pa = ring.from_int(ring.p ** a_exp)
    pb = ring.from_int(ring.p ** b_exp)
    amod = PresentedModule.cyclic(ring, pb)
    cmod = PresentedModule.cyclic(ring, pa)
    emod = PresentedModule.from_relation_rows(
        ring, 2, [[pa, ring.neg(velt)], [ring.zero, pb]])
    ses = build_ses(amod, emod, cmod,
                    Mat(1, 2, [[ring.zero, ring.one]]),
                    Mat(2, 1, [[ring.one], [ring.zero]]))
    return split_test(ses).split
