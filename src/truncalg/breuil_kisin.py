"""Frobenius-semilinear module structures over the truncated W[[z]]:
heights, towers and the structure checker.

The semilinear structure map is stored as a genuine linear map out of the
Frobenius-twist base change, so that every membership question is an
ordinary linear solve.  Height certificates, membership in the category of
p-killed modules free over S1 = F_p[z]/(z^M), extension towers certifying
membership in its extension closure, and the low-ramification structure
checker live here: what the bk-height and bk-structure commands run.  The
paper's lemma checks built on them (twists, the canonical torsion/free
decomposition, kernels and cokernels in the p-killed category, the
extension-closure induction and the transfer of gr_p certificates) are
exercised by the tests, in tests/lemmas.py.

Precision: the Frobenius twist collapses z-degrees at and above ceil(M/p);
operations that would read collapsed degrees refuse with PrecisionError
rather than fabricate certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    PrecisionError,
    UnsupportedRingError,
)
from .linalg import Mat, solve_left_mod
from .modules import (
    ModuleMap,
    NotElementary,
    PresentedModule,
    elementary_divisors,
    is_injective,
    is_surjective,
    module_map,
    rows_are_zero_classes,
    verify_exact_at,
)
from .rings import TruncatedBK
from .smodules import _reduce_mod_p, _s1_of, decompose_over_s


def phi_twist(m):
    """The Frobenius twist of a presented module over either z-family:
    z |-> z^p on the relations."""
    return PresentedModule(m.ring, m.gens, frob_matrix(m.relations, m.ring))


def frob_matrix(mat, ring):
    return Mat(mat.rows, mat.cols,
               [[ring.frobenius(x) for x in row] for row in mat.data])


def max_z_degree(mat, ring):
    worst = -1
    for row in mat.data:
        for x in row:
            v = ring.z_valuation(x)
            if v is None:
                continue
            deg = max(j for j, c in enumerate(x) if not ring.scalar.is_zero(c))
            worst = max(worst, deg)
    return worst


@dataclass
class BKModule:
    """A module with its structure map.  Over TruncatedBK it carries its
    height window; over S1 that is None."""
    module: PresentedModule
    phi: ModuleMap               # phi_twist(module) -> module
    height_window: tuple = None  # (s, r), s >= 0

    @property
    def ring(self):
        return self.module.ring


def make_bk_module(module, phi_matrix, height_window=(0, 1)):
    ring = module.ring
    if not isinstance(ring, TruncatedBK):
        raise UnsupportedRingError("BK modules live over TruncatedBK rings")
    s, r = height_window
    if not (0 <= s <= r):
        raise HypothesisUnmetError("height window needs 0 <= s <= r")
    tw = phi_twist(module)
    phi = module_map(tw, module, phi_matrix)
    return BKModule(module, phi, (s, r))


def _trusted_gate(b):
    """All z-degrees in phi must stay below the Frobenius trusted precision
    for the twisted presentation's certificates to be meaningful."""
    ring = b.ring
    t = ring.frobenius_trusted_precision
    worst = max_z_degree(b.phi.matrix, ring)
    if worst >= t:
        raise PrecisionError(
            f"z-degree {worst} in phi reaches the Frobenius trusted precision {t}")


@dataclass
class HeightCertificate:
    upper: Mat   # E^r . gen_i expressed through Im(phi)
    lower: Mat   # phi rows expressed through E^s . M


@dataclass
class HeightFailure:
    side: str      # "upper" | "lower"
    failures: list


def check_height(b, s, r):
    """Decide E^r M inside Im(phi) inside E^s M by linear solves.  At s = 0
    the lower side needs none: E^0 . M = M, so phi's own matrix is its
    certificate.  Both certificates are checked by their products."""
    if s > r:
        raise HypothesisUnmetError("height window needs s <= r")
    _trusted_gate(b)
    ring = b.ring
    m = b.module
    er = ring.pow(ring.eisenstein_element(), r)
    es = ring.pow(ring.eisenstein_element(), s)
    target = Mat.scalar(m.gens, er, ring)
    upper = solve_left_mod(b.phi.matrix, target, m.relations, ring)
    if upper is None:
        return HeightFailure("upper", ["E^r of some generator escapes Im(phi)"])
    esmat = Mat.scalar(m.gens, es, ring)
    lower = b.phi.matrix if s == 0 else solve_left_mod(esmat, b.phi.matrix, m.relations, ring)
    if lower is None:
        return HeightFailure("lower", ["Im(phi) escapes E^s volume"])
    got = upper.mul(b.phi.matrix, ring)
    want = target
    if not rows_are_zero_classes(m, got.sub(want, ring)):
        raise InternalInconsistencyError("height upper certificate fails to verify")
    got2 = lower.mul(esmat, ring)
    if not rows_are_zero_classes(m, got2.sub(b.phi.matrix, ring)):
        raise InternalInconsistencyError("height lower certificate fails to verify")
    return HeightCertificate(upper, lower)


# ---------------------------------------------------------------------------
# The p-killed category


def is_killed_by_p(m):
    ring = m.ring
    rows = Mat.scalar(m.gens, ring.from_int(ring.p), ring)
    return rows_are_zero_classes(m, rows)


def s1_presentation(m):
    """A p-killed module over T as a module over S1 = F_p[z]/(z^M)."""
    s1 = _s1_of(m.ring)
    return PresentedModule(s1, m.gens, _reduce_mod_p(m.relations, s1))


def is_s1_free(m):
    return not elementary_divisors(s1_presentation(m)).torsion_divisors


def check_mod_s1(b, r):
    """Membership in the category of p-killed, S1-free modules of height <= r."""
    if not is_killed_by_p(b.module):
        return False, "not killed by p"
    if not is_s1_free(b.module):
        return False, "not free over S1"
    cert = check_height(b, 0, r)
    if isinstance(cert, HeightFailure):
        return False, f"height not within [0, {r}] ({cert.side})"
    return True, None


def is_free_module(m):
    """Free over the full truncated ring, decided by the elementary check."""
    dec = decompose_over_s(m)
    if isinstance(dec, NotElementary):
        return False
    return not dec.torsion_divisors


# ---------------------------------------------------------------------------
# Towers: explicit extension-closure membership certificates


@dataclass
class TowerNode:
    bk: BKModule
    kind: str                    # "mod_s1" | "free" | "extension"
    sub: "TowerNode" = None
    incl: ModuleMap = None
    quot: "TowerNode" = None
    proj: ModuleMap = None

    def depth(self):
        return 1 if self.kind != "extension" else 1 + max(
            self.sub.depth(), self.quot.depth())


def leaf(bk, kind="mod_s1"):
    return TowerNode(bk, kind)


def extension_node(bk, sub, incl, quot, proj):
    return TowerNode(bk, "extension", sub=sub, incl=incl, quot=quot, proj=proj)


def verify_tower(node, r, bar=False):
    """Check every layer's membership and every extension's exactness."""
    if node.kind == "mod_s1":
        ok, why = check_mod_s1(node.bk, r)
        return ok, why
    if node.kind == "free":
        if not bar:
            return False, "free layers only allowed in bar-towers"
        if not is_free_module(node.bk.module):
            return False, "claimed free layer is not free"
        cert = check_height(node.bk, 0, r)
        if isinstance(cert, HeightFailure):
            return False, "free layer height fails"
        return True, None
    ok, why = verify_tower(node.sub, r, bar=bar)
    if not ok:
        return ok, why
    ok, why = verify_tower(node.quot, r, bar=bar)
    if not ok:
        return ok, why
    if not is_injective(node.incl):
        return False, "tower inclusion not injective"
    if not is_surjective(node.proj):
        return False, "tower projection not surjective"
    if not verify_exact_at(node.incl, node.proj):
        return False, "tower stage not exact"
    return True, None


# ---------------------------------------------------------------------------
# Structure checker


@dataclass
class StructureResult:
    elementary: object           # ElementaryDecomposition or None
    counterexample: object       # NotElementary or None
    hypothesis_met: bool
    gr_ranks: list
    notes: list


def meets_ramification_gate(ring, r):
    """The low-ramification hypothesis at height r: e*r < p-1 as coded.  The
    paper's ramified hypothesis reads 2e*dim < p-1, and how the height r
    relates to dim is left to the paper (compare Bhatt-Morrow-Scholze,
    "Integral p-adic Hodge theory", 2018)."""
    return ring.eisenstein.ramification_e * r < ring.p - 1


def structure_check(b, r, tower=None):
    """Run the structure pipeline: certify gr slices (when a tower is given),
    then decompose.  Under the ramification gate (`meets_ramification_gate`)
    a decomposition failure is theorem-contradicting and raised; otherwise
    it is reported."""
    hypothesis_met = meets_ramification_gate(b.ring, r)
    notes = []
    if tower is not None:
        ok, why = verify_tower(tower, r, bar=True)
        if not ok:
            raise HypothesisUnmetError(f"supplied tower fails verification: {why}")
        notes.append(f"tower of depth {tower.depth()} verified")
    ranks = []
    dec = decompose_over_s(b.module, _trace=ranks)
    if isinstance(dec, NotElementary):
        if hypothesis_met and tower is not None:
            raise InternalInconsistencyError(
                "structure theorem predicts an elementary module; decomposition failed")
        notes.append("not elementary" + ("" if hypothesis_met else " (exploration mode)"))
        return StructureResult(None, dec, hypothesis_met, ranks, notes)
    return StructureResult(dec, None, hypothesis_met, ranks, notes)
