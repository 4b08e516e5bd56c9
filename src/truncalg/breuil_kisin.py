"""Frobenius-semilinear module structures over the truncated W[[z]] and S1.

The semilinear structure map is stored as a genuine linear map out of the
Frobenius-twist base change, so that every membership and equivariance
question is an ordinary linear solve.  One object type, one map type, one
tower node and one extension-closure induction serve both the Breuil-Kisin
ring and S1 = F_p[z]/(z^M), where the gr_p slices live; what differs is
chosen by the object's ring.  Height certificates, the canonical
torsion/free decomposition, kernels and cokernels in the p-killed category,
the extension-closure transfer of gr_p certificates, and the low-ramification
structure checker all live here.

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
from .linalg import Mat, in_row_span, solve_left_mod
from .modules import (
    ModuleMap,
    NotElementary,
    PresentedModule,
    cokernel,
    elementary_divisors,
    image,
    is_injective,
    is_surjective,
    kernel,
    maps_equal,
    module_map,
    rows_are_zero_classes,
    torsion_part,
    validate_ses,
    verify_exact_at,
)
from .rings import TruncatedBK
from .smodules import _reduce_mod_p, _s1_of, decompose_over_s, gr_p


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


def _with_phi(mod, phi_matrix, r=None):
    """mod with the structure map phi_matrix, of height window (0, r) over
    TruncatedBK."""
    phi = module_map(phi_twist(mod), mod, phi_matrix)
    return BKModule(mod, phi, (0, r) if isinstance(mod.ring, TruncatedBK) else None)


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
    """Decide E^r M inside Im(phi) inside E^s M by linear solves."""
    if s > r:
        raise HypothesisUnmetError("height window needs s <= r")
    _trusted_gate(b)
    ring = b.ring
    m = b.module
    er = ring.pow(ring.eisenstein_element(), r)
    es = ring.pow(ring.eisenstein_element(), s)
    target = Mat.identity(m.gens, ring).scale(er, ring)
    upper = solve_left_mod(b.phi.matrix, target, m.relations, ring)
    if upper is None:
        return HeightFailure("upper", ["E^r of some generator escapes Im(phi)"])
    esmat = Mat.identity(m.gens, ring).scale(es, ring)
    lower = solve_left_mod(esmat, b.phi.matrix, m.relations, ring)
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


def twist(b, t):
    """Multiply phi by E^t; the height window shifts by +t."""
    if t < 0:
        raise HypothesisUnmetError("use untwist for negative shifts")
    ring = b.ring
    et = ring.pow(ring.eisenstein_element(), t)
    mat = b.phi.matrix.scale(et, ring)
    s, r = b.height_window
    return make_bk_module(b.module, mat, (s + t, r + t))


def untwist(b, t):
    """Divide phi by E^t when every image witness is divisible."""
    ring = b.ring
    et = Mat.identity(b.module.gens, ring).scale(ring.pow(ring.eisenstein_element(), t), ring)
    sol = solve_left_mod(et, b.phi.matrix, b.module.relations, ring)
    if sol is None:
        raise HypothesisUnmetError("phi image witnesses are not divisible by E^t")
    s, r = b.height_window
    return make_bk_module(b.module, sol, (max(0, s - t), max(0, r - t)))


# ---------------------------------------------------------------------------
# Canonical decomposition (elementary case)


@dataclass
class CanonicalDecomposition:
    torsion: BKModule
    inclusion: ModuleMap
    free: BKModule
    projection: ModuleMap
    mbar_is_zero: bool


def canonical_decomposition(b):
    """The four-term sequence M_tors -> M -> M_free -> Mbar with Mbar = 0,
    available exactly in the elementary case."""
    ring = b.ring
    tors_mod, incl, free_mod = torsion_part(b.module)
    # p^a phi(x) = phi(p^a x) = 0: phi restricts to the torsion part
    tors_bk = make_bk_module(tors_mod, _induced_phi_on_submodule(b, incl), b.height_window)
    proj = module_map(b.module, free_mod, Mat.identity(b.module.gens, ring), check=False)
    phi_f = module_map(phi_twist(free_mod), free_mod, b.phi.matrix)
    free_bk = BKModule(free_mod, phi_f, b.height_window)
    return CanonicalDecomposition(tors_bk, incl, free_bk, proj, True)


# ---------------------------------------------------------------------------
# The p-killed category and its kernels/cokernels


def is_killed_by_p(m):
    ring = m.ring
    rows = Mat.identity(m.gens, ring).scale(ring.from_int(ring.p), ring)
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


@dataclass
class BKMap:
    source: BKModule
    target: BKModule
    map: ModuleMap


def make_bk_map(source, target, matrix):
    """A map commuting with the structure maps: exactly over TruncatedBK,
    below the Frobenius trusted z-precision over S1."""
    f = module_map(source.module, target.module, matrix)
    ring = source.ring
    phi_then_f = source.phi.matrix.mul(matrix, ring)
    f_then_phi = frob_matrix(matrix, ring).mul(target.phi.matrix, ring)
    if isinstance(ring, TruncatedBK):
        tw = phi_twist(source.module)
        equal = maps_equal(module_map(tw, target.module, f_then_phi, check=False),
                           module_map(tw, target.module, phi_then_f, check=False))
    else:
        equal = _equal_at_z_precision(target.module, phi_then_f, f_then_phi,
                                      ring.frobenius_trusted_precision)
    if not equal:
        raise HypothesisUnmetError("map does not commute with the Frobenius structures")
    return BKMap(source, target, f)


def _equal_at_z_precision(target_module, m1, m2, zprec):
    ring = target_module.ring
    diff = m1.sub(m2, ring)
    zmat = Mat.identity(target_module.gens, ring).scale(ring.var_power(zprec), ring)
    return in_row_span(zmat.vstack(target_module.relations), diff, ring)


def _induced_phi_on_submodule(b, incl):
    """phi of the ambient restricted along a phi-stable inclusion."""
    ring = b.ring
    comp = frob_matrix(incl.matrix, ring).mul(b.phi.matrix, ring)
    sol = solve_left_mod(incl.matrix, comp, b.module.relations, ring)
    if sol is None:
        raise InternalInconsistencyError("phi fails to restrict along a stable inclusion")
    return sol


def _image(f, r):
    imod, iincl, _ = image(f.map)
    return _with_phi(imod, f.source.phi.matrix, r), iincl


def _cokernel(f, r):
    return _with_phi(cokernel(f.map)[0], f.target.phi.matrix, r)


def _kernel_cokernel(f, r):
    """ker(f) with its inclusion, coker(f), and notes.

    Over TruncatedBK both are formed in the p-killed free category with
    height recertification: under e*r < p-1 failures are
    theorem-contradicting; otherwise the hypothesis violation is flagged and
    failures are reported, not raised.  Over S1 they are taken as built."""
    src, tgt = f.source, f.target
    ring = src.ring
    over_bk = isinstance(ring, TruncatedBK)
    notes = []
    if over_bk:
        e = ring.eisenstein.ramification_e
        hypothesis_met = e * r < ring.p - 1
        if not hypothesis_met:
            notes.append(f"exploration mode: e*r = {e * r} >= p-1 = {ring.p - 1}")
        for name, b in (("source", src), ("target", tgt)):
            ok, why = check_mod_s1(b, r)
            if not ok:
                raise HypothesisUnmetError(f"{name} not in the p-killed free category: {why}")
    kmod, kincl = kernel(f.map)
    kbk = _with_phi(kmod, _induced_phi_on_submodule(src, kincl), r)
    cbk = _cokernel(f, r)
    if not over_bk:
        return kbk, kincl, cbk, notes
    bad = []
    for nm, piece in (("kernel", kbk), ("cokernel", cbk)):
        try:
            cert = check_height(piece, 0, r)
        except PrecisionError:
            if hypothesis_met:
                raise
            notes.append(f"{nm} height recertification is precision-limited")
            continue
        if isinstance(cert, HeightFailure):
            bad.append(nm)
    if bad and hypothesis_met:
        raise InternalInconsistencyError(
            f"height recertification failed for {bad} under e*r < p-1")
    if bad:
        notes.append(f"height recertification failed for {bad} (hypothesis unmet)")
    return kbk, kincl, cbk, notes


def bk_kernel_cokernel(f, r):
    """Kernel and cokernel in the p-killed category with height
    recertification (see _kernel_cokernel)."""
    if not isinstance(f.source.ring, TruncatedBK):
        raise UnsupportedRingError("p-killed kernels and cokernels live over TruncatedBK")
    kbk, _, cbk, notes = _kernel_cokernel(f, r)
    return kbk, cbk, notes


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


def closure_check(f, n_tower, r):
    """Towers certifying Im(f) and Coker(f) in the extension closure.

    f: BKMap from an object of the p-killed free category into the object
    carried by n_tower; the recursion follows the snake-lemma induction on
    the tower length.  Over TruncatedBK the kernels and cokernels are
    certified (see _kernel_cokernel) and a leaf's image must be mod-S1; over
    S1 the objects are taken as built."""
    ring = f.source.ring
    over_bk = isinstance(ring, TruncatedBK)
    if n_tower.kind != "extension":
        cbk = _kernel_cokernel(f, r)[2] if over_bk else _cokernel(f, r)
        ibk, iincl = _image(f, r)
        if over_bk:
            ok, why = check_mod_s1(ibk, r)
            if not ok:
                raise InternalInconsistencyError(f"image left the category: {why}")
        return leaf(ibk), leaf(cbk), {"image_inclusion": iincl}
    g_mat = f.map.matrix.mul(n_tower.proj.matrix, ring)
    g = make_bk_map(f.source, n_tower.quot.bk, g_mat)
    kbk, kincl, cok_g_bk, _ = _kernel_cokernel(g, r)
    # f restricted to ker(g) lands in N'
    rows = kincl.matrix.mul(f.map.matrix, ring)
    sol = solve_left_mod(n_tower.incl.matrix, rows, n_tower.bk.module.relations, ring)
    if sol is None:
        raise InternalInconsistencyError("kernel image fails to factor through the sub-object")
    fprime = make_bk_map(kbk, n_tower.sub.bk, sol)
    im_sub_tower, cok_sub_tower, _ = closure_check(fprime, n_tower.sub, r)
    ibk, _ = _image(f, r)
    cbk = _cokernel(f, r)
    # image tower: 0 -> Im(f') -> Im(f) -> Im(g) -> 0
    # Im(f') generators are ker(g) generators pushed through f; inside Im(f)
    # (generated by all source generators) the coordinates are kincl's rows.
    sub_incl = module_map(im_sub_tower.bk.module, ibk.module, kincl.matrix)
    img_bk, _ = _image(g, r)
    sub_proj = module_map(ibk.module, img_bk.module,
                          Mat.identity(f.source.module.gens, ring))
    im_tower = extension_node(ibk, im_sub_tower, sub_incl, leaf(img_bk), sub_proj)
    # cokernel tower: 0 -> Coker(f') -> Coker(f) -> Coker(g) -> 0
    c_incl = module_map(cok_sub_tower.bk.module, cbk.module, n_tower.incl.matrix)
    c_proj = module_map(cbk.module, cok_g_bk.module, n_tower.proj.matrix)
    cok_tower = extension_node(cbk, cok_sub_tower, c_incl, leaf(cok_g_bk), c_proj)
    for name, node in (("image", im_tower), ("cokernel", cok_tower)):
        if not verify_exact_at(node.incl, node.proj):
            raise InternalInconsistencyError(f"snake {name} sequence failed exactness")
    return im_tower, cok_tower, {}


# ---------------------------------------------------------------------------
# gr_p certificates across extensions


@dataclass
class BKSes:
    a: BKModule
    b: BKModule
    c: BKModule
    inject: ModuleMap
    surject: ModuleMap


def make_bk_ses(a, b, c, inject_matrix, surject_matrix):
    inj = make_bk_map(a, b, inject_matrix)
    sur = make_bk_map(b, c, surject_matrix)
    ses = BKSes(a, b, c, inj.map, sur.map)
    err = validate_ses(ses)
    if err:
        raise HypothesisUnmetError(f"not a BK short exact sequence: {err[1]}")
    return ses


def _preimage_rows(f, rows, ring):
    """Source rows that f sends to the given target rows: lifts through the
    verified surjection, or the factorization through the verified
    injection."""
    sol = solve_left_mod(f.matrix, rows, f.target.relations, ring)
    if sol is None:
        raise InternalInconsistencyError("rows fail to factor through a verified map")
    return sol


def connecting_maps(ses):
    """The maps c_j: Q -> gr_p^j A (lift, multiply by p, project) as S1 maps,
    verified Frobenius-compatible at the trusted z-precision, each with its
    slice gr_p^j A."""
    ring = ses.b.ring
    q = ses.c
    lifts = _preimage_rows(ses.surject, Mat.identity(q.module.gens, ring), ring)
    p_lifts = lifts.scale(ring.from_int(ring.p), ring)
    a_rows = _preimage_rows(ses.inject, p_lifts, ring)
    q_obj = _s1_object(s1_presentation(q.module), q)
    cj_mat = _reduce_mod_p(a_rows, q_obj.ring)
    out = []
    for j in range(ring.precision_n):
        sl = gr_p(ses.a.module, j)
        a_obj = _s1_object(sl.module, ses.a)
        try:
            cj = make_bk_map(q_obj, a_obj, cj_mat)
        except HypothesisUnmetError:
            raise InternalInconsistencyError(
                f"connecting map c_{j} is not Frobenius-compatible at trusted precision")
        out.append((cj, sl))
    return out


def gr_extension_transfer(ses, quotient_kind, sub_gr_towers, r):
    """Certify gr_p^j(middle) in the closure C1, per the two proof sequences.

    sub_gr_towers: per-j TowerNode certificates for gr_p^j(sub) over S1
    (see gr_tower_leaf).  quotient_kind: "mod_s1" (p-killed quotient, uses the
    connecting maps) or "free" (free quotient, uses the p^j-identification).
    Returns the per-j certificates for gr_p^j(middle)."""
    ring = ses.b.ring
    n = ring.precision_n
    q_s1 = s1_presentation(ses.c.module)
    s1 = q_s1.ring
    surject_s1 = _reduce_mod_p(ses.surject.matrix, s1)
    out = {}
    if quotient_kind == "free":
        inject_s1 = _reduce_mod_p(ses.inject.matrix, s1)
        for j in range(n):
            slb = gr_p(ses.b.module, j)
            sla = gr_p(ses.a.module, j)
            inc = module_map(sla.module, slb.module, inject_s1)
            prj = module_map(slb.module, q_s1, surject_s1)
            if not verify_exact_at(inc, prj):
                raise InternalInconsistencyError(
                    f"free-quotient gr sequence failed exactness at slice {j}")
            out[j] = {"sequence": (inc, prj), "sub_tower": sub_gr_towers[j],
                      "quot": "free reduction of the quotient"}
        return out
    cjs = connecting_maps(ses)
    # gr_j B -> gr_{j-1} A by p^j b |-> p^{j-1} (p b)
    pb_rows = Mat.identity(ses.b.module.gens, ring).scale(ring.from_int(ring.p), ring)
    down_s1 = _reduce_mod_p(_preimage_rows(ses.inject, pb_rows, ring), s1)
    for j in range(n):
        cj = cjs[j][0]
        im_tower, cok_tower, _ = closure_check(cj, sub_gr_towers[j], r)
        slb = gr_p(ses.b.module, j)
        if j == 0:
            tail = module_map(slb.module, q_s1, surject_s1)
        else:
            tail = module_map(slb.module, cjs[j - 1][1].module, down_s1)
        out[j] = {"connecting": cj.map, "image_tower": im_tower,
                  "cokernel_tower": cok_tower, "tail": tail}
    return out


def _s1_object(m_s1, bk):
    """An S1-presented module carrying bk's structure map reduced mod p."""
    return _with_phi(m_s1, _reduce_mod_p(bk.phi.matrix, m_s1.ring))


def gr_tower_leaf(bk, j):
    """Leaf certificate for gr_p^j of a module whose slice is S1-free."""
    return leaf(_s1_object(gr_p(bk.module, j).module, bk))


# ---------------------------------------------------------------------------
# Structure checker


@dataclass
class StructureResult:
    elementary: object           # ElementaryDecomposition or None
    counterexample: object       # NotElementary or None
    hypothesis_met: bool
    gr_ranks: list
    notes: list


def structure_check(b, r, tower=None):
    """Run the structure pipeline: certify gr slices (when a tower is given),
    then decompose.  Under e*r < p-1 a decomposition failure is
    theorem-contradicting and raised; otherwise it is reported.

    The gate is e*r < p-1 as coded; the paper's ramified hypothesis reads
    2e*dim < p-1, and how the height r relates to dim is left to the paper
    (compare Bhatt-Morrow-Scholze, "Integral p-adic Hodge theory", 2018)."""
    ring = b.ring
    e = ring.eisenstein.ramification_e
    hypothesis_met = e * r < ring.p - 1
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
