"""The paper's lemma checks: code that only the tests run.

No CLI command, benchmark workload or script reaches these definitions;
the tests exercise them on top of the engine in `truncalg`.  Most certify
a lemma the paper's Breuil-Kisin results rest on, each by an exact solve
or an explicit witness:

- ring and module spec operations: p- and z-valuations with their
  at-least-precision marker, normalization, Frobenius, Eisenstein powers,
  the pruned kernel, subquotients with verified exactness, the torsion
  part, glued splittings;
- Ext^1 of elementary modules;
- the reduction-length inequality on a degeneration report;
- Frobenius modules: twists, the canonical torsion/free decomposition,
  Frobenius-compatible maps, kernels and cokernels in the p-killed
  category with height recertification under the ramification gate, the
  extension-closure induction (`closure_check`), connecting maps and the
  transfer of gr_p certificates across short exact sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from truncalg.breuil_kisin import (
    BKModule,
    HeightFailure,
    check_height,
    check_mod_s1,
    extension_node,
    frob_matrix,
    leaf,
    make_bk_module,
    meets_ramification_gate,
    phi_twist,
    s1_presentation,
)
from truncalg.errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    PrecisionError,
    SchemaError,
    UnsupportedRingError,
)
from truncalg.ext import _elementary_exponents, _ext1_of_exponents
from truncalg.linalg import Mat, in_row_span, solve_left_mod
from truncalg.modules import (
    ModuleMap,
    PresentedModule,
    _kernel_rows,
    cokernel,
    compose,
    identity_map,
    image,
    is_zero_map,
    maps_equal,
    module_from_divisors,
    module_map,
    require_elementary,
    rows_are_zero_classes,
    submodule_from_rows,
    validate_ses,
    verify_exact_at,
)
from truncalg.rings import (
    LocalizedIntegers,
    TruncatedBK,
    TruncatedLambda,
    TruncatedPadic,
    TruncatedPowerSeries,
)
from truncalg.smodules import _reduce_mod_p, gr_p
from truncalg.spectral import degeneration_report


# ---------------------------------------------------------------------------
# Ring spec operations


class AtLeastPrecision:
    """Valuation marker for elements that vanish at the working truncation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AtLeastPrecision"

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return False


AT_LEAST_PRECISION = AtLeastPrecision()


def valuation_or_marker(ring, x):
    """The valuation of x in a chain ring, or AT_LEAST_PRECISION for 0."""
    return AT_LEAST_PRECISION if ring.is_zero(x) else ring.val(x)


def normalize(raw, ring):
    """Spec op: canonicalize raw element data in the declared ring. Idempotent."""
    return ring.normalize(raw)


def frobenius(x, ring):
    """Spec op: phi with phi(z) = z^p, identity on W-coefficients.

    The result is exact in the truncated ring; its z-precision as a model of
    the untruncated Frobenius is ring.frobenius_trusted_precision.
    """
    if not isinstance(ring, (TruncatedPowerSeries, TruncatedBK)):
        raise UnsupportedRingError("frobenius needs a z-family ring")
    return ring.frobenius(x)


def valuation(x, uniformizer, ring):
    """Spec op: largest k with x in (uniformizer^k), or AT_LEAST_PRECISION for 0.

    uniformizer is the string "p" or "z"; legality depends on the family.
    """
    if isinstance(ring, TruncatedPadic):
        if uniformizer != "p":
            raise UnsupportedRingError("TruncatedPadic only supports the uniformizer p")
        return valuation_or_marker(ring, x)
    if isinstance(ring, TruncatedPowerSeries):
        if uniformizer != "z":
            raise UnsupportedRingError("TruncatedPowerSeries only supports the uniformizer z")
        return valuation_or_marker(ring, x)
    if isinstance(ring, TruncatedBK):
        if uniformizer == "p":
            v = ring.p_valuation(x)
        elif uniformizer == "z":
            v = ring.z_valuation(x)
        else:
            raise UnsupportedRingError("TruncatedBK supports uniformizers p and z")
        return AT_LEAST_PRECISION if v is None else v
    raise UnsupportedRingError(f"valuation not defined for {type(ring).__name__}")


def eisenstein_eval(eisenstein, power, ring):
    """Spec op: canonical representation of E(z)^power in the truncated ring."""
    if not isinstance(ring, TruncatedBK):
        raise UnsupportedRingError("eisenstein_eval needs a TruncatedBK ring")
    if power < 0:
        raise SchemaError("power must be >= 0")
    base = ring.from_coeffs([ring.scalar.from_int(c) for c in eisenstein.coefficients])
    return ring.pow(base, power)


# ---------------------------------------------------------------------------
# Modules: pruned kernels, subquotients, torsion part, glued splittings, base
# change


def prune_spanning_rows(rows, extra, ring):
    """Drop rows lying in the span of the previously kept rows plus extra."""
    kept = []
    for r in rows.data:
        if all(ring.is_zero(v) for v in r):
            continue
        rm = Mat(1, rows.cols, [list(r)])
        base_rows = kept + [list(e) for e in extra.data]
        if base_rows:
            base = Mat(len(base_rows), rows.cols, base_rows)
            if in_row_span(base, rm, ring):
                continue
        kept.append(list(r))
    return Mat(len(kept), rows.cols, kept)


def kernel(f):
    """(kernel module, inclusion into source). Redundant generators pruned."""
    krows = prune_spanning_rows(_kernel_rows(f), f.source.relations, f.source.ring)
    return submodule_from_rows(f.source, krows)


@dataclass
class Subquotient:
    kernel: PresentedModule
    kernel_inclusion: ModuleMap
    image: PresentedModule
    image_inclusion: ModuleMap
    image_projection: ModuleMap
    cokernel: PresentedModule
    cokernel_projection: ModuleMap


def subquotient(f):
    """Kernel, image, cokernel with structure maps; exactness is verified."""
    kmod, kincl = kernel(f)
    imod, iincl, iproj = image(f)
    cmod, cproj = cokernel(f)
    if not is_zero_map(compose(kincl, f)):
        raise InternalInconsistencyError("kernel fails to die under the map")
    if not verify_exact_at(iincl, cproj):
        raise InternalInconsistencyError("image != kernel of cokernel projection")
    if not maps_equal(compose(iproj, iincl), f):
        raise InternalInconsistencyError("source->image->target does not recover the map")
    return Subquotient(kmod, kincl, imod, iincl, iproj, cmod, cproj)


def torsion_part(m):
    """(torsion module, inclusion, torsion-free quotient).

    Torsion means: elementary divisors that are nonzero at the working
    truncation (LocalizedIntegers: nonunit divisors).  The submodule returned
    is the canonical-witness one; its divisor multiset is witness-free.
    """
    if isinstance(m.ring, TruncatedLambda):
        raise UnsupportedRingError("torsion_part over the Lambda family is not supported")
    dec = require_elementary(m)
    ring = m.ring
    tcount = len(dec.torsion_divisors)
    rows = dec.from_canonical.matrix.take_rows(list(range(tcount)))
    tors = module_from_divisors(ring, dec.torsion_divisors, 0)
    incl = module_map(tors, m, rows, check=False)
    quot, proj = cokernel(incl)
    if not is_zero_map(compose(incl, proj)):
        raise InternalInconsistencyError("torsion part does not die in the quotient")
    return tors, incl, quot


def glue_splitting(ses, torsion_section, free_witness):
    """Assemble a section of surject from a torsion section and a free lift.

    torsion_section: C_tors -> B with (torsion_section ; surject) equal to the
    torsion inclusion into C.  free_witness: ElementaryDecomposition of C whose
    free part witnesses C_tf free.  Returns the verified section
    s(x, y) = s_tors(x) + lift(y) assembled through the witness.
    """
    ring = ses.c.ring
    dec = free_witness
    tcount = len(dec.torsion_divisors)
    tors_incl_rows = dec.from_canonical.matrix.take_rows(list(range(tcount)))
    comp = torsion_section.matrix.mul(ses.surject.matrix, ring)
    if not rows_are_zero_classes(ses.c, comp.sub(tors_incl_rows, ring)):
        raise HypothesisUnmetError("torsion_section does not split the torsion rows")
    free_idx = list(range(tcount, dec.canonical_module.gens))
    free_rows = dec.from_canonical.matrix.take_rows(free_idx)
    lift = solve_left_mod(ses.surject.matrix, free_rows, ses.c.relations, ring)
    if lift is None:
        raise InternalInconsistencyError("free rows fail to lift through a verified surjection")
    stacked = torsion_section.matrix.vstack(lift)
    smat = dec.to_canonical.matrix.mul(stacked, ring)
    section = module_map(ses.c, ses.b, smat)
    if not maps_equal(compose(section, ses.surject), identity_map(ses.c)):
        raise InternalInconsistencyError("glued section fails beta . s = id")
    return section


# ---------------------------------------------------------------------------
# Ext^1


def ext1(c, a):
    """Ext^1(C, A) as a presented module over the shared ring."""
    if a.ring != c.ring:
        raise UnsupportedRingError("ext1 arguments must share a ring")
    return _ext1_of_exponents(_elementary_exponents(c)[0], a)


# ---------------------------------------------------------------------------
# The reduction-length inequality


def lenfil_check(x, n, report=None):
    """Reduction-length inequality per degree, under the saturated
    hypothesis, read off the report's divisors of H_i and the E1 entries."""
    if n <= 0:
        raise SchemaError("reduction exponent must be positive")
    if report is None:
        report = degeneration_report(x)
    if not report.saturated:
        raise HypothesisUnmetError("lenfil needs the saturated verdict established")
    out = {}
    for i in range(x.lo, x.hi + 1):
        lhs = _reduction_length(report.h_divisors[i], n)
        rhs = sum(_reduction_length(report.e1_divisors[(w, i)], n)
                  for w in range(x.wmin, x.wmax + 1))
        if lhs > rhs:
            raise InternalInconsistencyError(
                f"reduction-length inequality fails at degree {i}: {lhs} > {rhs}")
        out[i] = (lhs, rhs)
    return out


def _reduction_length(divs, n):
    """len(M / u^n M) = sum min(val d, n) + free_rank * n, from M's divisors."""
    if isinstance(divs.ring, LocalizedIntegers):
        raise UnsupportedRingError("reduction lengths need a single uniformizer")
    return divs.free_rank * n + sum(min(v, n) for v in divs.exponents())


# ---------------------------------------------------------------------------
# Frobenius modules: twists, canonical decomposition, p-killed kernels and
# cokernels, the extension-closure induction, gr_p transfer


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
    et = Mat.scalar(b.module.gens, ring.pow(ring.eisenstein_element(), t), ring)
    sol = solve_left_mod(et, b.phi.matrix, b.module.relations, ring)
    if sol is None:
        raise HypothesisUnmetError("phi image witnesses are not divisible by E^t")
    s, r = b.height_window
    return make_bk_module(b.module, sol, (max(0, s - t), max(0, r - t)))


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


def _with_phi(mod, phi_matrix, r=None):
    """mod with the structure map phi_matrix, of height window (0, r) over
    TruncatedBK."""
    phi = module_map(phi_twist(mod), mod, phi_matrix)
    return BKModule(mod, phi, (0, r) if isinstance(mod.ring, TruncatedBK) else None)


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
    zmat = Mat.scalar(target_module.gens, ring.var_power(zprec), ring)
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
        hypothesis_met = meets_ramification_gate(ring, r)
        if not hypothesis_met:
            e = ring.eisenstein.ramification_e
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
    pb_rows = Mat.scalar(ses.b.module.gens, ring.from_int(ring.p), ring)
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
