import random

import pytest

from helpers import matrices_digest, random_tower
from lemmas import (
    bk_kernel_cokernel,
    canonical_decomposition,
    closure_check,
    connecting_maps,
    gr_extension_transfer,
    gr_tower_leaf,
    make_bk_map,
    make_bk_ses,
    twist,
    untwist,
)
from truncalg import bkrandom, breuil_kisin
from truncalg.bkrandom import (
    extend_by_mod_s1,
    random_mod_s1_leaf,
    scramble_node,
)
from truncalg.breuil_kisin import (
    BKModule,
    HeightCertificate,
    HeightFailure,
    TowerNode,
    check_height,
    extension_node,
    leaf,
    make_bk_module,
    phi_twist,
    structure_check,
    verify_tower,
)
from truncalg.cli import run_job
from truncalg.errors import (
    HypothesisUnmetError,
    InternalInconsistencyError,
    PrecisionError,
    UnsupportedRingError,
)
from truncalg.linalg import Mat
from truncalg.modules import (
    PresentedModule,
    decompose_elementary,
    direct_sum,
    is_zero_module,
    module_map,
)
from truncalg.rings import EisensteinSpec, TruncatedBK, TruncatedPowerSeries
from truncalg.schemas import jsonable, module_to_json
from truncalg.smodules import NotElementary, gr_p

BK = TruncatedBK(3, 3, 4)


def test_height_identity_phi():
    m = PresentedModule.cyclic(BK, BK.from_int(3))
    b = make_bk_module(m, Mat(1, 1, [[BK.one]]), (0, 0))
    assert isinstance(check_height(b, 0, 0), HeightCertificate)


def test_height_mult_by_e():
    m = PresentedModule.cyclic(BK, BK.from_int(3))
    e = BK.eisenstein_element()
    b = make_bk_module(m, Mat(1, 1, [[e]]), (1, 1))
    assert isinstance(check_height(b, 1, 1), HeightCertificate)
    assert isinstance(check_height(b, 0, 0), HeightFailure)


def test_height_free_er():
    e = BK.eisenstein_element()
    for r in (0, 1):
        b = make_bk_module(PresentedModule.free(BK, 1),
                           Mat(1, 1, [[BK.pow(e, r)]]), (r, r))
        assert isinstance(check_height(b, r, r), HeightCertificate)
        if r:
            assert isinstance(check_height(b, 0, 0), HeightFailure)


def test_height_window_coherence():
    rng = random.Random(3)
    for _ in range(6):
        node = random_mod_s1_leaf(TruncatedBK(3, 2, 4), rng, r=1)
        b = node.bk
        if isinstance(check_height(b, 0, 1), HeightCertificate):
            # widening the window preserves certification
            assert isinstance(check_height(b, 0, 2), HeightCertificate)


def test_twist_coherence():
    # double twists need trusted z-precision 3, so M >= 7 at p = 3
    bk = TruncatedBK(3, 3, 7)
    m = PresentedModule.cyclic(bk, bk.from_int(3))
    b = make_bk_module(m, Mat(1, 1, [[bk.one]]), (0, 0))
    b1 = twist(b, 1)
    assert isinstance(check_height(b1, 1, 1), HeightCertificate)
    b2 = twist(b, 2)
    bb = twist(b1, 1)
    assert isinstance(check_height(b2, 2, 2), HeightCertificate)
    assert isinstance(check_height(bb, 2, 2), HeightCertificate)
    back = untwist(b1, 1)
    assert isinstance(check_height(back, 0, 0), HeightCertificate)
    with pytest.raises(HypothesisUnmetError):
        untwist(b, 1)


def test_trusted_precision_gate():
    bk = TruncatedBK(2, 2, 2)  # trusted z-precision 1
    m = PresentedModule.cyclic(bk, bk.from_int(2))
    b = make_bk_module(m, Mat(1, 1, [[bk.var_power(1)]]), (0, 1))
    with pytest.raises(PrecisionError):
        check_height(b, 0, 1)


def test_metamorphic_height_across_precision():
    # same data at M and pM: verdicts agree when the gate passes
    for m_small, m_big in ((4, 8),):
        bks = TruncatedBK(2, 3, m_small)
        bkb = TruncatedBK(2, 3, m_big)
        for phi_coeffs in ([1, 1], [1, 0], [3, 1]):
            ms = PresentedModule.cyclic(bks, bks.from_int(2))
            mb = PresentedModule.cyclic(bkb, bkb.from_int(2))
            ps = bks.from_coeffs([bks.scalar.from_int(c) for c in phi_coeffs])
            pb = bkb.from_coeffs([bkb.scalar.from_int(c) for c in phi_coeffs])
            bs = make_bk_module(ms, Mat(1, 1, [[ps]]), (0, 1))
            bb = make_bk_module(mb, Mat(1, 1, [[pb]]), (0, 1))
            vs = isinstance(check_height(bs, 0, 1), HeightCertificate)
            vb = isinstance(check_height(bb, 0, 1), HeightCertificate)
            assert vs == vb


def test_canonical_decomposition():
    m = PresentedModule.from_relation_rows(BK, 2, [[BK.from_int(9), BK.zero]])
    b = make_bk_module(m, Mat.identity(2, BK), (0, 0))
    cd = canonical_decomposition(b)
    assert cd.mbar_is_zero
    assert not is_zero_module(cd.torsion.module)
    from truncalg.smodules import decompose_over_s

    dec = decompose_over_s(cd.free.module)
    assert dec.free_rank == 1 and not dec.torsion_divisors
    # purely torsion module: free part vanishes
    mt = PresentedModule.cyclic(BK, BK.from_int(3))
    bt = make_bk_module(mt, Mat(1, 1, [[BK.one]]), (0, 0))
    cdt = canonical_decomposition(bt)
    assert is_zero_module(cdt.free.module)


def test_bk_kernel_cokernel_basic():
    q = PresentedModule.cyclic(BK, BK.from_int(3))
    b = make_bk_module(q, Mat(1, 1, [[BK.one]]), (0, 1))
    f0 = make_bk_map(b, b, Mat(1, 1, [[BK.zero]]))
    k, c, notes = bk_kernel_cokernel(f0, 1)
    assert not is_zero_module(k.module) and not is_zero_module(c.module)
    assert not notes
    fid = make_bk_map(b, b, Mat(1, 1, [[BK.one]]))
    k2, c2, _ = bk_kernel_cokernel(fid, 1)
    assert is_zero_module(k2.module) and is_zero_module(c2.module)


def test_bk_kernel_cokernel_refuses_s1():
    """Over S1 nothing would be certified, so the p-killed construction refuses."""
    s1 = TruncatedPowerSeries(3, 2)
    m = PresentedModule.free(s1, 1)
    obj = BKModule(m, module_map(phi_twist(m), m, Mat.identity(1, s1)))
    with pytest.raises(UnsupportedRingError):
        bk_kernel_cokernel(make_bk_map(obj, obj, Mat.identity(1, s1)), 1)


def test_bk_kernel_cokernel_z_mult_exploration():
    # equivariant z-multiplication forces heights beyond p-1: exploration mode
    bk = TruncatedBK(2, 2, 5)
    q = PresentedModule.cyclic(bk, bk.from_int(2))
    src = make_bk_module(q, Mat(1, 1, [[bk.var_power(2)]]), (0, 2))
    tgt = make_bk_module(q, Mat(1, 1, [[bk.var_power(1)]]), (0, 2))
    f = make_bk_map(src, tgt, Mat(1, 1, [[bk.var_power(1)]]))
    k, c, notes = bk_kernel_cokernel(f, 2)
    assert any("exploration" in n for n in notes)
    # z-torsion: the kernel is S/(p, z)
    assert gr_p(k.module, 0).divisors.torsion_divisors
    assert gr_p(c.module, 0).divisors.torsion_divisors


def test_phi_equivariance_checked():
    bk = TruncatedBK(3, 2, 4)
    q = PresentedModule.cyclic(bk, bk.from_int(3))
    src = make_bk_module(q, Mat(1, 1, [[bk.one]]), (0, 1))
    with pytest.raises(HypothesisUnmetError):
        make_bk_map(src, src, Mat(1, 1, [[bk.var_power(1)]]))


def test_connecting_maps_nonsplit_and_split():
    bk2 = TruncatedBK(2, 3, 2)
    a = PresentedModule.cyclic(bk2, bk2.from_int(2))
    mid = PresentedModule.cyclic(bk2, bk2.from_int(4))
    q = PresentedModule.cyclic(bk2, bk2.from_int(2))
    ba = make_bk_module(a, Mat(1, 1, [[bk2.one]]), (0, 1))
    bb = make_bk_module(mid, Mat(1, 1, [[bk2.one]]), (0, 1))
    bc = make_bk_module(q, Mat(1, 1, [[bk2.one]]), (0, 1))
    ses = make_bk_ses(ba, bb, bc, Mat(1, 1, [[bk2.from_int(2)]]), Mat(1, 1, [[bk2.one]]))
    cjs = connecting_maps(ses)
    from truncalg.modules import is_zero_map

    assert not is_zero_map(cjs[0][0].map)
    ds = direct_sum([a, q])
    bds = make_bk_module(ds, Mat.identity(2, bk2), (0, 1))
    ses2 = make_bk_ses(ba, bds, bc, Mat(1, 2, [[bk2.one, bk2.zero]]),
                       Mat(2, 1, [[bk2.zero], [bk2.one]]))
    assert all(is_zero_map(cj.map) for cj, _ in connecting_maps(ses2))


def test_gr_extension_transfer_both_kinds():
    bk2 = TruncatedBK(2, 3, 2)
    a = PresentedModule.cyclic(bk2, bk2.from_int(2))
    ba = make_bk_module(a, Mat(1, 1, [[bk2.one]]), (0, 1))
    mid = PresentedModule.cyclic(bk2, bk2.from_int(4))
    bb = make_bk_module(mid, Mat(1, 1, [[bk2.one]]), (0, 1))
    bc = make_bk_module(a, Mat(1, 1, [[bk2.one]]), (0, 1))
    ses = make_bk_ses(ba, bb, bc, Mat(1, 1, [[bk2.from_int(2)]]), Mat(1, 1, [[bk2.one]]))
    towers = {j: gr_tower_leaf(ba, j) for j in range(3)}
    certs = gr_extension_transfer(ses, "mod_s1", towers, 1)
    assert sorted(certs) == [0, 1, 2]
    # free quotient: gr(middle) = gr(sub) + one free S1 line per slice
    fr = PresentedModule.free(bk2, 1)
    bfr = make_bk_module(fr, Mat(1, 1, [[bk2.eisenstein_element()]]), (1, 1))
    dsf = direct_sum([a, fr])
    bdsf = make_bk_module(dsf, Mat(2, 2, [[bk2.one, bk2.zero],
                                          [bk2.zero, bk2.eisenstein_element()]]), (0, 1))
    sesf = make_bk_ses(ba, bdsf, bfr, Mat(1, 2, [[bk2.one, bk2.zero]]),
                       Mat(2, 1, [[bk2.zero], [bk2.one]]))
    certsf = gr_extension_transfer(sesf, "free", towers, 1)
    assert sorted(certsf) == [0, 1, 2]
    for j in range(3):
        slb = gr_p(bdsf.module, j)
        sla = gr_p(ba.module, j)
        assert slb.divisors.free_rank == sla.divisors.free_rank + 1


def test_closure_check_tower_length_two():
    bk2 = TruncatedBK(2, 3, 2)
    a = PresentedModule.cyclic(bk2, bk2.from_int(2))
    ba = make_bk_module(a, Mat(1, 1, [[bk2.one]]), (0, 1))
    mid = PresentedModule.cyclic(bk2, bk2.from_int(4))
    bb = make_bk_module(mid, Mat(1, 1, [[bk2.one]]), (0, 1))
    ses = make_bk_ses(ba, bb, ba, Mat(1, 1, [[bk2.from_int(2)]]), Mat(1, 1, [[bk2.one]]))
    tower = extension_node(bb, leaf(ba), ses.inject, leaf(ba), ses.surject)
    ok, why = verify_tower(tower, 1, bar=True)
    assert ok, why
    # f = 0 into the tower: image 0, cokernel = N with its own tower shape
    f0 = make_bk_map(ba, bb, Mat(1, 1, [[bk2.zero]]))
    im_t, cok_t, _ = closure_check(f0, tower, 1)
    assert is_zero_module(im_t.bk.module) or im_t.kind != "extension"
    # composite inclusion S/p -> S/p^2 through the tower
    f = make_bk_map(ba, bb, Mat(1, 1, [[bk2.from_int(2)]]))
    im_t2, cok_t2, _ = closure_check(f, tower, 1)
    assert im_t2 is not None and cok_t2 is not None


def _p_killed_line():
    """S/p over BK with phi = 1: p-killed, S1-free, of height window (0, 1)."""
    return make_bk_module(PresentedModule.cyclic(BK, BK.from_int(3)), Mat(1, 1, [[BK.one]]),
                          (0, 1))


def test_verify_tower_refuses_a_stage_that_is_not_exact():
    """Both layers are in the category, the inclusion is injective and the
    projection surjective, but the projection does not kill the included
    line: the stage is refused as not exact."""
    a = _p_killed_line()
    two = make_bk_module(direct_sum([a.module, a.module]), Mat.identity(2, BK), (0, 1))
    incl = module_map(a.module, two.module, Mat(1, 2, [[BK.one, BK.zero]]))
    proj = module_map(two.module, a.module, Mat(2, 1, [[BK.one], [BK.zero]]))
    node = extension_node(two, leaf(a), incl, leaf(a), proj)
    assert verify_tower(node, 1) == (False, "tower stage not exact")


def test_check_height_refuses_a_wrong_upper_certificate(monkeypatch):
    """A solve that returns a wrong certificate for E^r M inside Im(phi) is
    caught by the product check, not passed on as a certificate."""
    b = make_bk_module(PresentedModule.free(BK, 1), Mat(1, 1, [[BK.one]]), (0, 1))
    real, calls = breuil_kisin.solve_left_mod, []

    def zero_first_solution(*args):
        sol = real(*args)
        calls.append(sol)
        return Mat.zero(sol.rows, sol.cols, BK) if len(calls) == 1 else sol

    monkeypatch.setattr(breuil_kisin, "solve_left_mod", zero_first_solution)
    with pytest.raises(InternalInconsistencyError, match="height upper certificate"):
        check_height(b, 0, 1)


def test_check_height_refuses_a_wrong_lower_certificate(monkeypatch):
    """At s = 1 the lower certificate is solved; a solve that returns a wrong
    one is caught by the product check.  Unpatched, phi = E on the free line
    has height exactly 1, with both certificates the identity."""
    e = BK.eisenstein_element()
    b = make_bk_module(PresentedModule.free(BK, 1), Mat(1, 1, [[e]]), (1, 1))
    cert = check_height(b, 1, 1)
    assert isinstance(cert, HeightCertificate)
    assert cert.upper == cert.lower == Mat.identity(1, BK)
    real, calls = breuil_kisin.solve_left_mod, []

    def zero_second_solution(*args):
        sol = real(*args)
        calls.append(sol)
        return Mat.zero(sol.rows, sol.cols, BK) if len(calls) == 2 else sol

    monkeypatch.setattr(breuil_kisin, "solve_left_mod", zero_second_solution)
    with pytest.raises(InternalInconsistencyError, match="height lower certificate"):
        check_height(b, 1, 1)


def test_check_height_at_s0_takes_phi_as_the_lower_certificate(monkeypatch):
    """E^0 . M = M: at s = 0 the lower certificate is phi's own matrix, and
    only the upper side is solved."""
    b = _p_killed_line()
    real, calls = breuil_kisin.solve_left_mod, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(breuil_kisin, "solve_left_mod", counting)
    cert = check_height(b, 0, 1)
    assert cert.lower == b.phi.matrix and len(calls) == 1


def _two_lines():
    a = _p_killed_line()
    return a, make_bk_module(direct_sum([a.module, a.module]), Mat.identity(2, BK), (0, 1))


def test_verify_tower_refuses_an_inclusion_that_is_not_injective():
    """The zero map of a line into two lines is refused at the inclusion,
    before exactness is asked."""
    a, two = _two_lines()
    incl = module_map(a.module, two.module, Mat(1, 2, [[BK.zero, BK.zero]]))
    proj = module_map(two.module, a.module, Mat(2, 1, [[BK.zero], [BK.one]]))
    node = extension_node(two, leaf(a), incl, leaf(a), proj)
    assert verify_tower(node, 1) == (False, "tower inclusion not injective")


def test_verify_tower_refuses_a_projection_that_is_not_surjective():
    """The zero map of two lines onto a line is refused at the projection,
    before exactness is asked."""
    a, two = _two_lines()
    incl = module_map(a.module, two.module, Mat(1, 2, [[BK.one, BK.zero]]))
    proj = module_map(two.module, a.module, Mat(2, 1, [[BK.zero], [BK.zero]]))
    node = extension_node(two, leaf(a), incl, leaf(a), proj)
    assert verify_tower(node, 1) == (False, "tower projection not surjective")


def test_verify_tower_free_layer_clauses():
    """A free layer is refused outside a bar-tower, a p-killed line claimed
    free is refused as not free, and the free line with phi = p is refused
    for its height; the free line with phi = 1 passes."""
    free = PresentedModule.free(BK, 1)
    unit = make_bk_module(free, Mat(1, 1, [[BK.one]]), (0, 1))
    by_p = make_bk_module(free, Mat(1, 1, [[BK.from_int(3)]]), (0, 1))
    assert verify_tower(leaf(unit, "free"), 1) == (False, "free layers only allowed in bar-towers")
    assert verify_tower(leaf(unit, "free"), 1, bar=True) == (True, None)
    assert verify_tower(leaf(_p_killed_line(), "free"), 1, bar=True) == (
        False, "claimed free layer is not free")
    assert verify_tower(leaf(by_p, "free"), 1, bar=True) == (False, "free layer height fails")


def test_structure_check_raises_when_the_theorem_is_contradicted(monkeypatch):
    """Under the ramification gate, with a verified tower, a module that does
    not decompose contradicts the structure theorem and is raised; without
    a tower the same failure is reported."""
    a = _p_killed_line()
    monkeypatch.setattr(breuil_kisin, "decompose_over_s",
                        lambda m, _trace=None: NotElementary(0, {}))
    with pytest.raises(InternalInconsistencyError, match="structure theorem predicts"):
        structure_check(a, 1, tower=leaf(a))
    res = structure_check(a, 1)
    assert res.hypothesis_met and res.counterexample.failing_j == 0


def test_structure_check_and_counterexample():
    bk2 = TruncatedBK(2, 3, 2)
    spz = PresentedModule.from_relation_rows(
        bk2, 1, [[bk2.from_int(2)], [bk2.var_power(1)]])
    bspz = make_bk_module(spz, Mat(1, 1, [[bk2.one]]), (0, 1))
    res = structure_check(bspz, 1)
    assert res.elementary is None
    assert isinstance(res.counterexample, NotElementary)
    assert res.counterexample.failing_j == 0
    # free module with height <= r: rank recovered, no torsion
    b = make_bk_module(PresentedModule.free(BK, 2), Mat.identity(2, BK), (0, 0))
    res2 = structure_check(b, 1)
    assert res2.elementary.free_rank == 2 and not res2.elementary.torsion_divisors


@pytest.mark.parametrize("p", [3, 5])
def test_structure_theorem_random_towers(p):
    rng = random.Random(900 + p)
    for _ in range(8):
        tw = random_tower(p, rng, depth=rng.randint(1, 3), n=2, r=1)
        ok, why = verify_tower(tw, 1, bar=True)
        assert ok, why
        res = structure_check(tw.bk, 1, tower=tw)
        assert res.hypothesis_met
        _assert_exponents_match_gr_ranks(tw, res)


def _assert_exponents_match_gr_ranks(tw, res):
    """The decomposition's torsion exponents and free rank are the ones the
    gr_p ranks predict: gr rank drops from j-1 to j count exponent j."""
    assert res.elementary is not None
    exps = []
    for j in range(1, len(res.gr_ranks)):
        exps.extend([j] * (res.gr_ranks[j - 1] - res.gr_ranks[j]))
    got = sorted(tw.bk.ring.p_valuation(d) for d in res.elementary.torsion_divisors)
    assert got == sorted(exps)
    assert res.elementary.free_rank == res.gr_ranks[-1]


def _ramified_tower(p, coeffs, r, rng, m=None):
    """A scrambled depth-2 tower of p-killed layers over TruncatedBK(p, 2, M)
    with Eisenstein polynomial coeffs (constant term first), M = e*r*p + 1
    unless given: phi entries E^t with t <= r have z-degree at most e*r,
    below the Frobenius trusted precision ceil(M/p) = e*r + 1."""
    e = len(coeffs) - 1
    ring = TruncatedBK(p, 2, m or e * r * p + 1, EisensteinSpec(coeffs, e))
    node = random_mod_s1_leaf(ring, rng, r=r)
    node = extend_by_mod_s1(node, random_mod_s1_leaf(ring, rng, r=r), rng)
    return scramble_node(node, rng)


def _bk_json(bk):
    return {"module": module_to_json(bk.module), "phi": jsonable(bk.phi.matrix),
            "height_window": list(bk.height_window)}


def _tower_json(node):
    out = {"kind": node.kind, "bk": _bk_json(node.bk)}
    if node.kind == "extension":
        out.update(sub=_tower_json(node.sub), quot=_tower_json(node.quot),
                   incl=jsonable(node.incl.matrix), proj=jsonable(node.proj.matrix))
    return out


# The gate is e*r < p-1, in `meets_ramification_gate`.  The
# paper's ramified hypothesis reads 2e*dim < p-1; how the height r relates
# to dim is left to the paper (compare Bhatt-Morrow-Scholze, "Integral
# p-adic Hodge theory", 2018), so these towers test the gate as coded.
@pytest.mark.parametrize("p,coeffs,count", [
    (5, (-5, 5, 1), 4),      # E = z^2 + 5z - 5, e = 2, M = 11
    (7, (-7, 0, 0, 1), 3),   # E = z^3 - 7, e = 3, M = 22
], ids=["p5_e2", "p7_e3"])
def test_ramified_towers_meeting_the_gate_decompose(p, coeffs, count):
    rng = random.Random(2024)
    for _ in range(count):
        tw = _ramified_tower(p, coeffs, 1, rng)
        res = structure_check(tw.bk, 1, tower=tw)
        assert res.hypothesis_met
        _assert_exponents_match_gr_ranks(tw, res)


def test_ramified_towers_beyond_the_gate_are_exploration():
    """p = 5, e = 2, r = 2: e*r = p-1, so the hypothesis is not met."""
    rng = random.Random(2024)
    for _ in range(2):
        tw = _ramified_tower(5, (-5, 5, 1), 2, rng)
        assert not structure_check(tw.bk, 2, tower=tw).hypothesis_met


def test_ramified_tower_below_the_trusted_precision_is_refused():
    """E = z^3 - 11 at M = 23 < e*r*p + 1: phi's z-degree 3 reaches the
    trusted precision ceil(23/11) = 3, and the CLI exits 3."""
    tw = _ramified_tower(11, (-11, 0, 0, 1), 1, random.Random(2024), m=23)
    with pytest.raises(PrecisionError, match="z-degree 3 .* trusted precision 3"):
        structure_check(tw.bk, 1, tower=tw)
    report, code = run_job({"command": "bk-structure", "input": {
        "bk": _bk_json(tw.bk), "r": 1, "tower": _tower_json(tw)}})
    assert code == 3 and report["exit_code"] == 3


def test_random_tower_inclusions_are_injective():
    """Seed 29 once drew a mixing block whose extension did not contain its
    base: verify_tower rejected the tower as not injective."""
    rng = random.Random(29)
    p, depth = rng.choice([3, 5]), rng.randint(2, 3)
    tw = random_tower(p, rng, depth=depth, n=2, r=1)
    ok, why = verify_tower(tw, 1, bar=True)
    assert ok, why


def _tower_matrices(node):
    out = [node.bk.module.relations, node.bk.phi.matrix]
    if node.kind == "extension":
        out += [node.incl.matrix, node.proj.matrix]
        out += _tower_matrices(node.sub) + _tower_matrices(node.quot)
    return out


# sha256 of every node matrix of random_tower(p, Random(s), depth=3): the
# generator feeds the benchmark's tower_check pools, so a refactor of the
# extension steps must leave the drawn towers as they are
TOWER_DIGESTS = {
    (3, 0): "035230e3eb2b8425e954d8a6e408f5e6433d9cb656e100ded2ef6db627e65fa6",
    (3, 1): "55179ef977cb659c9e2b7549569a7eecf49298ae124a9630e11a1a995f55f093",
    (3, 2): "8f21e71c9c784e71549fca980c96384791eaa3f7a2b2ffb1526bed7e0561368d",
    (3, 3): "4df2dd66f05acebda1bcf9ec28cb87e100a206056eed8f0c2a7304d2b90843fa",
    (5, 0): "528e090f886a1cca585efd3d1dee5ebde0765cc1268507852e3ce7241ee73a32",
    (5, 1): "e941189e1a29d1ca39a60cc272badfd76fcf5cb54f3a392dadbd2b7846d28b1e",
    (5, 2): "b6b88b553cc449897d5e5c81623c53142a2a18830e8c898c8327972367103ccc",
    (5, 3): "50240d66f1631b89ab1c3abc9120b7698a1657dc26e53d83ab1d9a1a1808b7bc",
}


@pytest.mark.parametrize("p,seed", sorted(TOWER_DIGESTS))
def test_random_tower_matrices_are_pinned(p, seed):
    tw = random_tower(p, random.Random(seed), depth=3)
    assert matrices_digest(_tower_matrices(tw)) == TOWER_DIGESTS[p, seed]


def test_extend_by_mod_s1_raises_programming_errors(monkeypatch):
    """Only a not-well-defined candidate costs an attempt: any other error
    in the extension step propagates instead of changing the drawn tower."""
    def broken(*args):
        raise AssertionError("mis-shaped block")

    rng = random.Random(5)
    ring = TruncatedBK(3, 2, 4)
    base, top = random_mod_s1_leaf(ring, rng), random_mod_s1_leaf(ring, rng)
    monkeypatch.setattr(bkrandom, "make_bk_module", broken)
    with pytest.raises(AssertionError, match="mis-shaped"):
        extend_by_mod_s1(base, top, rng)


def test_frobenius_compat_of_connecting_maps_random():
    # connecting_maps raises on any Frobenius-compat failure; run a few towers
    rng = random.Random(41)
    bk2 = TruncatedBK(2, 3, 3)
    a = PresentedModule.cyclic(bk2, bk2.from_int(2))
    ba = make_bk_module(a, Mat(1, 1, [[bk2.one]]), (0, 1))
    mid = PresentedModule.cyclic(bk2, bk2.from_int(4))
    bb = make_bk_module(mid, Mat(1, 1, [[bk2.one]]), (0, 1))
    ses = make_bk_ses(ba, bb, ba, Mat(1, 1, [[bk2.from_int(2)]]), Mat(1, 1, [[bk2.one]]))
    assert len(connecting_maps(ses)) == 3


def test_s1_closure_check_split_extension():
    """The extension branch of closure_check over S1 on a split two-layer tower:
    S1^2 with phi = 1 over its coordinate lines, mapped by the identity."""
    s1 = TruncatedPowerSeries(2, 3)

    def obj(rank):
        m = PresentedModule.free(s1, rank)
        return BKModule(m, module_map(phi_twist(m), m, Mat.identity(rank, s1)))

    whole, line = obj(2), obj(1)
    tower = TowerNode(
        whole, "extension",
        sub=leaf(line), incl=module_map(line.module, whole.module,
                                        Mat(1, 2, [[s1.one, s1.zero]])),
        quot=leaf(line), proj=module_map(whole.module, line.module,
                                         Mat(2, 1, [[s1.zero], [s1.one]])))
    f = make_bk_map(whole, whole, Mat.identity(2, s1))
    im_tower, cok_tower, _ = closure_check(f, tower, 1)
    assert im_tower.kind == "extension" and cok_tower.kind == "extension"
    dec = decompose_elementary(im_tower.bk.module)
    assert dec.free_rank == 2 and not dec.torsion_divisors
    assert is_zero_module(cok_tower.bk.module)
    assert is_zero_module(cok_tower.sub.bk.module)
    assert is_zero_module(cok_tower.quot.bk.module)
