import random
from fractions import Fraction

import pytest

from helpers import reference_verify_exact_at, scrambled_elementary
from lemmas import glue_splitting, kernel, subquotient, torsion_part
from truncalg.bruteforce import FiniteModule
from truncalg import linalg, modules
from truncalg.errors import (
    InternalInconsistencyError,
    NotElementaryError,
    NotWellDefinedError,
    UnsupportedRingError,
)
from truncalg.linalg import Mat, SNFResult, kernel_left
from truncalg.modules import (
    ElementaryDecomposition,
    NotElementary,
    PresentedModule,
    build_ses,
    cokernel,
    compose,
    decompose,
    decompose_elementary,
    direct_sum,
    failure_primes,
    elementary_divisors,
    identity_map,
    is_injective,
    is_surjective,
    is_zero_map,
    is_zero_module,
    maps_equal,
    module_from_divisors,
    module_map,
    retraction_test,
    rows_are_zero_classes,
    split_test,
    structure_divisors,
    support_primes,
    verify_exact_at,
    zero_map,
)
from truncalg.rings import (
    LocalizedIntegers,
    TruncatedBK,
    TruncatedLambda,
    TruncatedPadic,
    TruncatedPowerSeries,
    factorint,
    prime_valuation,
    primerange,
)

ZP3 = TruncatedPadic(2, 3)
ZP26 = TruncatedPadic(2, 6)
ZP34 = TruncatedPadic(3, 4)
LAM = TruncatedLambda((2,), 2)


def test_module_map_checks_well_definedness():
    m = PresentedModule.cyclic(ZP3, 2)
    n = PresentedModule.cyclic(ZP3, 4)
    # 1: Z/2 -> Z/4 is not well defined
    with pytest.raises(NotWellDefinedError):
        module_map(m, n, Mat(1, 1, [[1]]))
    # 2: Z/2 -> Z/4 is
    f = module_map(m, n, Mat(1, 1, [[2]]))
    assert f.checked
    assert rows_are_zero_classes(n, m.relations.mul(f.matrix, ZP3))
    assert not module_map(m, n, Mat(1, 1, [[1]]), check=False).checked


def test_module_map_check_is_a_membership_test(monkeypatch):
    """module_map(check=True) decides well-definedness by a membership
    test: every solve it makes has lead 0, so no unknown is formed, and the
    ill-defined Z/2 -> Z/4 by 1 still raises.  The memo is cleared first, so
    no verdict kept by an earlier test answers; the BK case 3 . 3 = 0 is a
    zero target, which lies in every span with no solve."""
    linalg.base_snf.cache_clear()
    leads = []
    solve = linalg._solve_snf

    def recording(snf, b, ring, failures, lead):
        leads.append(lead)
        return solve(snf, b, ring, failures, lead)

    monkeypatch.setattr(linalg, "_solve_snf", recording)
    m, n = PresentedModule.cyclic(ZP3, 2), PresentedModule.cyclic(ZP3, 4)
    with pytest.raises(NotWellDefinedError):
        module_map(m, n, Mat(1, 1, [[1]]))
    assert module_map(m, n, Mat(1, 1, [[2]])).checked
    bk = TruncatedBK(3, 2, 2)
    src = PresentedModule.cyclic(bk, bk.from_int(3))
    tgt = PresentedModule.cyclic(bk, bk.from_int(9))
    assert module_map(src, tgt, Mat(1, 1, [[bk.from_int(3)]])).checked
    with pytest.raises(NotWellDefinedError):
        module_map(src, tgt, Mat(1, 1, [[bk.one]]))
    assert leads == [0, 0, 0]


def test_subquotient_mult_p():
    m = PresentedModule.cyclic(ZP3, 4)  # Z/p^2 over Z/p^3
    f = module_map(m, m, Mat(1, 1, [[2]]))
    sq = subquotient(f)
    assert structure_divisors(sq.kernel).profile() == (1,)
    assert structure_divisors(sq.image).profile() == (1,)
    assert structure_divisors(sq.cokernel).profile() == (1,)


def test_subquotient_zero_map():
    m = PresentedModule.cyclic(ZP3, 4)
    sq = subquotient(zero_map(m, m))
    assert structure_divisors(sq.kernel).profile() == (2,)
    assert structure_divisors(sq.cokernel).profile() == (2,)


def _base_structure(m):
    """Restriction-of-scalars oracle: (free rank, exponents) over the base."""
    from truncalg.linalg import expand_matrix

    bk = m.ring
    base = bk.scalar
    rel = expand_matrix(m.relations, bk) if m.relations.rows else Mat(0, m.gens * bk.mlen, [])
    dec = decompose_elementary(PresentedModule(base, m.gens * bk.mlen, rel))
    return dec.free_rank, dec.divisors.exponents()


def test_subquotient_mult_z_over_bk():
    # mult by z on the whole ring at p=3,N=2,M=2: kernel = coker = S/(p^2, z)
    bk = TruncatedBK(3, 2, 2)
    m = PresentedModule.free(bk, 1)
    f = module_map(m, m, Mat(1, 1, [[bk.var_power(1)]]))
    sq = subquotient(f)
    # S/(p^2, z) restricted to Z/9 is one free Z/9 summand
    assert _base_structure(sq.kernel) == (1, [])
    assert _base_structure(sq.cokernel) == (1, [])
    assert _base_structure(sq.image) == (1, [])


def test_subquotient_vs_element_enumeration():
    # rings with <= 3^4 elements: exhaustive kernel/image check
    rng = random.Random(31)
    ring = TruncatedPadic(3, 2)
    for _ in range(12):
        g1, g2 = rng.randint(1, 2), rng.randint(1, 2)
        m1 = PresentedModule(ring, g1, Mat(1, g1, [[ring.from_int(rng.randint(0, 8))
                                                    for _ in range(g1)]]))
        m2 = PresentedModule(ring, g2, Mat(1, g2, [[ring.from_int(rng.randint(0, 8))
                                                    for _ in range(g2)]]))
        try:
            f = module_map(m1, m2, Mat(g1, g2, [[ring.from_int(rng.randint(0, 8))
                                                 for _ in range(g2)] for _ in range(g1)]))
        except NotWellDefinedError:
            continue
        sq = subquotient(f)
        fm1, fm2 = FiniteModule(m1), FiniteModule(m2)
        img = {fm1.apply_matrix(e, f.matrix, fm2) for e in fm1.elements}
        ker = {e for e in fm1.elements if fm1.apply_matrix(e, f.matrix, fm2) == fm2.zero}
        kmod, kincl = kernel(f)
        kspan = fm1.subgroup([fm1.rep(tuple(r)) for r in kincl.matrix.data]) \
            if kincl.matrix.rows else {fm1.zero}
        assert kspan == ker
        ispan = fm2.subgroup(img)
        cok_fm = FiniteModule(sq.cokernel)
        assert len(cok_fm.elements) * len(ispan) == len(fm2.elements)


def test_torsion_part_examples():
    m = module_from_divisors(ZP3, [ZP3.from_int(4)], 1)
    t, incl, q = torsion_part(m)
    assert structure_divisors(t).profile() == (2,)
    assert structure_divisors(q).free_rank == 1
    fr = PresentedModule.free(ZP3, 2)
    t2, _, _ = torsion_part(fr)
    assert is_zero_module(t2)
    m3 = PresentedModule(TruncatedPadic(2, 4), 2,
                         Mat(2, 2, [[2, 1], [0, 4]]))
    t3, _, _ = torsion_part(m3)
    assert elementary_divisors(t3).length() == elementary_divisors(m3).length()


def test_torsion_part_lambda_unsupported():
    with pytest.raises(UnsupportedRingError):
        torsion_part(PresentedModule.free(LAM, 1))


def test_torsion_length_examples():
    assert elementary_divisors(module_from_divisors(ZP26, [4, 8], 0)).length() == 5
    assert elementary_divisors(PresentedModule.free(ZP26, 3)).length() == 0
    m = PresentedModule(ZP26, 2, Mat(2, 2, [[2, 4], [6, 8]]))
    assert elementary_divisors(m).length() == 3


def test_decompose_elementary_examples():
    dec = decompose_elementary(module_from_divisors(TruncatedPadic(2, 5), [2, 4], 0))
    assert dec.free_rank == 0 and dec.divisors.exponents() == [1, 2]
    dec2 = decompose_elementary(PresentedModule.free(ZP26, 2))
    assert dec2.free_rank == 2 and not dec2.torsion_divisors
    dec3 = decompose_elementary(PresentedModule(ZP26, 2, Mat(2, 2, [[2, 4], [6, 8]])))
    assert dec3.divisors.exponents() == [1, 2] and dec3.free_rank == 0
    assert dec3.verify()


def test_verify_rejects_a_witness_that_is_not_well_defined():
    """Z/3 against the canonical Z/9 over Z/27, both witnesses [[1]]: both
    composites are the identity, but 1: Z/3 -> Z/9 does not send the
    relation 3 into (9), so the pair certifies no isomorphism."""
    ring = TruncatedPadic(3, 3)
    z3 = PresentedModule.cyclic(ring, ring.from_int(3))
    z9 = PresentedModule.cyclic(ring, ring.from_int(9))
    one = Mat(1, 1, [[ring.one]])
    dec = ElementaryDecomposition(0, [ring.from_int(9)], module_map(z3, z9, one, check=False),
                                  module_map(z9, z3, one, check=False), z9)
    assert maps_equal(compose(dec.to_canonical, dec.from_canonical), identity_map(z3))
    assert maps_equal(compose(dec.from_canonical, dec.to_canonical), identity_map(z9))
    assert not dec.verify()
    good = decompose_elementary(z3)
    assert good.verify() and good.divisors.exponents() == [1]


@pytest.mark.parametrize("ring", [
    TruncatedPadic(2, 3), TruncatedPadic(3, 2), TruncatedPowerSeries(3, 3),
    LocalizedIntegers((2,))])
def test_elementary_divisors_agree_with_decompose_elementary(ring):
    """The witness-free reader gives decompose_elementary's free rank,
    divisors and exponents, on 0-generator, free and random modules."""
    rng = random.Random(1414)
    seen = set()
    for k in range(24):
        g = k % 4
        nrel = 0 if k % 3 == 1 else rng.randint(1, 3)
        rows = [[_random_element(ring, rng) for _ in range(g)] for _ in range(nrel)]
        m = PresentedModule(ring, g, Mat(nrel, g, rows))
        divs = elementary_divisors(m)
        dec = decompose_elementary(m)
        assert (divs.free_rank, divs.torsion_divisors) == (dec.free_rank, dec.torsion_divisors)
        if isinstance(ring, LocalizedIntegers):
            for reading in (divs, dec.divisors):
                with pytest.raises(UnsupportedRingError):
                    reading.exponents()
        else:
            assert divs.exponents() == dec.divisors.exponents()
        seen.add("no generators" if g == 0 else "free" if nrel == 0
                 else "torsion" if divs.torsion_divisors else "other")
    assert {"no generators", "free", "torsion"} <= seen, seen


def test_elementary_divisors_check_the_snf(monkeypatch):
    """A memoised SNF with one wrong divisor fails L . A . R = D: the reader
    refuses it instead of reading Z/4 + Z/4 off Z/2 + Z/4."""
    m = PresentedModule(ZP26, 2, Mat(2, 2, [[2, 4], [6, 8]]))
    assert elementary_divisors(m).exponents() == [1, 2]
    memo = linalg.base_snf

    def corrupted(mat, ring):
        snf = memo(mat, ring)
        return SNFResult(snf.left, snf.right,
                         [ring.mul(ring.from_int(2), snf.divisors[0])] + snf.divisors[1:])

    monkeypatch.setattr(linalg, "base_snf", corrupted)
    with pytest.raises(InternalInconsistencyError, match="L . A . R = D"):
        elementary_divisors(m)
    with pytest.raises(InternalInconsistencyError):
        decompose_elementary(m)


def test_decompose_localized_integers():
    zl = LocalizedIntegers((2,))
    m = PresentedModule(zl, 2, Mat(2, 2, [[Fraction(6), Fraction(0)],
                                          [Fraction(0), Fraction(10)]]))
    dec = decompose_elementary(m)
    # dividing-chain form: Z/3 + Z/5 = Z/15 after the S-units are stripped
    assert sorted(int(d) for d in dec.torsion_divisors) == [15]


def test_exponents_refused_over_localized_integers():
    """Z[1/S] has no single uniformizer: exponents() refuses and names the
    prime-power reader instead of failing on a missing valuation."""
    zl = LocalizedIntegers((2,))
    m = PresentedModule.cyclic(zl, Fraction(9))
    dec = decompose_elementary(m)
    with pytest.raises(UnsupportedRingError, match="ElementaryDivisors.profile"):
        dec.divisors.exponents()
    assert structure_divisors(m).profile() == ((3, 2),)


def test_split_tests():
    a = PresentedModule.cyclic(ZP3, 2)
    b = PresentedModule.cyclic(ZP3, 4)
    c = PresentedModule.cyclic(ZP3, 2)
    ses = build_ses(a, b, c, Mat(1, 1, [[2]]), Mat(1, 1, [[1]]))
    v = split_test(ses)
    assert not v.split and v.obstruction
    ds = direct_sum([a, c])
    ses2 = build_ses(a, ds, c, Mat(1, 2, [[1, 0]]), Mat(2, 1, [[0], [1]]))
    v2 = split_test(ses2)
    assert v2.split
    # Z/p + Z/p middle: splits
    dsp = direct_sum([a, a])
    ses3 = build_ses(a, dsp, a, Mat(1, 2, [[1, 1]]), Mat(2, 1, [[1], [1]]))
    assert split_test(ses3).split


def test_split_vs_exhaustive_sections():
    """Soundness and completeness on a ring with <= 256 elements."""
    ring = TruncatedPadic(2, 3)
    rng = random.Random(8)
    checked = 0
    for _ in range(40):
        da = 2 ** rng.randint(1, 2)
        dc = 2 ** rng.randint(1, 2)
        a = PresentedModule.cyclic(ring, ring.from_int(da))
        c = PresentedModule.cyclic(ring, ring.from_int(dc))
        # random extension value v in A
        v = ring.from_int(rng.randint(0, 7))
        b = PresentedModule(ring, 2, Mat(2, 2, [[dc % 8, (-v) % 8], [0, da % 8]]))
        try:
            ses = build_ses(a, b, c, Mat(1, 2, [[0, 1]]), Mat(2, 1, [[1], [0]]))
        except Exception:
            continue
        verdict = split_test(ses).split
        # exhaustive: a section is determined by the image of c's generator
        found = False
        for lam in range(8):
            for alpha in range(8):
                cand = Mat(1, 2, [[lam, alpha]])
                try:
                    sec = module_map(c, b, cand)
                except NotWellDefinedError:
                    continue
                from truncalg.modules import compose, identity_map, maps_equal

                if maps_equal(compose(sec, ses.surject), identity_map(c)):
                    found = True
                    break
            if found:
                break
        assert found == verdict
        checked += 1
    assert checked >= 20


def test_retraction_test():
    ring = TruncatedPadic(2, 3)
    m = direct_sum([PresentedModule.cyclic(ring, 2), PresentedModule.free(ring, 1)])
    sub = PresentedModule.cyclic(ring, 2)
    incl = module_map(sub, m, Mat(1, 2, [[1, 0]]))
    assert retraction_test(incl).split
    # p Z/p^2 inside Z/p^2 does not retract
    big = PresentedModule.cyclic(ring, 4)
    incl2 = module_map(PresentedModule.cyclic(ring, 2), big, Mat(1, 1, [[2]]))
    assert not retraction_test(incl2).split


ZERO_RINGS = [ZP26, TruncatedPowerSeries(3, 2), TruncatedBK(3, 2, 2), LocalizedIntegers((2,)),
              LAM]


def _zero_module(ring, rng):
    """A seeded presentation of 0: the rows of an invertible matrix (the
    identity under random row operations) with random rows mixed in, or
    no generators at all."""
    g = rng.choice([0, 1, 2, 3])
    rows = [list(r) for r in Mat.identity(g, ring).data]
    for _ in range(3 * g):
        i, j = rng.randrange(g), rng.randrange(g)
        if i != j:
            c = _random_element(ring, rng)
            rows[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    rows += [[_random_element(ring, rng) for _ in range(g)] for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return PresentedModule(ring, g, Mat(len(rows), g, rows))


def _zero_module_maps(ring, seed, count=12):
    """Seeded maps out of a zero module into a random module: their matrix
    rows are random combinations of the target's relations, so a matrix is
    often nonzero although the map is zero."""
    rng = random.Random(seed)
    maps = []
    for _ in range(count):
        a = _zero_module(ring, rng)
        gb = rng.randint(1, 3)
        brel = [[_random_element(ring, rng) for _ in range(gb)] for _ in range(rng.randint(0, 2))]
        b = PresentedModule(ring, gb, Mat(len(brel), gb, brel))
        coeffs = Mat(a.gens, len(brel), [[_random_element(ring, rng) for _ in brel]
                                         for _ in range(a.gens)])
        mat = coeffs.mul(b.relations, ring) if brel else Mat.zero(a.gens, gb, ring)
        maps.append(module_map(a, b, mat))
    return maps


def _refuse(*args, **kwargs):
    raise AssertionError("a zero module reached a solve")


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=repr)
def test_zero_submodule_retracts_with_no_hom_system(monkeypatch, ring):
    """Hom(B, 0) = 0: a zero submodule retracts by the zero map, which
    `retraction_test` returns with no Kronecker system."""
    incls = _zero_module_maps(ring, 4242)
    monkeypatch.setattr(modules, "_hom_solve", _refuse)
    for incl in incls:
        verdict = retraction_test(incl)
        assert verdict.split and verdict.section.matrix == Mat.zero(
            incl.target.gens, incl.source.gens, ring)
        assert maps_equal(compose(incl, verdict.section), identity_map(incl.source))


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=repr)
def test_hom_system_retracts_every_zero_submodule(ring):
    """The Kronecker route, which the zero test now skips, finds a
    retraction of the same seeded zero submodules: the early return never
    answers a question the solve would answer otherwise."""
    incls = _zero_module_maps(ring, 4242)
    assert any(not incl.matrix.is_zero(ring) for incl in incls)
    for incl in incls:
        a = incl.source
        xmat, failures = modules._hom_solve(incl.target, a, incl.matrix,
                                            Mat.identity(a.gens, ring), a.relations)
        assert xmat is not None and failures == []
        rho = module_map(incl.target, a, xmat)
        assert maps_equal(compose(incl, rho), identity_map(a))
        assert maps_equal(rho, zero_map(incl.target, a))


@pytest.mark.parametrize("ring", [ZP26, ZP34, TruncatedPowerSeries(3, 2),
                                  TruncatedPowerSeries(2, 3)], ids=repr)
def test_zero_module_divisors_read_with_no_snf(monkeypatch, ring):
    """Over Z/p^N and F_p[z]/z^M a zero module has no divisors and free rank
    0, read with no SNF; the SNF route reads the same."""
    rng = random.Random(4444)
    mods = [_zero_module(ring, rng) for _ in range(12)]
    want = [modules.read_snf(m)[0] for m in mods]
    assert all(w == modules.ElementaryDivisors(ring, 0, []) for w in want)
    monkeypatch.setattr(linalg, "smith_normal_form", _refuse)
    monkeypatch.setattr(linalg, "base_snf", _refuse)
    assert [elementary_divisors(m) for m in mods] == want


@pytest.mark.parametrize("ring", [TruncatedBK(3, 2, 2), LAM], ids=repr)
def test_zero_module_divisors_still_refused_over_expanding_rings(ring):
    """TruncatedBK and TruncatedLambda have no SNF reader, a zero module
    included: the zero test does not answer before the refusal."""
    rng = random.Random(4545)
    for m in [PresentedModule.zero(ring)] + [_zero_module(ring, rng) for _ in range(4)]:
        with pytest.raises(UnsupportedRingError, match="SNF-capable"):
            elementary_divisors(m)


@pytest.mark.parametrize("ring", ZERO_RINGS, ids=repr)
def test_map_out_of_zero_module_injective_with_no_kernel(monkeypatch, ring):
    """A map out of a zero module is injective, decided with no kernel; the
    kernel route gives the same verdict."""
    maps = _zero_module_maps(ring, 4646)
    assert all(rows_are_zero_classes(f.source, modules._kernel_rows(f)) for f in maps)
    monkeypatch.setattr(modules, "_kernel_rows", _refuse)
    assert all(is_injective(f) for f in maps)


def reference_hom_system(source, target, post=None, pre=None):
    """The Hom system as the column-by-column assembly built it before the
    Kronecker form: (matrix, right-hand side), unknowns X row by row, then
    one auxiliary block per equation block."""
    ring = source.ring
    gs, gt = source.gens, target.gens
    nvars = gs * gt
    cols, rhs = [], []

    def block(left, right, q, urel, nvars):
        aux, ku = nvars, urel.rows
        for a in range(left.rows):
            for c in range(right.cols):
                col = {}
                for i, lc in enumerate(left.data[a]):
                    if ring.is_zero(lc):
                        continue
                    for j in range(gt):
                        rc = right.data[j][c]
                        if not ring.is_zero(rc):
                            col[i * gt + j] = ring.mul(lc, rc)
                for s in range(ku):
                    coeff = ring.neg(urel.data[s][c])
                    if not ring.is_zero(coeff):
                        col[aux + a * ku + s] = coeff
                cols.append(col)
                rhs.append(q.data[a][c])
        return nvars + left.rows * ku

    nvars = block(source.relations, Mat.identity(gt, ring),
                  Mat.zero(source.relations.rows, gt, ring), target.relations, nvars)
    if post is not None:
        pmat, qmat, umod = post
        nvars = block(Mat.identity(gs, ring), pmat, qmat, umod.relations, nvars)
    if pre is not None:
        p2, q2 = pre
        nvars = block(p2, Mat.identity(gt, ring), q2, target.relations, nvars)
    big = [[ring.zero] * len(cols) for _ in range(nvars)]
    for e, col in enumerate(cols):
        for v, coeff in col.items():
            big[v][e] = coeff
    return Mat(nvars, len(cols), big), Mat(1, len(cols), [rhs])


def _random_elt(ring, rng):
    if isinstance(ring, LocalizedIntegers):
        return Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), 2 ** rng.randint(0, 2))
    if isinstance(ring, TruncatedPadic):
        return ring.from_int(rng.choice([0, rng.randrange(ring.modulus)]))
    s = ring.scalar
    if isinstance(ring, TruncatedLambda):
        return ring.from_coeffs([Fraction(rng.choice([0, rng.randint(-6, 6)]))
                                 for _ in range(ring.mlen)])
    return ring.from_coeffs([s.from_int(rng.choice([0, rng.randrange(s.modulus)]))
                             for _ in range(ring.mlen)])


def _random_module(ring, rng):
    g = rng.randint(0, 2)
    rows = [[_random_elt(ring, rng) for _ in range(g)] for _ in range(rng.randint(0, 2))]
    return PresentedModule(ring, g, Mat(len(rows), g, rows))


@pytest.mark.parametrize("ring", [ZP26, TruncatedPowerSeries(3, 2), TruncatedBK(3, 2, 2),
                                  LocalizedIntegers((2,)), LAM], ids=lambda r: type(r).__name__)
def test_hom_system_matches_column_assembly(monkeypatch, ring):
    """`_hom_solve` hands the solver the matrix and right-hand side of the
    column-by-column assembly, entry for entry, on split-shaped
    (1_C, beta, Rel_C) and retraction-shaped (iota, 1_A, Rel_A) inputs,
    including 0-generator modules and 0-row relations."""
    seen = []

    def record(mat, b, ring, lead=None):
        seen.append((mat, b))
        return None, []

    monkeypatch.setattr(modules, "solve_left_info", record)
    rng = random.Random(53)
    shapes = set()
    for _ in range(40):
        a, b = _random_module(ring, rng), _random_module(ring, rng)
        f = Mat(a.gens, b.gens, [[_random_elt(ring, rng) for _ in range(b.gens)]
                                 for _ in range(a.gens)])
        # split-shaped: C = a, B = b, beta = a b.gens x a.gens matrix
        beta = f.transpose()
        assert modules._hom_solve(a, b, Mat.identity(a.gens, ring), beta, a.relations) == (None, [])
        want = reference_hom_system(a, b, post=(beta, Mat.identity(a.gens, ring), a))
        assert seen.pop() == want
        # retraction-shaped: iota = f from A = a into B = b, solving B -> A
        assert modules._hom_solve(b, a, f, Mat.identity(a.gens, ring), a.relations) == (None, [])
        want = reference_hom_system(b, a, pre=(f, Mat.identity(a.gens, ring)))
        assert seen.pop() == want
        shapes.add((a.gens, a.relations.rows, b.gens, b.relations.rows))
    assert any(0 in s[::2] for s in shapes) and any(0 in s[1::2] for s in shapes)


def test_glue_splitting():
    ring = ZP3
    a = PresentedModule.cyclic(ring, 2)
    c = direct_sum([PresentedModule.cyclic(ring, 2), PresentedModule.free(ring, 1)])
    b = direct_sum([a, c])
    ses = build_ses(a, b, c, Mat(1, 3, [[1, 0, 0]]),
                    Mat(3, 2, [[0, 0], [1, 0], [0, 1]]))
    dec = decompose_elementary(c)
    tors_section = module_map(module_from_divisors(ring, dec.torsion_divisors, 0), b,
                              Mat(1, 3, [[0, 1, 0]]))
    section = glue_splitting(ses, tors_section, dec)
    from truncalg.modules import compose, identity_map, maps_equal

    assert maps_equal(compose(section, ses.surject), identity_map(c))
    # purely torsion C reduces to the torsion section
    c2 = PresentedModule.cyclic(ring, 2)
    b2 = direct_sum([a, c2])
    ses2 = build_ses(a, b2, c2, Mat(1, 2, [[1, 0]]), Mat(2, 1, [[0], [1]]))
    dec2 = decompose_elementary(c2)
    ts2 = module_map(module_from_divisors(ring, dec2.torsion_divisors, 0), b2,
                     Mat(1, 2, [[0, 1]]))
    s2 = glue_splitting(ses2, ts2, dec2)
    assert maps_equal(compose(s2, ses2.surject), identity_map(c2))


def test_support_primes_examples():
    lam = LAM
    mq = PresentedModule.from_relation_rows(lam, 1, [[lam.from_int(3)], [lam.q_minus_one()]])
    assert support_primes(mq).primes == [3]
    free = PresentedModule.free(lam, 1)
    res = support_primes(free)
    assert res.everywhere and res.primes == []
    m15 = PresentedModule.cyclic(lam, lam.from_int(15))
    assert support_primes(m15).primes == [3, 5]
    assert support_primes(PresentedModule.zero(lam)).primes == []


def test_support_primes_read_a_checked_snf(monkeypatch):
    """The constant-term divisors that lambda-zero prints as certified primes
    come off an SNF checked by L . A . R = D: a memoised SNF with one divisor
    multiplied by 7 is refused, where an unchecked read reported 7 as a
    support prime."""
    m15 = PresentedModule.cyclic(LAM, LAM.from_int(15))
    assert support_primes(m15).primes == [3, 5]
    memo = linalg.base_snf

    def corrupted(mat, ring):
        snf = memo(mat, ring)
        return SNFResult(snf.left, snf.right,
                         [ring.mul(ring.from_int(7), snf.divisors[0])] + snf.divisors[1:])

    monkeypatch.setattr(linalg, "base_snf", corrupted)
    with pytest.raises(InternalInconsistencyError, match="L . A . R = D"):
        support_primes(m15)


def reference_failure_primes(obstruction, sset=()):
    """failure_primes as it read each prime q of d with its valuation before
    it factored d / gcd(d, c): q fails when v_q(c) < v_q(d)."""
    primes = set()
    everywhere = False
    for _, _, d, c in obstruction:
        d, c = Fraction(d), Fraction(c)
        if d == 0:
            everywhere = True
            continue
        for q, e in factorint(abs(d.numerator)).items():
            if q not in sset and prime_valuation(c.numerator, q) < e:
                primes.add(q)
    if everywhere:
        primes.add(next(q for q in primerange(2, 1000) if q not in sset))
    return sorted(primes), everywhere


def test_failure_primes_match_the_valuation_route():
    """Seeded obstruction records (row, position, divisor, residue) over
    Z[1/S]: zero divisors, S primes in both numerators, S denominators and
    negative numerators.  The primes of d / gcd(d, c) are the valuation
    route's failure primes."""
    rng = random.Random(3131)
    seen = set()

    def number(sset):
        n = rng.choice([-1, 1])
        for q in (2, 3, 5, 7, 11):
            n *= q ** rng.choice([0, 0, 1, 2, 3])
        den = rng.choice(sset) ** rng.randint(1, 2) if sset and rng.random() < 0.3 else 1
        return Fraction(n, den)

    for _ in range(300):
        sset = rng.choice([(), (2,), (3, 5)])
        records = []
        for k in range(rng.randint(1, 4)):
            d, c = Fraction(0) if rng.random() < 0.1 else number(sset), number(sset)
            records.append((k, k, d, c))
            if d == 0:
                seen.add("zero divisor")
            elif any(d.numerator % q == 0 for q in sset):
                seen.add("s prime")
            if min(d, c) < 0:
                seen.add("negative")
        assert failure_primes(records, sset) == reference_failure_primes(records, sset), records
    assert seen == {"zero divisor", "negative", "s prime"}


def test_failure_primes_witness_past_every_inverted_prime():
    """A zero divisor obstructs everywhere; its witness is the smallest
    prime outside S however large S is, here past the 168 primes below
    1000."""
    sset = set(primerange(2, 1000))
    assert failure_primes([(0, 0, 0, 1)], sset) == ([1009], True)


PRIMES_TO_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_support_primes_match_fibres_at_small_primes():
    """Random full-rank Lambda modules with up to 6 generators: an ell <= 50
    outside S is reported exactly when M/(ell, q-1)M, presented over F_ell by
    the constant terms, is nonzero; a square presentation has content
    |det| with its S-part removed."""
    rng = random.Random(2026)
    for _ in range(16):
        sset = rng.choice([(), (2,), (3, 5)])
        lam = TruncatedLambda(sset, 2)
        g = rng.randint(1, 6)
        diag = [rng.choice([1, 1, 2, 3, 5, 6, 7, 10, 49, 53]) for _ in range(g)]
        a = [[diag[i] if i == j else (rng.randint(-9, 9) if j > i else 0)
              for j in range(g)] for i in range(g)]
        for _ in range(3 * g if g > 1 else 0):  # unimodular row and column operations
            i, j = rng.sample(range(g), 2)
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            else:
                for row in a:
                    row[i] += c * row[j]
        extra = rng.randint(0, 1)
        a += [[rng.randint(-20, 20) for _ in range(g)] for _ in range(extra)]
        rows = []
        for row in a:
            unit = Fraction(1, sset[0]) if sset and rng.random() < 0.5 else 1
            rows.append([lam.from_coeffs([Fraction(x) * unit, rng.randint(-3, 3)]) for x in row])
        res = support_primes(PresentedModule(lam, g, Mat(len(rows), g, rows)))
        assert not res.everywhere
        if not extra:
            det = 1
            for d in diag:
                det *= d
            assert res.content == LocalizedIntegers(sset).strip_s(det)
        for ell in PRIMES_TO_50:
            if ell in sset:
                continue
            fp = TruncatedPadic(ell, 1)
            fibre = [[fp.from_int(x[0].numerator * pow(x[0].denominator, -1, ell)) for x in row]
                     for row in rows]
            nonzero = not is_zero_module(PresentedModule(fp, g, Mat(len(fibre), g, fibre)))
            assert (ell in res.primes) == nonzero, (ell, res.primes)


def test_decompose_over_bk_reads_p_exponents():
    """modules.decompose over TruncatedBK recovers a scrambled elementary
    module's hidden free rank and p-exponents, and its structure divisors' profile
    reads the same exponents."""
    ring = TruncatedBK(3, 3, 2)
    rng = random.Random(5)
    for _ in range(8):
        m, rank, exps = scrambled_elementary(ring, rng)
        dec = decompose(m)
        assert (dec.free_rank, dec.divisors.exponents()) == (rank, exps)
        assert structure_divisors(m).profile() == tuple(exps)


def test_decompose_over_bk_not_elementary():
    """S/(p, z) is not elementary: decompose returns the failing slice, and
    the helpers that need a decomposition raise NotElementaryError."""
    ring = TruncatedBK(3, 3, 2)
    spz = PresentedModule.from_relation_rows(
        ring, 1, [[ring.from_int(3)], [ring.var_power(1)]])
    res = decompose(spz)
    assert isinstance(res, NotElementary) and res.failing_j == 0
    for helper in (torsion_part, lambda m: structure_divisors(m).free_rank,
                   lambda m: structure_divisors(m).profile()):
        with pytest.raises(NotElementaryError):
            helper(spz)


def test_torsion_vs_decompose_agreement():
    rng = random.Random(77)
    ring = ZP34
    for _ in range(15):
        g = rng.randint(1, 3)
        rows = [[ring.from_int(rng.randint(0, 80)) for _ in range(g)]
                for _ in range(rng.randint(0, 3))]
        m = PresentedModule(ring, g, Mat(len(rows), g, rows))
        dec = decompose_elementary(m)
        t, _, _ = torsion_part(m)
        assert structure_divisors(t).profile() == tuple(sorted(dec.divisors.exponents()))


def _random_element(ring, rng):
    if rng.random() < 0.4:
        return ring.zero
    if isinstance(ring, TruncatedPadic):
        return ring.from_int(rng.randrange(ring.modulus))
    if isinstance(ring, LocalizedIntegers):
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
    if isinstance(ring, TruncatedLambda):
        return ring.from_coeffs([Fraction(rng.randint(-3, 3)) for _ in range(ring.mlen)])
    return ring.from_coeffs([rng.randrange(ring.scalar.modulus) for _ in range(ring.mlen)])


@pytest.mark.parametrize("ring", [
    TruncatedPadic(2, 3), TruncatedPadic(3, 2), TruncatedPowerSeries(3, 3),
    LocalizedIntegers((2,)), TruncatedBK(2, 2, 3), TruncatedLambda((2,), 2)])
def test_injective_surjective_match_kernel_route(ring):
    """is_injective and is_surjective give the verdicts of the pruned kernel
    and of the cokernel presentation.  The source relations are a random
    subset of the map's kernel rows, so both verdicts occur."""
    rng = random.Random(515)
    seen = set()
    for _ in range(14):
        gs, gt = rng.randint(1, 3), rng.randint(1, 2)
        trel = [[_random_element(ring, rng) for _ in range(gt)] for _ in range(rng.randint(0, 2))]
        target = PresentedModule(ring, gt, Mat(len(trel), gt, trel))
        mat = Mat(gs, gt, [[_random_element(ring, rng) for _ in range(gt)] for _ in range(gs)])
        krows = kernel_left(mat.vstack(target.relations), ring, mat.rows)
        srel = [row for row in krows.data if rng.random() < 0.5]
        f = module_map(PresentedModule(ring, gs, Mat(len(srel), gs, srel)), target, mat)
        injective = rows_are_zero_classes(f.source, kernel(f)[1].matrix)
        surjective = is_zero_module(cokernel(f)[0])
        assert is_injective(f) == injective
        assert is_surjective(f) == surjective
        seen.add(("injective", injective))
        seen.add(("surjective", surjective))
    assert len(seen) == 4, seen


@pytest.mark.parametrize("ring", [
    TruncatedPadic(2, 3), TruncatedPadic(3, 2), TruncatedPowerSeries(3, 3),
    TruncatedPowerSeries(2, 2), TruncatedBK(2, 2, 3), TruncatedBK(3, 2, 2)], ids=repr)
def test_residue_zero_module_matches_membership(ring):
    """Over the local families is_zero_module reads the residue rank of the
    relations (Nakayama), and gives the verdict of the membership test of
    the identity in the relation span.  Relations are random rows, or the
    rows of an invertible matrix with one row times a non-unit (p or z),
    then random rows; both verdicts occur."""
    rng = random.Random(3303)
    non_units = [ring.from_int(ring.p)] + (
        [ring.var_power(1)] if not isinstance(ring, TruncatedPadic) else [])
    seen = set()
    for _ in range(40):
        g = rng.randint(1, 3)
        rows = []
        if rng.random() < 0.5:
            rows = [list(r) for r in Mat.identity(g, ring).data]
            for _ in range(3 * g):
                i, j = rng.randrange(g), rng.randrange(g)
                if i != j:
                    c = _random_element(ring, rng)
                    rows[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(rows[i], rows[j])]
            k = rng.randrange(g)
            rows[k] = [ring.mul(rng.choice(non_units), x) for x in rows[k]]
        rows += [[_random_element(ring, rng) for _ in range(g)] for _ in range(rng.randint(0, 2))]
        rel = Mat(len(rows), g, rows)
        want = linalg.in_row_span(rel, Mat.identity(g, ring), ring)
        assert is_zero_module(PresentedModule(ring, g, rel)) == want, rows
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("ring", [
    TruncatedPadic(2, 3), TruncatedPadic(3, 2), TruncatedBK(2, 2, 3),
    TruncatedLambda((2,), 2)])
def test_verify_exact_at_matches_pruned_kernel(ring):
    """verify_exact_at, which reads the unpruned kernel rows of proj, gives
    the verdict of the pruned `kernel(proj)` route kept in helpers.  incl
    sends a free module onto kernel rows of proj: all of them, a random
    subset, or all of them times a non-unit (which tends to leave
    ker(proj) strictly larger than im(incl)), sometimes with a row outside
    the kernel added."""
    rng = random.Random(616)
    non_unit = ring.from_int(3 if isinstance(ring, TruncatedLambda) else ring.p)
    seen = set()
    for _ in range(24):
        gb, gc = rng.randint(1, 3), rng.randint(1, 2)
        crel = [[_random_element(ring, rng) for _ in range(gc)] for _ in range(rng.randint(0, 2))]
        c = PresentedModule(ring, gc, Mat(len(crel), gc, crel))
        pmat = Mat(gb, gc, [[_random_element(ring, rng) for _ in range(gc)] for _ in range(gb)])
        pker = kernel_left(pmat.vstack(c.relations), ring, pmat.rows)
        brel = [row for row in pker.data if rng.random() < 0.5]
        proj = module_map(PresentedModule(ring, gb, Mat(len(brel), gb, brel)), c, pmat)
        krows = [list(row) for row in pker.data]
        style = rng.choice(["all", "subset", "scaled"])
        if style == "subset":
            krows = [row for row in krows if rng.random() < 0.5]
        elif style == "scaled":
            krows = [[ring.mul(non_unit, x) for x in row] for row in krows]
        if rng.random() < 0.2:
            krows.append([_random_element(ring, rng) for _ in range(gb)])
        incl = module_map(PresentedModule.free(ring, len(krows)), proj.source,
                          Mat(len(krows), gb, krows))
        exact = reference_verify_exact_at(incl, proj)
        assert verify_exact_at(incl, proj) == exact
        composes_to_zero = is_zero_map(compose(incl, proj))
        seen.add((exact, composes_to_zero))
    # exact, and ker(proj) strictly larger than im(incl), both occur
    assert {(True, True), (False, True)} <= seen, seen
