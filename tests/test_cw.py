import glob
import json
import os
import random

import pytest

from helpers import matrices_digest
import truncalg.cw as cw
from truncalg.cli import run_job
from truncalg.cw import (
    LocalizedAbelianGroup,
    chain_form,
    denominator_bound,
    ktheory,
    make_cw,
    reduced_cohomology,
    skeletal_verification,
    skeleton,
    sphere,
    suspension,
    wedge,
)
from truncalg.errors import InternalInconsistencyError, SchemaError
from truncalg.linalg import Mat, kernel_left
from truncalg.modules import PresentedModule, elementary_divisors, subquotient_presentation
from truncalg.rings import LocalizedIntegers, factorint
from truncalg.schemas import MAX_CELLS, MAX_DIMENSION, parse_cw


def rp2():
    return make_cw([1, 1, 1], [[[0]], [[2]]])


def cp2():
    return make_cw([1, 0, 1, 0, 1], [[], [[]], [], [[]]])


def test_denominator_bounds():
    assert denominator_bound(2) == (1, 1, ())
    assert denominator_bound(0) == (0, 1, ())
    assert denominator_bound(5) == (3, 6, (2, 3))


def test_boundary_squared_checked():
    with pytest.raises(SchemaError):
        make_cw([1, 1, 1], [[[1]], [[1]]])


@pytest.mark.parametrize("cells, boundaries, pointer, message", [
    ([], [], "/x/cells", "at least one 0-cell"),
    ([0, 1], [[]], "/x/cells", "at least one 0-cell"),
    ([1, -1], [], "/x/cells", "nonnegative"),
    ([1, 2], [[[0]]], "/x/boundaries/0", "wrong shape"),
    ([1, 1, 1], [[[0]], [[1], [1]]], "/x/boundaries/1", "wrong shape"),
    ([1, 1], [[[2]]], "/x/boundaries/0", "each 1-cell must sum to zero"),
    ([2, 1], [[[1, 1]]], "/x/boundaries/0", "each 1-cell must sum to zero"),
    ([2, 1, 1], [[[1, -1]], [[1]]], "/x/boundaries/1", "between dimensions 2 and 0"),
    ([1, 1, 1, 1], [[[0]], [[1]], [[1]]], "/x/boundaries/2", "between dimensions 3 and 1"),
], ids=["no-cells", "no-0-cell", "negative", "shape-1", "shape-2", "augmentation",
        "augmentation-two-points", "square-2", "square-3"])
def test_make_cw_refusals_name_their_pointer(cells, boundaries, pointer, message):
    """Each refusal names the field at fault below `loc`: the cell counts, or
    the boundary list entry that fails its shape or d o d = 0, where d o d at
    dimension 1 is the augmentation check (each 1-cell's coefficients sum to
    zero)."""
    with pytest.raises(SchemaError, match=message) as info:
        make_cw(cells, boundaries, "/x")
    assert info.value.location == pointer
    assert "-1" not in str(info.value)


@pytest.mark.parametrize("cells,boundaries,pointer", [
    ([MAX_CELLS + 1], [], "/input/cw/cells/0"),
    ([10 ** 30, 0, 1], [[], [[]]], "/input/cw/cells/0"),
    ([1, 0, 10 ** 30], [], "/input/cw/cells/2"),
    ([1, 0, 1, 0, MAX_CELLS + 1], [], "/input/cw/cells/4"),
], ids=["49", "s2_with_1e30_points", "1e30_top_cells", "cp2_with_49_top_cells"])
def test_parse_cw_refuses_too_many_cells(monkeypatch, cells, boundaries, pointer):
    """A cell count above MAX_CELLS is refused at its pointer before
    anything is built: make_cw is never called.  10**30 0-cells once reached
    the augmentation column and ended as an internal error."""
    def never(*args):
        raise AssertionError("make_cw ran on an oversized complex")

    monkeypatch.setattr(cw, "make_cw", never)
    with pytest.raises(SchemaError, match=f"more than {MAX_CELLS} cells") as info:
        parse_cw({"cells": cells, "boundaries": boundaries}, "/input/cw")
    assert info.value.location == pointer


def test_parse_cw_refuses_too_many_dimensions(monkeypatch):
    """A cells list with an entry above dimension MAX_DIMENSION is refused
    at /input/cw/cells from its length alone: make_cw is never called, also
    when every count past the bound is 0.  The sphere at the bound parses."""
    sphere_at_bound = [1] + [0] * (MAX_DIMENSION - 1) + [1]
    assert parse_cw({"cells": sphere_at_bound}, "/input/cw").dimension == MAX_DIMENSION

    def never(*args):
        raise AssertionError("make_cw ran on an oversized complex")

    monkeypatch.setattr(cw, "make_cw", never)
    for cells in ([1] + [0] * MAX_DIMENSION + [1], [1] + [0] * (MAX_DIMENSION + 1)):
        with pytest.raises(SchemaError, match=f"cells above dimension {MAX_DIMENSION}") as info:
            parse_cw({"cells": cells}, "/input/cw")
        assert info.value.location == "/input/cw/cells"


def test_reduced_cohomology_examples():
    groups = reduced_cohomology(sphere(2))
    assert groups[0].rank == 0 and groups[1].rank == 0 and groups[2].rank == 1
    g = reduced_cohomology(rp2())
    assert g[1] == LocalizedAbelianGroup(0, ()) and g[2] == LocalizedAbelianGroup(0, (2,))
    g2 = reduced_cohomology(rp2(), (2,))
    assert all(v.rank == 0 and not v.torsion_divisors for v in g2.values())


@pytest.mark.parametrize("d", range(5))
def test_sphere_ktheory(d):
    k = ktheory(sphere(d))
    even = k.k0 if d % 2 == 0 else k.k1
    odd = k.k1 if d % 2 == 0 else k.k0
    assert even == LocalizedAbelianGroup(1, ())
    assert odd == LocalizedAbelianGroup(0, ())


def test_rp2_cp2_point_goldens():
    k = ktheory(rp2())
    assert k.m_index == 1 and k.k0 == LocalizedAbelianGroup(0, (2,))
    assert k.k1 == LocalizedAbelianGroup(0, ())
    kc = ktheory(cp2())
    assert kc.m_index == 2 and kc.k0.rank == 2 and not kc.k0.torsion_divisors
    assert kc.k1 == LocalizedAbelianGroup(0, ())
    kp = ktheory(make_cw([1], []))
    assert kp.k0.rank == 0 and kp.k1.rank == 0


def test_skeletal_verification_goldens():
    for x in (sphere(2), rp2(), cp2(), wedge(sphere(1), sphere(1))):
        trace = skeletal_verification(x)
        assert all(step["wedge_values_ok"] for step in trace)
        assert all(n["exact"] for step in trace for n in step["nodes"])


def test_skeletal_verification_needs_a_connected_complex():
    """A complex with a nonzero reduced H^0 is refused; two 0-cells joined
    by a 1-cell are connected and verify."""
    for x in (sphere(0), make_cw([2, 1], [[[0, 0]]]), make_cw([3, 1], [[[1, -1, 0]]])):
        with pytest.raises(SchemaError, match="needs a connected complex"):
            skeletal_verification(x)
    assert skeletal_verification(make_cw([1], [])) == []
    trace = skeletal_verification(make_cw([2, 1], [[[1, -1]]]))
    assert [step["skeleton"] for step in trace] == [1]
    assert all(n["exact"] for step in trace for n in step["nodes"])


def test_rp2_connecting_map_realizes_mult_2():
    trace = skeletal_verification(rp2())
    top = trace[-1]
    assert top["skeleton"] == 2
    names = [n["node"] for n in top["nodes"]]
    assert any("cofiber" in nm for nm in names)


def test_suspension_shift():
    # single-0-cell complexes: K-groups swap under the reduced suspension,
    # compared at the common localization
    for x in (sphere(1), sphere(2), rp2(), cp2()):
        sx = suspension(x)
        kx = ktheory(x)
        ksx = ktheory(sx)
        inv = tuple(sorted(set(kx.inverted) | set(ksx.inverted)))
        gx = reduced_cohomology(x, inv)
        gsx = reduced_cohomology(sx, inv)

        def parity(groups, par):
            rank = sum(g.rank for j, g in groups.items() if j % 2 == par)
            tors = []
            for j, g in groups.items():
                if j % 2 == par:
                    tors.extend(g.torsion_divisors)
            return rank, chain_form(tors)

        assert parity(gx, 0) == parity(gsx, 1)
        assert parity(gx, 1) == parity(gsx, 0)


def test_wedge_additivity():
    x = wedge(rp2(), sphere(2))
    k = ktheory(x)
    assert k.k0 == LocalizedAbelianGroup(1, (2,))
    assert k.k1 == LocalizedAbelianGroup(0, ())
    y = wedge(sphere(1), sphere(3))
    ky = ktheory(y)
    assert ky.k1.rank == 2 and ky.k0.rank == 0


def test_euler_characteristic():
    for x in (sphere(1), sphere(2), sphere(3), rp2(), cp2(),
              wedge(sphere(1), sphere(1))):
        k = ktheory(x)
        chi = sum((-1) ** j * c for j, c in enumerate(x.cells)) - 1
        assert k.k0.rank - k.k1.rank == chi


def test_dimension_vanishing():
    x = rp2()
    groups = reduced_cohomology(x)
    assert max(groups) == x.dimension


def test_parity_identity_structural():
    # K0/K1 are the even/odd sums of the groups the result carries
    for x in (cp2(), rp2(), wedge(rp2(), sphere(3)), suspension(cp2())):
        k = ktheory(x)
        assert k.groups == reduced_cohomology(x, k.inverted)
        for par, got in ((0, k.k0), (1, k.k1)):
            part = [g for j, g in k.groups.items() if j % 2 == par]
            tors = [d for g in part for d in g.torsion_divisors]
            assert got == LocalizedAbelianGroup(sum(g.rank for g in part), chain_form(tors))


from hypothesis import given, settings, strategies as st


@given(st.lists(st.integers(min_value=2, max_value=48), max_size=5))
@settings(max_examples=80, deadline=None)
def test_chain_form_properties(divisors):
    chain = chain_form(divisors)
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0
    prod = 1
    for d in divisors:
        prod *= d
    cprod = 1
    for d in chain:
        cprod *= d
    assert prod == cprod  # group order preserved
    assert chain_form(chain) == chain  # canonical form is idempotent


def reference_chain_form(divisors):
    """The factoring chain form: each prime's exponents sorted and aligned
    at the top of the chain."""
    per_prime = {}
    for d in divisors:
        for q, e in factorint(int(d)).items():
            per_prime.setdefault(q, []).append(e)
    if not per_prime:
        return ()
    depth = max(len(v) for v in per_prime.values())
    chain = []
    for pos in range(depth):
        val = 1
        for q, exps in per_prime.items():
            exps_sorted = sorted(exps)
            idx = pos - (depth - len(exps_sorted))
            if idx >= 0:
                val *= q ** exps_sorted[idx]
        chain.append(val)
    return tuple(v for v in chain if v > 1)


def test_chain_form_matches_factoring_reference():
    """The gcd/lcm exchanges give the factoring chain form on seeded
    multisets of integers > 1: repeated primes, repeated entries, coprime
    entries and the empty multiset."""
    rng = random.Random(2501)
    cases = [[], [2], [4, 2], [6, 10, 15], [12, 12, 18], [2, 2, 2, 8],
             [9, 27, 3, 81], [5, 7, 11, 13], [1000000007 * 3, 9]]
    for _ in range(200):
        cases.append([rng.choice((2, 3, 5, 7)) ** rng.randint(1, 3)
                      * rng.choice((1, 2, 3, 5, 7, 11)) ** rng.randint(0, 2)
                      for _ in range(rng.randint(1, 6))])
    for divisors in cases:
        assert chain_form(divisors) == reference_chain_form(divisors), divisors
        assert chain_form(list(reversed(divisors))) == reference_chain_form(divisors)


def test_random_wedges_of_spheres():
    rng = random.Random(10)
    for _ in range(10):
        parts = [sphere(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        x = parts[0]
        for ypart in parts[1:]:
            x = wedge(x, ypart)
        k = ktheory(x)
        even = sum(1 for s in parts if s.dimension % 2 == 0)
        odd = len(parts) - even
        assert k.k0.rank == even and k.k1.rank == odd
        trace = skeletal_verification(x)
        assert all(n["exact"] for step in trace for n in step["nodes"])


def test_wedge_boundaries_are_pinned():
    """sha256 of the boundaries of every pairwise wedge of S^1, S^2, S^3,
    RP^2, CP^2 and their suspensions: the wedges feed the benchmark's
    lambda_cw pools, so a refactor of wedge must leave them as they are."""
    base = [sphere(1), sphere(2), sphere(3), rp2(), cp2()]
    spaces = base + [suspension(x) for x in base]
    mats = [b for x in spaces for y in spaces for b in wedge(x, y).boundaries]
    assert len(mats) == 353
    assert matrices_digest(mats) == \
        "820b48d707f4fe370d944277875946f1418c1056425ec2d9a8d1779ca2446980"


def corpus_complexes():
    """The CW complexes of the corpus jobs."""
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    out = []
    for path in sorted(glob.glob(os.path.join(corpus, "cw_*.json"))):
        if not path.endswith(".report.json"):
            with open(path, encoding="utf-8") as fh:
                out.append(parse_cw(json.load(fh)["input"]["cw"], "/input/cw"))
    return out


def seeded_wedges(seed, count):
    """Wedges of two or three pieces drawn from S^1, S^2, S^3, RP^2, CP^2
    and the suspensions of RP^2 and CP^2."""
    rng = random.Random(seed)
    pieces = [sphere(1), sphere(2), sphere(3), rp2(), cp2()]
    pieces += [suspension(x) for x in pieces[3:]]
    out = []
    for _ in range(count):
        x = rng.choice(pieces)
        for _ in range(rng.randint(1, 2)):
            x = wedge(x, rng.choice(pieces))
        out.append(x)
    return out


def reference_skeletal_trace(x):
    """`skeletal_verification` with no cohomology shared between pairs: each
    pair computes both of its skeleta in degrees 0 to k + 1 itself."""
    _, _, inverted = denominator_bound(x.dimension)
    trace = []
    for k in range(1, x.dimension + 1):
        ck = x.cell_count(k)
        kcof = ktheory(make_cw([1] + [0] * (k - 1) + [ck], []))
        got, other = (kcof.k0, kcof.k1) if k % 2 == 0 else (kcof.k1, kcof.k0)
        wedge_ok = (got.rank == ck and not got.torsion_divisors
                    and other.rank == 0 and not other.torsion_divisors)
        pair = {(s, j): cw._cohomology_presentation(skeleton(x, s), j, inverted)
                for s in (k, k - 1) for j in range(k + 2)}
        nodes = cw._verify_pair_les(x, k, inverted, lambda s, j: pair[s, j])
        trace.append({"skeleton": k, "cofiber_spheres": ck,
                      "wedge_values_ok": wedge_ok, "nodes": nodes})
    return trace


@pytest.mark.parametrize("source", ["corpus", "wedges"])
def test_skeletal_verification_computes_each_skeleton_once(monkeypatch, source):
    """Each (skeleton, degree) cohomology is computed once, every degree a
    pair reads is computed (X^s in degrees 0 to s + 1, the top skeleton to
    its dimension), and the trace equals the per-pair recomputation's.  Only
    calls on skeleta of x count: the cofiber checks' K-theory reads its
    cohomology through the same function."""
    spaces = corpus_complexes() if source == "corpus" else seeded_wedges(2401, 6)
    assert spaces
    real, real_skeleton = cw._cohomology_presentation, cw.skeleton
    for x in spaces:
        want = reference_skeletal_trace(x)
        calls, skeleta = [], []

        def tagged(y, s):
            skeleta.append(real_skeleton(y, s))
            return skeleta[-1]

        def counted(xk, j, inverted=()):
            if any(xk is y for y in skeleta):
                calls.append((len(xk.cells) - 1, j))
            return real(xk, j, inverted)

        monkeypatch.setattr(cw, "skeleton", tagged)
        monkeypatch.setattr(cw, "_cohomology_presentation", counted)
        trace = skeletal_verification(x)
        monkeypatch.setattr(cw, "_cohomology_presentation", real)
        monkeypatch.setattr(cw, "skeleton", real_skeleton)
        d = x.dimension
        assert sorted(calls) == [(s, j) for s in range(d + 1) for j in range(min(s + 1, d) + 1)]
        assert trace == want
        assert [step["skeleton"] for step in trace] == list(range(1, d + 1))
        assert all(n["exact"] for step in trace for n in step["nodes"])


@pytest.mark.parametrize("check, message", [
    ("is_surjective", "fails surjectivity at the top"),
    ("verify_exact_at", "fails exactness at the connecting map"),
    ("is_injective", "fails to be an isomorphism in degree 0"),
], ids=["top", "connecting", "below"])
def test_skeletal_verification_raises_on_each_failed_node(monkeypatch, check, message):
    """A node whose exactness check reads False stops the verification with
    that node's error: the top surjectivity, the two nodes at the connecting
    map, and the isomorphisms below the pair (pair 2 of RP^2, degree 0)."""
    monkeypatch.setattr(cw, check, lambda *args: False)
    with pytest.raises(InternalInconsistencyError, match=message):
        skeletal_verification(rp2())


ZRING = LocalizedIntegers(())


def reference_reduced_cohomology(x, inverted):
    """Reduced cohomology by the unaugmented route: H^j over Z with no
    coboundaries in degree 0, divisors stripped of the inverted primes and
    chained by factoring, and one free summand taken off H^0."""
    strip_s = LocalizedIntegers(tuple(inverted)).strip_s
    out = {}
    for j in range(x.dimension + 1):
        zrows = kernel_left(x.boundary(j + 1).transpose(), ZRING)
        killers = x.boundary(j).transpose() if j else Mat(0, x.cell_count(0), [])
        m = subquotient_presentation(PresentedModule.free(ZRING, x.cell_count(j)),
                                     zrows, killers)
        divs = elementary_divisors(m)
        tors = [strip_s(d) for d in divs.torsion_divisors]
        out[j] = LocalizedAbelianGroup(divs.free_rank - (j == 0),
                                       reference_chain_form([t for t in tors if t > 1]))
    return out


def test_augmented_route_matches_the_reduction_reference():
    """The augmented complex's cohomology equals the unaugmented route with
    one free summand taken off H^0, over Z and at the denominator bound, on
    the corpus complexes, seeded wedges, their suspensions, S^0 and two
    disconnected complexes."""
    spaces = corpus_complexes() + seeded_wedges(2501, 8)
    spaces += [suspension(x) for x in spaces]
    spaces += [sphere(0), make_cw([2, 1], [[[0, 0]]]), make_cw([3, 1], [[[1, -1, 0]]])]
    for x in spaces:
        k = ktheory(x)
        assert k.groups == reference_reduced_cohomology(x, k.inverted)
        assert reduced_cohomology(x) == reference_reduced_cohomology(x, ())
        assert all(g.rank >= 0 for g in k.groups.values())
    assert reduced_cohomology(sphere(0))[0] == LocalizedAbelianGroup(1, ())


@pytest.mark.parametrize("name, count", [("cw_cp2", 5), ("cw_rp2", 3), ("cw_s2", 3)])
def test_cw_ktheory_job_presents_each_degree_once(monkeypatch, name, count):
    """A cw-ktheory job builds one presentation per degree, 0 to the
    dimension: the report's ledger reads the groups the K-theory summed."""
    real = cw._cohomology_presentation
    calls = []

    def counted(xk, j, inverted=()):
        calls.append(j)
        return real(xk, j, inverted)

    monkeypatch.setattr(cw, "_cohomology_presentation", counted)
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    with open(os.path.join(corpus, name + ".json"), encoding="utf-8") as fh:
        report, code = run_job(json.load(fh))
    assert code == 0, report.get("error")
    assert sorted(calls) == list(range(count))
