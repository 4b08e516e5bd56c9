"""Cellular cohomology of finite CW complexes and the localized Chern-character
K-theory decomposition, with skeletal-induction verification.

Only the integer cellular chain level is stored: boundaries[k] is the matrix
of the boundary from (k+1)-cells to k-cells in row convention.  The complex
is augmented: every 0-cell bounds the one (-1)-cell, so the cohomology read
in every degree is the reduced one.  K-theory is computed through the
even/odd cohomology decomposition over Z[1/M!] with M = floor((d+1)/2);
skeletal_verification independently exercises the proof mechanism by
building each skeleton pair's two-periodic six-term sequence at the cochain
level and checking exactness at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import InternalInconsistencyError, SchemaError
from .linalg import Mat, kernel_left
from .modules import (
    PresentedModule,
    elementary_divisors,
    is_injective,
    is_surjective,
    module_map,
    subquotient_coordinates,
    subquotient_presentation,
    verify_exact_at,
)
from .rings import LocalizedIntegers, primerange

ZRING = LocalizedIntegers(())


@dataclass(frozen=True)
class CWComplex:
    cells: tuple           # cell counts per dimension
    boundaries: tuple      # boundaries[k]: Mat (cells[k+1] x cells[k]) over Z

    @property
    def dimension(self):
        d = 0
        for k, c in enumerate(self.cells):
            if c:
                d = k
        return d

    def boundary(self, k):
        """Boundary matrix from k-cells to (k-1)-cells; boundary(0) is the
        augmentation, the column of ones onto the one (-1)-cell."""
        if k == 0:
            return Mat(self.cell_count(0), 1, [[Fraction(1)]] * self.cell_count(0))
        if 1 <= k <= len(self.boundaries):
            return self.boundaries[k - 1]
        return Mat.zero(self.cell_count(k), self.cell_count(k - 1), ZRING)

    def cell_count(self, k):
        return self.cells[k] if 0 <= k < len(self.cells) else 0


def make_cw(cells, boundary_lists, loc=""):
    """Validate and build: boundary_lists[k] is the integer matrix of the
    boundary from (k+1)-cells to k-cells, row-major.  A refusal names the
    field at fault below the input's JSON pointer `loc`: loc/cells, or
    loc/boundaries/k for the boundary that fails its shape or d o d = 0."""
    cells = tuple(int(c) for c in cells)
    if not cells or cells[0] < 1:
        raise SchemaError("a complex needs at least one 0-cell", f"{loc}/cells")
    if any(c < 0 for c in cells):
        raise SchemaError("cell counts must be nonnegative", f"{loc}/cells")
    bmats = []
    for k, rows in enumerate(boundary_lists):
        r, c = cells[k + 1] if k + 1 < len(cells) else 0, cells[k]
        if len(rows) != r or any(len(row) != c for row in rows):
            raise SchemaError(
                f"boundary {k + 1} has the wrong shape (want {r} rows of length {c})",
                f"{loc}/boundaries/{k}")
        bmats.append(Mat(r, c, [[Fraction(int(v)) for v in row] for row in rows]))
    while len(bmats) < len(cells) - 1:
        k = len(bmats)
        bmats.append(Mat.zero(cells[k + 1], cells[k], ZRING))
    x = CWComplex(cells, tuple(bmats))
    for k in range(1, len(cells)):
        prod = x.boundary(k).mul(x.boundary(k - 1), ZRING)
        if not prod.is_zero(ZRING):
            raise SchemaError(
                "the boundary coefficients of each 1-cell must sum to zero" if k == 1
                else f"boundary o boundary != 0 between dimensions {k} and {k - 2}",
                f"{loc}/boundaries/{k - 1}")
    return x


def skeleton(x, k):
    cells = tuple(x.cells[: k + 1])
    return CWComplex(cells, tuple(x.boundaries[:k]))


def sphere(d):
    if d == 0:
        return make_cw([2], [])
    return make_cw([1] + [0] * (d - 1) + [1], [])


def wedge(x, y):
    """Wedge of two single-0-cell complexes (shared basepoint, block boundaries)."""
    if x.cell_count(0) != 1 or y.cell_count(0) != 1:
        raise SchemaError("wedge needs single-0-cell complexes")
    top = max(len(x.cells), len(y.cells))
    cells = [1] + [x.cell_count(k) + y.cell_count(k) for k in range(1, top)]
    bmats = [[[0]] * cells[1]] if top > 1 else []   # every 1-cell bounds the 0-cell
    for k in range(2, top):
        bx, by = x.boundary(k), y.boundary(k)
        bmats.append(Mat.block([[bx, Mat.zero(bx.rows, by.cols, ZRING)],
                                [Mat.zero(by.rows, bx.cols, ZRING), by]]).tolist())
    return make_cw(cells, bmats)


def suspension(x):
    """Reduced suspension of a single-0-cell complex: positive cells shift up
    one dimension, the new 1-cells (none) and 2-cell boundaries vanish."""
    if x.cell_count(0) != 1:
        raise SchemaError("the cell model of the reduced suspension needs one 0-cell")
    top = len(x.cells)
    cells = [1, 0] + [x.cell_count(k) for k in range(1, top)]
    blists = [[]]
    blists.append([[] for _ in range(x.cell_count(1))])
    for k in range(2, top):
        blists.append([[int(v) for v in r] for r in x.boundary(k).data])
    return make_cw(cells, blists)


@dataclass
class LocalizedAbelianGroup:
    rank: int
    torsion_divisors: tuple   # ints > 1, each dividing the next


def chain_form(divisors):
    """Canonical dividing-chain form of a multiset of integers > 1.  Each
    exchange (a, b) -> (gcd, lcm) sorts every prime's exponents at once, so
    the pairwise pass leaves each entry dividing the next, unfactored."""
    chain = [int(d) for d in divisors]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(v for v in chain if v > 1)


def denominator_bound(d):
    """M = floor((d+1)/2), the factorial denominator index, and the primes."""
    m = (d + 1) // 2
    return m, factorial(m), tuple(primerange(2, m + 1))


def _cohomology_presentation(x, j, inverted=()):
    """(presentation of the reduced H^j over Z[1/inverted], cocycle generator
    rows in C^j coords): the cocycles modulo the coboundaries, which in
    degree 0 are the constant cochains of the augmentation."""
    zrows = kernel_left(x.boundary(j + 1).transpose(), ZRING)     # ker C^j -> C^{j+1}
    cochains = PresentedModule.free(ZRING, x.cell_count(j))
    m = subquotient_presentation(cochains, zrows, x.boundary(j).transpose())
    ring = LocalizedIntegers(tuple(inverted)) if inverted else ZRING
    return PresentedModule(ring, m.gens, m.relations), zrows


def reduced_cohomology(x, inverted=()):
    """Reduced integral cohomology localized away from the given primes: the
    SNF divisors over Z[1/S] are S-free and each divides the next."""
    out = {}
    for j in range(0, x.dimension + 1):
        divs = elementary_divisors(_cohomology_presentation(x, j, inverted)[0])
        out[j] = LocalizedAbelianGroup(divs.free_rank,
                                       tuple(int(d) for d in divs.torsion_divisors))
    return out


@dataclass
class KTheoryResult:
    d: int
    m_index: int
    m_factorial: int
    inverted: tuple
    k0: LocalizedAbelianGroup   # the even-degree sum of `groups`
    k1: LocalizedAbelianGroup   # the odd-degree sum
    groups: dict                # degree -> localized reduced cohomology


def _parity_sum(groups, parity):
    rank = 0
    divisors = []
    for j, g in groups.items():
        if j % 2 == parity:
            rank += g.rank
            divisors.extend(g.torsion_divisors)
    return LocalizedAbelianGroup(rank, chain_form(divisors))


def ktheory(x):
    d = x.dimension
    m, mfact, inverted = denominator_bound(d)
    groups = reduced_cohomology(x, inverted)
    return KTheoryResult(d, m, mfact, inverted, _parity_sum(groups, 0),
                         _parity_sum(groups, 1), groups)


# ---------------------------------------------------------------------------
# Skeletal verification: the two-periodic six-term sequence of each pair


def skeletal_verification(x, loc=""):
    """Per skeleton pair, build the localized six-term sequence and verify
    exactness at every node; also confirm the cofiber wedge K-values.  A
    disconnected complex is refused at the input's JSON pointer `loc`."""
    d = x.dimension
    _, _, inverted = denominator_bound(d)
    memo = {}

    def cohomology(s, j):
        """(H^j(X^s) localized, its cocycle rows), computed once: pair k
        reads X^k and X^(k-1)."""
        key = (s, j)
        if key not in memo:
            memo[key] = _cohomology_presentation(skeleton(x, s), j, inverted)
        return memo[key]

    # connected: the 0-cocycles (of the 1-skeleton pair 1 reads) have rank
    # one, so the constants span them and the reduced H^0 is 0
    if cohomology(min(d, 1), 0)[1].rows != 1:
        raise SchemaError("skeletal verification needs a connected complex", loc)
    trace = []
    for k in range(1, d + 1):
        ck = x.cell_count(k)
        # cofiber model: wedge of ck k-spheres
        cof = make_cw([1] + [0] * (k - 1) + [ck], [])
        kcof = ktheory(cof)
        want_rank = ck
        got = kcof.k0 if k % 2 == 0 else kcof.k1
        other = kcof.k1 if k % 2 == 0 else kcof.k0
        wedge_ok = (got.rank == want_rank and not got.torsion_divisors
                    and other.rank == 0 and not other.torsion_divisors)
        if not wedge_ok:
            raise InternalInconsistencyError(f"cofiber wedge K-values wrong at skeleton {k}")
        node_results = _verify_pair_les(x, k, inverted, cohomology)
        trace.append({"skeleton": k, "cofiber_spheres": ck,
                      "wedge_values_ok": wedge_ok, "nodes": node_results})
    return trace


def _verify_pair_les(x, k, inverted, cohomology):
    """Exactness of the folded sequence for the pair (X^k, X^{k-1}).

    Nodes checked per degree j:
      rel^j -> H^j(X^k) -> H^j(X^{k-1}) -> rel^{j+1} -> H^{j+1}(X^k) ...
    where rel^j is nonzero only at j = k (the wedge cohomology).
    `cohomology(s, j)` gives `_cohomology_presentation` of the skeleton
    X^s in degree j; the pair reads degrees 0 to k."""
    ring = LocalizedIntegers(tuple(inverted))
    ck = x.cell_count(k)

    hk = {}
    zk = {}
    hk1 = {}
    zk1 = {}
    for j in range(0, k + 1):
        hk[j], zk[j] = cohomology(k, j)
        hk1[j], zk1[j] = cohomology(k - 1, j)

    results = []
    # restriction maps H^j(X^k) -> H^j(X^{k-1}): identity on cochains for j < k
    restr = {}
    for j in range(0, k + 1):
        coords = subquotient_coordinates(zk1[j], x.boundary(j).transpose(), zk[j], ZRING)
        restr[j] = module_map(hk[j], hk1[j], coords)
    # relative module at degree k: free on the k-cells (q-map into H^k(X^k))
    rel = PresentedModule(ring, ck, Mat(0, ck, []))
    qcoords = subquotient_coordinates(zk[k], x.boundary(k).transpose(),
                                      Mat.identity(ck, ring), ZRING)
    qmap = module_map(rel, hk[k], qcoords)
    # connecting map H^{k-1}(X^{k-1}) -> rel: cochain-level coboundary
    dmap = module_map(hk1[k - 1], rel, zk1[k - 1].mul(x.boundary(k).transpose(), ring))

    # node: rel -> H^k(X^k) -> H^k(X^{k-1}) = 0: exactness means surjectivity
    ok = is_surjective(qmap)
    results.append({"node": f"H^{k}(cofiber) -> H^{k}(X^{k}) -> 0", "exact": ok})
    if not ok:
        raise InternalInconsistencyError("six-term sequence fails surjectivity at the top")

    # node: H^{k-1}(X^k) -> H^{k-1}(X^{k-1}) -> rel -> H^k(X^k)
    ok1 = verify_exact_at(restr[k - 1], dmap)
    results.append({"node": f"H^{k-1}(X^{k}) -> H^{k-1}(X^{k-1}) -> H^{k}(cofiber)",
                    "exact": bool(ok1)})
    ok2 = verify_exact_at(dmap, qmap)
    results.append({"node": f"H^{k-1}(X^{k-1}) -> H^{k}(cofiber) -> H^{k}(X^{k})",
                    "exact": bool(ok2)})
    if not (ok1 and ok2):
        raise InternalInconsistencyError("six-term sequence fails exactness at the connecting map")

    # isomorphism nodes below: 0 -> H^j(X^k) -> H^j(X^{k-1}) -> 0 for j < k-1
    for j in range(0, k - 1):
        ok = is_injective(restr[j]) and is_surjective(restr[j])
        results.append({"node": f"H^{j}(X^{k}) = H^{j}(X^{k-1})", "exact": ok})
        if not ok:
            raise InternalInconsistencyError(
                f"restriction fails to be an isomorphism in degree {j} below the pair")
    return results
