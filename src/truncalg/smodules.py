"""Structure algorithms for modules over the bivariate truncation of W[[z]].

gr_p slices are modules over S1 = F_p[z]/(z^M); their simultaneous freeness
characterizes the elementary modules (finite sums of S/p^a and free parts),
and the decomposition is recovered constructively: an adapted basis of the
gr_p chain is built top-down through the multiplication-by-p surjections
mu_j (lifts of the basis one level up, completed by the kernel rows of
mu_j), lifted to the ring, corrected so p^a kills the torsion generators
exactly, and the assembled witness is checked once, by
`ElementaryDecomposition.verify`.

`decompose_over_s` reads all its slices off one SNF of the expanded
relations (`_gr_slices`), taken from `linalg.base_snf`, the memo entry
that its solves against the relations read as well; it reads each slice
witness-free (`_read_slice`): its divisors, certified by L . A . R = D,
and the columns of R and rows of R^-1 that the mu_j products and the lift
read.  No slice builds or verifies a witness of its own; the final check
of the assembled map certifies them.  Each level of the adapted basis is
checked unimodular by its residue rank over F_p (`linalg.is_invertible`),
not by a solve.
`gr_p` keeps the defining presentation, the kernel of [p^j; R; p^{j+1}],
one slice at a time: it presents the `NotElementary` certificate, and
the tests hold the SNF reader to it and build the gr_p lemma checks on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, PrecisionError, UnsupportedRingError
from .linalg import (Mat, base_snf, expand_matrix, invert, is_invertible, kernel_left,
                     solve_left, solve_left_mod)
from .modules import (
    ElementaryDecomposition,
    ElementaryDivisors,
    NotElementary,
    PresentedModule,
    elementary_divisors,
    module_from_divisors,
    module_map,
    read_snf,
    rows_are_zero_classes,
)
from .rings import TruncatedBK, TruncatedPowerSeries


@dataclass
class GrSlice:
    module: PresentedModule  # over S1
    divisors: ElementaryDivisors  # free exactly when it has no torsion


def _s1_of(ring):
    return TruncatedPowerSeries(ring.p, ring.precision_m)


def _reduce_mod_p(rows_t, s1):
    out = []
    for row in rows_t.data:
        out.append([tuple(c % s1.p for c in x) for x in row])
    return Mat(rows_t.rows, rows_t.cols, out)


def _lift_to_t(rows_s1):
    out = []
    for row in rows_s1.data:
        out.append([tuple(int(c) for c in x) for x in row])
    return Mat(rows_s1.rows, rows_s1.cols, out)


def gr_p(m, j):
    """p^j M / p^{j+1} M as a presented module over S1, with its S1
    divisors.

    The relations are the kernel of [p^j; R; p^{j+1}] reduced mod p: the
    definition itself, one kernel per slice.  `decompose_over_s` reads its
    slices through `_gr_slices` instead and comes back here only for the
    certificate of a slice that is not free."""
    ring = m.ring
    if not isinstance(ring, TruncatedBK):
        raise UnsupportedRingError("gr_p needs a TruncatedBK module")
    n = ring.precision_n
    if j >= n:
        raise PrecisionError(f"gr_p slice {j} is beyond the p-precision {n}")
    s1 = _s1_of(ring)
    g = m.gens
    if g == 0:
        mod = PresentedModule.zero(s1)
        return GrSlice(mod, elementary_divisors(mod))
    pj = Mat.scalar(g, ring.from_int(ring.p ** j), ring)
    pj1 = Mat.scalar(g, ring.from_int(ring.p ** (j + 1)), ring)
    rel_s1 = _reduce_mod_p(kernel_left(pj.vstack(m.relations).vstack(pj1), ring, g), s1)
    mod = PresentedModule(s1, g, rel_s1)
    return GrSlice(mod, elementary_divisors(mod))


def _gr_slices(m):
    """The S1 modules gr_p^0 M, ..., gr_p^{N-1} M, read off one SNF
    L . R_exp . U = D of the expanded relations over Z/p^N.

    p^j y lies in rowspan(R_exp) + p^{j+1} exactly when (yU)_k is 0 mod p for
    every k with v_k = val(d_k) > j (zero and missing divisors count as N).
    Row k of L . R_exp is d_k times row k of U^-1, so dividing it by p^{v_k}
    gives that row mod p up to a unit; slice j's relations are the rows with
    v_k <= j.  Their F_p span is closed under z, as the expanded span is, so
    it is their S1 span."""
    ring = m.ring
    s1 = _s1_of(ring)
    g, mlen, p = m.gens, ring.mlen, ring.p
    scalar = ring.scalar
    snf = base_snf(m.relations, ring)
    r_exp = expand_matrix(m.relations, ring)
    ks = [k for k, d in enumerate(snf.divisors) if not scalar.is_zero(d)]
    lr = snf.left.take_rows(ks).mul(r_exp, scalar)
    rows = []  # (v_k, row k of U^-1 mod p as g entries of S1)
    for k, row in zip(ks, lr.data):
        v = scalar.val(snf.divisors[k])
        pv = p ** v
        flat = [(x // pv) % p for x in row]
        rows.append((v, [tuple(flat[i * mlen:(i + 1) * mlen]) for i in range(g)]))
    for j in range(ring.precision_n):
        yield PresentedModule(s1, g, Mat.from_rows([r for v, r in rows if v <= j], g))


def _read_slice(mod, j, n):
    """(divisors, to_canonical, from_canonical) of gr_p slice j of n, read
    off the SNF L . A . R = D of its relations with no witness check.

    A free slice's to_canonical is R[:, kept], read for j >= 1 (mu_{j-1});
    its from_canonical is R^-1[kept], read for j <= n-2 (mu_j) and for j = 0
    (the lift to generator coordinates).  A matrix that is not read is None,
    and both are None on a slice with torsion.  `decompose_over_s`
    certifies what it builds from them by its final check."""
    divs, kept, snf = read_snf(mod)
    if divs.torsion_divisors:
        return divs, None, None
    right = snf.right
    to_can = right.take_cols(kept) if j >= 1 else None
    from_can = None
    if j <= n - 2 or j == 0:
        inv = invert(right, mod.ring)
        if inv is None:
            raise InternalInconsistencyError(f"SNF witness of gr_p slice {j} is not invertible")
        from_can = inv.take_rows(kept)
    return divs, to_can, from_can


def decompose_over_s(m, _trace=None):
    """Constructive elementary decomposition over truncated W[[z]].

    Returns an ElementaryDecomposition (torsion generators first in the
    canonical module, as `module_from_divisors` builds it) or NotElementary
    with the first failing gr_p slice.  A _trace list receives the S1 rank
    of each free slice, as measured.

    Level j of the adapted basis is the lifts of level j+1 through mu_j
    followed by the kernel rows of mu_j: mu_j is onto a free S1-module, so
    its SNF divisors are units and those rows are a basis of its kernel.
    The slices are read without witnesses (`_read_slice`).  The inverse of
    the assembled map exists exactly when it is onto, and
    `ElementaryDecomposition.verify` checks that both composites are the
    identity; that single check makes it an isomorphism, whatever the slice
    matrices it was built from.
    """
    ring = m.ring
    if not isinstance(ring, TruncatedBK):
        raise UnsupportedRingError("decompose_over_s needs a TruncatedBK module")
    n = ring.precision_n
    s1 = _s1_of(ring)
    ranks, to_can, from_can = [], [], []
    for j, mod in enumerate(_gr_slices(m)):
        divs, to_j, from_j = _read_slice(mod, j, n)
        if divs.torsion_divisors:
            # the certificate presents the slice by its definition
            ref = gr_p(m, j)
            if ref.divisors.torsion_divisors != divs.torsion_divisors:
                raise InternalInconsistencyError(
                    f"gr_p slice {j} has two sets of z-torsion divisors")
            return NotElementary(j, {
                "z_torsion_divisors": [s1.element_str(d)
                                       for d in ref.divisors.torsion_divisors],
                "gr_relations": ref.module.relations.tolist(),
            })
        ranks.append(divs.free_rank)
        to_can.append(to_j)
        from_can.append(from_j)
        if _trace is not None:
            _trace.append(divs.free_rank)
    for j in range(n - 1):
        if ranks[j] < ranks[j + 1]:
            raise InternalInconsistencyError("gr ranks increased along multiplication by p")

    # mu_j in the canonical coordinates of consecutive slices
    mu = [from_can[j].mul(to_can[j + 1], s1) for j in range(n - 1)]

    # adapted basis, top level downwards; tags record the chain length
    basis = Mat.identity(ranks[n - 1], s1)
    tags = [n] * ranks[n - 1]
    for j in range(n - 2, -1, -1):
        a = mu[j]
        lifts = solve_left(a, basis, s1) if basis.rows else Mat(0, ranks[j], [])
        if lifts is None:
            raise InternalInconsistencyError("multiplication-by-p failed to be surjective")
        comp = [list(row) for row in kernel_left(a, s1).data]
        if lifts.rows + len(comp) != ranks[j]:
            raise InternalInconsistencyError("adapted basis has wrong size")
        basis = Mat.from_rows([list(r) for r in lifts.data] + comp, ranks[j])
        if not is_invertible(basis, s1):
            raise InternalInconsistencyError("adapted basis is not unimodular")
        tags = tags + [j + 1] * len(comp)

    # back to generator coordinates of gr_0 = M/pM, then lift to the ring
    rows_s1 = basis.mul(from_can[0], s1) if basis.rows else Mat(0, m.gens, [])
    rows_t = _lift_to_t(rows_s1)

    # torsion generators by exponent, then the free ones
    gens_rows = []
    exps = []
    for a in sorted(set(tags)):
        group = [list(rows_t.data[t]) for t in range(len(tags)) if tags[t] == a]
        if a < n:
            group = _correct_torsion_generators(m, group, a)
            exps += [a] * len(group)
        gens_rows += group
    free_count = tags.count(n)

    divisors = [ring.from_int(ring.p ** a) for a in exps]
    canonical = module_from_divisors(ring, divisors, free_count)
    eta_mat = Mat.from_rows(gens_rows, m.gens) if gens_rows else Mat(0, m.gens, [])
    eta = module_map(canonical, m, eta_mat)
    # inv . eta = 1 modulo m's relations is solvable exactly when eta is onto
    inv = solve_left_mod(eta.matrix, Mat.identity(m.gens, ring), m.relations, ring)
    if inv is None:
        raise InternalInconsistencyError("assembled elementary map is not surjective")
    dec = ElementaryDecomposition(free_count, divisors, module_map(m, canonical, inv),
                                  eta, canonical)
    if not dec.verify():
        raise InternalInconsistencyError("elementary witness does not compose to identity")

    expected = [free_count + sum(1 for a in exps if a > j) for j in range(n)]
    if expected != ranks:
        raise InternalInconsistencyError(
            f"gr ranks {ranks} disagree with recovered exponents {sorted(exps)} + free {free_count}")
    return dec


def _correct_torsion_generators(m, rows, a):
    """Adjust each row by p*y so that p^a . row = 0 holds exactly in m: one
    solve for all rows of exponent a (each row is solved on its own)."""
    ring = m.ring
    p = ring.p
    pa = ring.from_int(p ** a)
    targets = Mat.from_rows(rows, m.gens).scale(pa, ring)
    if a + 1 >= ring.precision_n:
        if not rows_are_zero_classes(m, targets):
            raise PrecisionError(
                "torsion correction impossible: exponent reaches the p-precision")
        return rows
    pa1 = Mat.scalar(m.gens, ring.from_int(p ** (a + 1)), ring)
    sol = solve_left_mod(pa1, targets, m.relations, ring)
    if sol is None:
        raise PrecisionError("torsion correction system unsolvable at working precision")
    pelt = ring.from_int(p)
    corrected = [[ring.sub(x, ring.mul(pelt, yx)) for x, yx in zip(row, y)]
                 for row, y in zip(rows, sol.data)]
    if not rows_are_zero_classes(m, Mat.from_rows(corrected, m.gens).scale(pa, ring)):
        raise InternalInconsistencyError("torsion correction failed to kill the generator")
    return corrected
