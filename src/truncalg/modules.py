"""Finitely presented modules and morphisms over the coefficient rings.

A PresentedModule is R^g modulo the row span of a relation matrix; module
maps act on generators from the right (x |-> x . matrix).  `module_map`
checks that the image of every source relation lies in the row span of the
target relations (a membership test) and records that it did, so
well-definedness is checked rather than assumed.

Over TruncatedBK and TruncatedLambda all solving happens by restriction of
scalars to the base chain ring (see linalg); the extra variable's action is
carried by the coefficient-vector representation itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .errors import (
    InternalInconsistencyError,
    NotElementaryError,
    NotWellDefinedError,
    SchemaError,
    UnsupportedRingError,
)
from .linalg import (Mat, in_row_span, kernel_left, residue_rank, solve_left_info,
                     solve_left_mod)
from .rings import TruncatedLambda, factorint, primes_outside
from . import linalg


@dataclass(frozen=True)
class PresentedModule:
    ring: object
    gens: int
    relations: Mat

    def __post_init__(self):
        assert self.relations.cols == self.gens

    @staticmethod
    def free(ring, n):
        return PresentedModule(ring, n, Mat(0, n, []))

    @staticmethod
    def zero(ring):
        return PresentedModule.free(ring, 0)

    @staticmethod
    def from_relation_rows(ring, gens, rows):
        return PresentedModule(ring, gens, Mat(len(rows), gens, rows))

    @staticmethod
    def cyclic(ring, divisor):
        return PresentedModule(ring, 1, Mat(1, 1, [[divisor]]))


def direct_sum(mods):
    ring = mods[0].ring
    rel = Mat.block([[m.relations if i == j else Mat.zero(m.relations.rows, n.gens, ring)
                      for j, n in enumerate(mods)] for i, m in enumerate(mods)])
    return PresentedModule(ring, rel.cols, rel)


def module_from_divisors(ring, torsion_divisors, free_rank):
    """Canonical elementary module: sum of R/(d) plus a free part."""
    mods = [PresentedModule.cyclic(ring, d) for d in torsion_divisors]
    mods.append(PresentedModule.free(ring, free_rank))
    return direct_sum(mods)


def is_zero_module(m):
    """Is R^gens modulo the relations zero?  Over the local families Z/p^N,
    F_p[z]/z^M and TruncatedBK, by Nakayama: exactly when the relations have
    full residue rank.  Over Z[1/S] and Lambda, by a membership test of the
    identity."""
    if m.gens == 0:
        return True
    if not m.ring.local:
        return in_row_span(m.relations, Mat.identity(m.gens, m.ring), m.ring)
    return residue_rank(m.relations, m.ring) == m.gens


def rows_are_zero_classes(m, rows):
    """Do the given rows of R^gens all lie in the relation span?"""
    return in_row_span(m.relations, rows, m.ring)


@dataclass(frozen=True)
class ModuleMap:
    source: PresentedModule
    target: PresentedModule
    matrix: Mat
    checked: bool = field(compare=False, default=False)

    def __post_init__(self):
        assert self.matrix.rows == self.source.gens
        assert self.matrix.cols == self.target.gens


def module_map(source, target, matrix, check=True):
    """Build a verified ModuleMap; raises NotWellDefined if relations break."""
    if source.ring is not target.ring and source.ring != target.ring:
        raise SchemaError("module map endpoints live over different rings")
    if check and not in_row_span(target.relations, source.relations.mul(matrix, source.ring),
                                 source.ring):
        raise NotWellDefinedError(
            "matrix does not send source relations into target relations")
    return ModuleMap(source, target, matrix, check)


def identity_map(m):
    return ModuleMap(m, m, Mat.identity(m.gens, m.ring))


def zero_map(source, target):
    return ModuleMap(source, target, Mat.zero(source.gens, target.gens, source.ring))


def compose(f, g):
    assert f.target.gens == g.source.gens
    return module_map(f.source, g.target, f.matrix.mul(g.matrix, f.source.ring), check=False)


def maps_equal(f, g):
    """Equality as maps: difference lands in the target relation span."""
    if f.source.gens != g.source.gens or f.target.gens != g.target.gens:
        return False
    diff = f.matrix.sub(g.matrix, f.source.ring)
    return rows_are_zero_classes(f.target, diff)


def is_zero_map(f):
    return rows_are_zero_classes(f.target, f.matrix)


def _span_relations(gens_rows, killer_rows, ring):
    """Relations on the rows of gens_rows presenting their span modulo the
    span of killer_rows: the first gens_rows.rows columns of the kernel of
    [gens_rows; killer_rows].  Images, submodules, subquotients and the
    spectral approximate cycles are all read this way."""
    return kernel_left(gens_rows.vstack(killer_rows), ring, gens_rows.rows)


def _kernel_rows(f):
    """Rows of R^(source gens) whose classes span ker f, unpruned: the
    relations of the image of f."""
    return _span_relations(f.matrix, f.target.relations, f.source.ring)


def image(f):
    """(image module, inclusion into target, projection from source)."""
    ring = f.source.ring
    imod = PresentedModule(ring, f.source.gens, _kernel_rows(f))
    incl = module_map(imod, f.target, f.matrix, check=False)
    proj = module_map(f.source, imod, Mat.identity(f.source.gens, ring), check=False)
    return imod, incl, proj


def cokernel(f):
    """(cokernel module, projection from target)."""
    ring = f.source.ring
    cmod = PresentedModule(ring, f.target.gens, f.matrix.vstack(f.target.relations))
    proj = module_map(f.target, cmod, Mat.identity(f.target.gens, ring), check=False)
    return cmod, proj


def is_injective(f):
    """Every kernel row of f is a zero class of the source."""
    return rows_are_zero_classes(f.source, _kernel_rows(f))


def is_surjective(f):
    return is_zero_module(cokernel(f)[0])


def verify_exact_at(incl, proj):
    """im(incl) == ker(proj) inside the shared middle module: every kernel
    row of proj lies in im(incl) + relations."""
    if not is_zero_map(compose(incl, proj)):
        return False
    return in_row_span(incl.matrix.vstack(incl.target.relations), _kernel_rows(proj),
                       incl.source.ring)


def submodule_from_rows(ambient, rows):
    """(module generated by the given classes, inclusion into ambient)."""
    ring = ambient.ring
    mat = rows if isinstance(rows, Mat) else Mat.from_rows(rows, ambient.gens)
    relrows = _span_relations(mat, ambient.relations, ring) if mat.rows else Mat(0, 0, [])
    smod = PresentedModule(ring, mat.rows, relrows)
    return smod, module_map(smod, ambient, mat, check=False)


def subquotient_presentation(ambient, gens_rows, killer_rows):
    """Present span(gens)/(span(killers)) inside ambient; killers must lie in
    span(gens) + relations for this to be the honest subquotient."""
    ring = ambient.ring
    if gens_rows.rows == 0:
        return PresentedModule.zero(ring)
    rel = _span_relations(gens_rows, killer_rows.vstack(ambient.relations), ring)
    return PresentedModule(ring, gens_rows.rows, rel)


def subquotient_coordinates(gens_rows, killer_rows, rows, ring):
    """Coordinates X with rows = X . gens_rows modulo the killer rows: the
    classes of rows in span(gens)/span(killers); zero without generators."""
    if rows.rows == 0 or gens_rows.rows == 0:
        return Mat.zero(rows.rows, gens_rows.rows, ring)
    sol = solve_left_mod(gens_rows, rows, killer_rows, ring)
    if sol is None:
        raise InternalInconsistencyError("rows fail to express in the subquotient")
    return sol


# ---------------------------------------------------------------------------
# Smith-normal-form backed structure operations


@dataclass
class NotElementary:
    """A TruncatedBK module that is not a sum of cyclic p-power pieces: the
    first gr_p slice that is not free over S1, with its certificate."""

    failing_j: int
    certificate: dict


@dataclass
class ElementaryDivisors:
    """M = R^free_rank (+) sum of R/(d), read off the SNF of the relations
    with no witness."""

    ring: object
    free_rank: int
    torsion_divisors: list

    def exponents(self):
        """Sorted exponents of the torsion divisors (`torsion_exponent`):
        valuations over the chain rings, p-valuations over TruncatedBK."""
        ring = self.ring
        if ring.untruncated:
            raise UnsupportedRingError(
                "exponents() needs a chain ring or TruncatedBK; over Z[1/S] read the "
                "prime-power profile with ElementaryDivisors.profile")
        return sorted(map(ring.torsion_exponent, self.torsion_divisors))

    def profile(self):
        """Canonical multiset describing torsion: chain rings and TruncatedBK
        give exponent tuples, LocalizedIntegers gives prime-power tuples."""
        if self.ring.untruncated:
            return tuple(sorted((q, e) for d in self.torsion_divisors
                                for q, e in factorint(abs(int(Fraction(d)))).items()))
        return tuple(self.exponents())

    def length(self):
        """Sum of valuations (resp. prime multiplicities) of the torsion divisors."""
        if self.ring.untruncated:
            return sum(e for _, e in self.profile())
        return sum(self.exponents())


@dataclass
class ElementaryDecomposition:
    """M = R^free_rank (+) sum of R/(d) with a two-sided invertible witness."""

    free_rank: int
    torsion_divisors: list
    to_canonical: ModuleMap
    from_canonical: ModuleMap
    canonical_module: PresentedModule

    @property
    def divisors(self):
        return ElementaryDivisors(self.canonical_module.ring, self.free_rank,
                                  self.torsion_divisors)

    def verify(self):
        """Both maps are well defined (a checked map already is) and both
        composites are the identity."""
        m = self.to_canonical.source
        return (all(f.checked or rows_are_zero_classes(
                        f.target, f.source.relations.mul(f.matrix, m.ring))
                    for f in (self.to_canonical, self.from_canonical))
                and maps_equal(compose(self.to_canonical, self.from_canonical), identity_map(m))
                and maps_equal(compose(self.from_canonical, self.to_canonical),
                               identity_map(self.canonical_module)))


def read_snf(m):
    """(ElementaryDivisors, kept, snf) from the SNF L . A . R = D of m's
    relations A, certified by that exact identity.  kept lists the positions
    of the torsion, then the free, summands among R's columns; a caller that
    reads R takes `snf.right` (over Z[1/S] that builds its Fractions)."""
    ring = m.ring
    if ring.expands:
        raise UnsupportedRingError(
            f"elementary divisors need an SNF-capable ring, got {type(ring).__name__}")
    snf = linalg.smith_normal_form(m.relations, ring)
    if not snf.diagonalizes(m.relations, ring):
        raise InternalInconsistencyError("Smith normal form fails L . A . R = D")
    torsion_at, torsion, free_at = [], [], []
    for j in range(m.gens):
        d = snf.divisors[j] if j < len(snf.divisors) else ring.zero
        if ring.is_zero(d):
            free_at.append(j)
        elif not ring.is_unit(d):
            torsion_at.append(j)
            torsion.append(d)
    return ElementaryDivisors(ring, len(free_at), torsion), torsion_at + free_at, snf


def elementary_divisors(m):
    """Free rank and torsion divisors over an SNF-capable ring, with no
    witness: the reader for callers that never touch the maps."""
    return read_snf(m)[0]


def decompose_elementary(m):
    """Structure theorem over an SNF-capable ring, with verified witness."""
    divs, kept, snf = read_snf(m)
    ring, right = m.ring, snf.right
    canonical = module_from_divisors(ring, divs.torsion_divisors, divs.free_rank)
    to_can = module_map(m, canonical, right.take_cols(kept), check=False)
    from_can = module_map(canonical, m, linalg.invert(right, ring).take_rows(kept),
                          check=False)
    dec = ElementaryDecomposition(divs.free_rank, divs.torsion_divisors, to_can, from_can,
                                  canonical)
    if not dec.verify():
        raise InternalInconsistencyError("elementary decomposition witness failed to verify")
    return dec


def decompose(m):
    """The structure theorem over any ring that has one: an
    ElementaryDecomposition, or over TruncatedBK a NotElementary when a gr_p
    slice is not S1-free."""
    if m.ring.structure_via_gr_p:
        from .smodules import decompose_over_s

        return decompose_over_s(m)
    return decompose_elementary(m)


def require_elementary(m):
    """decompose(m), raising NotElementaryError in place of a NotElementary."""
    dec = decompose(m)
    if isinstance(dec, NotElementary):
        raise NotElementaryError(
            f"module is not a sum of cyclic p-power pieces (gr slice {dec.failing_j})")
    return dec


def structure_divisors(m):
    """Free rank and torsion divisors over any ring with a structure theorem:
    the SNF reader, or over TruncatedBK `require_elementary`."""
    if m.ring.structure_via_gr_p:
        return require_elementary(m).divisors
    return elementary_divisors(m)


# ---------------------------------------------------------------------------
# Short exact sequences and splitting


@dataclass(frozen=True)
class ShortExactSequence:
    a: PresentedModule
    b: PresentedModule
    c: PresentedModule
    inject: ModuleMap
    surject: ModuleMap


def build_ses(a, b, c, inject_matrix, surject_matrix, loc=""):
    """The validated sequence; a refusal names the field at fault below the
    input's JSON pointer `loc`: loc/inject, loc/surject, or loc itself when
    the two maps fail to be exact at b."""
    inj = module_map(a, b, inject_matrix)
    sur = module_map(b, c, surject_matrix)
    ses = ShortExactSequence(a, b, c, inj, sur)
    err = validate_ses(ses)
    if err:
        field, why = err
        raise SchemaError(f"not a short exact sequence: {why}",
                          f"{loc}/{field}" if loc and field else loc)
    return ses


def validate_ses(ses):
    """None for a short exact sequence, else (the failing field: "inject",
    "surject" or "" for exactness at b, the reason)."""
    if not is_injective(ses.inject):
        return "inject", "inject has nonzero kernel"
    if not is_surjective(ses.surject):
        return "surject", "surject has nonzero cokernel"
    if not verify_exact_at(ses.inject, ses.surject):
        return "", "image(inject) != kernel(surject)"
    return None


@dataclass
class SplitVerdict:
    split: bool
    section: ModuleMap = None
    obstruction: list = None


def _hom_solve(source, target, left, right, urel):
    """Find a well-defined X: source -> target with left . X . right = 1
    modulo the rows of `urel`.  Returns (Mat | None, failures).

    The unknowns are X row by row, then Y1 and Y2 in
    Rel_source . X = Y1 . Rel_target and left . X . right - 1 = Y2 . urel;
    by vec(L . X . R) = vec(X) . (L^T kron R) each equation block is a
    Kronecker product."""
    ring = source.ring
    gs, gt = source.gens, target.gens
    rs, rt, n, k = source.relations.rows, target.relations.rows, left.rows, right.cols
    neg_one = ring.neg(ring.one)
    bigmat = Mat.block([
        [source.relations.transpose().kron(Mat.identity(gt, ring), ring),
         left.transpose().kron(right, ring)],
        [Mat.identity(rs, ring).kron(target.relations.scale(neg_one, ring), ring),
         Mat.zero(rs * rt, n * k, ring)],
        [Mat.zero(n * urel.rows, rs * gt, ring),
         Mat.identity(n, ring).kron(urel.scale(neg_one, ring), ring)]])
    bvec = Mat(1, bigmat.cols, [(ring.zero,) * (rs * gt) + sum(Mat.identity(n, ring).data, ())])
    sol, failures = solve_left_info(bigmat, bvec, ring, gs * gt)
    if sol is None:
        return None, failures
    return Mat(gs, gt, [sol.data[0][i * gt:(i + 1) * gt] for i in range(gs)]), []


def split_test(ses):
    """Section sigma with sigma . surject = id_C, or the obstruction record."""
    c = ses.c
    xmat, failures = _hom_solve(c, ses.b, Mat.identity(c.gens, c.ring), ses.surject.matrix,
                                c.relations)
    if xmat is None:
        return SplitVerdict(False, obstruction=failures)
    section = module_map(ses.c, ses.b, xmat)
    if not maps_equal(compose(section, ses.surject), identity_map(ses.c)):
        raise InternalInconsistencyError("solved section fails to verify")
    return SplitVerdict(True, section=section)


def retraction_test(incl):
    """Retraction rho with incl . rho = id on the submodule, or obstruction."""
    a = incl.source
    xmat, failures = _hom_solve(incl.target, a, incl.matrix, Mat.identity(a.gens, a.ring),
                                a.relations)
    if xmat is None:
        return SplitVerdict(False, obstruction=failures)
    rho = module_map(incl.target, incl.source, xmat)
    if not maps_equal(compose(incl, rho), identity_map(incl.source)):
        raise InternalInconsistencyError("solved retraction fails to verify")
    return SplitVerdict(True, section=rho)


def failure_primes(obstruction, sset=()):
    """(primes outside sset at which a diagonalized system over the integer
    base fails to solve, whether it fails at every prime).

    Obstruction records are (row, position, divisor, residue): y . d = c
    fails at q when c has smaller q-valuation than d.  A zero divisor
    obstructs at every prime, witnessed in the list by the smallest prime
    outside sset."""
    primes = set()
    everywhere = False
    for _, _, d, c in obstruction:
        # the solver records only the equations it cannot solve: c != 0, and
        # v_q(c) < v_q(d) exactly when q divides d / gcd(d, c)
        d, c = Fraction(d), Fraction(c)
        if d == 0:
            everywhere = True
            continue
        n = abs(d.numerator)
        primes.update(q for q in factorint(n // gcd(n, c.numerator)) if q not in sset)
    if everywhere:
        primes.update(primes_outside(sset, 1))
    return sorted(primes), everywhere


def check_completion_prime(ring, ell, loc=""):
    """A completion at ell needs ell not inverted in the ring (Z[1/S]
    tensored with Z_ell is Q_ell when ell is in S); rings that invert no
    prime pass."""
    if ell in ring.inverted_primes:
        raise SchemaError(f"{ell} is inverted in the base ring", loc)


# ---------------------------------------------------------------------------
# Lambda-family support


def _constant_term_divisors(m):
    """The elementary divisors over Z[1/S] of m's relations read at q = 1,
    off an SNF checked by L . A . R = D."""
    ring = m.ring.scalar
    rel = Mat(m.relations.rows, m.gens,
              [[Fraction(x[0]) for x in row] for row in m.relations.data])
    return elementary_divisors(PresentedModule(ring, m.gens, rel))


@dataclass
class SupportResult:
    everywhere: bool
    primes: list
    content: int


def support_primes(m):
    """Primes ell outside S with M/(ell, q-1)M nonzero.

    Complete by Fitting-content factorization of the constant-term relation
    matrix, read off its Smith normal form over Z[1/S]: if the matrix has
    full rank, the support is exactly the primes dividing the content, the
    product of its invariant factors (these are S-stripped, and generate the
    0th Fitting ideal, the gcd of the maximal minors); otherwise the support
    is every non-inverted prime, reported with everywhere=True.
    """
    if not isinstance(m.ring, TruncatedLambda):
        raise UnsupportedRingError("support_primes needs a TruncatedLambda module")
    if m.gens == 0:
        return SupportResult(False, [], 1)
    divs = _constant_term_divisors(m)
    if divs.free_rank:
        return SupportResult(True, [], 0)
    divisors = [int(d) for d in divs.torsion_divisors]
    primes = sorted({q for d in divisors for q in factorint(d)})
    return SupportResult(False, primes, prod(divisors))
