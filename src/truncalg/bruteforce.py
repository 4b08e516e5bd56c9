"""Element-level enumeration oracles for small finite modules.

These deliberately avoid the SNF/solver machinery: modules are materialized
as explicit coset spaces, a subgroup is grown one generator at a time
(S <- S + R.x, which stays a submodule at every step), and divisor multisets
are read off cardinality profiles |u^j Q|.  Used as ground truth in tests
and by spectral.oracle.
"""

from __future__ import annotations

from itertools import product

from .errors import UnsupportedRingError

ORACLE_ELEMENT_BOUND = 4096


def _vec_add(ring, x, y):
    return tuple(ring.add(a, b) for a, b in zip(x, y))


def _vec_scale(ring, c, x):
    return tuple(ring.mul(c, a) for a in x)


def _grow_submodule(closed, elems, multiples, add):
    """The submodule `closed` plus the span of elems, grown one generator at
    a time.

    Each x not yet in S replaces S by {s + m : s in S, m in multiples(x)}.
    S and multiples(x) = R.x are submodules, so their sum is too, and the
    last S is the closure of closed and elems under addition and scalars.
    `closed` (e.g. {zero}) must be a submodule; it is not modified, and it
    is returned itself when elems add nothing."""
    for x in elems:
        if x not in closed:
            mx = multiples(x)
            closed = {add(s, m) for s in closed for m in mx}
    return closed


def span_subgroup(ring, rows, gens):
    """Additive closure of all ring multiples of the given rows in R^gens."""
    scalars = ring.elements()
    return _grow_submodule(
        {(ring.zero,) * gens}, (tuple(r) for r in rows),
        lambda x: {_vec_scale(ring, c, x) for c in scalars},
        lambda x, y: _vec_add(ring, x, y))


class FiniteModule:
    """All cosets of span(relations) in R^gens, with canonical minimal reps."""

    def __init__(self, presented):
        ring = presented.ring
        g = presented.gens
        if ring.element_count() ** g > ORACLE_ELEMENT_BOUND:
            raise UnsupportedRingError(
                f"module too large for element enumeration ({ring.element_count()}^{g})")
        self.ring = ring
        self.gens = g
        self.presented = presented
        self.sub = span_subgroup(ring, presented.relations.data, g)
        self._rep = {}
        scalars = ring.elements()
        space = [tuple(v) for v in product(scalars, repeat=g)] if g else [()]
        for x in space:
            if x in self._rep:
                continue
            coset = sorted(_vec_add(ring, x, h) for h in self.sub)
            rep = coset[0]
            for y in coset:
                self._rep[y] = rep
        self.elements = sorted(set(self._rep.values()))

    def rep(self, x):
        return self._rep[tuple(x)]

    @property
    def zero(self):
        return (self.ring.zero,) * self.gens

    def add(self, x, y):
        return self.rep(_vec_add(self.ring, x, y))

    def scale(self, c, x):
        return self.rep(_vec_scale(self.ring, c, x))

    def apply_matrix(self, x, mat, target):
        """Image of the class x under the generator-matrix into target."""
        ring = self.ring
        out = [ring.zero] * mat.cols
        for i, xi in enumerate(x):
            if ring.is_zero(xi):
                continue
            for j in range(mat.cols):
                out[j] = ring.add(out[j], ring.mul(xi, mat.data[i][j]))
        return target.rep(tuple(out))

    def subgroup(self, elems):
        """Closure of the given classes under addition and scalars."""
        return self.extend_subgroup({self.zero}, elems)

    def extend_subgroup(self, sub, elems):
        """Closure of the submodule sub and the given classes, grown from sub."""
        scalars = self.ring.elements()
        return _grow_submodule(
            sub, (self.rep(x) for x in elems),
            lambda x: {self.scale(c, x) for c in scalars}, self.add)


def exponent_multiset(sizes, p):
    """Divisor exponents of a finite module Q over a chain ring with residue
    field of size p, from the cardinalities sizes[j] = |u^j Q|, j = 0..prec.

    len(sizes) - 1 = prec is the working precision; exponent prec means free
    at that truncation.  log_p |u^j Q| - log_p |u^(j+1) Q| counts the cyclic
    summands of exponent above j, so consecutive differences of those counts
    give the multiplicity of each exponent."""
    logs = []
    for n in sizes:
        k = 0
        while n > 1:
            n //= p
            k += 1
        logs.append(k)
    prec = len(sizes) - 1
    counts = [logs[j] - logs[j + 1] for j in range(prec)]
    multiset = []
    for j in range(1, prec):
        multiset.extend([j] * (counts[j - 1] - counts[j]))
    multiset.extend([prec] * counts[prec - 1])
    return multiset


def quotient_exponent_multiset(fm, big, small):
    """Divisor exponents of the quotient big/small of subgroups of fm.

    Exponent prec means free at the working truncation.  Read off from the
    cardinality profile of uniformizer-multiples: |u^j (big/small)|.
    """
    ring = fm.ring
    u = ring.uniformizer_power(1)
    small_sub = fm.subgroup(small) if small else {fm.zero}
    sizes = []
    cur = set(big)
    for _ in range(ring.precision + 1):
        sizes.append(len(fm.extend_subgroup(small_sub, cur)) // len(small_sub))
        cur = {fm.scale(u, x) for x in cur}
    return exponent_multiset(sizes, ring.p)


def torsion_length_of_multiset(multiset, prec):
    return sum(a for a in multiset if a < prec)


def free_rank_of_multiset(multiset, prec):
    return sum(1 for a in multiset if a == prec)
