"""Element-level enumeration oracles for small finite modules.

These deliberately avoid the SNF/solver machinery: modules are materialized
as explicit coset spaces, subgroups are closed pointwise, divisor multisets
are read off cardinality profiles |u^j Q|, and homomorphisms are found by
exhaustive generator-image search.  Used as ground truth in tests and by
spectral.oracle.
"""

from __future__ import annotations

from itertools import product

from .errors import UnsupportedRingError
from .linalg import Mat
from .rings import TruncatedPadic, TruncatedPowerSeries

ORACLE_ELEMENT_BOUND = 4096


def enumerate_ring(ring):
    if isinstance(ring, TruncatedPadic):
        return list(range(ring.modulus))
    if isinstance(ring, TruncatedPowerSeries):
        return [tuple(c) for c in product(range(ring.p), repeat=ring.mlen)]
    raise UnsupportedRingError(f"cannot enumerate {type(ring).__name__}")


def ring_size(ring):
    if isinstance(ring, TruncatedPadic):
        return ring.modulus
    if isinstance(ring, TruncatedPowerSeries):
        return ring.p ** ring.mlen
    raise UnsupportedRingError(f"cannot enumerate {type(ring).__name__}")


def _vec_add(ring, x, y):
    return tuple(ring.add(a, b) for a, b in zip(x, y))


def _vec_scale(ring, c, x):
    return tuple(ring.mul(c, a) for a in x)


def span_subgroup(ring, rows, gens):
    """Additive closure of all ring multiples of the given rows in R^gens."""
    zero = (ring.zero,) * gens
    scalars = enumerate_ring(ring)
    seeds = {zero}
    for r in rows:
        for c in scalars:
            seeds.add(_vec_scale(ring, c, tuple(r)))
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = _vec_add(ring, x, s)
                if y not in closed:
                    closed.add(y)
                    nxt.append(y)
        frontier = nxt
    return closed


class FiniteModule:
    """All cosets of span(relations) in R^gens, with canonical minimal reps."""

    def __init__(self, presented, cancel=None):
        ring = presented.ring
        g = presented.gens
        if ring_size(ring) ** g > ORACLE_ELEMENT_BOUND:
            raise UnsupportedRingError(
                f"module too large for element enumeration ({ring_size(ring)}^{g})")
        self.ring = ring
        self.gens = g
        self.presented = presented
        self.sub = span_subgroup(ring, presented.relations.data, g)
        self._rep = {}
        scalars = enumerate_ring(ring)
        space = [tuple(v) for v in product(scalars, repeat=g)] if g else [()]
        for x in space:
            if cancel is not None and cancel():
                raise UnsupportedRingError("oracle cancelled")
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
        seeds = {self.zero}
        for x in elems:
            for c in enumerate_ring(self.ring):
                seeds.add(self.scale(c, x))
        closed = set(seeds)
        frontier = list(closed)
        while frontier:
            nxt = []
            for x in frontier:
                for s in seeds:
                    y = self.add(x, s)
                    if y not in closed:
                        closed.add(y)
                        nxt.append(y)
            frontier = nxt
        return closed


def _log_size(n, p):
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def quotient_exponent_multiset(fm, big, small):
    """Divisor exponents of the quotient big/small of subgroups of fm.

    Exponent prec means free at the working truncation.  Read off from the
    cardinality profile of uniformizer-multiples: |u^j (big/small)|.
    """
    ring = fm.ring
    prec = ring.precision
    p = ring.p
    u = ring.uniformizer_power(1)
    small_sub = fm.subgroup(small) if small else {fm.zero}
    sizes = []
    cur = set(big)
    for _ in range(prec + 1):
        joined = fm.subgroup(cur | small_sub)
        sizes.append(_log_size(len(joined) // len(small_sub), p))
        cur = {fm.scale(u, x) for x in cur}
    counts = [sizes[j] - sizes[j + 1] for j in range(prec)]
    multiset = []
    for j in range(1, prec):
        here = counts[j - 1] - counts[j]
        if here:
            multiset.extend([j] * here)
    multiset.extend([prec] * counts[prec - 1])
    return sorted(multiset)


def torsion_length_of_multiset(multiset, prec):
    return sum(a for a in multiset if a < prec)


def free_rank_of_multiset(multiset, prec):
    return sum(1 for a in multiset if a == prec)
