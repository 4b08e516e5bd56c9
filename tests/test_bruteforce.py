"""The element-level closures and the oracle's split test against naive
references.

`FiniteModule.subgroup` and `span_subgroup` grow a submodule one generator
at a time.  The reference below is the breadth-first closure under all
pairwise sums that they replaced: slower, but obviously right.  Likewise
`spectral._has_complement` tries lifts of generators, and its reference is
the enumeration of every intermediate submodule that it replaced, and
`quotient_exponent_multiset` grows each closure from the smaller subgroup,
where its reference regrows every closure from zero.
"""

import importlib
import math
import pkgutil
import random

import pytest

import truncalg
from truncalg.bruteforce import (
    ORACLE_ELEMENT_BOUND,
    FiniteModule,
    quotient_exponent_multiset,
    span_subgroup,
)
from truncalg.linalg import Mat
from truncalg.modules import PresentedModule
from truncalg.rings import TruncatedPadic, TruncatedPowerSeries
from truncalg.spectral import _has_complement

# (ring, largest generator count), each within ORACLE_ELEMENT_BOUND
RINGS = [
    (TruncatedPadic(2, 2), 4),          # Z/4
    (TruncatedPadic(2, 3), 3),          # Z/8
    (TruncatedPadic(3, 2), 3),          # Z/9
    (TruncatedPowerSeries(2, 2), 4),    # F_2[z]/z^2
    (TruncatedPowerSeries(3, 2), 3),    # F_3[z]/z^2
]
MODULES_PER_RING = 12


def pairwise_closure(zero, seeds, add):
    """Close {zero} and the seeds under pairwise sums, level by level."""
    seeds = set(seeds) | {zero}
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = add(x, s)
                if y not in closed:
                    closed.add(y)
                    nxt.append(y)
        frontier = nxt
    return closed


def reference_subgroup(fm, elems):
    scalars = fm.ring.elements()
    return pairwise_closure(fm.zero, {fm.scale(c, x) for x in elems for c in scalars},
                            fm.add)


def reference_span(ring, rows, gens):
    scalars = ring.elements()
    seeds = {tuple(ring.mul(c, a) for a in r) for r in rows for c in scalars}
    return pairwise_closure((ring.zero,) * gens, seeds,
                            lambda x, y: tuple(ring.add(a, b) for a, b in zip(x, y)))


def random_vectors(ring, gens, count, rng):
    scalars = ring.elements()
    return [tuple(rng.choice(scalars) for _ in range(gens)) for _ in range(count)]


def random_modules(ring, max_gens, seed):
    """Presented modules with 1..max_gens generators and 0..3 relations."""
    rng = random.Random(seed)
    out = []
    for _ in range(MODULES_PER_RING):
        g = rng.randint(1, max_gens)
        assert ring.element_count() ** g <= ORACLE_ELEMENT_BOUND
        rows = [list(v) for v in random_vectors(ring, g, rng.randint(0, 3), rng)]
        out.append(PresentedModule(ring, g, Mat(len(rows), g, rows)))
    return out


MODULES = {k: random_modules(ring, max_gens, 41 + k)
           for k, (ring, max_gens) in enumerate(RINGS)}


@pytest.mark.parametrize("k", range(len(RINGS)))
def test_subgroup_matches_pairwise_closure(k):
    """Canonical classes and raw vectors alike, from zero to four elements."""
    rng = random.Random(1000 + k)
    for pm in MODULES[k]:
        fm = FiniteModule(pm)
        for _ in range(4):
            elems = [rng.choice(fm.elements) for _ in range(rng.randint(0, 2))]
            elems += random_vectors(pm.ring, pm.gens, rng.randint(0, 2), rng)
            assert fm.subgroup(elems) == reference_subgroup(fm, elems), (pm, elems)


@pytest.mark.parametrize("k", range(len(RINGS)))
def test_span_subgroup_matches_pairwise_closure(k):
    rng = random.Random(2000 + k)
    for pm in MODULES[k]:
        assert span_subgroup(pm.ring, pm.relations.data, pm.gens) == \
            reference_span(pm.ring, pm.relations.data, pm.gens), pm
        rows = random_vectors(pm.ring, pm.gens, rng.randint(0, 4), rng)
        assert span_subgroup(pm.ring, rows, pm.gens) == \
            reference_span(pm.ring, rows, pm.gens), (pm, rows)


@pytest.mark.parametrize("k", range(len(RINGS)))
def test_subgroup_is_closed_and_canonical(k):
    """The closure of a subgroup is itself, and it holds only canonical reps."""
    rng = random.Random(3000 + k)
    for pm in MODULES[k]:
        fm = FiniteModule(pm)
        sub = fm.subgroup(random_vectors(pm.ring, pm.gens, rng.randint(1, 3), rng))
        assert fm.subgroup(sub) == sub
        assert all(fm.rep(e) == e for e in sub)
        assert sub <= set(fm.elements)
        assert len(fm.elements) % len(sub) == 0
        assert fm.subgroup(fm.elements) == set(fm.elements)
        assert fm.subgroup([]) == {fm.zero}


def reference_submodules(fm, big, small):
    """Every submodule between small and big, grown breadth-first from small
    one element at a time: exponential in the size of big/small."""
    subs = {frozenset(small)}
    frontier = [frozenset(small)]
    while frontier:
        nxt = []
        for s in frontier:
            for e in big:
                if e in s:
                    continue
                grown = frozenset(fm.subgroup(set(s) | {e}))
                if grown not in subs:
                    subs.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return subs


def reference_has_complement(fm, big, small, a_set):
    return any(a_set & c == small and fm.subgroup(a_set | c) == big
               for c in reference_submodules(fm, big, small))


# (ring index in RINGS, seed): Z/4, Z/8, Z/9 and F_2[z]/z^2
COMPLEMENT_CASES = [(0, 51), (1, 52), (2, 61), (3, 54)]
COMPLEMENT_ELEMENT_BOUND = 32   # big stays small enough to enumerate


def random_triples(k, seed):
    """Seeded (big, small, a_set) with small < a_set < big, submodules of the
    modules of MODULES[k]; big is spanned by two random vectors."""
    rng = random.Random(seed)
    for pm in MODULES[k]:
        fm = FiniteModule(pm)
        for _ in range(10):
            big = fm.subgroup(random_vectors(pm.ring, pm.gens, 2, rng))
            if len(big) > COMPLEMENT_ELEMENT_BOUND:
                continue
            pool = sorted(big)
            small = fm.subgroup([rng.choice(pool) for _ in range(rng.randint(0, 1))])
            a_set = fm.subgroup(small | {rng.choice(pool)})
            if small < a_set < big:
                yield fm, big, small, a_set


@pytest.mark.parametrize("k,seed", COMPLEMENT_CASES)
def test_has_complement_matches_enumeration(k, seed):
    """Lifting generators finds a complement exactly when one of the
    enumerated submodules is a complement, and both answers occur."""
    seen = set()
    for fm, big, small, a_set in random_triples(k, seed):
        want = reference_has_complement(fm, big, small, a_set)
        assert _has_complement(fm, big, small, a_set) == want, \
            (fm.presented, sorted(big), sorted(small), sorted(a_set))
        seen.add(want)
    assert seen == {True, False}


def reference_quotient_exponent_multiset(fm, big, small):
    """The quotient's exponents with every closure big' + small regrown from
    zero, as quotient_exponent_multiset computed them before it grew each
    closure from the smaller subgroup."""
    ring = fm.ring
    prec = ring.precision
    u = ring.uniformizer_power(1)
    small_sub = fm.subgroup(small) if small else {fm.zero}
    sizes = []
    cur = set(big)
    for _ in range(prec + 1):
        quotient = len(fm.subgroup(cur | small_sub)) // len(small_sub)
        sizes.append(round(math.log(quotient, ring.p)))
        cur = {fm.scale(u, x) for x in cur}
    counts = [sizes[j] - sizes[j + 1] for j in range(prec)]
    multiset = [j for j in range(1, prec) for _ in range(counts[j - 1] - counts[j])]
    return sorted(multiset + [prec] * counts[prec - 1])


@pytest.mark.parametrize("k,seed", [(0, 71), (2, 72), (3, 73)])
def test_quotient_exponents_match_regrowth(k, seed):
    """Z/4, Z/9 and F_2[z]/z^2: seeded pairs small <= big of subgroups, and
    the whole module over each of them."""
    rng = random.Random(seed)
    pairs = 0
    for pm in MODULES[k]:
        fm = FiniteModule(pm)
        for _ in range(4):
            big = fm.subgroup(random_vectors(pm.ring, pm.gens, rng.randint(1, 3), rng))
            pool = sorted(big)
            small = fm.subgroup([rng.choice(pool) for _ in range(rng.randint(0, 2))])
            for b in (big, set(fm.elements)):
                want = reference_quotient_exponent_multiset(fm, b, small)
                assert quotient_exponent_multiset(fm, b, small) == want, \
                    (pm, sorted(b), sorted(small))
                pairs += 1
    assert pairs == 8 * len(MODULES[k])


def test_closures_use_no_solver(monkeypatch):
    """The oracle's closures and split test stand apart from the SNF and the
    solvers: with both patched to raise in every namespace, they still run."""
    built = [(pm, random_vectors(pm.ring, pm.gens, 3, random.Random(k)))
             for k, mods in MODULES.items() for pm in mods[:2]]

    def boom(*args, **kwargs):
        raise AssertionError("solver called from the element-level oracle")

    for info in pkgutil.iter_modules(truncalg.__path__):
        mod = importlib.import_module(f"truncalg.{info.name}")
        for name in ("smith_normal_form", "solve_left_info", "in_row_span"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    for pm, vecs in built:
        fm = FiniteModule(pm)
        sub = fm.subgroup(vecs)
        assert sub == reference_subgroup(fm, vecs)
        assert span_subgroup(pm.ring, vecs, pm.gens) == reference_span(pm.ring, vecs, pm.gens)
        quotient_exponent_multiset(fm, fm.elements, sub)
    for k, seed in COMPLEMENT_CASES:
        for fm, big, small, a_set in random_triples(k, seed):
            _has_complement(fm, big, small, a_set)
