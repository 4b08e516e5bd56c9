"""The steps random Breuil-Kisin extension towers are grown from.

Towers are grown by structured extension steps (a new p-killed free layer on
top, with a solved Frobenius mixing block, falling back to more divisible
correction terms) interleaved with invertible generator scrambles; free
layers enter as split extensions, which is the only kind a projective
quotient admits.  Every produced tower verifies by construction.  The
tests' `random_tower` and the benchmark's tower pools drive these steps."""

from __future__ import annotations

from .breuil_kisin import (
    extension_node,
    frob_matrix,
    leaf,
    make_bk_module,
)
from .errors import NotWellDefinedError
from .linalg import Mat, invert, is_invertible, solve_left_mod
from .modules import PresentedModule, is_injective, module_map


def _rand_constant_invertible(ring, g, rng):
    while True:
        m = Mat(g, g, [[ring.from_int(rng.randrange(ring.scalar.modulus))
                        for _ in range(g)] for _ in range(g)])
        if is_invertible(m, ring):
            return m


def random_mod_s1_leaf(ring, rng, max_rank=2, r=1):
    """A p-killed S1-free object with phi = U . diag(E^{t_i}), height in [0, r]."""
    g = rng.randint(1, max_rank)
    p = ring.p
    rel = Mat.scalar(g, ring.from_int(p), ring)
    mod = PresentedModule(ring, g, rel)
    e = ring.eisenstein_element()
    diag = Mat(g, g, [[ring.pow(e, rng.randint(0, r)) if i == j else ring.zero
                       for j in range(g)] for i in range(g)])
    u = _rand_constant_invertible(ring, g, rng)
    phi = u.mul(diag, ring)
    bk = make_bk_module(mod, phi, (0, r))
    return leaf(bk, "mod_s1")


def random_free_leaf(ring, rng, r=1):
    g = 1
    mod = PresentedModule.free(ring, g)
    e = ring.eisenstein_element()
    t = rng.randint(0, r)
    phi = Mat(1, 1, [[ring.mul(ring.pow(e, t),
                               ring.from_int(rng.randrange(1, ring.p)))]])
    bk = make_bk_module(mod, phi, (0, r))
    return leaf(bk, "free")


def scramble_node(node, rng):
    """Reparametrize the node's generators by a constant invertible matrix."""
    bk = node.bk
    ring = bk.ring
    g = bk.module.gens
    if g == 0:
        return node
    w = _rand_constant_invertible(ring, g, rng)
    winv = invert(w, ring)
    mod2 = PresentedModule(ring, g, bk.module.relations.mul(winv, ring))
    phi2 = frob_matrix(w, ring).mul(bk.phi.matrix, ring).mul(winv, ring)
    bk2 = make_bk_module(mod2, phi2, bk.height_window)
    if node.kind != "extension":
        return leaf(bk2, node.kind)
    incl2 = module_map(node.sub.bk.module, mod2,
                       node.incl.matrix.mul(winv, ring))
    proj2 = module_map(mod2, node.quot.bk.module,
                       w.mul(node.proj.matrix, ring))
    return extension_node(bk2, node.sub, incl2, node.quot, proj2)


def extend_by_mod_s1(base_node, q_leaf, rng, attempts=8):
    """Extension of the base by a p-killed layer on top, with solved phi mixing."""
    b = base_node.bk
    q = q_leaf.bk
    ring = b.ring
    p = ring.p
    ga, gq = b.module.gens, q.module.gens
    for attempt in range(attempts):
        if attempt == attempts - 1:
            cmat = Mat.zero(gq, ga, ring)
        else:
            style = rng.choice(["constant", "divisible", "zero"])
            if style == "zero":
                cmat = Mat.zero(gq, ga, ring)
            elif style == "divisible":
                cmat = Mat(gq, ga, [[ring.from_int(p * rng.randrange(ring.scalar.modulus // p or 1))
                                     for _ in range(ga)] for _ in range(gq)])
            else:
                cmat = Mat(gq, ga, [[ring.from_int(rng.randrange(ring.scalar.modulus))
                                     for _ in range(ga)] for _ in range(gq)])
        rel = Mat.block([[b.module.relations, Mat.zero(b.module.relations.rows, gq, ring)],
                         [cmat, Mat.scalar(gq, ring.from_int(p), ring)]])
        mod = PresentedModule(ring, ga + gq, rel)
        # phi block [[phi_b, 0], [X, phi_q]] with X solved for well-definedness:
        # p X = phi_q . C - frob(C) . phi_b  modulo the base relations
        rhs = q.phi.matrix.mul(cmat, ring).sub(
            frob_matrix(cmat, ring).mul(b.phi.matrix, ring), ring)
        pid = Mat.scalar(ga, ring.from_int(p), ring)
        sol = solve_left_mod(pid, rhs, b.module.relations, ring)
        if sol is None:
            continue
        phi = Mat.block([[b.phi.matrix, Mat.zero(ga, gq, ring)], [sol, q.phi.matrix]])
        try:
            bk = make_bk_module(mod, phi, b.height_window)
            incl = module_map(b.module, mod, Mat.block(
                [[Mat.identity(ga, ring), Mat.zero(ga, gq, ring)]]))
            proj = module_map(mod, q.module, Mat.block(
                [[Mat.zero(ga, gq, ring)], [Mat.identity(gq, ring)]]))
        except NotWellDefinedError:
            continue
        # combinations of the new relations rows can kill base elements when
        # the mixing block is nonzero; the last attempt's zero block cannot
        if not is_injective(incl):
            continue
        return extension_node(bk, base_node, incl, q_leaf, proj)
    raise RuntimeError("extension construction failed to converge")


def extend_by_free(base_node, f_leaf, rng):
    """Split extension by a free layer (projective quotients only split)."""
    b = base_node.bk
    f = f_leaf.bk
    ring = b.ring
    ga, gf = b.module.gens, f.module.gens
    rel = b.module.relations
    mod = PresentedModule(ring, ga + gf, Mat.block([[rel, Mat.zero(rel.rows, gf, ring)]]))
    phi = Mat.block([[b.phi.matrix, Mat.zero(ga, gf, ring)],
                     [Mat.zero(gf, ga, ring), f.phi.matrix]])
    bk = make_bk_module(mod, phi, b.height_window)
    incl = module_map(b.module, mod, Mat.block([[Mat.identity(ga, ring), Mat.zero(ga, gf, ring)]]))
    proj = module_map(mod, f.module, Mat.block([[Mat.zero(ga, gf, ring)], [Mat.identity(gf, ring)]]))
    return extension_node(bk, base_node, incl, f_leaf, proj)
