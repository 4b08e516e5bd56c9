"""Shared random-instance generators for the test suite."""

import hashlib
import json
from fractions import Fraction

from lemmas import kernel
from truncalg.bkrandom import (
    extend_by_free,
    extend_by_mod_s1,
    random_free_leaf,
    random_mod_s1_leaf,
    scramble_node,
)
from truncalg.linalg import Mat, invert, solve_left_mod
from truncalg.modules import (
    PresentedModule,
    compose,
    direct_sum,
    is_zero_map,
    module_map,
    submodule_from_rows,
)
from truncalg.rings import TruncatedBK, TruncatedPowerSeries
from truncalg.spectral import validate
from truncalg.errors import SchemaError


def random_filtered_complex(ring, rng, max_gens=2, weights=2, degrees=2):
    """A random valid filtered complex: modules, a well-defined differential,
    and descending filtrations built compatibly (fil of the target absorbs
    the differential images).  Entries over F_p[z]/z^M are drawn from the
    enumerated ring; over Z/p^N they are drawn as integers below p^N."""
    if isinstance(ring, TruncatedPowerSeries):
        elements = ring.elements()

        def rand_elt():
            return rng.choice(elements)
    else:
        def rand_elt():
            return ring.from_int(rng.randint(0, ring.modulus - 1))

    def rand_mod():
        g = rng.randint(0, max_gens)
        rows = [[rand_elt() for _ in range(g)] for _ in range(rng.randint(0, 2))]
        return PresentedModule(ring, g, Mat(len(rows), g, rows))

    mods = {i: rand_mod() for i in range(degrees)}
    dmats = {}
    for i in range(1, degrees):
        for _ in range(60):
            d = Mat(mods[i].gens, mods[i - 1].gens,
                    [[rand_elt() for _ in range(mods[i - 1].gens)]
                     for _ in range(mods[i].gens)])
            try:
                dm = module_map(mods[i], mods[i - 1], d)
            except Exception:
                continue
            if i >= 2 and not d.mul(dmats[i - 1], ring).is_zero(ring):
                # require d o d = 0 on the nose for chains longer than 2
                try:
                    if not is_zero_map(compose(dm, module_map(mods[i - 1], mods[i - 2],
                                                              dmats[i - 1]))):
                        continue
                except Exception:
                    continue
            dmats[i] = d
            break
        else:
            return None

    fil = {}
    prev_rows = {i: Mat.identity(mods[i].gens, ring).tolist() for i in range(degrees)}
    for n in range(1, weights):
        new_rows = {}
        for i in range(degrees - 1, -1, -1):
            rows = []
            for _ in range(rng.randint(0, 2)):
                c = [rand_elt() for _ in range(len(prev_rows[i]))]
                rows.append([ring.sum(ring.mul(ci, prev_rows[i][k][j])
                                      for k, ci in enumerate(c))
                             for j in range(mods[i].gens)])
            if i + 1 < degrees and (i + 1) in dmats and new_rows.get(i + 1):
                pushed = Mat(len(new_rows[i + 1]), mods[i + 1].gens,
                             new_rows[i + 1]).mul(dmats[i + 1], ring)
                rows.extend(pushed.tolist())
            new_rows[i] = rows
            sub, incl = submodule_from_rows(mods[i], Mat(len(rows), mods[i].gens, rows))
            fil[(i, n)] = (sub, incl.matrix)
        prev_rows = new_rows
    try:
        return validate(ring, 0, degrees - 1, 0, weights - 1, mods, dmats, fil)
    except SchemaError:
        return None


def random_invertible(ring, g, rng, rand_elt):
    while True:
        m = Mat(g, g, [[rand_elt() for _ in range(g)] for _ in range(g)])
        if invert(m, ring) is not None:
            return m


def scrambled_split_lambda_ses(lam, rng):
    """A split SES over the Lambda ring hidden by a generator change."""
    from truncalg.local_global import make_lambda_ses

    def rand_piece():
        style = rng.choice(["int", "free", "qtors"])
        if style == "free":
            return PresentedModule.free(lam, 1)
        if style == "int":
            n = rng.choice([3, 5, 9])
            return PresentedModule.cyclic(lam, lam.from_int(n))
        return PresentedModule.cyclic(lam, lam.q_minus_one())

    a, c = rand_piece(), rand_piece()
    ds = direct_sum([a, c])

    def rand_elt():
        return lam.from_coeffs([rng.randint(-3, 3) for _ in range(lam.mlen)])

    w = random_invertible(lam, 2, rng, rand_elt)
    winv = invert(w, lam)
    mid = PresentedModule(lam, 2, ds.relations.mul(winv, lam))
    inj = Mat(1, 2, [[lam.one, lam.zero]]).mul(winv, lam)
    sur = w.mul(Mat(2, 1, [[lam.zero], [lam.one]]), lam)
    return make_lambda_ses(a, mid, c, inj, sur)


def random_lambda_map(lam, rng):
    """A random well-defined map between small Lambda modules."""
    def rand_mod():
        g = rng.randint(1, 2)
        rows = []
        for _ in range(rng.randint(0, 2)):
            rows.append([lam.from_coeffs([rng.choice([0, 0, 1, 2, 3, 5, -1])
                                          for _ in range(lam.mlen)])
                         for _ in range(g)])
        return PresentedModule(lam, g, Mat(len(rows), g, rows))

    src, tgt = rand_mod(), rand_mod()
    for _ in range(40):
        mat = Mat(src.gens, tgt.gens,
                  [[lam.from_coeffs([rng.choice([0, 0, 0, 1, 2, -1])
                                     for _ in range(lam.mlen)])
                    for _ in range(tgt.gens)] for _ in range(src.gens)])
        try:
            return module_map(src, tgt, mat)
        except Exception:
            continue
    return None


def reference_verify_exact_at(incl, proj):
    """im(incl) == ker(proj) through the pruned, presented `kernel(proj)`,
    as `modules.verify_exact_at` decided it before it read the unpruned
    kernel rows."""
    if not is_zero_map(compose(incl, proj)):
        return False
    _, kincl = kernel(proj)
    if kincl.matrix.rows == 0:
        return True
    return solve_left_mod(incl.matrix, kincl.matrix, incl.target.relations,
                          incl.source.ring) is not None


def matrices_digest(mats):
    """sha256 of a canonical JSON of the matrices' shapes and entries:
    Fractions as strings, ring tuples as lists."""
    def enc(x):
        if isinstance(x, (tuple, list)):
            return [enc(v) for v in x]
        return str(x) if isinstance(x, Fraction) else x

    payload = [[m.rows, m.cols, enc(m.data)] for m in mats]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def random_tower(p, rng, depth=2, n=2, r=1, allow_free=True):
    """Grow a random bar-tower at ramification e = 1, with M = p + 1 so the
    Frobenius trusted precision admits degree-one phi entries."""
    ring = TruncatedBK(p, n, p + 1)
    node = random_mod_s1_leaf(ring, rng, r=r)
    for _ in range(depth - 1):
        if allow_free and rng.random() < 0.25:
            node = extend_by_free(node, random_free_leaf(ring, rng, r=r), rng)
        else:
            node = extend_by_mod_s1(node, random_mod_s1_leaf(ring, rng, r=r), rng)
        if rng.random() < 0.7:
            node = scramble_node(node, rng)
    return node


def scrambled_elementary(ring, rng, max_rank=2, max_torsion=2):
    """A hidden elementary module scrambled by invertible generator changes
    and redundant relation rows; returns (module, hidden free rank, exps).
    At n = 1 there is no exponent 1 <= a <= n - 1, so no torsion is drawn."""
    n = ring.precision_n
    m_rank = rng.randint(0, max_rank)
    tcount = rng.randint(0, max_torsion) if n > 1 else 0
    exps = sorted(rng.randint(1, n - 1) for _ in range(tcount))
    g = m_rank + tcount
    if g == 0:
        return PresentedModule.zero(ring), 0, []
    rel_rows = []
    for i, a in enumerate(exps):
        row = [ring.zero] * g
        row[i] = ring.from_int(ring.p ** a)
        rel_rows.append(row)
    rel = Mat(len(rel_rows), g, rel_rows)

    def rand_elt():
        return ring.from_coeffs([ring.scalar.from_int(rng.randrange(ring.scalar.modulus))
                                 for _ in range(ring.mlen)])

    while True:
        w = Mat(g, g, [[rand_elt() for _ in range(g)] for _ in range(g)])
        if invert(w, ring) is not None:
            break
    scr = rel.mul(w, ring)
    rows = [list(r) for r in scr.data]
    for _ in range(rng.randint(0, 2)):
        if not rows:
            break
        combo = [ring.zero] * g
        for r in rows:
            c = rand_elt()
            combo = [ring.add(x, ring.mul(c, y)) for x, y in zip(combo, r)]
        rows.append(combo)
    rng.shuffle(rows)
    return PresentedModule(ring, g, Mat(len(rows), g, rows)), m_rank, exps
