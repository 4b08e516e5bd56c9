"""JSON parsing and serialization for all domain objects.

Element encodings are canonical coefficient data only (no expression
strings): integers for the p-adic family, reduced fraction strings for the
localized integers, fixed-length coefficient arrays for the z / (q-1)
families.  Each ring class reads its elements and writes itself
(`element_from_json`, `to_json`).  Non-canonical input is rejected with a
normalization hint and a JSON-pointer-style location."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SchemaError
from .linalg import Mat
from .modules import PresentedModule, check_completion_prime, module_map
from .rings import (
    EisensteinSpec,
    LocalizedIntegers,
    TruncatedBK,
    TruncatedLambda,
    TruncatedPadic,
    TruncatedPowerSeries,
    isprime,
)


def _want(obj, key, loc, types=None):
    """obj[key], which must exist and, given `types`, be of one of them.
    A JSON boolean is never accepted as an integer."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing field '{key}'", loc)
    v = obj[key]
    if types and (not isinstance(v, types) or isinstance(v, bool)):
        raise SchemaError(f"field '{key}' has the wrong type", f"{loc}/{key}")
    return v


def _int_list(data, loc, length=None):
    """A JSON list of integers (not booleans), of the given length if one is given."""
    if not isinstance(data, list) or (length is not None and len(data) != length):
        raise SchemaError("must be a list of " + (f"{length} " if length else "")
                          + "integers", loc)
    for k, v in enumerate(data):
        if type(v) is not int:
            raise SchemaError(f"{v!r} is not an integer", f"{loc}/{k}")
    return data


def parse_primes(data, loc):
    """A JSON list of primes: integers (not booleans) that are prime."""
    if not isinstance(data, list):
        raise SchemaError("must be a list of primes", loc)
    for k, q in enumerate(data):
        if type(q) is not int or not isprime(q):
            raise SchemaError(f"{q!r} is not a prime", f"{loc}/{k}")
    return data


# Z/p^N coefficients are refused when p^N has more digits than this: the
# arithmetic would crawl and the report could not print the entries.
MAX_MODULUS_DIGITS = 4000
# CW complexes are refused above this many cells in one dimension: the
# cohomology solves run on matrices of that size, and 48 x 48 is the top rung
# of the Smith normal form ladder over Z that the tests hold to a CPU budget
# (test_snf_over_z_ladder_stays_small).
MAX_CELLS = 48
# CW complexes are refused above this dimension (a `cells` list of more than
# MAX_DIMENSION + 1 entries): skeletal verification reads every skeleton
# pair, so its cost grows faster than the dimension.  On a 2-vCPU VM,
# cw-verify with 48 cells and zero boundaries in each dimension took 7.8 s
# CPU at dimension 16 and 23 s at 32; the sphere [1] + [0]*n + [1] took
# 8.7 s at n = 400.
MAX_DIMENSION = 16


def _p_and_n(data, loc):
    """p and N of a p-adic family; p^N, never computed, has at most
    MAX_MODULUS_DIGITS decimal digits."""
    p, n = _want(data, "p", loc, int), _want(data, "N", loc, int)
    if p > 1 and n * math.log10(p) >= MAX_MODULUS_DIGITS:
        raise SchemaError(f"p^N has more than {MAX_MODULUS_DIGITS} decimal digits", loc + "/N")
    return p, n


def parse_ring(data, loc="/ring"):
    fam = _want(data, "family", loc, str)
    if fam == "LocalizedIntegers":
        cls, args = LocalizedIntegers, (tuple(parse_primes(
            _want(data, "inverted_primes", loc), loc + "/inverted_primes")),)
    elif fam == "TruncatedPadic":
        cls, args = TruncatedPadic, _p_and_n(data, loc)
    elif fam == "TruncatedPowerSeries":
        cls, args = TruncatedPowerSeries, (_want(data, "p", loc, int), _want(data, "M", loc, int))
    elif fam == "TruncatedBK":
        e, eloc = data.get("eisenstein"), loc + "/eisenstein"
        if e is not None:
            e = EisensteinSpec(
                tuple(_int_list(_want(e, "coefficients", eloc), eloc + "/coefficients")),
                _want(e, "ramification_e", eloc, int))
        cls, args = TruncatedBK, (*_p_and_n(data, loc), _want(data, "M", loc, int), e)
    elif fam == "TruncatedLambda":
        cls, args = TruncatedLambda, (tuple(parse_primes(
            _want(data, "inverted_primes", loc), loc + "/inverted_primes")),
            _want(data, "M", loc, int))
    else:
        raise SchemaError(f"unknown ring family '{fam}'", loc)
    try:
        return cls(*args)
    except SchemaError as exc:  # the ring's own refusal points into its JSON
        raise SchemaError(exc.message, loc + exc.location) from None


def parse_matrix(rows, ring, cols, loc):
    if not isinstance(rows, list):
        raise SchemaError("expected a row-major array of rows", loc)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"row {i} must have length {cols}", f"{loc}/{i}")
        out.append([ring.element_from_json(v, f"{loc}/{i}/{j}") for j, v in enumerate(row)])
    return Mat(len(out), cols, out)


def parse_module(data, loc="/module", ring=None):
    """A presented module; with `ring` given, a ring field the operand
    carries must declare that same ring."""
    if ring is None:
        ring = parse_ring(_want(data, "ring", loc), loc + "/ring")
    elif isinstance(data, dict) and "ring" in data:
        if parse_ring(data["ring"], loc + "/ring") != ring:
            raise SchemaError("module ring differs from the ring of the enclosing input",
                              loc + "/ring")
    gens = _want(data, "generators", loc, int)
    if gens < 0:
        raise SchemaError("generator count must be nonnegative", loc)
    rel = parse_matrix(_want(data, "relations", loc, list), ring, gens, loc + "/relations")
    return PresentedModule(ring, gens, rel)


def module_to_json(m):
    return {"ring": m.ring.to_json(), "generators": m.gens,
            "relations": jsonable(m.relations)}


def _parse_map_matrix(data, key, source, target, loc):
    """The matrix data[key] of a map source -> target: one row per source generator."""
    mat = parse_matrix(_want(data, key, loc, list), source.ring, target.gens, f"{loc}/{key}")
    if mat.rows != source.gens:
        raise SchemaError(f"matrix needs {source.gens} rows", f"{loc}/{key}")
    return mat


def parse_map(data, loc="/map"):
    src = parse_module(_want(data, "source", loc), loc + "/source")
    tgt = parse_module(_want(data, "target", loc), loc + "/target", ring=src.ring)
    return module_map(src, tgt, _parse_map_matrix(data, "matrix", src, tgt, loc))


def parse_ses(data, loc="/ses"):
    a = parse_module(_want(data, "a", loc), loc + "/a")
    b = parse_module(_want(data, "b", loc), loc + "/b", ring=a.ring)
    c = parse_module(_want(data, "c", loc), loc + "/c", ring=a.ring)
    inj = _parse_map_matrix(data, "inject", a, b, loc)
    sur = _parse_map_matrix(data, "surject", b, c, loc)
    from .modules import build_ses

    return build_ses(a, b, c, inj, sur, loc)


def parse_filtered_complex(data, loc="/complex"):
    from .spectral import validate

    ring = parse_ring(_want(data, "ring", loc), loc + "/ring")
    lo = _want(data, "lo", loc, int)
    hi = _want(data, "hi", loc, int)
    wmin = _want(data, "wmin", loc, int)
    wmax = _want(data, "wmax", loc, int)
    mods_json = _want(data, "modules", loc, list)
    if len(mods_json) != hi - lo + 1:
        raise SchemaError(f"need {hi - lo + 1} modules for degrees {lo}..{hi}",
                          loc + "/modules")
    modules = {}
    for k, mj in enumerate(mods_json):
        modules[lo + k] = parse_module(mj, f"{loc}/modules/{k}", ring=ring)
    diffs_json = _want(data, "differentials", loc, list) if "differentials" in data else []
    if len(diffs_json) != max(0, hi - lo):
        raise SchemaError(f"need {max(0, hi - lo)} differentials", loc + "/differentials")
    dmats, pointers = {}, {None: loc}
    for k, rows in enumerate(diffs_json):
        i = lo + k + 1
        pointers[i] = f"{loc}/differentials/{k}"
        dmats[i] = parse_matrix(rows, ring, modules[i - 1].gens, pointers[i])
        if dmats[i].rows != modules[i].gens:
            raise SchemaError(f"differential {i} needs {modules[i].gens} rows", pointers[i])
    fil_data = {}
    fil_json = _want(data, "filtration", loc, list) if "filtration" in data else []
    for k, fj in enumerate(fil_json):
        floc = f"{loc}/filtration/{k}"
        i = _want(fj, "degree", floc, int)
        if i not in modules:
            raise SchemaError(f"degree {i} is outside {lo}..{hi}", floc + "/degree")
        n = _want(fj, "weight", floc, int)
        if not wmin < n <= wmax:
            raise SchemaError(f"weight {n} is outside {wmin + 1}..{wmax}", floc + "/weight")
        if (i, n) in fil_data:
            raise SchemaError(f"a second entry for degree {i} weight {n}", floc)
        sub = parse_module(_want(fj, "module", floc), floc + "/module", ring=ring)
        fil_data[(i, n)] = (sub, _parse_map_matrix(fj, "inclusion", sub, modules[i], floc))
        pointers[(i, n)] = floc
    return validate(ring, lo, hi, wmin, wmax, modules, dmats, fil_data, pointers=pointers)


def parse_bk_module(data, loc="/bk"):
    from .breuil_kisin import make_bk_module

    mod = parse_module(_want(data, "module", loc), loc + "/module")
    if not isinstance(mod.ring, TruncatedBK):
        raise SchemaError("BK modules need a TruncatedBK ring", loc + "/module/ring")
    window = (_int_list(data["height_window"], loc + "/height_window", 2)
              if "height_window" in data else [0, 1])
    phi_rows = _want(data, "phi", loc, list)
    # the phi matrix maps the twisted presentation (same generator count)
    phi = parse_matrix(phi_rows, mod.ring, mod.gens, loc + "/phi")
    if phi.rows != mod.gens:
        raise SchemaError(f"phi needs {mod.gens} rows", loc + "/phi")
    return make_bk_module(mod, phi, tuple(window))


def parse_tower(data, loc="/tower"):
    """Recursive tower certificate: leaves carry a kind tag, extension nodes
    carry sub/quot towers over their ring and the incl/proj matrices."""
    from .breuil_kisin import extension_node, leaf

    kind = _want(data, "kind", loc, str)
    bk = parse_bk_module(_want(data, "bk", loc), loc + "/bk")
    if kind in ("mod_s1", "free"):
        return leaf(bk, kind)
    if kind != "extension":
        raise SchemaError(f"unknown tower kind '{kind}'", loc)
    sub = parse_tower(_want(data, "sub", loc), loc + "/sub")
    quot = parse_tower(_want(data, "quot", loc), loc + "/quot")
    if sub.bk.ring == quot.bk.ring != bk.ring:  # the node's own ring is the odd one out
        raise SchemaError("ring differs from the ring of sub and quot", f"{loc}/bk/module/ring")
    for key, part in (("sub", sub), ("quot", quot)):
        if part.bk.ring != bk.ring:
            raise SchemaError("ring differs from the node's ring", f"{loc}/{key}/bk/module/ring")
    inc = _parse_map_matrix(data, "incl", sub.bk.module, bk.module, loc)
    prj = _parse_map_matrix(data, "proj", bk.module, quot.bk.module, loc)
    incl = module_map(sub.bk.module, bk.module, inc)
    proj = module_map(bk.module, quot.bk.module, prj)
    return extension_node(bk, sub, incl, quot, proj)


def parse_cw(data, loc="/cw"):
    from .cw import make_cw

    cells = _int_list(_want(data, "cells", loc), loc + "/cells")
    if len(cells) > MAX_DIMENSION + 1:
        raise SchemaError(f"cells above dimension {MAX_DIMENSION}", loc + "/cells")
    for k, count in enumerate(cells):
        if count > MAX_CELLS:
            raise SchemaError(f"more than {MAX_CELLS} cells in one dimension", f"{loc}/cells/{k}")
    boundaries = _want(data, "boundaries", loc, list) if "boundaries" in data else []
    for k, rows in enumerate(boundaries):
        if not isinstance(rows, list):
            raise SchemaError("must be a list of rows", f"{loc}/boundaries/{k}")
        for i, row in enumerate(rows):
            _int_list(row, f"{loc}/boundaries/{k}/{i}")
    return make_cw(cells, boundaries, loc)


COMPLETION_KINDS = ("lambda_completion", "localized_completion")
BASE_CHANGE_KINDS = ("identity", "z_to_zero", "z_to_unit", "frobenius_twist") + COMPLETION_KINDS


def parse_base_change_spec(data, loc, ring):
    """(kind, ell) of a base-change spec: `kind` is one of BASE_CHANGE_KINDS;
    `ell`, an optional prime, is needed by the completions, and `ring` must
    not invert it.  `unit` and `precision_n` are refused: nothing reads them."""
    kind = data.get("kind")
    if kind not in BASE_CHANGE_KINDS:
        raise SchemaError("field 'kind' must be one of " + ", ".join(BASE_CHANGE_KINDS),
                          loc + "/kind")
    for k in ("unit", "precision_n"):
        if k in data:
            raise SchemaError(f"field '{k}' is not read by any base change; remove it",
                              f"{loc}/{k}")
    ell = _want(data, "ell", loc, int) if data.get("ell") is not None else None
    if ell is not None and not isprime(ell):
        raise SchemaError(f"{ell} is not a prime", loc + "/ell")
    if kind in COMPLETION_KINDS:
        if ell is None:
            raise SchemaError("missing field 'ell'", loc)
        check_completion_prime(ring, ell, loc + "/ell")
    return kind, ell


def jsonable(x):
    """Best-effort canonical JSON conversion for report payloads."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, Mat):
        return [[jsonable(v) for v in row] for row in x.data]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if hasattr(x, "__dict__"):
        return {k: jsonable(v) for k, v in sorted(vars(x).items())}
    return str(x)
