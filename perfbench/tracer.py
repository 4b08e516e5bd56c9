"""Per-layer tracing of truncalg from outside the library.

`SpanTracer` wraps every public function of each `truncalg` module (plus a
few named methods) so that each call records a span: name, start and end in
CPU seconds, parent span and the id of the job that caused it.  A wrapper is
rebound in every `truncalg.*` namespace that holds the original function, so
`from .linalg import solve_left` in `modules` is traced like the definition
in `linalg`.  Spans are kept in memory; `layer_metrics` folds them into the
per-layer numbers and `write_spans` stores them when the run ends.

`OpCounter` is a second, separate pass that counts ring element operations,
ring constructions (and the exceptions either raises: rings has no spans),
primality tests and distinct SNF / subgroup inputs.
Counting every ring operation is far denser than the spans, so it runs on
its own and never inflates span self times.

Both install with `install()` and must be undone with `uninstall()`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
import types

CPU = time.process_time

# modules whose public functions become spans; rings is counted, not spanned
SPAN_MODULES = ("linalg", "modules", "smodules", "breuil_kisin", "bkrandom",
                "bruteforce", "spectral", "ext", "local_global", "cw",
                "schemas", "cli")
# methods traced as spans: (module, class, method, span name)
SPAN_METHODS = (("linalg", "Mat", "mul", "linalg.mat_mul"),
                ("modules", "ElementaryDecomposition", "verify", "modules.verify"),
                ("bruteforce", "FiniteModule", "__init__", "bruteforce.finite_module"),
                ("bruteforce", "FiniteModule", "subgroup", "bruteforce.subgroup"))
# private functions traced as spans: ext1_cocycle_oracle ends by comparing
# three of its verdicts with the production split test through this helper
PRIVATE_SPANS = (("ext", "_ses_split_verdict"),)
RING_FAMILIES = {"TruncatedPadic": "padic", "TruncatedPowerSeries": "power_series",
                 "LocalizedIntegers": "localized", "TruncatedBK": "bk",
                 "TruncatedLambda": "lambda"}
SNF_FAMILIES = ("padic", "power_series", "localized")
ELEM_OPS = ("add", "mul", "neg", "is_zero")
# spans whose descendants may not use the solvers (ROADMAP independence rule),
# and the one span below them that is the production side of a comparison
ORACLE_SPANS = ("spectral.oracle", "ext.ext1_cocycle_oracle")
PRODUCTION_CHECK_SPANS = ("ext._ses_split_verdict",)


def truncalg_modules():
    import truncalg

    mods = {}
    for info in pkgutil.iter_modules(truncalg.__path__):
        mods[info.name] = importlib.import_module(f"truncalg.{info.name}")
    return mods


class _Rebinder:
    """Replaces objects by identity in every truncalg namespace and on
    classes, remembering each change so it can be undone exactly."""

    def __init__(self):
        self.mods = truncalg_modules()
        self.undo = []

    def rebind(self, original, replacement):
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, name, original))
                    setattr(mod, name, replacement)

    def patch_attr(self, owner, name, replacement):
        had = name in vars(owner)
        self.undo.append((owner, name, vars(owner)[name] if had else _MISSING))
        setattr(owner, name, replacement)

    def restore(self):
        for owner, name, value in reversed(self.undo):
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self.undo = []


_MISSING = object()


def _ring_family(ring):
    return RING_FAMILIES.get(type(ring).__name__, type(ring).__name__)


class SpanTracer:
    """Span recorder.  `spans` holds [name, start, end, parent, job, tag]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.errors = {}
        self.rebinder = None

    def _wrap(self, name, fn, tag=None):
        spans, stack, errors = self.spans, self.stack, self.errors
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, tracer.job, tag(args) if tag else None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = CPU()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or not spans[parent][0].startswith(layer + "."):
                    errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                rec[2] = CPU()
                stack.pop()

        return traced

    def install(self):
        rb = self.rebinder = _Rebinder()
        for short in SPAN_MODULES:
            mod = rb.mods[short]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                tag = (lambda a: _ring_family(a[1])) if (
                    short, fname) == ("linalg", "smith_normal_form") else None
                rb.rebind(fn, self._wrap(f"{short}.{fname}", fn, tag))
        for short, cls_name, meth, name in SPAN_METHODS:
            cls = getattr(rb.mods[short], cls_name)
            rb.patch_attr(cls, meth, self._wrap(name, vars(cls)[meth]))
        for short, fname in PRIVATE_SPANS:
            fn = getattr(rb.mods[short], fname)
            rb.rebind(fn, self._wrap(f"{short}.{fname}", fn))

    def uninstall(self):
        self.rebinder.restore()


class OpCounter:
    """Counting pass: ring ops per family, ring constructions, isprime calls,
    distinct SNF inputs and distinct subgroup closures, enumerated elements."""

    def __init__(self):
        self.counts = {}
        self.snf_keys = set()
        self.snf_calls = 0
        self.subgroup_keys = set()
        self.subgroup_calls = 0
        self.rebinder = None

    def install(self):
        rb = self.rebinder = _Rebinder()
        rings = rb.mods["rings"]
        counts = self.counts
        for cls_name, fam in RING_FAMILIES.items():
            cls = getattr(rings, cls_name)
            key = f"rings.elem_ops.{fam}"
            for op in ELEM_OPS:
                rb.patch_attr(cls, op, self._count_call(getattr(cls, op), key))
            rb.patch_attr(cls, "__post_init__",
                          self._count_call(getattr(cls, "__post_init__"),
                                           "rings.ring_objects_built"))
        rb.rebind(rings.isprime, self._count_call(rings.isprime, "rings.isprime_calls"))

        linalg = rb.mods["linalg"]
        snf = linalg.smith_normal_form

        def snf_counted(mat, ring):
            self.snf_calls += 1
            self.snf_keys.add((ring, mat))
            return snf(mat, ring)

        rb.rebind(snf, snf_counted)

        bf = rb.mods["bruteforce"]
        init, subgroup = bf.FiniteModule.__init__, bf.FiniteModule.subgroup

        def init_counted(fm, *args, **kwargs):
            init(fm, *args, **kwargs)
            counts["bruteforce.elements_enumerated"] += len(fm._rep)

        def subgroup_counted(fm, elems):
            self.subgroup_calls += 1
            self.subgroup_keys.add((fm.presented, frozenset(elems)))
            return subgroup(fm, elems)

        counts.setdefault("bruteforce.elements_enumerated", 0)
        rb.patch_attr(bf.FiniteModule, "__init__", init_counted)
        rb.patch_attr(bf.FiniteModule, "subgroup", subgroup_counted)

    def _count_call(self, fn, key):
        """Wrap a rings callable: count its calls, and the exceptions it
        raises as rings.errors."""
        counts = self.counts
        counts.setdefault(key, 0)
        counts.setdefault("rings.errors", 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts["rings.errors"] += 1
                raise
        return counted

    def uninstall(self):
        self.rebinder.restore()

    def metrics(self):
        """The counts; also drops the recorded inputs, which would otherwise
        keep every matrix alive (and slow the garbage collector) in later passes."""
        out = dict(self.counts)
        out["linalg.snf_distinct_ratio"] = (
            len(self.snf_keys) / self.snf_calls if self.snf_calls else 1.0)
        out["bruteforce.subgroup_distinct_ratio"] = (
            len(self.subgroup_keys) / self.subgroup_calls if self.subgroup_calls else 1.0)
        self.snf_keys = set()
        self.subgroup_keys = set()
        return out


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics

# metric -> span names whose self times it sums (calls count the same spans)
SELF_TIME_GROUPS = {
    "linalg.solve": ("linalg.solve_left", "linalg.solve_left_info",
                     "linalg.solve_left_mod", "linalg.invert"),
    "linalg.kernel": ("linalg.kernel_left", "linalg.kernel_left_parts"),
    "linalg.expand_matrix": ("linalg.expand_matrix", "linalg.expand_rows",
                             "linalg.reassemble_rows"),
    "linalg.mat_mul": ("linalg.mat_mul",),
    "modules.prune_spanning_rows": ("modules.prune_spanning_rows",),
    "modules.kernel": ("modules.kernel",),
    "modules.decompose_elementary": ("modules.decompose_elementary",),
    "modules.verify": ("modules.verify_exact_at", "modules.verify", "modules.maps_equal"),
    "modules.split_test": ("modules.split_test",),
    "modules.base_change": ("modules.base_change", "modules.base_change_map",
                            "modules.base_change_rings"),
    "modules.support_primes": ("modules.support_primes",),
    "smodules.decompose_over_s": ("smodules.decompose_over_s",),
    "smodules.gr_p": ("smodules.gr_p",),
    "breuil_kisin.verify_tower": ("breuil_kisin.verify_tower",),
    "breuil_kisin.structure_check": ("breuil_kisin.structure_check",),
    "breuil_kisin.check_height": ("breuil_kisin.check_height",),
    "bruteforce.finite_module": ("bruteforce.finite_module",),
    "bruteforce.subgroup": ("bruteforce.subgroup",),
    "bruteforce.span_subgroup": ("bruteforce.span_subgroup",),
    "spectral.oracle": ("spectral.oracle",),
    "spectral.degeneration_report": ("spectral.degeneration_report",),
    "spectral.page": ("spectral.page",),
    "ext.ext1": ("ext.ext1",),
    "ext.ext1_cocycle_oracle": ("ext.ext1_cocycle_oracle",),
    "local_global.zero_local_global": ("local_global.zero_local_global",),
    "local_global.local_split_survey": ("local_global.local_split_survey",),
    "cw.ktheory": ("cw.ktheory",),
    "cw.skeletal_verification": ("cw.skeletal_verification",),
    "cli.emit": ("cli.emit",),
}
# groups that also report how often they were entered from outside the group
CALL_GROUPS = ("linalg.solve", "linalg.kernel", "linalg.mat_mul",
               "modules.prune_spanning_rows", "modules.support_primes",
               "bruteforce.finite_module", "bruteforce.subgroup")
LAYERS = ("linalg", "modules", "smodules", "breuil_kisin", "bruteforce",
          "spectral", "ext", "local_global", "cw", "schemas", "cli")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, errors):
    self_by_name = {}
    snf = {fam: [0, 0.0] for fam in SNF_FAMILIES}
    for rec, st in zip(spans, self_times(spans)):
        self_by_name[rec[0]] = self_by_name.get(rec[0], 0.0) + st
        if rec[0] == "linalg.smith_normal_form":
            fam = snf.setdefault(rec[5], [0, 0.0])
            fam[0] += 1
            fam[1] += st
    out = {}
    for metric, names in SELF_TIME_GROUPS.items():
        out[f"{metric}_self_s"] = sum(self_by_name.get(n, 0.0) for n in names)
    for metric in CALL_GROUPS:
        names = set(SELF_TIME_GROUPS[metric])
        out[f"{metric}_calls"] = sum(
            1 for rec in spans
            if rec[0] in names and (rec[3] is None or spans[rec[3]][0] not in names))
    for fam in SNF_FAMILIES:
        out[f"linalg.snf_calls.{fam}"] = snf[fam][0]
        out[f"linalg.snf_self_s.{fam}"] = snf[fam][1]
    out["schemas.parse_self_s"] = sum(
        v for name, v in self_by_name.items() if name.startswith("schemas.parse"))
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors.get(layer, 0)
    return out


def oracle_solver_violations(spans):
    """linalg spans below an oracle or bruteforce span (should be none).
    The walk up stops at a production-side comparison span."""
    bad = []
    for rec in spans:
        if not rec[0].startswith("linalg."):
            continue
        up = rec[3]
        while up is not None:
            name = spans[up][0]
            if name in PRODUCTION_CHECK_SPANS:
                break
            if name in ORACLE_SPANS or name.startswith("bruteforce."):
                bad.append(f"{rec[0]} under {name} (job {rec[4]})")
                break
            up = spans[up][3]
    return bad


def write_spans(path, spans):
    """Spans as gzip JSON: one [name, start, end, parent, job, tag] per line."""
    with gzip.open(path, "wt") as fh:
        for rec in spans:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

