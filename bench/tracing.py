"""Per-layer tracing from outside the package.

`Tracer.install()` replaces public functions and methods of the stratsums
modules with wrappers; nothing under src/ changes.  A function is wrapped at
every module that binds it (`cli.complete_grid`, `catalog.cyclo_dft`,
`spectral.eval_sum`, `strat.variety_mask`, ...), otherwise calls through
those names would be missed.  Each wrapped binding records a span
(name, start, end, parent) named after the module whose global the caller
used, so `strat.variety_mask` (stratum masks) and `sumengine.variety_mask`
(the sum's own domain) stay apart.

Scalar field operations, polynomial evaluations and cyclotomic value
constructions run millions of times per workload, so they are counted, not
spanned.  A target that no longer exists is listed as missing, and every
metric that needs it is reported as null instead of 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("ffield", "polyring", "cyclo", "sumengine", "strat", "spectral",
          "catalog", "cli")

# (module, attribute path, "span" | "count")
TARGETS = [
    ("ffield", "FieldCtx.__init__", "span"),
    ("ffield", "FieldCtx.dlog_table", "span"),
    ("ffield", "FieldCtx.exp_ranks", "span"),
    ("ffield", "FieldCtx.trace_table", "span"),
    *[("ffield", f"FieldCtx.{op}", "count")
      for op in ("add", "sub", "mul", "pow", "inv", "trace_to_base")],
    ("polyring", "IntPolynomial.eval_mod", "count"),
    ("polyring", "AffineVariety.contains", "count"),
    ("cyclo", "CycloValue.__init__", "count"),
    ("sumengine", "SumGrid.cyclo_at", "count"),
    ("sumengine", "eval_sum", "span"),
    ("sumengine", "trace_function_grid", "span"),
    ("sumengine", "cyclo_dft", "span"),
    ("sumengine", "dft_grid", "span"),
    ("sumengine", "complete_grid", "span"),
    ("sumengine", "variety_mask", "span"),
    ("sumengine", "SumGrid.to_binary", "span"),
    ("sumengine", "SumGrid.to_csv", "span"),
    ("strat", "VarietyChain.masks", "span"),
    ("strat", "VarietyChain.check_containment", "span"),
    ("strat", "VarietyChain.save", "span"),
    ("strat", "StratReport.save", "span"),
    ("strat", "dual_points_mask", "span"),
    ("strat", "smoothness_check", "span"),
    ("strat", "verify_kl_masks", "span"),
    ("strat", "verify_kl", "span"),
    ("spectral", "extension_sums", "span"),
    ("spectral", "extension_sum", "span"),
    ("spectral", "generator_power_traces", "span"),
    ("spectral", "fit_recurrence", "span"),
    ("catalog", "CatalogEntry.masks", "span"),
    ("catalog", "CatalogEntry.verify", "span"),
    ("catalog", "CatalogEntry.check_expected", "span"),
    ("catalog", "family_identity_check", "span"),
    ("cli", "main", "span"),
]


def _note_eval_sum(args, out):
    return {"points": out.n_points}


def _note_cyclo_dft(args, out):
    # n axes, each p output rows of p rolls over p^n cells: n * p^(n+2)
    counts, p = args["counts"], args["p"]
    n = counts.ndim - 1
    return {"moves": n * p ** (n + 2), "bytes": counts.nbytes}


def _note_complete_grid(args, out):
    return {"cells": out.values.size}


def _note_dual_points_mask(args, out):
    # representatives of P^{n-1} over F_{p^e}, e = 1..max_ext
    n, p = args["F"].nvars, args["p"]
    return {"points": sum(p ** (e * k) for e in range(1, args["max_ext"] + 1)
                          for k in range(n))}


NOTES = {"eval_sum": _note_eval_sum, "cyclo_dft": _note_cyclo_dft,
         "complete_grid": _note_complete_grid,
         "dual_points_mask": _note_dual_points_mask}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, note]
        self.counts = {}         # target name -> calls
        self.errors = dict.fromkeys(LAYERS, 0)
        self.missing = []
        self._stack = []
        self._undo = []
        self._seen_errors = {}   # id -> (exception, layers counted)

    # -- installation ---------------------------------------------------------

    def install(self):
        import stratsums  # noqa: F401  (loads every module)

        self.missing = []

        mods = {name: importlib.import_module(f"stratsums.{name}")
                for name in LAYERS}
        bound_by = [importlib.import_module("stratsums"), *mods.values()]
        for layer, path, mode in TARGETS:
            owner = mods[layer]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.missing.append(f"{layer}.{path}")
                continue
            if cls_path:
                name = f"{layer}.{path}"
                self._patch(owner, attr, self._wrap_member(raw, layer, name, mode))
                continue
            # a module function: wrap it under every module that binds it
            for mod in bound_by:
                short = mod.__name__.rpartition(".")[2]
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        wrapped = self._wrap(raw, layer, f"{short}.{attr}", mode,
                                             NOTES.get(attr))
                        self._patch(mod, key, wrapped)
        return self

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_member(self, raw, layer, name, mode):
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, layer, name, mode),
                            raw.fset, raw.fdel, raw.__doc__)
        return self._wrap(raw, layer, name, mode)

    def _wrap(self, fn, layer, name, mode, note=None):
        if mode == "count":
            return self._counter(fn, layer, name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = note(bound.arguments, out)
            return out
        return span

    def _counter(self, fn, layer, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def count(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
        return count

    def _error(self, layer, exc):
        _, layers = self._seen_errors.setdefault(id(exc), (exc, set()))
        if layer not in layers:
            layers.add(layer)
            self.errors[layer] += 1

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (None where a needed target is missing)."""
        return layer_metrics(self.spans, {k: v[0] for k, v in self.counts.items()},
                             self.errors, self.missing)


def _func(name: str) -> str:
    return name.rpartition(".")[2]


def layer_metrics(spans, counts, errors, missing) -> dict:
    """Derive the per-layer metrics from spans and counters.

    Inclusive time of a group counts only its outermost spans; self time is
    a span's duration minus the durations of its direct child spans."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def ancestors(i):
        j = spans[i][3]
        while j >= 0:
            yield j
            j = spans[j][3]

    def select(pred):
        return [i for i in range(n) if pred(spans[i][0])]

    def outermost(idx):
        inside = set(idx)
        return [i for i in idx if not any(a in inside for a in ancestors(i))]

    def incl(pred, minus=None):
        top = outermost(select(pred))
        total = sum(dur[i] for i in top)
        if minus:
            drop = set(select(minus))
            tops = set(top)
            total -= sum(dur[i] for i in outermost(sorted(drop))
                         if any(a in tops for a in ancestors(i)))
        return total

    def self_time(pred):
        return sum(dur[i] - child_time[i] for i in select(pred))

    def notes(pred, key, agg=sum):
        vals = [spans[i][4][key] for i in select(pred) if spans[i][4]]
        return agg(vals) if vals else 0

    def is_(*funcs):
        return lambda name: _func(name) in funcs

    def exact(*names):
        return lambda name: name in names

    def path(kind):
        total = 0
        for i in select(is_("extension_sum")):
            below = {spans[j][0] for j in range(i + 1, n) if i in ancestors(j)}
            fast = any(_func(b) == "generator_power_traces" for b in below)
            enum = any(_func(b) == "eval_sum" for b in below)
            total += kind == ("fast" if fast else "enum" if enum else "table")
        return total

    masks = exact("strat.VarietyChain.masks", "catalog.CatalogEntry.masks",
                  "strat.variety_mask")
    eval_s = incl(is_("eval_sum"))
    points = notes(is_("eval_sum"), "points")
    c = counts.get
    values = {
        "ffield.ctx_build_s": incl(exact(*CTX_BUILD)),
        "ffield.elem_ops": sum(c(op, 0) for op in FIELD_OPS),
        "polyring.eval_mod_calls": c("polyring.IntPolynomial.eval_mod", 0)
        + c("polyring.AffineVariety.contains", 0),
        "sumengine.eval_sum_s": eval_s,
        "sumengine.eval_sum_points": points,
        "sumengine.eval_sum_us_per_point": 1e6 * eval_s / points if points else 0.0,
        "sumengine.trace_function_grid_s": incl(is_("trace_function_grid")),
        "sumengine.cyclo_dft_s": incl(is_("cyclo_dft")),
        "sumengine.cyclo_dft_moves": notes(is_("cyclo_dft"), "moves"),
        "sumengine.cyclo_dft_bytes": notes(is_("cyclo_dft"), "bytes", max),
        "sumengine.dft_grid_s": incl(is_("dft_grid")),
        "sumengine.complete_grid_self_s": self_time(is_("complete_grid")),
        "sumengine.grid_cells": notes(is_("complete_grid"), "cells"),
        "strat.masks_s": incl(masks, minus=is_("dual_points_mask")),
        "strat.check_containment_s": incl(exact("strat.VarietyChain.check_containment")),
        "strat.dual_points_mask_s": incl(is_("dual_points_mask")),
        "strat.dual_points_mask_calls": len(select(is_("dual_points_mask"))),
        "strat.projective_points": notes(is_("dual_points_mask"), "points"),
        "strat.smoothness_check_s": incl(is_("smoothness_check")),
        "strat.verify_kl_masks_s": incl(is_("verify_kl_masks")),
        "spectral.extension_sum_s": incl(is_("extension_sum")),
        "spectral.path_fast": path("fast"),
        "spectral.path_table": path("table"),
        "spectral.path_enum": path("enum"),
        "spectral.generator_power_traces_s": incl(is_("generator_power_traces")),
        "spectral.fit_recurrence_s": incl(is_("fit_recurrence")),
        "cyclo.cyclo_at_calls": c("sumengine.SumGrid.cyclo_at", 0)
        + c("cyclo.CycloValue.__init__", 0),
        "catalog.family_identity_check_self_s": self_time(is_("family_identity_check")),
        "catalog.verify_s": incl(exact("catalog.CatalogEntry.verify")),
        "catalog.check_expected_s": incl(exact("catalog.CatalogEntry.check_expected")),
        "cli.output_s": incl(exact(
            "sumengine.SumGrid.to_binary", "sumengine.SumGrid.to_csv",
            "strat.StratReport.save", "strat.VarietyChain.save")),
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = errors.get(layer, 0)
    gone = set(missing)
    for metric, (_, needs) in PER_LAYER.items():
        if gone.intersection(needs):
            values[metric] = None
    return values


FIELD_OPS = [f"ffield.FieldCtx.{op}" for op in
             ("add", "sub", "mul", "pow", "inv", "trace_to_base")]
CTX_BUILD = ["ffield.FieldCtx.__init__", "ffield.FieldCtx.dlog_table",
             "ffield.FieldCtx.exp_ranks", "ffield.FieldCtx.trace_table"]
GRID_STAGES = ["sumengine.complete_grid", "sumengine.trace_function_grid",
               "sumengine.cyclo_dft", "sumengine.dft_grid"]
DUAL = ["strat.dual_points_mask"]
EXT = ["spectral.extension_sum"]

# metric -> (unit, targets it cannot be measured without).  "-computed"
# units mark values derived from array sizes or arguments, not measured.
PER_LAYER = {
    "ffield.ctx_build_s": ("s", CTX_BUILD),
    "ffield.elem_ops": ("count", FIELD_OPS),
    "polyring.eval_mod_calls": ("count", ["polyring.IntPolynomial.eval_mod",
                                          "polyring.AffineVariety.contains"]),
    "sumengine.eval_sum_s": ("s", ["sumengine.eval_sum"]),
    "sumengine.eval_sum_points": ("count", ["sumengine.eval_sum"]),
    "sumengine.eval_sum_us_per_point": ("us", ["sumengine.eval_sum"]),
    "sumengine.trace_function_grid_s": ("s", ["sumengine.trace_function_grid"]),
    "sumengine.cyclo_dft_s": ("s", ["sumengine.cyclo_dft"]),
    "sumengine.cyclo_dft_moves": ("count-computed", ["sumengine.cyclo_dft"]),
    "sumengine.cyclo_dft_bytes": ("B-computed", ["sumengine.cyclo_dft"]),
    "sumengine.dft_grid_s": ("s", ["sumengine.dft_grid"]),
    "sumengine.complete_grid_self_s": ("s", GRID_STAGES),
    "sumengine.grid_cells": ("count", ["sumengine.complete_grid"]),
    "strat.masks_s": ("s", ["strat.VarietyChain.masks", "catalog.CatalogEntry.masks",
                            "sumengine.variety_mask"] + DUAL),
    "strat.check_containment_s": ("s", ["strat.VarietyChain.check_containment"]),
    "strat.dual_points_mask_s": ("s", DUAL),
    "strat.dual_points_mask_calls": ("count", DUAL),
    "strat.projective_points": ("count-computed", DUAL),
    "strat.smoothness_check_s": ("s", ["strat.smoothness_check"]),
    "strat.verify_kl_masks_s": ("s", ["strat.verify_kl_masks"]),
    "spectral.extension_sum_s": ("s", EXT),
    "spectral.path_fast": ("count", EXT + ["spectral.generator_power_traces"]),
    "spectral.path_table": ("count", EXT + ["spectral.generator_power_traces",
                                            "sumengine.eval_sum"]),
    "spectral.path_enum": ("count", EXT + ["sumengine.eval_sum"]),
    "spectral.generator_power_traces_s": ("s", ["spectral.generator_power_traces"]),
    "spectral.fit_recurrence_s": ("s", ["spectral.fit_recurrence"]),
    "cyclo.cyclo_at_calls": ("count", ["sumengine.SumGrid.cyclo_at",
                                       "cyclo.CycloValue.__init__"]),
    "catalog.family_identity_check_self_s": ("s", ["catalog.family_identity_check"]),
    "catalog.verify_s": ("s", ["catalog.CatalogEntry.verify"]),
    "catalog.check_expected_s": ("s", ["catalog.CatalogEntry.check_expected"]),
    "cli.output_s": ("s", ["sumengine.SumGrid.to_binary", "sumengine.SumGrid.to_csv",
                           "strat.StratReport.save", "strat.VarietyChain.save"]),
    **{f"{layer}.errors": ("count", []) for layer in LAYERS},
}
