"""Per-layer tracer for poissonlab, installed from outside the package.

`Tracer.install()` replaces the layer functions listed in LAYERS with
wrappers.  Coarse layers get spans (name, start, end, parent) whose self
time is the span minus the wrapped child spans inside it; the hot scalar
layer and a few cheap entry points get plain counters, because a span
around each 10 microsecond Q(i) operation would distort the run.

A layer whose function no longer exists is listed in `missing_layers`
and its metrics read 0; the run itself is unaffected.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, module under poissonlab, attribute path, "span" or "count").
# Several entries may share a layer name; their numbers add up.
LAYERS = (
    ("rational.mul", "rational", "GaussianRational.__mul__", "count"),
    ("rational.add", "rational", "GaussianRational.__add__", "count"),
    ("rational.div", "rational", "GaussianRational.__truediv__", "count"),
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", "span"),
    ("laurent.substitute", "laurent", "LaurentPoly.substitute", "span"),
    ("laurent.exact_div", "laurent", "LaurentPoly.exact_div", "count"),
    ("multivector.pushforward", "multivector", "pushforward", "span"),
    ("multivector.schouten", "multivector", "schouten", "span"),
    ("multivector.schouten_formed", "multivector", "schouten_formed", "count"),
    ("linalg.kernel_basis", "linalg", "kernel_basis", "span"),
    ("linalg.generic_rank", "linalg", "generic_rank", "span"),
    ("linalg.quotient_coords", "linalg", "quotient_coords", "span"),
    ("linalg.colspace", "linalg", "ColumnSpace.add", "span"),
    ("linalg.colspace", "linalg", "ColumnSpace.contains", "span"),
    ("obstruction.r4_search", "obstruction", "r4_search", "span"),
    ("obstruction.h1_kernel", "obstruction",
     "DeformationComplexModel.h1_kernel_elements", "count"),
    ("obstruction.primary_obstruction", "obstruction", "primary_obstruction", "count"),
    ("ruled.complex_model", "ruled", "complex_model", "span"),
    ("ruled.hyper_h1", "ruled", "hyper_h1", "span"),
    ("hopf.cover_model", "hopf", "cover_model", "span"),
    ("hopf.id_minus_fstar", "hopf", "id_minus_fstar", "span"),
    ("hopf.invariant_fields", "hopf", "invariant_fields", "count"),
    ("hopf.invariant_bivectors", "hopf", "invariant_bivectors", "count"),
    ("hopf.h0_bracket_matrix", "hopf", "h0_bracket_matrix", "span"),
    ("products.ep1_classify", "products", "ep1_classify", "span"),
    ("products.tp1_classify", "products", "tp1_classify", "span"),
    ("expr.eval_str", "expr", "eval_str", "span"),
)

# Exceptions that count as a failed attempt of a layer.
FAILURES = {
    "laurent.exact_div": ("laurent", "InexactDivision"),
    "linalg.quotient_coords": ("linalg", "NotInSpan"),
}

# Layers whose individual spans are too many to keep; they still count
# towards their parents' child time.
UNRECORDED = {"laurent.mul", "laurent.substitute", "multivector.schouten"}

# Per-layer metric -> unit; the names are those of BENCHMARK.json
# "per_layer".  perfbench/README.md lists the end-to-end metric and
# workload each one should move.
METRICS = {
    "rational.mul.calls": "count",
    "rational.add.calls": "count",
    "rational.div.calls": "count",
    "rational.mul.complex_frac": "frac",
    "laurent.mul.calls": "count",
    "laurent.mul.term_pairs": "count",
    "laurent.mul.self_s": "s",
    "laurent.substitute.calls": "count",
    "laurent.substitute.self_s": "s",
    "laurent.exact_div.calls": "count",
    "laurent.exact_div.fail": "count",
    "laurent.exact_div.useful_ratio": "ratio",
    "multivector.pushforward.calls": "count",
    "multivector.pushforward.self_s": "s",
    "multivector.schouten.calls": "count",
    "multivector.schouten.self_s": "s",
    "multivector.schouten_formed.calls": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.kernel_basis.cells": "count",
    "linalg.generic_rank.calls": "count",
    "linalg.generic_rank.self_s": "s",
    "linalg.quotient_coords.calls": "count",
    "linalg.quotient_coords.self_s": "s",
    "linalg.quotient_coords.fail": "count",
    "linalg.colspace.calls": "count",
    "linalg.colspace.self_s": "s",
    "obstruction.r4_search.calls": "count",
    "obstruction.r4_search.self_s": "s",
    "obstruction.h1_kernel.calls": "count",
    "obstruction.h1_kernel.per_search": "ratio",
    "obstruction.primary_obstruction.calls": "count",
    "ruled.complex_model.calls": "count",
    "ruled.complex_model.self_s": "s",
    "ruled.hyper_h1.self_s": "s",
    "hopf.cover_model.calls": "count",
    "hopf.cover_model.self_s": "s",
    "hopf.cover_model.repeat_ratio": "ratio",
    "hopf.id_minus_fstar.calls": "count",
    "hopf.id_minus_fstar.self_s": "s",
    "hopf.invariant_rebuilds": "count",
    "hopf.h0_bracket_matrix.self_s": "s",
    "products.ep1_classify.self_s": "s",
    "products.tp1_classify.self_s": "s",
    "expr.eval_str.calls": "count",
    "expr.eval_str.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _resolve(module, path):
    owner, value = None, module
    for part in path.split("."):
        owner, value = value, getattr(value, part, None)
        if value is None:
            return None, None
    return owner, value


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.fails = defaultdict(int)
        self.extra = defaultdict(int)
        self.cover_keys = set()
        self.spans = []  # (id, layer, start, end, parent id) of recorded layers
        self.missing_layers = []
        self._stack = []  # frames [start, child time, span id]

    # ------------------------------------------------------------------
    # hooks that measure the size of the work a call was given

    def _hook(self, layer):
        extra = self.extra
        if layer == "rational.mul":
            def hook(args):
                if args[0].im or getattr(args[1], "im", 0):
                    extra["rational.mul.complex"] += 1
        elif layer == "laurent.mul":
            def hook(args):
                other = args[1]
                extra["laurent.mul.term_pairs"] += len(args[0].terms) * (
                    len(other.terms) if hasattr(other, "terms") else 1)
        elif layer == "linalg.kernel_basis":
            def hook(args):
                extra["linalg.kernel_basis.cells"] += args[0].n_rows * args[0].n_cols
        elif layer == "hopf.cover_model":
            def hook(args):
                ctx, cap = args[0], args[1]
                self.cover_keys.add((ctx.type.tag, ctx.type.p, cap))
        else:
            return None
        return hook

    # ------------------------------------------------------------------
    # wrappers

    def _counted(self, layer, fn, hook, fail):
        calls, fails = self.calls, self.fails

        def counted(*args, **kwargs):
            calls[layer] += 1
            if hook is not None:
                hook(args)
            try:
                return fn(*args, **kwargs)
            except fail:
                fails[layer] += 1
                raise

        return counted

    def _spanned(self, layer, fn, hook, fail):
        calls, fails, self_s = self.calls, self.fails, self.self_s
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        record = layer not in UNRECORDED

        def spanned(*args, **kwargs):
            calls[layer] += 1
            if hook is not None:
                hook(args)
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, len(spans) if record else parent]
            if record:
                spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except fail:
                fails[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans[frame[2]] = (frame[2], layer, frame[0], end, parent)

        return spanned

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every LAYERS entry, rebinding each module-level alias."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "poissonlab" or n.startswith("poissonlab.")]
        for layer, modname, path, kind in LAYERS:
            owner, fn = _resolve(sys.modules.get(f"poissonlab.{modname}"), path)
            if not callable(fn):
                self.missing_layers.append(layer)
                continue
            fmod, fname = FAILURES.get(layer, (None, None))
            fail = getattr(sys.modules.get(f"poissonlab.{fmod}"), fname, ()) if fname else ()
            make = self._spanned if kind == "span" else self._counted
            wrapper = make(layer, fn, self._hook(layer), fail)
            if isinstance(owner, type):
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def metrics(self) -> dict:
        """Every METRICS entry except trace.overhead_frac, which needs an
        untraced run to compare with."""
        c, s, x = self.calls, self.self_s, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "rational.mul.complex_frac": ratio(x["rational.mul.complex"], c["rational.mul"]),
            "laurent.mul.term_pairs": x["laurent.mul.term_pairs"],
            "laurent.exact_div.fail": self.fails["laurent.exact_div"],
            "laurent.exact_div.useful_ratio": ratio(
                c["laurent.exact_div"] - self.fails["laurent.exact_div"],
                c["laurent.exact_div"]),
            "linalg.kernel_basis.cells": x["linalg.kernel_basis.cells"],
            "linalg.quotient_coords.fail": self.fails["linalg.quotient_coords"],
            "obstruction.h1_kernel.per_search": ratio(c["obstruction.h1_kernel"],
                                                      c["obstruction.r4_search"]),
            "hopf.cover_model.repeat_ratio": ratio(c["hopf.cover_model"],
                                                   len(self.cover_keys)),
            "hopf.invariant_rebuilds": c["hopf.invariant_fields"]
            + c["hopf.invariant_bivectors"],
        }
        for name in METRICS:
            if name in out or name == "trace.overhead_frac":
                continue
            layer, _, field = name.rpartition(".")
            out[name] = c[layer] if field == "calls" else s[layer]
        return out
