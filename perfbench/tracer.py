"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each finshift module (a layer)
and rebinds the wrappers wherever a finshift module binds the original, so
calls between modules and within a module both pass through a wrapper.  Each
call records one span: function, start, end and parent span; spans are kept
in flat arrays and reduced when the run ends.  A span's self time is its
duration minus the durations of its child spans.

Work counts are computed from each call's inputs (and, for counts of
results, its return value): they are exact and repeat from run to run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "files", "groups", "patterns", "shiftspace", "freext",
          "dynprops", "zline", "suites")

# private functions that another module calls directly: cli and suites
# reach into zline for these
CROSS_MODULE_PRIVATE = {"zline": ("_cover_words", "_transfer_count")}

# sub-layers: metric prefix -> functions whose self time it sums
BUCKETS = {
    "groups.build": ("groups", ("from_table", "cyclic", "product", "build_tower",
                                "make_group", "z2_power_tower")),
    "groups.subgroups": ("groups", ("all_subgroups",)),
    "groups.cosets": ("groups", ("right_cosets", "coset_action")),
    "shiftspace.enum": ("shiftspace", ("enumerate_sft", "enumerate_sft_naive")),
    "freext.extend": ("freext", ("free_extension", "tower_extend")),
    "freext.extract": ("freext", ("base_extract",)),
    "dynprops.entropy": ("dynprops", ("entropy", "entropy_set")),
    "dynprops.aut": ("dynprops", ("automorphism_group",)),
    "dynprops.mme": ("dynprops", ("mme_unique_check", "mme", "measure_from_orbit_masses",
                                  "partition_entropy", "measure_entropy")),
    "dynprops.si": ("dynprops", ("strongly_irreducible_witness", "minimal_si_witnesses")),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _enum_work(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {
        "shiftspace.enum.configs": len(result.configs),
        "shiftspace.enum.space": spec.alphabet.size ** spec.group.order,
    }


# work counters per function: (args, kwargs, result) -> {counter: amount}
WORK = {
    "shiftspace.enumerate_sft": _enum_work,
    "shiftspace.enumerate_sft_naive": _enum_work,
    "freext.free_extension": lambda a, k, r: {
        "freext.extend.families":
            len(_arg(a, k, 0, "y").configs) ** _arg(a, k, 1, "ctx").cosets},
    "freext.base_extract": lambda a, k, r: {"freext.extract.ok": int(r.ok)},
    "dynprops.automorphism_group": lambda a, k, r: {
        "dynprops.aut.perms": math.factorial(len(_arg(a, k, 0, "y").configs))},
    "dynprops.mme_unique_check": lambda a, k, r: {
        "dynprops.mme.points": math.comb(
            _arg(a, k, 1, "grid") + len(r.maximizers[0]) - 1, len(r.maximizers[0]) - 1)},
    "groups.all_subgroups": lambda a, k, r: {
        "groups.subgroups.subsets": 2 ** _arg(a, k, 0, "g").order},
    "zline.even_cover_factor_check": lambda a, k, r: {
        "zline.words": 2 ** _arg(a, k, 0, "n")},
    "suites.run_suite": lambda a, k, r: {"suites.checks": len(r.checks)},
}


class Tracer:
    """Wraps finshift's layers; :meth:`install` and :meth:`uninstall`
    swap the wrappers in and out of every finshift module."""

    def __init__(self):
        self.error_type = importlib.import_module("finshift.errors").FinshiftError
        self.names = []        # function id -> "layer.function"
        self.layer_of = []     # function id -> layer
        self.fid = array("l")  # per span
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.errors = Counter()
        self.wrappers = {}     # original -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"finshift.{layer}")
            extra = CROSS_MODULE_PRIVATE.get(layer, ())
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and (not name.startswith("_") or name in extra)):
                    self.wrappers[fn] = self._wrap(fn, layer, f"{layer}.{name}")
        self.patches = []

    def _wrap(self, fn, layer, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        work = WORK.get(qualname)
        spans_fid, spans_parent = self.fid, self.parent
        spans_start, spans_end = self.start, self.end
        stack, layer_of, errors = self.stack, self.layer_of, self.errors
        error_type = self.error_type

        def wrapper(*args, **kwargs):
            idx = len(spans_start)
            spans_fid.append(fid)
            spans_parent.append(stack[-1])
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                parent = stack[-2]
                if parent < 0 or layer_of[spans_fid[parent]] != layer:
                    errors[layer] += 1
                raise
            finally:
                spans_end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                self.counters.update(work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for name, module in list(sys.modules.items()):
            if name != "finshift" and not name.startswith("finshift."):
                continue
            for attr, value in vars(module).items():
                wrapper = self.wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self.patches.append((module, attr, value))
        for module, attr, value in self.patches:
            setattr(module, attr, self.wrappers[value])

    def uninstall(self):
        for module, attr, value in self.patches:
            setattr(module, attr, value)
        self.patches = []

    @property
    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def write_spans(self, path: str, op_of_span) -> None:
        """One tab-separated line per span: id, op, function, start, end,
        parent (-1 for a top-level span)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tfunction\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{op_of_span(i)}\t{self.names[self.fid[i]]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer self time and work per traced pass."""
        selfs = self.self_times()
        by_fn = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, s in enumerate(selfs):
            by_fn[self.fid[i]] += s
            calls[self.fid[i]] += 1
        fn_id = {name: i for i, name in enumerate(self.names)}
        out = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            out[f"{layer}.self_s"] = sum(by_fn[i] for i in ids) / passes
            out[f"{layer}.errors"] = self.errors[layer] / passes
        out["files.calls"] = sum(calls[i] for i, lay in enumerate(self.layer_of)
                                 if lay == "files") / passes
        for bucket, (layer, fns) in BUCKETS.items():
            ids = [fn_id[f"{layer}.{f}"] for f in fns if f"{layer}.{f}" in fn_id]
            out[f"{bucket}.self_s"] = sum(by_fn[i] for i in ids) / passes
            out[f"{bucket}.calls"] = sum(calls[i] for i in ids) / passes
        counters = dict(self.counters)
        for name in ("shiftspace.enum.configs", "shiftspace.enum.space",
                     "freext.extend.families", "dynprops.aut.perms", "dynprops.mme.points",
                     "groups.subgroups.subsets", "zline.words", "suites.checks"):
            out[name] = counters.get(name, 0) / passes
        space = counters.get("shiftspace.enum.space", 0)
        out["shiftspace.enum.yield"] = (
            counters.get("shiftspace.enum.configs", 0) / space if space else 0.0)
        extracts = out["freext.extract.calls"] * passes
        out["freext.extract.ok_ratio"] = (
            counters.get("freext.extract.ok", 0) / extracts if extracts else 0.0)
        return out
