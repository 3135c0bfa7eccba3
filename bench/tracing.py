"""Spans around the calls into ultraexp's public functions, recorded from
outside the package.

``install`` rebinds every public function in every ultraexp module namespace
that binds it by name (``cli.format_expr`` as well as ``expr.format_expr``),
and ``uninstall`` restores the originals.  Open spans live on a stack; a
closing span adds its duration minus its children's to its layer's self time.
A call into a layer that already has an open span (recursion, or
``normalize`` calling ``normalize_with_trace``) opens no second span, but its
counts are still read from its return value.  Per-node helpers are left alone.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
import types
from collections import Counter

MODULES = ("expr", "rewrite", "numth", "prsearch", "expip", "cli")
PER_NODE = {"attrs_of", "subexprs"}

# span name for functions that share a layer; any other public function
# gets "<module>.<name>"
LAYER_OF = {
    ("expr", "parse_expr"): "expr.parse",
    ("expr", "parse_equation"): "expr.parse",
    ("expr", "format_expr"): "expr.format",
    ("expr", "eval_principal"): "expr.eval",
    ("rewrite", "normalize_with_trace"): "rewrite.normalize",
    ("rewrite", "normalize"): "rewrite.normalize",
    ("rewrite", "rule_trace"): "rewrite.normalize",
    ("rewrite", "prove_equal"): "rewrite.prove",
    ("rewrite", "find_refutation"): "rewrite.refute",
    ("prsearch", "min_forced_n"): "prsearch.min_forced",
    ("prsearch", "find_avoiding_coloring"): "prsearch.avoid",
    ("prsearch", "check_coloring"): "prsearch.check",
    ("prsearch", "export_cnf"): "prsearch.cnf",
    ("prsearch", "enumerate_instances"): "prsearch.enumerate",
    # the enumeration generator behind every search, check and export
    ("prsearch", "_instances"): "prsearch.enumerate",
    ("expip", "find_expip"): "expip.find",
    ("expip", "verify_expip"): "expip.verify",
}

RULES = ("FOLD", "FOLD-ONE", "E2CAN", "SCALCTR", "LOGPOW", "BASEROOT", "E1FLAT", "E2ASSOC", "SAMEBASE")


def _count_parse(t, args, result):
    t.counts["expr.parse.bytes"] += len(args[0].encode("utf-8"))


def _count_firings(t, args, result):
    for step in result[1]:
        t.counts["rewrite.firings"] += 1
        t.counts["rewrite.firings." + step.rule] += 1


def _count_scanned(t, args, result):
    lo, n_max = args[2], args[3]
    name = type(result).__name__
    if name == "Boundary":
        t.counts["prsearch.min_forced.n_scanned"] += result.first_forced - lo + 1
    elif name == "Budget" and result.reason == "n_max":
        t.counts["prsearch.min_forced.n_scanned"] += n_max - lo + 1


def _count_forced(t, args, result):
    if type(result).__name__ == "Forced":
        t.counts["prsearch.avoid.forced_nodes"] += result.nodes_explored


def _count_clauses(t, args, result):
    i = result.find("\np cnf ")
    if i >= 0:
        t.counts["prsearch.cnf.clauses"] += int(result[i + 1 : result.index("\n", i + 1)].split()[3])


COUNTERS = {
    ("expr", "parse_expr"): _count_parse,
    ("expr", "parse_equation"): _count_parse,
    ("rewrite", "normalize_with_trace"): _count_firings,
    ("prsearch", "min_forced_n"): _count_scanned,
    ("prsearch", "find_avoiding_coloring"): _count_forced,
    ("prsearch", "export_cnf"): _count_clauses,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, start, child seconds]
        self.open: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def _enter(self, layer: str) -> None:
        self.open[layer] += 1
        self.stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self, call: bool = True) -> None:
        end = time.perf_counter()
        layer, start, child = self.stack.pop()
        self.open[layer] -= 1
        dur = end - start
        self.self_s[layer] += dur - child
        if call:
            self.calls[layer] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, fn, layer: str, counter):
        def wrapper(*args, **kwargs):
            if self.open[layer]:
                result = fn(*args, **kwargs)
            else:
                self._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit()
            if counter is not None:
                counter(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: str):
        # time only the steps, so the consumer's own work between items is
        # not charged to the enumeration
        def wrapper(*args, **kwargs):
            if not self.open[layer]:
                self.calls[layer] += 1
            return self._steps(fn(*args, **kwargs), layer)

        return wrapper

    def _steps(self, gen, layer: str):
        while True:
            if self.open[layer]:
                item = next(gen, _DONE)
            else:
                self._enter(layer)
                try:
                    item = next(gen, _DONE)
                finally:
                    self._exit(call=False)
            if item is _DONE:
                return
            self.counts["prsearch.instances"] += 1
            yield item

    # -- garbage collector, measured through gc.callbacks

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    # -- patching

    def install(self) -> None:
        pkg = importlib.import_module("ultraexp")
        mods = {m: importlib.import_module(f"ultraexp.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if (name.startswith("_") or name in PER_NODE) and (short, name) not in LAYER_OF:
                    continue
                layer = LAYER_OF.get((short, name), f"{short}.{name}")
                if inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self._wrap_generator(obj, layer)
                else:
                    wrapped[obj] = self._wrap(obj, layer, COUNTERS.get((short, name)))
        for ns in (pkg, *mods.values()):
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapped[obj])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    # -- report

    def metrics(self, per: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, divided by ``per`` (the cycles traced)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in (
            "cli.run", "expr.parse", "expr.format", "expr.eval", "rewrite.normalize",
            "rewrite.prove", "rewrite.refute", "numth.factorize", "numth.perfect_power",
            "expip.find", "expip.verify", "prsearch.min_forced", "prsearch.avoid",
            "prsearch.check", "prsearch.cnf", "prsearch.enumerate",
        ):
            out[f"{layer}.calls"] = (self.calls[layer] / per, "count")
            out[f"{layer}.self_s"] = (self.self_s[layer] / per, "s")
        for layer in ("numth.log_preimage", "prsearch.parse_config", "prsearch.log_transform"):
            out[f"{layer}.self_s"] = (self.self_s[layer] / per, "s")
        out["expr.parse.bytes_per_s"] = (_rate(self.counts["expr.parse.bytes"], self.self_s["expr.parse"]), "B/s")
        out["rewrite.firings"] = (self.counts["rewrite.firings"] / per, "count")
        out["rewrite.firings_per_s"] = (_rate(self.counts["rewrite.firings"], self.self_s["rewrite.normalize"]), "1/s")
        for rule in RULES:
            out[f"rewrite.firings.{rule}"] = (self.counts[f"rewrite.firings.{rule}"] / per, "count")
        for name in ("prsearch.min_forced.n_scanned", "prsearch.avoid.forced_nodes", "prsearch.cnf.clauses",
                     "prsearch.instances", "runtime.gc_collections"):
            out[name] = (self.counts[name] / per, "count")
        out["runtime.gc_s"] = (self.gc_s / per, "s")
        return out


_DONE = object()


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0
