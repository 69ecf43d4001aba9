"""Span tracing of relshift's layers from outside the program.

`Tracer.install` wraps each layer's public functions and patches the
wrapper in at every name the function is reached through: the defining
module and every relshift module (or the package) that bound the name at
import, such as ``checks.is_compatible`` or ``harness.find_maltsev_term``.

Each call records a span (layer, parent span, start, end) in flat arrays.
A layer's self time is its spans' time minus the time covered by their
child spans.  Counts are taken at the same boundaries: a layer's ``calls``
are entries into it from another layer, so nested calls within one layer
count once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from enum import Enum

import numpy as np

# layer -> (module, function names)
LAYERS = {
    "algebras.is_compatible": ("algebras", ("is_compatible", "_is_compatible_between")),
    "algebras.compatible_close": ("algebras", ("compatible_close",)),
    "algebras.all_congruences": ("algebras", ("all_congruences",)),
    "algebras.modular": ("algebras", ("congruence_lattice_is_modular",)),
    "enum": ("checks", ("enumerate_compatible_relations", "enumerate_class_relations")),
    "checks.sl_forall": ("checks", ("shifting_lemma_forall",)),
    "checks.sl_triple": ("checks", ("shifting_lemma",)),
    "checks.sweep": ("checks", ("difunctional_all", "goursat_identity_all")),
    "checks.ee": ("checks", ("ee_properties",)),
    "checks.permutability": ("checks", ("permutability",)),
    "terms.clone": ("terms", ("generate_ternary_clone",)),
    "terms.search": ("terms", ("find_maltsev_term", "find_3perm_terms")),
    "constructions.witness": ("constructions", ("maltsev_sl_witness", "goursat_sl_witness")),
    "constructions.join_rsr": ("constructions", ("join_via_RSR",)),
    "harness.run_suite": ("harness", ("run_suite",)),
}
ROOT = "bench.item"


def _relations_functions(relations):
    return tuple(name for name in relations.__all__
                 if inspect.isfunction(getattr(relations, name, None)))


class Tracer:
    def __init__(self, rs):
        self.rs = rs
        self.layers = [ROOT, "relations", *LAYERS]
        self.lid = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.depth = [0] * len(self.layers)
        self.entries = [0] * len(self.layers)
        self.counts = {"enum.repeat_calls": 0, "enum.refused": 0, "enum.compat_tests": 0,
                       "enum.kept": 0, "enum.kept_tested": 0, "terms.clone.functions": 0,
                       "terms.clone.complete": 0, "constructions.pair_object_pairs": 0}
        self.enum_keys = set()
        self.clone_algebras = set()
        self.missing = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        targets = {"relations": ("relations", _relations_functions(self.rs.relations)), **LAYERS}
        wrappers = {}
        for layer, (module, names) in targets.items():
            mod = getattr(self.rs, module)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                wrappers[id(fn)] = self._wrap(self.lid[layer], fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "relshift" and not modname.startswith("relshift."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def patched_names(self):
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)

    def _wrap(self, lid, fn):
        layer_s, parent_s, start_s, end_s = self.span_layer, self.span_parent, self.span_start, self.span_end
        stack, depth, entries = self.stack, self.depth, self.entries
        clock = time.perf_counter
        enter, leave = {
            self.lid["enum"]: (self._enum_enter, self._enum_leave),
            self.lid["algebras.is_compatible"]: (self._compat_enter, None),
            self.lid["terms.clone"]: (None, self._clone_leave),
            self.lid["constructions.witness"]: (None, self._witness_leave),
        }.get(lid, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[lid] == 0
            state = None
            if outer:
                entries[lid] += 1
                if enter:
                    state = enter(args, kwargs)
            depth[lid] += 1
            i = len(start_s)
            layer_s.append(lid)
            parent_s.append(stack[-1] if stack else -1)
            end_s.append(0.0)
            stack.append(i)
            start_s.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end_s[i] = clock()
                stack.pop()
                depth[lid] -= 1
                if outer and leave:
                    leave(state, args, result, exc)

        return wrapper

    def span(self, fn, *args):
        """Run fn(*args) inside a root span, the benchmark's own boundary."""
        i = len(self.span_start)
        self.span_layer.append(0)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.span_end[i] = time.perf_counter()
            self.stack.pop()

    # -- counters at layer boundaries --------------------------------------

    def _enum_enter(self, args, kwargs):
        key = tuple(a if isinstance(a, (int, str, Enum, type(None))) else id(a)
                    for a in (*args, *(v for _, v in sorted(kwargs.items()))))
        if key in self.enum_keys:
            self.counts["enum.repeat_calls"] += 1
        self.enum_keys.add(key)
        return self.counts["enum.compat_tests"]

    def _enum_leave(self, tests_before, args, result, exc):
        if isinstance(exc, self.rs.checks.BudgetError):
            self.counts["enum.refused"] += 1
        if result is not None:
            self.counts["enum.kept"] += len(result)
            if self.counts["enum.compat_tests"] > tests_before:
                self.counts["enum.kept_tested"] += len(result)

    def _compat_enter(self, args, kwargs):
        if self.depth[self.lid["enum"]]:
            self.counts["enum.compat_tests"] += 1

    def _clone_leave(self, state, args, result, exc):
        if result is not None:
            self.counts["terms.clone.functions"] += len(result.functions)
            self.counts["terms.clone.complete"] += bool(result.complete)
            self.clone_algebras.add(id(args[0]))

    def _witness_leave(self, state, args, result, exc):
        if result is not None and result.pair_index:
            self.counts["constructions.pair_object_pairs"] += len(result.pair_index)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time per layer, from the recorded spans."""
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        per_layer = np.bincount(layer, weights=own, minlength=len(self.layers))
        return {name: float(per_layer[i]) for i, name in enumerate(self.layers)}

    def metrics(self):
        """Per-layer metrics, without the run-level cli and overhead figures."""
        own = self.self_times()
        calls = {name: self.entries[i] for i, name in enumerate(self.layers)}
        c = self.counts
        clone_calls = calls["terms.clone"]
        out = {
            "enum.calls": (calls["enum"], "count"),
            "enum.repeat_calls": (c["enum.repeat_calls"], "count"),
            "enum.refused": (c["enum.refused"], "count"),
            "enum.self_s": (own["enum"], "s"),
            "enum.compat_tests": (c["enum.compat_tests"], "count"),
            "enum.kept": (c["enum.kept"], "count"),
            "enum.kept_per_test": (c["enum.kept_tested"] / c["enum.compat_tests"] if c["enum.compat_tests"] else 0.0, "ratio"),
            "relations.calls": (calls["relations"], "count"),
            "relations.self_s": (own["relations"], "s"),
            "terms.clone.calls": (clone_calls, "count"),
            "terms.clone.calls_per_algebra": (clone_calls / len(self.clone_algebras) if self.clone_algebras else 0.0, "ratio"),
            "terms.clone.functions": (c["terms.clone.functions"], "count"),
            "terms.clone.complete_share": (c["terms.clone.complete"] / clone_calls if clone_calls else 0.0, "share"),
            "terms.clone.self_s": (own["terms.clone"], "s"),
            "terms.search.self_s": (own["terms.search"], "s"),
            "constructions.pair_object_pairs": (c["constructions.pair_object_pairs"], "count"),
            "checks.sweep.self_s": (own["checks.sweep"], "s"),
            "algebras.modular.self_s": (own["algebras.modular"], "s"),
        }
        for layer in ("algebras.is_compatible", "algebras.compatible_close", "algebras.all_congruences",
                      "checks.sl_forall", "checks.sl_triple", "checks.ee", "checks.permutability",
                      "constructions.witness", "constructions.join_rsr", "harness.run_suite"):
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (own[layer], "s")
        return out
