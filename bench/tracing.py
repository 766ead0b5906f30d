"""Span tracing of cachenet's layers through caller-namespace wrappers.

cachenet modules import each other's functions by name (``from .flow import
solve_traffic``), so a call is looked up in the *caller's* module globals and
a wrapper bound only on ``cachenet.flow.solve_traffic`` intercepts nothing.
``Tracer`` therefore rebinds every name, in every loaded ``cachenet`` module,
that refers to a traced function, and patches methods on the class in whose
``__dict__`` they are defined.  A layer whose function no longer exists is
reported as absent instead of failing the run, so the benchmark keeps working
while the code under it is restructured.

Spans are kept in memory (layer, parent span, start, end) and written out
when the run ends.  A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# Traced layers, named "<module>.<function>" or "<module>.<Class>.<method>".
# Each gets the per-layer metrics <layer>.calls, <layer>.self_ms and
# <layer>.us_per_call (span time, children included, per call).  The
# end-to-end metric each layer should move is listed in bench/README.md.
LAYERS = (
    "scenarios.generate_scenario",
    "gp.shortest_path_strategy",
    "gp.run_gp",
    "blocking.dynamic_blocked_sets",
    "blocking.static_blocked_sets",
    "flow.solve_traffic",
    "marginals.compute_marginals",
    "marginals.vectorized_residuals",
    "gp.gp_update_node",
    "gp.apply_update",
    "fixedroute.gcfw",
    "fixedroute.grad_gain",
    "fixedroute.eval_gain",
    "sim.run_simulation",
    "sim.Simulator.token_forward",
    "policies.GPOnlinePolicy.on_update",
    "policies.RelaxedStrategyPolicy.on_slot",
    "rounding.build_bar_map",
    "rounding.sample_decision",
)

# Hot per-event methods that are counted, not spanned: their time lands in
# the calling span (token_forward, the event loop).
COUNTED = (
    "policies.GPOnlinePolicy.is_hit",
    "policies.GPOnlinePolicy.routing_weights",
)

# Ratios reported next to the layer metrics: name -> (numerator, denominator)
# accumulator keys filled by the observers below.
RATIOS = {
    "marginals.compute_marginals.acyclic_ratio": ("acyclic_items", "marginal_items"),
    "gp.gp_update_node.update_ratio": ("updated_items", "passed_items"),
    "sim.refill_ratio": ("routing_weights", "token_forward"),
    "policies.is_hit.hit_ratio": ("hits", "lookups"),
}

# Observer failures that mean the layer's return value or signature changed;
# the ratio is then reported as unavailable rather than failing the run.
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


def _observe_marginals(acc, args, kwargs, result):
    acyclic = np.asarray(result.acyclic)
    acc["acyclic_items"] += int(acyclic.sum())
    acc["marginal_items"] += int(acyclic.size)


def _observe_update(acc, args, kwargs, result):
    items = kwargs.get("items", args[8] if len(args) > 8 else None)
    demand = kwargs.get("demand", args[2] if len(args) > 2 else None)
    acc["passed_items"] += len(items) if items is not None else demand.num_items
    acc["updated_items"] += len(result.items)


def _observe_hit(acc, args, kwargs, result):
    acc["lookups"] += 1
    acc["hits"] += bool(result)


def _count_routing_weights(acc, args, kwargs, result):
    acc["routing_weights"] += 1


def _count_token_forward(acc, args, kwargs, result):
    acc["token_forward"] += 1


OBSERVERS = {
    "marginals.compute_marginals": _observe_marginals,
    "gp.gp_update_node": _observe_update,
    "sim.Simulator.token_forward": _count_token_forward,
    "policies.GPOnlinePolicy.is_hit": _observe_hit,
    "policies.GPOnlinePolicy.routing_weights": _count_routing_weights,
}


def _resolve(layer):
    """(owner, attribute, original) of a layer, or None if it is gone.

    For a method the owner is the class that defines it; for a function the
    owner is None and every cachenet module binding it is patched.
    """
    module_name, *path = layer.split(".")
    try:
        module = importlib.import_module(f"cachenet.{module_name}")
        if len(path) == 1:
            return None, path[0], getattr(module, path[0])
        cls = getattr(module, path[0])
    except (ImportError, AttributeError):
        return None
    for klass in cls.__mro__:
        if path[1] in klass.__dict__:
            return klass, path[1], klass.__dict__[path[1]]
    return None


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.acc = dict.fromkeys(
            {key for pair in RATIOS.values() for key in pair}, 0
        )
        self.absent = []
        self.observer_errors = {}
        self._patches = []
        self._stack = []

    # -- wrappers ------------------------------------------------------------

    def _observe(self, layer, observer, args, kwargs, result):
        if layer in self.observer_errors:
            return
        try:
            observer(self.acc, args, kwargs, result)
        except _SHAPE_ERRORS as exc:
            self.observer_errors[layer] = repr(exc)

    def _span_wrapper(self, layer, fn):
        lid = self.layer_id[layer]
        layers, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        observer = OBSERVERS.get(layer)
        observe = self._observe

        def traced(*args, **kwargs):
            sid = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observer is not None:
                observe(layer, observer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, layer, fn):
        observer = OBSERVERS[layer]
        observe = self._observe

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(layer, observer, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- install / restore ---------------------------------------------------

    def _patch(self, layer, make):
        found = _resolve(layer)
        if found is None:
            self.absent.append(layer)
            return
        owner, attr, original = found
        if owner is not None:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(layer, original))
            return
        wrapper = make(layer, original)
        for name, module in list(sys.modules.items()):
            if name != "cachenet" and not name.startswith("cachenet."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def __enter__(self):
        for layer in self.layers:
            self._patch(layer, self._span_wrapper)
        for layer in COUNTED:
            self._patch(layer, self._count_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------------

    def calls(self, layer):
        return int(np.count_nonzero(
            np.frombuffer(self.span_layer, dtype=np.int32) == self.layer_id[layer]
        ))

    def layer_metrics(self):
        """Per-layer calls / self_ms / us_per_call, plus the ratios."""
        lid = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        self_time = dur - child
        n = len(self.layers)
        calls = np.bincount(lid, minlength=n)
        total = np.bincount(lid, weights=dur, minlength=n)
        own = np.bincount(lid, weights=self_time, minlength=n)
        metrics = {}
        for i, layer in enumerate(self.layers):
            c = int(calls[i])
            metrics[f"{layer}.calls"] = (c, "count")
            metrics[f"{layer}.self_ms"] = (float(own[i]) * 1e3, "ms")
            metrics[f"{layer}.us_per_call"] = (
                float(total[i]) / c * 1e6 if c else 0.0, "us"
            )
        for name, (num, den) in RATIOS.items():
            d = self.acc[den]
            metrics[name] = (self.acc[num] / d if d else 0.0, "ratio")
        return metrics

    def save(self, path):
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
