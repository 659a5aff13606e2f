"""Spans around the calls into each layer, recorded from the benchmark's side.

The program is not changed: :class:`Tracer` replaces a layer's public
function at the binding its caller uses (a class attribute looked up
through ``self``, or a name imported into the caller's module), times
each call as a span on a per-thread stack, and restores the original on
:meth:`Tracer.uninstall`.  A span's self time is its duration minus the
time of the spans nested in it.  Functions returning an iterator are
timed per ``next()``, since a lazy generator does its work there.

A hook whose target no longer exists is reported as ``missing``, never
as zero work; so is a hooked layer the workload must reach but never
called.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Hook modes: ``call`` times the call, ``iter`` times every ``next()``
#: of the returned iterator, ``root`` is the per-plan span.
CALL, ITER, ROOT = "call", "iter", "root"


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    owner: str | None  # class name inside ``module``; None for a module-level name
    name: str
    mode: str = CALL
    # Called as count(tracer, args, result) after the outermost span of
    # the layer; for ``iter`` hooks the result is the item yielded.
    count: Callable | None = None


def _count_lookups(tracer: "Tracer", args: tuple, result) -> None:
    results = result if isinstance(result, list) else [result]
    tracer.add("cache.lookups", len(results))
    tracer.add("cache.misses", sum(1 for item in results if item is None))


def cache_hooks(module: str, owner: str) -> list[Hook]:
    """Lookups and writes of one cache tier class."""
    return [
        Hook("cache.lookup", module, owner, "get_many", count=_count_lookups),
        Hook("cache.lookup", module, owner, "get", count=_count_lookups),
        Hook("cache.store", module, owner, "flush"),
    ]


def planner_hooks(cache_module: str, cache_owner: str) -> list[Hook]:
    """Every layer of one :meth:`Planner.plan`, with the given cache tier."""
    return [
        Hook("plan", "repro.core.planner", "Planner", "plan", ROOT),
        Hook(
            "generate", "repro.core.alternatives", "AlternativeGenerator", "generate_iter", ITER,
            count=lambda tracer, args, item: tracer.add("generate.alternatives", 1),
        ),
        Hook("evaluator", "repro.core.evaluator", "ParallelEvaluator", "evaluate_stream", ITER),
        Hook("fingerprint", "repro.quality.estimator", "QualityEstimator", "cache_key"),
        Hook("estimate", "repro.quality.estimator", "QualityEstimator", "evaluate_uncached"),
        Hook("simulate", "repro.quality.estimator", "QualityEstimator", "simulate"),
        Hook("cache.store", "repro.quality.estimator", "QualityEstimator", "store_profile"),
        Hook("rank", "repro.core.planner", None, "pareto_front_profiles"),
        *cache_hooks(cache_module, cache_owner),
    ]


class Tracer:
    """Installs :class:`Hook` wrappers and aggregates their spans."""

    def __init__(self, hooks: list[Hook]) -> None:
        self.hooks = hooks
        self.missing: set[str] = set()
        self.active = False
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._gc_started = 0.0
        # layer -> [calls, inclusive seconds, self seconds]
        self.layers: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.plan_seconds = 0.0
        self.covered_seconds = 0.0

    # -- recording -----------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, hook: Hook, call, args: tuple, kwargs: dict):
        stack = self._stack()
        outermost = not any(frame[0] == hook.layer for frame in stack)
        frame = [hook.layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                totals = self.layers.setdefault(hook.layer, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if hook.mode == ROOT:
                    self.plan_seconds += elapsed
                    self.covered_seconds += frame[1]
        if hook.count is not None and outermost:
            hook.count(self, args, result)
        return result

    def _timed_iterator(self, hook: Hook, iterator):
        while True:
            try:
                item = self._span(hook, next, (iterator,), {})
            except StopIteration:
                return
            yield item

    def _wrap(self, hook: Hook, original):
        tracer = self

        if hook.mode == ITER:

            def wrapper(*args, **kwargs):
                return tracer._timed_iterator(hook, iter(original(*args, **kwargs)))

        else:

            def wrapper(*args, **kwargs):
                return tracer._span(hook, original, args, kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self.active:
            return
        self.active = True
        for hook in self.hooks:
            try:
                owner = importlib.import_module(hook.module)
                if hook.owner is not None:
                    owner = getattr(owner, hook.owner)
                original = getattr(owner, hook.name)
            except (ImportError, AttributeError):
                self.missing.add(hook.layer)
                continue
            if not callable(original):
                self.missing.add(hook.layer)
                continue
            setattr(owner, hook.name, self._wrap(hook, original))
            self._installed.append((owner, hook.name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if not self.active:
            return
        self.active = False
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.add("gc.pause_seconds", time.perf_counter() - self._gc_started)
        if info.get("generation") == 2:
            self.add("gc.gen2", 1)

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "layers": {name: list(values) for name, values in self.layers.items()},
                "counters": dict(self.counters),
                "plan_seconds": self.plan_seconds,
                "covered_seconds": self.covered_seconds,
                "missing": sorted(self.missing),
            }


#: Layers every plan reaches, whatever the cache state.
ALWAYS_CALLED = ("plan", "generate", "evaluator", "fingerprint", "cache.lookup", "rank")


def layer_metrics(snapshot: dict, expect_simulation: bool) -> tuple[dict, list[str]]:
    """Per-plan layer metrics from a :meth:`Tracer.snapshot`.

    Returns ``(metrics, missing)``: ``metrics`` maps a metric name to its
    value, or to ``None`` for a layer whose hook is missing or that was
    expected to run and never did.
    """
    layers = snapshot["layers"]
    counters = snapshot["counters"]
    missing = set(snapshot["missing"])
    expected = set(ALWAYS_CALLED) | ({"simulate", "estimate"} if expect_simulation else set())
    missing |= {layer for layer in expected if layers.get(layer, [0])[0] == 0}
    plans = layers.get("plan", [0])[0]

    def calls(layer: str) -> float:
        return layers.get(layer, [0, 0.0, 0.0])[0]

    def self_ms(layer: str) -> float:
        return layers.get(layer, [0, 0.0, 0.0])[2] * 1000.0

    def per_plan(value: float, *layers_needed: str) -> float | None:
        if plans == 0 or any(layer in missing for layer in layers_needed):
            return None
        return value / plans

    lookups = counters.get("cache.lookups", 0)
    misses = counters.get("cache.misses", 0)
    metrics = {
        "generate.ms_per_plan": per_plan(self_ms("generate"), "generate"),
        "generate.alternatives_per_plan": per_plan(
            counters.get("generate.alternatives", 0), "generate"
        ),
        "fingerprint.ms_per_plan": per_plan(self_ms("fingerprint"), "fingerprint"),
        "fingerprint.calls_per_plan": per_plan(calls("fingerprint"), "fingerprint"),
        "cache.lookup_ms_per_plan": per_plan(self_ms("cache.lookup"), "cache.lookup"),
        "cache.lookups_per_plan": per_plan(lookups, "cache.lookup"),
        "cache.hit_ratio": (
            None
            if "cache.lookup" in missing or not lookups
            else (lookups - misses) / lookups
        ),
        "simulate.ms_per_plan": per_plan(self_ms("simulate"), "simulate"),
        "simulate.calls_per_plan": per_plan(calls("simulate"), "simulate"),
        "measures.ms_per_plan": per_plan(self_ms("estimate"), "estimate"),
        "rank.ms_per_plan": per_plan(self_ms("rank"), "rank"),
        "evaluator.self_ms_per_plan": per_plan(self_ms("evaluator"), "evaluator"),
        "gc.pause_ms_per_plan": per_plan(counters.get("gc.pause_seconds", 0.0) * 1000.0),
        "gc.gen2_per_plan": per_plan(counters.get("gc.gen2", 0)),
        "trace.coverage": (
            snapshot["covered_seconds"] / snapshot["plan_seconds"]
            if snapshot["plan_seconds"] and "plan" not in missing
            else None
        ),
    }
    return metrics, sorted(missing)


def reconcile(snapshot: dict) -> list[str]:
    """Count identities that must hold on cold plans; returns the violations."""
    layers = snapshot["layers"]
    counters = snapshot["counters"]
    problems = []
    fingerprints = layers.get("fingerprint", [0])[0]
    lookups = counters.get("cache.lookups", 0)
    if fingerprints != lookups:
        problems.append(f"fingerprint calls {fingerprints} != cache lookups {lookups}")
    simulations = layers.get("simulate", [0])[0]
    misses = counters.get("cache.misses", 0)
    if simulations != misses:
        problems.append(f"simulate calls {simulations} != cache misses {misses}")
    return problems
