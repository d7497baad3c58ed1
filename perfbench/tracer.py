"""Per-layer tracing of one ttl_lab run, installed from outside the package.

Every public function and method defined in the ten ttl_lab modules is
replaced by a wrapper that records its call count and self time (its own
duration minus that of the wrapped calls it made). A layer is a module, so a
layer's self time is the sum over the functions defined in it. Private
helpers are not wrapped: their time stays with the public caller.

The config dataclasses' validate methods are not wrapped either: they check
settings, whichever module defines them, so their time stays with the config
layer that calls them.

A few calls are too small and too frequent to time without distorting the
split (see COUNTED); those are counted only, and their time stays in their
caller's self time.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("workload", "simcore", "cachesys", "telemetry", "estimators",
          "nafagent", "neural", "dei", "benchcli", "config")

# One call per scheduled event, per result key or per key or query draw. On a
# 2-core Xeon VM, timing these as well took a traced desk-poisson run from
# 1.3x to 1.6x the untraced wall time; counting costs one dict update each.
COUNTED = frozenset({
    "simcore.Engine.schedule",
    "telemetry.Telemetry.write_rate",
    "telemetry.WriteRateTracker.rate",
    "workload.ZipfSampler.sample",
})

# Private helpers that a per-layer metric names.
PRIVATE_WRAPPED = frozenset({"benchcli._write_csv"})

EVENT_KINDS = ("op", "cache_resp", "origin_resp", "inval", "dei", "train")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.events: dict[str, int] = defaultdict(int)
        # Sums over call results, for the ratio metrics.
        self.observed: dict[str, float] = defaultdict(float)
        self.heap_peak = 0
        self.dei_peak = 0
        self.sims: list = []
        self._stack = [0.0]
        self._observe = self._observers()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, observe=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            self_s[name] += elapsed - stack.pop()
            stack[-1] += elapsed
            calls[name] += 1
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        return self._timed(name, fn, self._observe.get(name))

    def _observers(self):
        """name -> hook on each call's result and arguments."""
        obs = self.observed

        def add(key, value):
            obs[key] += value

        def on_enqueue(_result, args):
            self.dei_peak = max(self.dei_peak, len(args[0]))

        return {
            "workload.evaluate_query": lambda r, a: add("result_keys", len(r)),
            "cachesys.CacheSystem.origin_update": lambda r, a: add("touched", len(r)),
            "cachesys.CacheSystem.apply_invalidation": lambda r, a: add("purge_noop", not r),
            "nafagent.NafAgent.train_step": lambda r, a: add("updates", r is not None),
            "dei.DeiQueue.pop_due": lambda r, a: add("stamped", r.inval_at is not None),
            "dei.DeiQueue.enqueue": on_enqueue,
        }

    def _watch_run(self, run_until):
        """Engine.run_until, plus per-kind event counts and the heap peak."""
        tracer = self

        def wrapper(engine, t_end):
            sim = engine.handler.__self__
            tracer.sims.append(sim)
            handler, events = engine.handler, tracer.events

            def counting_handler(ev):
                events[ev.kind] += 1
                n = len(engine) + 1  # the heap size before this event's pop
                if n > tracer.heap_peak:
                    tracer.heap_peak = n
                handler(ev)

            engine.handler = counting_handler
            if sim.trace_writer is not None:
                sim.trace_writer = tracer._timed("benchcli.trace_writer", sim.trace_writer)
            return run_until(engine, t_end)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public callables in place, in every namespace
        that imported them by name."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") or name in PRIVATE_WRAPPED:
                        replaced[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mname.startswith("_") \
                                and mname != "validate":
                            wrapped = self._wrap(f"{layer}.{obj.__name__}.{mname}", meth)
                            if obj.__name__ == "Engine" and mname == "run_until":
                                wrapped = self._watch_run(wrapped)
                            setattr(obj, mname, wrapped)
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(ns, attr, replaced[obj])

    # -- metrics -----------------------------------------------------------

    def _sum(self, table, *patterns) -> float:
        return sum(v for k, v in table.items()
                   if any(fnmatch.fnmatchcase(k, p) for p in patterns))

    def layer_metrics(self, csv_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced run, name -> (value, unit)."""
        if len(self.sims) != 1:
            raise RuntimeError(f"expected one simulation per traced run, saw {len(self.sims)}")
        sim = self.sims[0]
        stats = sim.cache.stats
        oracle = sim.telemetry.oracle
        calls, self_s, obs = self.calls, self.self_s, self.observed
        out: dict[str, tuple[float, str]] = {}

        def timed(metric, *patterns, with_calls=True):
            out[f"{metric}.s"] = (self._sum(self_s, *patterns), "s")
            if with_calls:
                out[f"{metric}.calls"] = (self._sum(calls, *patterns), "count")

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self._sum(self_s, f"{layer}.*"), "s")

        timed("workload.next_op", "workload.OpStream.next_op")
        timed("workload.evaluate_query", "workload.evaluate_query")
        eq_calls = calls["workload.evaluate_query"]
        out["workload.result_keys_mean"] = (ratio(obs["result_keys"], eq_calls), "keys")
        timed("workload.generate_world", "workload.generate_world", with_calls=False)

        dispatched = sum(self.events.values())
        out["simcore.loop_self.s"] = (self_s["simcore.Engine.run_until"], "s")
        out["simcore.schedule.calls"] = (calls["simcore.Engine.schedule"], "count")
        for kind in EVENT_KINDS:
            out[f"simcore.events.{kind}"] = (self.events[kind], "count")
        out["simcore.heap_peak"] = (self.heap_peak, "events")
        out["simcore.ops_per_event"] = (ratio(self.events["op"], dispatched), "ratio")

        for meth in ("lookup", "insert", "origin_update", "apply_invalidation", "current_load"):
            timed(f"cachesys.{meth}", f"cachesys.CacheSystem.{meth}")
        for stat in ("hits", "misses", "inserts", "evictions", "expirations",
                     "invalidations", "stale_reads"):
            out[f"cachesys.{stat}"] = (getattr(stats, stat), "count")
        out["cachesys.purge_noop_ratio"] = (
            ratio(obs["purge_noop"], calls["cachesys.CacheSystem.apply_invalidation"]), "ratio")
        out["cachesys.touched_per_update"] = (
            ratio(obs["touched"], calls["cachesys.CacheSystem.origin_update"]), "entries")

        timed("telemetry.record_request", "telemetry.Telemetry.record_request")
        timed("telemetry.record_write", "telemetry.Telemetry.record_write")
        out["telemetry.write_rate.calls"] = (calls["telemetry.Telemetry.write_rate"], "count")
        timed("telemetry.miss_rate_delta", "telemetry.Telemetry.miss_rate_delta")
        timed("telemetry.oracle.on_serve", "telemetry.TrueTtlOracle.on_serve", with_calls=False)
        timed("telemetry.oracle.on_write", "telemetry.TrueTtlOracle.on_write", with_calls=False)
        out["telemetry.oracle.pending_end"] = (oracle.pending_count, "serves")
        out["telemetry.oracle.resolved_ratio"] = (
            ratio(len(oracle.resolved_errors()), len(oracle.records)), "ratio")

        # poisson_ttl is called only from PoissonEstimator.decide.
        out["estimators.decide.s"] = (
            self._sum(self_s, "estimators.*.decide", "estimators.poisson_ttl"), "s")
        out["estimators.decide.calls"] = (self._sum(calls, "estimators.*.decide"), "count")
        timed("estimators.on_due", "estimators.*.on_due")
        timed("estimators.on_invalidation_issued", "estimators.*.on_invalidation_issued")

        timed("nafagent.build_state", "nafagent.build_state")
        timed("nafagent.act", "nafagent.NafAgent.act")
        timed("nafagent.train_step", "nafagent.NafAgent.train_step")
        timed("nafagent.naf_loss_and_grads", "nafagent.naf_loss_and_grads")
        out["nafagent.train_step.update_ratio"] = (
            ratio(obs["updates"], calls["nafagent.NafAgent.train_step"]), "ratio")
        timed("neural.forward", "neural.forward")
        timed("neural.adam_step", "neural.adam_step")

        out["dei.pending_peak"] = (self.dei_peak, "transitions")
        out["dei.stamped_ratio"] = (ratio(obs["stamped"], calls["dei.DeiQueue.pop_due"]), "ratio")

        out["benchcli.write_csv.s"] = (self_s["benchcli._write_csv"], "s")
        out["benchcli.trace_write.s"] = (self_s["benchcli.trace_writer"], "s")
        out["benchcli.trace_rows"] = (calls["benchcli.trace_writer"], "count")
        out["benchcli.csv_bytes"] = (csv_bytes, "bytes")
        out["benchcli.metrics.s"] = (
            self._sum(self_s, "benchcli.truncated_rmse", "benchcli.emit_cdf",
                      "estimators.best_default_ttl"), "s")
        out["config.build_config.s"] = (self_s["config.build_config"], "s")
        return out
