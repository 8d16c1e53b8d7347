"""Outside-in tracing of walklab's layers.

The benchmark never edits the package.  ``install`` replaces module
attributes at the names callers look up (``walklab.cover.batch_cover_samples``,
``walklab.invariance.record_named_neighbors``, ...) with wrappers that
record one span per call: a name, start and end times, the enclosing
span and the benchmark operation that caused it.  Spans stay in compact
arrays in memory; ``layer_metrics`` turns them into per-layer counts and
self times once the timed part is over.  A layer's self time is its span
time minus the time of the spans nested inside it.

Counters that need a call's arguments or result (lane-steps, tokens,
walks compared) are taken by ``after`` hooks, outside the span's own
timing but inside the operation's.
"""
from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import time
from collections import Counter
from typing import Callable

import numpy as np

import walklab.cli
import walklab.cover
import walklab.generators
import walklab.invariance
import walklab.mixing
import walklab.reconstruct
import walklab.records
import walklab.walks

# One per_layer metric per entry, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "cover.batch_calls", "cover.batch_self_s", "cover.lane_steps",
    "cover.lockstep_iters", "cover.occupancy", "cover.ns_per_lane_step",
    "cover.ns_per_iter", "cover.censored", "cover.max_t_over_budget",
    "cover.compile_s", "cover.local_scalar_steps", "cover.local_self_s",
    "mixing.mc_calls", "mixing.mc_self_s", "mixing.lane_steps",
    "mixing.ns_per_lane_step", "mixing.exact_calls", "mixing.exact_self_s",
    "walks.sample_calls", "walks.scalar_steps", "walks.sample_self_s",
    "walks.ns_per_scalar_step", "walks.enum_walks", "walks.enum_self_s",
    "walks.ns_per_enum_walk",
    "records.anon_calls", "records.named_calls", "records.tokens",
    "records.self_s", "records.ns_per_token",
    "reconstruct.decode_calls", "reconstruct.decode_self_s",
    "reconstruct.iso_calls", "reconstruct.iso_self_s",
    "graphs.build_calls", "graphs.build_rejects", "graphs.build_accept_ratio",
    "graphs.build_self_s", "graphs.permute_self_s",
    "generators.self_s",
    "invariance.suite_self_s", "invariance.walks_compared",
    "cli.self_s",
    "trace.wall_s", "trace.spans",
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    # a layer the workload never enters reports 0, not NaN
    return num / den * scale if den else 0.0


def _bound_args(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Span store plus the counters the wrappers feed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_t_over_budget = 0.0
        # operations whose kernel output broke per-trial edge >= vertex
        self.bad_ops: set[int] = set()
        # (graph, config) pairs handed to the lockstep kernel, for the
        # compile-time probe: key -> [graph, config, calls]
        self.batch_inputs: dict[tuple, list] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None,
             consume: bool = False) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``consume`` materializes a returned iterator inside the span, so
        a generator's work is timed where it happens.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return iter(result) if consume else result

        return wrapper

    # -- after hooks -------------------------------------------------------

    def _after_batch(self, args, kwargs, result) -> None:
        a = _bound_args(_ORIGINAL["batch_cover_samples"], args, kwargs)
        budget, track = a["budget"], a["track_edges"]
        t_v, t_e = result
        censored = (t_v < 0) | (t_e < 0) if track else t_v < 0
        # a lane steps until both times are known, or until the budget
        life = np.where(censored, budget, np.maximum(t_v, t_e) if track else t_v)
        chunk = walklab.cover.CHUNK_TRIALS
        iters = capacity = 0
        for lo in range(0, life.size, chunk):
            block = life[lo:lo + chunk]
            top = int(block.max())
            iters += top
            capacity += top * block.size
        c = self.counts
        c["cover.lane_steps"] += int(life.sum())
        c["cover.lockstep_iters"] += iters
        c["cover.lane_capacity"] += capacity
        c["cover.censored"] += int(censored.sum())
        if (~censored).any():
            self.max_t_over_budget = max(
                self.max_t_over_budget, float(life[~censored].max()) / budget
            )
        if track and ((~censored) & (t_e < t_v)).any():
            self.bad_ops.add(self.current_op)
        g, config = a["g"], a["config"]
        key = (g.adjacency, dataclasses.replace(config, seed=0))
        self.batch_inputs.setdefault(key, [g, config, 0])[2] += 1

    def _after_local(self, args, kwargs, stats) -> None:
        a = _bound_args(_ORIGINAL["local_cover_time"], args, kwargs)
        done = stats.trials - stats.censored
        steps = round(stats.mean * done) if done else 0
        self.counts["cover.local_scalar_steps"] += steps + stats.censored * a["budget"]

    def _after_mc(self, args, kwargs, result) -> None:
        a = _bound_args(_ORIGINAL["mc_visit_frequencies"], args, kwargs)
        self.counts["mixing.lane_steps"] += a["trials"] * a["l"]

    def _after_sample(self, args, kwargs, walk) -> None:
        self.counts["walks.scalar_steps"] += len(walk) - 1

    def _after_enum(self, args, kwargs, items) -> None:
        self.counts["walks.enum_walks"] += len(items)

    def _after_record(self, args, kwargs, rec) -> None:
        self.counts["records.tokens"] += len(rec.tokens)

    def _after_suite(self, args, kwargs, report) -> None:
        self.counts["invariance.walks_compared"] += report.walks_compared

    # -- results -----------------------------------------------------------

    def probe_compile(self) -> float:
        """Estimated table-compile seconds in the run.

        One one-trial, budget-1 kernel call per distinct (graph, config)
        costs the table compile plus a single step; it is timed (best of
        three) and charged once per kernel call that used that pair.
        """
        total = 0.0
        batch = _ORIGINAL["batch_cover_samples"]
        for g, config, calls in self.batch_inputs.values():
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                batch(g, config, 1, None, budget=1)
                best = min(best, time.perf_counter() - t0)
            total += best * calls
        return total

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time, and number of calls."""
        n = len(self.start)
        if n == 0:
            return {}, {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = end - start
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return (
            {name: float(own[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
        )

    def layer_metrics(self, wall_s: float, compile_s: float) -> dict[str, float]:
        own, calls = self.self_times()

        def s(*names: str) -> float:  # summed self seconds
            return sum(own.get(x, 0.0) for x in names)

        def k(*names: str) -> int:  # summed call counts
            return sum(calls.get(x, 0) for x in names)

        c = self.counts
        gen_names = [x for x in self.names if x.startswith("generators.")]
        m = {
            "cover.batch_calls": k("cover.batch_cover_samples"),
            "cover.batch_self_s": s("cover.batch_cover_samples"),
            "cover.lane_steps": c["cover.lane_steps"],
            "cover.lockstep_iters": c["cover.lockstep_iters"],
            "cover.occupancy": _ratio(c["cover.lane_steps"], c["cover.lane_capacity"]),
            "cover.ns_per_lane_step": _ratio(
                s("cover.batch_cover_samples"), c["cover.lane_steps"], 1e9),
            "cover.ns_per_iter": _ratio(
                s("cover.batch_cover_samples"), c["cover.lockstep_iters"], 1e9),
            "cover.censored": c["cover.censored"],
            "cover.max_t_over_budget": self.max_t_over_budget,
            "cover.compile_s": compile_s,
            "cover.local_scalar_steps": c["cover.local_scalar_steps"],
            "cover.local_self_s": s("cover.local_cover_time"),
            "mixing.mc_calls": k("mixing.mc_visit_frequencies"),
            "mixing.mc_self_s": s("mixing.mc_visit_frequencies"),
            "mixing.lane_steps": c["mixing.lane_steps"],
            "mixing.ns_per_lane_step": _ratio(
                s("mixing.mc_visit_frequencies"), c["mixing.lane_steps"], 1e9),
            "mixing.exact_calls": k("mixing.jacobian_expectation"),
            "mixing.exact_self_s": s("mixing.jacobian_expectation"),
            "walks.sample_calls": k("walks.sample_walk"),
            "walks.scalar_steps": c["walks.scalar_steps"],
            "walks.sample_self_s": s("walks.sample_walk"),
            "walks.ns_per_scalar_step": _ratio(
                s("walks.sample_walk"), c["walks.scalar_steps"], 1e9),
            "walks.enum_walks": c["walks.enum_walks"],
            "walks.enum_self_s": s("walks.enumerate_walk_distribution"),
            "walks.ns_per_enum_walk": _ratio(
                s("walks.enumerate_walk_distribution"), c["walks.enum_walks"], 1e9),
            "records.anon_calls": k("records.record_anonymized"),
            "records.named_calls": k("records.record_named_neighbors"),
            "records.tokens": c["records.tokens"],
            "records.self_s": s(*_RECORD_SPANS),
            "records.ns_per_token": _ratio(s(*_RECORD_SPANS), c["records.tokens"], 1e9),
            "reconstruct.decode_calls": k("reconstruct.decode"),
            "reconstruct.decode_self_s": s("reconstruct.decode"),
            "reconstruct.iso_calls": k("reconstruct.is_isomorphic"),
            "reconstruct.iso_self_s": s("reconstruct.is_isomorphic"),
            "graphs.build_calls": k("graphs.build_graph"),
            "graphs.build_rejects": self.errors["graphs.build_graph"],
            "graphs.build_accept_ratio": _ratio(
                k("graphs.build_graph") - self.errors["graphs.build_graph"],
                k("graphs.build_graph")),
            "graphs.build_self_s": s("graphs.build_graph"),
            "graphs.permute_self_s": s("graphs.apply_permutation"),
            "generators.self_s": s(*gen_names),
            "invariance.suite_self_s": s("invariance.run_invariance_suite"),
            "invariance.walks_compared": c["invariance.walks_compared"],
            "cli.self_s": s("cli.run"),
            "trace.wall_s": wall_s,
            "trace.spans": len(self.start),
        }
        assert tuple(m) == LAYER_METRICS
        return m


_RECORD_SPANS = (
    "records.record_anonymized", "records.record_named_neighbors", "records.Record.text",
)

_ORIGINAL = {
    "batch_cover_samples": walklab.cover.batch_cover_samples,
    "local_cover_time": walklab.cover.local_cover_time,
    "mc_visit_frequencies": walklab.mixing.mc_visit_frequencies,
}


def install(tracer: Tracer) -> None:
    """Patch every traced name; the process keeps the patches until it exits."""
    t = tracer
    cover, mixing = walklab.cover, walklab.mixing
    walks, records, reconstruct = walklab.walks, walklab.records, walklab.reconstruct
    invariance, generators, cli = walklab.invariance, walklab.generators, walklab.cli

    cover.batch_cover_samples = t.wrap(
        "cover.batch_cover_samples", cover.batch_cover_samples, t._after_batch)
    cover.local_cover_time = t.wrap(
        "cover.local_cover_time", cover.local_cover_time, t._after_local)
    mixing.mc_visit_frequencies = t.wrap(
        "mixing.mc_visit_frequencies", mixing.mc_visit_frequencies, t._after_mc)
    mixing.jacobian_expectation = t.wrap(
        "mixing.jacobian_expectation", mixing.jacobian_expectation)

    walks.sample_walk = t.wrap("walks.sample_walk", walks.sample_walk, t._after_sample)
    invariance.enumerate_walk_distribution = t.wrap(
        "walks.enumerate_walk_distribution", invariance.enumerate_walk_distribution,
        t._after_enum, consume=True)

    anon = t.wrap("records.record_anonymized", records.record_anonymized,
                  t._after_record)
    named = t.wrap("records.record_named_neighbors", records.record_named_neighbors,
                   t._after_record)
    for module in (records, invariance):
        module.record_anonymized = anon
        module.record_named_neighbors = named
    records.Record.text = property(
        t.wrap("records.Record.text", records.Record.text.fget))

    reconstruct.decode = t.wrap("reconstruct.decode", reconstruct.decode)
    reconstruct.is_isomorphic = t.wrap("reconstruct.is_isomorphic", reconstruct.is_isomorphic)

    for module in (generators, invariance, reconstruct):
        module.build_graph = t.wrap("graphs.build_graph", module.build_graph)
    invariance.apply_permutation = t.wrap(
        "graphs.apply_permutation", invariance.apply_permutation)

    for name in generators.__all__:
        wrapped = t.wrap(f"generators.{name}", getattr(generators, name))
        for module in (generators, cover):
            if hasattr(module, name):
                setattr(module, name, wrapped)
    # the CLI resolves --family through a table built at import time
    families = cli._FAMILIES
    for family, (fn, params) in families.items():
        families[family] = (getattr(generators, fn.__name__), params)

    cli.run_invariance_suite = t.wrap(
        "invariance.run_invariance_suite", cli.run_invariance_suite, t._after_suite)
    cli.run = t.wrap("cli.run", cli.run)
