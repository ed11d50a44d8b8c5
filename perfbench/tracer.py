"""Span tracer that wraps flexmarket's public functions for a traced run.

`Tracer.install()` replaces each target function, in every flexmarket module
that holds a reference to it, with a wrapper that records one span (name,
start, end, parent, tag) per call; `uninstall()` puts the originals back.
Spans live in flat integer arrays until the run ends; `aggregate()` turns
them into per-name call counts, total time and self time (span minus the part
covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _reports_key(reports) -> tuple:
    return tuple((r.valuation, r.flexibility) for r in reports)


def _allocate_key(args, kwargs):
    # Mechanism.allocate(self, t, reports, y): the memo key the mechanism uses
    return (args[1], tuple(args[3]), _reports_key(args[2]))


def _threshold_key(args, kwargs):
    # Mechanism.payment_threshold(self, t, others, j, y, probe_index=None)
    probe = kwargs.get("probe_index", args[5] if len(args) > 5 else None)
    return (args[1], tuple(args[4]), args[3], probe, _reports_key(args[2]))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: span name, owning module, attribute path."""

    span: str
    module: str
    attr: str                      # "func" or "Class.method"
    tag_arg: int | None = None     # positional arg recorded as the span tag (period t)
    key_fn: Callable | None = None  # distinct-argument key, counted per span name
    counts_cont: bool = False      # count calls of the continuation argument (arg 3)
    counts_states: bool = False    # count the returned tables' states per period


TARGETS = (
    Target("config_io.parse_config", "flexmarket.config_io", "parse_config"),
    Target("config_io.fingerprint", "flexmarket.config_io", "fingerprint"),
    Target("dp.build_value_tables", "flexmarket.dp", "build_value_tables", counts_states=True),
    Target("dp.stage_value", "flexmarket.dp", "stage_value", tag_arg=0, counts_cont=True),
    Target("dp.cache.save", "flexmarket.dp", "ValueTables.save"),
    Target("dp.cache.load", "flexmarket.dp", "ValueTables.load"),
    Target("mechanism.allocate", "flexmarket.mechanism", "Mechanism.allocate",
           key_fn=_allocate_key),
    Target("mechanism.payment_threshold", "flexmarket.mechanism",
           "Mechanism.payment_threshold", key_fn=_threshold_key),
    Target("mechanism.sampling", "flexmarket.mechanism", "Mechanism.sample_arrival_count"),
    Target("mechanism.sampling", "flexmarket.mechanism", "Mechanism.sample_type"),
    Target("mechanism.sampling", "flexmarket.mechanism", "Mechanism.sample_supply_arrivals"),
    Target("mechanism.sampling", "flexmarket.mechanism", "Mechanism.sample_supply_state"),
    Target("simulate.sample_episode", "flexmarket.simulate", "sample_episode"),
    Target("simulate.estimate_revenue", "flexmarket.simulate", "estimate_revenue"),
    # The per-episode body shared by sample_episode and estimate_revenue.
    Target("simulate.episode", "flexmarket.simulate", "_run_episode"),
    Target("simulate.bic_audit", "flexmarket.simulate", "bic_audit"),
    Target("simulate.ir_audit", "flexmarket.simulate", "ir_audit"),
    Target("oracle.run_verification", "flexmarket.oracle", "run_verification"),
    Target("oracle.verify_instance", "flexmarket.oracle", "verify_instance"),
    Target("oracle.build_brute_tables", "flexmarket.oracle", "build_brute_tables"),
    Target("oracle.brute_stage_value", "flexmarket.oracle", "brute_stage_value", tag_arg=0),
    Target("oracle.enumerate_feasible_matrices", "flexmarket.oracle",
           "enumerate_feasible_matrices"),
    Target("oracle.check_monotonicity", "flexmarket.oracle", "check_monotonicity"),
)

# Stage evaluations made directly under a table build mark DP period boundaries.
STAGE_SPANS = ("dp.stage_value", "oracle.brute_stage_value")


@dataclass
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    durations_s: np.ndarray


class Tracer:
    """Records spans around TARGETS while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.tag = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.missing: list[str] = []
        self._patches: list[tuple] = []   # (owner, attr, original)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self._wrap(original, target)
            # Patch every flexmarket module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "flexmarket" or mod_name.startswith("flexmarket.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        return self

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, target: Target):
        nid = self._name_id(target.span)
        span_name, parent, start, end, tag = (
            self.span_name, self.parent, self.start, self.end, self.tag)
        stack = self._stack
        clock = time.perf_counter_ns
        tag_arg = target.tag_arg
        key_fn = target.key_fn
        keys = self.keys.setdefault(target.span, set()) if key_fn else None
        counts = self.counts

        def counted_cont(cont):
            def cont_counted(m):
                counts["dp.continuation.calls"] += 1
                return cont(m)
            return cont_counted

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            tag.append(args[tag_arg] if tag_arg is not None else -1)
            start.append(0)
            end.append(0)
            if keys is not None:
                keys.add(key_fn(args, kwargs))
            if target.counts_cont:
                # stage_value(t, summary, y, cont)
                if len(args) > 3:
                    args = args[:3] + (counted_cont(args[3]),) + args[4:]
                else:
                    kwargs["cont"] = counted_cont(kwargs["cont"])
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if target.counts_states:
                for t in range(1, result.config.horizon + 1):
                    counts[f"dp.t{t}.states"] += len(result.states[t])
            return result

        return functools.wraps(fn)(wrapper)

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a live view would pin the growing buffers)."""
        columns = {"name": self.span_name, "parent": self.parent, "start_ns": self.start,
                   "end_ns": self.end, "tag": self.tag}
        return {key: np.frombuffer(col, dtype=np.int64).copy() for key, col in columns.items()}

    def aggregate(self) -> dict[str, SpanStats]:
        """Per span name: calls, total seconds, self seconds, each span's duration."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = SpanStats(int(sel.sum()), float(dur[sel].sum()),
                                  float(own[sel].sum()), dur[sel])
        return out

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose parent span is called `parent_name`."""
        a = self.arrays()
        if name not in self._name_ids or parent_name not in self._name_ids:
            return 0
        sel = a["name"] == self._name_ids[name]
        par = a["parent"][sel]
        par = par[par >= 0]
        return int((a["name"][par] == self._name_ids[parent_name]).sum())

    def period_breakdown(self) -> dict[int, tuple[int, float]]:
        """Per DP period t: (stage evaluations, seconds) over all table builds.

        Backward induction runs t = T..1, so period t of one build spans from
        the end of its last stage evaluation at t+1 (or the build's start) to
        the end of its last stage evaluation at t.
        """
        a = self.arrays()
        build = self._name_ids.get("dp.build_value_tables")
        stage_ids = [self._name_ids[n] for n in STAGE_SPANS if n in self._name_ids]
        if build is None or not stage_ids:
            return {}
        stage = np.isin(a["name"], stage_ids)
        par = a["parent"]
        under_build = stage & (par >= 0)
        under_build[under_build] = a["name"][par[under_build]] == build
        calls: Counter = Counter()
        last_end: dict[tuple[int, int], int] = {}
        for b, t, e in zip(par[under_build].tolist(), a["tag"][under_build].tolist(),
                           a["end_ns"][under_build].tolist()):
            calls[t] += 1
            key = (b, t)
            if e > last_end.get(key, -1):
                last_end[key] = e
        seconds: Counter = Counter()
        per_build: dict[int, dict[int, int]] = {}
        for (b, t), e in last_end.items():
            per_build.setdefault(b, {})[t] = e
        for b, ends in per_build.items():
            prev = int(a["start_ns"][b])
            for t in sorted(ends, reverse=True):
                seconds[t] += (ends[t] - prev) / 1e9
                prev = ends[t]
        return {t: (calls[t], seconds[t]) for t in sorted(calls)}

    def save(self, path) -> None:
        """Write every span plus the name table as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Periods whose metrics are always reported (BENCHMARK.json declares t1..t3).
REPORTED_PERIODS = 3


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from one traced run."""
    agg = tracer.aggregate()
    empty = SpanStats(0, 0.0, 0.0, np.empty(0))

    def st(name: str) -> SpanStats:
        return agg.get(name, empty)

    def pct_ms(name: str, q: float) -> float:
        d = st(name).durations_s
        return float(np.percentile(d, q) * 1e3) if len(d) else 0.0

    m: dict[str, float] = {
        "config_io.parse_config.s": st("config_io.parse_config").total_s,
        "config_io.fingerprint.calls": st("config_io.fingerprint").calls,
        "config_io.fingerprint.s": st("config_io.fingerprint").total_s,
        "dp.build_value_tables.s": st("dp.build_value_tables").total_s,
        "dp.build_value_tables.self_s": st("dp.build_value_tables").self_s,
        "dp.stage_value.calls": st("dp.stage_value").calls,
        "dp.stage_value.s": st("dp.stage_value").total_s,
        "dp.continuation.calls": tracer.counts["dp.continuation.calls"],
        "dp.cache.save_s": st("dp.cache.save").total_s,
        "dp.cache.load_s": st("dp.cache.load").total_s,
        # Data the workloads' checks measure; zero where a workload has none.
        "dp.cache.bytes": 0,
        "dp.mc.mono_violations": 0,
        "dp.mc.negative_gaps": 0,
    }
    periods = tracer.period_breakdown()
    for t in range(1, max(REPORTED_PERIODS, max(periods, default=0)) + 1):
        calls, seconds = periods.get(t, (0, 0.0))
        m[f"dp.t{t}.states"] = tracer.counts[f"dp.t{t}.states"]
        m[f"dp.t{t}.stage_calls"] = calls
        m[f"dp.t{t}.s"] = seconds

    alloc = st("mechanism.allocate")
    thr = st("mechanism.payment_threshold")
    m.update({
        "mechanism.allocate.calls": alloc.calls,
        "mechanism.allocate.distinct_ratio":
            len(tracer.keys.get("mechanism.allocate", ())) / alloc.calls if alloc.calls else 0.0,
        "mechanism.allocate.self_s": alloc.self_s,
        "mechanism.payment_threshold.calls": thr.calls,
        "mechanism.payment_threshold.distinct": len(tracer.keys.get("mechanism.payment_threshold", ())),
        "mechanism.payment_threshold.grid_steps":
            tracer.child_count("mechanism.allocate", "mechanism.payment_threshold"),
        "mechanism.payment_threshold.self_s": thr.self_s,
        "mechanism.sampling.calls": st("mechanism.sampling").calls,
        "mechanism.sampling.self_s": st("mechanism.sampling").self_s,
    })

    # Episode self time: RNG set-up and bookkeeping in the functions that run episodes.
    m.update({
        "simulate.episodes": st("simulate.episode").calls,
        "simulate.episode.p50_ms": pct_ms("simulate.episode", 50),
        "simulate.episode.p99_ms": pct_ms("simulate.episode", 99),
        "simulate.episode.self_s": sum(st(n).self_s for n in (
            "simulate.episode", "simulate.sample_episode", "simulate.estimate_revenue")),
        "simulate.bic_audit.s": st("simulate.bic_audit").total_s,
        "simulate.ir_audit.s": st("simulate.ir_audit").total_s,
    })

    m.update({
        "oracle.instances": st("oracle.verify_instance").calls,
        "oracle.verify_instance.p50_ms": pct_ms("oracle.verify_instance", 50),
        "oracle.verify_instance.p95_ms": pct_ms("oracle.verify_instance", 95),
        "oracle.build_brute_tables.s": st("oracle.build_brute_tables").total_s,
        "oracle.enumerate_feasible_matrices.calls": st("oracle.enumerate_feasible_matrices").calls,
        "oracle.enumerate_feasible_matrices.s": st("oracle.enumerate_feasible_matrices").total_s,
        "oracle.check_monotonicity.s": st("oracle.check_monotonicity").total_s,
    })
    return m
