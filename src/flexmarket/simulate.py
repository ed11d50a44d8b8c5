"""Seeded market episodes, revenue estimation, and truthfulness audits.

Replications use independent seed substreams and are aggregated with exact
(correctly rounded) summation, so results do not depend on evaluation order.
Deviation audits couple the truthful and deviating runs on common random
environments: each replication samples one environment (supply state plus the
other consumers), and every probed report is evaluated against it, which
makes the paired gain estimates sharp. Environments repeat heavily at desk
scale, so replications are tallied per distinct environment and each distinct
environment is evaluated once; the estimates are identical to a
per-replication loop.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import dp
from .dp import SortedReportSummary, ValueTables
from .market import MarketConfig
from .mechanism import Mechanism, MechanismOutcome, make_reports


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodRecord:
    t: int
    supply_arrived: tuple
    supply_before: tuple
    true_types: tuple          # (valuation, level) per consumer, arrival order
    outcome: MechanismOutcome


@dataclass(frozen=True)
class EpisodeTrace:
    seed: object
    periods: tuple
    total_revenue: float
    total_virtual_surplus: float


def _run_episode(mech: Mechanism, rng) -> EpisodeTrace:
    cfg = mech.cfg
    periods = []
    payments: list[float] = []
    surplus: list[float] = []
    x = mech.sample_supply_arrivals(rng, 1)
    y = x
    for t in range(1, cfg.horizon + 1):
        n = mech.sample_arrival_count(rng, t)
        types = tuple(mech.sample_type(rng, t) for _ in range(n))
        reports = make_reports(types)
        x_next = mech.sample_supply_arrivals(rng, t + 1) if t < cfg.horizon else (0,) * cfg.varieties
        outcome, y_next = mech.step(t, y, reports, x_next)
        payments.extend(outcome.payments)
        for row, (val, lvl) in enumerate(types):
            if outcome.variety_received(row):
                surplus.append(float(
                    cfg.virtual_values[t - 1, lvl - 1, cfg.grid.index_of(val)]
                ))
        periods.append(PeriodRecord(t, x, y, types, outcome))
        y, x = y_next, x_next
    return EpisodeTrace(
        seed=None,
        periods=tuple(periods),
        total_revenue=math.fsum(payments),
        total_virtual_surplus=math.fsum(surplus),
    )


def sample_episode(cfg: MarketConfig, tables: ValueTables, seed: int,
                   mech: Mechanism | None = None) -> EpisodeTrace:
    """One truthful market episode, deterministic in the seed."""
    tables.check_config(cfg)
    mech = mech or Mechanism(tables)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    trace = _run_episode(mech, rng)
    return EpisodeTrace(seed, trace.periods, trace.total_revenue, trace.total_virtual_surplus)


def run_episodes(mech: Mechanism, replications: int, seed: int):
    """Episodes 0..replications-1, episode r on the (seed, r) substream, so a
    batch can run in any order or in parallel without changing any episode."""
    for rep in range(replications):
        yield _run_episode(mech, np.random.default_rng(np.random.SeedSequence([seed, rep])))


class RevenueEstimate:
    """Paired revenue / virtual-surplus estimates from one batch of episodes."""

    def __init__(self, revenues: Sequence[float], surpluses: Sequence[float],
                 replications: int, seed: int):
        self.replications = replications
        self.seed = seed
        n = len(revenues)
        self.mean, self.stderr = _env_stats([(1, r) for r in revenues], n)
        self.virtual_mean, self.virtual_stderr = _env_stats([(1, s) for s in surpluses], n)
        self.diff_mean, self.diff_stderr = _env_stats(
            [(1, r - s) for r, s in zip(revenues, surpluses)], n
        )

    def to_json(self) -> dict:
        return {
            "replications": self.replications,
            "seed": self.seed,
            "revenue_mean": self.mean,
            "revenue_stderr": self.stderr,
            "virtual_surplus_mean": self.virtual_mean,
            "virtual_surplus_stderr": self.virtual_stderr,
            "revenue_minus_virtual_mean": self.diff_mean,
            "revenue_minus_virtual_stderr": self.diff_stderr,
        }


def estimate_revenue(cfg: MarketConfig, tables: ValueTables, replications: int,
                     seed: int, mech: Mechanism | None = None) -> RevenueEstimate:
    """Mean and standard error of episode revenue (and virtual surplus) over
    the episodes of `run_episodes`."""
    if replications < 2:
        raise ValueError("need at least 2 replications")
    tables.check_config(cfg)
    mech = mech or Mechanism(tables)
    revenues, surpluses = [], []
    for trace in run_episodes(mech, replications, seed):
        revenues.append(trace.total_revenue)
        surpluses.append(trace.total_virtual_surplus)
    return RevenueEstimate(revenues, surpluses, replications, seed)


# ---------------------------------------------------------------------------
# Myopic baseline
# ---------------------------------------------------------------------------

def _myopic_stage(t, summary: SortedReportSummary, y, cont):
    """Serve for immediate virtual surplus only: the optimal stage with no
    continuation picks the service, then the real continuation is added."""
    greedy = dp.stage_value(t, summary, y, dp._no_continuation)
    parts = [w for ws, uj in zip(summary.w_sorted, greedy.u_star) for w in ws[:uj]]
    parts.append(cont(tuple(a - b for a, b in zip(y, greedy.v_star))))
    return math.fsum(parts)


def build_myopic_tables(cfg: MarketConfig, **kwargs) -> ValueTables:
    """Expected virtual surplus collected by the greedy per-period policy.

    A sanity baseline, not part of the mechanism: the optimal tables must
    weakly dominate these everywhere. `kwargs` go to `dp.build_value_tables`
    (backend, samples, seed, ...), as for the tables it is compared with.
    """
    tables = dp.build_value_tables(cfg, stage_fn=_myopic_stage, **kwargs)
    tables.backend += "-myopic"
    return tables


def expected_virtual_surplus(tables: ValueTables) -> float:
    """Exact expected total virtual surplus of the policy behind the tables:
    the value of entering period 1 with no stock carried over."""
    return tables.continuation_fn(0)((0,) * tables.config.varieties)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditProbe:
    """What to probe: period, arrival count, slot, true types, misreport values."""

    t: int
    true_types: tuple          # ((valuation, level), ...)
    deviation_values: tuple    # candidate misreported valuations (grid points)
    n_t: int = 1
    slot: int = 1

    @classmethod
    def default(cls, cfg: MarketConfig, t: int, points: int = 21) -> "AuditProbe":
        vals = tuple(sorted({cfg.grid.snap(v) for v in
                             np.linspace(cfg.grid.theta_min, cfg.grid.theta_max, points)}))
        true_types = tuple((v, b) for b in range(1, cfg.varieties + 1) for v in vals)
        return cls(t=t, true_types=true_types, deviation_values=vals)


@dataclass(frozen=True)
class AuditEntry:
    t: int
    true_type: tuple
    deviation: tuple | None    # None rows report truthful utility (IR)
    value: float               # estimated gain (BIC) or utility (IR)
    stderr: float
    samples: int

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "true_type": list(self.true_type),
            "deviation": list(self.deviation) if self.deviation else None,
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
        }


@dataclass
class AuditReport:
    kind: str                  # "bic" | "ir"
    replications: int
    seed: int
    entries: list = field(default_factory=list)

    @property
    def worst_gain(self) -> float:
        """Largest estimated deviation gain (BIC reports)."""
        return max(e.value for e in self.entries)

    @property
    def worst_gain_stderr(self) -> float:
        return max(self.entries, key=lambda e: e.value).stderr

    @property
    def min_utility(self) -> float:
        """Smallest estimated truthful utility (IR reports)."""
        return min(e.value for e in self.entries)

    @property
    def min_utility_stderr(self) -> float:
        return min(self.entries, key=lambda e: e.value).stderr

    def to_json(self) -> dict:
        head = {
            "kind": self.kind,
            "replications": self.replications,
            "seed": self.seed,
        }
        if self.kind == "bic":
            head["worst_gain"] = self.worst_gain
            head["worst_gain_stderr"] = self.worst_gain_stderr
        else:
            head["min_utility"] = self.min_utility
            head["min_utility_stderr"] = self.min_utility_stderr
        head["entries"] = [e.to_json() for e in self.entries]
        return head


def _env_stats(per_env_values: list[tuple[int, float]], replications: int) -> tuple[float, float]:
    mean = math.fsum(c * v for c, v in per_env_values) / replications
    if replications < 2:
        return mean, 0.0
    var = math.fsum(c * (v - mean) ** 2 for c, v in per_env_values) / (replications - 1)
    return mean, math.sqrt(var / replications)


def bic_audit(cfg: MarketConfig, tables: ValueTables, probe: AuditProbe,
              replications: int, seed: int, mech: Mechanism | None = None) -> AuditReport:
    """Estimated utility gain of every probed misreport, coupled per environment.

    Deviations never over-report flexibility: a true (v, b) is probed at all
    (r, c) with c <= b over the probe's misreport values.
    """
    tables.check_config(cfg)
    mech = mech or Mechanism(tables)
    envs = Counter(mech.sample_environments(probe.t, probe.n_t, replications, seed))
    report = AuditReport(kind="bic", replications=replications, seed=seed)

    for true_val, true_lvl in probe.true_types:
        truth_by_env = {
            env: _utility(mech, probe, env, (true_val, true_lvl), true_val)
            for env in envs
        }
        for dev_lvl in range(1, true_lvl + 1):
            for dev_val in probe.deviation_values:
                gains = [
                    (count, _utility(mech, probe, env, (dev_val, dev_lvl), true_val)
                     - truth_by_env[env])
                    for env, count in envs.items()
                ]
                mean, se = _env_stats(gains, replications)
                report.entries.append(AuditEntry(
                    t=probe.t, true_type=(true_val, true_lvl),
                    deviation=(dev_val, dev_lvl),
                    value=mean, stderr=se, samples=replications,
                ))
    return report


def ir_audit(cfg: MarketConfig, tables: ValueTables, replications: int, seed: int,
             probes: Sequence[AuditProbe] | None = None,
             mech: Mechanism | None = None) -> AuditReport:
    """Estimated truthful interim utility for every probed type, all periods."""
    tables.check_config(cfg)
    mech = mech or Mechanism(tables)
    if probes is None:
        probes = [AuditProbe.default(cfg, t) for t in range(1, cfg.horizon + 1)]
    report = AuditReport(kind="ir", replications=replications, seed=seed)
    for probe in probes:
        envs = Counter(mech.sample_environments(probe.t, probe.n_t, replications, seed))
        for true_val, true_lvl in probe.true_types:
            utils = [
                (count, _utility(mech, probe, env, (true_val, true_lvl), true_val))
                for env, count in envs.items()
            ]
            mean, se = _env_stats(utils, replications)
            report.entries.append(AuditEntry(
                t=probe.t, true_type=(true_val, true_lvl), deviation=None,
                value=mean, stderr=se, samples=replications,
            ))
    return report


def _utility(mech: Mechanism, probe: AuditProbe, env: tuple, reported: tuple,
             true_val: float) -> float:
    """Realized utility of the probe consumer under one environment."""
    y, others = env
    served, pay = mech._evaluate_probe(probe.t, y, list(others), probe.slot, reported)
    return true_val * served - pay


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

TRACE_COLUMNS = [
    "episode", "t", "arrival_index", "valuation", "flexibility",
    "served", "variety", "payment", "supply_before", "supply_after",
]


def _vec(v: Sequence[int]) -> str:
    return ";".join(str(int(c)) for c in v)


def trace_rows(episode: int, trace: EpisodeTrace):
    """CSV rows (one per consumer-period event) for one episode."""
    for rec in trace.periods:
        after = rec.outcome.next_supply
        for row, (val, lvl) in enumerate(rec.true_types):
            variety = rec.outcome.variety_received(row)
            yield [
                episode, rec.t, row + 1, repr(val), lvl,
                int(variety > 0), variety,
                repr(rec.outcome.payments[row]),
                _vec(rec.supply_before), _vec(after),
            ]


def write_traces_csv(path, traces: Iterable[EpisodeTrace], manifest: dict | None = None) -> None:
    """One row per consumer-period event; manifest embedded as a comment line.

    `traces` may be any iterable (a generator streams episodes to disk).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest is not None:
            fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for ep, trace in enumerate(traces):
            writer.writerows(trace_rows(ep, trace))


def write_json_report(path, payload: dict, manifest: dict | None = None) -> None:
    doc = dict(payload)
    if manifest is not None:
        doc["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
