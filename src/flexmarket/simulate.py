"""Seeded market episodes, revenue estimation, interim quantities and
truthfulness audits.

Replications use independent seeded streams and are aggregated with exact
(correctly rounded) summation, so results do not depend on evaluation order.
Replication r of a batch reads the stream of
``default_rng(SeedSequence([seed, r]))`` (``[seed, t, r]`` for environments)
bit for bit, as row r of `market.uniform_blocks`, a row as wide as the most
uniforms a replication can take. A batch reads each block's histories by
columns (`market.DrawPlan.replicate`) and plays each distinct history of a
block once: an episode that repeats an earlier one's draws is that
episode's trace object, which is what the replay would give. A standalone
`sample_episode` reads its history per call from its own
``SeedSequence([seed])`` Generator.
Only `run_episodes` holds whole traces, a block's distinct histories at a
time, because the CLI's trace CSV needs them. `estimate_revenue` holds only
each distinct history's (revenue, virtual surplus) totals, and the audits
only their laws and entries: whatever a batch keeps alive until it ends
survives into the collector's oldest generation, where every full
collection walks it again, so a trace that only feeds totals is let go as
soon as they are read.
Interim quantities and audits are expectations over an environment law: the
supply state a period-t consumer meets plus the other consumers' types. The
law is either sampled (`Mechanism.environment_law`: the environments of
`Mechanism.sample_environments` tallied per distinct environment, since they
repeat heavily at desk scale, and drawn once per Mechanism and key, so audits
on one Mechanism share it) or, for interim quantities at t = 1, enumerated
exactly. One evaluator probes each distinct report once per environment of
the law, and every interim quantity and audit entry is the `dp.estimate` of
those evaluations under the law. Deviation audits thereby couple the
truthful and deviating reports on common random environments, which makes
the paired gain estimates sharp.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import dp
from .dp import ValueTables
from .errors import TableMismatch
from .market import MarketConfig, episode_plan
from .mechanism import Mechanism, MechanismOutcome


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

class PeriodRecord(NamedTuple):
    t: int
    supply_arrived: tuple
    supply_before: tuple
    true_types: tuple          # a Report (valuation, level) per consumer, arrival order
    outcome: MechanismOutcome


class EpisodeTrace(NamedTuple):
    periods: tuple
    total_revenue: float
    total_virtual_surplus: float


def _session(cfg: MarketConfig, tables: ValueTables, mech: Mechanism | None) -> Mechanism:
    """`mech`, or a new Mechanism on `tables` when None. Raises TableMismatch
    unless the tables were built for `cfg` and `mech` runs on these tables."""
    if cfg != tables.config:  # configs compare by fingerprint
        raise TableMismatch("tables were built for a different config")
    if mech is None:
        return Mechanism(tables)
    if mech.tables is not tables:
        raise TableMismatch("mech runs on other tables than the ones passed")
    return mech


def _run_episode(mech: Mechanism, history: tuple) -> EpisodeTrace:
    """The truthful episode of one history of `market.episode_plan`."""
    cfg = mech.cfg
    k = cfg.varieties
    draws = iter(history)
    periods = []
    payments: list[float] = []
    surplus: list[float] = []
    x = tuple(itertools.islice(draws, k))
    y = x
    for t in range(1, cfg.horizon + 1):
        reports = mech._read_types(draws, next(draws))
        x_next = tuple(itertools.islice(draws, k)) if t < cfg.horizon else (0,) * k
        outcome, y_next = mech.step(t, y, reports, x_next)
        payments.extend(outcome.payments)
        for report, variety in zip(reports, outcome.varieties):
            if variety:
                surplus.append(mech._read(t, report)[0])
        periods.append(PeriodRecord(t, x, y, reports, outcome))
        y, x = y_next, x_next
    return EpisodeTrace(
        periods=tuple(periods),
        total_revenue=math.fsum(payments),
        total_virtual_surplus=math.fsum(surplus),
    )


def sample_episode(cfg: MarketConfig, tables: ValueTables, seed: int,
                   mech: Mechanism | None = None) -> EpisodeTrace:
    """One truthful market episode, deterministic in the seed: its history
    drawn per call from ``default_rng(SeedSequence([seed]))``."""
    mech = _session(cfg, tables, mech)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return _run_episode(mech, episode_plan(cfg).read(rng.random))


def run_episodes(mech: Mechanism, replications: int, seed: int):
    """Episodes 0..replications-1. Episode r reads the stream of
    ``default_rng(SeedSequence([seed, r]))``, bit for bit, as row r of
    `market.uniform_blocks`, so a batch can run in any order or in parallel
    without changing any episode. Histories are read by columns, and an
    episode whose history an earlier one of its block drew is that
    episode's very trace, not a replay."""
    yield from episode_plan(mech.cfg).replicate((seed,), replications,
                                                lambda history: _run_episode(mech, history))


class RevenueEstimate:
    """Paired revenue / virtual-surplus estimates from one batch of episodes."""

    def __init__(self, revenues: Sequence[float], surpluses: Sequence[float], seed: int):
        self.replications = n = len(revenues)
        self.seed = seed
        self.mean, self.stderr = dp.estimate(revenues, draws=n)
        self.virtual_mean, self.virtual_stderr = dp.estimate(surpluses, draws=n)
        self.diff_mean, self.diff_stderr = dp.estimate(
            [r - s for r, s in zip(revenues, surpluses)], draws=n)

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
    the episodes of `run_episodes`.

    Each distinct history of a block is played once through `_run_episode`,
    as `run_episodes` plays it, but only its two totals are kept: the trace
    is dropped as soon as they are read, so it dies young instead of
    surviving the batch into the collector's oldest generation."""
    if replications < 2:
        raise ValueError("need at least 2 replications")
    mech = _session(cfg, tables, mech)

    def totals(history: tuple) -> tuple[float, float]:
        trace = _run_episode(mech, history)
        return trace.total_revenue, trace.total_virtual_surplus

    revenues, surpluses = [], []
    for revenue, surplus in episode_plan(mech.cfg).replicate((seed,), replications, totals):
        revenues.append(revenue)
        surpluses.append(surplus)
    return RevenueEstimate(revenues, surpluses, seed)


# ---------------------------------------------------------------------------
# Myopic baseline
# ---------------------------------------------------------------------------

def _myopic_stage(t, w_sorted: tuple, y, cont):
    """Serve for immediate virtual surplus only: the optimal stage with no
    continuation picks the service, then the real continuation is added."""
    greedy = dp.stage_value(t, w_sorted, y, dp._no_continuation)
    parts = [w for ws, uj in zip(w_sorted, greedy.u_star) for w in ws[:uj]]
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


@dataclass(frozen=True, slots=True)
class AuditEntry:
    t: int
    true_type: tuple
    deviation: tuple | None    # None rows report truthful utility (IR)
    value: float               # estimated gain (BIC) or utility (IR)
    stderr: float
    samples: int


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
        """The fields, entries included, plus the kind's two summary keys."""
        if self.kind == "bic":
            summary = {"worst_gain": self.worst_gain, "worst_gain_stderr": self.worst_gain_stderr}
        else:
            summary = {"min_utility": self.min_utility,
                       "min_utility_stderr": self.min_utility_stderr}
        return {**asdict(self), **summary}


def _check_slot(n_t: int, slot: int) -> None:
    """Raise unless `slot` names one of n_t >= 1 arrivals; run before any law is drawn."""
    if n_t < 1 or not 1 <= slot <= n_t:
        raise ValueError(f"probe slot {slot} must lie in 1..n_t with n_t >= 1 (n_t = {n_t})")


def _exact_law(cfg: MarketConfig, n_t: int) -> list | None:
    """The period-1 environment law as (probability, environment) rows: every
    supply outcome times every profile of the other n_t - 1 consumers' atoms.
    None when that exceeds 50,000 rows."""
    atoms = cfg.consumer_atoms(1)
    outcomes = cfg.supply.outcomes(1)
    if len(atoms) ** (n_t - 1) * len(outcomes) > 50_000:
        return None
    points = cfg.grid.point_list
    law = []
    for prob_y, y in outcomes:
        for combo in itertools.product(atoms, repeat=n_t - 1):
            prob = prob_y
            for _b, _i, p, _w in combo:
                prob *= p
            law.append((prob, (y, tuple((points[gi], b) for b, gi, _p, _w in combo))))
    return law


def _probe_outcomes(mech: Mechanism, t: int, slot: int, law: Sequence):
    """A function from a report to its (served, payment) probed at `slot`,
    once per environment of `law`, in the law's row order.

    A report is evaluated over the whole law the first time it is asked for
    and reused after, so on tables that make the mechanism inconsistent the
    first failing (report, environment) pair is the one the caller's loop
    over reports meets first.
    """
    return functools.cache(
        lambda report: [mech._evaluate_probe(t, y, others, slot, report) for _, (y, others) in law])


def _utilities(outcomes: list, true_val: float) -> list[float]:
    """Realized utility per environment of a consumer whose true value is
    true_val and whose report met `outcomes`."""
    return [true_val * served - pay for served, pay in outcomes]


class InterimEstimate(NamedTuple):
    allocation: float      # Q, in [0, 1]
    payment: float         # P
    allocation_se: float
    payment_se: float
    replications: int | None  # None for exact enumeration


def interim_quantities(cfg: MarketConfig, tables: ValueTables, t: int, n_t: int, i: int,
                       report: tuple, replications: int = 2000, seed: int = 0,
                       mech: Mechanism | None = None) -> InterimEstimate:
    """Expected allocation Q and payment P of one probed report.

    Conditions on n_t arrivals with the probe at slot i; the other n_t - 1
    consumers and the supply state are integrated out exactly at t = 1 when
    that law has at most 50,000 terms (supply PMF times full type-profile
    enumeration), and otherwise over the seeded environments the audits use.
    """
    mech = _session(cfg, tables, mech)
    _check_slot(n_t, i)
    report = (float(report[0]), int(report[1]))
    law = _exact_law(cfg, n_t) if t == 1 else None
    if law is None:
        law = mech.environment_law(t, n_t, replications, seed)
    else:
        replications = None
    outcomes = _probe_outcomes(mech, t, i, law)(report)
    weights = [w for w, _ in law]
    q, q_se = dp.estimate([served for served, _ in outcomes], weights, replications)
    p, p_se = dp.estimate([pay for _, pay in outcomes], weights, replications)
    return InterimEstimate(q, p, q_se, p_se, replications)


def bic_audit(cfg: MarketConfig, tables: ValueTables, probe: AuditProbe,
              replications: int, seed: int, mech: Mechanism | None = None) -> AuditReport:
    """Estimated utility gain of every probed misreport, coupled per environment.

    Deviations never over-report flexibility: a true (v, b) is probed at all
    (r, c) with c <= b over the probe's misreport values.
    """
    mech = _session(cfg, tables, mech)
    _check_slot(probe.n_t, probe.slot)
    if not probe.true_types or not probe.deviation_values:
        raise ValueError("a BIC probe needs at least one true type and one deviation value")
    law = mech.environment_law(probe.t, probe.n_t, replications, seed)
    outcomes = _probe_outcomes(mech, probe.t, probe.slot, law)
    counts = [count for count, _ in law]
    report = AuditReport(kind="bic", replications=replications, seed=seed)

    for true_val, true_lvl in probe.true_types:
        truth = _utilities(outcomes((true_val, true_lvl)), true_val)
        for dev_lvl in range(1, true_lvl + 1):
            for dev_val in probe.deviation_values:
                lied = _utilities(outcomes((dev_val, dev_lvl)), true_val)
                gains = [u - u_truth for u, u_truth in zip(lied, truth)]
                mean, se = dp.estimate(gains, counts, replications)
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
    mech = _session(cfg, tables, mech)
    if probes is None:
        probes = [AuditProbe.default(cfg, t) for t in range(1, cfg.horizon + 1)]
    if not probes or not all(probe.true_types for probe in probes):
        raise ValueError("an IR audit needs at least one probe, each with a true type")
    for probe in probes:
        _check_slot(probe.n_t, probe.slot)
    report = AuditReport(kind="ir", replications=replications, seed=seed)
    for probe in probes:
        law = mech.environment_law(probe.t, probe.n_t, replications, seed)
        outcomes = _probe_outcomes(mech, probe.t, probe.slot, law)
        counts = [count for count, _ in law]
        for true_val, true_lvl in probe.true_types:
            utils = _utilities(outcomes((true_val, true_lvl)), true_val)
            mean, se = dp.estimate(utils, counts, replications)
            report.entries.append(AuditEntry(
                t=probe.t, true_type=(true_val, true_lvl), deviation=None,
                value=mean, stderr=se, samples=replications,
            ))
    return report


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
        for row, ((val, lvl), variety) in enumerate(zip(rec.true_types, rec.outcome.varieties)):
            yield [
                episode, rec.t, row + 1, repr(val), lvl,
                int(variety > 0), variety,
                repr(rec.outcome.payments[row]),
                _vec(rec.supply_before), _vec(after),
            ]


def write_traces_csv(path, traces: Iterable[EpisodeTrace], manifest: dict) -> None:
    """One row per consumer-period event; manifest embedded as a comment line.

    `traces` may be any iterable (a generator streams episodes to disk).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for ep, trace in enumerate(traces):
            writer.writerows(trace_rows(ep, trace))


def write_json_report(path, payload: dict, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "manifest": manifest}, fh, indent=2, sort_keys=True)
        fh.write("\n")
