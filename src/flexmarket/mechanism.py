"""Online allocation and threshold payments of the optimal mechanism.

Each period the mechanism solves the per-period problem for (u*, v*), lines
the v* goods up in non-decreasing variety order, and walks flexibility levels
1..k giving the top u*^j consumers of level j (by virtual valuation) the next
u*^j goods. A served consumer pays its critical value: the highest grid
report at or above the reserve price at which it would still have lost.

Ties between equal virtual valuations go to the lowest arrival index, so
every decision is a pure function of its inputs. Interim allocation/payment
expectations condition on the period's arrival count, enumerate exactly where
the period-1 state allows it, and otherwise estimate by seeded forward
simulation of the mechanism under truthful play.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dp import SortedReportSummary, ValueTables, stage_value
from .errors import (
    InconsistentAllocation,
    NegativeSupply,
    NoNonnegativePoint,
    TableMismatch,
)
from .market import MarketConfig, reserve_price


class _NotServed:
    """Sentinel: the probed consumer wins at no grid point."""

    __slots__ = ()

    def __repr__(self):
        return "NOT_SERVED"


NOT_SERVED = _NotServed()


@dataclass(frozen=True)
class Report:
    """One consumer's report within a period."""

    valuation: float
    flexibility: int
    arrival_index: int


def make_reports(pairs: Sequence[tuple]) -> tuple[Report, ...]:
    """Reports from (valuation, flexibility) pairs, arrival-indexed from 1."""
    return tuple(Report(float(v), int(b), i + 1) for i, (v, b) in enumerate(pairs))


def _check_reports(reports: Sequence[Report], k: int) -> None:
    if [r.arrival_index for r in reports] != list(range(1, len(reports) + 1)):
        raise ValueError("arrival indices must be contiguous from 1")
    if any(not 1 <= r.flexibility <= k for r in reports):
        raise ValueError(f"flexibility levels must lie in 1..{k}")


class AllocationResult(NamedTuple):
    matrix: np.ndarray     # n x k binary
    u_star: tuple
    v_star: tuple


@dataclass(frozen=True)
class MechanismOutcome:
    """One period's allocation, payments and supply bookkeeping."""

    allocation: np.ndarray
    payments: tuple
    u_star: tuple
    v_star: tuple
    next_supply: tuple   # supply left after allocation, before new arrivals

    def variety_received(self, row: int) -> int:
        """1-based variety given to a consumer row, 0 if unserved."""
        hits = np.flatnonzero(self.allocation[row])
        return int(hits[0]) + 1 if len(hits) else 0


class Mechanism:
    """Session over one config/table pair with memoized allocation decisions.

    Ties between equal virtual valuations go to the lowest arrival index, so
    allocations and thresholds are pure functions of their inputs and are
    memoized; the critical-value payments rely on this, since the threshold
    scan must reproduce the allocation's knife-edge choices.
    """

    def __init__(self, tables: ValueTables):
        self.tables = tables
        self.cfg: MarketConfig = tables.config
        self._alloc_memo: dict = {}
        self._threshold_memo: dict = {}

    # -- allocation ----------------------------------------------------------

    def _ranked_rows(self, t: int, reports: Sequence[Report]) -> tuple[SortedReportSummary, list]:
        """Summary plus per-level row order (virtual valuation desc, then arrival)."""
        k = self.cfg.varieties
        per_level: list[list[tuple]] = [[] for _ in range(k)]
        for row, r in enumerate(reports):
            w = float(self.cfg.virtual_values[t - 1, r.flexibility - 1,
                                              self.cfg.grid.index_of(r.valuation)])
            per_level[r.flexibility - 1].append((-w, r.arrival_index, row, w))
        for bucket in per_level:
            bucket.sort()
        summary = SortedReportSummary.presorted(
            tuple(tuple(item[3] for item in b) for b in per_level))
        return summary, [[item[2] for item in b] for b in per_level]

    def allocate(self, t: int, reports: Sequence[Report], y: Sequence[int]) -> AllocationResult:
        """Optimal allocation matrix for one period."""
        if not 1 <= t <= self.cfg.horizon:
            raise ValueError(f"period {t} outside 1..{self.cfg.horizon}")
        y = tuple(y)
        _check_reports(reports, self.cfg.varieties)
        if y not in self.tables.values[t]:
            raise TableMismatch(f"supply vector {y} is not a reachable state at t={t}")
        key = (t, y, tuple((r.valuation, r.flexibility) for r in reports))
        got = self._alloc_memo.get(key)
        if got is not None:
            return got

        if len(self._alloc_memo) > 500_000:
            self._alloc_memo.clear()
        summary, ranked = self._ranked_rows(t, reports)
        res = stage_value(t, summary, y, self.tables.continuation_fn(t))
        k = self.cfg.varieties
        goods = [j + 1 for j in range(k) for _ in range(res.v_star[j])]
        matrix = np.zeros((len(reports), k), dtype=np.int8)
        pos = 0
        for level in range(k):
            for row in ranked[level][: res.u_star[level]]:
                matrix[row, goods[pos] - 1] = 1
                pos += 1
        matrix.setflags(write=False)
        out = self._alloc_memo[key] = AllocationResult(matrix, res.u_star, res.v_star)
        return out

    # -- payments -------------------------------------------------------------

    def payment_threshold(
        self,
        t: int,
        others: Sequence[Report],
        j: int,
        y: Sequence[int],
        probe_index: int | None = None,
    ):
        """Critical value for a level-j report against the others' reports.

        Scans the grid upward from the reserve price for the largest point at
        which the probe still loses. A probe that wins already at the reserve
        pays the reserve (the supremum over an empty set); one that never
        wins gets the NOT_SERVED sentinel.
        """
        y = tuple(y)
        n = len(others) + 1
        probe_index = n if probe_index is None else probe_index
        if not 1 <= probe_index <= n:
            raise ValueError(f"probe slot must lie in 1..{n}")
        key = (t, y, j, probe_index, tuple((r.valuation, r.flexibility) for r in others))
        if key in self._threshold_memo:
            return self._threshold_memo[key]

        try:
            reserve = reserve_price(self.cfg, t, j)
        except NoNonnegativePoint:
            return NOT_SERVED
        grid = self.cfg.grid
        reserve_idx = grid.index_of(reserve)

        pairs = [(r.valuation, r.flexibility) for r in others]
        result = NOT_SERVED
        for idx in range(reserve_idx, grid.size):
            probe_pairs = list(pairs)
            probe_pairs.insert(probe_index - 1, (float(grid.points[idx]), j))
            alloc = self.allocate(t, make_reports(probe_pairs), y)
            if alloc.matrix[probe_index - 1].any():
                result = float(grid.points[max(idx - 1, reserve_idx)])
                break
        self._threshold_memo[key] = result
        return result

    def payments(
        self,
        t: int,
        reports: Sequence[Report],
        y: Sequence[int],
        allocation: AllocationResult | None = None,
    ) -> tuple:
        """Per-consumer payments: the critical value if served, else zero."""
        if allocation is None:
            allocation = self.allocate(t, reports, y)
        return tuple(self._critical_value(t, reports, row, y) if allocation.matrix[row].any()
                     else 0.0 for row in range(len(reports)))

    def _critical_value(self, t: int, reports: Sequence[Report], row: int, y: Sequence[int]) -> float:
        """Payment of the served consumer at `row`: its threshold against the others."""
        r = reports[row]
        others = [*reports[:row], *reports[row + 1:]]
        tau = self.payment_threshold(t, others, r.flexibility, y, probe_index=row + 1)
        if tau is NOT_SERVED:
            raise InconsistentAllocation(
                f"consumer {r.arrival_index} is served but wins at no grid point"
            )
        if tau > r.valuation + 1e-12:
            raise InconsistentAllocation(
                f"critical value {tau} exceeds the served report {r.valuation}"
            )
        return float(tau)

    def step(
        self,
        t: int,
        y: Sequence[int],
        reports: Sequence[Report],
        x_next: Sequence[int],
    ) -> tuple[MechanismOutcome, tuple]:
        """Run one period and advance the supply dynamics."""
        y = tuple(y)
        alloc = self.allocate(t, reports, y)
        pays = self.payments(t, reports, y, alloc)
        spent = tuple(int(c) for c in alloc.matrix.sum(axis=0))
        left = tuple(a - b for a, b in zip(y, spent))
        if any(c < 0 for c in left):
            raise NegativeSupply(f"allocation spent {spent} from supply {y}")
        outcome = MechanismOutcome(
            allocation=alloc.matrix, payments=pays,
            u_star=alloc.u_star, v_star=alloc.v_star, next_supply=left,
        )
        return outcome, tuple(a + b for a, b in zip(left, x_next))

    # -- sampling helpers ------------------------------------------------------

    def sample_arrival_count(self, rng, t: int) -> int:
        return self.cfg.sampler(t).arrival_count(rng)

    def sample_type(self, rng, t: int) -> tuple[float, int]:
        b, i = self.cfg.sampler(t).consumer(rng)
        return float(self.cfg.grid.points[i]), b

    def sample_supply_arrivals(self, rng, t: int) -> tuple:
        return self.cfg.sampler(t).supply_arrivals(rng)

    def sample_supply_state(self, rng, t: int) -> tuple:
        """Supply vector at period t under truthful play of periods 1..t-1.

        Draw order per period: supply arrivals, then the arrival count, then
        each consumer's (level, valuation).
        """
        y = self.sample_supply_arrivals(rng, 1)
        for s in range(1, t):
            n = self.sample_arrival_count(rng, s)
            reports = make_reports([self.sample_type(rng, s) for _ in range(n)])
            alloc = self.allocate(s, reports, y)
            spent = tuple(int(c) for c in alloc.matrix.sum(axis=0))
            x_next = self.sample_supply_arrivals(rng, s + 1)
            y = tuple(a - b + c for a, b, c in zip(y, spent, x_next))
        return y

    def sample_environments(self, t: int, n_t: int, replications: int, seed: int):
        """(supply state, other consumers' types) seen by a period-t probe among
        n_t arrivals, one per replication on the (seed, t, rep) substream."""
        for rep in range(replications):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, rep]))
            y = self.sample_supply_state(rng, t)
            yield y, tuple(self.sample_type(rng, t) for _ in range(n_t - 1))

    # -- interim quantities ----------------------------------------------------

    def _evaluate_probe(self, t, y, others_pairs, i, report) -> tuple[int, float]:
        """(served indicator, payment) for the probe at slot i among n consumers."""
        pairs = list(others_pairs)
        pairs.insert(i - 1, report)
        reports = make_reports(pairs)
        if not self.allocate(t, reports, y).matrix[i - 1].any():
            return 0, 0.0
        return 1, self._critical_value(t, reports, i - 1, y)

    def interim_quantities(
        self,
        t: int,
        n_t: int,
        i: int,
        report: tuple,
        backend: str = "auto",
        replications: int = 2000,
        seed: int = 0,
    ) -> "InterimEstimate":
        """Expected allocation probability and payment for one probed report.

        Conditions on n_t arrivals with the probe at slot i; the other n_t - 1
        consumers and the supply state are integrated out — exactly at t = 1
        (supply PMF times full type-profile enumeration), by seeded forward
        simulation otherwise.
        """
        if not 1 <= i <= n_t:
            raise ValueError("probe slot must lie in 1..n_t")
        report = (float(report[0]), int(report[1]))
        atoms = self.cfg.consumer_atoms(1)
        outcomes = self.cfg.supply.outcomes(1)
        if backend == "auto":
            cheap = t == 1 and len(atoms) ** (n_t - 1) * len(outcomes) <= 50_000
            backend = "exact" if cheap else "simulate"
        if backend == "exact":
            if t != 1:
                raise ValueError("exact interim enumeration is only available at t = 1")
            points = self.cfg.grid.points
            q_parts, p_parts = [], []
            for prob_y, y in outcomes:
                for combo in itertools.product(atoms, repeat=n_t - 1):
                    prob = prob_y
                    for _b, _i, p, _w in combo:
                        prob *= p
                    others = [(float(points[gi]), b) for b, gi, _p, _w in combo]
                    served, pay = self._evaluate_probe(t, y, others, i, report)
                    q_parts.append(prob * served)
                    p_parts.append(prob * pay)
            return InterimEstimate(math.fsum(q_parts), math.fsum(p_parts), 0.0, 0.0, None)
        if backend != "simulate":
            raise ValueError(f"unknown backend {backend!r}")

        served = np.empty(replications)
        paid = np.empty(replications)
        for rep, (y, others) in enumerate(self.sample_environments(t, n_t, replications, seed)):
            served[rep], paid[rep] = self._evaluate_probe(t, y, others, i, report)
        q, p = float(served.mean()), float(paid.mean())
        q_se = float(served.std(ddof=1) / math.sqrt(replications))
        p_se = float(paid.std(ddof=1) / math.sqrt(replications))
        return InterimEstimate(q, p, q_se, p_se, replications)


class InterimEstimate(NamedTuple):
    allocation: float      # Q, in [0, 1]
    payment: float         # P
    allocation_se: float
    payment_se: float
    replications: int | None  # None for exact enumeration


# ---------------------------------------------------------------------------
# Module-level wrappers matching the operation signatures
# ---------------------------------------------------------------------------

def allocate(t: int, reports: Sequence[Report], y: Sequence[int], tables: ValueTables) -> AllocationResult:
    return Mechanism(tables).allocate(t, reports, y)


def payment_threshold(t: int, others: Sequence[Report], j: int, y: Sequence[int], tables: ValueTables):
    return Mechanism(tables).payment_threshold(t, others, j, y)


def payments(t: int, reports: Sequence[Report], y: Sequence[int], tables: ValueTables,
             allocation: AllocationResult | None = None) -> tuple:
    return Mechanism(tables).payments(t, reports, y, allocation)


def interim_quantities(cfg: MarketConfig, tables: ValueTables, t: int, n_t: int, i: int,
                       report: tuple, backend: str = "auto", **kwargs) -> InterimEstimate:
    tables.check_config(cfg)
    return Mechanism(tables).interim_quantities(t, n_t, i, report, backend=backend, **kwargs)


def step(t: int, state: tuple, reports: Sequence[Report], tables: ValueTables) -> tuple[MechanismOutcome, tuple]:
    y, x_next = state
    return Mechanism(tables).step(t, y, reports, x_next)
