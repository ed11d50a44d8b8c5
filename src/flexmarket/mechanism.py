"""Online allocation and threshold payments of the optimal mechanism.

Each period the mechanism solves the per-period problem for (u*, v*), lines
the v* goods up in non-decreasing variety order, and walks flexibility levels
1..k giving the top u*^j consumers of level j (by virtual valuation) the next
u*^j goods. A served consumer pays its critical value: the highest grid
report at or above the reserve price at which it would still have lost.

A report is a (valuation, flexibility level) pair, and its 1-based position
in the period's report sequence is its arrival index. Ties between equal
virtual valuations go to the lowest arrival index, so every decision is a
pure function of its inputs. Besides allocation, payment and the period
step, a `Mechanism` samples the market under truthful play: supply arrivals,
consumer types, and the supply state and rival reports a period-t consumer
faces. Expectations over those samples (interim quantities, audits, revenue)
live in `simulate`.
"""

from __future__ import annotations

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


class Report(NamedTuple):
    """One consumer's report within a period; its arrival index is its
    1-based position in the period's report sequence."""

    valuation: float
    flexibility: int


def make_reports(pairs: Sequence[tuple]) -> tuple[Report, ...]:
    """Reports from (valuation, flexibility) pairs, in arrival order."""
    return tuple(Report(float(v), int(b)) for v, b in pairs)


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
            per_level[r.flexibility - 1].append((-w, row, w))
        for bucket in per_level:
            bucket.sort()
        summary = SortedReportSummary.presorted(
            tuple(tuple(item[2] for item in b) for b in per_level))
        return summary, [[item[1] for item in b] for b in per_level]

    def allocate(self, t: int, reports: Sequence[Report], y: Sequence[int]) -> AllocationResult:
        """Optimal allocation matrix for one period."""
        if not 1 <= t <= self.cfg.horizon:
            raise ValueError(f"period {t} outside 1..{self.cfg.horizon}")
        y = tuple(y)
        k = self.cfg.varieties
        if any(not 1 <= r.flexibility <= k for r in reports):
            raise ValueError(f"flexibility levels must lie in 1..{k}")
        if y not in self.tables.values[t]:
            raise TableMismatch(f"supply vector {y} is not a reachable state at t={t}")
        key = (t, y, tuple(reports))
        got = self._alloc_memo.get(key)
        if got is not None:
            return got

        if len(self._alloc_memo) > 500_000:
            self._alloc_memo.clear()
        summary, ranked = self._ranked_rows(t, reports)
        res = stage_value(t, summary, y, self.tables.continuation_fn(t))
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
        y, others = tuple(y), tuple(others)
        n = len(others) + 1
        probe_index = n if probe_index is None else probe_index
        if not 1 <= probe_index <= n:
            raise ValueError(f"probe slot must lie in 1..{n}")
        key = (t, y, j, probe_index, others)
        if key in self._threshold_memo:
            return self._threshold_memo[key]

        try:
            reserve = reserve_price(self.cfg, t, j)
        except NoNonnegativePoint:
            return NOT_SERVED
        grid = self.cfg.grid
        reserve_idx = grid.index_of(reserve)

        before, after = others[:probe_index - 1], others[probe_index - 1:]
        result = NOT_SERVED
        for idx in range(reserve_idx, grid.size):
            reports = (*before, Report(float(grid.points[idx]), j), *after)
            if self.allocate(t, reports, y).matrix[probe_index - 1].any():
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
                f"consumer {row + 1} is served but wins at no grid point"
            )
        if tau > r.valuation + 1e-12:
            raise InconsistentAllocation(
                f"critical value {tau} exceeds the served report {r.valuation}"
            )
        return float(tau)

    def _evaluate_probe(self, t, y, others_pairs, i, report) -> tuple[int, float]:
        """(served indicator, payment) for the probe at slot i among n consumers."""
        pairs = list(others_pairs)
        pairs.insert(i - 1, report)
        reports = make_reports(pairs)
        if not self.allocate(t, reports, y).matrix[i - 1].any():
            return 0, 0.0
        return 1, self._critical_value(t, reports, i - 1, y)

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
        left = tuple(a - b for a, b in zip(y, alloc.v_star))
        if any(c < 0 for c in left):
            raise NegativeSupply(f"allocation spent {alloc.v_star} from supply {y}")
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
        if not 1 <= t <= self.cfg.horizon:
            raise ValueError(f"period {t} outside 1..{self.cfg.horizon}")
        y = self.sample_supply_arrivals(rng, 1)
        for s in range(1, t):
            n = self.sample_arrival_count(rng, s)
            reports = make_reports([self.sample_type(rng, s) for _ in range(n)])
            spent = self.allocate(s, reports, y).v_star
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
