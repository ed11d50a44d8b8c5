"""Online allocation and threshold payments of the optimal mechanism.

Each period the mechanism solves the per-period problem for (u*, v*), lines
the v* goods up in non-decreasing variety order, and walks flexibility levels
1..k giving the top u*^j consumers of level j (by virtual valuation) the next
u*^j goods. An allocation is one variety per report, in arrival order: the
1-based variety the consumer receives, or 0 if unserved (the row encoding
`oracle.enumerate_feasible_matrices` uses). A served consumer pays its
critical value: the highest grid report at or above the reserve price at
which it would still have lost. A report that wins at no grid point has
no critical value: `payment_threshold` answers `NOT_SERVED`, which is None.
The period step spends the stage's v*, which never exceeds the supply:
the stage takes a good only from a variety in stock.

A report is a (valuation, flexibility level) pair, and its 1-based position
in the period's report sequence is its arrival index. Ties between equal
virtual valuations go to the lowest arrival index, so every decision is a
pure function of its inputs. A valuation is read at its grid point, in O(1)
if exact (`ValuationGrid.index_of`). Besides allocation, payment and the period
step, a `Mechanism` samples the market under truthful play: supply arrivals,
consumer types, and the supply state and rival reports a period-t consumer
faces. Each sampler takes `u`, a zero-argument callable returning the next
uniform of a stream, and reads it per call. A batch of environments reads
replication r's stream as row r of `market.uniform_blocks`, a block at a
time by columns (`market.environment_plan`), and plays each distinct draw
history of a block through the mechanism once. Expectations over those
samples (interim quantities, audits, revenue) live in `simulate`.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import add, itemgetter, sub
from typing import NamedTuple, Sequence

from .dp import ValueTables, stage_value
from .errors import InconsistentAllocation, TableMismatch
from .market import MarketConfig, _first_reaching, _index, environment_plan

# Entries the read, allocation and threshold memos may each hold; a memo
# that is full is cleared before its next entry goes in.
MEMO_BOUND = 500_000


# What `payment_threshold` answers when the probe wins at no grid point.
NOT_SERVED = None

# The fields of a `_ranked_rows` item, (-w, row, w).
_ROW, _W = itemgetter(1), itemgetter(2)


class Report(NamedTuple):
    """One consumer's report within a period; its arrival index is its
    1-based position in the period's report sequence."""

    valuation: float
    flexibility: int


def make_reports(pairs: Sequence[tuple]) -> tuple[Report, ...]:
    """Reports from (valuation, flexibility) pairs, in arrival order."""
    return tuple(Report(float(v), int(b)) for v, b in pairs)


class AllocationResult(NamedTuple):
    varieties: tuple       # per report: 1-based variety received, 0 if unserved
    u_star: tuple
    v_star: tuple


class MechanismOutcome(NamedTuple):
    """One period's allocation, payments and supply bookkeeping."""

    varieties: tuple     # per report: 1-based variety received, 0 if unserved
    payments: tuple
    u_star: tuple
    v_star: tuple
    next_supply: tuple   # supply left after allocation, before new arrivals


class Mechanism:
    """Session over one config/table pair with memoized decisions and laws.

    Ties between equal virtual valuations go to the lowest arrival index, so
    allocations and thresholds are pure functions of their inputs and are
    memoized; the critical-value payments rely on this, since the threshold
    scan must reproduce the allocation's knife-edge choices. Four memos, the
    first three each cleared once it holds MEMO_BOUND entries: `_read_memo`,
    each report's (w, grid point) per (t, report), stored only once the
    report has been read off the grid, so a bad report raises every time;
    `_alloc_memo` per (t, y, reports), read before (t, y) is checked and
    holding only checked keys; `_threshold_memo` per (t, y, level, slot,
    others); and `_law_memo`, the tallied environment law per (t, n_t,
    replications, seed), so every audit and interim estimate on one session
    that asks for the same law shares one draw of it. Episode and
    environment loops decode a period's `Report`s once per history.
    """

    def __init__(self, tables: ValueTables):
        self.tables = tables
        self.cfg: MarketConfig = tables.config
        self._read_memo: dict = {}
        self._alloc_memo: dict = {}
        self._threshold_memo: dict = {}
        self._law_memo: dict = {}

    # -- allocation ----------------------------------------------------------

    def _read(self, t: int, report: Report) -> tuple[float, float]:
        """(virtual valuation, grid point) of `report` at period t: the
        level's `virtual_value_row` at the report's grid index. A level
        outside 1..k or a valuation off the grid raises OffGridValue."""
        key = (t, report)
        got = self._read_memo.get(key)
        if got is None:
            w_row = self.cfg.virtual_value_row(t, report.flexibility)
            i = self.cfg.grid.index_of(report.valuation)
            got = (w_row[i], self.cfg.grid.point_list[i])
            if len(self._read_memo) >= MEMO_BOUND:
                self._read_memo.clear()
            self._read_memo[key] = got
        return got

    def _ranked_rows(self, t: int, reports: Sequence[Report]) -> tuple[tuple, list]:
        """Per-level virtual values, best first, plus per-level row order
        (virtual valuation desc, then arrival)."""
        per_level: list[list[tuple]] = [[] for _ in range(self.cfg.varieties)]
        read = self._read
        for row, r in enumerate(reports):
            w = read(t, r)[0]
            per_level[r.flexibility - 1].append((-w, row, w))
        w_sorted, ranked = [], []
        for bucket in per_level:
            if len(bucket) > 1:
                bucket.sort()
            w_sorted.append(tuple(map(_W, bucket)))
            ranked.append(list(map(_ROW, bucket)))
        return tuple(w_sorted), ranked

    def allocate(self, t: int, reports: Sequence[Report], y: Sequence[int]) -> AllocationResult:
        """Optimal allocation for one period: the variety each report receives."""
        y = tuple(y)
        key = (t, y, tuple(reports))
        got = self._alloc_memo.get(key)
        if got is not None:  # only checked keys go in
            return got
        _index(t, self.cfg.horizon, "period")
        if y not in self.tables.values[t]:
            raise TableMismatch(f"supply vector {y} is not a reachable state at t={t}")
        if len(self._alloc_memo) >= MEMO_BOUND:
            self._alloc_memo.clear()
        w_sorted, ranked = self._ranked_rows(t, reports)
        res = stage_value(t, w_sorted, y, self.tables.continuation_fn(t))
        goods = iter([j + 1 for j, v in enumerate(res.v_star) for _ in range(v)])
        varieties = [0] * len(reports)
        for level, rows in enumerate(ranked):
            for row in rows[: res.u_star[level]]:
                varieties[row] = next(goods)
        out = self._alloc_memo[key] = AllocationResult(tuple(varieties), res.u_star, res.v_star)
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
        wins, or whose level has no reserve, gets NOT_SERVED (None).
        """
        y, others = tuple(y), tuple(others)
        n = len(others) + 1
        probe_index = n if probe_index is None else probe_index
        if not 1 <= probe_index <= n:
            raise ValueError(f"probe slot must lie in 1..{n}")
        key = (t, y, j, probe_index, others)
        if key in self._threshold_memo:
            return self._threshold_memo[key]

        points = self.cfg.grid.point_list
        reserve_idx = _first_reaching(self.cfg.virtual_value_row(t, j), 0.0)
        if reserve_idx is None:  # no reserve: the scan is empty
            reserve_idx = len(points)
        before, after = others[:probe_index - 1], others[probe_index - 1:]
        result = NOT_SERVED
        for idx in range(reserve_idx, len(points)):
            reports = (*before, Report(points[idx], j), *after)
            if self.allocate(t, reports, y).varieties[probe_index - 1]:
                result = points[max(idx - 1, reserve_idx)]
                break
        if len(self._threshold_memo) >= MEMO_BOUND:
            self._threshold_memo.clear()
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
        return tuple(self._critical_value(t, reports, row, y) if variety else 0.0
                     for row, variety in enumerate(allocation.varieties))

    def _critical_value(self, t: int, reports: Sequence[Report], row: int, y: Sequence[int]) -> float:
        """Payment of the served consumer at `row`: its threshold against the
        others, which must not exceed the grid point `allocate` read for it."""
        r = reports[row]
        others = [*reports[:row], *reports[row + 1:]]
        tau = self.payment_threshold(t, others, r.flexibility, y, probe_index=row + 1)
        if tau is NOT_SERVED:
            raise InconsistentAllocation(
                f"consumer {row + 1} is served but wins at no grid point"
            )
        if tau > self._read(t, r)[1]:
            raise InconsistentAllocation(
                f"critical value {tau} exceeds the served report {r.valuation}"
            )
        return float(tau)

    def _evaluate_probe(self, t, y, others_pairs, i, report) -> tuple[int, float]:
        """(served indicator, payment) for the probe at slot i among n consumers."""
        pairs = list(others_pairs)
        pairs.insert(i - 1, report)
        reports = make_reports(pairs)
        if not self.allocate(t, reports, y).varieties[i - 1]:
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
        left = tuple(map(sub, y, alloc.v_star))
        outcome = MechanismOutcome(
            varieties=alloc.varieties, payments=pays,
            u_star=alloc.u_star, v_star=alloc.v_star, next_supply=left,
        )
        return outcome, tuple(map(add, left, x_next))

    # -- sampling helpers ------------------------------------------------------

    def sample_arrival_count(self, u, t: int) -> int:
        return self.cfg.sampler(t).arrival_count(u)

    def sample_type(self, u, t: int) -> tuple[float, int]:
        b, i = self.cfg.sampler(t).consumer(u)
        return self.cfg.grid.point_list[i], b

    def sample_supply_arrivals(self, u, t: int) -> tuple:
        return self.cfg.sampler(t).supply_arrivals(u)

    def sample_supply_state(self, u, t: int) -> tuple:
        """Supply vector at period t under truthful play of periods 1..t-1,
        drawn per call off `u` in `market.environment_plan`'s order: per
        period, supply arrivals, then the arrival count, then each
        consumer's (level, valuation)."""
        _index(t, self.cfg.horizon, "period")
        return self._environment(t, environment_plan(self.cfg, t, 1).read(u))[0]

    def _read_types(self, draws, n: int | None = None) -> tuple:
        """The `Report`s of the next n consumers of the history iterator
        `draws`, each held there as (level, grid index); every consumer left
        when n is None."""
        points = self.cfg.grid.point_list
        return tuple([Report(points[i], b) for b, i in islice(zip(draws, draws), n)])

    def _environment(self, t: int, history: tuple) -> tuple:
        """(supply state, other consumers' types) of a period-t probe, from
        one history of `market.environment_plan` at t."""
        k = self.cfg.varieties
        draws = iter(history)
        y = tuple(islice(draws, k))
        for s in range(1, t):
            spent = self.allocate(s, self._read_types(draws, next(draws)), y).v_star
            y = tuple(map(add, map(sub, y, spent), islice(draws, k)))
        return y, self._read_types(draws)

    def sample_environments(self, t: int, n_t: int, replications: int, seed: int):
        """(supply state, other consumers' types) seen by a period-t probe among
        n_t >= 1 arrivals. Replication r reads the stream of
        ``default_rng(SeedSequence([seed, t, r]))``, bit for bit, as row r of
        `market.uniform_blocks`, whose width `market.environment_plan`
        gives: the supply arrivals of period 1, each earlier period's
        arrival count, consumers and next supply, then n_t - 1 consumers.
        Histories are read by columns, and within a block each distinct one
        is played through the mechanism once and yields one environment
        object. Raises ValueError for n_t < 1 or a period outside 1..T
        before any draw."""
        cfg = self.cfg
        if n_t < 1:
            raise ValueError(f"need n_t >= 1 arrivals, got {n_t}")
        _index(t, cfg.horizon, "period")
        yield from environment_plan(cfg, t, n_t).replicate(
            (seed, t), replications, lambda history: self._environment(t, history))

    def environment_law(self, t: int, n_t: int, replications: int, seed: int) -> tuple:
        """The environments of `sample_environments` as (count, environment)
        rows, one per distinct environment in order of first draw.

        The law is a pure function of its arguments and the tables, so it is
        drawn once per session and key and shared by every later caller.
        """
        if replications < 2:
            raise ValueError("need at least 2 replications")
        key = (t, n_t, replications, seed)
        law = self._law_memo.get(key)
        if law is None:
            envs = Counter(self.sample_environments(t, n_t, replications, seed))
            law = self._law_memo[key] = tuple((count, env) for env, count in envs.items())
        return law
