"""Market primitives: valuation grid (bounds and size; points derived),
distributions, virtual valuations, canonical serialization, the fingerprint
(hashed from the serialization's small part as JSON and its type tables as
float64 bytes), regularity, the per-period samplers, the seeded replication
streams they read, and the draw plans of the batch sites.

A `DrawPlan` writes down once the order in which one replication of a batch
(an episode, or the environment a period-t probe meets) draws. A batch reads
each block of rows of `uniform_blocks` by columns, one `np.searchsorted` per
draw over every row, into histories: flat tuples of decoded ints. A Monte
Carlo layer reads its states' rows a block at a time too
(`PeriodSampler.rank_keys`). One stream reads per call instead, one uniform
per draw through `PeriodSampler`: a standalone episode and
`Mechanism.sample_supply_state`. Either way the same uniforms give the same
draws.

The market sells k varieties of durable goods over a finite horizon T.
A consumer of flexibility level b accepts any variety in 1..b and reports a
valuation drawn from a level-conditional density. All quantities here are
tabulated on a uniform valuation grid; virtual valuations are computed from
the continuous pdf/CDF sampled at the grid points, while sampling and exact
expectations use a midpoint-binned PMF that preserves normalization.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .errors import (
    MalformedConfig,
    NoNonnegativePoint,
    NoSolution,
    OffGridValue,
)

PMF_TOL = 1e-9        # distribution normalization
CDF_END_TOL = 1e-6    # CDF must start at 0 and reach 1 on the grid
MONO_SLACK = 1e-12    # monotonicity slack separating modeling error from fp noise
MAX_FLOATS = np.iinfo(np.intp).max // 8   # the most float64s numpy can shape into one array


def _index(value: int, count: int, name: str) -> int:
    """value - 1 for a 1-based `name` (period, variety) in 1..count; ValueError
    otherwise, never a wrapped or out-of-range tuple index."""
    if not 1 <= value <= count:
        raise ValueError(f"{name} {value} outside 1..{count}")
    return value - 1


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ValuationGrid:
    """Uniform grid of `size` valuation points from `theta_min` to `theta_max`,
    both included: the three numbers the fingerprint hashes; `points` is derived."""

    theta_min: float
    theta_max: float
    size: int

    @classmethod
    def uniform(cls, theta_min: float, theta_max: float, size: int) -> "ValuationGrid":
        if size < 2:
            raise MalformedConfig(f"grid needs at least 2 points, got {size}")
        if not theta_min < theta_max:
            raise MalformedConfig(f"grid bounds out of order: [{theta_min}, {theta_max}]")
        return cls(float(theta_min), float(theta_max), operator.index(size))

    @cached_property
    def points(self) -> np.ndarray:
        """The grid points, ``np.linspace(theta_min, theta_max, size)``, read-only."""
        return _readonly(np.linspace(self.theta_min, self.theta_max, self.size))

    @property
    def step(self) -> float:
        return (self.theta_max - self.theta_min) / (self.size - 1)

    @cached_property
    def point_list(self) -> list:
        """`points` as Python floats, for scalar code that would otherwise index numpy."""
        return self.points.tolist()

    def _nearest(self, x: float) -> int:
        """Index of the grid point nearest x, clamped to the grid; ties round
        half to even, as `np.rint` does."""
        pos = (x - self.theta_min) / self.step
        if pos != pos:  # NaN
            raise OffGridValue(f"{x} is not a grid point")
        return round(min(max(pos, 0.0), self.size - 1.0))

    def index_of(self, x: float) -> int:
        """Index of grid point x; raises OffGridValue for values not on the grid."""
        i = self._nearest(x)
        p = self.point_list[i]
        if abs(p - x) > 1e-9 * max(1.0, abs(self.step)):
            raise OffGridValue(f"{x} is not a grid point (nearest: {p})")
        return i

    def snap(self, x: float) -> float:
        """Nearest grid value to x (clamped to the grid range); NaN raises OffGridValue."""
        return self.point_list[self._nearest(x)]

@dataclass(frozen=True)
class TypeDistribution:
    """Per-period type model: level PMF plus level-conditional valuation tables.

    Arrays are indexed ``[t-1, level-1, grid_index]`` (``flex_pmf`` drops the
    grid axis). ``binned_pmf`` is the induced grid PMF: CDF mass between cell
    midpoints, with the endpoint cells absorbing their outer half-cells, so
    each row telescopes to ``cdf[..., -1] - cdf[..., 0]``.
    """

    flex_pmf: np.ndarray   # (T, k)
    pdf: np.ndarray        # (T, k, G)
    cdf: np.ndarray        # (T, k, G)

    @classmethod
    def from_tables(cls, flex_pmf, pdf, cdf) -> "TypeDistribution":
        """Wrap tabulated pdf/CDF arrays; nothing is derived until it is read."""
        return cls(flex_pmf=_readonly(flex_pmf), pdf=_readonly(pdf), cdf=_readonly(cdf))

    @cached_property
    def binned_pmf(self) -> np.ndarray:  # (T, k, G)
        """Always derived from the tabulated CDF (midpoints by linear
        interpolation), so configs with identical tables behave identically
        no matter how they were constructed."""
        cdf = self.cdf
        mid = (cdf[..., :-1] + cdf[..., 1:]) / 2.0
        binned = np.empty_like(cdf)
        binned[..., 0] = mid[..., 0] - cdf[..., 0]
        binned[..., 1:-1] = mid[..., 1:] - mid[..., :-1]
        binned[..., -1] = cdf[..., -1] - mid[..., -1]
        return _readonly(binned)


@dataclass(frozen=True)
class ArrivalDistribution:
    """Per-period PMF of the consumer arrival count over {0..n_max}."""

    pmfs: tuple  # tuple of (n_max+1,) arrays, one per period

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[float]]) -> "ArrivalDistribution":
        return cls(pmfs=tuple(_readonly(r) for r in rows))

    @property
    def n_max(self) -> int:
        return max(len(p) - 1 for p in self.pmfs)

    def pmf(self, t: int) -> np.ndarray:
        return self.pmfs[_index(t, len(self.pmfs), "period")]


@dataclass(frozen=True)
class SupplyDistribution:
    """Per-period, per-variety PMF of arriving goods over {0..x_max}."""

    pmfs: tuple  # pmfs[t-1][j-1] -> array over {0..x_max_tj}

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[Sequence[float]]]) -> "SupplyDistribution":
        return cls(pmfs=tuple(tuple(_readonly(p) for p in row) for row in rows))

    def pmf(self, t: int, j: int) -> np.ndarray:
        row = self.pmfs[_index(t, len(self.pmfs), "period")]
        return row[_index(j, len(row), "variety")]

    def outcomes(self, t: int) -> tuple:
        """Joint arrival outcomes (prob, x) of period t in lexicographic order,
        zero-probability outcomes skipped."""
        return self._outcomes_by_period[_index(t, len(self.pmfs), "period")]

    @cached_property
    def _outcomes_by_period(self) -> tuple:
        out = []
        for row in self.pmfs:
            joint = ((math.prod(pmf[x] for pmf, x in zip(row, xs)), xs)
                     for xs in itertools.product(*(range(len(p)) for p in row)))
            out.append(tuple((p, xs) for p, xs in joint if p > 0.0))
        return tuple(out)

    def x_max(self, t: int, j: int) -> int:
        return len(self.pmf(t, j)) - 1

    def cumulative_max(self, t: int, j: int) -> int:
        """Largest possible unallocated stock of variety j at time t."""
        _index(t, len(self.pmfs), "period")
        return sum(self.x_max(s, j) for s in range(1, t + 1))


@dataclass(frozen=True, eq=False)
class MarketConfig:
    """Full stochastic description of one market instance; configs compare
    and hash by their fingerprint."""

    horizon: int
    varieties: int
    grid: ValuationGrid
    types: TypeDistribution
    arrivals: ArrivalDistribution
    supply: SupplyDistribution

    @cached_property
    def virtual_values(self) -> tuple:
        """w[t-1][b-1][i] = x_i - (1 - CDF) / pdf, with w = x exactly where
        CDF = 1, as nested tuples of Python floats."""
        one_minus = 1.0 - self.types.cdf
        with np.errstate(divide="ignore", invalid="ignore"):
            w = self.grid.points - one_minus / self.types.pdf
        w = np.where(one_minus == 0.0, self.grid.points, w)
        return tuple(tuple(map(tuple, rows)) for rows in w.tolist())

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256, computed once per config, of the compact, key-sorted JSON
        of `canonical_dict` less its type tables, then the little-endian
        float64 bytes of `flex_pmf`, `pdf` and `cdf`. The JSON closes with
        its own brace and fixes the tables' shapes, so the bytes decode one
        way only; shortest-repr JSON round-trips every finite float, so two
        configs share a fingerprint exactly when their canonical
        serializations are equal."""
        head = json.dumps(_head_dict(self), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(head.encode("utf-8"))
        for table in (self.types.flex_pmf, self.types.pdf, self.types.cdf):
            digest.update(table.astype("<f8", copy=False).tobytes())
        return digest.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarketConfig):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def virtual_value_row(self, t: int, b: int) -> tuple:
        """Level b's virtual valuations at period t, both indices 1-based and checked."""
        if not 1 <= b <= self.varieties:
            raise OffGridValue(f"flexibility level {b} outside 1..{self.varieties}")
        return self.virtual_values[_index(t, self.horizon, "period")][b - 1]

    def consumer_atoms(self, t: int) -> tuple:
        """Positive-probability consumer types (level, grid_index, prob, w) of
        period t in (level, grid index) order."""
        return self._atoms_by_period[_index(t, self.horizon, "period")]

    def sampler(self, t: int) -> "PeriodSampler":
        """Seeded draws of period t's arrival count, consumer types and supply."""
        return self._samplers_by_period[_index(t, self.horizon, "period")]

    @cached_property
    def _atoms_by_period(self) -> tuple:
        out = []
        for t in range(self.horizon):
            atoms = []
            for b in range(self.varieties):
                g = float(self.types.flex_pmf[t, b])
                if g == 0.0:
                    continue
                pmf = self.types.binned_pmf[t, b]
                w_row = self.virtual_values[t][b]
                for i in range(self.grid.size):
                    p = g * float(pmf[i])
                    if p > 0.0:
                        atoms.append((b + 1, i, p, w_row[i]))
            out.append(tuple(atoms))
        return tuple(out)

    @cached_property
    def _samplers_by_period(self) -> tuple:
        return tuple(PeriodSampler(self, t) for t in range(1, self.horizon + 1))


def canonical_dict(cfg: MarketConfig) -> dict[str, Any]:
    """Fully tabulated, order-stable dict representation of a config.

    Type distributions are always tabulated, so a family-built config and its
    tabulated equivalent share one fingerprint (which hashes the tables'
    bytes, not this dict's lists of them).
    """
    return {
        **_head_dict(cfg),
        "types": {
            "flexibility": cfg.types.flex_pmf.tolist(),
            "pdf": cfg.types.pdf.tolist(),
            "cdf": cfg.types.cdf.tolist(),
        },
    }


def _head_dict(cfg: MarketConfig) -> dict[str, Any]:
    """`canonical_dict` less its type tables: horizon, varieties, grid, and
    the arrival and supply PMFs."""
    return {
        "horizon": cfg.horizon,
        "varieties": cfg.varieties,
        "grid": {
            "min": cfg.grid.theta_min,
            "max": cfg.grid.theta_max,
            "points": cfg.grid.size,
        },
        "arrivals": [list(map(float, cfg.arrivals.pmf(t))) for t in range(1, cfg.horizon + 1)],
        "supply": [
            [list(map(float, cfg.supply.pmf(t, j))) for j in range(1, cfg.varieties + 1)]
            for t in range(1, cfg.horizon + 1)
        ],
    }


class PeriodSampler:
    """Inverse-CDF draws for one period, on CDFs tabulated once per config.

    Each draw reads one uniform from `u`, a zero-argument callable returning
    the next uniform of a stream (``rng.random`` of a Generator, or
    ``iter(row).__next__`` of a row of `uniform_blocks` as a list), in call
    order: an arrival count one, a consumer two (its level, then its grid
    index), a supply vector one per variety. So one report set takes at most
    ``1 + 2 * n_max`` uniforms, and a stream read through these methods
    gives the same draws whichever way it is held. The CDFs are held as
    lists of the very floats `np.cumsum` gives, so a `bisect` over them
    picks the index `np.searchsorted` would, without a numpy call per draw.
    `rank_keys` and `DrawPlan.read_block` make the same draws off whole
    blocks of rows, searching `cuts`, arrays made from those lists: the
    lists are the one source of each CDF.
    """

    __slots__ = ("arrivals", "levels", "values", "supply", "_cuts")

    def __init__(self, cfg: MarketConfig, t: int):
        self.arrivals = np.cumsum(cfg.arrivals.pmf(t)).tolist()
        self.levels = np.cumsum(cfg.types.flex_pmf[t - 1]).tolist()
        self.values = np.cumsum(cfg.types.binned_pmf[t - 1], axis=1).tolist()
        self.supply = tuple(np.cumsum(pmf).tolist() for pmf in cfg.supply.pmfs[t - 1])
        self._cuts = None

    @property
    def cuts(self) -> tuple:
        """The arrival, level, (k, G) value and per-variety supply CDFs short
        of their last entry, as arrays for `_draw_column`, made from the
        lists at the first read (about 54 us at k=2, G=1001) and kept."""
        if self._cuts is None:
            self._cuts = (np.array(self.arrivals[:-1]), np.array(self.levels[:-1]),
                          np.array(self.values)[:, :-1], [np.array(cum[:-1]) for cum in self.supply])
        return self._cuts

    @property
    def n_max(self) -> int:
        """The largest arrival count a draw can give."""
        return len(self.arrivals) - 1

    def arrival_count(self, u) -> int:
        return _draw(self.arrivals, u())

    def consumer(self, u) -> tuple[int, int]:
        """(level, grid index) of one consumer."""
        b = _draw(self.levels, u())
        return b + 1, _draw(self.values[b], u())

    def supply_arrivals(self, u) -> tuple:
        return tuple(_draw(cum, u()) for cum in self.supply)

    def rank_keys(self, prefix: Sequence[int], rows: int, samples: int, rank: list):
        """Each of rows 0..rows-1 of `uniform_blocks` (`prefix`,
        ``samples * (1 + 2 * n_max)`` uniforms wide) read as `samples`
        report sets, yielded as a list of `samples` keys. A set is drawn as
        `arrival_count` and that many `consumer` calls would draw it off the
        row in order; its key is the ascending tuple of its consumers'
        ``rank[level - 1][grid index]``, where `rank` is a (k, G) list of
        ints and a cell ranked -1 is left out.

        A block is decoded at once, without a call per uniform: one
        `_draw_column` over the block gives the arrival count every
        position would draw; a chase per row over those ints finds each
        set's count and consumers; then one search decodes the consumers'
        levels and one per level their grid indices. Each set's ranks are
        then sorted in one numpy sort over the block, keyed by set first.
        """
        table = np.array(rank, dtype=np.int64)
        for block in uniform_blocks(prefix, rows, samples * (1 + 2 * self.n_max)):
            keys = self._block_keys(block, samples, table)
            for r in range(len(block)):
                yield keys[r * samples:(r + 1) * samples]

    def _block_keys(self, block: np.ndarray, samples: int, table: np.ndarray) -> list:
        """The key of every report set of `block`, row by row (see
        `rank_keys`); `table` is the rank table as an array. Its temporaries
        go when it returns, before any key is handed out."""
        arrivals, levels, values, _supply = self.cuts
        width = block.shape[1]
        consumers = array("q")   # flat position of each consumer's level uniform
        sizes: list = []         # arrival count of each set
        for r, counts in enumerate(_draw_column(arrivals, block)):
            counts = counts.tolist()
            base, p = r * width, 0
            for _ in range(samples):
                n = counts[p]
                sizes.append(n)
                if n:
                    consumers.extend(range(base + p + 1, base + p + 2 * n, 2))
                p += 1 + 2 * n
        flat = block.ravel()
        at = np.array(consumers, dtype=np.intp)
        level = _draw_column(levels, flat[at])
        index = np.empty_like(level)
        for b, cut in enumerate(values):
            pick = np.flatnonzero(level == b)
            index[pick] = _draw_column(cut, flat[at[pick] + 1])
        codes = table[level, index]
        kept = codes >= 0
        owner = np.repeat(np.arange(len(sizes)), sizes)[kept]
        spread = table.size   # above every rank, so owner * spread + rank sorts by set
        ordered = (np.sort(owner * spread + codes[kept]) - owner * spread).tolist()
        ends = np.cumsum(np.bincount(owner, minlength=len(sizes))).tolist()
        return list(map(tuple, map(ordered.__getitem__, map(slice, [0, *ends[:-1]], ends))))


def _draw(cum: list, u: float) -> int:
    """Index of the first CDF entry above the uniform `u`, clamped to the
    support: the search stops short of the last entry, so a `u` at or above
    it (a CDF that rounds to just below 1) draws the last index."""
    return bisect_right(cum, u, 0, len(cum) - 1)


def _draw_column(cut: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`_draw` of every uniform in `u`, where `cut` is the CDF short of its
    last entry: the index `_draw`'s bounded `bisect_right` picks."""
    return np.searchsorted(cut, u, side="right")


class DrawPlan:
    """The order in which one replication of a batch site draws, and the
    two ways to read it off uniforms.

    A step is ``("supply", s, None)``, period s's supply arrivals (one draw
    per variety), or ``("consumers", s, m)``, m consumers of period s (a
    level, then a grid index, each), where m None draws an arrival count
    first and then that many. `width`, the most uniforms a replication can
    take, follows from the steps. A replication's *history* is the flat
    tuple of its decoded ints in draw order: supply counts, arrival counts,
    and (level, grid index) per consumer. `read` draws one history per call
    through `PeriodSampler`; `read_block` decodes a whole block of rows of
    `uniform_blocks` one step at a time, a column per draw, with every
    row's position in its own row held in an array. Both give the same
    history from the same uniforms.
    """

    __slots__ = ("cfg", "steps", "width")

    def __init__(self, cfg: MarketConfig, steps: Sequence[tuple]):
        self.cfg = cfg
        self.steps = tuple(steps)
        k = cfg.varieties
        self.width = sum(k if kind == "supply" else
                         1 + 2 * cfg.sampler(s).n_max if m is None else 2 * m
                         for kind, s, m in self.steps)

    def read(self, u) -> tuple:
        """One history, drawn per call off `u`, a zero-argument callable
        returning the next uniform."""
        out: list = []
        for kind, s, m in self.steps:
            sampler = self.cfg.sampler(s)
            if kind == "supply":
                out += sampler.supply_arrivals(u)
                continue
            if m is None:
                m = sampler.arrival_count(u)
                out.append(m)
            for _ in range(m):
                out += sampler.consumer(u)
        return tuple(out)

    def read_block(self, block: np.ndarray) -> list:
        """The history of every row of the (rows, width) uniform `block`,
        each the tuple `read` gives on that row."""
        rows = np.arange(len(block))
        out = np.zeros(block.shape, dtype=np.int64)
        pos = np.zeros(len(block), dtype=np.intp)
        for kind, s, m in self.steps:
            sampler = self.cfg.sampler(s)
            arrivals, levels, values, supply = sampler.cuts
            if kind == "supply":
                for cut in supply:
                    out[rows, pos] = _draw_column(cut, block[rows, pos])
                    pos += 1
                continue
            if m is None:
                count = out[rows, pos] = _draw_column(arrivals, block[rows, pos])
                pos += 1
                m = sampler.n_max
            else:
                count = np.full(len(block), m)
            for i in range(m):
                live = rows[count > i]
                at = pos[live]
                level = _draw_column(levels, block[live, at])
                out[live, at] = level + 1
                at += 1
                for b, cut in enumerate(values):
                    pick = level == b
                    out[live[pick], at[pick]] = _draw_column(cut, block[live[pick], at[pick]])
                pos[live] += 2
        return [tuple(row[:n]) for row, n in zip(out.tolist(), pos.tolist())]

    def replicate(self, prefix: Sequence[int], count: int, derive):
        """``derive(history)`` of replications 0..count-1, read by columns
        off `uniform_blocks` (row r is replication r's stream). Within a
        block each distinct history is derived once, and a repeat yields
        the very object its first draw gave."""
        for block in uniform_blocks(prefix, count, self.width):
            derived: dict = {}
            for history in self.read_block(block):
                got = derived.get(history)
                if got is None:
                    got = derived[history] = derive(history)
                yield got


def _periods_before(t: int) -> list:
    """The steps that fix the supply state of period t: period 1's supply,
    then per period s < t its arrivals and period s + 1's supply."""
    steps = [("supply", 1, None)]
    for s in range(1, t):
        steps += [("consumers", s, None), ("supply", s + 1, None)]
    return steps


def episode_plan(cfg: MarketConfig) -> DrawPlan:
    """An episode: the draws before the last period, then its arrivals."""
    return DrawPlan(cfg, _periods_before(cfg.horizon) + [("consumers", cfg.horizon, None)])


def environment_plan(cfg: MarketConfig, t: int, n_t: int) -> DrawPlan:
    """What a period-t probe among n_t arrivals meets: the draws an episode
    makes before period t, then the n_t - 1 other consumers of period t."""
    return DrawPlan(cfg, _periods_before(t) + [("consumers", t, n_t - 1)])


_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MAX_REPLICATIONS = 1 << 32   # a replication index is one 32-bit SeedSequence word
# Rows per numpy pass: at most _SEED_BLOCK, and at most _BLOCK_FLOATS uniforms
# (2 MB) in all, so a block and its temporaries stay small at any count and
# any width; a row wider than that is a block of its own.
_SEED_BLOCK = 4096
_BLOCK_FLOATS = 1 << 18


def _seed_states(words: list, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(words + [r]).generate_state(4, uint64)`` for every r
    in start..stop-1, as one (stop - start, 4) array: numpy's pool mixing,
    word for word, on uint32 arrays (which wrap silently), one lane per r.
    The hex constants are numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R,
    INIT_B and MULT_B, in order of use."""
    entropy = [np.full(stop - start, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    entropy += [np.zeros(stop - start, dtype=np.uint32)] * (4 - len(entropy))
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * 0xCA01F9DD - y * 0x4973F715
        return result ^ result >> 16

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    state = np.empty((stop - start, 8), dtype=np.uint32)
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const
        state[:, i] = value ^ value >> 16
    return state.astype("<u4", copy=False).view("<u8")


_U32 = np.uint64(_MASK32)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LO_HI32, _MULT_LO_LO32 = _MULT_LO >> np.uint64(32), _MULT_LO & _U32


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """PCG64's 128-bit LCG step ``state * MULT + inc`` on (hi, lo) uint64
    arrays, which wrap silently; the high word of ``lo * MULT_LO`` is put
    together from 32-bit limbs."""
    lo_lo, lo_hi = lo & _U32, lo >> np.uint64(32)
    cross_a, cross_b = lo_hi * _MULT_LO_LO32, lo_lo * _MULT_LO_HI32
    mid = (lo_lo * _MULT_LO_LO32 >> np.uint64(32)) + (cross_a & _U32) + (cross_b & _U32)
    carry_hi = (lo_hi * _MULT_LO_HI32 + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
                + (mid >> np.uint64(32)))
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_uniform(hi, lo):
    """``random()`` of PCG64 states that have just stepped: the XSL-RR
    output (high word xor low word, rotated right by the top 6 bits), then
    its top 53 bits times 2**-53."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = x >> rot | x << (-rot & np.uint64(63))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _vectorized_fill(hi, lo, inc_hi, inc_lo, width: int) -> np.ndarray:
    """(rows, width) uniforms, every row's PCG64 stepped together."""
    block = np.empty((width, len(lo)))
    for j in range(width):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        block[j] = _pcg64_uniform(hi, lo)
    return block.T


def _row_fill(rng, hi, lo, inc_hi, inc_lo, width: int) -> np.ndarray:
    """(rows, width) uniforms made row by row: each row's PCG64 state set on
    `rng`, then ``rng.random(width)``."""
    bit_generator = rng.bit_generator
    block = np.empty((len(lo), width))
    states = zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(block, states):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
        rng.random(out=row)
    return block


def _vectorize(rows: int, width: int) -> bool:
    """Whether stepping a block's rows together beats filling them one by
    one, by measured costs: a column of the first takes about 45 us plus
    0.05 us a row, a row of the second about 6.5 us."""
    return width * (45 + 0.05 * rows) < 6.5 * rows


def uniform_blocks(prefix: Sequence[int], count: int, width: int):
    """Rows 0..count-1 of uniforms, as (rows, width) arrays of at most
    `_SEED_BLOCK` rows and `_BLOCK_FLOATS` uniforms each (one row, where a
    row alone is wider): row r is
    ``default_rng(SeedSequence([*prefix, r])).random(width)`` bit for bit,
    so replication r of a batch reads its own stream.

    SeedSequence's pool mixing and ``generate_state(4, uint64)`` run on
    uint32 arrays across a block's rows (`_seed_states`), and so does PCG64's
    seeding (``inc = seq << 1 | 1``, then ``state = inc``, plus the seed,
    stepped once), on (hi, lo) uint64 pairs. The block is then filled one of
    two ways, by its shape (`_vectorize`): narrow blocks step every row's
    PCG64 together (`_pcg64_step`, `_pcg64_uniform`); wider rows set each
    row's state on one reused Generator and call ``random``. Measured per
    block on a 2-vCPU VM (Python 3.11, numpy 2.4), together against row by
    row: 2000 x 10 took 2.9 against 14.7 ms and 4096 x 100 25.6 against
    39.1 ms; 100 x 12 and 100 x 13 were even (1.1 ms); 343 x 140 took 10.4
    against 4.1 ms and 27 x 140 7.7 against 0.7 ms. So episode and audit
    rows of a few varieties and arrivals (7-24 wide) step together in
    batches of a few hundred replications or more, and Monte Carlo rows of
    20 samples (140 wide at n_max 3) are filled row by row.

    ``SeedSequence([*prefix, 0])`` is built once per batch: it raises
    numpy's own error for a bad key, and row 0 must equal its stream's
    first `width` uniforms, or RuntimeError is raised (a slip in the
    arithmetic here, or a numpy whose PCG64 draws differently). Blocks are
    handed out one by one, so a batch of any count and width holds one
    block at most, and a row's uniforms do not depend on the block it is in.
    """
    if count <= 0:
        return
    if count > MAX_REPLICATIONS:
        raise ValueError(f"a batch holds at most {MAX_REPLICATIONS} replications, got {count}")
    check = np.random.SeedSequence([*prefix, 0])
    # entropy words, as SeedSequence splits each key: 32 bits at a time, low first
    words = [int(key) >> s & _MASK32 for key in prefix
             for s in range(0, max(int(key).bit_length(), 1), 32)]
    rng = np.random.default_rng(check)
    first = rng.random(width).tolist()
    step = min(_SEED_BLOCK, max(1, _BLOCK_FLOATS // max(width, 1)))
    for start in range(0, count, step):
        s_hi, s_lo, seq_hi, seq_lo = _seed_states(words, start, min(count, start + step)).T
        inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
        inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
        lo = inc_lo + s_lo
        hi, lo = _pcg64_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
        if _vectorize(len(lo), width):
            block = _vectorized_fill(hi, lo, inc_hi, inc_lo, width)
        else:
            block = _row_fill(rng, hi, lo, inc_hi, inc_lo, width)
        if start == 0 and block[0].tolist() != first:
            raise RuntimeError(f"bulk stream of {[*prefix, 0]} differs from SeedSequence")
        yield block


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def virtual_valuation(cfg: MarketConfig, t: int, x: float, b: int) -> float:
    """Virtual valuation of a type-(x, b) report at time t; x must be on the grid."""
    return cfg.virtual_value_row(t, b)[cfg.grid.index_of(x)]


def _first_reaching(row: tuple, target: float) -> int | None:
    """Index of the first virtual value in `row` with w >= target, or None."""
    return next((i for i, w in enumerate(row) if w >= target), None)


def reserve_price(cfg: MarketConfig, t: int, j: int) -> float:
    """Smallest grid point whose virtual valuation is non-negative for level j at t."""
    i = _first_reaching(cfg.virtual_value_row(t, j), 0.0)
    if i is None:
        raise NoNonnegativePoint(f"virtual valuation negative on the whole grid (t={t}, j={j})")
    return cfg.grid.point_list[i]


def inverse_virtual(cfg: MarketConfig, t: int, value: float, j: int) -> float:
    """Smallest grid point whose virtual valuation reaches `value` for level j at t."""
    i = _first_reaching(cfg.virtual_value_row(t, j), value)
    if i is None:
        raise NoSolution(f"no grid point reaches virtual valuation {value} (t={t}, j={j})")
    return cfg.grid.point_list[i]


def build_example_config(
    alpha: Sequence[float],
    p: float,
    horizon: int = 2,
    grid_size: int = 1001,
) -> MarketConfig:
    """Truncated-exponential worked instance.

    Bernoulli(p) arrivals each period, uniform flexibility over the k levels,
    and level-j valuations truncated-exponential with rate alpha_j on [0, 1]
    (see `truncated_exponential`). One good of each variety arrives
    deterministically in period 1 and none afterwards.
    """
    if any(a2 <= a1 for a1, a2 in zip(alpha, alpha[1:])):
        raise MalformedConfig("alpha parameters must be strictly increasing")
    if not 0.0 <= p <= 1.0:
        raise MalformedConfig(f"arrival probability {p} outside [0, 1]")
    if horizon < 1:
        raise MalformedConfig("horizon must be positive")

    k = len(alpha)
    grid = ValuationGrid.uniform(0.0, 1.0, grid_size)
    types = truncated_exponential(alpha, grid, horizon)
    arrivals = ArrivalDistribution.from_lists([[1.0 - p, p]] * horizon)
    supply = SupplyDistribution.from_lists(
        [[[0.0, 1.0]] * k] + [[[1.0]] * k] * (horizon - 1)
    )
    return MarketConfig(
        horizon=horizon,
        varieties=k,
        grid=grid,
        types=types,
        arrivals=arrivals,
        supply=supply,
    )


def truncated_exponential(
    alpha: Sequence[float],
    grid: ValuationGrid,
    horizon: int,
    flex_pmf=None,
) -> TypeDistribution:
    """Level-b valuations with density a_b exp(-a_b z) / (1 - exp(-a_b)) in
    z = (x - theta_min) / (theta_max - theta_min), tabulated on the grid.

    Flexibility levels are uniform unless `flex_pmf` (shape (T, k)) is given.
    """
    alpha = [float(a) for a in alpha]
    if not all(0 < a < math.inf for a in alpha):
        raise MalformedConfig("alpha parameters must be positive and finite")
    k = len(alpha)
    if flex_pmf is None:
        flex_pmf = np.full((horizon, k), 1.0 / k)
    lo, span = grid.theta_min, grid.theta_max - grid.theta_min
    z = (grid.points - lo) / span
    pdf = np.empty((horizon, k, grid.size))
    cdf = np.empty_like(pdf)
    for b, a in enumerate(alpha):
        mass = 1.0 - math.exp(-a)
        if mass == 0.0:
            raise MalformedConfig(f"alpha rate {a!r} is too small to tabulate: "
                                  "1 - exp(-alpha) rounds to 0")
        pdf[:, b] = a * np.exp(-a * z) / mass / span
        cdf[:, b] = (1.0 - np.exp(-a * z)) / mass
    return TypeDistribution.from_tables(flex_pmf, pdf, cdf)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityViolation:
    kind: str          # "hazard_in_x" | "hazard_in_level" | "hazard_strict_cross" | "w_min_sign"
    t: int
    level: int
    other_level: int | None = None
    grid_index: int | None = None
    detail: str = ""


@dataclass
class ValidationReport:
    """Outcome of the regularity audit (generalized monotone hazard condition).

    ``hazard[(t, level)]`` holds the hazard rates pdf/(1-CDF) at every grid
    point; violations list every index where the condition fails. The check
    certifies the condition at grid points only; strictness between grid
    points cannot be established numerically.
    """

    hazard: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    notes: tuple = (
        "regularity certified at grid points only; behaviour between grid "
        "points is not checked",
    )

    @property
    def passed(self) -> bool:
        return not self.violations


def check_structure(cfg: MarketConfig) -> None:
    """Raise MalformedConfig for structural defects (PMF sums, grid shape, ...)."""
    g = cfg.grid
    if g.size < 2:
        raise MalformedConfig("valuation grid has fewer than 2 points")
    if not g.theta_min < g.theta_max:
        raise MalformedConfig("grid bounds out of order")
    if not np.all(np.diff(g.points) > 0):   # a span of a few ulps rounds points together
        raise MalformedConfig("grid points not strictly increasing")
    if cfg.horizon < 1 or cfg.varieties < 1:
        raise MalformedConfig("horizon and variety count must be positive")
    # checked before anything below reads a PMF's length
    pmfs = (*cfg.arrivals.pmfs, *itertools.chain(*cfg.supply.pmfs))
    if any(pmf.ndim != 1 or pmf.size == 0 for pmf in pmfs):
        raise MalformedConfig("every arrival and supply PMF must be a non-empty list of numbers")
    # every comparison with NaN is false, so no check below would catch one
    ty = cfg.types
    arrays = (*pmfs, ty.flex_pmf, ty.pdf, ty.cdf)
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise MalformedConfig("config holds a non-finite number (NaN or infinity)")

    T, k = cfg.horizon, cfg.varieties
    if len(cfg.arrivals.pmfs) != T:
        raise MalformedConfig("arrival PMFs must cover every period")
    if cfg.arrivals.n_max < 1:
        raise MalformedConfig("arrival support must allow at least one consumer")
    for t in range(1, T + 1):
        lam = cfg.arrivals.pmf(t)
        if np.any(lam < 0) or abs(float(np.sum(lam)) - 1.0) > PMF_TOL:
            raise MalformedConfig(f"arrival PMF at t={t} does not sum to 1")

    if len(cfg.supply.pmfs) != T or any(len(row) != k for row in cfg.supply.pmfs):
        raise MalformedConfig("supply PMFs must cover every (period, variety)")
    for t in range(1, T + 1):
        for j in range(1, k + 1):
            gam = cfg.supply.pmf(t, j)
            if np.any(gam < 0) or abs(float(np.sum(gam)) - 1.0) > PMF_TOL:
                raise MalformedConfig(f"supply PMF at t={t}, variety {j} does not sum to 1")

    for key, table, shape in (("flexibility", ty.flex_pmf, (T, k)),
                              ("pdf", ty.pdf, (T, k, g.size)), ("cdf", ty.cdf, (T, k, g.size))):
        if table.shape != shape:
            raise MalformedConfig(f"types.{key} has shape {table.shape}, expected {shape} "
                                  "from (horizon, varieties, grid points)")
    for t in range(1, T + 1):
        gt = ty.flex_pmf[t - 1]
        if np.any(gt < 0) or abs(float(np.sum(gt)) - 1.0) > PMF_TOL:
            raise MalformedConfig(f"flexibility PMF at t={t} does not sum to 1")
        for b in range(1, k + 1):
            cdf = ty.cdf[t - 1, b - 1]
            if np.any(np.diff(cdf) < -MONO_SLACK):
                raise MalformedConfig(f"CDF decreasing at t={t}, level {b}")
            if abs(float(cdf[0])) > CDF_END_TOL:
                raise MalformedConfig(f"CDF does not start at 0 at t={t}, level {b}")
            if abs(float(cdf[-1]) - 1.0) > CDF_END_TOL:
                raise MalformedConfig(f"CDF does not reach 1 at t={t}, level {b}")
            if np.any(ty.pdf[t - 1, b - 1, 1:-1] <= 0):
                raise MalformedConfig(f"pdf not positive on grid interior at t={t}, level {b}")


def validate_config(cfg: MarketConfig) -> ValidationReport:
    """Structural check plus the regularity audit of the hazard-rate condition.

    Structural defects raise MalformedConfig. Regularity failures are findings
    reported on the returned object, not errors: flagged are (a) hazard rates
    decreasing along the grid, (b) hazard rates decreasing in the flexibility
    level, (c) non-strict cross-level comparisons where x >= x' and c > c',
    and (d) a non-negative virtual valuation at theta_min.
    """
    check_structure(cfg)
    report = ValidationReport()
    T, k, G = cfg.horizon, cfg.varieties, cfg.grid.size

    for t in range(1, T + 1):
        hz = np.empty((k, G))
        for b in range(1, k + 1):
            pdf = cfg.types.pdf[t - 1, b - 1]
            one_minus = 1.0 - cfg.types.cdf[t - 1, b - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.where(one_minus > 0, pdf / one_minus, np.inf)
            hz[b - 1] = h
            report.hazard[(t, b)] = _readonly(h)

        for b in range(1, k + 1):
            with np.errstate(invalid="ignore"):  # inf - inf where the CDF rounds to 1
                bad = np.flatnonzero(np.diff(hz[b - 1]) < -MONO_SLACK)
            for i in bad:
                report.violations.append(RegularityViolation(
                    kind="hazard_in_x", t=t, level=b, grid_index=int(i) + 1,
                    detail=f"hazard drops from {hz[b - 1][i]:.6g} to {hz[b - 1][i + 1]:.6g}",
                ))
        for b in range(1, k):
            with np.errstate(invalid="ignore"):
                bad = np.flatnonzero(hz[b] - hz[b - 1] < -MONO_SLACK)
            for i in bad:
                report.violations.append(RegularityViolation(
                    kind="hazard_in_level", t=t, level=b + 1, other_level=b,
                    grid_index=int(i),
                    detail=f"hazard({b + 1}) < hazard({b}) at grid index {i}",
                ))
            # strict cross condition: against the running max of the lower level,
            # which covers every x' <= x in one pass; skipped where the lower
            # hazard is already infinite (undecidable at grid resolution)
            lower_running = np.maximum.accumulate(hz[b - 1])
            bad = np.flatnonzero((hz[b] <= lower_running) & np.isfinite(lower_running))
            for i in bad:
                report.violations.append(RegularityViolation(
                    kind="hazard_strict_cross", t=t, level=b + 1, other_level=b,
                    grid_index=int(i),
                    detail="strict hazard dominance fails against lower level",
                ))

        for b in range(1, k + 1):
            w0 = cfg.virtual_values[t - 1][b - 1][0]
            if w0 >= 0:
                report.violations.append(RegularityViolation(
                    kind="w_min_sign", t=t, level=b, grid_index=0,
                    detail=f"virtual valuation at theta_min is {w0:.6g} (must be < 0)",
                ))
    return report
