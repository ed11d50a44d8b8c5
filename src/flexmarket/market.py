"""Market primitives: valuation grid, distributions, virtual valuations,
canonical serialization (and the fingerprint hashed from it), regularity.

The market sells k varieties of durable goods over a finite horizon T.
A consumer of flexibility level b accepts any variety in 1..b and reports a
valuation drawn from a level-conditional density. All quantities here are
tabulated on a uniform valuation grid; virtual valuations are computed from
the continuous pdf/CDF sampled at the grid points, while sampling and exact
expectations use a midpoint-binned PMF that preserves normalization.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
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


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ValuationGrid:
    """Uniform grid of G valuation points with both endpoints included."""

    theta_min: float
    theta_max: float
    points: np.ndarray

    @classmethod
    def uniform(cls, theta_min: float, theta_max: float, size: int) -> "ValuationGrid":
        if size < 2:
            raise MalformedConfig(f"grid needs at least 2 points, got {size}")
        if not theta_min < theta_max:
            raise MalformedConfig(f"grid bounds out of order: [{theta_min}, {theta_max}]")
        pts = np.linspace(theta_min, theta_max, size)
        return cls(theta_min=float(theta_min), theta_max=float(theta_max), points=_readonly(pts))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def step(self) -> float:
        return (self.theta_max - self.theta_min) / (self.size - 1)

    @cached_property
    def point_list(self) -> list:
        """The grid points as Python floats (the same floats `float` reads off
        `points`), for scalar code that would otherwise index numpy per call."""
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
        return self.pmfs[t - 1]


@dataclass(frozen=True)
class SupplyDistribution:
    """Per-period, per-variety PMF of arriving goods over {0..x_max}."""

    pmfs: tuple  # pmfs[t-1][j-1] -> array over {0..x_max_tj}

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[Sequence[float]]]) -> "SupplyDistribution":
        return cls(pmfs=tuple(tuple(_readonly(p) for p in row) for row in rows))

    def pmf(self, t: int, j: int) -> np.ndarray:
        return self.pmfs[t - 1][j - 1]

    def outcomes(self, t: int) -> tuple:
        """Joint arrival outcomes (prob, x) of period t in lexicographic order,
        zero-probability outcomes skipped."""
        return self._outcomes_by_period[t - 1]

    @cached_property
    def _outcomes_by_period(self) -> tuple:
        out = []
        for row in self.pmfs:
            joint = ((math.prod(pmf[x] for pmf, x in zip(row, xs)), xs)
                     for xs in itertools.product(*(range(len(p)) for p in row)))
            out.append(tuple((p, xs) for p, xs in joint if p > 0.0))
        return tuple(out)

    def x_max(self, t: int, j: int) -> int:
        return len(self.pmfs[t - 1][j - 1]) - 1

    def cumulative_max(self, t: int, j: int) -> int:
        """Largest possible unallocated stock of variety j at time t."""
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
        """SHA-256 of the canonical serialization, computed once per config."""
        return hashlib.sha256(canonical_json(self).encode("utf-8")).hexdigest()

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
        if not 1 <= t <= self.horizon:
            raise ValueError(f"period {t} outside 1..{self.horizon}")
        return self.virtual_values[t - 1][b - 1]

    def consumer_atoms(self, t: int) -> tuple:
        """Positive-probability consumer types (level, grid_index, prob, w) of
        period t in (level, grid index) order."""
        return self._atoms_by_period[t - 1]

    def sampler(self, t: int) -> "PeriodSampler":
        """Seeded draws of period t's arrival count, consumer types and supply."""
        return self._samplers_by_period[t - 1]

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
    tabulated equivalent share one fingerprint.
    """
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
        "types": {
            "flexibility": cfg.types.flex_pmf.tolist(),
            "pdf": cfg.types.pdf.tolist(),
            "cdf": cfg.types.cdf.tolist(),
        },
    }


def canonical_json(cfg: MarketConfig) -> str:
    """Compact, key-sorted JSON of `canonical_dict`: what the fingerprint hashes."""
    return json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))


class PeriodSampler:
    """Inverse-CDF draws for one period, on CDFs tabulated once per config.

    Every draw consumes one uniform, in call order: an arrival count one, a
    consumer two (its level, then its grid index), a supply vector one per
    variety. So a seeded generator reproduces the same stream, and
    `report_sets` can read a block of uniforms where the per-call methods
    call ``rng.random()`` once each. The CDFs are held as lists of the very
    floats `np.cumsum` gives, so a `bisect` over them picks the index
    `np.searchsorted` would, without a numpy call per scalar draw.
    """

    __slots__ = ("arrivals", "levels", "values", "supply")

    def __init__(self, cfg: MarketConfig, t: int):
        self.arrivals = np.cumsum(cfg.arrivals.pmf(t)).tolist()
        self.levels = np.cumsum(cfg.types.flex_pmf[t - 1]).tolist()
        self.values = np.cumsum(cfg.types.binned_pmf[t - 1], axis=1).tolist()
        self.supply = tuple(np.cumsum(pmf).tolist() for pmf in cfg.supply.pmfs[t - 1])

    def arrival_count(self, rng) -> int:
        return _draw(self.arrivals, rng.random())

    def consumer(self, rng) -> tuple[int, int]:
        """(level, grid index) of one consumer."""
        b = _draw(self.levels, rng.random()) + 1
        return b, _draw(self.values[b - 1], rng.random())

    def supply_arrivals(self, rng) -> tuple:
        return tuple(_draw(cum, rng.random()) for cum in self.supply)

    def report_sets(self, rng, count: int) -> list:
        """`count` report sets, each a list of consumers' (level, grid index):
        the sets that `count` rounds of `arrival_count`, then that many
        `consumer` calls, draw from `rng`, bit for bit. They are read in that
        order off one ``rng.random(count * (1 + 2 * n_max))`` block, wide
        enough for the largest arrival count n_max in every round, so `rng`
        may end past where the per-call draws would leave it."""
        arrivals, levels, values = self.arrivals, self.levels, self.values
        uniforms = iter(rng.random(count * (2 * len(arrivals) - 1)).tolist())
        sets = []
        for _ in range(count):
            drawn = []
            for _ in range(_draw(arrivals, next(uniforms))):
                b = _draw(levels, next(uniforms))
                drawn.append((b + 1, _draw(values[b], next(uniforms))))
            sets.append(drawn)
        return sets


def _draw(cum: list, u: float) -> int:
    """Index of the first CDF entry above the uniform `u`, clamped to the support."""
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 4096   # replications seeded per numpy pass, so the arrays stay small at any count


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


def substreams(prefix: Sequence[int], count: int):
    """Replications 0..count-1 of a batch: replication r's generator draws
    the stream of ``default_rng(SeedSequence([*prefix, r]))`` bit for bit.

    The batch is seeded in bulk. SeedSequence's entropy-pool mixing and its
    ``generate_state(4, uint64)`` run on numpy arrays over up to
    `_SEED_BLOCK` replications at once (`_seed_states`); per r, PCG64's
    seeding step (``inc = seq << 1 | 1``, then two 128-bit multiply-adds)
    runs in Python ints and the state is set on one reused Generator, which
    is yielded, so read each before taking the next.
    ``SeedSequence([*prefix, 0])`` is built once per batch: it raises numpy's
    own error for a bad key, and its state must equal the bulk row 0.
    """
    if count <= 0:
        return
    if count > 1 << 32:
        raise ValueError("a batch holds at most 2**32 replications")
    check = np.random.SeedSequence([*prefix, 0])
    # entropy words, as SeedSequence splits each key: 32 bits at a time, low first
    words = [int(key) >> s & _MASK32 for key in prefix
             for s in range(0, max(int(key).bit_length(), 1), 32)]
    rng = np.random.default_rng(check)
    bit_generator = rng.bit_generator
    for start in range(0, count, _SEED_BLOCK):
        seeds = _seed_states(words, start, min(count, start + _SEED_BLOCK))
        if start == 0 and check.generate_state(4, np.uint64).tolist() != seeds[0].tolist():
            raise RuntimeError(f"bulk seeding of {[*prefix, 0]} differs from SeedSequence")
        for row in seeds:   # per r: seed high, low, then seq high, low
            s_hi, s_lo, seq_hi, seq_lo = row.tolist()
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": pcg, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


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
    if not np.all(np.diff(g.points) > 0):
        raise MalformedConfig("grid points not strictly increasing")
    if g.points[0] != g.theta_min or g.points[-1] != g.theta_max:
        raise MalformedConfig("grid endpoints do not match declared bounds")
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
