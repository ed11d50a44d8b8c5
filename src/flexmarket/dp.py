"""Finite-horizon dynamic program over supply vectors.

The solver works on the simplified per-period problem: given the multiset of
reports, pick how many consumers of each flexibility level to serve (the
service vector u), spend goods according to the closed-form variety recursion
v*, and add the expected continuation value of the remaining supply. Backward
induction stores, for every period t and supply vector y, the expectation
C_t(y) of the period value over the random report set; the report space never
needs to be enumerated outside one period because reports are independent of
history.

A stage sees the reports only through their *servable summary*, a plain
tuple holding, per level j, the top ``y_1 + ... + y_j`` virtual values, best
first: the most reports of that level any rule can serve from y. Both
backends key a report set one way (`_expected_layer`): clipped to the
servable reports, solved once per state and distinct key, and, when the
next layer's table is non-decreasing in every variety, bit for bit (checked
per layer; the final one is all zeros), without its reports of virtual value
w <= 0, since against a non-decreasing continuation serving one cannot raise
a correctly rounded sum. Exact expectations enumerate ordered consumer
profiles in lexicographic (level, grid index) order, once per period for the
whole layer (the report law does not depend on the supply state), with
compensated accumulation, which makes table values reproducible bit for bit.
Monte Carlo expectations draw each state's report sets from one block of
uniforms on the state's own substream (`PeriodSampler.report_sets`), and
reduce the layer's (states, samples) array of stage values once: one mean and
one standard error per row, the same floats as 1-D numpy calls per state give.
None of these shortcuts moves a bit of any table
(``oracle.reference_expected_stage``, one unmemoised enumeration per state,
is the exact reference). Per-profile sums use ``math.fsum`` (correctly
rounded), so two pipelines that agree on the served multiset and
continuation value produce identical floats.

The stage is solved in the paper's threshold form: starting from serving
nobody, serve one more report at a time, always the level whose next report
adds the most to served virtual surplus plus continuation, and stop when no
report adds anything. A report is served exactly when its virtual value beats
the opportunity cost of the good it takes, the threshold the continuation
values define; ``continuation_gap`` reads that cost from the same memoised
``ValueTables.continuation_fn``. On continuations this DP builds, the result
equals the enumerating argmax over every feasible service vector bit for bit,
tie rule included (``oracle.reference_stage_value`` is that reference).
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleU, OffGridValue, StateSpaceTooLarge, TableMismatch
from .market import MarketConfig, substreams

Vector = tuple  # length-k tuples of non-negative ints (supply / service / variety)

_MAGIC = b"FMTABLE1"
_VERSION = 1
# Ordered report profiles the exact backend may enumerate in one period. It
# holds one period's profile columns at a time, 12 bytes per profile (a
# float64 weight and a uint32 multiset index), so at most 120 MB at this
# default, plus one rank tuple and one shared summary per distinct multiset.
DEFAULT_PROFILE_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# The variety recursion
# ---------------------------------------------------------------------------

def _check_u_supply_feasible(u: Sequence[int], y: Sequence[int]) -> None:
    cum_u = cum_y = 0
    for uj, yj in zip(u, y):
        if uj < 0:
            raise InfeasibleU(f"negative service count in {tuple(u)}")
        cum_u += uj
        cum_y += yj
        if cum_u > cum_y:
            raise InfeasibleU(f"service vector {tuple(u)} exceeds cumulative supply of {tuple(y)}")


def vstar(u: Sequence[int], y: Sequence[int]) -> Vector:
    """Variety recursion: spend high-index varieties first, preserving low ones.

    v*^k = min(u^k, y^k); descending j, v*^j = min(y^j, u^j + carryover),
    where the carryover is the demand from levels above j not yet covered.
    """
    _check_u_supply_feasible(u, y)
    k = len(y)
    v = [0] * k
    carry = 0  # sum of u above j minus sum of v* above j
    for j in range(k - 1, -1, -1):
        v[j] = min(y[j], u[j] + carry)
        carry += u[j] - v[j]
    return tuple(v)


# ---------------------------------------------------------------------------
# Stage optimization
# ---------------------------------------------------------------------------

def summarize(consumers: Iterable[tuple], k: int) -> tuple:
    """Per-level virtual values, best first, from (level, w) pairs in any order:
    the tuple of k non-increasing float tuples a stage rule reads."""
    per_level: list[list[float]] = [[] for _ in range(k)]
    for level, w in consumers:
        per_level[level - 1].append(w)
    for ws in per_level:
        ws.sort(reverse=True)
    return tuple(map(tuple, per_level))


class StageResult(NamedTuple):
    value: float
    u_star: Vector
    v_star: Vector


def stage_value(
    t: int,
    w_sorted: tuple,
    y: Sequence[int],
    cont: Callable[[Vector], float],
) -> StageResult:
    """Maximize served virtual surplus plus continuation over service vectors.

    `w_sorted` holds each level's virtual values, best first (see
    `summarize`). `cont(m)` must give the expected next-period value of
    carrying supply m forward (identically zero in the final period). Ties
    between service vectors go to the lexicographically smallest, so service
    at exactly zero net gain never happens.

    Threshold form: from u = 0, each round tries one more report per level
    j = k..1 that has one left, spending the highest variety i <= j in stock
    (v* for one good), and keeps the candidate with the strictly largest
    correctly rounded total; on a tie the higher level wins, which is the
    lexicographically smaller u. It stops when no candidate beats the current
    value. This is exact for continuations built by this DP; for an arbitrary
    `cont`, use `oracle.reference_stage_value`, which enumerates.
    """
    k = len(y)
    u = [0] * k
    m = list(y)
    served: list[float] = []
    value = cont(tuple(y))
    while True:
        best = None
        for j in range(k - 1, -1, -1):
            if u[j] == len(w_sorted[j]):
                continue
            i = j
            while i >= 0 and not m[i]:
                i -= 1
            if i < 0:
                break  # no good left that level j, or any lower level, accepts
            m[i] -= 1
            w = w_sorted[j][u[j]]
            candidate = math.fsum((*served, w, cont(tuple(m))))
            m[i] += 1
            if candidate > value:
                value, best = candidate, (j, i, w)
        if best is None:
            return StageResult(value, tuple(u), tuple(a - b for a, b in zip(y, m)))
        j, i, w = best
        u[j] += 1
        m[i] -= 1
        served.append(w)


def _optimal_stage(t: int, w_sorted: tuple, y: Vector, cont) -> float:
    return stage_value(t, w_sorted, y, cont).value


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------

@dataclass
class ValueTables:
    """Report-expected value functions C_t(y), frozen after construction."""

    config: MarketConfig
    backend: str                   # "exact" | "mc"
    samples: int | None
    seed: int | None
    states: dict                   # t -> sorted list of supply vectors
    values: dict                   # t -> {y: C_t(y)}
    stderrs: dict                  # t -> {y: standard error} (zero for exact)
    _conts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint

    def check_config(self, cfg: MarketConfig) -> None:
        """Raise TableMismatch unless these tables were built for `cfg`."""
        if cfg.fingerprint != self.fingerprint:
            raise TableMismatch("tables were built for a different config")

    def continuation_fn(self, t: int) -> Callable[[Vector], float]:
        """Memoised m -> expected next-period value of carrying supply m out of period t.

        Zero from the final period on; at t = 0 it is the expectation over
        the first period's supply arrivals. Layer t + 1 must be filled in
        before the first call for t.
        """
        cont = self._conts.get(t)
        if cont is None:
            if t >= self.config.horizon:
                cont = _no_continuation
            else:
                nxt = self.values[t + 1]
                outcomes = self.config.supply.outcomes(t + 1)
                memo: dict[Vector, float] = {}

                def cont(m):
                    got = memo.get(m)
                    if got is None:
                        got = memo[m] = math.fsum(
                            p * nxt[tuple(a + b for a, b in zip(m, xs))] for p, xs in outcomes)
                    return got
            self._conts[t] = cont
        return cont

    # -- persistence --------------------------------------------------------

    def _pack(self) -> bytes:
        """The cache file's bytes: the one description of its layout."""
        T, k = self.config.horizon, self.config.varieties
        backend = self.backend.encode("utf-8")
        parts = [
            _MAGIC,
            struct.pack("<I", _VERSION),
            self.fingerprint.encode("ascii"),
            struct.pack("<H", len(backend)),
            backend,
            struct.pack("<Q", self.samples or 0),
            struct.pack("<BQ", int(self.seed is not None), self.seed or 0),
            struct.pack("<II", T, k),
        ]
        for t in range(1, T + 2):
            states = self.states[t]
            parts.append(struct.pack("<I", len(states)))
            for y in states:
                parts.append(struct.pack(f"<{k}Idd", *y, self.values[t][y], self.stderrs[t][y]))
        return b"".join(parts)

    def save(self, path) -> None:
        """Write `_pack()` to `path`. The bytes are packed before `path` is
        opened, so a value that does not fit raises with nothing written."""
        data = self._pack()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path, cfg: MarketConfig) -> "ValueTables":
        """Tables saved for `cfg`. Raises TableMismatch unless the file is
        byte for byte what `save` writes for `cfg`: parsed into tables over
        `reachable_states`, with layer T + 1 and an exact cache's standard
        errors 0.0 by construction, it must pack back into the same bytes.
        What a round trip cannot see is refused first: a foreign, truncated or
        other-version file, another config's fingerprint or (T, k), a backend
        `check_backend` refuses, and a value or standard error that is not
        finite or is below 0."""
        fp = cfg.fingerprint
        with open(path, "rb") as fh:
            data = fh.read()
        at = 0

        def read(fmt: str) -> tuple:
            nonlocal at
            end = at + struct.calcsize(fmt)
            if end > len(data):
                raise TableMismatch("table cache file is truncated")
            got = struct.unpack(fmt, data[at:end])
            at = end
            return got

        if read("<8s")[0] != _MAGIC:
            raise TableMismatch("not a value-table cache file")
        (version,) = read("<I")
        if version != _VERSION:
            raise TableMismatch(f"unsupported cache version {version}")
        file_fp = read("<64s")[0].decode("ascii", errors="replace")
        if file_fp != fp:
            raise TableMismatch(
                f"cache fingerprint {file_fp[:12]}... does not match config {fp[:12]}..."
            )
        (blen,) = read("<H")
        backend = read(f"<{blen}s")[0].decode("utf-8", errors="replace")
        samples, has_seed, seed = read("<QBQ")
        samples, seed = samples or None, seed if has_seed else None
        check_backend(backend, samples, seed, TableMismatch)
        T, k = read("<II")
        if (T, k) != (cfg.horizon, cfg.varieties):
            raise TableMismatch("cache dimensions do not match config")
        record = struct.Struct(f"<{k}Idd")
        values, stderrs = {}, {}
        for t in range(1, T + 2):
            (n,) = read("<I")
            values[t], stderrs[t] = {}, {}
            for *y, c, se in record.iter_unpack(read(f"<{n * record.size}s")[0]):
                if not (math.isfinite(c) and c >= 0.0 and math.isfinite(se) and se >= 0.0):
                    raise TableMismatch(
                        f"cache entry t={t}, y={tuple(y)} holds value {c!r} and standard "
                        f"error {se!r}; both must be finite and non-negative")
                values[t][tuple(y)] = c
                stderrs[t][tuple(y)] = se

        states = {t: reachable_states(cfg, t) for t in values}
        values[T + 1] = dict.fromkeys(states[T + 1], 0.0)
        for t in states if backend == "exact" else [T + 1]:
            stderrs[t] = dict.fromkeys(states[t], 0.0)
        tables = cls(config=cfg, backend=backend, samples=samples, seed=seed,
                     states=states, values=values, stderrs=stderrs)
        try:
            same = tables._pack() == data
        except KeyError:  # the file lacks a state the config reaches
            same = False
        if not same:
            raise TableMismatch("cache is not byte for byte what `save` writes for this config")
        return tables


def reachable_states(cfg: MarketConfig, t: int) -> list[Vector]:
    """Supply vectors possible at period t (box up to the cumulative maxima)."""
    t_eff = min(t, cfg.horizon)  # no arrivals beyond the horizon
    bounds = [cfg.supply.cumulative_max(t_eff, j) for j in range(1, cfg.varieties + 1)]
    return [tuple(y) for y in itertools.product(*(range(b + 1) for b in bounds))]


def _no_continuation(m: Vector) -> float:
    return 0.0


def exact_profile_count(cfg: MarketConfig, t: int) -> int:
    """Number of consumer profiles the exact backend enumerates at period t."""
    m = len(cfg.consumer_atoms(t))
    lam = cfg.arrivals.pmf(t)
    return sum(m ** n for n in range(len(lam)) if lam[n] > 0.0)


def _servable(key: tuple, level_of: list, reach: list) -> tuple:
    """Drop from a sorted rank tuple every report beyond its level's reach."""
    out = []
    level = room = -1
    for r in key:
        if level_of[r] != level:
            level = level_of[r]
            room = reach[level]
        if room > 0:
            out.append(r)
            room -= 1
    return tuple(out)


def _non_decreasing(layer: dict) -> bool:
    """Whether every entry is at least the entry one good lower in each
    variety, bit for bit: values[y - e_i] <= values[y] wherever y_i > 0."""
    for y, value in layer.items():
        for i, yi in enumerate(y):
            if yi and layer[(*y[:i], yi - 1, *y[i + 1:])] > value:
                return False
    return True


def _expected_layer(cfg, t, states, cont, stage_fn, drop_unserved: bool,
                    samples: int | None, seed: int | None) -> tuple[dict, dict]:
    """C_t(y) and its standard error for every state y of period t.

    A report set is keyed by its sorted tuple of ranks, so a key lists each
    level's reports best first: every (level, grid index) cell, atom or not
    (the sampler's clamp can draw a cell of zero probability), is ranked
    once per layer by level, then non-increasing w, then grid index. With
    `drop_unserved` (the caller's guarantee that `cont` is non-decreasing in
    every variety), a key leaves out every report with w <= 0: serving one
    cannot raise a correctly rounded sum, and such a report is the lowest of
    its level. Per state, each key is clipped to the servable reports (per
    level j, the top ``y_1 + ... + y_j``), the stage is solved once per
    distinct clipped key, and every state shares the summaries.

    Exact (`samples` None): one walk records each ordered profile's weight
    ``lam_n * p_1 * ... * p_n`` (multiplied in profile order) and its key's
    slot, 12 bytes per profile; every state adds weight times value with a
    compensated update in enumeration order, bit for bit the sum of
    `oracle.reference_expected_stage`. Monte Carlo: state number idx draws
    its `samples` report sets (arrival count, then each consumer) in one
    `PeriodSampler.report_sets` block from the stream of
    ``default_rng(SeedSequence([seed, t, idx]))``, bit for bit, seeded in
    bulk by `market.substreams`. Its per-sample values, in draw order, fill
    row idx of one (states, samples) array, and the layer takes the numpy
    mean and standard error along the rows once: a reduction along the
    contiguous last axis sums each row pairwise as the 1-D call does, so
    every entry is the float the per-state calls give.
    """
    w_rows = cfg.virtual_values[t - 1]
    cells = sorted((b, -w, i) for b, row in enumerate(w_rows) for i, w in enumerate(row))
    rank = [[0] * len(row) for row in w_rows]   # rank[level - 1][grid index]
    level_of, pair_of = [], []                  # per rank: 0-based level, (level, w)
    for r, (b, _w, i) in enumerate(cells):
        rank[b][i] = r
        level_of.append(b)
        pair_of.append((b + 1, w_rows[b][i]))
    keep = [not drop_unserved or w > 0.0 for _b, w in pair_of]
    summaries: dict[tuple, tuple] = {}

    def evaluate(y, keys) -> list:
        """Stage value of every key at state y, in order."""
        reach = list(itertools.accumulate(y))
        memo: dict[tuple, float] = {}
        values = []
        for key in keys:
            if len(key) > reach[0]:  # otherwise every level can serve every report
                key = _servable(key, level_of, reach)
            value = memo.get(key)
            if value is None:
                summary = summaries.get(key)
                if summary is None:
                    summary = summaries[key] = summarize([pair_of[r] for r in key], cfg.varieties)
                value = memo[key] = stage_fn(t, summary, y, cont)
            values.append(value)
        return values

    if samples is not None:
        sampler = cfg.sampler(t)
        vals = np.empty((len(states), samples))
        for idx, (y, rng) in enumerate(zip(states, substreams((seed, t), len(states)))):
            keys = []
            for drawn in sampler.report_sets(rng, samples):
                ranks = [rank[b - 1][i] for b, i in drawn]
                keys.append(tuple(sorted([r for r in ranks if keep[r]])))
            vals[idx] = evaluate(y, keys)
        means = vals.mean(axis=1).tolist()
        errs = (vals.std(axis=1, ddof=1) / math.sqrt(samples)).tolist()
        return dict(zip(states, means)), dict(zip(states, errs))

    atoms = cfg.consumer_atoms(t)
    lam = cfg.arrivals.pmf(t)
    atom_rank = [rank[b - 1][i] for b, i, _p, _w in atoms]
    atom_kept = [keep[r] for r in atom_rank]
    probs = [p for _b, _i, p, _w in atoms]
    weights = array("d")
    slots = array("I")
    multisets: list[tuple] = []   # distinct keys, first seen first
    slot_of: dict[tuple, int] = {}
    for n in range(len(lam)):
        lam_n = float(lam[n])
        if lam_n == 0.0:
            continue
        for profile in itertools.product(range(len(atoms)), repeat=n):
            prob = lam_n
            for a in profile:
                prob *= probs[a]
            key = tuple(sorted([atom_rank[a] for a in profile if atom_kept[a]]))
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(multisets)
                multisets.append(key)
            weights.append(prob)
            slots.append(slot)
    del slot_of
    layer = {}
    for y in states:
        values = evaluate(y, multisets)
        total = comp = 0.0  # compensated sum: the Kahan accumulator of oracle, inlined
        for prob, slot in zip(weights, slots):
            x = prob * values[slot] - comp
            acc = total + x
            comp = (acc - total) - x
            total = acc
        layer[y] = total
    return layer, dict.fromkeys(states, 0.0)


def check_backend(backend: str, samples: int | None, seed: int | None,
                  error: type[Exception] = ValueError) -> None:
    """The one backend rule, raised as `error`: the backend is "exact", with
    no samples and no seed, or "mc", with at least 2 samples and a seed.
    `build_value_tables`, `ValueTables.load` and the `solve` command apply it."""
    if backend not in ("exact", "mc"):
        raise error(f"unknown backend {backend!r}")
    if backend == "mc":
        if not samples or samples < 2:
            raise error("mc backend needs samples >= 2")
        if seed is None:
            raise error("mc backend needs a seed")
    elif samples is not None or seed is not None:
        raise error("exact backend takes no samples or seed")


def build_value_tables(
    cfg: MarketConfig,
    backend: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    profile_budget: int = DEFAULT_PROFILE_BUDGET,
    stage_fn: Callable | None = None,
) -> ValueTables:
    """Backward induction over every reachable supply vector.

    Both backends key report sets one way and call the stage once per state
    and distinct servable report set (`_expected_layer`); where layer t + 1
    is non-decreasing in every variety, bit for bit, the report sets of
    layer t also leave out every report with w <= 0. The exact backend
    enumerates all (arrival count, type profile) combinations once per
    period, in order, and refuses instances whose per-period enumeration
    exceeds `profile_budget`. The Monte Carlo backend averages `samples`
    seeded draws per entry, with an independent substream per (period,
    state) so results do not depend on evaluation order, and records each
    entry's standard error. Each state draws its report sets as one block of
    uniforms, and each layer takes one mean/std reduction over all its
    states, the same floats as 1-D numpy calls per state give.

    `stage_fn(t, w_sorted, y, cont)` computes one period value from the
    reports' per-level virtual values, best first (a tuple of k non-increasing
    float tuples, as `summarize` builds it); the default is the optimal
    service-vector stage. Alternative stage rules (brute-force oracle, myopic baseline)
    share all expectation machinery, which keeps comparisons free of
    summation-order effects. Contract: the value must not depend on any
    level-j report beyond the top ``y_1 + ... + y_j`` by w, nor, when `cont`
    is non-decreasing in every variety, on any report with w <= 0; both
    backends leave both out of `w_sorted`.
    """
    check_backend(backend, samples, seed)
    stage_fn = stage_fn or _optimal_stage

    T = cfg.horizon
    if backend == "exact":
        for t in range(1, T + 1):
            count = exact_profile_count(cfg, t)
            if count > profile_budget:
                raise StateSpaceTooLarge(
                    f"exact backend would enumerate {count} profiles at t={t} "
                    f"(budget {profile_budget})"
                )

    states = {t: reachable_states(cfg, t) for t in range(1, T + 2)}
    tables = ValueTables(
        config=cfg, backend=backend,
        samples=samples, seed=seed, states=states,
        values={T + 1: {y: 0.0 for y in states[T + 1]}},
        stderrs={T + 1: {y: 0.0 for y in states[T + 1]}},
    )
    for t in range(T, 0, -1):
        tables.values[t], tables.stderrs[t] = _expected_layer(
            cfg, t, states[t], tables.continuation_fn(t), stage_fn,
            _non_decreasing(tables.values[t + 1]), tables.samples, tables.seed)
    return tables


def continuation_gap(tables: ValueTables, t: int, y: Sequence[int], j: int) -> float:
    """Opportunity cost of serving one level-j consumer from supply y at period t.

    C(y) - C(y - v*(e_j, y)) with C = `tables.continuation_fn(t)`: the
    expected continuation with y intact minus the expected continuation after
    spending a good via the variety recursion; zero in the final period.
    """
    cfg = tables.config
    if not 1 <= t <= cfg.horizon:
        raise ValueError(f"period {t} outside 1..{cfg.horizon}")
    k = cfg.varieties
    if not 1 <= j <= k:
        raise OffGridValue(f"flexibility level {j} outside 1..{k}")
    y = tuple(y)
    if y not in tables.values[t]:
        raise TableMismatch(f"supply vector {y} is not a reachable state at t={t}")
    e_j = tuple(1 if lvl == j - 1 else 0 for lvl in range(k))
    spent = tuple(a - b for a, b in zip(y, vstar(e_j, y)))  # InfeasibleU if no good is reachable
    cont = tables.continuation_fn(t)
    return cont(y) - cont(spent)
