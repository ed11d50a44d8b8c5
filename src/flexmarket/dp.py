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
a correctly rounded sum. In the final period, which has no continuation, a
clipped key that y can serve whole (for every level j, its reports of levels
1..j number at most ``y_1 + ... + y_j``: Hall's condition on cumulative
supply) is solved once per layer instead: every subset of it is servable,
so the stage only picks which reports to serve, whatever else y holds.
Exact expectations are solved once per class of states: a level-j consumer
accepts varieties 1..j, and goods beyond D_t, the most consumers periods
t..T can bring, are worth nothing, so C_t(y) depends on y only through
``min(y_1 + ... + y_j, D_t)``. Each is a sum over the exact law of keys
(`_key_law`, one per run of periods with one law): a key weighs its ordered
profiles' probability, summed exactly and rounded once.
Monte Carlo expectations draw each state's report sets from one row of
uniforms, the state's own stream; `PeriodSampler.rank_keys` decodes a
layer's rows a block at a time with numpy and hands back each set's key, so
this module imports no numpy. Every expectation in the package, these two
and the continuation here and the episode revenue, interim quantities and
audits in `simulate`, is computed by `estimate`, whose ``math.fsum`` sums
are correctly rounded and so do not depend on the order of their terms.
None of these shortcuts moves a bit of any table (the exact reference is
``oracle.reference_expected_stage``, the same law enumerated afresh per
state). Stage values are ``math.fsum`` sums too, so two pipelines that agree
on the terms produce identical floats.

The stage is solved in the paper's threshold form: starting from serving
nobody, serve one more report at a time, always the level whose next report
adds the most to served virtual surplus plus continuation, and stop when no
report adds anything. A report is served exactly when its virtual value beats
the opportunity cost of the good it takes, the threshold the continuation
values define; ``continuation_gap`` reads that cost from the same memoised
``ValueTables.continuation_fn``. On continuations this DP builds, the result
equals the enumerating argmax over every feasible service vector bit for bit,
tie rule included (``oracle.reference_stage_value`` is that reference).

The config fixes each period's states (`ValueTables.states` derives them),
the all-zero layer T + 1 and an exact table's zero standard errors, so a
table cache holds only the entries of periods 1..T (`ValueTables._pack`).
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InfeasibleU, OffGridValue, StateSpaceTooLarge, TableMismatch
from .market import MAX_FLOATS, MarketConfig, _index

Vector = tuple  # length-k tuples of non-negative ints (supply / service / variety)

_MAGIC = b"FMTABLE1"
# 4 keeps 3's layout (only what the config does not fix, see `_pack`), but its exact
# entries sum over the law of keys, a few ulps off 3's: older files are refused.
_VERSION = 4
# Ordered report profiles (`exact_profile_count`) the exact backend may sum
# over in one period. It holds one period's law over keys at a time: per key,
# a rank tuple and float weight, about 115 bytes (CPython 3.11, x86-64; 2.0M
# keys of k=2, G=1001, n <= 2 in 215 MB). Keys never outnumber profiles: at
# most about 1.2 GB at this default, beside one summary per clipped key solved.
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
    value. The first round, with nothing served yet, adds w and the
    continuation with one ``+``: for two finite floats with a finite sum that
    is the correctly rounded sum ``math.fsum`` gives, and ``or 0.0`` turns a
    zero total into +0.0, as ``math.fsum`` returns it. When `cont` is
    `_no_continuation` (the final period) every continuation is 0.0, so none
    is looked up and no stock tuple is built. This is exact for
    continuations built by this DP; for an arbitrary `cont`, use
    `oracle.reference_stage_value`, which enumerates.
    """
    k = len(y)
    u = [0] * k
    m = list(y)
    served: list[float] = []
    final = cont is _no_continuation   # the final period: no stock to look up
    value = 0.0 if final else cont(tuple(y))
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
            rest = 0.0 if final else cont(tuple(m))
            candidate = math.fsum((*served, w, rest)) if served else (w + rest) or 0.0
            m[i] += 1
            if candidate > value:
                value, best = candidate, (j, i, w)
        if best is None:
            return StageResult(value, tuple(u), tuple(map(operator.sub, y, m)))
        j, i, w = best
        u[j] += 1
        m[i] -= 1
        served.append(w)


def _optimal_stage(t: int, w_sorted: tuple, y: Vector, cont) -> float:
    return stage_value(t, w_sorted, y, cont).value


# ---------------------------------------------------------------------------
# Value tables
# ---------------------------------------------------------------------------

def estimate(values: Iterable[float], weights: Sequence[float] | None = None,
             draws: int | None = None) -> tuple[float, float]:
    """Mean and standard error of `values`: the one estimator of every
    expectation in the package.

    An exact law (`draws` None) weighs value i by its probability
    ``weights[i]``: the mean is ``fsum(w * v)``, the standard error 0.0. A
    sample of `draws` draws weighs it by its draw count ``weights[i]``, or
    by 1 when `weights` is None, and must be a sequence: the mean is
    ``fsum(w * v) / draws`` and the standard error
    ``sqrt(fsum(w * (v - mean) ** 2) / (draws - 1) / draws)``. Each fsum is
    correctly rounded, so no order of the values moves a bit. A sample of
    equal values has standard error 0.0 wherever its mean rounds back to
    that value. Fewer than 2 draws have no standard error: ValueError.
    """
    if draws is None:
        return math.fsum(map(operator.mul, weights, values)), 0.0
    if draws < 2:
        raise ValueError(f"a sample needs at least 2 draws for a standard error, got {draws}")
    if weights is None:
        mean = math.fsum(values) / draws
        spread = math.fsum((v - mean) ** 2 for v in values)
    else:
        mean = math.fsum(map(operator.mul, weights, values)) / draws
        spread = math.fsum(c * (v - mean) ** 2 for c, v in zip(weights, values))
    return mean, math.sqrt(spread / (draws - 1) / draws)


@dataclass
class ValueTables:
    """Report-expected value functions C_t(y) over the states the config
    fixes (`states`, derived, never stored), frozen after construction."""

    config: MarketConfig
    backend: str                   # "exact" | "mc"
    samples: int | None
    seed: int | None
    values: dict                   # t -> {y: C_t(y)}
    stderrs: dict                  # t -> {y: standard error} (zero for exact)
    _conts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint

    @cached_property
    def states(self) -> dict:
        """t -> `reachable_states(config, t)`, for t = 1..T + 1."""
        return {t: reachable_states(self.config, t) for t in range(1, self.config.horizon + 2)}

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
                probs = [p for p, _xs in outcomes]
                memo: dict[Vector, float] = {}

                def cont(m):
                    got = memo.get(m)
                    if got is None:
                        got = memo[m] = estimate(
                            [nxt[tuple(map(operator.add, m, xs))] for _p, xs in outcomes],
                            probs)[0]
                    return got
            self._conts[t] = cont
        return cont

    # -- persistence --------------------------------------------------------

    def _pack(self) -> bytes:
        """The cache file's bytes, the one description of its layout: a header
        (magic, version, fingerprint, backend, samples, seed), then C_t(y) of
        every state of periods 1..T in `states` order and, for "mc" only, their
        standard errors, as little-endian doubles. The config fixes the rest."""
        backend = self.backend.encode("utf-8")
        cells = self._cells()
        columns = (self.values, self.stderrs) if self.backend == "mc" else (self.values,)
        return b"".join([
            _MAGIC,
            struct.pack("<I", _VERSION),
            self.fingerprint.encode("ascii"),
            struct.pack("<H", len(backend)),
            backend,
            struct.pack("<Q", self.samples or 0),
            struct.pack("<BQ", int(self.seed is not None), self.seed or 0),
            *(struct.pack(f"<{len(cells)}d", *(column[t][y] for t, y in cells))
              for column in columns),
        ])

    def _cells(self) -> list:
        """(t, y) for every state y of periods 1..T, in `states` order."""
        return [(t, y) for t in range(1, self.config.horizon + 1) for y in self.states[t]]

    def save(self, path) -> None:
        """Write `_pack()` to `path`. The bytes are packed before `path` is
        opened, so a value that does not fit raises with nothing written."""
        data = self._pack()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path, cfg: MarketConfig) -> "ValueTables":
        """Tables saved for `cfg`. Raises TableMismatch unless the file is
        byte for byte what `save` writes for `cfg`: its values (and an mc
        cache's standard errors) are read over `cfg`'s states, layer T + 1
        and an exact cache's standard errors are 0.0, and the tables must
        pack back into the same bytes. What a round trip cannot see is
        refused first: a foreign, truncated or other-version file, another
        config's fingerprint, a backend `check_backend` refuses, and a value
        or standard error that is not finite or is below 0."""
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
        check_backend(cfg, backend, samples, seed, TableMismatch)
        tables = cls(cfg, backend, samples, seed, values={}, stderrs={})
        cells = tables._cells()
        values = read(f"<{len(cells)}d")
        stderrs = read(f"<{len(cells)}d") if backend == "mc" else (0.0,) * len(cells)
        for (t, y), c, se in zip(cells, values, stderrs):
            if not (math.isfinite(c) and c >= 0.0 and math.isfinite(se) and se >= 0.0):
                raise TableMismatch(f"cache entry t={t}, y={y} holds value {c!r} and standard "
                                    f"error {se!r}; both must be finite and non-negative")
            tables.values.setdefault(t, {})[y] = c
            tables.stderrs.setdefault(t, {})[y] = se
        last = cfg.horizon + 1
        tables.values[last] = dict.fromkeys(tables.states[last], 0.0)
        tables.stderrs[last] = dict.fromkeys(tables.states[last], 0.0)
        if tables._pack() != data:
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
    """Number of ordered consumer profiles the exact backend's law at period t sums over."""
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


def _whole(key: tuple, level_of: list, reach: list) -> bool:
    """Whether the supply of cumulative reach `reach` serves every report of
    a sorted rank tuple at once: by Hall's condition, when for every level j
    the reports of levels 1..j number at most ``reach[j] = y_1 + ... + y_j``.
    A key lists its levels in order, so its count-th report is preceded only
    by reports of its own level or lower."""
    for count, r in enumerate(key, 1):
        if count > reach[level_of[r]]:
            return False
    return True


def _demand_bound(cfg: MarketConfig, t: int) -> int:
    """D_t: the most consumers periods t..T can bring, the sum over those
    periods of the largest arrival count of positive probability."""
    return sum(max(n for n, p in enumerate(cfg.arrivals.pmf(s)) if p > 0.0)
               for s in range(t, cfg.horizon + 1))


def _supply_class(y: Vector, bound: int) -> tuple:
    """The class of supply y against demand bound D: its capped cumulative
    supply, ``min(y_1 + ... + y_j, D)`` per level j."""
    return tuple(min(r, bound) for r in itertools.accumulate(y))


def _non_decreasing(layer: dict) -> bool:
    """Whether every entry is at least the entry one good lower in each
    variety, bit for bit: values[y - e_i] <= values[y] wherever y_i > 0."""
    for y, value in layer.items():
        for i, yi in enumerate(y):
            if yi and layer[(*y[:i], yi - 1, *y[i + 1:])] > value:
                return False
    return True


def _expected_layer(cfg, t, states, cont, stage_fn, drop_unserved: bool,
                    samples: int | None, seed: int | None, walks: dict) -> tuple[dict, dict]:
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
    distinct clipped key, and every state shares the summaries. In the final
    period (`cont` is `_no_continuation`), a clipped key the state serves
    whole (`_whole`; a raw key that passes needs no clipping, so it is tested
    first) is solved once for the whole layer: by `build_value_tables`'
    contract its value is the same at every state that serves it whole.
    That holds for the greedy stage too: serving a report from the highest
    in-stock variety at most its level keeps Hall's condition for the rest,
    so every candidate stays feasible in every round, and with no
    continuation its rounds and value are the same at every such state.

    Exact (`samples` None): the first state in `states` order of each
    supply class (`_supply_class` against D_t, `_demand_bound`) is solved,
    and every state of the class takes its entry, the `estimate` over the
    keys of `_key_law`, ``math.fsum`` of weight times value, bit for bit
    `oracle.reference_expected_stage`. `walks` holds the last law built,
    keyed by its inputs, so a period of an equal law reuses it and one law
    is held at a time. The classes are exact by `build_value_tables`' contract:
    a key holds at most n_t <= D_t reports (n_t: period t's largest arrival
    count of positive probability), so the clipping and `_whole` read the
    reach only up to D_t. The optimal stage keeps the contract: a report
    spends the highest in-stock variety at most its level, so two states of
    one class spend into two states of one class against D_t minus the
    reports served, and arriving supply keeps the class against
    D_(t+1) = D_t - n_t; by backward induction the continuation, every
    candidate and the stage value are functions of the class.
    Monte Carlo: state number idx draws its `samples` report sets (arrival
    count, then each consumer) from row idx of `market.uniform_blocks`: the
    stream of ``default_rng(SeedSequence([seed, t, idx]))``, bit for bit,
    ``samples * (1 + 2 * n_max)`` uniforms wide, enough for the largest
    arrival count n_max in every sample. `PeriodSampler.rank_keys` reads the
    layer's rows a block at a time and yields each row's keys, ranked by
    `rank` (-1 for a report the key leaves out). The entry and its standard
    error are the `estimate` of its per-sample values, each one draw. Every
    state is solved, since each reads its own row: a class shares no draws.
    """
    w_rows = cfg.virtual_values[t - 1]
    cells = sorted((b, -w, i) for b, row in enumerate(w_rows) for i, w in enumerate(row))
    rank = [[0] * len(row) for row in w_rows]   # rank[level - 1][grid index], -1 if left out
    level_of, w_of = [], []                     # per rank: 0-based level, w
    for r, (b, _w, i) in enumerate(cells):
        w = w_rows[b][i]
        rank[b][i] = r if not drop_unserved or w > 0.0 else -1
        level_of.append(b)
        w_of.append(w)
    k = cfg.varieties
    summaries: dict[tuple, tuple] = {}
    final = cont is _no_continuation
    shared: dict[tuple, float] = {}   # final period: keys a state serves whole

    def summarize_key(key: tuple) -> tuple:
        """`summarize` of a key's reports without a sort, in one pass: the
        key lists each level's reports best first, so appending each rank's
        w to its level's list keeps that order (`summarize` sorts stably, so
        equal values, signed zeros included, keep rank order there too)."""
        per_level: list[list[float]] = [[] for _ in range(k)]
        for r in key:
            per_level[level_of[r]].append(w_of[r])
        return tuple(map(tuple, per_level))

    def evaluate(y, keys) -> list:
        """Stage value of every key at state y, in order."""
        reach = list(itertools.accumulate(y))
        own: dict[tuple, float] = {}
        values = []
        for key in keys:
            if len(key) <= reach[0]:   # variety 1 alone could serve the whole key
                memo = shared if final else own
            elif final and _whole(key, level_of, reach):
                memo = shared
            else:
                key = _servable(key, level_of, reach)
                memo = shared if final and _whole(key, level_of, reach) else own
            value = memo.get(key)
            if value is None:
                summary = summaries.get(key)
                if summary is None:
                    summary = summaries[key] = summarize_key(key)
                value = memo[key] = stage_fn(t, summary, y, cont)
            values.append(value)
        return values

    layer, errs = {}, {}
    if samples is not None:
        keyed = cfg.sampler(t).rank_keys((seed, t), len(states), samples, rank)
        for y, keys in zip(states, keyed):
            layer[y], errs[y] = estimate(evaluate(y, keys), draws=samples)
        return layer, errs

    atoms = cfg.consumer_atoms(t)
    law = (tuple(float(p) for p in cfg.arrivals.pmf(t)),
           tuple(rank[b - 1][i] for b, i, _p, _w in atoms),
           tuple(p for _b, _i, p, _w in atoms))
    built = walks.get(law)
    if built is None:
        walks.clear()   # one period's law at a time
        built = walks[law] = _key_law(*law)
    keys, weights = built
    bound = _demand_bound(cfg, t)
    entries: dict[tuple, tuple] = {}   # per supply class: the entry and its standard error
    for y in states:
        cls = _supply_class(y, bound)
        got = entries.get(cls)
        if got is None:
            got = entries[cls] = estimate(evaluate(y, keys), weights)
        layer[y], errs[y] = got
    return layer, errs


def _integers(xs: Sequence[float]) -> tuple[list, int]:
    """Floats exactly, as integer numerators over their common denominator,
    the largest of their power-of-two denominators."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max((d for _n, d in ratios), default=1)
    return [n * (den // d) for n, d in ratios], den


def _key_law(lam: tuple, atom_rank: tuple, probs: tuple) -> tuple[list, list]:
    """One period's exact report law over keys: the distinct keys some
    profile reaches, each a sorted tuple of ranks, and each key's
    probability, computed exactly and rounded once.

    `lam` is the arrival-count PMF; atom a has rank ``atom_rank[a]`` (-1 if
    keys leave it out) and probability ``probs[a]``. A key of m reports, c_a
    of kept atom a, weighs ``sum_n lam_n * n! / (prod c_a! * d!) *
    prod p_a ** c_a * q ** d`` over n >= m arrivals, d = n - m of them left
    out, q the left-out atoms' exact total probability: its own
    ``m! / prod c_a! * prod p_a ** c_a`` times one factor per key size,
    ``B_m = sum_n lam_n * C(n, m) * q ** (n - m)``. The sums run in integers
    (`_integers`), and one int/int true division, which CPython rounds
    correctly, gives each weight. With at most one arrival, a one-report key
    weighs ``lam_1 * p_a``, one float product and so correctly rounded.
    """
    kept = sorted((r, p) for r, p in zip(atom_rank, probs) if r >= 0)
    (l_nums, l_den), (q_nums, q_den) = _integers(lam), _integers(
        [p for r, p in zip(atom_rank, probs) if r < 0])
    q = sum(q_nums)
    top = max(n for n, x in enumerate(lam) if x > 0.0)
    if top == 1:   # B_0 = lam_0 + lam_1 * q = b / (l_den * q_den), and B_1 = lam_1
        b = l_nums[0] * q_den + l_nums[1] * q
        keys, weights = ([()], [b / (l_den * q_den)]) if b else ([], [])
        return keys + [(r,) for r, _p in kept], weights + [lam[1] * p for _r, p in kept]
    p_nums, p_den = _integers([p for _r, p in kept])
    keys, weights = [], []

    def longer(level, m: int):   # the level of keys one report longer, in order
        return ((key + (kept[a][0],), a, c, v * (m + 1) // c * p_nums[a])
                for key, last, count, v in level for a in range(last, len(kept))
                for c in [count + 1 if a == last else 1])
    # per key of m reports: (key, last kept atom, its count, m! / prod c_a! *
    # prod p_a * p_den ** m); the longest keys, the most, are never held as a level
    level = [((), 0, 0, 1)]
    for m in range(top + 1):
        b = sum(l_nums[n] * math.comb(n, m) * q ** (n - m) * q_den ** (top - n)
                for n in range(m, top + 1))
        if b:   # B_m is b / (l_den * q_den ** (top - m)); B_top = lam_top > 0
            den = l_den * q_den ** (top - m) * p_den ** m
            for key, *_, v in level:
                keys.append(key)
                weights.append(v * b / den)
        if m < top:
            level = longer(level, m) if m + 1 == top else list(longer(level, m))
    return keys, weights


def check_backend(cfg: MarketConfig, backend: str, samples: int | None, seed: int | None,
                  error: type[Exception] = ValueError) -> None:
    """The one backend rule, raised as `error`: the backend is "exact", with
    no samples and no seed, or "mc", with a seed and at least 2 samples, but
    no more than numpy can shape into one state's row of
    ``samples * (1 + 2 * n_max)`` uniforms. `build_value_tables`,
    `ValueTables.load` and the `solve` command apply it."""
    if backend not in ("exact", "mc"):
        raise error(f"unknown backend {backend!r}")
    if backend == "mc":
        if not samples or samples < 2:
            raise error("mc backend needs samples >= 2")
        if seed is None:
            raise error("mc backend needs a seed")
        per_sample = max(1 + 2 * cfg.sampler(t).n_max for t in range(1, cfg.horizon + 1))
        if samples > MAX_FLOATS // per_sample:
            raise error(f"mc backend takes at most {MAX_FLOATS // per_sample} samples on this "
                        f"config, the most numpy can shape into a row of uniforms, got {samples}")
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

    Both backends key report sets one way and call the stage once per
    solved state and distinct servable report set (`_expected_layer`; in the
    final period, once per layer for a set the state serves whole); where
    layer t + 1 is non-decreasing in every variety, bit for bit, the report
    sets of layer t also leave out every report with w <= 0. The exact
    backend solves one state per class of capped cumulative supply and gives
    its entry to the whole class, the expectation over the exact law of keys
    (`_key_law`, one per run of periods with one report law), and refuses a
    period of more than `profile_budget` ordered profiles
    (`exact_profile_count`). The Monte Carlo backend solves every state and
    averages `samples` seeded draws per entry, each state's from its own
    stream, a row of uniforms (a layer's rows drawn a block at a time), so
    results do not depend on evaluation order, and records each entry's
    standard error. Both backends' entries are `estimate`s.

    `stage_fn(t, w_sorted, y, cont)` computes one period value from the
    reports' per-level virtual values, best first (a tuple of k non-increasing
    float tuples, as `summarize` builds it); the default is the optimal
    service-vector stage. Other stage rules (brute-force oracle, myopic
    baseline) share all expectation machinery, so comparisons are free of
    summation-order effects. Contract: the value must not depend on any
    level-j report beyond the top ``y_1 + ... + y_j`` by w, nor, when `cont`
    is non-decreasing in every variety, on any report with w <= 0; both
    backends leave both out of `w_sorted`. The value may depend on y only
    through its capped cumulative supply, ``min(y_1 + ... + y_j, D_t)`` for
    every level j, where D_t is the most consumers periods t..T can bring:
    the sum over s = t..T of period s's largest arrival count of positive
    probability. The exact backend solves the first state of each such
    class in `states` order, and the class shares its entry. At the final
    period (`cont` identically zero) the value may depend on y only through
    which sets of reports y can serve at once: both backends solve a report
    set once per layer, at the first state that serves it whole.
    """
    check_backend(cfg, backend, samples, seed)
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

    tables = ValueTables(cfg, backend, samples, seed, values={}, stderrs={})
    states = tables.states
    tables.values[T + 1] = dict.fromkeys(states[T + 1], 0.0)
    tables.stderrs[T + 1] = dict.fromkeys(states[T + 1], 0.0)
    walks: dict = {}   # the last law over keys built, keyed by its inputs
    for t in range(T, 0, -1):
        tables.values[t], tables.stderrs[t] = _expected_layer(
            cfg, t, states[t], tables.continuation_fn(t), stage_fn,
            _non_decreasing(tables.values[t + 1]), tables.samples, tables.seed, walks)
    return tables


def continuation_gap(tables: ValueTables, t: int, y: Sequence[int], j: int) -> float:
    """Opportunity cost of serving one level-j consumer from supply y at period t.

    C(y) - C(y - v*(e_j, y)) with C = `tables.continuation_fn(t)`: the
    expected continuation with y intact minus the expected continuation after
    spending a good via the variety recursion; zero in the final period.
    """
    cfg = tables.config
    _index(t, cfg.horizon, "period")
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
