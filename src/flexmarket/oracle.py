"""Brute-force ground truth for the solver.

Everything here enumerates: the feasible service and variety sets,
feasible allocation matrices row by row, the full-matrix per-period
maximization, the service-vector stage as an argmax over every feasible u,
report-set expectations over every ordered profile, float and exact, the
greedy constructive allocation, and the variety-shift transformation with
its convergence loop. These routines are test fixtures at desk scale,
deliberately independent of the threshold-form stage and the service/
variety-vector shortcuts they certify, and they refuse (rather than
truncate) when an enumeration budget is hit.

The full-matrix stage and the verification walk read each matrix only
through its (served rows, remaining supply) projection, so `verify_instance`
enumerates the matrices of each (flexibilities, y) once and shares the
de-duplicated projections between the brute-force build and the walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import dp
from .dp import ValueTables
from .errors import BudgetExceeded, InfeasibleU, NotApplicable, OffGridValue
from .market import (
    ArrivalDistribution,
    MarketConfig,
    SupplyDistribution,
    TypeDistribution,
    ValuationGrid,
    truncated_exponential,
)

DEFAULT_MATRIX_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# Feasible service and variety sets
# ---------------------------------------------------------------------------

def feasible_service_set(counts: Sequence[int], y: Sequence[int]) -> list[tuple]:
    """All service vectors u with u^j <= counts^j and cumulative u <= cumulative y.

    Level by level, u^j runs over 0 .. min(counts^j, cum y^j - cum u), so the
    list is in lexicographic order; with no consumers it is the zero vector.
    """
    out = [()]
    for cj, cum_yj in zip(counts, itertools.accumulate(y)):
        out = [u + (uj,) for u in out for uj in range(min(cj, cum_yj - sum(u)) + 1)]
    return out


def feasible_variety_set(u: Sequence[int], y: Sequence[int]) -> list[tuple]:
    """All variety vectors that can fulfil service vector u from supply y:
    v^j <= y^j, cumulative v covers cumulative u at every prefix, and total v
    equals total u. Level by level, v^j runs over max(0, cum u^j - cum v) ..
    min(y^j, total u - cum v), so the list is in lexicographic order.
    """
    total_u = sum(u)
    out = [()]
    for cum_uj, yj in zip(itertools.accumulate(u), y):
        out = [v + (vj,) for v in out
               for vj in range(max(0, cum_uj - sum(v)), min(yj, total_u - sum(v)) + 1)]
    return out


# ---------------------------------------------------------------------------
# Feasible allocation matrices
# ---------------------------------------------------------------------------

def enumerate_feasible_matrices(
    flexibilities: Sequence[int],
    y: Sequence[int],
    budget: int = DEFAULT_MATRIX_BUDGET,
) -> list[tuple]:
    """Every feasible allocation, one choice per consumer row.

    A matrix is encoded as a tuple with entry 0 (no good) or a variety index
    1..flexibility for each consumer; column sums never exceed the supply y.
    Returned in lexicographic order. Raises OffGridValue for a flexibility
    outside 1..len(y), and BudgetExceeded instead of returning a truncated set.
    """
    k = len(y)
    for b in flexibilities:
        if not 1 <= b <= k:
            raise OffGridValue(f"flexibility level {b} outside 1..{k}")
    upper = math.prod(b + 1 for b in flexibilities) if flexibilities else 1
    if upper > budget * 16:
        raise BudgetExceeded(f"row-choice space {upper} far exceeds budget {budget}")

    # (prefix, stock) per feasible prefix, row by row in lexicographic order;
    # every prefix extends to a matrix (zeros after it), so checking the
    # budget per row raises exactly when the matrices outnumber it
    out = [((), tuple(y))]
    for b in flexibilities:
        out = [(prefix + (c,), stock[:c - 1] + (stock[c - 1] - 1,) + stock[c:] if c else stock)
               for prefix, stock in out for c in range(b + 1) if not c or stock[c - 1]]
        if len(out) > budget:
            raise BudgetExceeded(f"feasible matrix count exceeds budget {budget}")
    return [prefix for prefix, _stock in out]


def service_of(choices: Sequence[int], flexibilities: Sequence[int], k: int) -> tuple:
    """Consumers served per flexibility level under one matrix."""
    u = [0] * k
    for c, b in zip(choices, flexibilities):
        if c > 0:
            u[b - 1] += 1
    return tuple(u)


def varieties_of(choices: Sequence[int], k: int) -> tuple:
    """Goods spent per variety under one matrix."""
    v = [0] * k
    for c in choices:
        if c > 0:
            v[c - 1] += 1
    return tuple(v)


def _matrix_projections(memo: dict, flexibilities: tuple, y: tuple, budget: int) -> list[tuple]:
    """(served rows, remaining supply) of every feasible matrix, de-duplicated
    in first-seen order.

    Each (flexibilities, y) is enumerated once per `memo`: the first call
    stores the list there and later calls read it back. A failed enumeration
    (BudgetExceeded, OffGridValue) stores nothing.
    """
    key = (flexibilities, y)
    found = memo.get(key)
    if found is None:
        k = len(y)
        seen: dict[tuple, None] = {}
        for m in enumerate_feasible_matrices(flexibilities, y, budget=budget):
            served = tuple(row for row, c in enumerate(m) if c > 0)
            seen[served, tuple(a - b for a, b in zip(y, varieties_of(m, k)))] = None
        found = memo[key] = list(seen)
    return found


# ---------------------------------------------------------------------------
# Full-matrix stage maximization
# ---------------------------------------------------------------------------

def brute_stage_value(
    t: int,
    consumers: Sequence[tuple],
    y: Sequence[int],
    cont: Callable[[tuple], float],
    budget: int = DEFAULT_MATRIX_BUDGET,
    *,
    memo: dict | None = None,
) -> float:
    """Maximize served virtual surplus plus continuation over all matrices.

    `consumers` lists (flexibility, virtual valuation) pairs in arrival
    order; with no consumers the value is the continuation of y untouched.
    The max runs over the matrices' distinct (served rows, remaining supply)
    projections, read from `memo` (see `_matrix_projections`; without one
    this call enumerates afresh). That is bit for bit the max over every
    matrix: a matrix's parts, the served rows' w and the continuation of the
    remaining supply, depend only on its projection, and `math.fsum` is
    correctly rounded, so matrices with one projection score the same float
    and a duplicate cannot change the max. First-seen order keeps which of
    two tied values (0.0 and -0.0) wins.
    """
    y = tuple(y)
    if not consumers:
        return cont(y)
    flexibilities = tuple(b for b, _w in consumers)
    best = None
    for served, remaining in _matrix_projections({} if memo is None else memo, flexibilities, y, budget):
        parts = [consumers[row][1] for row in served]
        parts.append(cont(remaining))
        value = math.fsum(parts)
        if best is None or value > best:
            best = value
    return best


def _brute_stage(t, w_sorted: tuple, y, cont, budget=DEFAULT_MATRIX_BUDGET, *, memo=None):
    consumers = tuple((j + 1, w) for j, ws in enumerate(w_sorted) for w in ws)
    return brute_stage_value(t, consumers, y, cont, budget=budget, memo=memo)


def build_brute_tables(
    cfg: MarketConfig,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
    *,
    memo: dict | None = None,
) -> ValueTables:
    """Value tables from the unsimplified full-matrix recursion.

    Shares the solver build's profile enumeration (one per period, read by
    every state of the layer), its per-servable-multiset stage memo and its
    correctly rounded sum, so any difference from the solver's tables is a
    stage-maximization bug. The memo is exact
    here too: a level-j consumer only takes varieties 1..j, so swapping a
    served report for a better unserved one of its level keeps the goods
    spent and cannot lower the correctly rounded sum.

    Every stage reads its matrix projections from `memo` (a fresh one for
    this build when none is given), so each (flexibilities, y) is enumerated
    once however many stages and periods share it.
    """
    memo = {} if memo is None else memo

    def stage(t, w_sorted, y, cont):
        return _brute_stage(t, w_sorted, y, cont, budget=matrix_budget, memo=memo)

    tables = dp.build_value_tables(cfg, stage_fn=stage)
    tables.backend = "exact-brute"
    return tables


def reference_stage_value(
    t: int,
    w_sorted: tuple,
    y: Sequence[int],
    cont: Callable[[tuple], float],
) -> dp.StageResult:
    """Argmax of served virtual surplus plus continuation over every u in
    `feasible_service_set`, with v* from the variety recursion.

    Exact for any `cont`, with ties to the lexicographically smallest u. The
    slow path behind `dp.stage_value`'s threshold form: on continuations the
    DP builds, both return the same value, u and v* bit for bit.
    """
    y = tuple(y)
    best: dp.StageResult | None = None
    for u in feasible_service_set(tuple(map(len, w_sorted)), y):
        v = dp.vstar(u, y)
        parts = [w for ws, uj in zip(w_sorted, u) for w in ws[:uj]]
        parts.append(cont(tuple(a - b for a, b in zip(y, v))))
        value = math.fsum(parts)
        if best is None or value > best.value:
            best = dp.StageResult(value, u, v)
    assert best is not None  # zero vector is always feasible
    return best


def _profiles(cfg: MarketConfig, t: int) -> tuple[int, list]:
    """Every ordered consumer profile of period t of positive probability, in
    order, as (numerator, atoms, summary), and a common denominator over which
    each numerator is the exact ``lam_n * p_1 * ... * p_n``."""
    lam = [float(x).as_integer_ratio() for x in cfg.arrivals.pmf(t)]
    ratios = {atom: atom[2].as_integer_ratio() for atom in cfg.consumer_atoms(t)}
    unit, lam_unit = max((d for _p, d in ratios.values()), default=1), max(d for _x, d in lam)
    nums = {atom: p * (unit // d) for atom, (p, d) in ratios.items()}
    top = len(lam) - 1
    return lam_unit * unit ** top, [
        (x * (lam_unit // d) * unit ** (top - n) * math.prod(map(nums.__getitem__, combo)), combo,
         dp.summarize([(b, w) for b, _i, _p, w in combo], cfg.varieties))
        for n, (x, d) in enumerate(lam) if x for combo in itertools.product(nums, repeat=n)]


def reference_expected_stage(tables: ValueTables, t: int, y: tuple, stage_fn) -> float:
    """Report-set expectation of one stage at state y of period t against
    ``tables.continuation_fn(t)``, over the exact law of keys enumerated
    afresh: the slow path behind the exact backend, without its memo, classes
    or clipping. A profile's key is its reports' (level, grid index)
    multiset, less those of w <= 0 when layer t + 1 is non-decreasing in
    every variety, bit for bit, as `dp.build_value_tables` decides. Each
    key's exact probability is rounded once; the expectation is ``math.fsum``
    of weight times stage value. `stage_fn` gets each profile's whole summary
    and must give a key one value (AssertionError otherwise), so a table
    entry off this one bit for bit also shows a stage reading y beyond its class.
    """
    cfg, cont, after = tables.config, tables.continuation_fn(t), tables.values[t + 1]
    drop = all(after[_shift(m, i, -1)] <= value for m, value in after.items()
               for i in range(1, cfg.varieties + 1) if m[i - 1])
    den, profiles = _profiles(cfg, t)
    groups: dict[tuple, list] = {}   # key -> [probability numerator, stage value]
    for num, combo, summary in profiles:
        value = stage_fn(t, summary, y, cont)
        key = tuple(sorted((b, i) for b, i, _p, w in combo if w > 0.0 or not drop))
        group = groups.setdefault(key, [0, value])
        if value.hex() != group[1].hex():
            raise AssertionError(f"key {key} at t={t}, y={y} has values {group[1]!r} and {value!r}")
        group[0] += num
    return math.fsum(num / den * value for num, value in groups.values())


def rational_expected_layer(tables: ValueTables, t: int) -> dict:
    """Per state y of period t, the exact expectation (a `Fraction`) over
    ordered profiles of the optimal stage's float values at y against the
    float ``tables.continuation_fn(t)``: only the stage values are rounded."""
    cfg, cont = tables.config, tables.continuation_fn(t)
    den, profiles = _profiles(cfg, t)
    return {y: sum(num * Fraction(dp._optimal_stage(t, summary, y, cont))
                   for num, _combo, summary in profiles) / den for y in tables.states[t]}


# ---------------------------------------------------------------------------
# Constructive procedures
# ---------------------------------------------------------------------------

def constructive_allocation(u: Sequence[int], counts: Sequence[int], y: Sequence[int]) -> tuple:
    """Feasible matrix serving exactly u^j consumers per level.

    Consumers are laid out in level blocks (all level-1 rows first, then
    level-2, ...); within each block the lowest rows are selected and each
    selected consumer receives the lowest-index variety still in stock among
    those it accepts. Returns the per-row choice encoding.
    """
    k = len(y)
    cum_u = cum_y = 0
    for uj, cj, yj in zip(u, counts, y):
        if uj < 0 or uj > cj:
            raise InfeasibleU(f"cannot serve {uj} of {cj} consumers at a level")
        cum_u += uj
        cum_y += yj
        if cum_u > cum_y:
            raise InfeasibleU(f"service vector {tuple(u)} exceeds cumulative supply {tuple(y)}")

    stock = list(y)
    choices: list[int] = []
    for level in range(1, k + 1):
        served = 0
        for _row in range(counts[level - 1]):
            if served < u[level - 1]:
                variety = next(j for j in range(1, level + 1) if stock[j - 1] > 0)
                stock[variety - 1] -= 1
                choices.append(variety)
                served += 1
            else:
                choices.append(0)
    return tuple(choices)


def transform_T(
    v: Sequence[int],
    v_star: Sequence[int],
    u: Sequence[int],
    y: Sequence[int],
) -> tuple:
    """One variety-shift step toward v*: move a good from a lower variety up.

    Picks the highest variety j still under-spent relative to v*, then the
    highest variety i < j with a good to give back; increments v^j and
    decrements v^i. The result stays feasible for (u, y) and the remaining
    supply it leaves behind is weakly better ordered. Raises NotApplicable
    when no variety is under-spent: v equals v*, or overshoots it.
    """
    v, v_star = tuple(v), tuple(v_star)
    j = max((idx for idx in range(len(v)) if v[idx] < v_star[idx]), default=None)
    if j is None:
        raise NotApplicable(f"{v} is nowhere below the recursion's optimum {v_star}")
    candidates = [idx for idx in range(j) if v[idx] > 0]
    if not candidates:
        raise InfeasibleU(f"no donor variety below {j + 1}; {v} is not feasible for ({u}, {y})")
    i = max(candidates)
    out = list(v)
    out[j] += 1
    out[i] -= 1
    return tuple(out)


def transform_chain(v: Sequence[int], u: Sequence[int], y: Sequence[int]) -> list[tuple]:
    """All intermediate vectors from v to v*(u, y), inclusive of both ends."""
    target = dp.vstar(u, y)
    chain = [tuple(v)]
    guard = sum(y) + 1
    while chain[-1] != target:
        if len(chain) > guard:
            raise AssertionError(f"transform loop did not terminate from {v}")
        chain.append(transform_T(chain[-1], target, u, y))
    return chain


# ---------------------------------------------------------------------------
# Table audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityViolation:
    t: int
    better: tuple  # supply vector that should dominate
    worse: tuple
    deficit: float  # C(worse) - C(better) beyond tolerance


def _dominates(y: tuple, z: tuple) -> bool:
    cy = cz = 0
    for a, b in zip(y, z):
        cy += a
        cz += b
        if cy < cz:
            return False
    return True


def check_monotonicity(tables: ValueTables, tol: float = 1e-12) -> list[MonotonicityViolation]:
    """Scan every table layer for supply-order monotonicity violations.

    One scan over cumulative dominance: y should be worth at least z
    wherever every prefix sum of y reaches z's. That order holds every
    single shift too (one good moved from a higher to a lower variety index),
    so each violating pair is reported once. The slack is `tol` for every
    table, exact or sampled; standard errors give no allowance.
    """
    out: list[MonotonicityViolation] = []
    for t, layer_states in tables.states.items():
        vals = tables.values[t]
        for yvec in layer_states:
            for z in layer_states:
                if yvec == z or not _dominates(yvec, z):
                    continue
                deficit = vals[z] - vals[yvec]
                if deficit > tol:
                    out.append(MonotonicityViolation(t, yvec, z, deficit))
    return out


@dataclass(frozen=True)
class OpportunityCostViolation:
    kind: str       # "level" | "supply" | "diminishing"
    t: int
    y: tuple        # supply vector the comparison starts from
    i: int | None   # variety added ("supply") or taken away ("diminishing"); None for "level"
    j: int          # flexibility level ("level", "supply") or variety added ("diminishing")
    excess: float   # left side minus right side of the ordering, beyond tolerance


def _shift(y: tuple, i: int, by: int) -> tuple:
    """y with `by` added to variety i (1-based)."""
    return (*y[:i - 1], y[i - 1] + by, *y[i:])


def check_opportunity_costs(tables: ValueTables,
                            tol: float = 1e-12) -> list[OpportunityCostViolation]:
    """Scan every period's opportunity costs for the paper's three threshold
    orderings, with gap(y, j) = `dp.continuation_gap(tables, t, y, j)` and
    C = `tables.continuation_fn(t)`:

    - level: gap(y, j + 1) <= gap(y, j), so a more flexible consumer's cost
      is never above a less flexible one's;
    - supply: gap(y + e_i, j) <= gap(y, j), so one more good of any variety
      never raises a cost;
    - diminishing: C(y + e_j) - C(y + e_j - e_i) <= C(y) - C(y - e_i), so a
      good is worth no more on top of a larger stock.

    Every pair is taken inside the period's reachable box, and a gap with
    no good a level-j consumer accepts (y_1 = ... = y_j = 0) is skipped. A
    comparison whose left side exceeds its right by more than `tol` is a
    violation; standard errors give no allowance.
    """
    out: list[OpportunityCostViolation] = []
    k = tables.config.varieties
    for t in range(1, tables.config.horizon + 1):
        box = set(tables.states[t])
        cont = tables.continuation_fn(t)

        def gap(y: tuple, j: int) -> float:
            return dp.continuation_gap(tables, t, y, j)

        def record(kind: str, y: tuple, i: int | None, j: int, excess: float) -> None:
            if excess > tol:
                out.append(OpportunityCostViolation(kind, t, y, i, j, excess))

        for y in tables.states[t]:
            for j in range(1, k):
                if any(y[:j]):
                    record("level", y, None, j, gap(y, j + 1) - gap(y, j))
            for i in range(1, k + 1):
                up = _shift(y, i, 1)
                if up in box:
                    for j in range(1, k + 1):
                        if any(y[:j]):
                            record("supply", y, i, j, gap(up, j) - gap(y, j))
            for i in range(1, k + 1):
                if not y[i - 1]:
                    continue
                cost = cont(y) - cont(_shift(y, i, -1))
                for j in range(1, k + 1):
                    up = _shift(y, j, 1)
                    if up in box:
                        record("diminishing", y, i, j, cont(up) - cont(_shift(up, i, -1)) - cost)
    return out


# ---------------------------------------------------------------------------
# Random desk-scale instances and the verification suite
# ---------------------------------------------------------------------------

def random_instance(seed: int, master_seed: int = 0) -> MarketConfig:
    """Seeded desk-scale instance: k <= 3, T <= 3, n <= 2, one good at most per draw.

    Even seeds get truncated-exponential type families (rates drawn without
    ordering, so regularity across levels is not guaranteed); odd seeds get
    random tabulated densities. The dynamic-program identities under test do
    not require regularity.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, seed]))
    k = int(rng.integers(1, 4))
    T = int(rng.integers(1, 4))
    n_max = int(rng.integers(1, 3))
    G = int(rng.integers(2, 6))
    grid = ValuationGrid.uniform(0.0, 1.0, G)

    arrivals = ArrivalDistribution.from_lists(
        [rng.dirichlet(np.ones(n_max + 1)) for _ in range(T)]
    )
    supply = SupplyDistribution.from_lists(
        [[_bernoulli(rng) for _ in range(k)] for _ in range(T)]
    )
    flex = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(T)])

    if seed % 2 == 0:
        types = truncated_exponential(rng.uniform(0.5, 4.0, size=k), grid, T, flex)
    else:
        raw = rng.uniform(0.2, 2.0, size=(T, k, G))
        widths = np.diff(grid.points)
        cdf = np.zeros_like(raw)
        cdf[..., 1:] = np.cumsum((raw[..., :-1] + raw[..., 1:]) / 2.0 * widths, axis=-1)
        norm = cdf[..., -1:].copy()
        types = TypeDistribution.from_tables(flex, raw / norm, cdf / norm)

    return MarketConfig(horizon=T, varieties=k, grid=grid,
                        types=types, arrivals=arrivals, supply=supply)


def _bernoulli(rng) -> list[float]:
    q = float(rng.uniform(0.05, 0.95))
    return [1.0 - q, q]


@dataclass
class CheckResult:
    name: str
    instance_seed: int
    passed: bool
    worst: float = 0.0
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _count_vectors(k: int, n_max: int) -> list[tuple]:
    return [c for c in itertools.product(range(n_max + 1), repeat=k) if sum(c) <= n_max]


def _check_variety_set(u: tuple, y: tuple, conts: list) -> tuple[dict, bool, bool, float]:
    """The walk's checks that read only (u, y), and the continuations of the
    periods whose states contain y.

    v* must lie in the variety set and maximize every continuation over it;
    each variety-shift chain must reach v* within sum(y) steps inside the set
    without lowering any continuation. Returns the variety set as
    {v: remaining supply}, the v* and chain verdicts, and the worst v*
    optimality gap.
    """
    left = {v: tuple(a - b for a, b in zip(y, v)) for v in feasible_variety_set(u, y)}
    # dp.vstar looked up dynamically: it is the unit under audit
    try:
        v_opt = dp.vstar(u, y)
    except InfeasibleU:
        return left, False, True, 0.0
    if v_opt not in left:
        return left, False, True, 0.0
    vs_ok = chain_ok = True
    worst = 0.0
    chains = []
    for v in left:
        try:
            chain = transform_chain(v, u, y)
        except (InfeasibleU, NotApplicable, AssertionError):
            chain_ok = False
            continue
        if chain[-1] != v_opt or len(chain) - 1 > sum(y) or not set(chain) <= left.keys():
            chain_ok = False
        else:
            chains.append(chain)
    for cont in conts:
        best, got = max(cont(m) for m in left.values()), cont(left[v_opt])
        if got != best:
            vs_ok = False
            worst = max(worst, abs(best - got))
        for chain in chains:
            seen = [cont(left[step]) for step in chain]
            if any(b < a for a, b in zip(seen, seen[1:])):
                chain_ok = False
    return left, vs_ok, chain_ok, worst


def verify_instance(cfg: MarketConfig, seed: int, matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> list[CheckResult]:
    """Run every oracle check on one instance; returns one result per check.

    One private memo of matrix projections serves the whole call: the
    brute-force build and the walk read it, so each (flexibilities, y) pair
    is enumerated once (see `brute_stage_value` for why its de-duplicated
    max is exact). The walk visits each (counts, y) pair once, y over every
    table state, and checks there the service-set projection and, per
    service vector u, the variety-set projection and the constructive
    allocation. The checks that read only (u, y) run once per (u, y) pair:
    the variety set, v* and the transform chains, with v* optimality and
    chain monotonicity under each period whose states contain y.
    """
    results: list[CheckResult] = []
    memo: dict = {}
    tables = dp.build_value_tables(cfg)
    brute = build_brute_tables(cfg, matrix_budget=matrix_budget, memo=memo)
    k = cfg.varieties

    # master equivalence of the two recursions, bit for bit
    worst = 0.0
    equal = True
    for t in tables.states:
        for y in tables.states[t]:
            a, b = tables.values[t][y], brute.values[t][y]
            if a != b:
                equal = False
                worst = max(worst, abs(a - b))
    results.append(CheckResult("master_equivalence", seed, equal, worst))

    all_states = sorted({y for states in tables.states.values() for y in states})
    conts = {t: tables.continuation_fn(t) for t in range(1, cfg.horizon + 1)}
    conts_at = {y: [cont for t, cont in conts.items() if y in tables.values[t]] for y in all_states}
    variety_sets: dict[tuple, dict] = {}  # (u, y) -> {v: remaining supply}
    svc_ok = var_ok = vs_ok = chain_ok = constructive_ok = True
    worst = 0.0
    for counts in _count_vectors(k, cfg.arrivals.n_max):
        flexibilities = tuple(lvl + 1 for lvl, c in enumerate(counts) for _ in range(c))
        for y in all_states:
            # service/variety set projections against full matrix enumeration
            by_service: dict[tuple, set] = {}
            for served, remaining in _matrix_projections(memo, flexibilities, y, matrix_budget):
                u = [0] * k
                for row in served:
                    u[flexibilities[row] - 1] += 1
                by_service.setdefault(tuple(u), set()).add(remaining)
            services = feasible_service_set(counts, y)
            if set(by_service) != set(services):
                svc_ok = False
            for u in services:
                left = variety_sets.get((u, y))
                if left is None:
                    left, u_vs_ok, u_chain_ok, gap = _check_variety_set(u, y, conts_at[y])
                    variety_sets[u, y] = left
                    vs_ok &= u_vs_ok
                    chain_ok &= u_chain_ok
                    worst = max(worst, gap)
                if by_service.get(u, set()) != set(left.values()):
                    var_ok = False
                mat = constructive_allocation(u, counts, y)
                if service_of(mat, flexibilities, k) != u:
                    constructive_ok = False
                if any(a > b for a, b in zip(varieties_of(mat, k), y)):
                    constructive_ok = False
    results.append(CheckResult("service_set_projection", seed, svc_ok))
    results.append(CheckResult("variety_set_projection", seed, var_ok))
    results.append(CheckResult("vstar_optimality", seed, vs_ok, worst))
    results.append(CheckResult("transform_chain", seed, chain_ok))
    results.append(CheckResult("constructive_allocation", seed, constructive_ok))

    violations = check_monotonicity(tables)
    results.append(CheckResult(
        "monotonicity", seed, not violations,
        max((v.deficit for v in violations), default=0.0),
    ))
    return results


def run_verification(
    instances: int = 200,
    master_seed: int = 0,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
) -> dict:
    """Oracle suite over the first `instances` seeds of the instance family;
    a JSON-ready report with every check in order. Raises ValueError for
    fewer than one instance, which would pass vacuously."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    checks: list[CheckResult] = []
    for seed in range(instances):
        cfg = random_instance(seed, master_seed=master_seed)
        checks.extend(verify_instance(cfg, seed, matrix_budget=matrix_budget))
    failed = [c for c in checks if not c.passed]
    return {
        "instances": instances,
        "master_seed": master_seed,
        "passed": not failed,
        "failed_seeds": sorted({c.instance_seed for c in failed}),
        "checks": [c.to_json() for c in checks],
    }
