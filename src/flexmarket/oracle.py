"""Brute-force ground truth for the solver.

Everything here enumerates: the feasible service and variety sets,
feasible allocation matrices row by row, the full-matrix per-period
maximization, the service-vector stage as an argmax over every feasible u,
the report-set expectation over every ordered profile, the greedy
constructive allocation, and the variety-shift transformation with its
convergence loop. These routines are test fixtures at desk scale,
deliberately independent of the threshold-form stage and the service/
variety-vector shortcuts they certify, and they refuse (rather than
truncate) when an enumeration budget is hit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dp
from .dp import ValueTables
from .errors import BudgetExceeded, InfeasibleU, NotApplicable
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

    Returned in lexicographic order. With no consumers present the only
    member is the zero vector.
    """
    k = len(y)
    cum_y = list(itertools.accumulate(y))
    out: list[tuple] = []

    def extend(prefix: list[int], j: int, cum_u: int) -> None:
        if j == k:
            out.append(tuple(prefix))
            return
        cap = min(counts[j], cum_y[j] - cum_u)
        for uj in range(cap + 1):
            prefix.append(uj)
            extend(prefix, j + 1, cum_u + uj)
            prefix.pop()

    extend([], 0, 0)
    return out


def feasible_variety_set(u: Sequence[int], y: Sequence[int]) -> list[tuple]:
    """All variety vectors that can fulfil service vector u from supply y.

    v^j <= y^j per variety, cumulative v covers cumulative u at every prefix,
    and total v equals total u. Returned in lexicographic order.
    """
    k = len(y)
    total_u = sum(u)
    cum_u = list(itertools.accumulate(u))
    tail_y = [sum(y[j:]) for j in range(k)] + [0]
    out: list[tuple] = []

    def extend(prefix: list[int], j: int, cum_v: int) -> None:
        if j == k:
            if cum_v == total_u:
                out.append(tuple(prefix))
            return
        for vj in range(y[j] + 1):
            c = cum_v + vj
            if c > total_u:
                break
            if j < k - 1 and c < cum_u[j]:
                continue
            if c + tail_y[j + 1] < total_u:
                continue
            prefix.append(vj)
            extend(prefix, j + 1, c)
            prefix.pop()

    extend([], 0, 0)
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
    Raises BudgetExceeded instead of returning a truncated set.
    """
    upper = math.prod(b + 1 for b in flexibilities) if flexibilities else 1
    if upper > budget * 16:
        raise BudgetExceeded(f"row-choice space {upper} far exceeds budget {budget}")

    out: list[tuple] = []
    remaining = list(y)

    def extend(row: int, prefix: list[int]) -> None:
        if row == len(flexibilities):
            if len(out) >= budget:
                raise BudgetExceeded(f"feasible matrix count exceeds budget {budget}")
            out.append(tuple(prefix))
            return
        for choice in range(flexibilities[row] + 1):
            if choice > 0:
                if remaining[choice - 1] == 0:
                    continue
                remaining[choice - 1] -= 1
            prefix.append(choice)
            extend(row + 1, prefix)
            prefix.pop()
            if choice > 0:
                remaining[choice - 1] += 1

    extend(0, [])
    return out


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


# ---------------------------------------------------------------------------
# Full-matrix stage maximization
# ---------------------------------------------------------------------------

def brute_stage_value(
    t: int,
    consumers: Sequence[tuple],
    y: Sequence[int],
    cont: Callable[[tuple], float],
    budget: int = DEFAULT_MATRIX_BUDGET,
) -> float:
    """Maximize served virtual surplus plus continuation over all matrices.

    `consumers` lists (flexibility, virtual valuation) pairs in arrival
    order; with no consumers the value is the continuation of y untouched.
    """
    y = tuple(y)
    if not consumers:
        return cont(y)
    flexibilities = [b for b, _w in consumers]
    best = None
    for choices in enumerate_feasible_matrices(flexibilities, y, budget=budget):
        spent = varieties_of(choices, len(y))
        parts = [w for (c, (_b, w)) in zip(choices, consumers) if c > 0]
        parts.append(cont(tuple(a - b for a, b in zip(y, spent))))
        value = math.fsum(parts)
        if best is None or value > best:
            best = value
    return best


def _brute_stage(t, summary: dp.SortedReportSummary, y, cont, budget=DEFAULT_MATRIX_BUDGET):
    consumers = tuple((j + 1, w) for j, ws in enumerate(summary.w_sorted) for w in ws)
    return brute_stage_value(t, consumers, y, cont, budget=budget)


def build_brute_tables(cfg: MarketConfig, matrix_budget: int = DEFAULT_MATRIX_BUDGET, **kwargs) -> ValueTables:
    """Value tables from the unsimplified full-matrix recursion.

    Shares the profile enumeration, the per-servable-multiset stage memo and
    the accumulation of the solver build, so any difference from the
    solver's tables is a stage-maximization bug. The memo is exact here too:
    a level-j consumer only takes varieties 1..j, so swapping a served report
    for a better unserved one of its level keeps the goods spent and cannot
    lower the correctly rounded sum.
    """
    def stage(t, summary, y, cont):
        return _brute_stage(t, summary, y, cont, budget=matrix_budget)

    tables = dp.build_value_tables(cfg, stage_fn=stage, **kwargs)
    tables.backend = "exact-brute"
    return tables


def reference_stage_value(
    t: int,
    summary: dp.SortedReportSummary,
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
    for u in feasible_service_set(summary.counts, y):
        v = dp.vstar(u, y)
        parts = [w for ws, uj in zip(summary.w_sorted, u) for w in ws[:uj]]
        parts.append(cont(tuple(a - b for a, b in zip(y, v))))
        value = math.fsum(parts)
        if best is None or value > best.value:
            best = dp.StageResult(value, u, v)
    assert best is not None  # zero vector is always feasible
    return best


def reference_expected_stage(cfg: MarketConfig, t: int, y: tuple, cont, stage_fn) -> float:
    """Report-set expectation of one stage, calling `stage_fn` on every ordered profile.

    The slow path behind the exact backend: the same profiles, products and
    compensated sum as `build_value_tables`, without its per-multiset memo.
    Each stage gets the whole profile's summary, not clipped to the servable
    reports, so this also checks the clipping: an exact table entry must
    equal this value bit for bit.
    """
    atoms = cfg.consumer_atoms(t)
    lam = cfg.arrivals.pmf(t)
    acc = dp.KahanSum()
    for n in range(len(lam)):
        lam_n = float(lam[n])
        if lam_n == 0.0:
            continue
        for combo in itertools.product(atoms, repeat=n):
            prob = lam_n
            for _b, _i, p, _w in combo:
                prob *= p
            summary = dp.SortedReportSummary.from_consumers(
                [(b, w) for b, _i, _p, w in combo], cfg.varieties)
            acc.add(prob * stage_fn(t, summary, y, cont))
    return acc.total


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
    supply it leaves behind is weakly better ordered.
    """
    v, v_star = tuple(v), tuple(v_star)
    if v == v_star:
        raise NotApplicable("vector already equals the recursion's optimum")
    j = max(idx for idx in range(len(v)) if v[idx] < v_star[idx])
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
    kind: str      # "single_shift" | "cumulative_dominance"
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


def check_monotonicity(tables: ValueTables, tol: float | None = None) -> list[MonotonicityViolation]:
    """Scan every table layer for supply-order monotonicity violations.

    Checks both the single-shift order (one good moved from a higher to a
    lower variety index) and cumulative dominance. The slack is `tol` when
    given, else 1e-12 plus three combined standard errors of the two entries:
    exact tables store zero errors, so they are held to 1e-12, and every
    sampled table, whatever its stage rule, gets its own errors' allowance.
    """
    out: list[MonotonicityViolation] = []
    k = tables.config.varieties
    for t, layer_states in tables.states.items():
        vals = tables.values[t]
        errs = tables.stderrs[t]
        in_layer = set(layer_states)
        for z in layer_states:
            for j in range(1, k):
                if z[j] == 0:
                    continue
                for i in range(j):
                    yvec = tuple(
                        c + (1 if l == i else -1 if l == j else 0) for l, c in enumerate(z)
                    )
                    if yvec not in in_layer:
                        continue
                    slack = tol if tol is not None else 1e-12 + 3.0 * math.hypot(errs[yvec], errs[z])
                    deficit = vals[z] - vals[yvec]
                    if deficit > slack:
                        out.append(MonotonicityViolation("single_shift", t, yvec, z, deficit))
        for yvec in layer_states:
            for z in layer_states:
                if yvec == z or not _dominates(yvec, z):
                    continue
                slack = tol if tol is not None else 1e-12 + 3.0 * math.hypot(errs[yvec], errs[z])
                deficit = vals[z] - vals[yvec]
                if deficit > slack:
                    out.append(MonotonicityViolation("cumulative_dominance", t, yvec, z, deficit))
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
        return {
            "name": self.name,
            "instance_seed": self.instance_seed,
            "passed": self.passed,
            "worst": self.worst,
            "detail": self.detail,
        }


def _count_vectors(k: int, n_max: int) -> list[tuple]:
    return [c for c in itertools.product(range(n_max + 1), repeat=k) if sum(c) <= n_max]


def verify_instance(cfg: MarketConfig, seed: int, matrix_budget: int = DEFAULT_MATRIX_BUDGET) -> list[CheckResult]:
    """Run every oracle check on one instance; returns one result per check.

    Walks each (counts, y) pair once, y over every table state: the feasible
    matrices, service and variety sets and every period-independent check are
    built once; v* optimality and chain monotonicity, which read the
    continuation, run once per period whose states contain y.
    """
    results: list[CheckResult] = []
    tables = dp.build_value_tables(cfg)
    brute = build_brute_tables(cfg, matrix_budget=matrix_budget)
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
    svc_ok = var_ok = vs_ok = chain_ok = constructive_ok = True
    worst = 0.0
    for counts in _count_vectors(k, cfg.arrivals.n_max):
        flexibilities = [lvl + 1 for lvl, c in enumerate(counts) for _ in range(c)]
        for y in all_states:
            # service/variety set projections against full matrix enumeration
            by_service: dict[tuple, set] = {}
            for m in enumerate_feasible_matrices(flexibilities, y, budget=matrix_budget):
                by_service.setdefault(service_of(m, flexibilities, k), set()).add(varieties_of(m, k))
            services = feasible_service_set(counts, y)
            if set(by_service) != set(services):
                svc_ok = False
            for u in services:
                left = {v: tuple(a - b for a, b in zip(y, v)) for v in feasible_variety_set(u, y)}
                if by_service.get(u, set()) != set(left):
                    var_ok = False
                # variety recursion: membership, then exact optimality under the
                # built tables (dp.vstar looked up dynamically: it is the unit under audit)
                try:
                    v_opt = dp.vstar(u, y)
                except InfeasibleU:
                    vs_ok = False
                    continue
                if v_opt not in left:
                    vs_ok = False
                    continue
                chains = []
                for v in left:
                    try:
                        chain = transform_chain(v, u, y)
                    except (InfeasibleU, NotApplicable, AssertionError):
                        chain_ok = False
                        continue
                    if (chain[-1] != v_opt or len(chain) - 1 > sum(y)
                            or not set(chain) <= left.keys()):
                        chain_ok = False
                    else:
                        chains.append(chain)
                mat = constructive_allocation(u, counts, y)
                if service_of(mat, flexibilities, k) != u:
                    constructive_ok = False
                if any(a > b for a, b in zip(varieties_of(mat, k), y)):
                    constructive_ok = False
                for t, cont in conts.items():
                    if y not in tables.values[t]:
                        continue
                    best, got = max(cont(m) for m in left.values()), cont(left[v_opt])
                    if got != best:
                        vs_ok = False
                        worst = max(worst, abs(best - got))
                    for chain in chains:
                        seen = [cont(left[step]) for step in chain]
                        if any(b < a for a, b in zip(seen, seen[1:])):
                            chain_ok = False
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
    """Oracle suite over the seeded instance family; JSON-ready report."""
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
