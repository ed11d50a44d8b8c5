import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import flexmarket as fm
from flexmarket import (
    BudgetExceeded, InfeasibleU, NotApplicable, OffGridValue, config_io, dp, oracle, simulate,
)
from flexmarket.market import truncated_exponential
from flexmarket.oracle import (
    OpportunityCostViolation,
    check_monotonicity,
    check_opportunity_costs,
    constructive_allocation,
    enumerate_feasible_matrices,
    random_instance,
    transform_T,
    transform_chain,
    varieties_of,
    verify_instance,
)


# -- matrix enumeration -------------------------------------------------------------

def test_enumerate_examples():
    assert set(enumerate_feasible_matrices([2], (1, 1))) == {(0,), (1,), (2,)}
    assert enumerate_feasible_matrices([], (1, 1)) == [()]
    assert set(enumerate_feasible_matrices([1, 1], (1, 0))) == {(0, 0), (0, 1), (1, 0)}


def test_enumerate_respects_column_budgets():
    mats = enumerate_feasible_matrices([2, 2, 2], (1, 1))
    for m in mats:
        assert all(s <= cap for s, cap in zip(varieties_of(m, 2), (1, 1)))
    # two goods total, three consumers: nobody-served up to two-served
    assert max(sum(1 for c in m if c) for c in mats for m in [c]) <= 2


def test_enumerate_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_feasible_matrices([3] * 10, (9, 9, 9), budget=10)


@pytest.mark.parametrize("level", [-1, 0, 3])
def test_out_of_range_flexibility_is_off_grid(level):
    """A level outside 1..k is refused, not treated as unservable nor an IndexError."""
    with pytest.raises(OffGridValue):
        enumerate_feasible_matrices([level], (1, 1))
    with pytest.raises(OffGridValue):
        oracle.brute_stage_value(1, [(level, 0.5)], (1, 1), lambda m: 0.0)


def _cumulative_at_most(a, b):
    return all(x <= z for x, z in zip(itertools.accumulate(a), itertools.accumulate(b)))


def test_enumerators_match_their_definitions():
    """Each enumerator returns exactly its definition's members, in the
    lexicographic order of `itertools.product` over the raw ranges: the
    reference stage's tie rule and the brute stage's first-seen max read it."""
    rng = np.random.default_rng(2024)
    for _ in range(600):
        k = int(rng.integers(1, 5))
        y, counts, u = (tuple(int(a) for a in rng.integers(0, 4, size=k)) for _ in range(3))
        assert oracle.feasible_service_set(counts, y) == [
            s for s in itertools.product(*(range(c + 1) for c in counts))
            if _cumulative_at_most(s, y)]
        # u is drawn freely, so it is often infeasible and the set empty
        assert oracle.feasible_variety_set(u, y) == [
            v for v in itertools.product(*(range(a + 1) for a in y))
            if _cumulative_at_most(u, v) and sum(v) == sum(u)]
        flex = tuple(int(b) for b in rng.integers(1, k + 1, size=int(rng.integers(0, 5))))
        space = list(itertools.product(*(range(b + 1) for b in flex)))
        mats = [m for m in space if all(m.count(j + 1) <= a for j, a in enumerate(y))]
        for budget in (1, 2, oracle.DEFAULT_MATRIX_BUDGET):
            if len(space) > 16 * budget or len(mats) > budget:
                with pytest.raises(BudgetExceeded):
                    enumerate_feasible_matrices(flex, y, budget=budget)
            else:
                assert enumerate_feasible_matrices(flex, y, budget=budget) == mats


def test_brute_stage_empty_reports():
    assert oracle.brute_stage_value(1, [], (1, 1), lambda m: 1.5 + sum(m)) == 3.5


def test_brute_stage_terminal_single_consumer(small_cfg):
    """Terminal period, one consumer: value is max(w, 0)."""
    for val in (0.2, 0.5, 0.9):
        w = fm.virtual_valuation(small_cfg, 2, val, 1)
        got = oracle.brute_stage_value(2, [(1, w)], (1, 1), lambda m: 0.0)
        assert got == max(w, 0.0)


def test_matrix_projections_match_their_definition():
    """Each matrix's (served rows, y minus the goods it spends), de-duplicated
    in first-seen order, for every level-sorted flexibility tuple of up to
    three consumers, k <= 3 and up to 2 goods per variety: first-seen order
    decides whether 0.0 or -0.0 wins a tie in `brute_stage_value`."""
    for k in (1, 2, 3):
        for y in itertools.product(range(3), repeat=k):
            for n in range(4):
                for flex in itertools.combinations_with_replacement(range(1, k + 1), n):
                    want: dict = {}
                    for m in enumerate_feasible_matrices(flex, y):
                        served = tuple(row for row, c in enumerate(m) if c > 0)
                        want[served, tuple(a - b for a, b in zip(y, varieties_of(m, k)))] = None
                    memo: dict = {}
                    got = oracle._matrix_projections(memo, flex, y, oracle.DEFAULT_MATRIX_BUDGET)
                    assert got == list(want), (flex, y)
                    assert memo == {(flex, y): got}


# -- constructive allocation -----------------------------------------------------------

def test_constructive_examples():
    assert constructive_allocation((1, 1), (1, 1), (1, 1)) == (1, 2)
    assert constructive_allocation((0, 0), (2, 1), (1, 1)) == (0, 0, 0)
    assert constructive_allocation((0, 2), (0, 2), (1, 1)) == (1, 2)


def test_constructive_greedy_prefers_low_varieties():
    """Level-2 consumers drain variety 1 before touching variety 2."""
    assert constructive_allocation((0, 2), (0, 3), (2, 2)) == (1, 1, 0)


def test_constructive_matches_row_by_row_greedy():
    """Row by row over the level blocks, the first u^j rows of block j each
    take the lowest variety in stock among 1..j: every feasible (u, counts,
    y) with k <= 3 and up to 2 consumers and goods per level."""
    for k in (1, 2, 3):
        for y, counts in itertools.product(itertools.product(range(3), repeat=k), repeat=2):
            for u in oracle.feasible_service_set(counts, y):
                stock, want = list(y), []
                for level, (uj, cj) in enumerate(zip(u, counts), 1):
                    for row in range(cj):
                        variety = 0
                        if row < uj:
                            variety = next(j for j in range(1, level + 1) if stock[j - 1])
                            stock[variety - 1] -= 1
                        want.append(variety)
                assert constructive_allocation(u, counts, y) == tuple(want), (u, counts, y)


def test_constructive_rejects_infeasible():
    with pytest.raises(InfeasibleU):
        constructive_allocation((2, 0), (2, 0), (1, 1))
    with pytest.raises(InfeasibleU):
        constructive_allocation((1, 0), (0, 1), (1, 1))  # more served than present


# -- the variety-shift transformation ----------------------------------------------------

def test_transform_examples():
    with pytest.raises(NotApplicable):
        transform_T((1, 1), (1, 1), (0, 2), (1, 1))
    with pytest.raises(NotApplicable):  # overshoots v* in variety 1
        transform_T((2, 1), (1, 1), (0, 2), (2, 1))
    assert transform_T((1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 1, 1)) == (1, 0, 1)


def test_transform_chain_example():
    chain = transform_chain((1, 1, 0), (0, 0, 2), (1, 1, 1))
    assert chain[0] == (1, 1, 0) and chain[-1] == dp.vstar((0, 0, 2), (1, 1, 1))
    assert len(chain) - 1 <= 3


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_transform_chain_terminates_within_supply_bound(data):
    k = data.draw(st.integers(2, 4))
    y = tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    counts = tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    for u in oracle.feasible_service_set(counts, y):
        vset = oracle.feasible_variety_set(u, y)
        for v in vset:
            chain = transform_chain(v, u, y)
            assert len(chain) - 1 <= sum(y)
            assert all(step in set(vset) for step in chain)


# -- table audits ----------------------------------------------------------------------

def test_check_monotonicity_passes_on_solver_tables(small_tables):
    assert check_monotonicity(small_tables) == []


def test_check_monotonicity_flags_corrupted_table(small_tables):
    """Force C(1,0) < C(0,1): a variety-1 good must never be worth less."""
    corrupted = dataclasses.replace(
        small_tables,
        values={t: dict(layer) for t, layer in small_tables.values.items()},
    )
    corrupted.values[2][(1, 0)] = corrupted.values[2][(0, 1)] - 0.01
    found = check_monotonicity(corrupted)
    assert found
    assert any(v.t == 2 and v.better == (1, 0) and v.worse == (0, 1) for v in found)


def test_check_monotonicity_reports_each_pair_once(small_tables):
    """(1, 0) against (0, 1) is both a single shift and a dominance pair; the
    scan reports it, and every other violating pair, exactly once."""
    corrupted = dataclasses.replace(
        small_tables,
        values={t: dict(layer) for t, layer in small_tables.values.items()},
    )
    corrupted.values[2][(1, 0)] = corrupted.values[2][(0, 1)] - 0.01
    pairs = [(v.t, v.better, v.worse) for v in check_monotonicity(corrupted)]
    assert pairs.count((2, (1, 0), (0, 1))) == 1
    assert len(pairs) == len(set(pairs))


def test_opportunity_costs_ordered_on_family():
    """The level, supply and diminishing-cost orderings hold on the exact
    tables of family instances 0-39."""
    for seed in range(40):
        assert check_opportunity_costs(fm.build_value_tables(random_instance(seed))) == [], seed


def test_opportunity_costs_ordered_on_a_k3_market():
    """And on an exact three-variety, three-period market with supply
    arriving every period: perfbench's mc-market model at G=5."""
    cfg = config_io.parse_config({
        "horizon": 3, "varieties": 3, "grid": {"min": 0.0, "max": 1.0, "points": 5},
        "arrivals": [[0.25] * 4] * 3, "supply": [[[1 / 3] * 3] * 3] * 3,
        "types": {"family": "truncated_exponential", "alpha": [1.0, 2.0, 3.0]},
    })
    assert check_opportunity_costs(fm.build_value_tables(cfg)) == []


def _perturbed(tables, y, by):
    """`tables` with C_2(y) moved by `by`."""
    values = {t: dict(layer) for t, layer in tables.values.items()}
    values[2][y] += by
    return dataclasses.replace(tables, values=values)


def test_opportunity_cost_check_catches_a_perturbed_entry(small_tables):
    """One entry moved breaks the orderings it enters: C_2((0, 1)) raised
    above C_2((1, 0)) makes a level-2 consumer's cost at y = (1, 1) exceed a
    level-1 consumer's, and C_2((1, 0)) lowered breaks all three."""
    assert check_opportunity_costs(small_tables) == []
    raised = _perturbed(small_tables, (0, 1), 0.05)
    cont = raised.continuation_fn(1)
    excess = (cont((1, 1)) - cont((1, 0))) - (cont((1, 1)) - cont((0, 1)))
    assert excess > 0.01
    assert check_opportunity_costs(raised) == [
        OpportunityCostViolation("level", 1, (1, 1), None, 1, excess)]
    lowered = check_opportunity_costs(_perturbed(small_tables, (1, 0), -0.05))
    assert {v.kind for v in lowered} == {"level", "supply", "diminishing"}
    assert all(v.t == 1 and v.excess > 1e-12 for v in lowered)


def _sampled_myopic_tables():
    """Myopic k=2 tables from 20 mc draws at seed 1, which break monotonicity."""
    bern = [0.5, 0.5]
    cfg = config_io.parse_config({
        "horizon": 2, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 21},
        "arrivals": [[1 / 3] * 3] * 2, "supply": [[bern, bern]] * 2,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })
    return simulate.build_myopic_tables(cfg, backend="mc", samples=20, seed=1)


def test_check_monotonicity_slack_is_tol_alone():
    """The slack is `tol` alone: it reads neither the backend's label nor the
    standard errors. Sampled myopic tables get what the same tables labelled
    "mc" get, and a 1e-6 deficit is a violation at the default `tol` even
    where every standard error is 1.0."""
    myopic = _sampled_myopic_tables()
    assert myopic.backend == "mc-myopic"
    relabelled = dataclasses.replace(myopic, backend="mc")
    assert check_monotonicity(myopic) == check_monotonicity(relabelled)

    values = {t: dict(layer) for t, layer in myopic.values.items()}
    values[2][(1, 0)] = values[2][(0, 1)] - 1e-6
    noisy = dataclasses.replace(myopic, values=values, stderrs={
        t: dict.fromkeys(layer, 1.0) for t, layer in myopic.stderrs.items()})
    found = {(v.t, v.better, v.worse): v.deficit for v in check_monotonicity(noisy)}
    assert found[2, (1, 0), (0, 1)] == pytest.approx(1e-6, rel=1e-6)


def test_check_monotonicity_matches_all_pairs_reference():
    """On tables that break monotonicity (20-draw mc tables at seed 1: the
    sampled myopic k=2 tables and a k=3 build), the scan returns what a plain
    all-pairs loop does: the same violations, in the same order, with the
    same deficits, at tol 0.0 and 1e-12."""
    k3 = fm.build_value_tables(_k3_market(2, 5), backend="mc", samples=20, seed=1)
    for tables in (_sampled_myopic_tables(), k3):
        for tol in (0.0, 1e-12):
            want = []
            for t, states in tables.states.items():
                vals = tables.values[t]
                for y in states:
                    for z in states:
                        dominates = all(a >= b for a, b in zip(itertools.accumulate(y),
                                                                itertools.accumulate(z)))
                        if y != z and dominates and vals[z] - vals[y] > tol:
                            want.append(oracle.MonotonicityViolation(t, y, z, vals[z] - vals[y]))
            assert want, (tables.config.varieties, tol)
            assert check_monotonicity(tables, tol=tol) == want


def test_check_monotonicity_trivial_on_terminal_layer(small_tables):
    layer = small_tables.values[3]
    assert all(v == 0.0 for v in layer.values())


# -- instance family and suite ------------------------------------------------------------

def test_random_instance_is_deterministic():
    a, b = random_instance(5), random_instance(5)
    assert fm.fingerprint(a) == fm.fingerprint(b)
    assert fm.fingerprint(random_instance(6)) != fm.fingerprint(a)
    assert fm.fingerprint(random_instance(5, master_seed=1)) != fm.fingerprint(a)


def test_random_instance_bounds():
    for seed in range(30):
        cfg = random_instance(seed)
        assert 1 <= cfg.varieties <= 3 and 1 <= cfg.horizon <= 3
        assert cfg.arrivals.n_max <= 2 and 2 <= cfg.grid.size <= 5
        for t in range(1, cfg.horizon + 1):
            for j in range(1, cfg.varieties + 1):
                assert cfg.supply.x_max(t, j) <= 1


def test_verify_instance_passes_on_family_sample():
    for seed in (0, 1, 2, 3):
        cfg = random_instance(seed)
        results = verify_instance(cfg, seed)
        assert all(c.passed for c in results), [c for c in results if not c.passed]


@pytest.mark.parametrize("instances", [0, -3])
def test_run_verification_refuses_no_instances(instances):
    """An empty family would pass vacuously."""
    with pytest.raises(ValueError, match="instances"):
        oracle.run_verification(instances=instances)


def test_verify_catches_injected_vstar_bug(monkeypatch):
    """An off-by-one in the recursion's min must trip the optimality check."""
    real_vstar = dp.vstar

    def broken(u, y):
        v = list(real_vstar(u, y))
        for j in range(len(v) - 1, -1, -1):
            if v[j] > 0 and any(v[i] < y[i] for i in range(j)):
                i = max(i for i in range(j) if v[i] < y[i])
                v[j] -= 1
                v[i] += 1
                break
        return tuple(v)

    monkeypatch.setattr(dp, "vstar", broken)
    failed = []
    for seed in range(10):
        cfg = random_instance(seed)
        failed += [c.name for c in verify_instance(cfg, seed) if not c.passed]
    assert "vstar_optimality" in failed


def _drop_last(real):
    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        return out[:-1] if len(out) > 1 else out
    return broken


def _stall(real):
    def broken(v, v_star, u, y):
        return tuple(v)
    return broken


def _overshoot(real):
    def broken(v, v_star, u, y):
        out = list(real(v, v_star, u, y))
        out[0] += 1  # one extra good in variety 1
        return tuple(out)
    return broken


def _serve_one_fewer(real):
    def broken(u, counts, y):
        choices = list(real(u, counts, y))
        served = [row for row, c in enumerate(choices) if c > 0]
        if served:
            choices[served[-1]] = 0
        return tuple(choices)
    return broken


def _refuse(real):
    def broken(*args):
        raise InfeasibleU("refused")
    return broken


def _drop_first(real):
    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        return out[1:] if len(out) > 1 else out
    return broken


def _lowest_varieties_first(real):
    """The last vector of the variety set: feasible for (u, y), but it spends
    the lowest varieties first, the opposite of the recursion."""
    def broken(u, y):
        return oracle.feasible_variety_set(u, y)[-1]
    return broken


def _pad(real):
    """The chain, then v* repeated sum(y) + 1 times: one step too many."""
    def broken(v, u, y):
        out = real(v, u, y)
        return out + [out[-1]] * (sum(y) + 1)
    return broken


def _detour(real):
    """The chain with its start replaced by a vector beyond the supply."""
    def broken(v, u, y):
        out = real(v, u, y)
        return [tuple(b + 1 for b in y), *out[1:]] if len(out) > 1 else out
    return broken


def _backtrack(real):
    """The chain from v, preceded by v*: its first step leaves the optimum."""
    def broken(v, u, y):
        out = real(v, u, y)
        return [out[-1], *out] if len(out) > 1 else out
    return broken


def _spend_variety_1(real):
    def broken(u, counts, y):
        return tuple(1 if c else 0 for c in real(u, counts, y))
    return broken


@pytest.mark.parametrize("target, mutate, check", [
    ("feasible_service_set", _drop_last, "service_set_projection"),
    ("feasible_variety_set", _drop_last, "variety_set_projection"),
    ("transform_T", _stall, "transform_chain"),
    ("transform_T", _overshoot, "transform_chain"),
    ("constructive_allocation", _serve_one_fewer, "constructive_allocation"),
    ("enumerate_feasible_matrices", _drop_last, "service_set_projection"),
    ("enumerate_feasible_matrices", _drop_last, "master_equivalence"),
    ("dp.vstar", _refuse, "vstar_optimality"),
    # v* is the lexicographically smallest variety vector, so the first one
    ("feasible_variety_set", _drop_first, "vstar_optimality"),
    # feasible but not optimal: spends the lowest varieties first
    ("dp.vstar", _lowest_varieties_first, "vstar_optimality"),
    ("transform_chain", _drop_last, "transform_chain"),
    ("transform_chain", _pad, "transform_chain"),
    ("transform_chain", _detour, "transform_chain"),
    ("transform_chain", _backtrack, "transform_chain"),
    ("constructive_allocation", _spend_variety_1, "constructive_allocation"),
])
def test_verify_catches_injected_oracle_bug(monkeypatch, target, mutate, check):
    """Each brute-force routine the walk reads, and the recursion under audit
    (`dp.vstar`), has a check that notices it lying."""
    module, _, name = target.rpartition(".")
    owner = dp if module == "dp" else oracle
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    failed = set()
    for seed in range(10):
        failed |= {c.name for c in verify_instance(random_instance(seed), seed) if not c.passed}
    assert check in failed


def test_verify_instance_enumerates_each_matrix_set_once(monkeypatch):
    """The brute-force build and the walk share one memo per verify_instance
    call: one enumeration per distinct (flexibilities, y), and a fresh memo
    for the next call."""
    real = oracle.enumerate_feasible_matrices
    calls = []

    def counted(flexibilities, y, **kwargs):
        calls.append((tuple(flexibilities), tuple(y)))
        return real(flexibilities, y, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_feasible_matrices", counted)
    for seed in range(10):
        calls.clear()
        assert all(c.passed for c in verify_instance(random_instance(seed), seed))
        assert len(calls) == len(set(calls)) > 0, seed


def test_memoised_brute_tables_equal_fresh_enumeration():
    """Brute tables whose every stage enumerates afresh equal the memoised build's."""
    def fresh(t, w_sorted, y, cont):
        consumers = [(j + 1, w) for j, ws in enumerate(w_sorted) for w in ws]
        return oracle.brute_stage_value(t, consumers, y, cont)

    for seed in range(40):
        cfg = random_instance(seed)
        want = dp.build_value_tables(cfg, stage_fn=fresh)
        got = oracle.build_brute_tables(cfg)
        assert {t: {y: v.hex() for y, v in layer.items()} for t, layer in got.values.items()} == \
            {t: {y: v.hex() for y, v in layer.items()} for t, layer in want.values.items()}, seed


def test_degenerate_single_variety_family_passes():
    """k = 1 leaves no variety choices; every check degenerates but still runs."""
    for seed in range(60):
        cfg = random_instance(seed)
        if cfg.varieties != 1:
            continue
        assert all(c.passed for c in verify_instance(cfg, seed))


# -- reference expectation ------------------------------------------------------------

def _exact_builds(cfg):
    return (
        (dp.build_value_tables(cfg), dp._optimal_stage),
        (oracle.build_brute_tables(cfg), oracle._brute_stage),
        (simulate.build_myopic_tables(cfg), simulate._myopic_stage),
    )


def _k3_market(horizon: int, points: int):
    """k=3 market with up to three arrivals and two goods per variety per draw."""
    return config_io.parse_config({
        "horizon": horizon, "varieties": 3,
        "grid": {"min": 0.0, "max": 1.0, "points": points},
        "arrivals": [[0.25] * 4] * horizon,
        "supply": [[[1 / 3] * 3] * 3] * horizon,
        "types": {"family": "truncated_exponential", "alpha": [1.0, 2.0, 3.0]},
    })


def _assert_matches_reference(tables, stage_fn):
    for t in range(1, tables.config.horizon + 1):
        for y in tables.states[t]:
            ref = oracle.reference_expected_stage(tables, t, y, stage_fn)
            assert tables.values[t][y].hex() == ref.hex(), (tables.backend, t, y)


def test_exact_tables_match_reference_expectation(small_cfg):
    """The memoised exact backend equals the plain ordered enumeration bit for bit,
    for the optimal, brute-force and myopic stages alike, on the family; for the
    optimal stage also on the worked example over three periods and on a k=3
    market of up to three arrivals at G=3 and G=4 (the latter pinned in
    `test_streams.TABLE_SHA256`), where most states clip the reports, the
    three-report profiles share two-report prefixes, and many final-period
    states serve a key whole."""
    cfgs = [small_cfg] + [random_instance(i, master_seed=0) for i in range(20)]
    for cfg in cfgs:
        for tables, stage_fn in _exact_builds(cfg):
            _assert_matches_reference(tables, stage_fn)
    for cfg in (fm.build_example_config((2.0, 3.0), 0.5, 3, 41), _k3_market(horizon=2, points=3),
                _k3_market(horizon=2, points=4)):
        _assert_matches_reference(dp.build_value_tables(cfg), dp._optimal_stage)


def _class_counts(cfg) -> list:
    """Per period, how many classes of capped cumulative supply its states form."""
    return [len({dp._supply_class(y, dp._demand_bound(cfg, t)) for y in dp.reachable_states(cfg, t)})
            for t in range(1, cfg.horizon + 1)]


def test_states_of_one_supply_class_match_reference_expectation():
    """The exact backend solves one state per class of capped cumulative
    supply, min(y_1 + ... + y_j, D_t), and gives its entry to the class;
    every state, the unsolved ones included, still equals the unmemoised
    reference expectation bit for bit, for the optimal and myopic stages.
    On `_k3_market(3, 2)` (D_t = 9, 6, 3) the 27/125/343 states of periods
    1-3 form 27/72/20 classes. With no chance of three arrivals, D_t falls
    to 6, 4, 2, and the classes to 27/35/10: D_t counts the largest arrival
    count of positive probability, not the PMF's length."""
    cfg = _k3_market(horizon=3, points=2)
    assert [len(dp.reachable_states(cfg, t)) for t in (1, 2, 3)] == [27, 125, 343]
    short = dataclasses.replace(
        cfg, arrivals=fm.ArrivalDistribution.from_lists([[0.5, 0.25, 0.25, 0.0]] * 3))
    assert (_class_counts(cfg), _class_counts(short)) == ([27, 72, 20], [27, 35, 10])
    for stage_fn, build in ((dp._optimal_stage, dp.build_value_tables),
                            (simulate._myopic_stage, simulate.build_myopic_tables)):
        _assert_matches_reference(build(cfg), stage_fn)
    _assert_matches_reference(dp.build_value_tables(short), dp._optimal_stage)


def test_whole_servable_rule_is_halls_condition():
    """`dp._whole`, the rule by which the final period shares a key across
    states, says y serves a set of reports at once exactly when serving all
    of them is a feasible service vector: per level j, the reports of levels
    1..j number at most y_1 + ... + y_j. Checked on family instances 0-39,
    for every count vector of at most n_max reports and every reachable
    state, and both verdicts occur where variety 1 alone falls short."""
    verdicts = set()
    for i in range(40):
        cfg = random_instance(i, master_seed=0)
        k = cfg.varieties
        n_max = max(len(cfg.arrivals.pmf(t)) - 1 for t in range(1, cfg.horizon + 1))
        level_of = [j for j in range(k) for _ in range(n_max)]   # n_max ranks per level
        states = {y for t in range(1, cfg.horizon + 1) for y in dp.reachable_states(cfg, t)}
        for counts in itertools.product(range(n_max + 1), repeat=k):
            if sum(counts) > n_max:
                continue
            key = tuple(j * n_max + r for j, c in enumerate(counts) for r in range(c))
            for y in states:
                whole = dp._whole(key, level_of, list(itertools.accumulate(y)))
                assert whole == (counts in oracle.feasible_service_set(counts, y)), (i, counts, y)
                if len(key) > y[0]:
                    verdicts.add(whole)
    assert verdicts == {True, False}


def _zero_atom_market():
    """k=3, T=2 market whose PMFs put zero mass on a flexibility level and on
    an arrival count in each period, and on a supply outcome at t=2."""
    grid = fm.ValuationGrid.uniform(0.0, 1.0, 5)
    return fm.MarketConfig(
        horizon=2, varieties=3, grid=grid,
        types=truncated_exponential([1.0, 2.0, 3.0], grid, 2,
                                    flex_pmf=[[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]),
        arrivals=fm.ArrivalDistribution.from_lists([[0.5, 0.0, 0.5], [0.0, 0.3, 0.7]]),
        supply=fm.SupplyDistribution.from_lists(
            [[[0.5, 0.5]] * 3, [[0.0, 1.0], [1.0], [0.5, 0.5]]]),
    )


def test_zero_probability_atoms_match_reference_expectation():
    """Levels and arrival counts of probability 0 contribute nothing: every
    exact build equals the reference expectation, which skips them too, and
    the instance passes every oracle check."""
    cfg = _zero_atom_market()
    assert {b for b, _i, _p, _w in cfg.consumer_atoms(1)} == {1, 3}
    assert {b for b, _i, _p, _w in cfg.consumer_atoms(2)} == {2}
    for tables, stage_fn in _exact_builds(cfg):
        _assert_matches_reference(tables, stage_fn)
    checks = verify_instance(cfg, seed=0)
    assert len(checks) == 7 and all(c.passed for c in checks)


def test_exact_entries_do_not_depend_on_term_order():
    """Every exact entry is the correctly rounded sum of its key terms, so
    the order of the keys cannot move a bit: on the first 40 instances, each
    state's terms, one per key as `oracle.reference_expected_stage` builds
    them (the key's exact probability, summed over its ordered profiles and
    rounded once, times its stage value), shuffled, sum to the table entry."""
    rng = random.Random(0)
    for i in range(40):
        cfg = random_instance(i, master_seed=0)
        tables = dp.build_value_tables(cfg)
        for t in range(1, cfg.horizon + 1):
            cont = tables.continuation_fn(t)
            drop = dp._non_decreasing(tables.values[t + 1])
            lam = cfg.arrivals.pmf(t)
            keys = {}  # (level, grid index) multiset -> [exact probability, summary]
            for n in range(len(lam)):
                if lam[n] > 0.0:
                    for combo in itertools.product(cfg.consumer_atoms(t), repeat=n):
                        kept = sorted((b, i, w) for b, i, _p, w in combo if w > 0.0 or not drop)
                        prob = math.prod([Fraction(float(lam[n])),
                                          *(Fraction(p) for _b, _i, p, _w in combo)])
                        summary = dp.summarize([(b, w) for b, _i, w in kept], cfg.varieties)
                        keys.setdefault(tuple(kept), [0, summary])[0] += prob
            for y in tables.states[t]:
                terms = [float(prob) * dp._optimal_stage(t, summary, y, cont)
                         for prob, summary in keys.values()]
                rng.shuffle(terms)
                assert math.fsum(terms).hex() == tables.values[t][y].hex(), (i, t, y)


def test_exact_entries_within_derived_bound_of_rational_expectation():
    """Every exact entry of family instances 0-39 and of the worked example
    at G=11 is within a bound derived from the law's error analysis of
    `oracle.rational_expected_layer`, V, the exact expectation of the float
    stage values with the float continuation held fixed. With u = 2**-53,
    the entry is the fsum over keys of fl(fl(W) * v), W a key's exact
    probability and v its stage value: the weight, the product and the
    fsum each round once, each by a factor within 1 +- u in the normal
    range, so |entry - V| <= u * |V| + (2u + u**2)(1 + u) * sum W |v|. The
    optimal stage's values are non-negative (it starts from cont(y) >= 0
    and serves only at a gain), so sum W |v| = V. Normal range: every W is
    at least the least profile probability, and every positive v at least
    the least positive virtual value or continuation, and their product is
    at least 2**-1022 (asserted)."""
    u = Fraction(1, 2 ** 53)
    cfgs = [random_instance(i, master_seed=0) for i in range(40)]
    for cfg in cfgs + [fm.build_example_config((2.0, 3.0), 0.5, 2, 11)]:
        tables = dp.build_value_tables(cfg)
        for t in range(1, cfg.horizon + 1):
            cont = tables.continuation_fn(t)
            lam = cfg.arrivals.pmf(t)
            atoms = cfg.consumer_atoms(t)
            least = Fraction(float(min(x for x in lam if x > 0.0))) * min(
                Fraction(p) for _b, _i, p, _w in atoms) ** (len(lam) - 1)
            positive = [w for _b, _i, _p, w in atoms if w > 0.0]
            positive += [c for c in map(cont, tables.states[t]) if c > 0.0]
            assert least * Fraction(min(positive)) >= Fraction(2) ** -1022
            exact = oracle.rational_expected_layer(tables, t)
            for y, entry in tables.values[t].items():
                bound = (u + (2 * u + u * u) * (1 + u)) * exact[y]
                assert abs(Fraction(entry) - exact[y]) <= bound, (t, y)


# -- threshold-form stage against the enumerating reference ------------------------

def _same_stage(got, want) -> bool:
    return (got.value.hex(), got.u_star, got.v_star) == (want.value.hex(), want.u_star, want.v_star)


def _checked_stage(calls: list):
    """A `stage_fn` that solves each stage both ways and asserts they agree."""
    def stage(t, w_sorted, y, cont):
        calls.append(t)
        got = dp.stage_value(t, w_sorted, y, cont)
        want = oracle.reference_stage_value(t, w_sorted, y, cont)
        assert _same_stage(got, want), (t, w_sorted, y)
        return got.value
    return stage


def test_stage_matches_reference_on_family():
    """On all 200 instances of the family, at every (t, y) and on every ordered
    profile's whole summary (unclipped, never-served reports included, as
    `Mechanism.allocate` passes them), the stage returns the reference's value,
    u and v*; and every exact table entry equals the reference expectation bit
    for bit."""
    calls = []
    for i in range(200):
        tables = dp.build_value_tables(random_instance(i, master_seed=0))
        _assert_matches_reference(tables, _checked_stage(calls))
    assert len(calls) > 100_000


def test_stage_matches_reference_beyond_family():
    """Inputs the family never reaches: non-monotone Monte Carlo tables, and an
    exact k=3 market with two goods per variety per draw and three arrivals.
    The final period solves each set its state serves whole once per layer,
    so the inputs are sized to keep more than 5,000 solves each (5,223 and
    7,595)."""
    calls = []
    dp.build_value_tables(_k3_market(horizon=3, points=201), backend="mc", samples=32, seed=1,
                          stage_fn=_checked_stage(calls))
    assert len(calls) > 5_000
    calls.clear()
    dp.build_value_tables(_k3_market(horizon=2, points=6), stage_fn=_checked_stage(calls))
    assert len(calls) > 5_000


def _concave_cont(rng, k: int):
    """cont(m) = sum over j of f_j(m_1 + ... + m_j), each f_j concave and
    non-decreasing with dyadic steps: the shape of the DP's continuations,
    on values that make exact ties common."""
    steps = [sorted(rng.choice([0.0, 0.125, 0.25, 0.5], size=12).tolist(), reverse=True)
             for _ in range(k)]

    def cont(m):
        return math.fsum(sum(f[:c]) for f, c in zip(steps, itertools.accumulate(m)))
    return cont


def test_stage_matches_reference_on_ties():
    """Seeded random summaries on a few dyadic virtual values, so equal ws and
    service at exactly zero net gain are common: the tie rule must agree too."""
    rng = np.random.default_rng(2024)
    ties = 0
    for case in range(600):
        k = int(rng.integers(1, 4))
        y = tuple(int(c) for c in rng.integers(0, 4, size=k))
        w_sorted = tuple(tuple(sorted(rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], size=n).tolist(),
                                      reverse=True))
                         for n in rng.integers(0, 4, size=k))
        if case % 2:
            def cont(m):
                return 0.25 * sum(m)  # a level-j good is worth exactly w = 0.25
        else:
            cont = _concave_cont(rng, k)
        got = dp.stage_value(1, w_sorted, y, cont)
        want = oracle.reference_stage_value(1, w_sorted, y, cont)
        assert _same_stage(got, want), (w_sorted, y)
        values = [math.fsum([w for ws, uj in zip(w_sorted, u) for w in ws[:uj]]
                            + [cont(tuple(a - b for a, b in zip(y, dp.vstar(u, y))))])
                  for u in oracle.feasible_service_set(tuple(map(len, w_sorted)), y)]
        ties += values.count(got.value) > 1
    assert ties > 100
