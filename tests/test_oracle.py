import dataclasses
import itertools
import math

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import flexmarket as fm
from flexmarket import BudgetExceeded, InfeasibleU, NotApplicable, config_io, dp, oracle, simulate
from flexmarket.oracle import (
    check_monotonicity,
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


def test_brute_stage_empty_reports():
    assert oracle.brute_stage_value(1, [], (1, 1), lambda m: 1.5 + sum(m)) == 3.5


def test_brute_stage_terminal_single_consumer(small_cfg):
    """Terminal period, one consumer: value is max(w, 0)."""
    for val in (0.2, 0.5, 0.9):
        w = fm.virtual_valuation(small_cfg, 2, val, 1)
        got = oracle.brute_stage_value(2, [(1, w)], (1, 1), lambda m: 0.0)
        assert got == max(w, 0.0)


# -- constructive allocation -----------------------------------------------------------

def test_constructive_examples():
    assert constructive_allocation((1, 1), (1, 1), (1, 1)) == (1, 2)
    assert constructive_allocation((0, 0), (2, 1), (1, 1)) == (0, 0, 0)
    assert constructive_allocation((0, 2), (0, 2), (1, 1)) == (1, 2)


def test_constructive_greedy_prefers_low_varieties():
    """Level-2 consumers drain variety 1 before touching variety 2."""
    assert constructive_allocation((0, 2), (0, 3), (2, 2)) == (1, 1, 0)


def test_constructive_rejects_infeasible():
    with pytest.raises(InfeasibleU):
        constructive_allocation((2, 0), (2, 0), (1, 1))
    with pytest.raises(InfeasibleU):
        constructive_allocation((1, 0), (0, 1), (1, 1))  # more served than present


# -- the variety-shift transformation ----------------------------------------------------

def test_transform_examples():
    with pytest.raises(NotApplicable):
        transform_T((1, 1), (1, 1), (0, 2), (1, 1))
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
    assert any(v.kind == "single_shift" and v.t == 2 for v in found)
    assert any(v.better == (1, 0) and v.worse == (0, 1) for v in found)


def test_check_monotonicity_slack_reads_stderrs_not_backend():
    """Sampled myopic tables get the same standard-error slack as sampled
    optimal ones: the slack must not depend on the backend's label."""
    bern = [0.5, 0.5]
    cfg = config_io.parse_config({
        "horizon": 2, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 21},
        "arrivals": [[1 / 3] * 3] * 2, "supply": [[bern, bern]] * 2,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })
    myopic = simulate.build_myopic_tables(cfg, backend="mc", samples=20, seed=1)
    assert myopic.backend == "mc-myopic"
    relabelled = dataclasses.replace(myopic, backend="mc")
    assert check_monotonicity(myopic) == check_monotonicity(relabelled)


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
    def broken(*args):
        out = real(*args)
        return out[:-1] if len(out) > 1 else out
    return broken


def _stall(real):
    def broken(v, v_star, u, y):
        return tuple(v)
    return broken


def _serve_one_fewer(real):
    def broken(u, counts, y):
        choices = list(real(u, counts, y))
        served = [row for row, c in enumerate(choices) if c > 0]
        if served:
            choices[served[-1]] = 0
        return tuple(choices)
    return broken


@pytest.mark.parametrize("target, mutate, check", [
    ("feasible_service_set", _drop_last, "service_set_projection"),
    ("feasible_variety_set", _drop_last, "variety_set_projection"),
    ("transform_T", _stall, "transform_chain"),
    ("constructive_allocation", _serve_one_fewer, "constructive_allocation"),
])
def test_verify_catches_injected_oracle_bug(monkeypatch, target, mutate, check):
    """Each brute-force routine the walk reads has a check that notices it lying."""
    monkeypatch.setattr(oracle, target, mutate(getattr(oracle, target)))
    failed = set()
    for seed in range(10):
        failed |= {c.name for c in verify_instance(random_instance(seed), seed) if not c.passed}
    assert check in failed


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


def test_exact_tables_match_reference_expectation(small_cfg):
    """The memoised exact backend equals the plain ordered enumeration bit for bit,
    for the optimal, brute-force and myopic stages alike."""
    cfgs = [small_cfg] + [random_instance(i, master_seed=0) for i in range(20)]
    for cfg in cfgs:
        for tables, stage_fn in _exact_builds(cfg):
            for t in range(1, cfg.horizon + 1):
                cont = tables.continuation_fn(t)
                for y in tables.states[t]:
                    ref = oracle.reference_expected_stage(cfg, t, y, cont, stage_fn)
                    assert tables.values[t][y] == ref, (tables.backend, t, y)


# -- threshold-form stage against the enumerating reference ------------------------

def _same_stage(got, want) -> bool:
    return (got.value.hex(), got.u_star, got.v_star) == (want.value.hex(), want.u_star, want.v_star)


def _checked_stage(calls: list):
    """A `stage_fn` that solves each stage both ways and asserts they agree."""
    def stage(t, summary, y, cont):
        calls.append(t)
        got = dp.stage_value(t, summary, y, cont)
        want = oracle.reference_stage_value(t, summary, y, cont)
        assert _same_stage(got, want), (t, summary, y)
        return got.value
    return stage


def test_stage_matches_reference_on_family():
    """At every (t, y) and servable multiset the exact backend solves on all 200
    instances of the family, the stage returns the reference's value, u and v*."""
    calls = []
    for i in range(200):
        dp.build_value_tables(random_instance(i, master_seed=0), stage_fn=_checked_stage(calls))
    assert len(calls) > 100_000


def test_stage_matches_reference_beyond_family():
    """Inputs the family never reaches: non-monotone Monte Carlo tables, and an
    exact k=3 market with two goods per variety per draw and three arrivals."""
    doc = {
        "horizon": 3, "varieties": 3,
        "grid": {"min": 0.0, "max": 1.0, "points": 201},
        "arrivals": [[0.25] * 4] * 3,
        "supply": [[[1 / 3] * 3] * 3] * 3,
        "types": {"family": "truncated_exponential", "alpha": [1.0, 2.0, 3.0]},
    }
    calls = []
    dp.build_value_tables(config_io.parse_config(doc), backend="mc", samples=20, seed=1,
                          stage_fn=_checked_stage(calls))
    assert len(calls) > 5_000
    doc.update(horizon=2, grid={"min": 0.0, "max": 1.0, "points": 3},
               arrivals=[[0.25] * 4] * 2, supply=[[[1 / 3] * 3] * 3] * 2)
    calls.clear()
    dp.build_value_tables(config_io.parse_config(doc), stage_fn=_checked_stage(calls))
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
        summary = dp.SortedReportSummary(tuple(map(len, w_sorted)), w_sorted)
        if case % 2:
            def cont(m):
                return 0.25 * sum(m)  # a level-j good is worth exactly w = 0.25
        else:
            cont = _concave_cont(rng, k)
        got = dp.stage_value(1, summary, y, cont)
        want = oracle.reference_stage_value(1, summary, y, cont)
        assert _same_stage(got, want), (summary, y)
        values = [math.fsum([w for ws, uj in zip(w_sorted, u) for w in ws[:uj]]
                            + [cont(tuple(a - b for a, b in zip(y, dp.vstar(u, y))))])
                  for u in oracle.feasible_service_set(summary.counts, y)]
        ties += values.count(got.value) > 1
    assert ties > 100
