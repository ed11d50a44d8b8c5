import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexmarket as fm
from flexmarket import InfeasibleU, StateSpaceTooLarge, TableMismatch, config_io, dp, market, oracle, simulate
from flexmarket.dp import ValueTables, stage_value, summarize, vstar
from flexmarket.oracle import feasible_service_set, feasible_variety_set

from conftest import tabulated_config


# -- feasible sets ---------------------------------------------------------------

def test_service_set_examples():
    assert set(feasible_service_set((2, 1), (1, 1))) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert set(feasible_service_set((2, 0), (1, 1))) == {(0, 0), (1, 0)}
    assert feasible_service_set((0, 0), (3, 2)) == [(0, 0)]


def test_service_set_matches_matrix_projection():
    """The closed-form set equals the projection of all feasible matrices."""
    counts, y = (2, 1), (1, 1)
    flex = [1, 1, 2]
    mats = oracle.enumerate_feasible_matrices(flex, y)
    assert {oracle.service_of(m, flex, 2) for m in mats} == set(feasible_service_set(counts, y))


def test_variety_set_examples():
    assert set(feasible_variety_set((1, 1), (2, 1))) == {(1, 1), (2, 0)}
    assert feasible_variety_set((0, 0), (2, 2)) == [(0, 0)]
    assert feasible_variety_set((0, 2), (1, 1)) == [(1, 1)]


def test_vstar_examples():
    assert vstar((0, 2), (1, 1)) == (1, 1)
    assert vstar((0, 0, 0), (1, 2, 0)) == (0, 0, 0)
    assert vstar((1, 1), (2, 1)) == (1, 1)


def test_vstar_rejects_infeasible():
    with pytest.raises(InfeasibleU):
        vstar((2, 0), (1, 1))
    with pytest.raises(InfeasibleU):
        vstar((0, -1), (1, 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vstar_is_feasible_and_spends_everything(data):
    k = data.draw(st.integers(1, 4))
    y = tuple(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    counts = tuple(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    for u in feasible_service_set(counts, y):
        v = vstar(u, y)
        assert v in set(feasible_variety_set(u, y))
        assert sum(v) == sum(u)


# -- stage optimization ------------------------------------------------------------

def test_stage_example_exhaustive():
    """Terminal-period toy: top values 0.5 and 0.3 are served, -0.1 is not."""
    res = stage_value(2, ((0.5,), (0.3, -0.1)), (1, 1), lambda m: 0.0)
    assert res.value == pytest.approx(0.8)
    assert res.u_star == (1, 1)
    # cross-check against the full-matrix search
    brute = oracle.brute_stage_value(2, [(1, 0.5), (2, 0.3), (2, -0.1)], (1, 1), lambda m: 0.0)
    assert brute == res.value


def test_stage_empty_summary_returns_continuation():
    res = stage_value(1, ((), ()), (2, 1), lambda m: 0.25 * sum(m))
    assert res.value == 0.25 * 3
    assert res.u_star == (0, 0) and res.v_star == (0, 0)


def test_stage_zero_gain_consumer_not_served():
    """Exactly zero net gain loses the tie to the smaller service vector."""
    res = stage_value(1, ((0.5,),), (1,), lambda m: 1.0 + 0.5 * sum(m))
    # serving: 0.5 + cont((0,)) = 1.5 ; not serving: cont((1,)) = 1.5
    assert res.value == 1.5
    assert res.u_star == (0,)


def test_summarize_sorts_each_level():
    """(level, w) pairs in any order become per-level tuples, best first."""
    pairs = [(2, 0.1), (1, -0.2), (2, 0.5), (2, 0.3), (1, 0.4)]
    assert summarize(pairs, 3) == ((0.4, -0.2), (0.5, 0.3, 0.1), ())
    assert summarize([], 2) == ((), ())


# -- value tables -------------------------------------------------------------------

def test_example_continuations(small_tables):
    """Period-2 continuation is blind to a variety-2 good when one of variety 1 is held."""
    assert small_tables.values[2][(1, 1)] == small_tables.values[2][(1, 0)]
    assert small_tables.values[3][(1, 1)] == 0.0
    assert small_tables.values[2][(0, 0)] == 0.0


def test_terminal_value_against_direct_expectation(small_cfg, small_tables):
    """C_T(y) with ample supply equals E[arrivals] * E[max(w, 0)] by direct quadrature."""
    lam = small_cfg.arrivals.pmf(2)
    expected = 0.0
    for b in (1, 2):
        w = np.asarray(small_cfg.virtual_value_row(2, b))
        pmf = small_cfg.types.binned_pmf[1, b - 1]
        expected += float(small_cfg.types.flex_pmf[1, b - 1]) * float(pmf @ np.maximum(w, 0.0))
    expected *= float(lam[1])
    assert small_tables.values[2][(1, 1)] == pytest.approx(expected, abs=1e-12)


def test_continuation_gap_examples(small_tables):
    assert fm.continuation_gap(small_tables, 2, (1, 1), 1) == 0.0  # final period
    assert fm.continuation_gap(small_tables, 1, (1, 1), 2) == 0.0  # bitwise, not approx
    rho11 = fm.continuation_gap(small_tables, 1, (1, 1), 1)
    assert rho11 == pytest.approx(0.0366, abs=0.002)
    with pytest.raises(InfeasibleU):
        fm.continuation_gap(small_tables, 1, (0, 1), 1)  # level 1 cannot reach variety 2


def test_continuation_gap_rejects_unreachable_state(small_tables):
    """A supply vector outside layer t is refused as `Mechanism.allocate` refuses it."""
    with pytest.raises(TableMismatch, match="not a reachable state at t=1"):
        fm.continuation_gap(small_tables, 1, (5, 5), 1)
    with pytest.raises(TableMismatch, match="not a reachable state"):
        fm.continuation_gap(small_tables, 2, (1,), 1)  # wrong length
    with pytest.raises(TableMismatch):
        fm.Mechanism(small_tables).allocate(1, [], (5, 5))


def test_holding_cost_converges_to_closed_form():
    """Truncated-exponential identity: E[max(w,0)] = root * (1 - CDF(root)).

    The holding cost of a variety-1 good in the worked instance is
    (p/2) * E[max(w(.,1), 0)]; compare against the closed form at the
    bisection root and check the grid error shrinks quadratically.
    """
    a, p = 2.0, 0.5

    def w(x):
        return x - (1.0 - math.exp(a * (x - 1.0))) / a

    lo, hi = 0.01, 0.99
    for _ in range(200):
        mid = (lo + hi) / 2
        if w(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    closed = (p / 2) * root * (math.exp(-a * root) - math.exp(-a)) / (1 - math.exp(-a))

    gaps = []
    for grid_size in (101, 1001):
        cfg = fm.build_example_config((2.0, 3.0), p, 2, grid_size)
        tables = fm.build_value_tables(cfg)
        gaps.append(abs(fm.continuation_gap(tables, 1, (1, 1), 1) - closed))
    assert gaps[1] < 1e-6
    assert gaps[1] < gaps[0] / 50  # roughly quadratic in the grid step


def test_tables_nonnegative(small_tables):
    """Serving nobody is always feasible, so no table entry can go negative."""
    for layer in small_tables.values.values():
        assert all(v >= 0.0 for v in layer.values())
    for seed in range(8):
        tables = fm.build_value_tables(oracle.random_instance(seed))
        for layer in tables.values.values():
            assert all(v >= 0.0 for v in layer.values())


def test_all_zero_supply_gives_zero_tables():
    cfg = tabulated_config([1.0] * 5, T=2, grid=(0.0, 1.0, 5), supply=[[[1.0]], [[1.0]]])
    tables = fm.build_value_tables(cfg)
    assert all(v == 0.0 for layer in tables.values.values() for v in layer.values())


def test_budget_refusal(small_cfg):
    with pytest.raises(StateSpaceTooLarge, match="profiles"):
        fm.build_value_tables(small_cfg, profile_budget=10)


def test_monotone_under_supply_shift(small_tables):
    assert not oracle.check_monotonicity(small_tables)


def _exact_solve_market():
    """k=2, T=2, G=21 market, arrivals uniform on {0, 1, 2}, Bernoulli(0.5) supply."""
    bern = [0.5, 0.5]
    return config_io.parse_config({
        "horizon": 2, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 21},
        "arrivals": [[1 / 3] * 3] * 2, "supply": [[bern, bern]] * 2,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })


@pytest.mark.parametrize("backend", ["exact", "mc"])
def test_stage_called_once_per_servable_multiset(backend, small_cfg):
    """One stage solve per state and distinct servable multiset of reports,
    for both backends. Exact, on `_exact_solve_market`: 23,491 ordered
    (profile, state) pairs need at most 2,955 solves, since the tables are
    monotone and a report with w <= 0 is never served, so it leaves the keys.
    Monte Carlo, on the inputs of `test_mc_tables_pinned`: 1,600 drawn
    (report set, state) pairs need at most 143. A state with no supply serves
    nobody, so it needs one solve per period."""
    if backend == "exact":
        cfg, kwargs, bound = _exact_solve_market(), {}, 2955
    else:
        cfg, kwargs, bound = small_cfg, {"backend": "mc", "samples": 200, "seed": 3}, 143
    calls = []

    def counted(t, summary, y, cont):
        calls.append((t, y))
        return dp._optimal_stage(t, summary, y, cont)

    tables = fm.build_value_tables(cfg, stage_fn=counted, **kwargs)
    assert len(calls) <= bound
    assert sorted(c for c in calls if c[1] == (0, 0)) == [(1, (0, 0)), (2, (0, 0))]
    assert tables.values == fm.build_value_tables(cfg, **kwargs).values


def test_non_monotone_layer_keeps_never_served_reports():
    """A stage that keeps the contract but charges 0.25 per good held makes
    layers 1 and 2 non-monotone, so a report with w <= 0 may matter there; the
    tables still equal the unmemoised reference expectation bit for bit."""
    cfg = _exact_solve_market()

    def charged(t, summary, y, cont):
        return dp._optimal_stage(t, summary, y, cont) - 0.25 * sum(y)

    tables = fm.build_value_tables(cfg, stage_fn=charged)
    assert not dp._non_decreasing(tables.values[1]) and not dp._non_decreasing(tables.values[2])
    for t in (1, 2):
        cont = tables.continuation_fn(t)
        for y in tables.states[t]:
            ref = oracle.reference_expected_stage(cfg, t, y, cont, charged)
            assert tables.values[t][y].hex() == ref.hex(), (t, y)


def test_non_decreasing_reads_every_variety():
    layer = {(a, b): float(a + 2 * b) for a in range(2) for b in range(3)}
    assert dp._non_decreasing(layer)
    layer[(1, 1)] = 1.5  # one good of variety 1 more than (0, 1), which holds 2.0
    assert not dp._non_decreasing(layer)
    assert dp._non_decreasing({(0, 0): 0.0})


def test_mc_backend_matches_exact(small_cfg, small_tables):
    mc = fm.build_value_tables(small_cfg, backend="mc", samples=4000, seed=11)
    for t in mc.states:
        for y in mc.states[t]:
            exact = small_tables.values[t][y]
            est, se = mc.values[t][y], mc.stderrs[t][y]
            assert abs(est - exact) <= 5 * se + 1e-9
    # recorded errors are positive wherever the stage value is random
    assert mc.stderrs[2][(1, 1)] > 0


def test_mc_backend_deterministic(small_cfg):
    a = fm.build_value_tables(small_cfg, backend="mc", samples=500, seed=7)
    b = fm.build_value_tables(small_cfg, backend="mc", samples=500, seed=7)
    assert a.values == b.values and a.stderrs == b.stderrs
    c = fm.build_value_tables(small_cfg, backend="mc", samples=500, seed=8)
    assert c.values != a.values


def _per_call_mc_tables(cfg, samples, seed, stage_fn):
    """Monte Carlo tables drawn the plain way. State number idx of period t
    draws each of its `samples` report sets with per-call `arrival_count` and
    `consumer` draws on ``default_rng(SeedSequence([seed, t, idx]))``, sums
    up every report (no clipping, no memo, no w <= 0 rule), and takes the
    1-D numpy mean and standard error of its stage values."""
    T, k = cfg.horizon, cfg.varieties
    states = {t: dp.reachable_states(cfg, t) for t in range(1, T + 2)}
    tables = ValueTables(config=cfg, backend="mc", samples=samples, seed=seed, states=states,
                         values={T + 1: dict.fromkeys(states[T + 1], 0.0)},
                         stderrs={T + 1: dict.fromkeys(states[T + 1], 0.0)})
    for t in range(T, 0, -1):
        sampler, cont, w_rows = cfg.sampler(t), tables.continuation_fn(t), cfg.virtual_values[t - 1]
        tables.values[t], tables.stderrs[t] = {}, {}
        for idx, y in enumerate(states[t]):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, idx]))
            vals = []
            for _ in range(samples):
                drawn = [sampler.consumer(rng) for _ in range(sampler.arrival_count(rng))]
                summary = summarize([(b, w_rows[b - 1][i]) for b, i in drawn], k)
                vals.append(stage_fn(t, summary, y, cont))
            tables.values[t][y] = float(np.mean(vals))
            tables.stderrs[t][y] = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return tables


def _hex_entries(tables):
    return {(t, y): (tables.values[t][y].hex(), tables.stderrs[t][y].hex())
            for t in tables.states for y in tables.states[t]}


# 2, 3, 9 and 20 samples sit on both sides of numpy's 8-wide unrolled sum, 129 past its 128 block
@pytest.mark.parametrize("seed", [1, 2 ** 64 + 5])
@pytest.mark.parametrize("samples", [2, 3, 9, 20, 129])
def test_mc_tables_match_per_call_draws(samples, seed):
    """The mc backend (one block of uniforms per state, clipped memoised
    keys, one mean/std reduction per layer) equals the plain per-call
    reference bit for bit, for the optimal and the myopic stage, on the
    first 40 family instances."""
    for instance in range(40):
        cfg = oracle.random_instance(instance)
        kwargs = {"backend": "mc", "samples": samples, "seed": seed}
        for built, stage_fn in ((fm.build_value_tables(cfg, **kwargs), dp._optimal_stage),
                                (simulate.build_myopic_tables(cfg, **kwargs),
                                 simulate._myopic_stage)):
            reference = _per_call_mc_tables(cfg, samples, seed, stage_fn)
            assert _hex_entries(built) == _hex_entries(reference), (instance, built.backend)


def test_mc_requires_sampling_params(small_cfg):
    with pytest.raises(ValueError):
        fm.build_value_tables(small_cfg, backend="mc", samples=500)
    with pytest.raises(ValueError):
        fm.build_value_tables(small_cfg, backend="mc", seed=1)


@pytest.mark.parametrize("params", [{"samples": 50, "seed": 1}, {"samples": 50}, {"seed": 1}])
def test_exact_refuses_sampling_params(small_cfg, params):
    """An exact build never reads samples or a seed, so it refuses them, as
    `ValueTables.load` refuses an exact cache that records them."""
    with pytest.raises(ValueError, match="exact backend"):
        fm.build_value_tables(small_cfg, **params)


# -- persistence ---------------------------------------------------------------------

def test_cache_roundtrip(tmp_path, small_cfg, small_tables):
    path = tmp_path / "tables.bin"
    small_tables.save(path)
    loaded = ValueTables.load(path, small_cfg)
    assert loaded.values == small_tables.values
    assert loaded.stderrs == small_tables.stderrs
    assert loaded.states == {t: list(s) for t, s in small_tables.states.items()}
    assert loaded.backend == "exact" and loaded.fingerprint == small_tables.fingerprint
    # continuations evaluate identically through the loaded copy
    assert loaded.continuation_fn(1)((1, 1)) == small_tables.continuation_fn(1)((1, 1))


def test_every_solved_cache_loads_back(tmp_path):
    """The exact and mc tables of the first 40 family instances, saved and
    loaded through a re-parsed config, equal the tables built."""
    path = tmp_path / "tables.bin"
    for seed in range(40):
        cfg = oracle.random_instance(seed)
        reparsed = config_io.parse_config(market.canonical_dict(cfg))
        for tables in (fm.build_value_tables(cfg),
                       fm.build_value_tables(cfg, backend="mc", samples=3, seed=seed)):
            tables.save(path)
            assert ValueTables.load(path, reparsed) == tables, (seed, tables.backend)


def test_cache_rejects_other_config(tmp_path, small_tables):
    path = tmp_path / "tables.bin"
    small_tables.save(path)
    other = fm.build_example_config((2.0, 3.0), 0.4, 2, 41)
    with pytest.raises(TableMismatch, match="fingerprint"):
        ValueTables.load(path, other)


def test_cache_rejects_garbage(tmp_path, small_cfg):
    path = tmp_path / "tables.bin"
    path.write_bytes(b"not a cache file at all")
    with pytest.raises(TableMismatch):
        ValueTables.load(path, small_cfg)


def test_mc_cache_keeps_errors(tmp_path, small_cfg):
    mc = fm.build_value_tables(small_cfg, backend="mc", samples=200, seed=3)
    path = tmp_path / "mc.bin"
    mc.save(path)
    loaded = ValueTables.load(path, small_cfg)
    assert loaded.backend == "mc"
    assert loaded.samples == 200 and loaded.seed == 3
    assert loaded.stderrs == mc.stderrs


def test_save_writes_nothing_when_a_field_does_not_fit(tmp_path, small_tables):
    """The file is packed before it is opened: a seed beyond 64 bits raises
    and leaves no file behind."""
    path = tmp_path / "tables.bin"
    with pytest.raises(struct.error):
        dataclasses.replace(small_tables, backend="mc", samples=3, seed=2 ** 64).save(path)
    assert not path.exists()


def test_cache_rejects_every_truncation(tmp_path, small_cfg, small_tables):
    path = tmp_path / "tables.bin"
    small_tables.save(path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(TableMismatch):
            ValueTables.load(path, small_cfg)
    path.write_bytes(blob)
    assert ValueTables.load(path, small_cfg).values == small_tables.values
