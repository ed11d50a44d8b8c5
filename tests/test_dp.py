import dataclasses
import itertools
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flexmarket as fm
from flexmarket import InfeasibleU, StateSpaceTooLarge, TableMismatch, config_io, dp, market, oracle, simulate
from flexmarket.dp import ValueTables, stage_value, summarize, vstar
from flexmarket.oracle import feasible_service_set, feasible_variety_set

from conftest import tabulated_config
import test_oracle
from test_oracle import _class_counts, _k3_market


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


_TINY = 5e-324            # the smallest subnormal
_MIN_NORMAL = 2.2250738585072014e-308
# signed zeros, subnormals, ulp-apart pairs and values that nearly cancel
_FIRST_ROUND_VALUES = (
    0.0, -0.0, _TINY, -_TINY, 3 * _TINY, math.nextafter(_MIN_NORMAL, 0.0), -_MIN_NORMAL,
    1.0, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 0.0), 0.1, -0.1,
    -math.nextafter(0.1, 1.0), 1e16, -1e16 - 2.0, 0.5, -0.75,
)


@pytest.mark.parametrize("shape", ["level-1", "level-2"])
def test_first_round_sum_is_exact(shape):
    """Serving one report sums its w and the continuation after it without
    `math.fsum`; on every (w, c) pair of the table the stage's value is
    still ``math.fsum((w, c))`` to the bit (so +0.0 for a zero total), and
    its u* and v* are the enumerating reference's. The continuation with the
    good kept is the float just below that sum, so the report is served."""
    for w, c in itertools.product(_FIRST_ROUND_VALUES, repeat=2):
        want = math.fsum((w, c))
        if shape == "level-1":
            w_sorted, y = ((w,),), (1,)
        else:
            w_sorted, y = ((), (w,)), (1, 1)

        def cont(m):
            return math.nextafter(want, -math.inf) if m == y else c

        got = stage_value(1, w_sorted, y, cont)
        ref = oracle.reference_stage_value(1, w_sorted, y, cont)
        assert got.value.hex() == want.hex(), (w, c)
        assert (got.u_star, got.v_star) == (ref.u_star, ref.v_star), (w, c)
        assert got.u_star != (0,) * len(y)


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


def test_replaced_tables_memoise_their_own_continuations(small_tables):
    """`dataclasses.replace` gives the copy a fresh continuation memo: once
    the original has memoised period 1's continuation, a copy whose
    C_2((1, 0)) is raised by 0.5 still reads its own layer 2, and the
    original keeps reading its own."""
    before = small_tables.continuation_fn(1)((1, 0))
    values = {t: dict(layer) for t, layer in small_tables.values.items()}
    values[2][(1, 0)] += 0.5
    copy = dataclasses.replace(small_tables, values=values)
    outcomes = small_tables.config.supply.outcomes(2)
    want = dp.estimate([values[2][tuple(map(sum, zip((1, 0), xs)))] for _p, xs in outcomes],
                       [p for p, _xs in outcomes])[0]
    assert copy.continuation_fn(1)((1, 0)) == want > before
    assert small_tables.continuation_fn(1)((1, 0)) == before
    with pytest.raises(ValueError):
        dataclasses.replace(small_tables, _conts={})


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


def _exact_solve_market(horizon: int = 2):
    """k=2, G=21 market, arrivals uniform on {0, 1, 2}, Bernoulli(0.5) supply
    in every period; T=2 is the benchmark's exact-solve market."""
    bern = [0.5, 0.5]
    return config_io.parse_config({
        "horizon": horizon, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 21},
        "arrivals": [[1 / 3] * 3] * horizon, "supply": [[bern, bern]] * horizon,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })


def _counted_build(cfg, **kwargs) -> tuple:
    """An optimal build of `cfg`, and the (t, y) of its every stage solve, in order."""
    calls = []

    def counted(t, summary, y, cont):
        calls.append((t, y))
        return dp._optimal_stage(t, summary, y, cont)

    return fm.build_value_tables(cfg, stage_fn=counted, **kwargs), calls


@pytest.mark.parametrize("backend", ["exact", "mc"])
def test_stage_called_once_per_servable_multiset(backend, small_cfg):
    """One stage solve per state and distinct servable multiset of reports,
    and in the final period one per layer for a multiset the state serves
    whole, for both backends. Exact, on `_exact_solve_market`: 23,491 ordered
    (profile, state) pairs need at most 1,215 solves, 630 of them in the
    final period, since the tables are monotone and a report with w <= 0 is
    never served, so it leaves the keys. Monte Carlo, on the inputs of
    `test_mc_tables_pinned`: 1,600 drawn (report set, state) pairs need at
    most 115, 41 of them in the final period. A state with no supply serves
    nobody, so it needs one solve per period."""
    if backend == "exact":
        cfg, kwargs, bound, final = _exact_solve_market(), {}, 1215, 630
    else:
        cfg, kwargs, bound, final = small_cfg, {"backend": "mc", "samples": 200, "seed": 3}, 115, 41
    tables, calls = _counted_build(cfg, **kwargs)
    assert len(calls) <= bound
    assert sum(t == cfg.horizon for t, _y in calls) <= final
    assert sorted(c for c in calls if c[1] == (0, 0)) == [(1, (0, 0)), (2, (0, 0))]
    assert tables.values == fm.build_value_tables(cfg, **kwargs).values


def test_exact_build_solves_one_state_per_supply_class():
    """The exact backend solves the first state of each class of capped
    cumulative supply and no other: on `_k3_market(3, 2)` the stage solves
    of an exact build see exactly its 27 + 72 + 20 = 119 classes of 495
    states. A Monte Carlo build reads a stream per state, so it groups
    nothing: it solves every state before the final period (whose report
    sets a state serves whole are solved once per layer, as before), and two
    states of one class hold different entries."""
    cfg = _k3_market(horizon=3, points=2)
    assert len(set(_counted_build(cfg)[1])) == 119
    tables, calls = _counted_build(cfg, backend="mc", samples=20, seed=1)
    assert {(t, y) for t, y in calls if t < 3} == {(t, y) for t in (1, 2) for y in tables.states[t]}
    bound = dp._demand_bound(cfg, 2)
    assert dp._supply_class((3, 3, 0), bound) == dp._supply_class((3, 4, 0), bound) == (3, 6, 6)
    assert tables.values[2][(3, 3, 0)] != tables.values[2][(3, 4, 0)]


def _two_or_none_market():
    """k=2, T=3, G=11 market: zero or two arrivals, two goods of each variety
    per period."""
    return config_io.parse_config({
        "horizon": 3, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 11},
        "arrivals": [[0.5, 0.0, 0.5]] * 3, "supply": [[[0.0, 0.0, 1.0]] * 2] * 3,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })


def _charged(t, summary, y, cont):
    """The optimal stage less 0.25 per good held, before the final period of three."""
    value = dp._optimal_stage(t, summary, y, cont)
    return value - 0.25 * sum(y) if t < 3 else value


def _built_laws(monkeypatch, *builds) -> list:
    """The inputs (lam, atom_rank, probs) of every law over keys that the
    builds (cfg, kwargs) build, in order."""
    laws, build = [], dp._key_law

    def recorded(*law):
        laws.append(law)
        return build(*law)

    monkeypatch.setattr(dp, "_key_law", recorded)
    for cfg, kwargs in builds:
        fm.build_value_tables(cfg, **kwargs)
    monkeypatch.setattr(dp, "_key_law", build)
    return laws


def test_exact_walk_runs_once_per_run_of_one_law(monkeypatch):
    """A period whose report law equals the one built just before it reuses
    that law over keys: `_exact_solve_market`'s two periods share one law and
    build it once, family instance 3's three periods each have their own
    arrival PMF and build three times, and a Monte Carlo build builds none.
    The w <= 0 rule is part of the law: charging a good held before the
    final period of the three-period market makes layer 2 non-monotone, so
    period 1 keeps the reports periods 2 and 3 leave out and builds its own."""
    family = oracle.random_instance(3, master_seed=0)
    for cfg, kwargs, runs in ((_exact_solve_market(), {}, 1), (family, {}, 3),
                              (family, {"backend": "mc", "samples": 20, "seed": 1}, 0),
                              (_exact_solve_market(horizon=3), {}, 1),
                              (_exact_solve_market(horizon=3), {"stage_fn": _charged}, 2)):
        assert len(_built_laws(monkeypatch, (cfg, kwargs))) == runs, (cfg.horizon, kwargs)


def _ordered_law(lam, atom_rank, probs) -> dict:
    """Each key's exact probability, summed over the ordered profiles that reach it."""
    law = {}
    for n, lam_n in enumerate(lam):
        if lam_n > 0.0:
            for combo in itertools.product(range(len(probs)), repeat=n):
                key = tuple(sorted(atom_rank[a] for a in combo if atom_rank[a] >= 0))
                prob = math.prod([Fraction(lam_n), *(Fraction(probs[a]) for a in combo)])
                law[key] = law.get(key, 0) + prob
    return law


def test_key_law_weights_are_correctly_rounded_exact_sums(monkeypatch, example_cfg):
    """Each weight of `dp._key_law` is the correctly rounded exact sum of
    its key's ordered profiles' products, and its keys are exactly the keys
    some profile reaches, on the laws the exact builds of these markets
    build: family instances 0-39, `_k3_market(2, 4)` (up to three
    arrivals), the worked example at G=1001 (at most one arrival, whose
    one-report keys weigh one float product), and markets with a
    zero-probability arrival count, charged (no atom left out) or not. Also
    on one of those laws with every atom left out, and on a dyadic law. The
    exact weights sum to sum_n lam_n * S ** n, S the atoms' total
    probability: on the dyadic law S = 1 and the sum is exactly
    sum_n lam_n."""
    laws = _built_laws(monkeypatch, *[(cfg, {}) for cfg in [
        *(oracle.random_instance(i, master_seed=0) for i in range(40)),
        _k3_market(2, 4), example_cfg, _two_or_none_market(), test_oracle._zero_atom_market()]],
        (_two_or_none_market(), {"stage_fn": _charged}))
    assert any(min(ranks) >= 0 for _lam, ranks, _p in laws)
    assert any(0.0 in lam for lam, _r, _p in laws)
    lam, ranks, probs = laws[-1]
    dyadic = ((0.25, 0.5, 0.25), (0, -1, 1, -1), (0.5, 0.25, 0.125, 0.125))
    for lam, ranks, probs in laws + [(lam, (-1,) * len(ranks), probs), dyadic]:
        keys, weights = dp._key_law(lam, ranks, probs)
        exact = _ordered_law(lam, ranks, probs)
        assert len(set(keys)) == len(keys) and set(keys) == set(exact)
        assert [w.hex() for w in weights] == [float(exact[key]).hex() for key in keys]
        total = sum(map(Fraction, probs))
        assert sum(exact.values()) == sum(Fraction(x) * total ** n for n, x in enumerate(lam))
    assert sum(exact.values()) == 1


def test_readme_quotes_the_stage_solve_counts(monkeypatch):
    """README's solver paragraph quotes how many stage solves, and over how
    many (report set, state) pairs, exact-solve's market and mc-market's
    market (20 samples, seed 1) take, and how many keys exact-solve's law
    over keys holds for how many ordered profiles: recounted here, so a
    change that moves them must restate them."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    exact_cfg, mc_cfg = _exact_solve_market(), _k3_market(3, 201)
    exact = len(_counted_build(exact_cfg)[1])
    pairs = sum(dp.exact_profile_count(exact_cfg, t) * len(dp.reachable_states(exact_cfg, t))
                for t in (1, 2))
    assert f"exact-solve's market needs {exact:,} stage solves for its {pairs:,}" in readme
    (law,) = _built_laws(monkeypatch, (exact_cfg, {}))
    sets, profiles = len(dp._key_law(*law)[0]), dp.exact_profile_count(exact_cfg, 1)
    assert f"(exact-solve's market: {sets:,} sets for {profiles:,} profiles per period)" in readme
    mc = len(_counted_build(mc_cfg, backend="mc", samples=20, seed=1)[1])
    drawn = 20 * sum(len(dp.reachable_states(mc_cfg, t)) for t in (1, 2, 3))
    assert f"(20 samples, seed 1) needs {mc:,} stage solves for its {drawn:,} drawn sets" in readme


def test_non_monotone_layer_keeps_never_served_reports():
    """A stage that charges 0.25 per good held before the final period
    makes layers 1 and 2 of a three-period market non-monotone, so a report
    with w <= 0 may matter there; the tables still equal the unmemoised
    reference expectation bit for bit. The final period is not charged:
    there the contract lets a value depend on y only through which sets of
    reports y can serve at once. Charging 0.25 per good reads y beyond its
    capped cumulative supply, which the contract forbids in general: it
    stays valid here only because no two states of periods 1 and 2 share a
    class (their cumulative supply never passes D_t = 6 and 4), which is
    asserted too."""
    cfg = _exact_solve_market(horizon=3)
    assert _class_counts(cfg)[:2] == [len(dp.reachable_states(cfg, t)) for t in (1, 2)]

    tables = fm.build_value_tables(cfg, stage_fn=_charged)
    assert not dp._non_decreasing(tables.values[1]) and not dp._non_decreasing(tables.values[2])
    for t in (1, 2, 3):
        for y in tables.states[t]:
            ref = oracle.reference_expected_stage(tables, t, y, _charged)
            assert tables.values[t][y].hex() == ref.hex(), (t, y)


def test_keys_only_a_prefix_reaches_are_not_solved():
    """With no chance of exactly one arrival, the law over keys gives a
    one-report key weight only through a left-out report, so where no
    report is left out it holds none: only keys some profile reaches are
    solved. A stage charged before the final period makes layer 2
    non-monotone, so period 1 keeps every report in its keys, and two goods
    of each variety clip nothing: every set it solves at y = (2, 2) has zero
    or two reports, and the tables equal the reference expectation bit for
    bit. The charge reads y beyond its capped cumulative supply, which the
    contract forbids: layer 2's states share classes (D_2 = 4), so each
    class's entry is its first state's. Layer 1 is compared with the
    reference through that same layer 2, and no two of its states share a
    class (D_1 = 6), which is asserted."""
    cfg = _two_or_none_market()
    assert _class_counts(cfg)[0] == len(dp.reachable_states(cfg, 1))
    sizes = set()

    def charged(t, summary, y, cont):
        if (t, y) == (1, (2, 2)):
            sizes.add(sum(map(len, summary)))
        return _charged(t, summary, y, cont)

    tables = fm.build_value_tables(cfg, stage_fn=charged)
    assert not dp._non_decreasing(tables.values[2])
    assert sizes == {0, 2}
    for y in tables.states[1]:
        ref = oracle.reference_expected_stage(tables, 1, y, charged)
        assert tables.values[1][y].hex() == ref.hex(), y


def test_reference_flags_a_stage_that_breaks_the_class_contract():
    """`_charged` reads y beyond its capped cumulative supply, which
    `build_value_tables`' contract forbids, and the exact build gives each
    class of layer 2 (D_2 = 4) its first state's entry. The reference calls
    the stage at each state's own y, so it differs from the table exactly at
    the states holding another number of goods than their class's first
    state: 10 of layer 2's 25. A stage that reads a report its key leaves out
    (w <= 0, against the final period's zero continuation) gives one key two
    values, and the reference raises."""
    cfg = _two_or_none_market()
    tables = fm.build_value_tables(cfg, stage_fn=_charged)
    bound = dp._demand_bound(cfg, 2)
    first = {}
    for y in tables.states[2]:
        first.setdefault(dp._supply_class(y, bound), y)
    flagged = {y for y in tables.states[2]
               if oracle.reference_expected_stage(tables, 2, y, _charged) != tables.values[2][y]}
    moved = {y for y in tables.states[2] if sum(first[dp._supply_class(y, bound)]) != sum(y)}
    assert flagged == moved and len(moved) == 10 and len(tables.states[2]) == 25

    def per_report(t, summary, y, cont):
        return dp._optimal_stage(t, summary, y, cont) - 1e-3 * sum(map(len, summary))

    with pytest.raises(AssertionError, match="has values"):
        oracle.reference_expected_stage(tables, 3, (1, 1), per_report)


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
    up every report (no clipping, no memo, no w <= 0 rule), and writes out
    the stated estimator on its stage values in reverse draw order: the mean
    ``fsum(v) / n`` and the standard error
    ``sqrt(fsum((v - mean) ** 2) / (n - 1) / n)``. An entry that equals it
    does not depend on the order of its samples."""
    T, k = cfg.horizon, cfg.varieties
    states = {t: dp.reachable_states(cfg, t) for t in range(1, T + 2)}
    tables = ValueTables(config=cfg, backend="mc", samples=samples, seed=seed,
                         values={T + 1: dict.fromkeys(states[T + 1], 0.0)},
                         stderrs={T + 1: dict.fromkeys(states[T + 1], 0.0)})
    for t in range(T, 0, -1):
        sampler, cont, w_rows = cfg.sampler(t), tables.continuation_fn(t), cfg.virtual_values[t - 1]
        tables.values[t], tables.stderrs[t] = {}, {}
        for idx, y in enumerate(states[t]):
            u = np.random.default_rng(np.random.SeedSequence([seed, t, idx])).random
            vals = []
            for _ in range(samples):
                drawn = [sampler.consumer(u) for _ in range(sampler.arrival_count(u))]
                summary = summarize([(b, w_rows[b - 1][i]) for b, i in drawn], k)
                vals.append(stage_fn(t, summary, y, cont))
            vals.reverse()
            mean = tables.values[t][y] = math.fsum(vals) / samples
            spread = math.fsum((v - mean) ** 2 for v in vals)
            tables.stderrs[t][y] = math.sqrt(spread / (samples - 1) / samples)
    return tables


def _hex_entries(tables):
    return {(t, y): (tables.values[t][y].hex(), tables.stderrs[t][y].hex())
            for t in tables.states for y in tables.states[t]}


# 2 samples is the smallest mc build; at 3, 9, 20 (mc-market's) and 129 an order-dependent
# sum, such as numpy's `mean` and `std`, reads the reversed values differently
@pytest.mark.parametrize("seed", [1, 2 ** 64 + 5])
@pytest.mark.parametrize("samples", [2, 3, 9, 20, 129])
def test_mc_tables_match_per_call_draws(samples, seed):
    """The mc backend (one block of uniforms per state, clipped memoised
    keys, `dp.estimate` in draw order) equals the plain per-call reference,
    summed in reverse draw order, bit for bit, for the optimal and the
    myopic stage, on the first 40 family instances."""
    for instance in range(40):
        cfg = oracle.random_instance(instance)
        kwargs = {"backend": "mc", "samples": samples, "seed": seed}
        for built, stage_fn in ((fm.build_value_tables(cfg, **kwargs), dp._optimal_stage),
                                (simulate.build_myopic_tables(cfg, **kwargs),
                                 simulate._myopic_stage)):
            reference = _per_call_mc_tables(cfg, samples, seed, stage_fn)
            assert _hex_entries(built) == _hex_entries(reference), (instance, built.backend)


def test_mc_constant_sample_has_zero_stderr():
    """An mc entry whose drawn stage values are all equal is that value with
    standard error 0.0, not a rounding residue. On the mc-market market
    (`test_oracle._k3_market(3, 201)`, 20 samples), y=(0, 0, 0) is such an
    entry at every period, and at seed 2 so is t=2, y=(0, 0, 3)."""
    cfg = _k3_market(3, 201)
    for seed in (1, 2):
        drawn = {}

        def recorded(t, summary, y, cont):
            value = dp._optimal_stage(t, summary, y, cont)
            drawn.setdefault((t, y), []).append(value)
            return value

        _per_call_mc_tables(cfg, 20, seed, recorded)
        built = fm.build_value_tables(cfg, backend="mc", samples=20, seed=seed)
        constant = {key: vals[0] for key, vals in drawn.items() if len(set(vals)) == 1}
        assert len(constant) == {1: 3, 2: 4}[seed]
        for (t, y), value in constant.items():
            assert (built.values[t][y], built.stderrs[t][y]) == (value, 0.0), (seed, t, y)


def test_estimate_refuses_a_sample_of_fewer_than_2_draws():
    with pytest.raises(ValueError, match="at least 2 draws .*, got 1$"):
        dp.estimate([0.5], draws=1)
    with pytest.raises(ValueError, match="at least 2 draws .*, got 0$"):
        dp.estimate([], draws=0)
    with pytest.raises(ValueError, match="at least 2 draws .*, got 1$"):
        simulate.RevenueEstimate([1.0], [1.0], 0)


def test_mc_requires_sampling_params(small_cfg):
    with pytest.raises(ValueError):
        fm.build_value_tables(small_cfg, backend="mc", samples=500)
    with pytest.raises(ValueError):
        fm.build_value_tables(small_cfg, backend="mc", seed=1)


def test_mc_build_lists_each_layer_once(small_cfg, monkeypatch):
    """An mc build lists each layer's states once: it calls
    `reachable_states` T + 1 times in all."""
    real, calls = dp.reachable_states, []

    def counted(cfg, t):
        calls.append(t)
        return real(cfg, t)

    monkeypatch.setattr(dp, "reachable_states", counted)
    fm.build_value_tables(small_cfg, backend="mc", samples=2, seed=1)
    assert sorted(calls) == list(range(1, small_cfg.horizon + 2))


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


def _header_size(backend):
    """Bytes before a cache's values: magic, version, fingerprint, backend, samples, seed."""
    return struct.calcsize(f"<8sI64sH{len(backend)}sQBQ")


def test_cache_holds_only_what_the_config_does_not_fix(tmp_path):
    """On the first 40 family instances, a saved cache is its header and one
    double per state of periods 1..T, two for mc (value, standard error)."""
    path = tmp_path / "tables.bin"
    for seed in range(40):
        cfg = oracle.random_instance(seed)
        states = sum(len(dp.reachable_states(cfg, t)) for t in range(1, cfg.horizon + 1))
        for tables in (fm.build_value_tables(cfg),
                       fm.build_value_tables(cfg, backend="mc", samples=3, seed=seed)):
            tables.save(path)
            per_state = 16 if tables.backend == "mc" else 8
            assert path.stat().st_size == _header_size(tables.backend) + per_state * states, \
                (seed, tables.backend)


def _edited_save(path, tables, fmt, at, value):
    tables.save(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, at, value)
    path.write_bytes(blob)


def test_cache_rejects_version_2(tmp_path, small_cfg, small_tables):
    path = tmp_path / "tables.bin"
    _edited_save(path, small_tables, "<I", 8, 2)
    with pytest.raises(TableMismatch, match="^unsupported cache version 2$"):
        ValueTables.load(path, small_cfg)


def test_cache_rejects_version_3(tmp_path, small_cfg, small_tables):
    """Version 3 had this layout, but its exact entries summed over ordered
    profiles, a few ulps off today's sums over the law of keys."""
    path = tmp_path / "tables.bin"
    _edited_save(path, small_tables, "<I", 8, 3)
    with pytest.raises(TableMismatch, match="^unsupported cache version 3$"):
        ValueTables.load(path, small_cfg)


def test_cache_rejects_a_nan_first_value(tmp_path, small_cfg, small_tables):
    path = tmp_path / "tables.bin"
    _edited_save(path, small_tables, "<d", _header_size("exact"), math.nan)
    with pytest.raises(TableMismatch, match=r"t=1, y=\(0, 0\) holds value nan"):
        ValueTables.load(path, small_cfg)


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
