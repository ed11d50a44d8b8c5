import math

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import InconsistentAllocation, OffGridValue, TableMismatch, mechanism, oracle, simulate
from flexmarket.mechanism import NOT_SERVED, Mechanism, make_reports

from conftest import tabulated_config


def w_of(cfg, t, report):
    return fm.virtual_valuation(cfg, t, report.valuation, report.flexibility)


# -- allocation -------------------------------------------------------------------

def test_allocate_empty(example_mech):
    res = example_mech.allocate(1, make_reports([]), (1, 1))
    assert res.varieties == ()
    assert res.u_star == (0, 0) and res.v_star == (0, 0)


def test_allocate_single_flexible_consumer(example_cfg, example_mech):
    """A lone level-2 consumer at t=1 is served exactly when w exceeds zero."""
    rho21 = fm.continuation_gap(example_mech.tables, 1, (1, 1), 2)
    assert rho21 == 0.0
    for val in (0.05, 0.25, 0.3, 0.35, 0.9):
        reports = make_reports([(val, 2)])
        res = example_mech.allocate(1, reports, (1, 1))
        served = bool(res.varieties[0])
        assert served == (fm.virtual_valuation(example_cfg, 1, val, 2) > 0)
        if served:
            assert res.u_star == (0, 1)
            assert res.varieties[0] in (1, 2)


def test_allocate_two_rivals_one_good(example_mech):
    """Two level-1 consumers, one variety-1 good: the higher value wins."""
    reports = make_reports([(0.5, 1), (0.8, 1)])
    res = example_mech.allocate(2, reports, (1, 0))
    assert res.varieties == (0, 1)
    assert res.u_star == (1, 0)


def test_allocate_feasibility_and_goods_order(example_mech):
    """Feasibility: one good per consumer, variety budgets, flexibility bounds."""
    reports = make_reports([(0.9, 1), (0.8, 2), (0.7, 2), (0.6, 1)])
    y = (1, 1)
    res = example_mech.allocate(2, reports, y)
    assert len(res.varieties) == len(reports)
    spent = oracle.varieties_of(res.varieties, len(y))
    assert all(s <= yj for s, yj in zip(spent, y))
    for variety, r in zip(res.varieties, reports):
        assert 0 <= variety <= r.flexibility
    assert spent == res.v_star


def test_allocate_tie_breaks_by_arrival(example_mech):
    reports = make_reports([(0.8, 1), (0.8, 1)])
    res = example_mech.allocate(2, reports, (1, 0))
    assert res.varieties == (1, 0)


def test_served_consumers_have_positive_w(example_cfg, example_mech):
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(0, 4)
        reports = make_reports(
            [(example_cfg.grid.snap(rng.uniform()), int(rng.integers(1, 3))) for _ in range(n)]
        )
        t = int(rng.integers(1, 3))
        y = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        res = example_mech.allocate(t, reports, y)
        for row, r in enumerate(reports):
            if res.varieties[row]:
                assert w_of(example_cfg, t, r) > 0


def test_flexible_consumers_with_better_w_are_served(example_cfg, example_mech):
    """Any level-2 consumer beating the lowest served level-1 value is served too."""
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        reports = make_reports(
            [(example_cfg.grid.snap(rng.uniform()), int(rng.integers(1, 3))) for _ in range(n)]
        )
        t = int(rng.integers(1, 3))
        y = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        res = example_mech.allocate(t, reports, y)
        served1 = [w_of(example_cfg, t, r) for row, r in enumerate(reports)
                   if r.flexibility == 1 and res.varieties[row]]
        bar = min(served1) if served1 else math.inf
        for row, r in enumerate(reports):
            if r.flexibility == 2 and w_of(example_cfg, t, r) > bar:
                assert res.varieties[row]


def test_flexibility_ordering_on_random_instances():
    """Across random instances: beat the lowest served lower-level value => served."""
    rng = np.random.default_rng(3)
    for seed in range(6):
        cfg = oracle.random_instance(seed)
        tables = fm.build_value_tables(cfg)
        mech = Mechanism(tables)
        k = cfg.varieties
        for t in range(1, cfg.horizon + 1):
            states = list(tables.states[t])
            for _ in range(15):
                y = states[int(rng.integers(len(states)))]
                n = int(rng.integers(0, 4))
                reports = make_reports([mech.sample_type(rng.random, t) for _ in range(n)])
                res = mech.allocate(t, reports, y)
                ws = [w_of(cfg, t, r) for r in reports]
                for lo in range(1, k + 1):
                    served_lo = sorted(
                        (ws[row] for row, r in enumerate(reports)
                         if r.flexibility == lo and res.varieties[row]),
                    )
                    bar = served_lo[0] if served_lo else math.inf
                    for row, r in enumerate(reports):
                        if r.flexibility > lo and ws[row] > bar:
                            assert res.varieties[row]


def test_allocations_match_oracle_matrices():
    """On seeded reports over family instances, an allocation is one of the
    oracle's feasible matrices (the same one-variety-per-row encoding), and its
    service and spent varieties are the stage's u* and v*."""
    rng = np.random.default_rng(14)
    served = 0
    for seed in range(8):
        cfg = oracle.random_instance(seed)
        mech = Mechanism(fm.build_value_tables(cfg))
        k = cfg.varieties
        for t in range(1, cfg.horizon + 1):
            states = mech.tables.states[t]
            for _ in range(25):
                y = states[int(rng.integers(len(states)))]
                n = int(rng.integers(0, 4))
                reports = make_reports([mech.sample_type(rng.random, t) for _ in range(n)])
                res = mech.allocate(t, reports, y)
                flexibilities = [r.flexibility for r in reports]
                assert res.varieties in oracle.enumerate_feasible_matrices(flexibilities, y)
                assert oracle.service_of(res.varieties, flexibilities, k) == res.u_star
                assert oracle.varieties_of(res.varieties, k) == res.v_star
                served += any(res.varieties)
    assert served > 50


# -- thresholds and payments ---------------------------------------------------------

def test_thresholds_match_reported_values(example_mech):
    assert example_mech.payment_threshold(1, [], 1, (1, 1)) == pytest.approx(0.389, abs=1e-9)
    assert example_mech.payment_threshold(1, [], 2, (1, 1)) == pytest.approx(0.29, abs=0.01)
    # final period: the reserve price, exactly the grid reserve
    res = fm.reserve_price(example_mech.cfg, 2, 1)
    assert example_mech.payment_threshold(2, [], 1, (1, 1)) == res
    assert res == pytest.approx(0.36, abs=0.005)


def test_thresholds_non_increasing_over_time(example_mech):
    """Later arrivals face less future competition and never pay more."""
    for j in (1, 2):
        early = example_mech.payment_threshold(1, [], j, (1, 1))
        late = example_mech.payment_threshold(2, [], j, (1, 1))
        assert early >= late


def test_threshold_never_served(example_mech):
    """With no goods the probe never wins at any grid point."""
    assert example_mech.payment_threshold(1, [], 1, (0, 0)) is NOT_SERVED
    assert example_mech.payment_threshold(1, [], 1, (0, 1)) is NOT_SERVED  # variety 2 unusable


def test_payments_examples(example_mech):
    pays = example_mech.payments(1, make_reports([(0.8, 1)]), (1, 1))
    assert pays[0] == pytest.approx(0.389, abs=1e-9)
    pays = example_mech.payments(2, make_reports([(0.5, 2)]), (0, 1))
    assert pays[0] == pytest.approx(0.29, abs=0.01)
    pays = example_mech.payments(1, make_reports([(0.2, 1)]), (1, 1))
    assert pays == (0.0,)  # unserved pays nothing


def test_critical_value_property(example_cfg, example_mech):
    """Served iff the report clears the threshold; served consumers pay it exactly."""
    rng = np.random.default_rng(2)
    grid = example_cfg.grid
    for _ in range(40):
        n = int(rng.integers(1, 4))
        reports = make_reports(
            [(grid.snap(rng.uniform()), int(rng.integers(1, 3))) for _ in range(n)]
        )
        t = int(rng.integers(1, 3))
        y = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        res = example_mech.allocate(t, reports, y)
        pays = example_mech.payments(t, reports, y, res)
        for row, r in enumerate(reports):
            others = [x for x in reports if x is not r]
            tau = example_mech.payment_threshold(t, others, r.flexibility, y,
                                                 probe_index=row + 1)
            if res.varieties[row]:
                assert tau is not NOT_SERVED
                assert tau <= r.valuation + 1e-12
                assert pays[row] == tau
            else:
                assert pays[row] == 0.0
                assert tau is NOT_SERVED or r.valuation <= tau + 1e-12


def test_payment_consistency_under_heavy_ties():
    """A 5-point grid forces constant tie-breaking; payments must stay coherent."""
    cfg = fm.build_example_config((2.0, 3.0), 0.5, 2, 5)
    mech = Mechanism(fm.build_value_tables(cfg))
    rng = np.random.default_rng(0)
    served_checked = 0
    for _ in range(800):
        n = int(rng.integers(1, 6))
        reports = make_reports(
            [(cfg.grid.snap(rng.uniform()), int(rng.integers(1, 3))) for _ in range(n)]
        )
        t = int(rng.integers(1, 3))
        y = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        res = mech.allocate(t, reports, y)
        pays = mech.payments(t, reports, y, res)
        for row, r in enumerate(reports):
            if res.varieties[row]:
                assert pays[row] <= r.valuation + 1e-12
                served_checked += 1
            else:
                assert pays[row] == 0.0
    assert served_checked > 200


def test_payments_detect_inconsistent_allocation(example_mech):
    """A fabricated allocation claiming service without supply is rejected."""
    reports = make_reports([(0.8, 1)])
    good = example_mech.allocate(1, reports, (1, 1))
    with pytest.raises(InconsistentAllocation):
        example_mech.payments(1, reports, (0, 0), good)


def test_payment_reads_the_served_grid_point(example_mech):
    """A report a hair below a grid point is read as that point by both
    `allocate` and the payment check, so it is served and pays the point."""
    reports = make_reports([(0.294 - 1e-11, 2)])
    assert example_mech.allocate(1, reports, (1, 1)).varieties == (2,)
    assert example_mech.payments(1, reports, (1, 1)) == (0.294,)


def test_level_without_reserve_is_never_served():
    """Valuations in [-2, -1] have negative virtual values on the whole grid:
    the threshold scan is empty, its NOT_SERVED is memoised like any other
    threshold, and a claimed service is refused."""
    mech = Mechanism(fm.build_value_tables(tabulated_config([1.0] * 5, grid=(-2.0, -1.0, 5))))
    with pytest.raises(fm.NoNonnegativePoint):
        fm.reserve_price(mech.cfg, 1, 1)
    assert mech.payment_threshold(1, [], 1, (1,)) is NOT_SERVED
    assert list(mech._threshold_memo.values()) == [NOT_SERVED]
    reports = make_reports([(-1.0, 1)])
    assert mech.allocate(1, reports, (1,)).varieties == (0,)
    with pytest.raises(InconsistentAllocation, match="wins at no grid point"):
        mech.payments(1, reports, (1,), mechanism.AllocationResult((1,), (1,), (1,)))


def test_interim_rejects_foreign_tables(example_cfg, example_tables, small_tables):
    est = simulate.interim_quantities(example_cfg, example_tables, 1, 1, 1, (0.8, 1))
    assert est.allocation == 1.0
    with pytest.raises(TableMismatch):
        simulate.interim_quantities(example_cfg, small_tables, 1, 1, 1, (0.5, 1))


_BAD_INDEX = {  # each call names a level, period or probe slot outside its range
    "reserve-level-0": (lambda m: fm.reserve_price(m.cfg, 2, 0), OffGridValue),
    "reserve-level-k+1": (lambda m: fm.reserve_price(m.cfg, 2, 3), OffGridValue),
    "reserve-period-0": (lambda m: fm.reserve_price(m.cfg, 0, 1), ValueError),
    "reserve-period-T+1": (lambda m: fm.reserve_price(m.cfg, 3, 1), ValueError),
    "inverse-level-0": (lambda m: fm.inverse_virtual(m.cfg, 1, 0.0, 0), OffGridValue),
    "inverse-period-0": (lambda m: fm.inverse_virtual(m.cfg, 0, 0.0, 1), ValueError),
    "virtual-period-0": (lambda m: fm.virtual_valuation(m.cfg, 0, 0.5, 1), ValueError),
    "gap-level-0": (lambda m: fm.continuation_gap(m.tables, 1, (1, 1), 0), OffGridValue),
    "gap-level-k+1": (lambda m: fm.continuation_gap(m.tables, 1, (1, 1), 3), OffGridValue),
    "gap-period-0": (lambda m: fm.continuation_gap(m.tables, 0, (1, 1), 1), ValueError),
    "gap-period-T+1": (lambda m: fm.continuation_gap(m.tables, 3, (1, 1), 1), ValueError),
    "allocate-period-0": (lambda m: m.allocate(0, make_reports([(0.5, 1)]), (1, 1)), ValueError),
    "allocate-period-T+1": (lambda m: m.allocate(3, make_reports([(0.5, 1)]), (1, 1)),
                            ValueError),
    "allocate-period-T+1-no-reports": (lambda m: m.allocate(3, (), (1, 1)), ValueError),
    "allocate-level-0": (lambda m: m.allocate(1, make_reports([(0.5, 0)]), (1, 1)), OffGridValue),
    "allocate-level-k+1": (lambda m: m.allocate(1, make_reports([(0.5, 3)]), (1, 1)),
                           OffGridValue),
    "environments-period-0": (lambda m: next(m.sample_environments(0, 1, 2, 0)), ValueError),
    # without the accessors' check, t = 0 draws from period T and t = T + 1 raises IndexError
    "arrival-count-period-0": (lambda m: m.sample_arrival_count(lambda: 0.5, 0), ValueError),
    "arrival-count-period-T+1": (lambda m: m.sample_arrival_count(lambda: 0.5, 3), ValueError),
    "type-period-0": (lambda m: m.sample_type(lambda: 0.5, 0), ValueError),
    "type-period-T+1": (lambda m: m.sample_type(lambda: 0.5, 3), ValueError),
    "supply-arrivals-period-0": (lambda m: m.sample_supply_arrivals(lambda: 0.5, 0), ValueError),
    "supply-arrivals-period-T+1": (lambda m: m.sample_supply_arrivals(lambda: 0.5, 3),
                                   ValueError),
    "atoms-period-0": (lambda m: m.cfg.consumer_atoms(0), ValueError),
    "atoms-period-T+1": (lambda m: m.cfg.consumer_atoms(3), ValueError),
    # without its check, t = 0 returns period 1's supply and t = T + 1 raises IndexError
    "supply-state-period-0": (lambda m: m.sample_supply_state(lambda: 0.5, 0), ValueError),
    "supply-state-period-T+1": (lambda m: m.sample_supply_state(lambda: 0.5, 3), ValueError),
    "environments-period-T+1": (lambda m: next(m.sample_environments(3, 1, 2, 0)), ValueError),
    "bic-audit-period-T+1": (lambda m: simulate.bic_audit(
        m.cfg, m.tables, simulate.AuditProbe.default(m.cfg, 3), 2, 0), ValueError),
    "ir-audit-period-T+1": (lambda m: simulate.ir_audit(
        m.cfg, m.tables, 2, 0, probes=[simulate.AuditProbe.default(m.cfg, 3)]), ValueError),
    "interim-period-T+1": (lambda m: simulate.interim_quantities(
        m.cfg, m.tables, 3, 1, 1, (0.5, 1)), ValueError),
    # valuation 0 is never served, so only an up-front check can reject slot 0
    "bic-audit-slot-0": (lambda m: simulate.bic_audit(m.cfg, m.tables, simulate.AuditProbe(
        t=1, true_types=((0.0, 1),), deviation_values=(0.0,), slot=0), 2, 0), ValueError),
    "ir-audit-slot-n+1": (lambda m: simulate.ir_audit(m.cfg, m.tables, 2, 0, probes=[
        simulate.AuditProbe(t=1, true_types=((0.5, 1),), deviation_values=(), n_t=2, slot=3)]),
        ValueError),
    "ir-audit-no-arrivals": (lambda m: simulate.ir_audit(m.cfg, m.tables, 2, 0, probes=[
        simulate.AuditProbe(t=1, true_types=((0.5, 1),), deviation_values=(), n_t=0)]),
        ValueError),
    "probe-slot-0": (lambda m: m.payment_threshold(1, make_reports([(0.5, 1)]), 1, (1, 1),
                                                   probe_index=0), ValueError),
    "probe-slot-n+1": (lambda m: m.payment_threshold(1, make_reports([(0.5, 1)]), 1, (1, 1),
                                                     probe_index=3), ValueError),
}


@pytest.mark.parametrize("case", sorted(_BAD_INDEX))
def test_out_of_range_index_raises(small_tables, case):
    """numpy's negative indexing must not turn a bad index into another row."""
    call, error = _BAD_INDEX[case]
    with pytest.raises(error):
        call(Mechanism(small_tables))


@pytest.mark.parametrize("n_t", [0, -3])
def test_environments_need_an_arrival(small_tables, monkeypatch, n_t):
    """A probe is one of n_t >= 1 arrivals; no environment is drawn otherwise."""
    draws = []
    monkeypatch.setattr(Mechanism, "sample_supply_state", lambda self, rng, t: draws.append(t))
    mech = Mechanism(small_tables)
    with pytest.raises(ValueError):
        mech.environment_law(2, n_t, 5, 1)
    with pytest.raises(ValueError):
        next(mech.sample_environments(2, n_t, 5, 1))
    assert draws == [] and mech._law_memo == {}


# -- interim quantities ----------------------------------------------------------------

@pytest.fixture(scope="module")
def crowded_cfg():
    """Two varieties, two possible arrivals, stochastic supply, coarse grid."""
    cfg = tabulated_config(
        [[1.0] * 9, [1.0] * 9], T=1, k=2, grid=(0.0, 1.0, 9), n_max=2, p_arrive=0.8,
        supply=[[[0.5, 0.5], [0.5, 0.5]]],
    )
    return cfg


@pytest.fixture(scope="module")
def crowded(crowded_cfg):
    return Mechanism(fm.build_value_tables(crowded_cfg))


def interim(mech, *args, **kwargs):
    return simulate.interim_quantities(mech.cfg, mech.tables, *args, mech=mech, **kwargs)


def test_interim_at_bottom_type_is_zero(crowded_cfg, crowded):
    for c in (1, 2):
        est = interim(crowded, 1, 2, 1, (0.0, c))
        assert est.replications is None  # exact enumeration
        assert est.allocation == 0.0 and est.payment == 0.0


def test_interim_at_top_type_equals_supply_availability(crowded_cfg, crowded):
    """Q(theta_max, k) equals the probability that any good at all shows up."""
    est = interim(crowded, 1, 1, 1, (1.0, 2))
    p_none = float(crowded_cfg.supply.pmf(1, 1)[0] * crowded_cfg.supply.pmf(1, 2)[0])
    assert est.allocation == pytest.approx(1.0 - p_none, abs=1e-12)


def test_interim_monotone_in_report_and_level(crowded_cfg, crowded):
    grid = crowded_cfg.grid.points
    for n_t in (1, 2):
        prev = {1: -1.0, 2: -1.0}
        for r in grid:
            qs = {}
            for c in (1, 2):
                est = interim(crowded, 1, n_t, 1, (float(r), c))
                qs[c] = est.allocation
                assert est.allocation >= prev[c] - 1e-12
                prev[c] = est.allocation
            assert qs[2] >= qs[1] - 1e-12


def test_interim_payment_identity(crowded_cfg, crowded):
    """P = r Q - sum of Q over lower grid cells, up to one grid cell of slack."""
    grid = crowded_cfg.grid.points
    delta = crowded_cfg.grid.step
    for c in (1, 2):
        ests = [interim(crowded, 1, 2, 1, (float(r), c))
                for r in grid]
        for i, r in enumerate(grid):
            riemann = math.fsum(e.allocation * delta for e in ests[:i])
            identity = float(r) * ests[i].allocation - riemann
            diff = ests[i].payment - identity
            assert -delta - 1e-12 <= diff <= 1e-12
            # the payment never exceeds the envelope bound
            assert ests[i].payment <= identity + 1e-12


def test_interim_simulation_backend(example_mech):
    est = interim(example_mech, 2, 1, 1, (0.9, 1), replications=400, seed=9)
    est2 = interim(example_mech, 2, 1, 1, (0.9, 1), replications=400, seed=9)
    assert est == est2  # deterministic in the seed
    assert est.replications == 400
    assert 0.0 <= est.allocation <= 1.0
    assert est.allocation_se > 0
    low = interim(example_mech, 2, 1, 1, (0.2, 1), replications=400, seed=9)
    assert est.allocation >= low.allocation


# -- step --------------------------------------------------------------------------

def test_step_arithmetic(example_mech):
    out, y_next = example_mech.step(1, (1, 1), make_reports([(0.8, 1)]), (0, 1))
    assert out.v_star == (1, 0) and out.next_supply == (0, 1)
    assert y_next == (0, 2)

    out, y_next = example_mech.step(1, (0, 0), make_reports([(0.9, 2)]), (1, 0))
    assert out.v_star == (0, 0)
    assert y_next == (1, 0)

    # larger supply needs an instance whose state space actually reaches (2, 1)
    cfg = tabulated_config(
        [[1.0] * 9, [1.0] * 9], T=1, k=2, grid=(0.0, 1.0, 9), n_max=2,
        supply=[[[0.0, 0.0, 1.0], [0.0, 1.0]]],
    )
    big = Mechanism(fm.build_value_tables(cfg))
    out, y_next = big.step(1, (2, 1), make_reports([(0.875, 1), (0.875, 2)]), (0, 0))
    assert out.v_star == (1, 1)
    assert y_next == (1, 0)


def _inconsistent_tables():
    """One variety, T = 2, and a continuation that rises as stock falls
    (C_2((0,)) = 0.5, C_2((1,)) = 0.0): every report is served at t = 1, so
    one below the reserve is charged more than its report."""
    cfg = fm.config_io.parse_config({
        "horizon": 2, "varieties": 1, "grid": {"min": 0.0, "max": 1.0, "points": 11},
        "arrivals": [[0.0, 1.0], [0.0, 1.0]], "supply": [[[0.0, 1.0]], [[1.0]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0]},
    })
    states = {t: [(0,), (1,)] for t in (1, 2, 3)}
    values = {1: {(0,): 0.0, (1,): 0.5}, 2: {(0,): 0.5, (1,): 0.0}, 3: {(0,): 0.0, (1,): 0.0}}
    return fm.ValueTables(config=cfg, backend="mc", samples=2, seed=0, values=values,
                          stderrs={t: dict.fromkeys(states[t], 0.0) for t in states})


def test_inconsistent_allocation_raises_on_every_repeat():
    """`InconsistentAllocation` raises on every repeat of the period on one
    session."""
    mech = Mechanism(_inconsistent_tables())
    reports = make_reports([(0.0, 1)])
    for _ in range(3):
        with pytest.raises(InconsistentAllocation, match="exceeds the served report 0.0"):
            mech.step(1, (1,), reports, (0,))


def test_bad_reports_raise_after_valid_reads(small_tables):
    """A session that has read valid reports still refuses, every time, a
    valuation off the grid and a level outside 1..k, alone or beside a
    report it has read. `allocate` looks its memo up before it checks
    (t, y), yet the very reports it has allocated still raise at a period
    outside 1..T and at a supply vector that is no state of period t."""
    mech = Mechanism(small_tables)
    good = make_reports([(0.5, 1), (0.75, 2), (0.5, 2)])
    want = mech.allocate(1, good, (1, 1))
    assert mech._read_memo
    for bad in ([(0.5001, 1)], [(0.5, 3)], [(0.5, 0)], [(0.5, 1), (0.5, 3)],
                [(0.75, 2), (0.7501, 2)]):
        for _ in range(2):
            with pytest.raises(OffGridValue):
                mech.allocate(1, make_reports(bad), (1, 1))
    for t, y, error in [(0, (1, 1), ValueError), (3, (1, 1), ValueError), (-1, (1, 1), ValueError),
                        (1, (2, 0), TableMismatch), (1, (1, 1, 0), TableMismatch),
                        (1, (-1, 0), TableMismatch), (1, (), TableMismatch)]:
        for _ in range(2):
            with pytest.raises(error):
                mech.allocate(t, good, y)
    assert mech.allocate(1, good, (1, 1)) is want
    assert list(mech._alloc_memo) == [(1, (1, 1), good)]


def test_read_memo_stays_bounded(small_cfg, small_tables, monkeypatch):
    """Under a tiny bound the read memo is cleared over and over, yet
    episodes come out identical."""
    def run():
        mech = Mechanism(small_tables)
        traces = [fm.sample_episode(small_cfg, small_tables, s, mech=mech) for s in range(40)]
        return traces, mech

    unbounded, _ = run()
    monkeypatch.setattr(mechanism, "MEMO_BOUND", 2)
    bounded, mech = run()
    assert bounded == unbounded
    assert len(mech._read_memo) <= 2


# -- memos -------------------------------------------------------------------------

def test_memo_bound_keeps_results(small_cfg, small_tables, monkeypatch):
    """A tiny bound clears the allocation and threshold memos over and over, yet
    episodes and audits come out identical and neither memo outgrows it."""
    def run():
        mech = Mechanism(small_tables)
        rows = [list(simulate.trace_rows(s, fm.sample_episode(small_cfg, small_tables, s, mech=mech)))
                for s in range(40)]
        probe = simulate.AuditProbe.default(small_cfg, 2, points=5)
        bic = simulate.bic_audit(small_cfg, small_tables, probe, 200, 3, mech=mech)
        ir = simulate.ir_audit(small_cfg, small_tables, 200, 3, mech=mech)
        return rows, bic.to_json(), ir.to_json()

    unbounded = run()
    bound, sizes_seen = 3, []

    def checked(method):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            sizes = (len(self._alloc_memo), len(self._threshold_memo))
            assert max(sizes) <= bound
            sizes_seen.append(sizes)
            return out
        return wrapper

    monkeypatch.setattr(mechanism, "MEMO_BOUND", bound)
    monkeypatch.setattr(Mechanism, "allocate", checked(Mechanism.allocate))
    monkeypatch.setattr(Mechanism, "payment_threshold", checked(Mechanism.payment_threshold))
    assert run() == unbounded
    assert tuple(map(max, zip(*sizes_seen))) == (bound, bound)  # both memos filled up
