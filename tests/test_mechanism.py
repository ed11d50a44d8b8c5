import math

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import InconsistentAllocation, OffGridValue, TableMismatch, oracle, simulate
from flexmarket.mechanism import NOT_SERVED, Mechanism, make_reports

from conftest import tabulated_config


def w_of(cfg, t, report):
    return fm.virtual_valuation(cfg, t, report.valuation, report.flexibility)


# -- allocation -------------------------------------------------------------------

def test_allocate_empty(example_mech):
    res = example_mech.allocate(1, make_reports([]), (1, 1))
    assert res.matrix.shape == (0, 2)
    assert res.u_star == (0, 0) and res.v_star == (0, 0)


def test_allocate_single_flexible_consumer(example_cfg, example_mech):
    """A lone level-2 consumer at t=1 is served exactly when w exceeds zero."""
    rho21 = fm.continuation_gap(example_mech.tables, 1, (1, 1), 2)
    assert rho21 == 0.0
    for val in (0.05, 0.25, 0.3, 0.35, 0.9):
        reports = make_reports([(val, 2)])
        res = example_mech.allocate(1, reports, (1, 1))
        served = bool(res.matrix.any())
        assert served == (fm.virtual_valuation(example_cfg, 1, val, 2) > 0)
        if served:
            assert res.u_star == (0, 1)
            assert res.matrix[0].sum() == 1


def test_allocate_two_rivals_one_good(example_mech):
    """Two level-1 consumers, one variety-1 good: the higher value wins."""
    reports = make_reports([(0.5, 1), (0.8, 1)])
    res = example_mech.allocate(2, reports, (1, 0))
    assert res.matrix[1, 0] == 1 and res.matrix[0].sum() == 0
    assert res.u_star == (1, 0)


def test_allocate_feasibility_and_goods_order(example_mech):
    """Matrix feasibility: row sums, column budgets, flexibility bounds."""
    reports = make_reports([(0.9, 1), (0.8, 2), (0.7, 2), (0.6, 1)])
    y = (1, 1)
    res = example_mech.allocate(2, reports, y)
    mat = res.matrix
    assert (mat.sum(axis=1) <= 1).all()
    assert (mat.sum(axis=0) <= np.array(y)).all()
    for row, r in enumerate(reports):
        assert mat[row, r.flexibility:].sum() == 0
    assert tuple(mat.sum(axis=0)) == res.v_star


def test_allocate_tie_breaks_by_arrival(example_mech):
    reports = make_reports([(0.8, 1), (0.8, 1)])
    res = example_mech.allocate(2, reports, (1, 0))
    assert res.matrix[0, 0] == 1 and res.matrix[1].sum() == 0


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
            if res.matrix[row].any():
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
                   if r.flexibility == 1 and res.matrix[row].any()]
        bar = min(served1) if served1 else math.inf
        for row, r in enumerate(reports):
            if r.flexibility == 2 and w_of(example_cfg, t, r) > bar:
                assert res.matrix[row].any()


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
                reports = make_reports([mech.sample_type(rng, t) for _ in range(n)])
                res = mech.allocate(t, reports, y)
                ws = [w_of(cfg, t, r) for r in reports]
                for lo in range(1, k + 1):
                    served_lo = sorted(
                        (ws[row] for row, r in enumerate(reports)
                         if r.flexibility == lo and res.matrix[row].any()),
                    )
                    bar = served_lo[0] if served_lo else math.inf
                    for row, r in enumerate(reports):
                        if r.flexibility > lo and ws[row] > bar:
                            assert res.matrix[row].any()


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
            if res.matrix[row].any():
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
            if res.matrix[row].any():
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
    "environments-period-0": (lambda m: next(m.sample_environments(0, 1, 2, 0)), ValueError),
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
