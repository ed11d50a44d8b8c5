import json

import numpy as np
import pytest

import flexmarket as fm
from flexmarket import market, oracle, simulate
from flexmarket.dp import ValueTables
from flexmarket.mechanism import Mechanism
from flexmarket.simulate import AuditProbe


@pytest.fixture(scope="module")
def small_mech(small_tables):
    return Mechanism(small_tables)


# -- episodes ---------------------------------------------------------------------

def test_episode_deterministic(small_cfg, small_tables, small_mech):
    a = fm.sample_episode(small_cfg, small_tables, 123, mech=small_mech)
    b = fm.sample_episode(small_cfg, small_tables, 123, mech=small_mech)
    assert a == b
    c = fm.sample_episode(small_cfg, small_tables, 124, mech=small_mech)
    assert a != c


def test_config_serialised_once(tmp_path, monkeypatch):
    """Solve, episodes, an audit and a cache round trip hash a config once."""
    real, calls = market.canonical_dict, []
    monkeypatch.setattr(market, "canonical_dict", lambda cfg: calls.append(cfg) or real(cfg))
    cfg = fm.build_example_config((2.0, 3.0), 0.5, 2, 41)
    tables = fm.build_value_tables(cfg)
    mech = Mechanism(tables)
    for seed in range(5):
        fm.sample_episode(cfg, tables, seed, mech=mech)
    fm.bic_audit(cfg, tables, AuditProbe.default(cfg, 2, points=5), 20, 0, mech=mech)
    tables.save(tmp_path / "tables.bin")
    ValueTables.load(tmp_path / "tables.bin", cfg)
    assert len(calls) == 1


def test_zero_arrivals_zero_revenue():
    cfg = fm.build_example_config((2.0, 3.0), 0.0, 2, 21)
    tables = fm.build_value_tables(cfg)
    for seed in range(5):
        tr = fm.sample_episode(cfg, tables, seed)
        assert tr.total_revenue == 0.0
        assert all(len(rec.true_types) == 0 for rec in tr.periods)


def test_final_period_winners_pay_reserve(small_cfg, small_tables, small_mech):
    """Every period-2 sale in every trace goes at exactly the level's reserve."""
    reserves = {j: fm.reserve_price(small_cfg, 2, j) for j in (1, 2)}
    seen = 0
    for seed in range(200):
        tr = fm.sample_episode(small_cfg, small_tables, seed, mech=small_mech)
        rec = tr.periods[1]
        for row, (val, lvl) in enumerate(rec.true_types):
            if rec.outcome.variety_received(row):
                assert rec.outcome.payments[row] == reserves[lvl]
                seen += 1
    assert seen > 10


def test_supply_conservation(small_cfg, small_tables, small_mech):
    """Cumulative allocations never outrun cumulative arrivals, per variety."""
    for seed in range(100):
        tr = fm.sample_episode(small_cfg, small_tables, seed, mech=small_mech)
        arrived = np.zeros(small_cfg.varieties, dtype=int)
        spent = np.zeros_like(arrived)
        y = None
        for rec in tr.periods:
            arrived += rec.supply_arrived
            if y is not None:
                assert rec.supply_before == y
            spent += rec.outcome.v_star
            assert (spent <= arrived).all()
            y = tuple(a + b for a, b in zip(
                rec.outcome.next_supply,
                (0,) * small_cfg.varieties if rec.t == small_cfg.horizon
                else tr.periods[rec.t].supply_arrived,
            ))


def test_payments_never_exceed_reports(small_cfg, small_tables, small_mech):
    for seed in range(100):
        tr = fm.sample_episode(small_cfg, small_tables, seed, mech=small_mech)
        for rec in tr.periods:
            for row, (val, lvl) in enumerate(rec.true_types):
                assert rec.outcome.payments[row] <= val + 1e-12
                if not rec.outcome.variety_received(row):
                    assert rec.outcome.payments[row] == 0.0


def test_varieties_respect_flexibility(small_cfg, small_tables, small_mech):
    for seed in range(100):
        tr = fm.sample_episode(small_cfg, small_tables, seed, mech=small_mech)
        for rec in tr.periods:
            for row, (val, lvl) in enumerate(rec.true_types):
                variety = rec.outcome.variety_received(row)
                assert variety <= lvl


# -- revenue -----------------------------------------------------------------------

def test_revenue_matches_exact_virtual_surplus(small_cfg, small_tables, small_mech):
    est = fm.estimate_revenue(small_cfg, small_tables, 6000, 17, mech=small_mech)
    exact = fm.expected_virtual_surplus(small_tables)
    assert abs(est.mean - exact) <= 3 * est.stderr
    assert abs(est.virtual_mean - exact) <= 3 * est.virtual_stderr
    assert abs(est.diff_mean) <= 3 * est.diff_stderr + 1e-12


def test_revenue_zero_arrival_edge():
    cfg = fm.build_example_config((2.0, 3.0), 0.0, 2, 21)
    tables = fm.build_value_tables(cfg)
    est = fm.estimate_revenue(cfg, tables, 10, 0)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_estimate_requires_replications(small_cfg, small_tables):
    with pytest.raises(ValueError):
        fm.estimate_revenue(small_cfg, small_tables, 1, 0)


def test_three_variety_instance_end_to_end():
    """A k=3 regular instance clears validation, audits and the revenue check."""
    cfg = fm.build_example_config((1.5, 2.5, 3.5), 0.6, 2, 31)
    assert fm.validate_config(cfg).passed
    tables = fm.build_value_tables(cfg)
    mech = Mechanism(tables)
    est = fm.estimate_revenue(cfg, tables, 3000, 3, mech=mech)
    exact = fm.expected_virtual_surplus(tables)
    assert -cfg.grid.step * 3 - 3 * est.stderr <= est.mean - exact <= 3 * est.stderr
    for t in (1, 2):
        rep = simulate.bic_audit(cfg, tables, AuditProbe.default(cfg, t, points=9),
                                 2500, 5, mech=mech)
        assert rep.worst_gain <= 3 * rep.worst_gain_stderr + 1e-12
    ir = simulate.ir_audit(cfg, tables, 2500, 6, mech=mech)
    assert ir.min_utility >= -3 * ir.min_utility_stderr - 1e-12


def test_revenue_deficit_bounded_by_one_grid_cell():
    """Grid thresholds sit one cell under the discrete critical value, so
    revenue may trail exact virtual surplus by at most step * E[sales]."""
    from flexmarket.market import (
        ArrivalDistribution, SupplyDistribution, TypeDistribution, ValuationGrid,
    )

    g = ValuationGrid.uniform(0.0, 1.0, 9)   # deliberately coarse
    raw = np.ones((3, 2, 9))
    widths = np.diff(g.points)
    cdf = np.zeros_like(raw)
    cdf[..., 1:] = np.cumsum((raw[..., :-1] + raw[..., 1:]) / 2.0 * widths, axis=-1)
    norm = cdf[..., -1:].copy()
    cfg = fm.MarketConfig(
        horizon=3, varieties=2, grid=g,
        types=TypeDistribution.from_tables(np.full((3, 2), 0.5), raw / norm, cdf / norm),
        arrivals=ArrivalDistribution.from_lists([[0.3, 0.5, 0.2]] * 3),
        supply=SupplyDistribution.from_lists([[[0.0, 1.0], [0.5, 0.5]]] * 3),
    )
    tables = fm.build_value_tables(cfg)
    mech = Mechanism(tables)
    est = fm.estimate_revenue(cfg, tables, 2000, 1, mech=mech)
    exact = fm.expected_virtual_surplus(tables)
    sales = 0
    for seed in range(400):
        tr = fm.sample_episode(cfg, tables, seed, mech=mech)
        sales += sum(int(rec.outcome.variety_received(r) > 0)
                     for rec in tr.periods for r in range(len(rec.true_types)))
    bound = g.step * sales / 400
    assert -3 * est.stderr <= exact - est.mean <= bound + 3 * est.stderr


# -- myopic baseline -----------------------------------------------------------------

def test_myopic_never_beats_optimal(small_cfg, small_tables):
    myopic = simulate.build_myopic_tables(small_cfg)
    assert simulate.expected_virtual_surplus(myopic) <= fm.expected_virtual_surplus(small_tables)
    for t in myopic.states:
        for y in myopic.states[t]:
            assert myopic.values[t][y] <= small_tables.values[t][y]


def test_myopic_dominance_on_random_instances():
    for seed in range(15):
        cfg = oracle.random_instance(seed)
        tables = fm.build_value_tables(cfg)
        myopic = simulate.build_myopic_tables(cfg)
        assert simulate.expected_virtual_surplus(myopic) <= fm.expected_virtual_surplus(tables)


def test_myopic_differs_when_waiting_pays(small_cfg, small_tables):
    """The worked instance rewards withholding from low-value early consumers."""
    myopic = simulate.build_myopic_tables(small_cfg)
    assert simulate.expected_virtual_surplus(myopic) < fm.expected_virtual_surplus(small_tables)


# -- audits -----------------------------------------------------------------------------

def test_bic_truthful_deviation_gains_nothing(small_cfg, small_tables, small_mech):
    probe = AuditProbe(t=1, true_types=((0.5, 1),), deviation_values=(0.5,))
    rep = simulate.bic_audit(small_cfg, small_tables, probe, 50, 3, mech=small_mech)
    truth_rows = [e for e in rep.entries if e.deviation == e.true_type]
    assert truth_rows and all(e.value == 0.0 and e.stderr == 0.0 for e in truth_rows)


def test_bic_underreport_forfeits_surplus(example_cfg, example_tables, example_mech):
    """Shading 0.8 down to 0.3 at t=1 loses the whole truthful surplus 0.8 - 0.39."""
    probe = AuditProbe(t=1, true_types=((0.8, 1),), deviation_values=(0.3,))
    rep = simulate.bic_audit(example_cfg, example_tables, probe, 100, 0, mech=example_mech)
    entry = next(e for e in rep.entries if e.deviation == (0.3, 1))
    threshold = example_mech.payment_threshold(1, [], 1, (1, 1))
    assert entry.value == -(0.8 - threshold)
    assert entry.stderr == 0.0  # the period-1 environment is deterministic here
    assert entry.value == pytest.approx(-(0.8 - 0.39), abs=0.01)


def test_bic_worst_gain_within_noise(small_cfg, small_tables, small_mech):
    for t in (1, 2):
        probe = AuditProbe.default(small_cfg, t, points=11)
        rep = simulate.bic_audit(small_cfg, small_tables, probe, 3000, 5, mech=small_mech)
        for e in rep.entries:
            assert e.value <= 3 * e.stderr + 1e-12
        assert rep.worst_gain <= 3 * rep.worst_gain_stderr + 1e-12


def test_audits_deterministic(small_cfg, small_tables, small_mech):
    probe = AuditProbe.default(small_cfg, 2, points=5)
    a = simulate.bic_audit(small_cfg, small_tables, probe, 300, 9, mech=small_mech)
    b = simulate.bic_audit(small_cfg, small_tables, probe, 300, 9, mech=small_mech)
    assert a.entries == b.entries
    ira = simulate.ir_audit(small_cfg, small_tables, 300, 9, mech=small_mech)
    irb = simulate.ir_audit(small_cfg, small_tables, 300, 9, mech=small_mech)
    assert ira.entries == irb.entries


def test_bic_probes_never_overreport_flexibility(small_cfg, small_tables, small_mech):
    probe = AuditProbe.default(small_cfg, 1, points=5)
    rep = simulate.bic_audit(small_cfg, small_tables, probe, 20, 1, mech=small_mech)
    for e in rep.entries:
        assert e.deviation[1] <= e.true_type[1]


def test_ir_bottom_type_gets_zero(small_cfg, small_tables, small_mech):
    rep = simulate.ir_audit(small_cfg, small_tables, 200, 7, mech=small_mech)
    bottom = [e for e in rep.entries if e.true_type[0] == 0.0]
    assert bottom and all(e.value == 0.0 and e.stderr == 0.0 for e in bottom)


def test_ir_minimum_nonnegative_within_noise(small_cfg, small_tables, small_mech):
    rep = simulate.ir_audit(small_cfg, small_tables, 2000, 7, mech=small_mech)
    assert rep.min_utility >= -3 * rep.min_utility_stderr - 1e-12
    for e in rep.entries:
        assert e.value >= -3 * e.stderr - 1e-12


@pytest.mark.parametrize("replications", [0, 1])
def test_bic_audit_requires_replications(small_cfg, small_tables, replications):
    with pytest.raises(ValueError):
        simulate.bic_audit(small_cfg, small_tables, AuditProbe.default(small_cfg, 2, points=5),
                           replications, 0)


@pytest.mark.parametrize("replications", [0, 1])
def test_ir_audit_requires_replications(small_cfg, small_tables, replications):
    with pytest.raises(ValueError):
        simulate.ir_audit(small_cfg, small_tables, replications, 0)


@pytest.mark.parametrize("replications", [0, 1])
def test_sampled_interim_requires_replications(small_cfg, small_tables, replications):
    with pytest.raises(ValueError):
        simulate.interim_quantities(small_cfg, small_tables, 2, 1, 1, (0.5, 1),
                                    replications=replications)


_EMPTY_AUDITS = {  # each would report no entries, whose worst gain / min utility is undefined
    "ir-no-probes": lambda cfg, tables: simulate.ir_audit(cfg, tables, 2, 0, probes=[]),
    "bic-no-true-types": lambda cfg, tables: simulate.bic_audit(
        cfg, tables, AuditProbe(t=1, true_types=(), deviation_values=(0.5,)), 2, 0),
    "bic-no-deviations": lambda cfg, tables: simulate.bic_audit(
        cfg, tables, AuditProbe(t=1, true_types=((0.5, 1),), deviation_values=()), 2, 0),
}


@pytest.mark.parametrize("case", sorted(_EMPTY_AUDITS))
def test_empty_audit_rejected_before_sampling(small_cfg, small_tables, monkeypatch, case):
    def no_draws(*args):
        raise AssertionError("drew environments for an empty audit")

    monkeypatch.setattr(Mechanism, "sample_environments", no_draws)
    with pytest.raises(ValueError):
        _EMPTY_AUDITS[case](small_cfg, small_tables)


def test_each_report_evaluated_once_per_environment(small_cfg, small_tables, monkeypatch):
    """Audits and sampled interim quantities probe every distinct report once
    per distinct environment, however many true types or replications share it."""
    calls = []
    evaluate = Mechanism._evaluate_probe

    def counted(self, t, y, others, i, report):
        calls.append((y, tuple(others), report))
        return evaluate(self, t, y, others, i, report)

    monkeypatch.setattr(Mechanism, "_evaluate_probe", counted)
    mech = Mechanism(small_tables)
    probe = AuditProbe.default(small_cfg, 2, points=5)
    simulate.bic_audit(small_cfg, small_tables, probe, 300, 9, mech=mech)
    envs = set(mech.sample_environments(2, 1, 300, 9))
    reports = {(r, c) for _, b in probe.true_types for c in range(1, b + 1)
               for r in probe.deviation_values} | set(probe.true_types)
    assert len(calls) == len(set(calls)) == len(envs) * len(reports)

    calls.clear()
    simulate.interim_quantities(small_cfg, small_tables, 2, 2, 1, (0.5, 1),
                                replications=300, seed=9, mech=mech)
    assert len(calls) == len(set(mech.sample_environments(2, 2, 300, 9))) < 300


def test_served_traces_realize_nonnegative_utility(small_cfg, small_tables, small_mech):
    for seed in range(60):
        tr = fm.sample_episode(small_cfg, small_tables, seed, mech=small_mech)
        for rec in tr.periods:
            for row, (val, lvl) in enumerate(rec.true_types):
                if rec.outcome.variety_received(row):
                    assert val - rec.outcome.payments[row] >= -1e-12


# -- export ------------------------------------------------------------------------------

def test_trace_csv_round(tmp_path, small_cfg, small_tables, small_mech):
    traces = [fm.sample_episode(small_cfg, small_tables, s, mech=small_mech) for s in range(4)]
    path = tmp_path / "traces.csv"
    manifest = {"subcommand": "test", "seed": 0}
    simulate.write_traces_csv(path, traces, manifest)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert json.loads(lines[0].split(": ", 1)[1]) == manifest
    assert lines[1] == ",".join(simulate.TRACE_COLUMNS)
    rows = sum(len(rec.true_types) for tr in traces for rec in tr.periods)
    assert len(lines) == 2 + rows


def test_audit_json_round(tmp_path, small_cfg, small_tables, small_mech):
    rep = simulate.ir_audit(small_cfg, small_tables, 50, 3, mech=small_mech)
    path = tmp_path / "ir.json"
    simulate.write_json_report(path, rep.to_json(), {"seed": 3})
    doc = json.loads(path.read_text())
    assert doc["kind"] == "ir" and doc["manifest"] == {"seed": 3}
    assert doc["min_utility"] == rep.min_utility
    assert len(doc["entries"]) == len(rep.entries)
