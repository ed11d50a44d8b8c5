"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ACCEPTANCE line (visible with `pytest -s` or `-rA`);
the pytest pass/fail status of each test doubles as the machine-readable
verdict.
"""

import hashlib
import json
import math
import time
from collections import defaultdict

import pytest

import flexmarket as fm
from flexmarket import cli, config_io, oracle, simulate
from flexmarket.cli import main
from flexmarket.mechanism import Mechanism

FAMILY_INSTANCES = 200
FAMILY_REPORT_SHA256 = (  # sort_keys JSON of oracle.run_verification(instances=200)
    "83e8b69b253e76619920ff3bf044fd26d9dd907ed9befdcc42ae1cfa89290cc9"
)


def _report(criterion: str, failures: list):
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {criterion}: {status}"
    if failures:
        line += " — " + "; ".join(failures)
    print(line)
    assert not failures, line


@pytest.fixture(scope="module")
def family_report():
    t0 = time.perf_counter()
    report = oracle.run_verification(instances=FAMILY_INSTANCES, master_seed=0)
    elapsed = time.perf_counter() - t0
    by_name = defaultdict(list)
    for check in report["checks"]:
        by_name[check["name"]].append(check)
    return report, by_name, elapsed


def test_criterion_1_worked_instance_golden_numbers():
    """Reserve prices, holding costs and critical values of the worked instance."""
    t0 = time.perf_counter()
    cfg = fm.build_example_config((2.0, 3.0), 0.5, 2, 1001)
    tables = fm.build_value_tables(cfg)
    mech = Mechanism(tables)
    res12 = fm.reserve_price(cfg, 2, 1)
    res22 = fm.reserve_price(cfg, 2, 2)
    rho11 = fm.continuation_gap(tables, 1, (1, 1), 1)
    rho21 = fm.continuation_gap(tables, 1, (1, 1), 2)
    bar11 = mech.payment_threshold(1, [], 1, (1, 1))
    bar21 = mech.payment_threshold(1, [], 2, (1, 1))
    bar12 = mech.payment_threshold(2, [], 1, (1, 1))
    elapsed = time.perf_counter() - t0

    failures = []
    for label, got, want, tol in [
        ("reserve(1, t=2)", res12, 0.36, 0.005),
        ("reserve(2, t=2)", res22, 0.29, 0.005),
        ("rho(1, t=1)", rho11, 0.037, 0.002),
        ("bar(1, t=1)", bar11, 0.39, 0.01),
        ("bar(2, t=1)", bar21, 0.29, 0.01),
    ]:
        if abs(got - want) > tol:
            failures.append(f"{label} = {got} not within {tol} of {want}")
    if rho21 != 0.0:
        failures.append(f"rho(2, t=1) = {rho21}, expected exactly 0")
    if not bar11 > bar21:
        failures.append("ordering bar(1,t=1) > bar(2,t=1) fails")
    if not (bar11 > bar12 and bar12 == res12):
        failures.append("ordering bar(1,t=1) > bar(1,t=2) = reserve(1,t=2) fails")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report("1 (worked-instance golden numbers)", failures)


def _root(f, lo=0.0, hi=1.0):
    """The point of [lo, hi] where the increasing `f` crosses 0, by bisection."""
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return (lo + hi) / 2


def _w(a, x):
    """Continuum virtual value of the rate-a truncated exponential on [0, 1]:
    x - (1 - F(x)) / f(x) = x - (1 - exp(-a (1 - x))) / a, increasing in x."""
    return x - (1.0 - math.exp(-a * (1.0 - x))) / a


@pytest.mark.parametrize("grid_size", [41, 101, 201, 401, 1001])
def test_worked_instance_against_continuum_closed_forms(grid_size):
    """The worked instance's numbers are the grid readings of their continuum
    closed forms. Level j has rate (2, 3)[j - 1]; r_a solves w_a(r) = 0. With
    one good of each variety and no later supply, the level-1 holding cost at
    t=1 is the chance of a level-1 arrival at t=2 (1/2 * 1/2) times the
    expected positive virtual value, which is the revenue r_2 (1 - F_2(r_2))
    of posting the reserve. A critical value is the largest grid point at
    which the report still loses: for level 1 at t=1, the last point below
    the crossing of w_2 with that cost; level 2's holding cost is 0, so its
    critical value is its reserve."""
    got = cli.example_quantities(grid_size)
    points = fm.build_example_config((2.0, 3.0), 0.5, 2, grid_size).grid.points.tolist()
    r2, r3 = _root(lambda x: _w(2.0, x)), _root(lambda x: _w(3.0, x))
    tail2 = (math.exp(-2.0 * r2) - math.exp(-2.0)) / (1.0 - math.exp(-2.0))  # 1 - F_2(r_2)
    rho1 = 0.25 * r2 * tail2
    bar1 = _root(lambda x: _w(2.0, x) - rho1)

    assert got["res_1_2"] == min(x for x in points if x >= r2)
    assert got["res_2_2"] == min(x for x in points if x >= r3)
    assert got["bar_2_1"] == got["res_2_2"]
    assert got["bar_1_1"] == max(x for x in points if x < bar1)
    assert abs(got["rho_1_1"] - rho1) <= points[1] - points[0]


def test_criterion_2_master_equivalence(family_report):
    """Simplified stage pipeline equals the full-matrix pipeline bit for bit."""
    report, by_name, elapsed = family_report
    checks = by_name["master_equivalence"]
    failures = []
    if len(checks) != FAMILY_INSTANCES:
        failures.append(f"expected {FAMILY_INSTANCES} equivalence checks, got {len(checks)}")
    bad = [c for c in checks if not c["passed"]]
    if bad:
        worst = max(c["worst"] for c in bad)
        failures.append(f"{len(bad)} instances differ (worst {worst:.3e}, "
                        f"seeds {[c['instance_seed'] for c in bad][:5]})")
    if elapsed >= 60.0:
        failures.append(f"family suite took {elapsed:.1f}s (> 60s)")
    _report("2 (oracle master equivalence, 200 instances)", failures)


def test_family_report_pinned(family_report):
    """The 200-instance verify report, byte for byte: a faster walk must not
    drop, reorder or re-score a check."""
    report, _, _ = family_report
    got = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert got == FAMILY_REPORT_SHA256


def test_criterion_3_feasible_set_and_recursion_checks(family_report):
    """Service/variety set projections and the variety recursion's optimality."""
    _, by_name, _ = family_report
    failures = []
    for name in ("service_set_projection", "variety_set_projection", "vstar_optimality"):
        bad = [c for c in by_name[name] if not c["passed"]]
        if bad:
            failures.append(f"{name} fails on seeds {[c['instance_seed'] for c in bad][:5]}")
    _report("3 (set equalities and recursion optimality)", failures)


def test_criterion_4_monotonicity(family_report, example_tables):
    """Supply-order monotonicity: zero violations beyond 1e-12 everywhere."""
    _, by_name, _ = family_report
    failures = []
    bad = [c for c in by_name["monotonicity"] if not c["passed"]]
    if bad:
        failures.append(f"family violations on seeds {[c['instance_seed'] for c in bad][:5]}")
    worked = oracle.check_monotonicity(example_tables, tol=1e-12)
    if worked:
        failures.append(f"worked instance has {len(worked)} violations "
                        f"(worst {max(v.deficit for v in worked):.3e})")
    _report("4 (value-table monotonicity)", failures)


def test_criterion_5_transform_convergence(family_report):
    """Variety-shift chains reach the recursion's optimum within supply-many steps."""
    _, by_name, _ = family_report
    bad = [c for c in by_name["transform_chain"] if not c["passed"]]
    failures = []
    if bad:
        failures.append(f"chain failures on seeds {[c['instance_seed'] for c in bad][:5]}")
    _report("5 (variety-shift convergence)", failures)


def test_criterion_6_bic_ir_audit(example_cfg, example_tables, example_mech):
    """No misreport on a 21-point grid gains more than noise; utilities non-negative."""
    reps = 100_000
    t0 = time.perf_counter()
    failures = []
    worst = -math.inf
    for t in (1, 2):
        probe = simulate.AuditProbe.default(example_cfg, t, points=21)
        rep = simulate.bic_audit(example_cfg, example_tables, probe, reps, 2024,
                                 mech=example_mech)
        for e in rep.entries:
            worst = max(worst, e.value)
            if e.value > 3 * e.stderr + 1e-12:
                failures.append(
                    f"t={t} true {e.true_type} reporting {e.deviation} gains "
                    f"{e.value:.3e} (se {e.stderr:.1e})"
                )
    ir = simulate.ir_audit(example_cfg, example_tables, reps, 2024, mech=example_mech)
    if ir.min_utility < -3 * ir.min_utility_stderr - 1e-12:
        failures.append(f"min truthful utility {ir.min_utility:.3e} "
                        f"(se {ir.min_utility_stderr:.1e})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"audit took {elapsed:.0f}s (> 5 min)")
    print(f"  worst deviation gain {worst:.3e}, min utility {ir.min_utility:.3e}, "
          f"{elapsed:.1f}s at {reps} replications")
    _report("6 (truthfulness audits)", failures)


def test_criterion_7_revenue_identity_and_baseline(example_cfg, example_tables, example_mech):
    """Revenue = virtual surplus at the optimum; both dominate the myopic baseline."""
    reps = 100_000
    est = fm.estimate_revenue(example_cfg, example_tables, reps, 77, mech=example_mech)
    exact_opt = fm.expected_virtual_surplus(example_tables)
    exact_myo = fm.expected_virtual_surplus(simulate.build_myopic_tables(example_cfg))

    failures = []
    combined = math.hypot(est.stderr, est.virtual_stderr)
    if abs(est.mean - est.virtual_mean) > 3 * combined:
        failures.append(f"revenue {est.mean:.5f} vs virtual surplus "
                        f"{est.virtual_mean:.5f} beyond 3 x {combined:.5f}")
    if abs(est.mean - exact_opt) > 3 * est.stderr:
        failures.append(f"revenue {est.mean:.5f} off the exact optimum {exact_opt:.5f}")
    if not exact_opt >= exact_myo:
        failures.append(f"exact optimum {exact_opt} below myopic {exact_myo}")
    if est.mean + 3 * est.stderr < exact_myo:
        failures.append("simulated revenue falls below the myopic baseline")
    if est.virtual_mean + 3 * est.virtual_stderr < exact_myo:
        failures.append("simulated virtual surplus falls below the myopic baseline")
    print(f"  revenue {est.mean:.6f}±{est.stderr:.6f}, virtual "
          f"{est.virtual_mean:.6f}±{est.virtual_stderr:.6f}, exact {exact_opt:.6f}, "
          f"myopic {exact_myo:.6f}")
    _report("7 (revenue identity and baseline dominance)", failures)


def test_criterion_8_reproducibility(tmp_path, small_cfg):
    """Identical manifest and seed produce byte-identical artifacts."""
    cfg_path = tmp_path / "cfg.json"
    config_io.dump_config(small_cfg, cfg_path)
    cache = tmp_path / "tables.bin"
    failures = []

    assert main(["solve", "--config", str(cfg_path), "--cache", str(cache)]) == 0
    first_cache = cache.read_bytes()
    assert main(["solve", "--config", str(cfg_path), "--cache", str(cache)]) == 0
    if cache.read_bytes() != first_cache:
        failures.append("re-solving rewrote the cache differently")

    outdir = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--cache", str(cache),
            "--out", str(outdir), "--replications", "40", "--seed", "11"]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in outdir.iterdir()}
    if first != second:
        diff = [n for n in first if first.get(n) != second.get(n)]
        failures.append(f"outputs changed across identical runs: {diff}")
    _report("8 (byte-identical reruns)", failures)
