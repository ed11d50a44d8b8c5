"""Seeded streams pinned to exact floats.

Same-seed reruns inside one process cannot notice a change in the order in
which draws are taken from a seeded generator; these literals can. They were
recorded with an earlier version of the package and must never be
re-recorded to make a change pass: a mismatch means seeded tables, episodes
or audits no longer reproduce earlier runs.
"""

import hashlib
import json
import math

import flexmarket as fm
from flexmarket import config_io, oracle, simulate

from test_oracle import _k3_market

MC_TABLES = {  # (t, y): (value, stderr) of the seed-3, 200-sample Monte Carlo tables
    (1, (0, 0)): ("0x0.0p+0", "0x0.0p+0"),
    (1, (0, 1)): ("0x1.a6659dd803c53p-5", "0x1.26cc6d1c1f56bp-7"),
    (1, (1, 0)): ("0x1.969cfcfa61bb4p-4", "0x1.4bc97a923bd0cp-7"),
    (1, (1, 1)): ("0x1.2f26060f30a66p-3", "0x1.a1a59721278a9p-7"),
    (2, (0, 0)): ("0x0.0p+0", "0x0.0p+0"),
    (2, (0, 1)): ("0x1.48a80528a0ae6p-6", "0x1.a2e75481ff480p-8"),
    (2, (1, 0)): ("0x1.79ed1c75580c9p-5", "0x1.68cc6fd82148bp-7"),
    (2, (1, 1)): ("0x1.51f2adb4c2c00p-4", "0x1.bc04a972873ebp-7"),
    (3, (0, 0)): ("0x0.0p+0", "0x0.0p+0"),
    (3, (0, 1)): ("0x0.0p+0", "0x0.0p+0"),
    (3, (1, 0)): ("0x0.0p+0", "0x0.0p+0"),
    (3, (1, 1)): ("0x0.0p+0", "0x0.0p+0"),
}

EPISODE_REVENUES = [  # sample_episode seeds 0..4 on the worked example
    "0x1.2d0e560418937p-2",
    "0x0.0p+0",
    "0x0.0p+0",
    "0x0.0p+0",
    "0x0.0p+0",
]
EPISODE_0_VIRTUAL_SURPLUS = "0x1.d62717c302c50p-4"
REVENUE_MEAN_200 = "0x1.fd859c8c9320dp-4"          # estimate_revenue, 200 episodes, seed 0
VIRTUAL_SURPLUS_MEAN_200 = "0x1.c2ea0d9ef2bd3p-4"

REVENUE_5000 = {  # estimate_revenue, 5000 episodes (two blocks of streams), seed 0
    "revenue_mean": "0x1.f9cbd3a88920bp-4",
    "revenue_stderr": "0x1.4f2f6d2efda99p-9",
    "virtual_surplus_mean": "0x1.fcf0f735a00c3p-4",
    "virtual_surplus_stderr": "0x1.bdaaadacd7d34p-9",
}
LAW_5000_SHA256 = (  # environment_law(2, 2, 5000, 0) of the worked example, see _law_sha256
    "5fe4cc7865ec6a913394ef1add310459f5a2caeb0595e6387dc15c1044a14853"
)
LAW_5000_ROWS = 2317
LAW_T2_N1_SHA256 = (  # environment_law(2, 1, 500, 0) of the worked example, the audits' law
    "c15629af73c958f3b1597fe15483413a51eda1492f05670a58e809b648d4a6bc"
)
LAW_T2_N1_COUNTS = [407, 50, 43]

BIC_WORST_GAIN = "0x0.0p+0"                          # t=2 default probe, 500 reps, seed 0
BIC_GAIN_SUM = "-0x1.5cc161e4f7660p+7"               # fsum of every entry's gain
BIC_STDERR_SUM = "0x1.c330f2a1fa08fp+0"

IR_VALUE_SUM = "0x1.2b075f6fd2200p+4"                # default probes, 500 reps, seed 0
IR_STDERR_SUM = "0x1.e4d89f178079bp-5"
IR_MIN_UTILITY = "0x0.0p+0"

INTERIM_T1 = {  # report: exact (Q, P) at t=1, n_t=2, probe in slot 1, worked example at G=41
    (0.5, 1): ("0x1.bdce9651fe68ap-1", "0x1.55d4b0ee5c578p-2"),
    (0.7, 2): ("0x1.0000000000000p+0", "0x1.3b4cba9da7c01p-2"),
}

TABLE_SHA256 = {  # optimal then myopic exact tables, per market (see _table_sha256)
    "exact-solve": "4e0c24d5d43ed68f37549332d69e6dbd945a72447185a78cfdaa7649608324cc",
    "example-41": "08fe4b0bcc47030587f1b16f7370111e472697976bd5e3c5e938cf00f34769a5",
    "family-20": "8f67016e446343fa36f7bb8ebde66d64e81947b6c9e1b0edbe8b314d3b2c8e71",
    "k3-market": "6617607b13bfdc829cb239cb78b7575f2319bc4c19840d6de3a32e330071f193",
}

MC_TABLE_SHA256 = {  # Monte Carlo tables of the k=3, T=3, G=201 market, 20 samples, seed 1
    "optimal": "48503d6cf05ba58eecb9b3656aa1c804ee7c883949cc1dd73d56eb3151fdc585",
    "myopic": "3e860f463279194513e6aa57b98edcbbef2faeea51e59c3d65c5f8031578567f",
}

VERIFY_REPORT_SHA256 = (  # sort_keys JSON of oracle.run_verification(instances=20)
    "01de2882e4e2b1eea02140b542c5ba99d8f5937fb97888dff0b8c571259f7663"
)


def _table_sha256(tables) -> str:
    """sha256 over one line per entry: t, y, value and stderr as float.hex."""
    h = hashlib.sha256()
    for tab in tables:
        for t in sorted(tab.states):
            for y in tab.states[t]:
                h.update(f"{t} {y} {tab.values[t][y].hex()} {tab.stderrs[t][y].hex()}\n".encode())
    return h.hexdigest()


def test_exact_tables_pinned(small_cfg):
    """k=2, T=2, G=21 market (arrivals uniform on {0, 1, 2}, Bernoulli(0.5)
    supply), the worked example at G=41, the first 20 master-seed-0
    instances, and `test_oracle._k3_market(2, 4)`, whose three-arrival
    profiles share two-report prefixes."""
    bern = [0.5, 0.5]
    exact_solve = config_io.parse_config({
        "horizon": 2, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 21},
        "arrivals": [[1 / 3] * 3] * 2, "supply": [[bern, bern]] * 2,
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    })
    markets = {
        "exact-solve": [exact_solve],
        "example-41": [small_cfg],
        "family-20": [oracle.random_instance(i, master_seed=0) for i in range(20)],
        "k3-market": [_k3_market(2, 4)],
    }
    got = {name: _table_sha256([tab for cfg in cfgs for tab in (
        fm.build_value_tables(cfg), simulate.build_myopic_tables(cfg))])
        for name, cfgs in markets.items()}
    assert got == TABLE_SHA256


def test_mc_tables_pinned(small_cfg):
    mc = fm.build_value_tables(small_cfg, backend="mc", samples=200, seed=3)
    got = {(t, y): (mc.values[t][y], mc.stderrs[t][y])
           for t in sorted(mc.states) for y in mc.states[t]}
    want = {key: (float.fromhex(v), float.fromhex(se)) for key, (v, se) in MC_TABLES.items()}
    assert got == want


def test_k3_mc_tables_pinned():
    """Optimal and myopic Monte Carlo tables of `test_oracle._k3_market(3, 201)`,
    whose stages clip many drawn report sets."""
    cfg = _k3_market(3, 201)
    got = {"optimal": _table_sha256([fm.build_value_tables(cfg, backend="mc", samples=20, seed=1)]),
           "myopic": _table_sha256([simulate.build_myopic_tables(cfg, backend="mc", samples=20,
                                                                 seed=1)])}
    assert got == MC_TABLE_SHA256


def test_episodes_pinned(example_cfg, example_tables):
    revenues = [fm.sample_episode(example_cfg, example_tables, seed).total_revenue
                for seed in range(5)]
    assert revenues == [float.fromhex(r) for r in EPISODE_REVENUES]
    first = fm.sample_episode(example_cfg, example_tables, 0)
    assert first.total_virtual_surplus == float.fromhex(EPISODE_0_VIRTUAL_SURPLUS)
    est = fm.estimate_revenue(example_cfg, example_tables, 200, 0)
    assert est.mean == float.fromhex(REVENUE_MEAN_200)
    assert est.virtual_mean == float.fromhex(VIRTUAL_SURPLUS_MEAN_200)


def _law_sha256(law) -> str:
    """sha256 over one line per row: count, supply state, then each rival's
    valuation as float.hex and level."""
    h = hashlib.sha256()
    for count, (y, others) in law:
        h.update((f"{count} {y} " + " ".join(f"{v.hex()} {b}" for v, b in others) + "\n").encode())
    return h.hexdigest()


def test_batches_across_stream_blocks_pinned(example_cfg, example_tables, example_mech):
    """5000 replications span two blocks of `market.uniform_blocks`."""
    est = fm.estimate_revenue(example_cfg, example_tables, 5000, 0).to_json()
    assert {key: est[key] for key in REVENUE_5000} == {
        key: float.fromhex(v) for key, v in REVENUE_5000.items()}
    law = example_mech.environment_law(2, 2, 5000, 0)
    assert (len(law), _law_sha256(law)) == (LAW_5000_ROWS, LAW_5000_SHA256)


def test_audit_environment_law_pinned(example_mech):
    """The law the t=2 BIC and IR audits at 500 replications, seed 0, read:
    their pins see only how often the supply state is (0, 1), this one sees
    every row."""
    law = example_mech.environment_law(2, 1, 500, 0)
    assert ([count for count, _env in law], _law_sha256(law)) == (LAW_T2_N1_COUNTS,
                                                                   LAW_T2_N1_SHA256)


def test_bic_audit_pinned(example_cfg, example_tables):
    probe = simulate.AuditProbe.default(example_cfg, 2)
    report = fm.bic_audit(example_cfg, example_tables, probe, 500, 0)
    assert report.worst_gain == float.fromhex(BIC_WORST_GAIN)
    assert math.fsum(e.value for e in report.entries) == float.fromhex(BIC_GAIN_SUM)
    assert math.fsum(e.stderr for e in report.entries) == float.fromhex(BIC_STDERR_SUM)


def test_ir_audit_pinned(example_cfg, example_tables):
    report = fm.ir_audit(example_cfg, example_tables, 500, 0)
    assert math.fsum(e.value for e in report.entries) == float.fromhex(IR_VALUE_SUM)
    assert math.fsum(e.stderr for e in report.entries) == float.fromhex(IR_STDERR_SUM)
    assert report.min_utility == float.fromhex(IR_MIN_UTILITY)


def test_exact_interim_pinned(small_cfg, small_tables):
    for report, (q, p) in INTERIM_T1.items():
        est = fm.interim_quantities(small_cfg, small_tables, 1, 2, 1, report)
        assert (est.allocation, est.payment) == (float.fromhex(q), float.fromhex(p))
        assert (est.allocation_se, est.payment_se) == (0.0, 0.0)


def test_verify_report_pinned():
    report = oracle.run_verification(instances=20)
    got = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert got == VERIFY_REPORT_SHA256
