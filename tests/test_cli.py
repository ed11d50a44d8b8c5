import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import flexmarket as fm
from flexmarket import config_io, dp, oracle, simulate
from flexmarket.cli import main
from flexmarket.errors import InconsistentAllocation
from flexmarket.mechanism import Mechanism

from conftest import tabulated_config


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, small_cfg):
    path = tmp_path_factory.mktemp("cfg") / "example.json"
    config_io.dump_config(small_cfg, path)
    return str(path)


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory, config_file):
    path = tmp_path_factory.mktemp("cache") / "tables.bin"
    assert main(["solve", "--config", config_file, "--cache", str(path)]) == 0
    return str(path)


# -- validate ---------------------------------------------------------------------

def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_validate_regularity_failure(tmp_path, capsys):
    cfg = tabulated_config([2.0, 0.5, 2.0], grid=(0.0, 1.0, 3))
    path = tmp_path / "irregular.json"
    config_io.dump_config(cfg, path)
    assert main(["validate", "--config", str(path)]) == 2
    assert "hazard_in_x" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", [1e-16, 1e-15, 40.0])
def test_validate_hazard_infinite_where_cdf_reaches_1(rate, config_file, tmp_path, capsys):
    """At these rates the tabulated CDF rounds to 1 inside the grid, so the
    hazard is inf at neighbouring points; comparing them raises no warning
    and the verdict stays a regularity failure."""
    path = _edited_config(config_file, tmp_path, _family_types([rate, 3.0]))
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().out.strip()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_grid_of_one_ulp_refused_in_one_line(tmp_path, capsys):
    """A 3-point family grid on [0, 5e-324]: dividing the pdf by the span
    overflows while the family is tabulated, yet no warning escapes, and
    the structural check refuses the grid (exit 3) in one line."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "horizon": 1, "varieties": 1, "grid": {"min": 0.0, "max": 5e-324, "points": 3},
        "arrivals": [[0.5, 0.5]], "supply": [[[0.0, 1.0]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0]},
    }))
    assert main(["validate", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines() == ["malformed config: grid points not strictly increasing"]
    assert err == ""


def test_validate_truncated_file(tmp_path, config_file):
    broken = tmp_path / "broken.json"
    broken.write_text(Path(config_file).read_text()[:50])
    assert main(["validate", "--config", str(broken)]) == 3


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


# -- solve ------------------------------------------------------------------------

def test_solve_prints_equal_continuations(config_file, cache_file, capsys, small_cfg):
    assert main(["solve", "--config", config_file, "--cache", cache_file]) == 0
    out = capsys.readouterr().out
    tables = dp.ValueTables.load(cache_file, small_cfg)
    assert tables.values[2][(1, 1)] == tables.values[2][(1, 0)]
    line = [l for l in out.splitlines() if "C_2((1, 1))" in l][0]
    line2 = [l for l in out.splitlines() if "C_2((1, 0))" in l][0]
    assert line.split("=")[1] == line2.split("=")[1]


def test_solve_single_period(tmp_path):
    cfg = fm.build_example_config((2.0, 3.0), 0.5, 1, 21)
    cfg_path, cache = tmp_path / "t1.json", tmp_path / "t1.bin"
    config_io.dump_config(cfg, cfg_path)
    assert main(["solve", "--config", str(cfg_path), "--cache", str(cache)]) == 0
    tables = dp.ValueTables.load(cache, cfg)
    assert set(tables.states) == {1, 2}


def test_solve_budget_exceeded(config_file, tmp_path):
    assert main(["solve", "--config", config_file, "--cache", str(tmp_path / "x.bin"),
                 "--budget", "5"]) == 4


def test_solve_mc_backend(config_file, tmp_path, small_cfg):
    cache = tmp_path / "mc.bin"
    assert main(["solve", "--config", config_file, "--cache", str(cache),
                 "--backend", "mc", "--samples", "300", "--seed", "4"]) == 0
    tables = dp.ValueTables.load(cache, small_cfg)
    assert tables.backend == "mc" and tables.seed == 4


# -- simulate ---------------------------------------------------------------------

def _read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_simulate_outputs_and_reproducibility(config_file, cache_file, tmp_path):
    outdir = tmp_path / "out"
    argv = ["simulate", "--config", config_file, "--cache", cache_file,
            "--out", str(outdir), "--replications", "50", "--seed", "9"]
    assert main(argv) == 0
    first = _read_all(outdir)
    assert set(first) == {"revenue.csv", "traces.csv", "bic_audit.json", "ir_audit.json"}
    for name, blob in first.items():
        assert b"manifest" in blob
    assert main(argv) == 0  # same manifest, same seed
    assert _read_all(outdir) == first


def test_simulate_samples_each_period_law_once(config_file, cache_file, tmp_path,
                                              monkeypatch, small_cfg):
    """The BIC audit of period t and the IR audit share period t's law."""
    calls = []
    sample = Mechanism.sample_environments

    def counted(self, *args):
        calls.append(args)
        return sample(self, *args)

    monkeypatch.setattr(Mechanism, "sample_environments", counted)
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(tmp_path / "out"), "--replications", "40", "--seed", "3"]) == 0
    assert calls == [(t, 1, 40, 3) for t in range(1, small_cfg.horizon + 1)]


def test_simulate_seed_changes_outputs(config_file, cache_file, tmp_path):
    outdir = tmp_path / "out"
    base = ["simulate", "--config", config_file, "--cache", cache_file,
            "--out", str(outdir), "--replications", "30"]
    assert main(base + ["--seed", "1"]) == 0
    first = _read_all(outdir)
    assert main(base + ["--seed", "2"]) == 0
    assert _read_all(outdir) != first


def test_simulate_env_seed_override(config_file, cache_file, tmp_path, monkeypatch):
    outdir1, outdir2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("FLEXMARKET_SEED", "5")
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(outdir1), "--replications", "20", "--seed", "99"]) == 0
    monkeypatch.delenv("FLEXMARKET_SEED")
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(outdir2), "--replications", "20", "--seed", "5"]) == 0
    a, b = _read_all(outdir1), _read_all(outdir2)
    # identical apart from the differing out-path in the embedded manifests
    for name in a:
        assert a[name].replace(str(outdir1).encode(), b"X") == \
            b[name].replace(str(outdir2).encode(), b"X")


def test_simulate_on_mc_cache_beyond_exact_budget(tmp_path, capsys):
    """The myopic baseline is solved with the cache's backend, so markets too
    big for the exact backend simulate too."""
    doc = {
        "horizon": 1, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 1001},
        "arrivals": [[0.25] * 4], "supply": [[[0.5, 0.5], [0.5, 0.5]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    }
    assert dp.exact_profile_count(config_io.parse_config(doc), 1) == 8_028_034_015
    cfg_path, cache, outdir = tmp_path / "big.json", tmp_path / "big.bin", tmp_path / "out"
    cfg_path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg_path), "--cache", str(cache),
                 "--backend", "mc", "--samples", "20", "--seed", "1"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--cache", str(cache),
                 "--out", str(outdir), "--replications", "20"]) == 0
    assert "myopic baseline" in capsys.readouterr().out
    assert {p.name for p in outdir.iterdir()} == {
        "revenue.csv", "traces.csv", "bic_audit.json", "ir_audit.json"}


def test_simulate_stale_cache(cache_file, tmp_path):
    other = fm.build_example_config((2.0, 3.0), 0.6, 2, 41)
    other_path = tmp_path / "other.json"
    config_io.dump_config(other, other_path)
    assert main(["simulate", "--config", str(other_path), "--cache", cache_file,
                 "--out", str(tmp_path / "o"), "--replications", "10"]) == 5


def test_simulate_missing_cache(config_file, tmp_path):
    assert main(["simulate", "--config", config_file, "--cache", str(tmp_path / "no.bin"),
                 "--out", str(tmp_path / "o"), "--replications", "10"]) == 3


# -- verify -----------------------------------------------------------------------

def test_verify_small_family(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--instances", "6", "--seed", "0",
                 "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["passed"] and doc["instances"] == 6
    assert doc["manifest"]["subcommand"] == "verify"
    assert "all" in capsys.readouterr().out


def test_verify_audits_supplied_config(config_file, tmp_path):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--instances", "2", "--seed", "0",
                 "--config", config_file, "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    own = [c for c in doc["checks"] if c["instance_seed"] == -1]
    assert own and all(c["passed"] for c in own)
    assert {c["name"] for c in own} >= {"master_equivalence", "monotonicity"}


def test_verify_names_failed_check_on_injected_bug(monkeypatch, capsys):
    real = dp.vstar

    def broken(u, y):
        v = list(real(u, y))
        for j in range(len(v) - 1, -1, -1):
            if v[j] > 0 and any(v[i] < y[i] for i in range(j)):
                i = max(i for i in range(j) if v[i] < y[i])
                v[j] -= 1
                v[i] += 1
                break
        return tuple(v)

    monkeypatch.setattr(dp, "vstar", broken)
    assert main(["verify", "--instances", "10", "--seed", "0"]) == 6
    out = capsys.readouterr().out
    assert "FAILED" in out and "instance seed" in out


# -- example -----------------------------------------------------------------------

def test_example_reproduces_reported_numbers(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    vals = {}
    for line in out.splitlines()[2:]:
        parts = line.rsplit(None, 3)
        if len(parts) == 4:
            vals[parts[0]] = float(parts[1])
    assert vals["reserve price, level 1, t=2"] == pytest.approx(0.36, abs=0.005)
    assert vals["reserve price, level 2, t=2"] == pytest.approx(0.29, abs=0.005)
    assert vals["holding cost rho, level 1, t=1"] == pytest.approx(0.037, abs=0.002)
    assert vals["holding cost rho, level 2, t=1"] == 0.0
    assert vals["critical value, level 1, t=1"] == pytest.approx(0.39, abs=0.01)
    assert vals["critical value, level 2, t=1"] == pytest.approx(0.29, abs=0.01)


# -- bad input maps to documented exit codes ------------------------------------------

def _truncated_copy(cache_file, tmp_path):
    path = tmp_path / "truncated.bin"
    path.write_bytes(Path(cache_file).read_bytes()[:-7])
    return str(path)


def _under_regular_file(tmp_path, name):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    return str(blocker / name)


def _edited_config(config_file, tmp_path, edit):
    """Path of a copy of the config document after `edit(doc)`."""
    with open(config_file) as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _family_types(alpha):
    return lambda doc: doc.update(types={"family": "truncated_exponential", "alpha": alpha})


def _set_nan(*path):
    """Edit that puts NaN at doc[path[0]][path[1]]...; json.load reads `NaN` back."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = float("nan")
    return edit


def _one_point_type_rows(doc):
    for key in ("pdf", "cdf"):
        doc["types"][key] = [[row[:1] for row in period] for period in doc["types"][key]]


def _cdf_from_0_3(doc):
    """Every CDF row lifted to 0.3 + 0.7 * cdf: it still ends at 1 but starts at 0.3."""
    doc["types"]["cdf"] = [[[0.3 + 0.7 * c for c in row] for row in period]
                           for period in doc["types"]["cdf"]]


def _set(*path, value):
    """Edit that puts `value` at doc[path[0]][path[1]]..."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def _zero_varieties(doc):
    doc.update(varieties=0, types={"family": "truncated_exponential", "alpha": []})


def _bool_horizon(doc):
    doc.update(horizon=True, types={"family": "truncated_exponential", "alpha": [2.0, 3.0]})


def _beyond_exact_budget(tmp_path):
    """The 8,028,034,015-profile market of the mc-cache simulate test."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "horizon": 1, "varieties": 2, "grid": {"min": 0.0, "max": 1.0, "points": 1001},
        "arrivals": [[0.25] * 4], "supply": [[[0.5, 0.5], [0.5, 0.5]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0, 3.0]},
    }))
    return str(path)


def _json_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _kept_cache(cache_file, tmp_path):
    """A copy of the good cache at the path a refused solve is pointed at."""
    path = tmp_path / "kept.bin"
    path.write_bytes(Path(cache_file).read_bytes())
    return str(path)


def _family_grid(points):
    """Edit to the truncated-exponential family on a grid of `points` points."""
    def edit(doc):
        _family_types([2.0, 3.0])(doc)
        doc["grid"]["points"] = points
    return edit


def _cdf_dip(doc):
    """The first CDF row falls by 0.01 between grid points 9 and 10."""
    row = doc["types"]["cdf"][0][0]
    row[10] = row[9] - 0.01


def _cdf_row_times_0_9(doc):
    """The first CDF row scaled by 0.9: still monotone, but it ends at 0.9."""
    doc["types"]["cdf"][0][0] = [0.9 * c for c in doc["types"]["cdf"][0][0]]


def _mc_samples(samples):
    return lambda c, k, d: ["solve", "--config", c, "--cache", str(d / "mc.bin"),
                            "--backend", "mc", "--samples", str(samples), "--seed", "1"]


# case -> (exit code, FLEXMARKET_SEED or None, argv from (config, cache, tmp_path))
BAD_INPUTS = {
    "truncated-cache": (5, None, lambda c, k, d: [
        "simulate", "--config", c, "--cache", _truncated_copy(k, d),
        "--out", str(d / "o"), "--replications", "10"]),
    "mc-without-seed": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "mc.bin"), "--backend", "mc",
        "--samples", "50"]),
    "non-integer-env-seed": (3, "abc", lambda c, k, d: [
        "simulate", "--config", c, "--cache", k, "--out", str(d / "o"),
        "--replications", "10"]),
    "unwritable-solve-cache": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "missing" / "tables.bin")]),
    "unwritable-simulate-out": (3, None, lambda c, k, d: [
        "simulate", "--config", c, "--cache", k, "--out", _under_regular_file(d, "out"),
        "--replications", "10"]),
    "unwritable-verify-out": (3, None, lambda c, k, d: [
        "verify", "--instances", "1", "--out", str(d / "missing" / "report.json")]),
    "verify-zero-instances": (3, None, lambda c, k, d: ["verify", "--instances", "0"]),
    "verify-negative-instances": (3, None, lambda c, k, d: ["verify", "--instances", "-2"]),
    "simulate-one-replication": (3, None, lambda c, k, d: [
        "simulate", "--config", c, "--cache", k, "--out", str(d / "o"),
        "--replications", "1"]),
    "mc-one-sample": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "mc.bin"), "--backend", "mc",
        "--samples", "1", "--seed", "1"]),
    "non-numeric-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types(["x", 3.0]))]),
    "null-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types([None, 3.0]))]),
    "non-numeric-grid-min": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, lambda doc: doc["grid"].update(min="abc"))]),
    "one-point-type-rows": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _one_point_type_rows)]),
    "nan-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types([float("nan"), 3.0]))]),
    "inf-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types([float("inf"), 3.0]))]),
    # 1 - exp(-alpha) rounds to 0: the rate's density cannot be normalised
    "tiny-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types([1e-17, 3.0]))]),
    "nan-arrival": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set_nan("arrivals", 0, 0))]),
    "nan-supply": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set_nan("supply", 0, 0, 0))]),
    "nan-pdf": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set_nan("types", "pdf", 0, 0, 5))]),
    "cdf-not-from-zero": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _cdf_from_0_3)]),
    "zero-varieties": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _zero_varieties)]),
    "bool-horizon": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _bool_horizon)]),
    "scalar-arrival-row": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("arrivals", 0, value=1.0))]),
    "scalar-supply-pmf": (3, None, lambda c, k, d: [
        "solve", "--config", _edited_config(c, d, _set("supply", 0, value=[1.0, 1.0])),
        "--cache", str(d / "x.bin")]),
    "nested-arrival-row": (3, None, lambda c, k, d: [
        "solve", "--config", _edited_config(c, d, _set("arrivals", 0, value=[[0.5], [0.5]])),
        "--cache", str(d / "x.bin")]),
    "verify-config-beyond-budget": (4, None, lambda c, k, d: [
        "verify", "--instances", "1", "--config", _beyond_exact_budget(d)]),
    "verify-matrix-budget": (4, None, lambda c, k, d: [
        "verify", "--instances", "1", "--budget", "1"]),
    "solve-zero-budget": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--budget", "0"]),
    "solve-negative-budget": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--budget", "-5"]),
    "verify-zero-budget": (3, None, lambda c, k, d: [
        "verify", "--instances", "1", "--budget", "0"]),
    "verify-negative-budget": (3, None, lambda c, k, d: [
        "verify", "--instances", "1", "--budget", "-5"]),
    "negative-seed": (3, None, lambda c, k, d: [
        "simulate", "--config", c, "--cache", k, "--out", str(d / "o"),
        "--replications", "10", "--seed", "-1"]),
    "negative-env-seed": (3, "-1", lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "mc.bin"), "--backend", "mc",
        "--samples", "50"]),
    # argparse's own usage errors (its exit 2 is the regularity verdict's code)
    "non-integer-seed": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--seed", "abc"]),
    "non-integer-samples": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--backend", "mc",
        "--samples", "2.5", "--seed", "1"]),
    "non-integer-budget": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--budget", "1e6"]),
    "non-integer-replications": (3, None, lambda c, k, d: [
        "simulate", "--config", c, "--cache", k, "--out", str(d / "o"),
        "--replications", "ten"]),
    "non-integer-instances": (3, None, lambda c, k, d: ["verify", "--instances", "x"]),
    "non-integer-verify-budget": (3, None, lambda c, k, d: [
        "verify", "--instances", "1", "--budget", "many"]),
    "unknown-backend": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", str(d / "x.bin"), "--backend", "fast"]),
    "missing-command": (3, None, lambda c, k, d: []),
    # the cache stores an mc seed in 64 bits
    "mc-seed-beyond-64-bits": (3, None, lambda c, k, d: [
        "solve", "--config", c, "--cache", _kept_cache(k, d), "--backend", "mc",
        "--samples", "3", "--seed", str(2 ** 64)]),
    "mc-env-seed-beyond-64-bits": (3, str(2 ** 64), lambda c, k, d: [
        "solve", "--config", c, "--cache", _kept_cache(k, d), "--backend", "mc",
        "--samples", "3"]),
    "list-root": (3, None, lambda c, k, d: ["validate", "--config", _json_file(d, [])]),
    "scalar-grid": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("grid", value=5))]),
    "list-types": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("types", value=[]))]),
    "short-alpha": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_types([2.0]))]),
    "non-numeric-arrivals": (3, None, lambda c, k, d: [
        "validate", "--config",
        _edited_config(c, d, _set("arrivals", value=[["a", "b"], [0.5, 0.5]]))]),
    "non-numeric-pdf": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("types", "pdf", value="x"))]),
    # counts too large to hold in memory (8e17 bytes of floats, beyond any
    # address space, so numpy refuses without touching memory) exit 4 ...
    "grid-beyond-memory": (4, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_grid(10 ** 17))]),
    "mc-samples-beyond-memory": (4, None, _mc_samples(10 ** 17)),
    # ... and counts numpy cannot even shape exit 3
    "grid-beyond-2-63": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_grid(2 ** 63))]),
    "grid-beyond-1e30": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _family_grid(10 ** 30))]),
    "mc-samples-beyond-2-64": (3, None, _mc_samples(2 ** 64)),
    "mc-samples-beyond-1e20": (3, None, _mc_samples(10 ** 20)),
    # structural refusals of `check_structure`; CONFIG_REFUSALS names each one's message
    "arrivals-short-of-horizon": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("arrivals", value=[[0.5, 0.5]]))]),
    "arrivals-without-consumers": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("arrivals", value=[[1.0], [1.0]]))]),
    "supply-row-missing-variety": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("supply", 0, value=[[0.0, 1.0]]))]),
    "supply-sums-to-0.9": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("supply", 0, 0, value=[0.0, 0.9]))]),
    "cdf-dips": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _cdf_dip)]),
    "cdf-ends-below-1": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _cdf_row_times_0_9)]),
    "zero-pdf-inside-grid": (3, None, lambda c, k, d: [
        "validate", "--config", _edited_config(c, d, _set("types", "pdf", 0, 0, 5, value=0.0))]),
    "grid-not-increasing": (3, None, lambda c, k, d: [
        "validate", "--config",
        _edited_config(c, d, _set("grid", value={"min": 0.0, "max": 5e-324, "points": 3}))]),
}

CONFIG_REFUSALS = {
    "arrivals-short-of-horizon": "arrival PMFs must cover every period",
    "arrivals-without-consumers": "arrival support must allow at least one consumer",
    "supply-row-missing-variety": "supply PMFs must cover every (period, variety)",
    "supply-sums-to-0.9": "supply PMF at t=1, variety 1 does not sum to 1",
    "cdf-dips": "CDF decreasing at t=1, level 1",
    "cdf-ends-below-1": "CDF does not reach 1 at t=1, level 1",
    "zero-pdf-inside-grid": "pdf not positive on grid interior at t=1, level 1",
    "grid-not-increasing": "grid points not strictly increasing",
}

OVERSIZED_COUNTS = ["grid-beyond-memory", "mc-samples-beyond-memory", "grid-beyond-2-63",
                    "grid-beyond-1e30", "mc-samples-beyond-2-64", "mc-samples-beyond-1e20"]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(case, config_file, cache_file, tmp_path, monkeypatch, capsys):
    code, env_seed, argv = BAD_INPUTS[case]
    if env_seed is not None:
        monkeypatch.setenv("FLEXMARKET_SEED", env_seed)
    else:
        monkeypatch.delenv("FLEXMARKET_SEED", raising=False)
    assert main(argv(config_file, cache_file, tmp_path)) == code
    assert capsys.readouterr().out.strip()  # a message, not a silent failure


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_config_refusal_reaches_its_check(case, config_file, cache_file, tmp_path, capsys):
    """Each structural case exits 3 through its own check, not an earlier one."""
    code, _env, argv = BAD_INPUTS[case]
    assert main(argv(config_file, cache_file, tmp_path)) == code == 3
    assert CONFIG_REFUSALS[case] in capsys.readouterr().out


@pytest.mark.parametrize("case", OVERSIZED_COUNTS)
def test_oversized_count_is_one_line_and_no_cache(case, config_file, cache_file, tmp_path,
                                                  monkeypatch, capsys):
    """A count too large to hold (exit 4) or to shape (exit 3) is reported in
    one line, and a refused solve leaves no file at --cache."""
    monkeypatch.delenv("FLEXMARKET_SEED", raising=False)
    code, _env, argv = BAD_INPUTS[case]
    assert main(argv(config_file, cache_file, tmp_path)) == code
    assert len(capsys.readouterr().out.strip().splitlines()) == 1
    assert not (tmp_path / "mc.bin").exists()


@pytest.mark.parametrize("case", ["mc-seed-beyond-64-bits", "mc-env-seed-beyond-64-bits"])
def test_refused_solve_keeps_the_cache_at_its_path(case, config_file, cache_file, tmp_path,
                                                   monkeypatch, capsys):
    test_bad_input_exit_code(case, config_file, cache_file, tmp_path, monkeypatch, capsys)
    assert (tmp_path / "kept.bin").read_bytes() == Path(cache_file).read_bytes()


def test_inconsistent_allocation_exit_code(config_file, cache_file, tmp_path, monkeypatch,
                                           capsys):
    """A cache on which the mechanism breaks (a served report below its
    critical value) is reported as an inconsistent cache, not a traceback."""
    def broken(self, *args):
        raise InconsistentAllocation("critical value 1.0 exceeds the served report 0.5")

    monkeypatch.setattr(Mechanism, "_critical_value", broken)
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(tmp_path / "o"), "--replications", "10"]) == 5
    assert "inconsistent" in capsys.readouterr().out


def test_simulate_refuses_more_replications_than_streams(config_file, cache_file, tmp_path,
                                                         monkeypatch, capsys):
    """A replication count past `market.MAX_REPLICATIONS` is an invalid
    argument (exit 3), refused before the cache is read and before --out
    is made."""
    loads = []
    monkeypatch.setattr(fm.ValueTables, "load", lambda *args: loads.append(args))
    out = tmp_path / "o"
    assert main(["simulate", "--config", config_file, "--cache", cache_file, "--out", str(out),
                 "--replications", str(fm.market.MAX_REPLICATIONS + 1)]) == 3
    assert "--replications" in capsys.readouterr().out
    assert not out.exists() and loads == []


def test_simulate_failure_leaves_no_partial_out(config_file, cache_file, tmp_path, monkeypatch,
                                                capsys):
    """A run that fails mid-way (here in the first episode's payments) writes
    none of its artifacts into --out and leaves no staging directory behind."""
    def broken(self, *args):
        raise InconsistentAllocation("critical value 1.0 exceeds the served report 0.5")

    monkeypatch.setattr(Mechanism, "_critical_value", broken)
    out = tmp_path / "o"
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(out), "--replications", "10"]) == 5
    assert not (out / "traces.csv").exists() and not (out / "revenue.csv").exists()
    assert list(tmp_path.iterdir()) == []


def _saved(tables, tmp_path):
    path = tmp_path / "tables.bin"
    tables.save(path)
    return path


def _edited_cache(cache_file, tmp_path, edit):
    path = tmp_path / "edited.bin"
    path.write_bytes(edit(Path(cache_file).read_bytes()))
    return path


def _seed_header(blob, backend, flag, seed):
    """Rewrite the seed flag and seed of a cache saved with `backend`."""
    # magic, version, fingerprint, backend, samples
    at = struct.calcsize(f"<8sI64sH{len(backend)}sQ")
    return blob[:at] + struct.pack("<BQ", flag, seed) + blob[at + struct.calcsize("<BQ"):]


def _overwrite(before, fmt, *values):
    """Edit that packs `values` with `fmt` over the field after the fields `before`."""
    at = struct.calcsize(before)
    return lambda blob: blob[:at] + struct.pack(fmt, *values) + blob[at + struct.calcsize(fmt):]


def _one_entry_set(tables, t, field, number, **changes):
    """A copy of `tables`, with `changes`, whose `field` entry at period t's
    last state is `number`."""
    layers = {u: dict(layer) for u, layer in getattr(tables, field).items()}
    layers[t][tables.states[t][-1]] = number
    return dataclasses.replace(tables, **{field: layers}, **changes)


# case -> cache path from (config, exact tables, exact cache file, tmp_path)
UNSERVABLE_CACHES = {
    "nan-value": lambda cfg, tab, k, d: _saved(_one_entry_set(tab, 1, "values", float("nan")), d),
    "negative-value": lambda cfg, tab, k, d: _saved(_one_entry_set(tab, 1, "values", -5.0), d),
    "inf-stderr": lambda cfg, tab, k, d: _saved(
        _one_entry_set(tab, 1, "stderrs", float("inf"), backend="mc", samples=50, seed=1), d),
    "negative-stderr": lambda cfg, tab, k, d: _saved(
        _one_entry_set(tab, 1, "stderrs", -0.5, backend="mc", samples=50, seed=1), d),
    "myopic-backend": lambda cfg, tab, k, d: _saved(simulate.build_myopic_tables(cfg), d),
    "brute-backend": lambda cfg, tab, k, d: _saved(oracle.build_brute_tables(cfg), d),
    "mc-one-sample": lambda cfg, tab, k, d: _saved(
        dataclasses.replace(tab, backend="mc", samples=1, seed=1), d),
    "mc-without-seed": lambda cfg, tab, k, d: _saved(
        dataclasses.replace(tab, backend="mc", samples=50, seed=None), d),
    "exact-with-samples": lambda cfg, tab, k, d: _saved(dataclasses.replace(tab, samples=7), d),
    # more samples than numpy can shape: simulate's mc myopic baseline could not be built
    "mc-samples-beyond-numpy": lambda cfg, tab, k, d: _saved(
        dataclasses.replace(tab, backend="mc", samples=2 ** 63, seed=1), d),
    "exact-with-seed": lambda cfg, tab, k, d: _saved(dataclasses.replace(tab, seed=99), d),
    "seed-flag-2": lambda cfg, tab, k, d: _edited_cache(
        _saved(dataclasses.replace(tab, backend="mc", samples=50, seed=1), d), d,
        lambda blob: _seed_header(blob, "mc", 2, 1)),
    "seed-without-flag": lambda cfg, tab, k, d: _edited_cache(
        k, d, lambda blob: _seed_header(blob, "exact", 0, 99)),
    "trailing-bytes": lambda cfg, tab, k, d: _edited_cache(k, d, lambda blob: blob + b"\0"),
    # magic | version
    "unsupported-version": lambda cfg, tab, k, d: _edited_cache(
        k, d, _overwrite("<8s", "<I", dp._VERSION + 1)),
}


@pytest.mark.parametrize("case", sorted(UNSERVABLE_CACHES))
def test_simulate_rejects_unservable_cache(case, config_file, cache_file, small_cfg,
                                           small_tables, tmp_path, capsys):
    """A cache `build_value_tables` would not have saved for the config exits 5
    with a message: no traceback and no --out artifacts."""
    cache = UNSERVABLE_CACHES[case](small_cfg, small_tables, cache_file, tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", config_file, "--cache", str(cache),
                 "--out", str(out), "--replications", "10"]) == 5
    captured = capsys.readouterr()
    assert captured.out.strip() and "Traceback" not in captured.err
    assert not out.exists()


# case -> (table, period, None for layer T + 1, number): an entry the config
# fixes at 0.0 (layer T + 1, and an exact table's standard errors), set otherwise
FIXED_BY_CONFIG = {
    "nonzero-past-horizon": ("values", None, 0.5),
    "negative-zero-past-horizon": ("values", None, -0.0),
    "exact-with-stderr": ("stderrs", 1, 0.01),
    "exact-negative-zero-stderr": ("stderrs", 1, -0.0),
}


@pytest.mark.parametrize("case", sorted(FIXED_BY_CONFIG))
def test_save_load_gives_the_zero_the_config_fixes(case, cache_file, small_cfg, small_tables,
                                                   tmp_path):
    """A cache holds nothing the config fixes: tables whose entry there is
    set otherwise save the solved cache's bytes and load back +0.0."""
    field, t, number = FIXED_BY_CONFIG[case]
    t = t or small_cfg.horizon + 1
    path = _saved(_one_entry_set(small_tables, t, field, number), tmp_path)
    assert path.read_bytes() == Path(cache_file).read_bytes()
    loaded = getattr(dp.ValueTables.load(path, small_cfg), field)[t]
    assert loaded[small_tables.states[t][-1]].hex() == "0x0.0p+0"


def test_simulate_out_into_existing_directory(config_file, cache_file, tmp_path, capsys):
    """Artifacts replace their namesakes in an existing --out and leave other files."""
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "traces.csv").write_text("stale")
    assert main(["simulate", "--config", config_file, "--cache", cache_file,
                 "--out", str(out), "--replications", "10"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "bic_audit.json", "ir_audit.json", "notes.txt", "revenue.csv", "traces.csv"]
    assert (out / "traces.csv").read_text().startswith("# manifest")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["--version"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("edit", [None, _zero_varieties], ids=["missing-file", "zero-varieties"])
def test_process_exit_status(edit, config_file, tmp_path):
    """The module entry point hands main's code to the process exit status."""
    path = str(tmp_path / "nope.json") if edit is None else _edited_config(config_file, tmp_path, edit)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(fm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "flexmarket.cli", "validate", "--config", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and proc.stdout.strip()


def _module_env(**overrides):
    """The environment of a `python -m flexmarket.cli` child that imports this
    flexmarket; a None override removes the variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(fm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    for name, value in overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


@pytest.mark.parametrize("unbuffered, argv", [
    ("1", None), (None, None), (None, ["--version"]),
    ("1", ["--version"]), ("1", ["--help"]), ("1", ["validate", "--help"]),
], ids=["unbuffered", "buffered", "buffered-version",
        "unbuffered-version", "unbuffered-help", "unbuffered-validate-help"])
def test_closed_stdout_exits_3_in_silence(unbuffered, argv, config_file):
    """With stdout on a pipe whose reader is gone, `validate`, `--version` and
    `--help` (which argparse ends with SystemExit) exit 3, the code of an
    unwritable output, and write nothing to stderr, whether a print or
    argparse's own write (unbuffered) or the last flush (buffered) meets the
    closed pipe."""
    argv = argv or ["validate", "--config", config_file]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flexmarket.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_module_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == ""


def test_solve_irregular_config_solves_anyway(config_file, tmp_path, capsys):
    """A config that fails regularity is still solved, with a warning, into a
    cache that loads."""
    path = _edited_config(config_file, tmp_path, _family_types([3.0, 2.0]))
    assert main(["validate", "--config", path]) == 2
    cache = tmp_path / "irregular.bin"
    assert main(["solve", "--config", path, "--cache", str(cache)]) == 0
    assert "solving anyway" in capsys.readouterr().out
    tables = dp.ValueTables.load(cache, config_io.load_config(path))
    assert tables.backend == "exact"


def test_verify_reports_failing_own_config_as_seed_minus_1(config_file, tmp_path, monkeypatch):
    """`verify --config` whose own checks fail exits 6 and lists seed -1."""
    real = oracle.feasible_service_set

    def lying(*args):
        out = real(*args)
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(oracle, "feasible_service_set", lying)
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--instances", "1", "--config", config_file,
                 "--out", str(report_path)]) == 6
    doc = json.loads(report_path.read_text())
    assert not doc["passed"] and -1 in doc["failed_seeds"]
    assert any(not c["passed"] for c in doc["checks"] if c["instance_seed"] == -1)


def test_cache_charging_above_the_report_exits_5(tmp_path, capsys):
    """A one-variety mc cache whose continuation rises as stock falls
    (C_2((0,)) = 0.5, C_2((1,)) = 0.0, no supply at t=2) serves every report
    at t=1, so one below the reserve would be charged the reserve, more than
    its report: `simulate` exits 5 and writes no --out."""
    cfg_path = tmp_path / "k1.json"
    cfg_path.write_text(json.dumps({
        "horizon": 2, "varieties": 1, "grid": {"min": 0.0, "max": 1.0, "points": 11},
        "arrivals": [[0.0, 1.0], [0.0, 1.0]], "supply": [[[0.0, 1.0]], [[1.0]]],
        "types": {"family": "truncated_exponential", "alpha": [2.0]},
    }))
    cfg = config_io.load_config(cfg_path)
    states = {t: [(0,), (1,)] for t in (1, 2, 3)}
    values = {1: {(0,): 0.0, (1,): 0.5}, 2: {(0,): 0.5, (1,): 0.0}, 3: {(0,): 0.0, (1,): 0.0}}
    cache = tmp_path / "k1.bin"
    dp.ValueTables(config=cfg, backend="mc", samples=2, seed=0, values=values,
                   stderrs={t: dict.fromkeys(states[t], 0.0) for t in states}).save(cache)

    mech = Mechanism(dp.ValueTables.load(cache, cfg))
    with pytest.raises(InconsistentAllocation, match="critical value 0.4 exceeds the served "
                                                     "report 0.0"):
        mech.payments(1, fm.make_reports([(0.0, 1)]), (1,))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--cache", str(cache), "--out", str(out),
                 "--replications", "10", "--seed", "7"]) == 5
    assert "inconsistent" in capsys.readouterr().out
    assert not out.exists()
