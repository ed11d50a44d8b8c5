"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def tiny(name, out_dir, **extra):
    seeds = wl.Seeds(0)
    if name == "exact-solve":
        return wl.ExactSolve(seeds, out_dir, grid_points=5, **extra)
    if name == "mc-market":
        return wl.McMarket(seeds, out_dir, grid_points=11, samples=5, episodes=5,
                           audit_points=3, audit_reps=10, stderr_limit=math.inf)
    if name == "example-simulate":
        return wl.ExampleSimulate(seeds, out_dir, grid_points=21, episodes=300,
                                  audit_reps=200, audit_points=3, warm_episodes=10)
    return wl.OracleVerify(seeds, out_dir, instances=3)


def tiny_reference(tmp_path) -> Path:
    work = tiny("exact-solve", tmp_path)
    tables = wl.dp.build_value_tables(work.setup()["cfg"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"values": wl.reference_rows(tables)}))
    return path


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke(name, trace, tmp_path):
    extra = {"reference": tiny_reference(tmp_path)} if name == "exact-solve" else {}
    result = run.measure(tiny(name, tmp_path, **extra), seconds=0.0, trace=trace)
    assert result.ops.correct, result.ops.failed_checks
    assert result.ops.failed == 0, result.ops.errors
    # A traced run is one untraced and one traced pass.
    wanted = 2 if trace else tiny(name, tmp_path, **extra).min_passes
    assert len(result.passes) >= wanted
    assert all(p.wall_s > 0 for p in result.passes)
    if trace:
        layers = tracing.layer_metrics(result.tracer)
        assert layers["dp.build_value_tables.s"] > 0
        assert layers["config_io.parse_config.s"] > 0
        assert not result.tracer.missing


def test_norm_divides_each_pass_by_its_probes():
    ref = wl.CAL_REF_S
    passes = [wl.PassResult({"solve": 3.0, "audit": 1.0}, [1.0, 3.0, 2.0], {}),
              wl.PassResult({"solve": 4.0, "audit": 4.0}, [1.0, 1.0, 1.0], {}),
              wl.PassResult({"solve": 2.0, "audit": 1.0}, [1.0, 0.5, 1.5], {})]
    assert run.pass_norm_s(passes) == pytest.approx(ref * 3.0)
    batches = [(1.0, [0.5, 0.2, 0.3]), (2.0, [0.4]), (0.5, [0.1, 0.2, 0.6])]
    assert run.setup_norm_s(batches) == pytest.approx(ref * 0.3)


def test_reference_mismatch_fails_the_run(tmp_path):
    path = tiny_reference(tmp_path)
    doc = json.loads(path.read_text())
    doc["values"]["1"][0][-1] *= 1 + 1e-9
    path.write_text(json.dumps(doc))
    result = run.measure(tiny("exact-solve", tmp_path, reference=path), seconds=0.0, trace=False)
    assert not result.ops.correct
    assert any("reference" in c for c in result.ops.failed_checks)


def _bindings():
    """Every flexmarket module and class attribute the tracer may replace."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "flexmarket" or mod_name.startswith("flexmarket."):
            for name, value in vars(mod).items():
                out[(mod_name, name)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        out[(mod_name, name, attr)] = raw
    return out


def test_traced_run_leaves_no_wrapper_installed(tmp_path):
    before = _bindings()
    result = run.measure(tiny("mc-market", tmp_path), seconds=0.0, trace=True)
    assert result.tracer.span_name, "the traced run recorded no spans"
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert wl.dp.build_value_tables is not before[("flexmarket.dp", "build_value_tables")]
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "perfbench" / f).write_text((BENCH / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
