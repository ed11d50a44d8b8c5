#!/usr/bin/env python3
"""flexmarket benchmark runner.

    python3 perfbench/run.py --workload exact-solve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload in this process, on one thread, as a closed loop: each
timed pass starts when the previous one returns. Passes repeat until the
next one would overrun --seconds (each workload runs at least its minimum
number of passes), and set-up is repeated in short batches before, between
and after them. Correctness checks run on one pass and every other pass must
reproduce it exactly. Short calibration probes (see workloads.calibrate) run
before, between and after the steps of every pass and around every batch of
set-ups.

With --trace 0 the result carries the end-to-end metrics listed in
BENCHMARK.json: `pass_norm_s` (median over the passes of each pass's time
over its probes' mean), `setup_s` (median over the set-up batches of each
batch's median set-up over its probes' mean), both in seconds of a machine
whose probe takes workloads.CAL_REF_S, and `peak_rss_mb`. With --trace 1 it runs one
untraced pass, then set-up, a pass and the checks again under the span
tracer, and carries the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result. `--workload all` runs every workload in its own child process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

# Set-up is sampled in short batches before, between and after the passes,
# so its median spans the run rather than one moment of a machine whose speed
# drifts by tens of percent over a few seconds.
SETUP_MIN_REPEATS = 5
SETUP_BATCH_SECONDS = 0.1
SETUP_BATCH_MAX = 100
CHILD_TIMEOUT_S = 900

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def summarize(values) -> str:
    """Minimum, median, the highest percentile with at least ten samples
    beyond it (from 20 samples on, where it is at least the median), and the
    count."""
    vals = sorted(values)
    n = len(vals)
    text = f"min {vals[0]:.6g}, median {statistics.median(vals):.6g}"
    if n >= 20:
        text += f", p{100 * (n - 10) / n:.4g} {vals[n - 11]:.6g}"
    return text + f" (n={n})"


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def environment() -> dict:
    import numpy

    uname = os.uname()
    return {
        "machine": uname.machine, "node": uname.nodename, "cpus": os.cpu_count(),
        "system": f"{uname.sysname} {uname.release}",
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def setup_batch(workload, batches: list):
    """Repeat set-up for SETUP_BATCH_SECONDS, at most SETUP_BATCH_MAX times,
    between two calibration probes; appends (mean probe seconds, set-up
    durations) to `batches` and returns the last state."""
    from workloads import calibrate

    times: list = []
    gc.collect()   # each batch starts from the same heap, not the last pass's garbage
    before = calibrate()
    t_batch = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_BATCH_MAX or time.perf_counter() - t_batch >= SETUP_BATCH_SECONDS:
            batches.append((0.5 * (before + calibrate()), times))
            return state


def run_passes(workload, state, deadline: float, passes: list, setup_batches: list):
    """Timed passes after the first; each keeps only its digest as data, so
    that the heap does not grow with the number of passes.

    Their operations are not counted: how many passes fit in the run depends
    on the machine, and each must reproduce the first pass, whose operations
    are counted, so the run's counts depend on its seed alone.
    """
    from workloads import Ops

    while True:
        next_due = time.perf_counter() + statistics.median(p.wall_s for p in passes)
        if len(passes) >= workload.min_passes and next_due > deadline:
            return
        setup_batch(workload, setup_batches)
        passes.append(workload.run_pass(state, Ops()))
        passes[-1].data = {"digest": workload.digest(passes[-1])}


def pass_norm_s(passes) -> float:
    """Median over the passes of each pass's time over the mean of the
    calibration probes run around its steps, in seconds of a machine whose
    probe takes CAL_REF_S.

    The machine this was built on runs the same code 30-70% slower for
    seconds at a time while its neighbours load it, and slowdowns that span
    a whole run move any plain time; the probes slow with them.
    """
    from workloads import CAL_REF_S

    return CAL_REF_S * statistics.median(p.wall_s / statistics.fmean(p.probes) for p in passes)


def setup_norm_s(batches) -> float:
    """Median over the run's set-up batches of each batch's median set-up over
    the mean of the probes around the batch, in seconds of the reference
    machine."""
    from workloads import CAL_REF_S

    return CAL_REF_S * statistics.median(statistics.median(times) / probe
                                         for probe, times in batches)


@dataclass
class Measurement:
    setup_batches: list   # (mean probe seconds, set-up durations) per batch
    passes: list
    peak_rss_mb: float    # after set-up, warm-up and the first pass
    data: dict          # data-valued layer metrics from the checks
    ops: object
    tracer: object      # the Tracer of a traced run, else None


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Set up, warm up, run the timed passes (or the traced pair) and check."""
    from tracer import Tracer
    from workloads import Ops

    setup_batches: list = []
    state = setup_batch(workload, setup_batches)
    workload.warm_up(state)
    deadline = time.perf_counter() + seconds
    ops = Ops()
    passes = [workload.run_pass(state, ops)]
    # Later passes and set-ups only add heap fragmentation, which would tie
    # the peak to how many of them fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if trace:
        tracer = Tracer()
        with tracer:
            traced_state = workload.setup()
            passes.append(workload.run_pass(traced_state, ops))
            data = workload.check(traced_state, passes[-1], ops)
    else:
        run_passes(workload, state, deadline, passes, setup_batches)
        data = workload.check(state, passes[0], ops)
    while True:
        setup_batch(workload, setup_batches)
        if sum(len(times) for _probe, times in setup_batches) >= SETUP_MIN_REPEATS:
            break
    first = workload.digest(passes[0])
    differ = [i for i, p in enumerate(passes[1:], start=2)
              if (p.data["digest"] if "digest" in p.data else workload.digest(p)) != first]
    ops.check(f"passes 2-{len(passes)} reproduce pass 1 exactly", not differ,
              f"passes {differ[:10]} differ")
    return Measurement(setup_batches, passes, peak_rss_mb, data, ops, tracer)


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import flexmarket

    if Path(flexmarket.__file__).resolve().parent != (SRC / "flexmarket").resolve():
        print(f"error: flexmarket imported from {flexmarket.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import CAL_REF_S, WORKLOADS, Seeds

    declared = [w["name"] for w in spec["workloads"]]
    if args.workload not in declared or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {declared}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](Seeds(args.seed), OUT)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    run = measure(workload, args.seconds, bool(args.trace))
    passes, data, ops = run.passes, run.data, run.ops
    phases: dict[str, list] = {}
    for p in passes:
        for name, vals in p.samples.items():
            phases.setdefault(name, []).extend(vals)
    if "episode_s" in phases:
        phases["episode_ms"] = [v * 1e3 for v in phases.pop("episode_s")]

    walls = [p.wall_s for p in passes]
    setup_times = [t for _probe, times in run.setup_batches for t in times]
    probes = [c for p in passes for c in p.probes]
    e2e = {
        "pass_norm_s": pass_norm_s(passes),
        "setup_s": setup_norm_s(run.setup_batches),
        "peak_rss_mb": run.peak_rss_mb,
    }
    print(f"metric pass_norm_s: {e2e['pass_norm_s']:.6g} s at the reference speed "
          f"(n={len(walls)} passes of {len(passes[0].laps)} steps)")
    print(f"metric pass_s: {summarize(walls)} s")
    print(f"metric setup_s: {e2e['setup_s']:.6g} s at the reference speed "
          f"(n={len(run.setup_batches)} batches)")
    print(f"metric setup_each_s: {summarize(setup_times)} s")
    print(f"metric calibration_probe_s: {summarize(probes)} s (reference {CAL_REF_S:g} s)")
    print(f"metric peak_rss_mb: {e2e['peak_rss_mb']:.6g} MB (n=1, after the first pass)")
    for name in sorted(phases):
        print(f"metric {name}: {summarize(phases[name])} {unit_of(name)}")
    for name in sorted(data):
        print(f"data {name}: {data[name]:.6g}")
    ratio = ops.failed / ops.attempted if ops.attempted else math.nan
    print(f"metric failed_ops_ratio: {ratio:.6g} ({ops.failed} failed of {ops.attempted} attempted "
          "ops: table builds, episodes, audits, instances and checks)")
    for what, count in sorted(ops.errors.items()):
        print(f"failed op {what} x{count}")
    for what in ops.passed_checks:
        print(f"check ok   {what}")
    for what in ops.failed_checks:
        print(f"check FAIL {what}")

    if run.tracer is not None:
        tracer = run.tracer
        layers = tracing.layer_metrics(tracer)
        layers.update(data)
        layers["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / passes[0].wall_s
        for missing in tracer.missing:
            print(f"trace target missing: {missing}")
        path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.save(path)
        print(f"spans {len(tracer.span_name)} written to {path.relative_to(ROOT)}")
        print("layers " + json.dumps(layers, sort_keys=True))
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own child process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with code {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread for every numeric library; this must precede the numpy import.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "flexmarket" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: this checkout has no flexmarket sources under {SRC} "
              f"or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
