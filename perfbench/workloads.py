"""The benchmark's four workloads: generated inputs, timed passes, checks.

Every workload builds its market as a config document from the run's seed and
feeds it through `config_io.parse_config`, so the program only ever sees
generated inputs. A *pass* is the workload's fixed unit of timed work, sized
to take well under a second so that a run holds many of them; the runner
repeats passes for the run's duration. Checks run on one pass, and every
further pass must reproduce its outputs exactly.

See README.md in this directory for why each workload exists and which
layers it should and should not load.
"""

from __future__ import annotations

import gc
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from flexmarket import config_io, dp, market, mechanism, oracle, simulate
from flexmarket.errors import FlexmarketError, InfeasibleU

HERE = Path(__file__).resolve().parent
EXACT_REFERENCE = HERE / "reference_exact_solve.json"

# Mean standard error of the mc-market table entries at 20 samples, seed 1.
# A run whose mean exceeds it by more than a quarter used fewer effective
# samples, which no speed-up may trade for.
MC_STDERR_REFERENCE = 0.06797
MC_STDERR_SLACK = 1.25


def market_doc(alpha, grid_points: int, arrivals, supply) -> dict:
    """Config document: uniform grid on [0, 1], uniform flexibility over levels,
    truncated-exponential valuations with rates `alpha`.

    `arrivals` is one arrival-count PMF per period; `supply` is one list of
    per-variety supply PMFs per period.
    """
    return {
        "horizon": len(arrivals),
        "varieties": len(alpha),
        "grid": {"min": 0.0, "max": 1.0, "points": grid_points},
        "arrivals": [list(p) for p in arrivals],
        "supply": [[list(p) for p in period] for period in supply],
        "types": {"family": "truncated_exponential", "alpha": [float(a) for a in alpha]},
    }


def uniform_pmf(n: int) -> list[float]:
    return [1.0 / n] * n


@dataclass(frozen=True)
class Seeds:
    """Every seed of a run, derived from the benchmark's --seed.

    Seed 0 gives the ROADMAP's defaults: mc seed 1 and audit seed 2024 (and
    episode seed 7, as in the README's simulate example). The oracle family
    does not vary with the seed; see OracleVerify.
    """

    base: int

    @property
    def mc(self) -> int:
        return 1 + self.base

    @property
    def audit(self) -> int:
        return 2024 + self.base

    @property
    def episodes(self) -> int:
        return 7 + self.base

    def episode(self, e: int) -> int:
        """Seed of the e-th standalone episode, disjoint across base seeds."""
        return 1_000_000 * self.episodes + e


class Ops:
    """Attempted and failed operations of one run.

    An operation fails when it raises a FlexmarketError or fails its check;
    a failed check also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.failed_checks: list[str] = []
        self.passed_checks: list[str] = []

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns None when it raises a FlexmarketError."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except FlexmarketError as exc:
            self.failed += 1
            self.errors[f"{what}: {type(exc).__name__}"] += 1
            return None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if ok:
            self.passed_checks.append(what)
        else:
            self.failed += 1
            self.failed_checks.append(f"{what}: {detail}" if detail else what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failed_checks


# The calibration probe's time on the machine the normalised metrics are
# expressed for (a 2-vCPU x86-64 VM under Python 3.11 at its quietest).
CAL_REF_S = 0.003


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def _calibration_loop() -> float:
    """Fixed pure-Python work of the interpreter-bound kind flexmarket does:
    tuple keys, dict updates, attribute access, float maths, small sorts."""
    table: dict = {}
    cells: list = []
    acc = 0.0
    for i in range(3000):
        key = (i % 97, i % 13)
        cell = _Cell(key, i * 0.5)
        table[key] = table.get(key, 0.0) + math.exp(-(i % 50) * 0.01) + cell.weight
        cells.append(cell)
        if len(cells) > 64:
            cells.sort(key=lambda c: c.weight)
            del cells[32:]
        acc += abs(table[key] - acc * 0.5)
    return acc


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now.

    The machine's speed drifts by tens of percent over seconds, as its
    neighbours load it; a step's time over the probe's time just before it
    cancels most of that drift. The collector is off so that the probe's
    time does not depend on the size of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Laps:
    """Timed steps of one pass, with a calibration probe before, between and
    after them.

    A step runs from the end of the probe before it to its lap, so the laps
    add up to the pass's work without the probes. Every pass of a workload
    runs the same steps under the same names.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.probes: list[float] = []
        self._probe()

    def _probe(self) -> None:
        self.probes.append(calibrate())
        self._last = time.perf_counter()

    def lap(self, step: str) -> float:
        self.seconds[step] = elapsed = time.perf_counter() - self._last
        self._probe()
        return elapsed


@dataclass
class PassResult:
    laps: dict[str, float]                         # seconds per step of the pass
    probes: list[float]                            # calibration probes around the steps
    samples: dict[str, list[float]]                # per-phase samples, e.g. solve_s
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return math.fsum(self.laps.values())


def table_digest(tables) -> tuple | None:
    if tables is None:
        return None
    return tuple(
        (t, y, tables.values[t][y], tables.stderrs[t][y])
        for t in sorted(tables.states) for y in tables.states[t]
    )


def reference_mismatch(tables, reference: dict) -> tuple[int, float]:
    """Entries missing from either side or off by more than 1e-12 relative,
    and the worst relative error, against a stored {t: [[*y, C], ...]} reference."""
    want = {(int(t), *row[:-1]): row[-1] for t, rows in reference.items() for row in rows}
    got = {(t, *y): tables.values[t][y] for t in tables.states for y in tables.states[t]}
    bad = len(want.keys() ^ got.keys())
    worst = 0.0
    for key in want.keys() & got.keys():
        err = abs(got[key] - want[key])
        if err:
            worst = max(worst, err / abs(want[key]) if want[key] else math.inf)
        bad += err > 1e-12 * abs(want[key])
    return bad, worst


def reference_rows(tables) -> dict:
    return {str(t): [[*y, tables.values[t][y]] for y in tables.states[t]] for t in sorted(tables.states)}


def negative_gaps(tables) -> tuple[int, int]:
    """(negative, total) continuation gaps over t < T, reachable y and servable levels."""
    neg = total = 0
    cfg = tables.config
    for t in range(1, cfg.horizon):
        for y in tables.states[t]:
            for j in range(1, cfg.varieties + 1):
                try:
                    gap = dp.continuation_gap(tables, t, y, j)
                except InfeasibleU:
                    continue
                total += 1
                neg += gap < 0.0
    return neg, total


class Workload:
    """A fixed, seeded unit of work; subclasses define the four workloads."""

    name = ""
    min_passes = 3   # so that every run checks that passes reproduce each other

    def __init__(self, seeds: Seeds, out_dir: Path):
        self.seeds = seeds
        self.out_dir = Path(out_dir)

    def doc(self) -> dict:
        """The workload's market as a config document."""
        raise NotImplementedError

    def setup(self) -> dict:
        """Parse and fingerprint the config document, as a user's first step."""
        cfg = config_io.parse_config(self.doc())
        return {"cfg": cfg, "fingerprint": config_io.fingerprint(cfg)}

    def warm_up(self, state: dict) -> None:
        """Untimed work that lets lazy initialisation finish before timing."""

    def run_pass(self, state: dict, ops: Ops) -> PassResult:
        raise NotImplementedError

    def check(self, state: dict, result: PassResult, ops: Ops) -> dict[str, float]:
        """Correctness checks on one pass; returns data-valued layer metrics."""
        raise NotImplementedError

    def digest(self, result: PassResult):
        """What every pass must reproduce exactly."""
        raise NotImplementedError


class ExactSolve(Workload):
    """k=2, T=2, G=21 exact backward induction plus a cache round trip."""

    name = "exact-solve"

    def __init__(self, seeds, out_dir, grid_points: int = 21, reference: Path = EXACT_REFERENCE):
        super().__init__(seeds, out_dir)
        self.grid_points = grid_points
        self.reference = reference

    def doc(self) -> dict:
        bern = [0.5, 0.5]
        return market_doc((2.0, 3.0), self.grid_points,
                          arrivals=[uniform_pmf(3)] * 2, supply=[[bern, bern]] * 2)

    def run_pass(self, state, ops) -> PassResult:
        cfg = state["cfg"]
        laps = Laps()
        tables = ops.call("build_value_tables", dp.build_value_tables, cfg)
        samples = {"solve_s": [laps.lap("solve")]}
        loaded, size = None, 0
        if tables is not None:
            path = self.out_dir / f"{self.name}.tables"
            tables.save(path)
            samples["cache_save_s"] = [laps.lap("cache_save")]
            loaded = ops.call("ValueTables.load", dp.ValueTables.load, path, cfg)
            samples["cache_load_s"] = [laps.lap("cache_load")]
            size = path.stat().st_size
        return PassResult(laps.seconds, laps.probes, samples,
                          {"tables": tables, "loaded": loaded, "cache_bytes": size})

    def check(self, state, result, ops) -> dict:
        tables, loaded = result.data["tables"], result.data["loaded"]
        if not ops.check("tables built", tables is not None):
            return {}
        violations = oracle.check_monotonicity(tables, tol=1e-12)
        ops.check("zero monotonicity violations at 1e-12", not violations,
                  f"{len(violations)} violations")
        reference = json.loads(Path(self.reference).read_text())["values"]
        bad, worst = reference_mismatch(tables, reference)
        ops.check("C_t within 1e-12 relative of the stored reference", bad == 0,
                  f"{bad} entries off, worst relative error {worst:.3e}")
        ops.check("cache round trip is exact",
                  loaded is not None and table_digest(loaded) == table_digest(tables)
                  and loaded.fingerprint == tables.fingerprint)
        return {"dp.cache.bytes": result.data["cache_bytes"]}

    def digest(self, result):
        return table_digest(result.data["tables"])


class McMarket(Workload):
    """k=3, T=3, G=201 Monte Carlo solve, standalone episodes, a t=2 BIC audit.

    Every pass after the first is a same-seed rerun that must reproduce it.
    """

    name = "mc-market"

    def __init__(self, seeds, out_dir, grid_points: int = 201, samples: int = 20,
                 episodes: int = 40, audit_points: int = 5, audit_reps: int = 100,
                 stderr_limit: float = MC_STDERR_REFERENCE * MC_STDERR_SLACK):
        super().__init__(seeds, out_dir)
        self.grid_points = grid_points
        self.samples = samples
        self.episodes = episodes
        self.audit_points = audit_points
        self.audit_reps = audit_reps
        self.stderr_limit = stderr_limit

    def doc(self) -> dict:
        return market_doc((1.0, 2.0, 3.0), self.grid_points,
                          arrivals=[uniform_pmf(4)] * 3, supply=[[uniform_pmf(3)] * 3] * 3)

    def run_pass(self, state, ops) -> PassResult:
        cfg = state["cfg"]
        laps = Laps()
        tables = ops.call("build_value_tables", dp.build_value_tables,
                          cfg, backend="mc", samples=self.samples, seed=self.seeds.mc)
        samples = {"solve_s": [laps.lap("solve")]}
        outcomes, audit = [], None
        if tables is not None:
            mech = mechanism.Mechanism(tables)
            episodes_s = laps.lap("mechanism")
            for e in range(self.episodes):
                trace = ops.call("episode", simulate.sample_episode,
                                 cfg, tables, self.seeds.episode(e), mech=mech)
                outcomes.append(None if trace is None
                                else (trace.total_revenue, trace.total_virtual_surplus))
                samples.setdefault("episode_s", []).append(laps.lap(f"episode {e}"))
            episodes_s += math.fsum(samples["episode_s"])
            samples["episodes_per_s"] = [self.episodes / episodes_s]
            probe = simulate.AuditProbe.default(cfg, 2, points=self.audit_points)
            audit = ops.call("bic_audit", simulate.bic_audit,
                             cfg, tables, probe, self.audit_reps, self.seeds.audit, mech=mech)
            samples["audit_s"] = [laps.lap("audit")]
        return PassResult(laps.seconds, laps.probes, samples,
                          {"tables": tables, "outcomes": outcomes, "audit": audit})

    def check(self, state, result, ops) -> dict:
        tables = result.data["tables"]
        if not ops.check("tables built", tables is not None):
            return {}
        entries = [(tables.values[t][y], tables.stderrs[t][y])
                   for t in range(1, tables.config.horizon + 1) for y in tables.states[t]]
        ops.check("all values and standard errors finite",
                  all(math.isfinite(v) and math.isfinite(s) for v, s in entries))
        stderr_mean = math.fsum(s for _v, s in entries) / len(entries)
        ops.check("mean standard error within the 20-sample reference",
                  stderr_mean <= self.stderr_limit,
                  f"{stderr_mean:.5f} > {self.stderr_limit:.5f}")
        neg, total = negative_gaps(tables)
        return {
            "mc_stderr_mean": stderr_mean,
            "dp.mc.mono_violations": len(oracle.check_monotonicity(tables, tol=0.0)),
            "dp.mc.negative_gaps": neg,
            "dp.mc.gaps": total,
        }

    def digest(self, result):
        audit = result.data["audit"]
        return (table_digest(result.data["tables"]), tuple(result.data["outcomes"]),
                None if audit is None else audit.to_json())


class ExampleSimulate(Workload):
    """The worked instance: 2k truthful episodes, a t=2 BIC audit and an IR audit."""

    name = "example-simulate"

    def __init__(self, seeds, out_dir, grid_points: int = 1001, episodes: int = 2_000,
                 audit_reps: int = 2_000, audit_points: int = 21, warm_episodes: int = 500):
        super().__init__(seeds, out_dir)
        self.grid_points = grid_points
        self.episodes = episodes
        self.audit_reps = audit_reps
        self.audit_points = audit_points
        self.warm_episodes = warm_episodes

    def doc(self) -> dict:
        # build_example_config((2, 3), 0.5, 2, G): one good of each variety in
        # period 1, none afterwards; Bernoulli(0.5) arrivals each period.
        return market_doc((2.0, 3.0), self.grid_points,
                          arrivals=[[0.5, 0.5]] * 2,
                          supply=[[[0.0, 1.0]] * 2, [[1.0]] * 2])

    def setup(self) -> dict:
        state = super().setup()
        state["tables"] = dp.build_value_tables(state["cfg"])
        return state

    def warm_up(self, state) -> None:
        cfg, tables = state["cfg"], state["tables"]
        mech = mechanism.Mechanism(tables)
        simulate.estimate_revenue(cfg, tables, self.warm_episodes, self.seeds.episodes, mech=mech)

    def run_pass(self, state, ops) -> PassResult:
        cfg, tables = state["cfg"], state["tables"]
        laps = Laps()
        mech = mechanism.Mechanism(tables)
        est = ops.call("episodes", simulate.estimate_revenue, cfg, tables, self.episodes,
                       self.seeds.episodes, mech=mech)
        samples = {"episodes_per_s": [self.episodes / laps.lap("episodes")]}
        probe = simulate.AuditProbe.default(cfg, 2, points=self.audit_points)
        bic = ops.call("bic_audit", simulate.bic_audit,
                       cfg, tables, probe, self.audit_reps, self.seeds.audit, mech=mech)
        samples["bic_s"] = [laps.lap("bic_audit")]
        ir = ops.call("ir_audit", simulate.ir_audit,
                      cfg, tables, self.audit_reps, self.seeds.audit, mech=mech)
        samples["ir_s"] = [laps.lap("ir_audit")]
        samples["audit_s"] = [samples["bic_s"][0] + samples["ir_s"][0]]
        return PassResult(laps.seconds, laps.probes, samples, {"estimate": est, "bic": bic, "ir": ir})

    def check(self, state, result, ops) -> dict:
        cfg, tables = state["cfg"], state["tables"]
        example = market.build_example_config((2.0, 3.0), 0.5, 2, self.grid_points)
        ops.check("config document reproduces the worked instance",
                  state["fingerprint"] == config_io.fingerprint(example))
        violations = oracle.check_monotonicity(tables, tol=1e-12)
        ops.check("zero monotonicity violations at 1e-12", not violations,
                  f"{len(violations)} violations")
        est, bic, ir = result.data["estimate"], result.data["bic"], result.data["ir"]
        if ops.check("episodes ran", est is not None):
            combined = math.hypot(est.stderr, est.virtual_stderr)
            ops.check("revenue = virtual surplus within 3 combined SE",
                      abs(est.mean - est.virtual_mean) <= 3 * combined,
                      f"{est.mean:.6f} vs {est.virtual_mean:.6f}, se {combined:.2e}")
            # A pure z-test, repeated over every seed a benchmark evaluation
            # runs: at 3 SE one correct seed in ~370 fails by chance (seed 160
            # does), at 4 SE one in ~16,000.
            exact = simulate.expected_virtual_surplus(tables)
            ops.check("revenue = expected_virtual_surplus within 4 SE",
                      abs(est.mean - exact) <= 4 * est.stderr,
                      f"{est.mean:.6f} vs {exact:.6f}, se {est.stderr:.2e}")
        if ops.check("BIC audit ran", bic is not None):
            ops.check("worst BIC gain <= 3 SE + 1e-12",
                      bic.worst_gain <= 3 * bic.worst_gain_stderr + 1e-12,
                      f"gain {bic.worst_gain:.3e}, se {bic.worst_gain_stderr:.2e}")
        if ops.check("IR audit ran", ir is not None):
            ops.check("min IR utility >= -3 SE",
                      ir.min_utility >= -3 * ir.min_utility_stderr - 1e-12,
                      f"utility {ir.min_utility:.3e}, se {ir.min_utility_stderr:.2e}")
        return {}

    def digest(self, result):
        return tuple(None if x is None else x.to_json()
                     for x in (result.data["estimate"], result.data["bic"], result.data["ir"]))


class OracleVerify(Workload):
    """Oracle instances, each solved twice (simplified and brute-force stage) and cross-checked."""

    name = "oracle-verify"
    CHECKS_PER_INSTANCE = 7
    # The first instances of the ROADMAP's frozen `verify --seed 0` family,
    # whatever the run's seed: the family's size follows its master seed
    # (200 instances took 12.6 s at master seed 0 and 13.4-28.8 s at master
    # seeds 1-10), so a seeded family would time the draw of instances
    # rather than the code.
    MASTER_SEED = 0

    def __init__(self, seeds, out_dir, instances: int = 20):
        super().__init__(seeds, out_dir)
        self.instances = instances

    def setup(self) -> dict:
        # The family's configs, written out as config documents and parsed
        # back, as a user would feed them in; the pass verifies these.
        originals = [oracle.random_instance(i, master_seed=self.MASTER_SEED)
                     for i in range(self.instances)]
        parsed = [config_io.parse_config(config_io.canonical_dict(cfg)) for cfg in originals]
        return {"originals": originals, "configs": parsed,
                "fingerprints": [config_io.fingerprint(cfg) for cfg in parsed]}

    def run_pass(self, state, ops) -> PassResult:
        laps = Laps()
        checks, failed_seeds = [], []
        for seed, cfg in enumerate(state["configs"]):
            got = ops.call("verify_instance", oracle.verify_instance, cfg, seed)
            laps.lap(f"instance {seed}")
            if got is None or not all(c.passed for c in got):
                failed_seeds.append(seed)
                if got is not None:
                    ops.failed += 1
            checks.extend(got or ())
        report = {"passed": not failed_seeds, "failed_seeds": failed_seeds,
                  "checks": [c.to_json() for c in checks]}
        return PassResult(laps.seconds, laps.probes, {"verify_s": [math.fsum(laps.seconds.values())]},
                          {"report": report})

    def check(self, state, result, ops) -> dict:
        same = [config_io.fingerprint(cfg) for cfg in state["originals"]] == state["fingerprints"]
        ops.check("instance configs round-trip through config_io", same)
        report = result.data["report"]
        ops.check("verification passed", report["passed"],
                  f"failed seeds {report['failed_seeds'][:10]}")
        want = self.CHECKS_PER_INSTANCE * self.instances
        ops.check(f"{want} checks", len(report["checks"]) == want,
                  f"got {len(report['checks'])}")
        return {}

    def digest(self, result):
        return result.data["report"]


WORKLOADS = {cls.name: cls for cls in (ExactSolve, McMarket, ExampleSimulate, OracleVerify)}
