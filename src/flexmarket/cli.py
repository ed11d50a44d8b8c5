"""Operator command line: validate / solve / simulate / verify / example.

Exit codes are fixed for CI gating: 0 success, 2 regularity failure,
3 malformed config, unreadable input, unwritable output (a path, or a
closed stdout), bad seed (missing, non-integer, negative, or 2**64 or more
for an mc `solve`, whose cache stores it in 64 bits), invalid count (one
beyond numpy's index range too) or other usage error (the parser raises
these too), 4 enumeration budget exceeded (exact backend or brute-force
matrices) or an input too large to hold in memory, 5 stale (not what
`solve` writes for the config) or inconsistent table cache, 6 failed
verification check. Codes 2 and 6 are verdicts the commands return; every
failure is raised and mapped to its code in one place, `main`'s `_FAILURES`
table, except a closed stdout, which `main` can no longer report on: it
exits 3 and prints nothing more. Every output artifact embeds the
run manifest; re-running a manifest with the same seed reproduces outputs
byte for byte. `simulate` moves its artifacts into `--out` only once all of
them are written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__, config_io, dp, oracle, simulate
from .dp import ValueTables, build_value_tables, continuation_gap
from .errors import (BudgetExceeded, InconsistentAllocation, MalformedConfig,
                     StateSpaceTooLarge, TableMismatch)
from .market import MAX_REPLICATIONS, build_example_config, reserve_price, validate_config
from .mechanism import NOT_SERVED, Mechanism

EXIT_OK = 0
EXIT_REGULARITY = 2
EXIT_MALFORMED = 3
EXIT_TOO_LARGE = 4
EXIT_STALE_CACHE = 5
EXIT_VERIFY_FAILED = 6


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config: str | None
    cache: str | None
    seed: int | None
    backend: str | None
    out: str | None
    replications: int | None
    version: str = __version__


class _BadArgument(Exception):
    """Unusable command-line input; reported with exit code 3."""


def _resolve_seed(args) -> int | None:
    env = os.environ.get("FLEXMARKET_SEED")
    if env is None:
        seed = getattr(args, "seed", None)
    else:
        try:
            seed = int(env)
        except ValueError:
            raise _BadArgument(f"FLEXMARKET_SEED must be an integer, got {env!r}") from None
    if seed is not None and seed < 0:
        raise _BadArgument(f"seed must be non-negative, got {seed}")
    return seed


def cmd_validate(args) -> int:
    cfg = config_io.load_config(args.config)
    report = validate_config(cfg)
    for note in report.notes:
        print(f"note: {note}")
    if report.passed:
        print(f"regularity check passed ({cfg.horizon} periods, {cfg.varieties} varieties, "
              f"{cfg.grid.size}-point grid)")
        return EXIT_OK
    print(f"regularity check FAILED with {len(report.violations)} finding(s):")
    for v in report.violations[:20]:
        print(f"  {v.kind}: t={v.t} level={v.level} grid_index={v.grid_index} {v.detail}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")
    return EXIT_REGULARITY


def cmd_solve(args) -> int:
    seed = _resolve_seed(args)
    samples, seed = (args.samples, seed) if args.backend == "mc" else (None, None)
    if seed is not None and seed >= 2 ** 64:
        raise _BadArgument(f"an mc seed must be below 2**64 (the cache stores 64 bits), got {seed}")
    if args.budget < 1:
        raise _BadArgument(f"--budget must be at least 1, got {args.budget}")
    cfg = config_io.load_config(args.config)
    dp.check_backend(cfg, args.backend, samples, seed, _BadArgument)
    report = validate_config(cfg)
    if not report.passed:
        print(f"warning: config fails regularity at {len(report.violations)} point(s); "
              "solving anyway")
    tables = build_value_tables(cfg, backend=args.backend, samples=samples, seed=seed,
                                profile_budget=args.budget)
    tables.save(args.cache)
    print(f"tables written to {args.cache} (fingerprint {tables.fingerprint[:12]}...)")
    for t in sorted(tables.states):
        layer = tables.values[t]
        states = tables.states[t]
        lo, hi = min(layer.values()), max(layer.values())
        print(f"  t={t}: {len(states)} supply states, values in [{lo:.6f}, {hi:.6f}]")
        if len(states) <= 8:
            for y in states:
                print(f"    C_{t}({y}) = {layer[y]:.10f}")
    return EXIT_OK


@contextlib.contextmanager
def _staged_dir(outdir: Path):
    """A fresh sibling of `outdir` to write into; its files move into `outdir`
    only if the block finishes, so a failed run leaves no partial artifacts."""
    outdir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    try:
        yield staging
        outdir.mkdir(exist_ok=True)
        for path in sorted(staging.iterdir()):
            os.replace(path, outdir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if args.replications < 2:
        raise _BadArgument(
            f"--replications must be at least 2 for a standard error, got {args.replications}")
    if args.replications > MAX_REPLICATIONS:
        raise _BadArgument(f"--replications must be at most {MAX_REPLICATIONS} (one 32-bit "
                           f"stream index each), got {args.replications}")
    cfg = config_io.load_config(args.config)
    tables = ValueTables.load(args.cache, cfg)

    outdir = Path(args.out)
    manifest = asdict(RunManifest(
        subcommand="simulate", config=str(args.config), cache=str(args.cache),
        seed=seed, backend=tables.backend, out=str(outdir),
        replications=args.replications,
    ))

    mech = Mechanism(tables)
    # one batch of episodes feeds both the trace file and the estimates
    revenues, surpluses = [], []

    def tallied(traces):
        for trace in traces:
            revenues.append(trace.total_revenue)
            surpluses.append(trace.total_virtual_surplus)
            yield trace

    with _staged_dir(outdir) as staging:
        simulate.write_traces_csv(staging / "traces.csv",
                                  tallied(simulate.run_episodes(mech, args.replications, seed)),
                                  manifest)
        est = simulate.RevenueEstimate(revenues, surpluses, seed)

        optimal = simulate.expected_virtual_surplus(tables)
        # the baseline is solved the way the cached tables were
        myopic = simulate.expected_virtual_surplus(simulate.build_myopic_tables(
            cfg, backend=tables.backend, samples=tables.samples, seed=tables.seed))

        with open(staging / "revenue.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
            fh.write("replications,revenue_mean,revenue_stderr,virtual_surplus_mean,"
                     "virtual_surplus_stderr,exact_virtual_surplus,myopic_virtual_surplus\n")
            fh.write(f"{args.replications},{est.mean!r},{est.stderr!r},{est.virtual_mean!r},"
                     f"{est.virtual_stderr!r},{optimal!r},{myopic!r}\n")

        bic_reports = [
            simulate.bic_audit(cfg, tables, simulate.AuditProbe.default(cfg, t),
                               args.replications, seed, mech=mech).to_json()
            for t in range(1, cfg.horizon + 1)
        ]
        simulate.write_json_report(staging / "bic_audit.json", {"audits": bic_reports},
                                   manifest)
        ir = simulate.ir_audit(cfg, tables, args.replications, seed, mech=mech)
        simulate.write_json_report(staging / "ir_audit.json", ir.to_json(), manifest)

    print(f"revenue {est.mean:.6f} +/- {est.stderr:.6f} over {args.replications} episodes")
    print(f"virtual surplus {est.virtual_mean:.6f} +/- {est.virtual_stderr:.6f} "
          f"(exact {optimal:.6f}, myopic baseline {myopic:.6f})")
    print(f"outputs in {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = _resolve_seed(args) or 0
    if args.instances < 1:
        raise _BadArgument(f"--instances must be at least 1, got {args.instances}")
    if args.budget < 1:
        raise _BadArgument(f"--budget must be at least 1, got {args.budget}")
    # the user's own instance is audited first, so a bad or oversized config
    # fails before the random family runs; its checks are reported after it
    own = []
    if args.config:
        own = oracle.verify_instance(config_io.load_config(args.config), seed=-1,
                                     matrix_budget=args.budget)
        for check in own:
            check.detail = f"config {args.config}"
    report = oracle.run_verification(
        instances=args.instances, master_seed=seed, matrix_budget=args.budget,
    )
    report["checks"].extend(c.to_json() for c in own)
    if not all(c.passed for c in own):
        report["passed"] = False
        report["failed_seeds"].append(-1)
    manifest = asdict(RunManifest(
        subcommand="verify", config=args.config, cache=None, seed=seed,
        backend="exact", out=args.out, replications=args.instances,
    ))
    if args.out:
        simulate.write_json_report(args.out, report, manifest)
    failed = [c for c in report["checks"] if not c["passed"]]
    for c in failed:
        print(f"FAILED {c['name']} on instance seed {c['instance_seed']} "
              f"(worst violation {c['worst']:.3e})")
    n_checks = len(report["checks"])
    if failed:
        print(f"{len(failed)}/{n_checks} checks failed "
              f"(instance seeds {report['failed_seeds']})")
        return EXIT_VERIFY_FAILED
    print(f"all {n_checks} checks passed on {args.instances} instances (seed {seed})")
    return EXIT_OK


_EXAMPLE_ROWS = (
    # (label, getter, reference value)
    ("reserve price, level 1, t=2", "res_1_2", 0.36),
    ("reserve price, level 2, t=2", "res_2_2", 0.29),
    ("holding cost rho, level 1, t=1", "rho_1_1", 0.037),
    ("holding cost rho, level 2, t=1", "rho_2_1", 0.0),
    ("critical value, level 1, t=1", "bar_1_1", 0.39),
    ("critical value, level 2, t=1", "bar_2_1", 0.29),
)


def example_quantities(grid_size: int = 1001) -> dict:
    """Worked two-period instance: solve and pull out its headline numbers."""
    cfg = build_example_config(alpha=(2.0, 3.0), p=0.5, horizon=2, grid_size=grid_size)
    tables = build_value_tables(cfg)
    mech = Mechanism(tables)
    bar11 = mech.payment_threshold(1, [], 1, (1, 1))
    bar21 = mech.payment_threshold(1, [], 2, (1, 1))
    assert bar11 is not NOT_SERVED and bar21 is not NOT_SERVED
    return {
        "res_1_2": reserve_price(cfg, 2, 1),
        "res_2_2": reserve_price(cfg, 2, 2),
        "rho_1_1": continuation_gap(tables, 1, (1, 1), 1),
        "rho_2_1": continuation_gap(tables, 1, (1, 1), 2),
        "bar_1_1": bar11,
        "bar_2_1": bar21,
    }


def cmd_example(args) -> int:
    got = example_quantities()
    print("two-period worked instance (alpha = 2 and 3, arrival probability 0.5, "
          "1001-point grid)")
    print(f"{'quantity':<34} {'computed':>12} {'reference':>10} {'delta':>12}")
    for label, key, ref in _EXAMPLE_ROWS:
        val = got[key]
        print(f"{label:<34} {val:>12.6f} {ref:>10.3f} {val - ref:>12.2e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse that raises its usage errors as `_BadArgument` (exit 3), since
    its own exit 2 is the regularity verdict's code; `--help` still exits 0.
    A failed write of its help or version text raises too (argparse would
    swallow the OSError), so a closed stdout reaches `main`'s handler."""

    def error(self, message):
        raise _BadArgument(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flexmarket",
        description="Optimal dynamic-auction solver and market simulator "
                    "for flexible consumers under stochastic supply.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural and regularity checks on a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="build and persist the value tables")
    p.add_argument("--config", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--backend", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=dp.DEFAULT_PROFILE_BUDGET)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="run seeded episodes and audits")
    p.add_argument("--config", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    p.add_argument("--config", default=None,
                   help="also audit this config's own tables (reported as instance seed -1)")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_MATRIX_BUDGET)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="reproduce the worked two-period instance")
    p.set_defaults(fn=cmd_example)

    return parser


# Every failure a command raises, in match order: (exception, exit code, label).
_FAILURES = (
    (_BadArgument, EXIT_MALFORMED, "invalid argument"),
    (MalformedConfig, EXIT_MALFORMED, "malformed config"),
    (OSError, EXIT_MALFORMED, "cannot read or write file"),
    (StateSpaceTooLarge, EXIT_TOO_LARGE, "state space too large for the exact backend"),
    (BudgetExceeded, EXIT_TOO_LARGE, "brute-force matrix budget exceeded"),
    (MemoryError, EXIT_TOO_LARGE, "input too large to hold in memory"),
    (TableMismatch, EXIT_STALE_CACHE, "stale table cache"),
    (InconsistentAllocation, EXIT_STALE_CACHE, "table cache inconsistent with the mechanism"),
)


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except tuple(exc_type for exc_type, _, _ in _FAILURES) as exc:
            code, label = next((code, label) for exc_type, code, label in _FAILURES
                               if isinstance(exc, exc_type))
            print(f"{label}: {exc}")
            return code
        finally:  # also after --help: a closed stdout raises here, not at the interpreter's exit
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: print nothing more, and point it at os.devnull so
        # that the interpreter's last flush cannot raise
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
