"""Command-line interface: ``energy-roofline`` / ``python -m repro``.

Subcommands
-----------
``machines``
    List the machine catalog.
``describe MACHINE``
    Raw and derived parameters plus the balance/race-to-halt analysis.
``curves MACHINE``
    Render roofline/arch-line/powerline ASCII charts; ``--csv`` exports
    the series for external plotting.
``experiment list`` / ``experiment run ID``
    The paper's tables and figures (see :mod:`repro.experiments`).
``fit CSV``
    Fit eq. (9) energy coefficients from a measurement CSV with columns
    ``work,traffic,time,energy,double`` (header required).
``tradeoff MACHINE``
    Greenup thresholds for a work–communication trade at a baseline
    intensity.
``partition MACHINE_A MACHINE_B``
    Time- vs energy-optimal splits of a divisible workload across two
    devices.
``dvfs MACHINE``
    Frequency sweep and the energy-optimal operating point for a
    workload intensity.
``app NAME MACHINE``
    Per-phase cost table for a library application (cg, fmm,
    fft-poisson, jacobi).
``serve``
    Long-lived async model server (NDJSON over TCP, with negotiated
    binary framing — ``--wire``) with micro-batching, response
    caching, built-in metrics, and an optional sharded worker-process
    pool (``--workers N``, jobs over shared-memory rings) (see
    :mod:`repro.service` and
    ``docs/SERVICE.md``).
``route``
    Multi-node scale-out router: a consistent-hash ring (virtual
    nodes, per-key replication — ``--replication``) over replicated
    ``serve`` instances (``--backend HOST:PORT`` each), with health
    probing and automatic failover of retriable failures (see
    :mod:`repro.service.router` and ``docs/SERVICE.md``).
``bench-serve``
    Load generator against an in-process server — closed loop by
    default, open loop (Poisson arrivals) with ``--open-loop RPS``;
    ``--wire ndjson|binary`` moves the run onto a real loopback
    socket under that framing; ``--router-backends N`` benches the
    full router path, ``--target HOST:PORT`` drives an external
    server or router; reports throughput, latency percentiles,
    batch-size histogram and bytes on the wire.
``lint``
    Run replint, the repo's own AST-based static analysis, over the
    package source (or explicit paths).  Exit code 0 means clean, 1
    means findings, 2 means a usage error (see ``docs/LINT.md``).
``perfreg``
    Continuous performance-regression harness: run registered checks
    and append graded ``BENCH_<area>.json`` trajectory records
    (``run``), inspect recorded history (``report``), or show the
    rolling baselines (``baseline``).  ``run`` exits 0/1/2 for
    pass/warn/fail against the rolling baseline
    (see :mod:`repro.perfreg` and ``docs/PERFREG.md``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.core.balance import analyze
from repro.core.rooflines import (
    archline_series,
    powerline_series,
    roofline_series,
    vertical_markers,
)
from repro.core.tradeoff import TradeoffAnalyzer
from repro.core.algorithm import AlgorithmProfile
from repro.exceptions import ReproError
from repro.machines.catalog import list_machines, resolve_machine
from repro import units


def get_machine(key_or_path: str):
    """Resolve a machine argument: catalog key, or path to a JSON file.

    Thin alias for :func:`repro.machines.catalog.resolve_machine`, the
    lookup path shared with the serving layer; every failure raises
    :class:`~repro.exceptions.ReproError` and exits with a one-line
    diagnostic rather than a traceback.
    """
    return resolve_machine(key_or_path)
from repro.viz.ascii_chart import render_chart
from repro.viz.series import write_csv

__all__ = ["main", "build_parser"]


def _add_server_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the server knobs ``serve`` and ``bench-serve`` share: one
    flag per :class:`~repro.service.ServerConfig` field, defaulting to
    the field's default (a ``*-ms`` flag spells a seconds field in
    milliseconds).  :func:`_server_config` maps them back."""
    # Dataclass field defaults are class attributes.
    from repro.service.server import ServerConfig as defaults

    parser.add_argument(
        "--max-batch", type=int, default=defaults.max_batch, metavar="N",
        help="micro-batch size cap; 1 disables coalescing",
    )
    parser.add_argument(
        "--flush-window-ms", type=float, metavar="MS",
        default=units.to_milliseconds(defaults.flush_window),
        help="max time a non-full batch waits (default %(default)g)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=defaults.cache_size, metavar="N",
        help="response-cache entries; 0 disables (default %(default)d)",
    )
    parser.add_argument(
        "--workers", type=int, default=defaults.workers, metavar="N",
        help="worker processes for model evaluation; 0 runs in-loop",
    )
    parser.add_argument(
        "--plan-cache-size", type=int, default=defaults.plan_cache_size,
        metavar="N", help="compiled curve-plan cache entries; 0 disables",
    )
    parser.add_argument(
        "--admission", choices=("depth", "cost"), default=defaults.admission,
        help="queue-depth limit, or predicted-work budget (cost)",
    )
    parser.add_argument(
        "--work-budget", type=float, default=defaults.work_budget, metavar="S",
        help="predicted seconds of work in flight under --admission cost",
    )
    parser.add_argument(
        "--deadline-batching", action="store_true",
        default=defaults.deadline_batching,
        help="shrink batch windows so the earliest deadline holds",
    )


def _server_config(args: argparse.Namespace, **deployment):
    """The :class:`~repro.service.ServerConfig` the shared server flags
    describe, plus per-subcommand ``deployment`` fields."""
    from repro.service import ServerConfig

    return ServerConfig(
        max_batch=args.max_batch,
        flush_window=units.milliseconds(args.flush_window_ms),
        cache_size=args.cache_size,
        workers=args.workers,
        plan_cache_size=args.plan_cache_size,
        admission=args.admission,
        work_budget=args.work_budget,
        deadline_batching=args.deadline_batching,
        **deployment,
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="energy-roofline",
        description="Energy roofline model analysis (IPDPS 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the machine catalog")

    p_desc = sub.add_parser("describe", help="show a machine's parameters")
    p_desc.add_argument("machine", help="catalog key, e.g. gtx580-double")

    p_curves = sub.add_parser("curves", help="render model curves")
    p_curves.add_argument("machine")
    p_curves.add_argument(
        "--kind",
        choices=("roofline", "archline", "powerline", "all"),
        default="all",
    )
    p_curves.add_argument("--lo", type=float, default=0.25)
    p_curves.add_argument("--hi", type=float, default=64.0)
    p_curves.add_argument("--csv", type=Path, help="also export series as CSV")
    p_curves.add_argument("--svg", type=Path, help="also render the chart as SVG")

    p_exp = sub.add_parser("experiment", help="run paper experiments")
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="list available experiments")
    exp_sub.add_parser(
        "summary", help="run everything; print the paper-vs-measured digest"
    )
    p_run = exp_sub.add_parser("run", help="run one or more experiments")
    p_run.add_argument(
        "id", nargs="+", help="experiment id(s), e.g. fig4 table4"
    )
    p_run.add_argument(
        "--output", type=Path,
        help="directory to archive the report (<id>.txt) and headline "
             "values (<id>.json)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes: parallelises across experiments and, "
             "inside sweep experiments, across device-precision panels",
    )
    p_run.add_argument(
        "--cache-dir", type=Path, metavar="DIR",
        help="content-addressed result cache; repeated runs with the "
             "same machine params, sweep config, and seed replay from disk",
    )
    p_run.add_argument(
        "--max-variants", type=int, default=None, metavar="K",
        help="for variant-sweep experiments (fmm): trim the variant "
             "space to K for quick smoke runs; ignored by experiments "
             "that do not take it",
    )

    p_fit = sub.add_parser("fit", help="fit eq. (9) coefficients from a CSV")
    p_fit.add_argument("csv", type=Path)

    p_trade = sub.add_parser("tradeoff", help="greenup thresholds for (f, m) trades")
    p_trade.add_argument("machine")
    p_trade.add_argument("--intensity", type=float, required=True)
    p_trade.add_argument(
        "--m", type=float, nargs="+", default=[2.0, 4.0, 8.0], dest="m_values"
    )

    p_part = sub.add_parser(
        "partition", help="split a divisible workload across two devices"
    )
    p_part.add_argument("machine_a")
    p_part.add_argument("machine_b")
    p_part.add_argument("--intensity", type=float, required=True)
    p_part.add_argument("--work", type=float, default=1e12)
    p_part.add_argument(
        "--idle-policy", choices=("halt", "idle"), default="halt"
    )

    p_dvfs = sub.add_parser("dvfs", help="frequency-scaling analysis")
    p_dvfs.add_argument("machine")
    p_dvfs.add_argument("--intensity", type=float, required=True)
    p_dvfs.add_argument("--static-fraction", type=float, default=0.5)
    p_dvfs.add_argument("--steps", type=int, default=7)

    p_scale = sub.add_parser(
        "scaling", help="distributed strong-scaling time/energy analysis"
    )
    p_scale.add_argument("machine", help="node machine (catalog key)")
    p_scale.add_argument(
        "workload", choices=("summa", "stencil", "allreduce")
    )
    p_scale.add_argument("--size", type=int, default=4096)
    p_scale.add_argument("--net-gbytes", type=float, default=4.0,
                         help="per-node network bandwidth (GB/s)")
    p_scale.add_argument("--eps-net", type=float, default=1000.0,
                         help="network energy (pJ/B)")
    p_scale.add_argument(
        "--nodes", type=int, nargs="+", default=[1, 4, 16, 64, 256]
    )

    p_app = sub.add_parser("app", help="phase-level application analysis")
    p_app.add_argument(
        "name", choices=("cg", "fmm", "fft-poisson", "jacobi")
    )
    p_app.add_argument("machine")
    p_app.add_argument("--size", type=int, default=None,
                       help="problem size (app-specific default)")

    p_serve = sub.add_parser(
        "serve", help="run the async model-serving daemon (NDJSON over TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8733,
        help="TCP port (0 lets the OS pick; default 8733)",
    )
    _add_server_flags(p_serve)
    p_serve.add_argument(
        "--cache-ttl", type=float, default=300.0, metavar="S",
        help="response-cache staleness bound in seconds",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=1024, metavar="N",
        help="admission limit; beyond it requests get 'overloaded' replies",
    )
    p_serve.add_argument(
        "--default-timeout-ms", type=float, default=None, metavar="MS",
        help="default per-request deadline (requests may override)",
    )
    p_serve.add_argument(
        "--access-log", action="store_true",
        help="emit one JSON access record per request on stderr",
    )
    p_serve.add_argument(
        "--wire", choices=("auto", "binary", "ndjson"), default="auto",
        help="framing policy: auto/binary accept a client's binary "
        "upgrade, ndjson refuses it (connections always start NDJSON)",
    )

    p_route = sub.add_parser(
        "route",
        help="run the scale-out router over replicated server instances",
    )
    p_route.add_argument(
        "--backend", action="append", required=True, metavar="HOST:PORT",
        dest="backends",
        help="backend server address; repeat for each instance",
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument(
        "--port", type=int, default=8732,
        help="client-facing TCP port (0 lets the OS pick; default 8732)",
    )
    p_route.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="distinct replicas per routing key (failover candidates)",
    )
    p_route.add_argument(
        "--vnodes", type=int, default=128, metavar="N",
        help="virtual ring points per backend",
    )
    p_route.add_argument(
        "--wire", choices=("auto", "binary", "ndjson"), default="auto",
        help="client-side framing policy (same semantics as serve)",
    )
    p_route.add_argument(
        "--backend-wire", choices=("binary", "ndjson"), default="binary",
        help="framing offered to backends; binary degrades to NDJSON "
        "against servers that refuse it",
    )
    p_route.add_argument(
        "--attempts", type=int, default=3, metavar="N",
        help="failover attempts per request (including the first)",
    )
    p_route.add_argument(
        "--health-interval", type=float, default=1.0, metavar="S",
        help="seconds between backend health probes",
    )
    p_route.add_argument(
        "--down-after", type=int, default=3, metavar="M",
        help="consecutive failures that mark a backend down",
    )

    p_bench = sub.add_parser(
        "bench-serve",
        help="closed-loop load generator against an in-process server",
    )
    p_bench.add_argument("--requests", type=int, default=4000, metavar="N")
    p_bench.add_argument("--concurrency", type=int, default=128, metavar="N")
    _add_server_flags(p_bench)
    # Isolate batching: no response cache, and batches wait long
    # enough to fill at the default concurrency.
    p_bench.set_defaults(cache_size=0, flush_window_ms=2.0)
    p_bench.add_argument(
        "--machines", nargs="+", default=["gtx580-double", "i7-950-double"],
        help="catalog machines to spread requests across",
    )
    p_bench.add_argument(
        "--model", default="capped",
        choices=("time", "energy", "power", "capped"),
    )
    p_bench.add_argument("--metric", default="energy_per_flop")
    p_bench.add_argument(
        "--repeat-intensities", action="store_true",
        help="draw intensities from a small pool so the cache participates",
    )
    p_bench.add_argument(
        "--workload", choices=("scalar", "mixed", "heavy"), default="scalar",
        help="request mix: scalar evals only; a mix of evals, grids, "
        "curves, and analyses; or the same mix with compute-dominated "
        "curve/grid sizes",
    )
    p_bench.add_argument(
        "--open-loop", type=float, default=None, metavar="RPS",
        help="open-loop (Poisson arrival) mode at RPS requests/s; "
        "latency is measured from intended arrival time",
    )
    p_bench.add_argument(
        "--timeout-ms", type=float, default=None, metavar="MS",
        help="per-request deadline stamped on every generated request",
    )
    p_bench.add_argument(
        "--wire", choices=("inproc", "ndjson", "binary"), default="inproc",
        help="transport under test: direct handler calls (inproc), or "
        "real loopback TCP with NDJSON or binary framing",
    )
    p_bench.add_argument(
        "--router-backends", type=int, default=0, metavar="N",
        help="route through a consistent-hash router over N local "
        "backend servers (requires --wire ndjson|binary)",
    )
    p_bench.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="per-key replication factor in --router-backends mode",
    )
    p_bench.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help="drive an already-running server or router instead of "
        "spawning one in-process (requires --wire ndjson|binary; "
        "refuses every server flag)",
    )

    p_lint = sub.add_parser(
        "lint", help="run replint, the repo's AST-based static analysis"
    )
    p_lint.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids, e.g. RL001,RL005 (default: all)",
    )
    p_lint.add_argument(
        "--project", action="store_true",
        help="also run the whole-program flow rules (RL007-RL010)",
    )
    p_lint.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only files whose dependency closure intersects the "
        "git diff against REF (default REF: HEAD)",
    )
    p_lint.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for per-file analysis (default: 1)",
    )
    p_lint.add_argument(
        "--cache-dir", type=Path, metavar="DIR",
        help="content-addressed per-file result cache",
    )
    p_lint.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed findings with their reasons",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    p_perfreg = sub.add_parser(
        "perfreg", help="continuous performance-regression harness"
    )
    perfreg_sub = p_perfreg.add_subparsers(dest="perfreg_command", required=True)

    def _perfreg_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checks", action="append", default=None, metavar="GLOB",
            help="check name or instance-id glob, repeatable "
                 "(default: every registered check)",
        )
        p.add_argument(
            "--root", type=Path, default=Path("."), metavar="DIR",
            help="directory holding the BENCH_*.json trajectories "
                 "(default: current directory)",
        )
        p.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )
        p.add_argument(
            "--window", type=int, default=None, metavar="K",
            help="rolling-baseline window: median of the last K green "
                 "runs (default: 5)",
        )

    p_pr_run = perfreg_sub.add_parser(
        "run", help="run checks, grade vs baseline, append trajectories"
    )
    _perfreg_common(p_pr_run)
    p_pr_run.add_argument(
        "--reps", type=int, default=None, metavar="N",
        help="measured repetitions per check (default: 5)",
    )
    p_pr_run.add_argument(
        "--warmup", type=int, default=None, metavar="N",
        help="untimed warmup repetitions per check (default: 1)",
    )
    p_pr_run.add_argument(
        "--warn-pct", type=float, default=None, metavar="P",
        help="warn when a metric regresses more than P%% (default: 10)",
    )
    p_pr_run.add_argument(
        "--fail-pct", type=float, default=None, metavar="P",
        help="fail when a metric regresses more than P%% (default: 25)",
    )
    p_pr_run.add_argument(
        "--waivers", type=Path, default=None, metavar="FILE",
        help="waiver file (default: <root>/.perfreg-waivers)",
    )
    p_pr_run.add_argument(
        "--dry-run", action="store_true",
        help="measure and grade but append nothing to the trajectories",
    )

    p_pr_report = perfreg_sub.add_parser(
        "report", help="show recorded trajectory history"
    )
    _perfreg_common(p_pr_report)
    p_pr_report.add_argument(
        "--last", type=int, default=10, metavar="N",
        help="records shown per trajectory (default: 10)",
    )

    p_pr_base = perfreg_sub.add_parser(
        "baseline", help="show current rolling baselines"
    )
    _perfreg_common(p_pr_base)
    return parser


def _cmd_machines() -> str:
    from repro.core.params import MachineModel

    machines = [get_machine(key) for key, _ in list_machines()]
    return MachineModel.table(machines)


def _cmd_describe(key: str) -> str:
    machine = get_machine(key)
    return machine.describe() + "\n\n" + analyze(machine).describe()


def _cmd_curves(args: argparse.Namespace) -> str:
    machine = get_machine(args.machine)
    kw = dict(lo=args.lo, hi=args.hi)
    series = []
    if args.kind in ("roofline", "all"):
        series.append(roofline_series(machine, normalized=True, **kw))
    if args.kind in ("archline", "all"):
        series.append(archline_series(machine, normalized=True, **kw))
    blocks = []
    if series:
        blocks.append(
            render_chart(series, markers=vertical_markers(machine), title=machine.name)
        )
    if args.kind in ("powerline", "all"):
        power = powerline_series(machine, normalized=False, **kw)
        blocks.append(
            render_chart(
                [power],
                markers={"B_tau": machine.b_tau},
                title=f"{machine.name} — powerline (W)",
            )
        )
        series.append(power)
    if args.csv:
        write_csv(series, args.csv)
        blocks.append(f"series written to {args.csv}")
    if args.svg:
        from repro.viz.svg import write_svg

        write_svg(
            args.svg,
            series,
            markers=vertical_markers(machine),
            title=machine.name,
        )
        blocks.append(f"chart written to {args.svg}")
    return "\n\n".join(blocks)


def _cmd_experiment(args: argparse.Namespace) -> str:
    from repro.experiments import list_experiments, run_experiment

    if args.exp_command == "list":
        return "\n".join(f"{eid:<10} {title}" for eid, title in list_experiments())
    if args.exp_command == "summary":
        from repro.experiments.summary import build_summary

        return build_summary()
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
    )
    run_kwargs = {}
    if getattr(args, "max_variants", None) is not None:
        run_kwargs["max_variants"] = args.max_variants
    results = runner.run_many(args.id, **run_kwargs)
    blocks = []
    for result in results:
        text = result.text
        if getattr(args, "output", None):
            import json

            args.output.mkdir(parents=True, exist_ok=True)
            (args.output / f"{result.experiment_id}.txt").write_text(
                result.text + "\n"
            )
            (args.output / f"{result.experiment_id}.json").write_text(
                json.dumps(
                    {"title": result.title, "values": result.values},
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            text += (
                f"\n\nreport archived under {args.output}/"
                f"{result.experiment_id}.{{txt,json}}"
            )
        blocks.append(text)
    return "\n\n".join(blocks)


def _cmd_fit(path: Path) -> str:
    from repro.core.fitting import EnergySample, fit_energy_coefficients

    samples = []
    with path.open() as handle:
        reader = csv.DictReader(handle)
        required = {"work", "traffic", "time", "energy", "double"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ReproError(
                f"CSV must have columns {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            samples.append(
                EnergySample(
                    work=float(row["work"]),
                    traffic=float(row["traffic"]),
                    time=float(row["time"]),
                    energy=float(row["energy"]),
                    double_precision=row["double"].strip().lower()
                    in ("1", "true", "yes"),
                )
            )
    fit = fit_energy_coefficients(samples)
    lines = [fit.regression.summary(), "", fit.table_row(path.stem)]
    return "\n".join(lines)


def _cmd_tradeoff(args: argparse.Namespace) -> str:
    machine = get_machine(args.machine)
    baseline = AlgorithmProfile.from_intensity(args.intensity, work=1e12)
    analyzer = TradeoffAnalyzer(machine, baseline)
    lines = [
        f"{machine.name}: baseline I = {args.intensity:g} flop/B",
        f"{'m':>8}{'f* eq.(10)':>14}{'f* exact':>12}",
    ]
    for m, closed, exact in analyzer.frontier(args.m_values):
        lines.append(f"{m:>8.2f}{closed:>14.3f}{exact:>12.3f}")
    return "\n".join(lines)


def _cmd_partition(args: argparse.Namespace) -> str:
    from repro.scheduler import Device, HeterogeneousScheduler, IdlePolicy

    scheduler = HeterogeneousScheduler(
        Device(args.machine_a, get_machine(args.machine_a)),
        Device(args.machine_b, get_machine(args.machine_b)),
        idle_policy=IdlePolicy(args.idle_policy),
    )
    workload = AlgorithmProfile.from_intensity(
        args.intensity, work=args.work, name="workload"
    )
    return scheduler.summary(workload)


def _cmd_dvfs(args: argparse.Namespace) -> str:
    from repro.core.dvfs import DvfsMachine, DvfsPolicy

    machine = get_machine(args.machine)
    dvfs = DvfsMachine(
        machine, DvfsPolicy(static_fraction=args.static_fraction)
    )
    profile = AlgorithmProfile.from_intensity(args.intensity, work=1e12)
    lines = [
        f"{machine.name}: I = {args.intensity:g} flop/B, "
        f"static pi0 fraction {args.static_fraction:g}",
        f"{'s':>6}{'time':>12}{'energy':>12}{'power':>10}",
    ]
    for point in dvfs.sweep(profile, steps=args.steps):
        lines.append(
            f"{point.s:>6.2f}{point.time:>11.4g}s{point.energy:>11.4g}J"
            f"{point.power:>9.1f}W"
        )
    best = dvfs.energy_optimal_setting(profile)
    verdict = "race-to-halt" if dvfs.race_to_halt_wins(profile) else "crawl"
    lines.append(
        f"energy-optimal s = {best.s:.3f} ({best.energy:.4g} J) -> {verdict}"
    )
    return "\n".join(lines)


def _cmd_scaling(args: argparse.Namespace) -> str:
    from repro.cluster import (
        ClusterModel,
        allreduce_workload,
        stencil_halo_workload,
        summa_matmul_workload,
    )

    builders = {
        "summa": summa_matmul_workload,
        "stencil": stencil_halo_workload,
        "allreduce": allreduce_workload,
    }
    workload = builders[args.workload](args.size)
    cluster = ClusterModel(
        get_machine(args.machine),
        net_bandwidth=units.gbytes_to_bytes_per_second(args.net_gbytes),
        eps_net=units.picojoules(args.eps_net),
    )
    lines = [cluster.describe_scaling(workload, args.nodes)]
    limit = cluster.energy_flat_limit(workload)
    lines.append(
        f"energy-flat (within 10%) up to p = {limit}"
        if limit < cluster.max_nodes
        else "energy-flat beyond the search limit"
    )
    return "\n".join(lines)


def _cmd_app(args: argparse.Namespace) -> str:
    from repro.workloads import (
        cg_solver,
        fft_poisson_solver,
        fmm_pipeline,
        jacobi_heat_solver,
    )

    builders = {
        "cg": lambda n: cg_solver(n or 1_000_000),
        "fmm": lambda n: fmm_pipeline(n or 200_000),
        "fft-poisson": lambda n: fft_poisson_solver(n or (1 << 20)),
        "jacobi": lambda n: jacobi_heat_solver(n or 128),
    }
    app = builders[args.name](args.size)
    machine = get_machine(args.machine)
    lines = [app.describe(machine)]
    tb = app.time_bottleneck(machine)
    eb = app.energy_bottleneck(machine)
    lines.append(
        f"time bottleneck: {tb.name} ({tb.time_fraction:.0%}); "
        f"energy bottleneck: {eb.name} ({eb.energy_fraction:.0%})"
    )
    return "\n".join(lines)


def _serve_until_signalled(frontend, banner) -> bool:
    """Serve a :class:`~repro.service.frontend.WireFrontend` (server or
    router) until SIGINT/SIGTERM, then drain it; ``banner(HOST:PORT)``
    goes to stderr once it listens.  ``False``: a bare
    ``KeyboardInterrupt`` cut the run short instead."""
    import asyncio
    import signal

    async def _serve() -> None:
        host, port = await frontend.start()
        print(banner(f"{host}:{port}"), file=sys.stderr, flush=True)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loops
        serve_task = asyncio.ensure_future(frontend.serve_forever())
        try:
            await stop_requested.wait()
        finally:
            serve_task.cancel()
            await asyncio.gather(serve_task, return_exceptions=True)
            await frontend.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        return False
    return True


def _cmd_serve(args: argparse.Namespace) -> str:
    import json as _json

    from repro.service import ModelServer

    def _log(record: dict) -> None:
        print(_json.dumps(record, sort_keys=True), file=sys.stderr)

    config = _server_config(
        args,
        host=args.host,
        port=args.port,
        cache_ttl=args.cache_ttl if args.cache_ttl > 0 else None,
        queue_limit=args.queue_limit,
        default_timeout=(
            units.milliseconds(args.default_timeout_ms)
            if args.default_timeout_ms
            else None
        ),
        access_log=_log if args.access_log else None,
        wire=args.wire,
    )
    try:
        server = ModelServer(config)
    except ValueError as exc:  # the config's own validation
        raise ReproError(str(exc)) from None
    drained = _serve_until_signalled(
        server,
        lambda address: (
            f"serving energy-roofline models on {address} "
            f"(max_batch={config.max_batch}, "
            f"flush_window={config.flush_window * 1000:g} ms, "
            f"cache={config.cache_size} entries, "
            f"workers={config.workers}, wire={config.wire}); "
            "ctrl-c to drain and stop"
        ),
    )
    if not drained:  # pragma: no cover - signal-handler fallback
        return "interrupted; server stopped"
    stats = server.stats()
    return (
        f"served {stats['counters'].get('requests_total', 0)} requests "
        f"({stats['counters'].get('errors_total', 0)} errors, "
        f"cache hit ratio {stats['cache']['hit_ratio']:.1%}); "
        "drained cleanly"
    )


def _cmd_route(args: argparse.Namespace) -> str:
    from dataclasses import fields

    from repro.service import RouterConfig, RouterServer

    # Every route flag but --backend is named after its RouterConfig field.
    config = RouterConfig(**{
        field.name: getattr(args, field.name)
        for field in fields(RouterConfig) if hasattr(args, field.name)
    })
    router = RouterServer(args.backends, config)
    drained = _serve_until_signalled(
        router,
        lambda address: (
            f"routing energy-roofline requests on {address} over "
            f"{len(router.ring)} backends "
            f"({', '.join(router.ring.backends)}; "
            f"replication={config.replication}, vnodes={config.vnodes}, "
            f"wire={config.wire}); "
            "ctrl-c to drain and stop"
        ),
    )
    if not drained:  # pragma: no cover - signal-handler fallback
        return "interrupted; router stopped"
    stats = router.stats()
    counters = stats["counters"]
    per_backend = ", ".join(
        f"{name}: {info.get('requests_total', 0)}"
        for name, info in sorted(stats["backends"].items())
    )
    return (
        f"routed {counters.get('requests_total', 0)} requests "
        f"({counters.get('retries_total', 0)} retries, "
        f"{counters.get('failovers_total', 0)} failovers; "
        f"{per_backend}); drained cleanly"
    )


def _cmd_bench_serve(args: argparse.Namespace) -> str:
    from dataclasses import fields

    from repro.service import bench_serving

    config = _server_config(args)
    if args.target:
        # An external server was configured when it started, so a server
        # flag away from its default would be silently ignored.
        unset = _server_config(build_parser().parse_args(["bench-serve"]))
        changed = [
            field.name for field in fields(config)
            if getattr(config, field.name) != getattr(unset, field.name)
        ]
        if changed:
            raise ReproError(
                "bench-serve --target drives an external server, which "
                f"server flags cannot configure (set: {', '.join(changed)})"
            )
        config = None

    try:
        report = bench_serving(
            config,
            requests=args.requests,
            concurrency=args.concurrency,
            machines=args.machines,
            model=args.model,
            metric=args.metric,
            unique_intensities=not args.repeat_intensities,
            workload=args.workload,
            open_loop_rate=args.open_loop,
            timeout_ms=args.timeout_ms,
            wire=args.wire,
            router_backends=args.router_backends,
            replication=args.replication,
            target=args.target,
        )
    except ValueError as exc:  # config and load-parameter validation
        raise ReproError(str(exc)) from None
    return (
        f"{report.mode}-loop serving benchmark ({args.model}/{args.metric}, "
        f"workload: {args.workload}, machines: {', '.join(args.machines)})"
        f"\n\n{report.describe()}"
    )


def _git_changed_python_files(ref: str) -> set[Path] | None:
    """Python files touched relative to ``ref``, plus untracked ones.

    Returns ``None`` when git is unavailable or the ref does not
    resolve — the caller maps that to a usage error rather than
    silently linting nothing.
    """
    import subprocess

    def run(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True
        ).stdout

    try:
        root = Path(run("rev-parse", "--show-toplevel").strip())
        listed = run("diff", "--name-only", ref, "--").splitlines()
        listed += run(
            "ls-files", "--others", "--exclude-standard"
        ).splitlines()
    except (subprocess.CalledProcessError, FileNotFoundError, OSError):
        return None
    return {
        (root / line).resolve()
        for line in listed
        if line.endswith(".py") and (root / line).is_file()
    }


def _merged_report(file_report, project_report):
    from repro.lint import LintReport

    findings = sorted(
        [*file_report.findings, *project_report.findings],
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    suppressed = sorted(
        [*file_report.suppressed, *project_report.suppressed],
        key=lambda item: (item[0].path, item[0].line, item[0].rule),
    )
    return LintReport(
        findings=findings,
        suppressed=suppressed,
        files_checked=file_report.files_checked,
        rule_ids=sorted(
            {*file_report.rule_ids, *project_report.rule_ids}
        ),
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run replint; returns 0 clean, 1 findings, 2 usage error.

    Unlike the other subcommands this returns the exit code directly —
    lint distinguishes "violations found" (1) from "you asked for a rule
    that does not exist" (2), a contract the CI step and the pre-commit
    wrapper both rely on.  ``--project`` layers the whole-program pass
    (RL007–RL010) on top of the per-file rules and merges the reports;
    ``--changed REF`` restricts both passes to the files whose
    dependency closure intersects the diff against REF.
    """
    from repro.lint import (
        iter_python_files,
        module_relpath,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        run_project_lint,
    )
    from repro.lint.registry import (
        UnknownRuleError,
        all_rules,
        project_rules,
        resolve_rules,
    )

    if args.list_rules:
        rules = all_rules()
        width = max(len(rid) for rid in rules)
        for rid, rule in rules.items():
            scope = " [project]" if rule.scope == "project" else ""
            print(f"{rid:<{width}}  {rule.title}{scope}")
        return 0
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    paths = args.paths or [Path(__file__).resolve().parent]
    try:
        if args.rules is not None and not args.project:
            selected_project = project_rules(resolve_rules(args.rules))
            if selected_project:
                print(
                    "error: rule(s) "
                    f"{', '.join(selected_project)} are project-scope; "
                    "add --project to run them",
                    file=sys.stderr,
                )
                return 2
        file_targets: list[Path] | None = None
        changed_relpaths: set[str] | None = None
        if args.changed is not None:
            changed = _git_changed_python_files(args.changed)
            if changed is None:
                print(
                    f"error: cannot resolve git diff against "
                    f"{args.changed!r}",
                    file=sys.stderr,
                )
                return 2
            file_targets = [
                p for p in iter_python_files(paths) if p in changed
            ]
            changed_relpaths = {module_relpath(p) for p in file_targets}
        report = run_lint(
            file_targets if file_targets is not None else paths,
            rules=args.rules,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        if args.project:
            project_report = run_project_lint(
                paths,
                rules=args.rules,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                changed_only=changed_relpaths,
            )
            report = _merged_report(report, project_report)
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.clean else 1


def _cmd_perfreg(args: argparse.Namespace) -> int:
    """Run the perf-regression harness; returns the verdict exit code.

    Like ``lint``, this returns its exit code directly: ``run`` maps
    the worst verdict to 0 (pass) / 1 (warn) / 2 (fail), the contract
    the CI job keys on; usage errors (unknown check pattern, bad
    waiver line) also exit 2 with a one-line diagnostic.
    """
    from repro.perfreg import Tolerance, run_checks
    from repro.perfreg.baseline import DEFAULT_TOLERANCE, DEFAULT_WINDOW
    from repro.perfreg.harness import baseline_table
    from repro.perfreg.registry import UnknownCheckError, expand_checks
    from repro.perfreg.report import (
        render_baselines,
        render_result_json,
        render_result_text,
        render_trajectories_json,
        render_trajectories_text,
    )
    from repro.perfreg.trajectory import bench_path, load_trajectory
    from repro.perfreg.waivers import WaiverError

    window = args.window if args.window is not None else DEFAULT_WINDOW
    if window < 1:
        print(f"error: --window must be >= 1, got {window}", file=sys.stderr)
        return 2
    try:
        if args.perfreg_command == "run":
            warn_ratio = (
                units.percent(args.warn_pct)
                if args.warn_pct is not None
                else DEFAULT_TOLERANCE.warn_ratio
            )
            fail_ratio = (
                units.percent(args.fail_pct)
                if args.fail_pct is not None
                else DEFAULT_TOLERANCE.fail_ratio
            )
            result = run_checks(
                args.checks,
                root=args.root,
                reps=args.reps,
                warmup=args.warmup,
                tolerance=Tolerance(
                    warn_ratio=warn_ratio, fail_ratio=fail_ratio
                ),
                window=window,
                waivers_path=args.waivers,
                dry_run=args.dry_run,
            )
            print(
                render_result_json(result)
                if args.json
                else render_result_text(result)
            )
            return result.exit_code
        if args.perfreg_command == "report":
            areas = sorted(
                {inst.area for inst in expand_checks(args.checks)}
            )
            trajectories = [
                load_trajectory(bench_path(args.root, area))
                for area in areas
            ]
            trajectories = [t for t in trajectories if t.records or t.skipped]
            render = (
                render_trajectories_json
                if args.json
                else render_trajectories_text
            )
            print(render(trajectories, last=args.last))
            return 0
        baselines = baseline_table(
            args.checks, root=args.root, window=window
        )
        print(render_baselines(baselines, as_json=args.json))
        return 0
    except (UnknownCheckError, WaiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "perfreg":
        return _cmd_perfreg(args)
    try:
        if args.command == "machines":
            output = _cmd_machines()
        elif args.command == "describe":
            output = _cmd_describe(args.machine)
        elif args.command == "curves":
            output = _cmd_curves(args)
        elif args.command == "experiment":
            output = _cmd_experiment(args)
        elif args.command == "fit":
            output = _cmd_fit(args.csv)
        elif args.command == "tradeoff":
            output = _cmd_tradeoff(args)
        elif args.command == "partition":
            output = _cmd_partition(args)
        elif args.command == "dvfs":
            output = _cmd_dvfs(args)
        elif args.command == "scaling":
            output = _cmd_scaling(args)
        elif args.command == "app":
            output = _cmd_app(args)
        elif args.command == "serve":
            output = _cmd_serve(args)
        elif args.command == "route":
            output = _cmd_route(args)
        elif args.command == "bench-serve":
            output = _cmd_bench_serve(args)
        else:  # pragma: no cover - argparse enforces choices
            parser.error(f"unknown command {args.command}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Missing input files, unreadable paths, ports already in use:
        # environmental failures deserve one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(output)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not our error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
