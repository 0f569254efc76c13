"""End-to-end benchmark of the energy-roofline reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scalar-binary --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md``): ``scalar-binary``, ``heavy-pool``
and ``routed-cached`` drive the serving stack in closed loops;
``reproduce`` runs the paper's experiment registry.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced run with ``--trace 1``.
Timing figures are put on a reference host's scale by the host speed
measured alongside them (``hoststats.HostSpeed``).  The line before the
result (``perfbench-env {...}``) stamps the host the figures were taken
on, with the slowdown and the unscaled figures.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

#: When this interpreter reached the benchmark; set-up probes time the
#: import of the program (numpy included) from here.
STARTED = time.perf_counter()

import numpy as np  # noqa: E402

import hoststats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (inside the checkout).
OUT_DIR = ROOT / ".perfbench"
#: Set in the environment of traced worker pools; see the hook below.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE_DIR"

SUBPROCESS_TIMEOUT_S = 120.0
#: How often the host's speed is sampled while something is measured.
SPEED_INTERVAL_S = 0.02
#: Replies kept per phase for the output check, the same number from
#: each slot of the stream's mix.  Fixed in size and in mix, so the
#: memory the check holds (a curve reply is about a megabyte) depends
#: neither on throughput nor on the seed, and does not move
#: ``peak_rss_mb``.
MAX_CHECKED_REPLIES = 64
#: Registry sizes for ``reproduce``: dense enough that compute, not the
#: import, dominates a pass.
EXPERIMENT_SIZES: dict[str, dict[str, int]] = {
    "fig4": {"points_per_octave": 64},
    "fig5": {"points_per_octave": 64},
    "table4": {"points_per_octave": 64},
    "fmm": {"n_points": 64000},
}
#: The experiments that take about a second at EXPERIMENT_SIZES.  Every
#: other one lasts a few ms, where one run sees the host's moment-to-
#: moment drift, so each pass re-runs it and takes the median as its
#: latency.
LONG_EXPERIMENTS = ("fig4", "fmm")
LATENCY_REPEATS = 15
EXPERIMENT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fmm", "greenup",
    "table2", "table3", "table4",
)


#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
    "wall_s": "s",
}


def _per_layer() -> dict[str, str]:
    """Per-layer metrics of the traced run and their units (``--trace 1``)."""
    units: dict[str, str] = {}

    def add(prefix: str, **fields: str) -> None:
        for field, unit in fields.items():
            units[f"{prefix}.{field}"] = unit

    for span in ("wire.encode_frame", "wire.decode_body", "protocol.encode", "protocol.decode"):
        add(span, calls="count", self_us="us", bytes="B")
    add("server.handle_request", calls="count", self_us="us", refused="count", failed="count")
    add("batcher", **{"submit.calls": "count", "flush.calls": "count",
                      "mean_batch": "count", "wait_us": "us"})
    add("engine.eval_batch", calls="count", self_us="us", points="count")
    add("engine.curve", calls="count", self_us="us", points="count")
    add("engine.analysis", calls="count", self_us="us")
    add("engine.plan_cache", hit_ratio="ratio")
    add("workers", **{"submit.calls": "count", "submit.ms": "ms", "busy_s": "s",
                      "ring_jobs": "count", "ring_fallbacks": "count", "crashes": "count"})
    add("costmodel", **{"predict.calls": "count", "predict.self_us": "us",
                        "observe.calls": "count", "observe.self_us": "us",
                        "rel_error_pct_p50": "%"})
    add("admission", refused="count")
    add("cache", **{"get.calls": "count", "get.self_us": "us", "hit_ratio": "ratio",
                    "put.calls": "count"})
    add("router", **{"handle_request.calls": "count", "handle_request.self_us": "us",
                     "backend_call.calls": "count", "backend_call.ms": "ms",
                     "failovers": "count"})
    add("metrics.observe", calls="count", self_us="us")
    add("client.call", calls="count", self_us="us")
    add("setup", import_s="s", server_start_s="s", pool_ready_s="s", warm_s="s")
    for eid in EXPERIMENT_IDS:
        units[f"experiments.{eid}.ms"] = "ms"
    add("simulator.sweep", ms="ms")
    add("fmm.study", ms="ms")
    add("fitting", ms="ms")
    add("trace", p99_ms="ms", overhead_p50_ms="ms", overhead_cpu_ms_per_req="ms")
    return units


PER_LAYER = _per_layer()


def with_units(metrics: dict[str, float], table: dict[str, str]) -> dict[str, dict[str, Any]]:
    """Every metric of ``table`` in the result format; a layer that did
    not run in this workload reads 0."""
    unknown = set(metrics) - set(table)
    if unknown:
        raise KeyError(f"metrics missing from the table: {sorted(unknown)}")
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
    }


def _install_worker_trace() -> None:
    """Trace the engine inside a spawned worker shard.

    Worker processes start with the ``spawn`` method, which imports this
    file as ``__mp_main__`` in the child.  When the parent asked for a
    trace, the child wraps the engine and, as the process exits, writes
    its spans next to the parent's.  ``perf_counter_ns`` is the
    system-wide monotonic clock, so the parent can cut them to its
    traced window.
    """
    from multiprocessing import util


    tracer = tracing.Tracer()
    tracing.instrument_engine(tracer)
    out = Path(os.environ[WORKER_TRACE_ENV]) / f"worker-{os.getpid()}.json"

    def dump() -> None:
        out.write_text(json.dumps([s.record() for s in tracer.spans]))

    util.Finalize(None, dump, exitpriority=10)


if __name__ == "__mp_main__" and os.environ.get(WORKER_TRACE_ENV):
    _install_worker_trace()


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(ROOT),
    )


def _read_tagged(proc: subprocess.Popen, tag: str) -> dict[str, Any]:
    """Read the child's stdout up to its ``tag {json}`` line."""
    assert proc.stdout is not None
    for line in proc.stdout:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1 :])
    raise RuntimeError(f"child exited without a {tag} line")


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


# ----------------------------------------------------------------------
# Set-up probes: fresh interpreters timed to their first answerable request
# ----------------------------------------------------------------------


def probe_setup(workload: str, seed: int, count: int) -> tuple[list[float], dict[str, float]]:
    """Start ``count`` fresh interpreters, each building the workload's
    topology and answering one warm request per op kind.

    Returns the start-up times (from launch to ready, on the reference
    host's scale; see ``hoststats.HostSpeed``), the same times as read,
    and the median of each phase the probes report.
    """
    times: list[float] = []
    raw: list[float] = []
    phases: dict[str, list[float]] = {}
    for _ in range(count):
        # The probe (with any worker it starts) and the thread sampling
        # the host's speed share a CPU.
        with hoststats.one_cpu(), hoststats.HostSpeed().during() as speed:
            started = time.perf_counter()
            proc = _spawn(["--role", "probe", "--workload", workload, "--seed", str(seed)])
            try:
                ready = _read_tagged(proc, "READY")
                raw.append(time.perf_counter() - started)
                proc.stdout.read()  # let it stop its servers and exit
            finally:
                _finish(proc)
        slowdown = speed.slowdown()
        times.append(raw[-1] / slowdown)
        for key, value in ready.items():
            phases.setdefault(key, []).append(value / slowdown)
    return times, raw, {k: _median(v) for k, v in phases.items()}


def _stop_resource_tracker() -> None:
    """Stop the resource tracker process ``multiprocessing`` starts for
    the worker pool's shared memory, so it does not outlive the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def role_probe(workload: str, seed: int) -> None:
    import repro.service  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - STARTED

    async def run() -> None:
        topology = workloads.Topology(workload)
        try:
            await topology.start()
            await topology.warm(workloads.Stream(workload, seed))
            print("READY " + json.dumps({"import_s": import_s, **topology.timings}), flush=True)
        finally:
            await topology.stop()

    asyncio.run(run())
    _stop_resource_tracker()


# ----------------------------------------------------------------------
# Serving workloads: closed loop
# ----------------------------------------------------------------------


class Phase:
    """What one closed-loop phase measured."""

    def __init__(self, *, bulk: bool = False) -> None:
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.refused = 0
        self.errors: dict[str, int] = {}
        self.blocks: list[dict[str, float]] = []
        self.latencies: list[float] = []
        self.samples: list[tuple[dict[str, Any], dict[str, Any]]] = []
        self.start_ns = 0
        self.end_ns = 0
        self.steal = 0
        self.peak_rss_mb = 0.0
        self.speed = hoststats.HostSpeed(bulk=bulk)

    def summary(self, *, scaled: bool = True) -> dict[str, float]:
        """End-to-end timing metrics: medians over the blocks of the
        phase, each block on the reference host's scale (by the host
        speed sampled while it ran) unless ``scaled`` is false."""

        def median(key: str, rate: bool = False) -> float:
            factors = [b["slowdown"] if scaled else 1.0 for b in self.blocks]
            return _median([
                b[key] * f if rate else b[key] / f for b, f in zip(self.blocks, factors)
            ])

        return {
            "throughput_rps": median("rps", rate=True),
            "p50_ms": median("p50_ms"),
            "p90_ms": median("p90_ms"),
            "cpu_ms_per_req": median("cpu_ms_per_req"),
            "wall_s": median("wall_s"),
        }


async def closed_loop(
    client: Any,
    stream: Any,
    spec: Any,
    seconds: float,
    *,
    first_index: int,
    meter: Any,
    sample_mask: list[bool] | None = None,
) -> Phase:
    """``spec.in_flight`` callers, each sending its next request only
    after its previous reply, for ``seconds``."""
    from repro.exceptions import ServiceError


    phase = Phase(bulk=spec.bulk_calibration)
    clock = time.perf_counter
    block = spec.block
    state = {"next": first_index, "t0": clock(), "cpu0": meter.read(), "sample0": 0}
    window: list[float] = []
    kept = [0] * workloads.Stream.SLOTS
    deadline = clock() + seconds
    phase.start_ns = time.perf_counter_ns()
    steal0 = hoststats.steal_jiffies()

    def close_block(now: float) -> None:
        cpu = meter.read()
        wall = now - state["t0"]
        window.sort()
        samples = phase.speed.samples
        if len(samples) == state["sample0"]:
            phase.speed.sample()  # a block shorter than the sampling interval
        block_speed = hoststats.HostSpeed(samples[state["sample0"] :], bulk=phase.speed.bulk)
        phase.blocks.append(
            {
                "wall_s": wall,
                "rps": block / wall,
                "p50_ms": 1e3 * _percentile(window, 50),
                "p90_ms": 1e3 * _percentile(window, 90),
                "cpu_ms_per_req": 1e3 * (cpu - state["cpu0"]) / block,
                "slowdown": block_speed.slowdown(),
            }
        )
        window.clear()
        state["t0"], state["cpu0"], state["sample0"] = now, cpu, len(samples)

    async def caller() -> None:
        while clock() < deadline:
            index = state["next"]
            state["next"] = index + 1
            body = stream.body(index)
            phase.attempted += 1
            sent = clock()
            try:
                result = await client.call(body)
            except ServiceError as exc:
                if exc.code in tracing.REFUSAL_CODES:
                    phase.refused += 1
                else:
                    phase.failed += 1
                phase.errors[exc.code] = phase.errors.get(exc.code, 0) + 1
                continue
            except Exception as exc:  # noqa: BLE001 - counted as failed
                phase.failed += 1
                name = type(exc).__name__
                phase.errors[name] = phase.errors.get(name, 0) + 1
                continue
            now = clock()
            latency = now - sent
            window.append(latency)
            phase.latencies.append(latency)
            phase.completed += 1
            slot = index % workloads.Stream.SLOTS
            if (
                sample_mask is not None
                and sample_mask[index % len(sample_mask)]
                and kept[slot] < MAX_CHECKED_REPLIES // workloads.Stream.SLOTS
            ):
                kept[slot] += 1
                phase.samples.append((body, result))
            if phase.completed % block == 0:
                close_block(now)

    async def host_speed() -> None:
        # A calibration sample every 20 ms, in the thread the servers
        # run in, tracks the host's speed block by block.
        while clock() < deadline:
            await asyncio.sleep(SPEED_INTERVAL_S)
            phase.speed.sample()

    await asyncio.gather(host_speed(), *(caller() for _ in range(spec.in_flight)))
    phase.end_ns = time.perf_counter_ns()
    phase.steal = hoststats.steal_jiffies() - steal0
    phase.peak_rss_mb = meter.peak_rss_mb()
    return phase


async def check_replies(topology: Any, phase: Phase) -> list[str]:
    """Compare sampled replies with the in-process oracle (and, behind
    the router, with a direct server's reply)."""
    from repro._canon import canonical_json
    from repro.service.engine import EvalEngine


    engine = EvalEngine()
    problems = []
    for body, result in phase.samples:
        served = canonical_json(result)
        expected = canonical_json(workloads.oracle_result(engine, body))
        if served != expected:
            problems.append(f"oracle mismatch for {body.get('op')} on {body.get('machine')}")
        if topology.router is not None:
            direct = await topology.servers[0].handle_request(dict(body))
            if canonical_json(direct.get("result")) != served:
                problems.append(f"routed reply != direct reply for {body.get('op')}")
    return problems


def _layer_counts(topology: Any) -> dict[str, float]:
    """Counters the layers keep themselves (read before and after)."""
    counts = {
        "ring_jobs": 0.0, "ring_fallbacks": 0.0, "busy_s": 0.0, "crashes": 0.0,
        "refused": 0.0,
    }
    for stats in topology.stats():
        counts["refused"] += stats["counters"].get("overloaded_total", 0)
        workers = stats.get("workers")
        if workers:
            ring = workers.get("ring", {})
            counts["ring_jobs"] += ring.get("jobs", 0)
            counts["ring_fallbacks"] += ring.get("fallbacks", 0)
            for shard in workers["shards"]:
                counts["busy_s"] += shard["busy_seconds"]
                counts["crashes"] += shard["crashes"]
    if topology.router is not None:
        counts["failovers"] = topology.router.stats()["counters"].get("failovers_total", 0)
    return counts


async def serve_phase(
    workload: str, seed: int, seconds: float
) -> tuple[Phase, dict[str, float], dict[str, float], list[str]]:
    """Build the topology, warm it, measure one closed-loop phase, check
    the sampled replies, and tear down.

    Returns the phase, layer counters before and after it, and the
    problems the output checks found.
    """


    spec = workloads.WORKLOADS[workload]
    stream = workloads.Stream(workload, seed)
    rng = np.random.default_rng(seed + 1)
    sample_mask = (rng.random(workloads.Stream.SIZE) < 1.0 / spec.sample_every).tolist()
    topology = workloads.Topology(workload)
    meter = hoststats.CpuMeter()
    try:
        await topology.start()
        await topology.warm(stream)
        meter.track_children()
        # The servers, the client and any worker shard (with their
        # threads) all run on the CPU whose speed is sampled.
        with hoststats.one_cpu(meter.children):
            warm = await closed_loop(
                topology.client, stream, spec, spec.warmup_s,
                first_index=0, meter=meter,
            )
            before = _layer_counts(topology)
            phase = await closed_loop(
                topology.client, stream, spec, seconds,
                first_index=warm.attempted, meter=meter, sample_mask=sample_mask,
            )
        after = _layer_counts(topology)
        after["rel_error_pct_p50"] = _cost_error_p50(topology)
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        phase.refused += warm.refused
        problems = await check_replies(topology, phase)
    finally:
        await topology.stop()
    return phase, before, after, problems


def _cost_error_p50(topology: Any) -> float:
    for stats in topology.stats():
        hist = stats["histograms"].get("cost_rel_error_pct")
        if hist:
            return float(hist["p50"])
    return 0.0


def run_service(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    spec = workloads.WORKLOADS[args.workload]
    setup_times, setup_raw, setup_phases = probe_setup(args.workload, args.seed, spec.probes)
    info: dict[str, Any] = {"setup_samples_s": setup_raw}
    if not args.trace:
        phase, _before, _after, problems = asyncio.run(
            serve_phase(args.workload, args.seed, args.seconds)
        )
        metrics = {
            "setup_s": _median(setup_times),
            **phase.summary(),
            "peak_rss_mb": phase.peak_rss_mb,
        }
    else:
        metrics, problems, phase = run_service_traced(args, setup_phases)
    if not phase.samples:
        problems.append("no replies were sampled for the output check")
    info.update(
        requests=phase.completed, blocks=len(phase.blocks),
        slowdown=phase.speed.slowdown(), unscaled=phase.summary(scaled=False),
        block_rps=[round(b["rps"], 1) for b in phase.blocks],
        steal_jiffies=phase.steal, errors=phase.errors,
        checked_replies=len(phase.samples), problems=problems[:10],
    )
    failed = phase.failed + phase.refused + len(problems)
    result = {
        "correct": failed == 0,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def run_service_traced(
    args: argparse.Namespace, setup_phases: dict[str, float]
) -> tuple[dict[str, float], list[str], Phase]:
    """Untraced half, then a traced half on a fresh topology."""
    half = args.seconds / 2.0
    plain, _b, _a, problems = asyncio.run(serve_phase(args.workload, args.seed, half))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    worker_dir = OUT_DIR / f"workers-{args.workload}-{args.seed}-{os.getpid()}"
    worker_dir.mkdir(parents=True, exist_ok=True)
    os.environ[WORKER_TRACE_ENV] = str(worker_dir)
    try:
        traced, before, after, traced_problems = asyncio.run(
            serve_phase(args.workload, args.seed, half)
        )
    finally:
        del os.environ[WORKER_TRACE_ENV]
    records = tracer.window(traced.start_ns, traced.end_ns)
    for path in sorted(worker_dir.glob("worker-*.json")):
        records += [
            tuple(r) for r in json.loads(path.read_text())
            if traced.start_ns <= r[1] < traced.end_ns
        ]
        path.unlink()
    worker_dir.rmdir()
    tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", records)
    metrics = layer_metrics(tracing.aggregate(records), records, before, after)
    metrics.update({f"setup.{k}": v for k, v in setup_phases.items()})
    plain_summary, traced_summary = plain.summary(), traced.summary()
    metrics["trace.p99_ms"] = 1e3 * _percentile(traced.latencies, 99) / traced.speed.slowdown()
    metrics["trace.overhead_p50_ms"] = traced_summary["p50_ms"] - plain_summary["p50_ms"]
    metrics["trace.overhead_cpu_ms_per_req"] = (
        traced_summary["cpu_ms_per_req"] - plain_summary["cpu_ms_per_req"]
    )
    traced.failed += plain.failed
    traced.refused += plain.refused
    traced.attempted += plain.attempted
    traced.samples += plain.samples
    return metrics, problems + traced_problems, traced


def layer_metrics(
    agg: dict[str, dict[str, float]],
    records: list[tuple],
    before: dict[str, float],
    after: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced phase (zeros where a layer
    did not run)."""

    def calls(name: str) -> float:
        return float(agg.get(name, {}).get("calls", 0))

    def per_call(name: str, field: str, scale: float = 1.0) -> float:
        entry = agg.get(name)
        if not entry or not entry["calls"]:
            return 0.0
        return entry[field] / entry["calls"] * scale

    def statuses(code: float) -> float:
        return float(sum(1 for r in records if r[0] == "server.handle_request" and r[7] == code))

    out: dict[str, float] = {}
    for layer, name in (
        ("wire", "encode_frame"), ("wire", "decode_body"),
        ("protocol", "encode"), ("protocol", "decode"),
    ):
        span = f"{layer}.{name}"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_us"] = per_call(span, "self_ns", 1e-3)
        out[f"{span}.bytes"] = per_call(span, "value")
    out["server.handle_request.calls"] = calls("server.handle_request")
    out["server.handle_request.self_us"] = per_call("server.handle_request", "self_ns", 1e-3)
    out["server.handle_request.refused"] = statuses(1.0)
    out["server.handle_request.failed"] = statuses(2.0)
    out["batcher.submit.calls"] = calls("batcher.submit")
    out["batcher.flush.calls"] = calls("batcher.flush")
    out["batcher.mean_batch"] = (
        calls("batcher.submit") / calls("batcher.flush") if calls("batcher.flush") else 0.0
    )
    out["batcher.wait_us"] = per_call("batcher.wait", "wall_ns", 1e-3)
    for name, has_points in (("eval_batch", True), ("curve", True), ("analysis", False)):
        span = f"engine.{name}"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_us"] = per_call(span, "self_ns", 1e-3)
        if has_points:
            out[f"{span}.points"] = per_call(span, "value")
    out["engine.plan_cache.hit_ratio"] = (
        calls("engine.plan_cache.hit") / calls("engine.curve") if calls("engine.curve") else 0.0
    )
    out["workers.submit.calls"] = calls("workers.submit")
    out["workers.submit.ms"] = per_call("workers.submit", "wall_ns", 1e-6)
    out["workers.busy_s"] = after["busy_s"] - before["busy_s"]
    out["workers.ring_jobs"] = after["ring_jobs"] - before["ring_jobs"]
    out["workers.ring_fallbacks"] = after["ring_fallbacks"] - before["ring_fallbacks"]
    out["workers.crashes"] = after["crashes"] - before["crashes"]
    for name in ("predict", "observe"):
        span = f"costmodel.{name}"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_us"] = per_call(span, "self_ns", 1e-3)
    out["costmodel.rel_error_pct_p50"] = after.get("rel_error_pct_p50", 0.0)
    out["admission.refused"] = after["refused"] - before["refused"]
    out["cache.get.calls"] = calls("cache.get")
    out["cache.get.self_us"] = per_call("cache.get", "self_ns", 1e-3)
    out["cache.hit_ratio"] = per_call("cache.get", "value")
    out["cache.put.calls"] = calls("cache.put")
    out["router.handle_request.calls"] = calls("router.handle_request")
    out["router.handle_request.self_us"] = per_call("router.handle_request", "self_ns", 1e-3)
    out["router.backend_call.calls"] = calls("router.backend_call")
    out["router.backend_call.ms"] = per_call("router.backend_call", "wall_ns", 1e-6)
    out["router.failovers"] = after.get("failovers", 0) - before.get("failovers", 0)
    for span in ("metrics.observe", "client.call"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_us"] = per_call(span, "self_ns", 1e-3)
    return out


# ----------------------------------------------------------------------
# The reproduction workload: registry passes in fresh interpreters
# ----------------------------------------------------------------------


def role_pass(trace: bool) -> None:
    """One registry pass: import, then every experiment at EXPERIMENT_SIZES."""
    from repro.experiments import ExperimentRunner, list_experiments

    import_s = time.perf_counter() - STARTED
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        _instrument_reproduction(tracer)
    # Registry order in every pass: the first experiment pays the fresh
    # interpreter's first-call costs, and always the same one does.
    order = [eid for eid, _title in list_experiments()]
    runner = ExperimentRunner(jobs=1)
    ms: dict[str, float] = {}
    latency_ms: dict[str, float] = {}
    latency_slowdown: dict[str, float] = {}
    values: dict[str, dict[str, float]] = {}
    runs = 0
    cpu_s = 0.0
    mismatched: list[str] = []

    def timed(eid: str) -> tuple[float, float, dict[str, float]]:
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = runner.run(eid, **EXPERIMENT_SIZES.get(eid, {}))
        return 1e3 * (time.perf_counter() - t0), time.process_time() - cpu0, dict(result.values)

    for eid in order:
        short = eid not in LONG_EXPERIMENTS
        # A short experiment is scaled by the host's speed sampled right
        # before each of its runs: a few ms see the host's moment, which
        # the pass's mean speed does not describe.
        speed = hoststats.HostSpeed()
        if short:
            speed.sample()
        ms[eid], cpu, values[eid] = timed(eid)
        cpu_s += cpu
        runs += 1
        latencies = [ms[eid]]
        traced_spans = len(tracer.spans) if tracer is not None else 0
        for _ in range(LATENCY_REPEATS - 1 if short else 0):
            speed.sample()
            again, _cpu, again_values = timed(eid)
            latencies.append(again)
            runs += 1
            if again_values != values[eid]:
                mismatched.append(eid)
        if tracer is not None:
            # The per-layer times describe one pass of the registry.
            del tracer.spans[traced_spans:]
        latency_ms[eid] = statistics.median(latencies)
        if short:
            latency_slowdown[eid] = speed.slowdown()
    spans = {}
    if tracer is not None:
        records = [s.record() for s in tracer.spans]
        spans = {name: e["wall_ns"] / 1e6 for name, e in tracing.aggregate(records).items()}
    print(
        "PASS " + json.dumps({
            "ms": ms, "latency_ms": latency_ms, "latency_slowdown": latency_slowdown,
            "runs": runs, "mismatched": mismatched,
            "cpu_s": cpu_s, "values": values, "spans_ms": spans,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }),
        flush=True,
    )


def _instrument_reproduction(tracer: Any) -> None:
    """Spans around the simulator sweeps, the FMM study and the fits."""
    import repro.core.fitting as fitting
    from repro.fmm.estimator import FmmEnergyStudy
    from repro.microbench.sweep import IntensitySweep

    IntensitySweep.run = tracer.wrap("simulator.sweep", IntensitySweep.run)
    FmmEnergyStudy.run = tracer.wrap("fmm.study", FmmEnergyStudy.run)
    for name in ("fit_energy_coefficients", "fit_cache_energy"):
        tracing.patch_everywhere(fitting, name, tracer.wrap("fitting", getattr(fitting, name)))


def run_reproduce(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    passes: list[dict[str, Any]] = []
    setup_times: list[float] = []
    setup_raw: list[float] = []
    import_times: list[float] = []
    traced_flags: list[bool] = []
    deadline = time.perf_counter() + args.seconds
    steal0 = hoststats.steal_jiffies()
    while len(passes) < 3 or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        # The pass and the thread sampling the host's speed share a CPU.
        with hoststats.one_cpu(), hoststats.HostSpeed().during() as speed:
            started = time.perf_counter()
            proc = _spawn(["--role", "pass"] + (["--traced"] if traced else []))
            try:
                import_times.append(_read_tagged(proc, "READY")["import_s"])
                setup_times.append(time.perf_counter() - started)
                passes.append(_read_tagged(proc, "PASS"))
            finally:
                _finish(proc)
        # The whole pass (import and registry) on the reference host's scale.
        passes[-1]["slowdown"] = slowdown = speed.slowdown()
        import_times[-1] /= slowdown
        setup_raw.append(setup_times[-1])
        setup_times[-1] /= slowdown
        traced_flags.append(traced)
    steal = hoststats.steal_jiffies() - steal0
    problems: list[str] = []
    reference = json.dumps(passes[0]["values"], sort_keys=True)
    for p in passes:
        problems += workloads.check_paper_targets(p["values"])
        problems += [f"{eid}: a repeated run gave other values" for eid in p["mismatched"]]
        if json.dumps(p["values"], sort_keys=True) != reference:
            problems.append("experiment values differ between passes")

    def summary(selected: list[dict[str, Any]], scaled: bool = True) -> dict[str, float]:
        """Medians over passes; each pass on the reference host's scale
        unless ``scaled`` is false."""
        slow = [p["slowdown"] if scaled else 1.0 for p in selected]
        walls = [sum(p["ms"].values()) / 1e3 / s for p, s in zip(selected, slow)]
        # Latency percentiles are taken over the experiments, each at its
        # median pass; a short experiment carries its own slowdown.
        per_experiment = [
            _median([
                p["latency_ms"][eid] / (p["latency_slowdown"].get(eid, s) if scaled else 1.0)
                for p, s in zip(selected, slow)
            ])
            for eid in selected[0]["ms"]
        ]
        return {
            "throughput_rps": _median([len(p["ms"]) / w for p, w in zip(selected, walls)]),
            "p50_ms": _percentile(per_experiment, 50),
            "p90_ms": _percentile(per_experiment, 90),
            "cpu_ms_per_req": _median(
                [1e3 * p["cpu_s"] / len(p["ms"]) / s for p, s in zip(selected, slow)]
            ),
            "wall_s": _median(walls),
            "peak_rss_mb": _median([p["maxrss_kb"] / 1024.0 for p in selected]),
        }

    plain = [p for p, t in zip(passes, traced_flags) if not t]
    if not args.trace:
        metrics = {"setup_s": _median(setup_times), **summary(plain)}
    else:
        traced = [p for p, t in zip(passes, traced_flags) if t]
        metrics = {
            f"experiments.{eid}.ms": _median([p["ms"][eid] / p["slowdown"] for p in traced])
            for eid in EXPERIMENT_IDS
        }
        for span in ("simulator.sweep", "fmm.study", "fitting"):
            metrics[f"{span}.ms"] = _median(
                [p["spans_ms"].get(span, 0.0) / p["slowdown"] for p in traced]
            )
        metrics["setup.import_s"] = _median(import_times)
        plain_s, traced_s = summary(plain), summary(traced)
        metrics["trace.p99_ms"] = float(
            np.percentile([v / p["slowdown"] for p in traced for v in p["ms"].values()], 99)
        )
        metrics["trace.overhead_p50_ms"] = traced_s["p50_ms"] - plain_s["p50_ms"]
        metrics["trace.overhead_cpu_ms_per_req"] = (
            traced_s["cpu_ms_per_req"] - plain_s["cpu_ms_per_req"]
        )
    attempted = sum(p["runs"] for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    info = {
        "passes": len(passes), "setup_samples_s": setup_raw,
        "slowdown": [p["slowdown"] for p in passes], "unscaled": summary(plain, scaled=False),
        "steal_jiffies": steal, "problems": problems[:10],
    }
    return result, info


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="scalar-binary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "pass"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.role == "probe":
        role_probe(args.workload, args.seed)
        return 0
    if args.role == "pass":
        role_pass(args.traced)
        return 0
    if args.workload not in workloads.ALL_WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.ALL_WORKLOADS)}", file=sys.stderr)
        return 2
    # Import the program once before anything is timed, so compiling its
    # bytecode in a fresh checkout is never billed to a measurement.
    import repro.experiments  # noqa: F401
    import repro.service  # noqa: F401

    if args.workload == "reproduce":
        result, info = run_reproduce(args)
    else:
        result, info = run_service(args)
        _stop_resource_tracker()
    table = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = with_units(result["metrics"], table)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           **hoststats.environment(ROOT), **info}
    print("perfbench-env " + json.dumps(env, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
