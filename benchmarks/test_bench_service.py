"""Serving benchmarks: micro-batching, the worker-pool tier, the
zero-copy wire path, the scale-out router's hop tax, and cost-model
admission under saturation.

Five acceptance bars for the serving subsystem:

* on a scalar-evaluation workload (the capped model's
  ``energy_per_flop`` — the heaviest analytic path the protocol
  serves), the micro-batched configuration must sustain at least 5×
  the throughput of the same server with batching disabled
  (``max_batch=1``), everything else equal;
* on the CPU-bound ``heavy`` workload (dense curves, large grids),
  four worker processes must sustain at least 2× the throughput of
  in-loop execution (``workers=0``) — this one needs ≥ 4 usable
  cores and skips itself elsewhere, exactly like a GPU test without
  a GPU;
* on the mixed workload over a real loopback TCP socket with two
  workers, the hot path (binary framing + compiled curve-plan cache)
  must cut p99 latency at least 5× against NDJSON framing with no
  plan cache — ≥ 2 usable cores, skips itself elsewhere;
* the consistent-hash router (two backends, replication 2, binary
  framing) must cost at most 5× the median latency of a direct single
  server on the same wire and workload — the extra loopback hop and
  envelope re-wrap are the whole tax.  The gate is on p50, not p99:
  the client, router, and backends all share one host here, so the
  routed tail measures scheduler contention, not the hop;
* at an offered load well past single-loop capacity (heavy workload,
  open loop, plan and response caches off), cost-model admission with
  deadline-aware batching must cut p99 latency — measured from the
  intended arrival instant, refused requests included — at least
  1.5× against depth admission at the identical seeded arrival
  schedule and request deadline.

Each gate is one measurement: the ``measure_*`` call runs once under
the benchmark timer, and its floor is asserted on that call's result.
All comparisons run through
:func:`repro.perfreg.checks.measure_micro_batching`,
:func:`repro.perfreg.checks.measure_worker_pool`,
:func:`repro.perfreg.checks.measure_wire_path`,
:func:`repro.perfreg.checks.measure_router_path`, and
:func:`repro.perfreg.checks.measure_cost_admission` — the same
measurement functions the ``service.micro_batching``,
``service.worker_pool``, ``service.wire_framing``,
``service.router``, and ``service.cost_admission`` perfreg checks
record trajectories with —
so a number that gates CI and a number in ``BENCH_service.json``
were produced the same way.  Sanity (zero errors, batching genuinely
on/off, worker topology) is asserted inside the measurement; the
response cache is off in every run so each measurement isolates the
execution path under test.  Bit-identity is locked down in
``tests/service/test_server.py`` and ``tests/service/test_workers.py``;
this module times the wins.
"""

from __future__ import annotations

import pytest

from repro.perfreg.checks import (
    MAX_ROUTER_P50_OVERHEAD,
    MIN_COST_ADMISSION_P99_SPEEDUP,
    MIN_MICROBATCH_SPEEDUP,
    MIN_WIRE_P99_SPEEDUP,
    MIN_WORKER_SPEEDUP,
    measure_cost_admission,
    measure_micro_batching,
    measure_router_path,
    measure_wire_path,
    measure_worker_pool,
    usable_cores,
)

REQUESTS = 4000
WORKER_REQUESTS = 1600
WIRE_REQUESTS = 1200
ROUTER_REQUESTS = 600
ADMISSION_REQUESTS = 600

USABLE_CORES = usable_cores()


def test_micro_batched_serving_is_5x_faster(
    benchmark, run_once, methodology
):
    values = run_once(
        measure_micro_batching, requests=REQUESTS, repeats=methodology.reps
    )
    batched, unbatched = values["batched"], values["unbatched"]

    speedup = values["speedup"]
    benchmark.extra_info.update(
        {
            "requests": REQUESTS,
            "batched_rps": round(batched.throughput),
            "unbatched_rps": round(unbatched.throughput),
            "batched_p50_ms": round(batched.p50_ms, 3),
            "batched_p99_ms": round(batched.p99_ms, 3),
            "unbatched_p50_ms": round(unbatched.p50_ms, 3),
            "unbatched_p99_ms": round(unbatched.p99_ms, 3),
            "mean_batch": round(batched.mean_batch, 1),
            "batch_size_counts": batched.batch_size_counts,
            "speedup": round(speedup, 1),
        }
    )
    print(
        f"\nbatched   : {batched.throughput:,.0f} req/s "
        f"(p50 {batched.p50_ms:.3f} ms, p99 {batched.p99_ms:.3f} ms, "
        f"mean batch {batched.mean_batch:.1f})"
    )
    print(f"batch sizes: {batched.batch_size_counts}")
    print(
        f"unbatched : {unbatched.throughput:,.0f} req/s "
        f"(p50 {unbatched.p50_ms:.3f} ms, p99 {unbatched.p99_ms:.3f} ms)"
    )
    print(f"micro-batching speedup: {speedup:.1f}x")
    assert speedup >= MIN_MICROBATCH_SPEEDUP


@pytest.mark.skipif(
    USABLE_CORES < 4,
    reason=f"worker-pool speedup needs >= 4 usable cores, "
    f"have {USABLE_CORES}",
)
def test_worker_pool_is_2x_faster_on_heavy_workload(
    benchmark, run_once, methodology
):
    values = run_once(
        measure_worker_pool,
        requests=WORKER_REQUESTS,
        repeats=methodology.reps,
    )
    pooled, inloop = values["pooled"], values["inloop"]

    speedup = values["speedup"]
    benchmark.extra_info.update(
        {
            "workload": "heavy",
            "requests": WORKER_REQUESTS,
            "pooled_rps": round(pooled.throughput),
            "inloop_rps": round(inloop.throughput),
            "pooled_p50_ms": round(pooled.p50_ms, 3),
            "pooled_p99_ms": round(pooled.p99_ms, 3),
            "inloop_p50_ms": round(inloop.p50_ms, 3),
            "inloop_p99_ms": round(inloop.p99_ms, 3),
            "usable_cores": USABLE_CORES,
            "speedup": round(speedup, 1),
        }
    )
    print(
        f"\nworkers=4 : {pooled.throughput:,.0f} req/s "
        f"(p50 {pooled.p50_ms:.3f} ms, p99 {pooled.p99_ms:.3f} ms)"
    )
    print(
        f"workers=0 : {inloop.throughput:,.0f} req/s "
        f"(p50 {inloop.p50_ms:.3f} ms, p99 {inloop.p99_ms:.3f} ms)"
    )
    print(f"worker-pool speedup: {speedup:.1f}x ({USABLE_CORES} cores)")
    assert speedup >= MIN_WORKER_SPEEDUP


@pytest.mark.skipif(
    USABLE_CORES < 2,
    reason=f"wire-path comparison runs two workers; needs >= 2 usable "
    f"cores, have {USABLE_CORES}",
)
def test_binary_wire_hot_path_cuts_p99_5x(benchmark, run_once, methodology):
    values = run_once(
        measure_wire_path, requests=WIRE_REQUESTS, repeats=methodology.reps
    )
    fast, slow = values["binary"], values["ndjson"]

    speedup = values["p99_speedup"]
    benchmark.extra_info.update(
        {
            "workload": "mixed",
            "requests": WIRE_REQUESTS,
            "binary_p50_ms": round(fast.p50_ms, 3),
            "binary_p99_ms": round(fast.p99_ms, 3),
            "ndjson_p50_ms": round(slow.p50_ms, 3),
            "ndjson_p99_ms": round(slow.p99_ms, 3),
            "binary_rps": round(fast.throughput),
            "ndjson_rps": round(slow.throughput),
            "binary_bytes": fast.bytes_sent + fast.bytes_received,
            "ndjson_bytes": slow.bytes_sent + slow.bytes_received,
            "bytes_ratio": round(values["bytes_ratio"], 2),
            "usable_cores": USABLE_CORES,
            "p99_speedup": round(speedup, 1),
        }
    )
    print(
        f"\nbinary+plan : {fast.throughput:,.0f} req/s "
        f"(p50 {fast.p50_ms:.3f} ms, p99 {fast.p99_ms:.3f} ms, "
        f"{fast.bytes_sent + fast.bytes_received:,} B on wire)"
    )
    print(
        f"ndjson      : {slow.throughput:,.0f} req/s "
        f"(p50 {slow.p50_ms:.3f} ms, p99 {slow.p99_ms:.3f} ms, "
        f"{slow.bytes_sent + slow.bytes_received:,} B on wire)"
    )
    print(
        f"hot path    : p99 {speedup:.1f}x lower, "
        f"{values['bytes_ratio']:.1f}x fewer bytes"
    )
    assert speedup >= MIN_WIRE_P99_SPEEDUP


def test_router_hop_tax_is_bounded(benchmark, run_once, methodology):
    values = run_once(
        measure_router_path,
        requests=ROUTER_REQUESTS,
        repeats=methodology.reps,
    )
    routed, direct = values["routed"], values["direct"]

    overhead = values["p50_overhead"]
    benchmark.extra_info.update(
        {
            "requests": ROUTER_REQUESTS,
            "backends": routed.router_backends,
            "replication": routed.replication,
            "routed_rps": round(routed.throughput),
            "direct_rps": round(direct.throughput),
            "routed_p50_ms": round(routed.p50_ms, 3),
            "routed_p99_ms": round(routed.p99_ms, 3),
            "direct_p50_ms": round(direct.p50_ms, 3),
            "direct_p99_ms": round(direct.p99_ms, 3),
            "p50_overhead": round(overhead, 2),
            "p99_overhead": round(values["p99_overhead"], 2),
        }
    )
    print(
        f"\nrouted : {routed.throughput:,.0f} req/s "
        f"(p50 {routed.p50_ms:.3f} ms, p99 {routed.p99_ms:.3f} ms, "
        f"{routed.router_backends} backends, "
        f"replication {routed.replication})"
    )
    print(
        f"direct : {direct.throughput:,.0f} req/s "
        f"(p50 {direct.p50_ms:.3f} ms, p99 {direct.p99_ms:.3f} ms)"
    )
    print(
        f"router hop tax: p50 {overhead:.2f}x "
        f"(p99 {values['p99_overhead']:.2f}x, untracked)"
    )
    assert overhead <= MAX_ROUTER_P50_OVERHEAD


def test_cost_admission_cuts_saturated_p99(benchmark, run_once, methodology):
    values = run_once(
        measure_cost_admission,
        requests=ADMISSION_REQUESTS,
        repeats=methodology.reps,
    )
    governed, baseline = values["governed"], values["baseline"]

    speedup = values["p99_speedup"]
    benchmark.extra_info.update(
        {
            "workload": "heavy",
            "requests": ADMISSION_REQUESTS,
            "governed_p50_ms": round(governed.p50_ms, 3),
            "governed_p99_ms": round(governed.p99_ms, 3),
            "baseline_p50_ms": round(baseline.p50_ms, 3),
            "baseline_p99_ms": round(baseline.p99_ms, 3),
            "refused": values["refused"],
            "p99_speedup": round(speedup, 1),
        }
    )
    print(
        f"\ncost-governed : p50 {governed.p50_ms:.3f} ms, "
        f"p99 {governed.p99_ms:.3f} ms "
        f"({values['refused']} refused fast and retriably)"
    )
    print(
        f"depth baseline: p50 {baseline.p50_ms:.3f} ms, "
        f"p99 {baseline.p99_ms:.3f} ms (tail past the deadline)"
    )
    print(f"cost admission: p99 {speedup:.1f}x lower at equal offered load")
    assert speedup >= MIN_COST_ADMISSION_P99_SPEEDUP
