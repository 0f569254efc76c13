"""Load generation for the serving stack (``bench-serve``).

Two arrival disciplines, one report shape:

* **Closed loop** (:func:`run_closed_loop`) — a fixed fleet of
  concurrent workers each issues one request, waits for the reply, and
  immediately issues the next.  Offered load adapts to service
  capacity, which is ideal for measuring *throughput ceilings* — but it
  hides queueing delay: a slow reply delays the *next* request instead
  of piling up behind it (the classic coordinated-omission blind spot).
* **Open loop** (:func:`run_open_loop`) — requests arrive on a seeded
  Poisson process at a fixed offered rate, *regardless* of how the
  server is doing, and every latency is measured from the request's
  **intended arrival time**.  Queueing delay therefore lands in the
  percentiles, which is what makes the worker-pool latency win (and
  the in-loop path's stalls) visible at all.

Request streams are deterministic (seeded log-uniform grids; arrival
times from one seeded exponential draw), so two runs with the same
parameters offer byte-identical workloads.  Two workload mixes:

* ``"scalar"`` — pure scalar ``eval`` requests: the micro-batching
  showcase.
* ``"mixed"`` — scalar evals, fat grid evals, high-resolution curves,
  and balance/tradeoff/greenup/describe analyses interleaved on a
  fixed 8-request cycle: a CPU-bound mix where per-request compute
  dwarfs dispatch overhead, which is the workload the sharded worker
  tier exists for.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, AsyncIterator, Sequence

import numpy as np

from repro.service.client import AsyncServiceClient, InProcessClient
from repro.service.router import RouterConfig, RouterServer
from repro.service.server import ModelServer, ServerConfig
from repro.units import to_milliseconds

__all__ = [
    "LoadReport",
    "TARGET_CONNECT_TIMEOUT",
    "arrival_schedule",
    "build_requests",
    "run_closed_loop",
    "run_open_loop",
    "bench_serving",
]

#: Seconds ``bench_serving(target=...)`` waits for the external server
#: before failing with a clear error instead of hanging on connect.
TARGET_CONNECT_TIMEOUT = 5.0

_DEFAULT_MACHINES = ("gtx580-double", "i7-950-double")

#: Seed of the default request stream (the paper's publication date).
_DEFAULT_SEED = 20130520

#: Curve kinds cycled through by the mixed workload.
_MIXED_CURVE_KINDS = ("roofline", "archline", "powerline", "capped-powerline")

#: Points per octave for mixed-workload curves — 10 octaves at 200/oct
#: is a ~2000-point series per request: real numpy work, small reply.
_MIXED_CURVE_PPO = 200

#: Grid size for mixed-workload vector evals.
_MIXED_GRID_POINTS = 1024

#: Heavy-workload sizes: ~20k-point curves (several ms of numpy per
#: request, replies past the shared-memory threshold) and an 8k grid.
_HEAVY_CURVE_PPO = 2000
_HEAVY_GRID_POINTS = 8192


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run against a server."""

    requests: int
    errors: int
    concurrency: int
    duration: float
    throughput: float
    p50_ms: float
    p99_ms: float
    mean_batch: float
    max_batch: int
    engine_calls: int
    cache_hit_ratio: float
    batch_size_counts: dict[str, int]
    mode: str = "closed"
    workload: str = "scalar"
    offered_rps: float = 0.0
    workers: int = 0
    #: Transport the requests travelled over: ``"inproc"`` (direct
    #: handler calls), or ``"ndjson"`` / ``"binary"`` for real TCP with
    #: that wire framing.
    wire: str = "inproc"
    #: Bytes on the wire over the whole run (zero for ``"inproc"``) —
    #: the framing A/B's second axis next to the latency distribution.
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Per-request latencies in issue order, milliseconds.  Percentiles
    #: compress the story; the raw series is what lets a caller see
    #: queueing *build* (open-loop backlog grows latency monotonically
    #: along the stream — tested in tests/service/test_loadgen_edge.py).
    latencies_ms: tuple[float, ...] = ()
    #: Number of replicated backend servers behind the router when the
    #: run drove the scale-out tier (zero = direct single-server run).
    router_backends: int = 0
    #: Per-key replication factor on the router's ring (zero = direct).
    replication: int = 0
    #: ``HOST:PORT`` of an external server/router the run targeted, if
    #: any — engine/cache statistics are unavailable for a remote
    #: process and read as zero.
    target: str = ""

    def describe(self) -> str:
        """Human-readable report block for the CLI."""
        lines = [
            f"requests    = {self.requests} "
            f"({self.errors} errors, concurrency {self.concurrency})",
            f"duration    = {self.duration:.3f} s",
            f"throughput  = {self.throughput:,.0f} req/s",
            f"latency     = p50 {self.p50_ms:.3f} ms, p99 {self.p99_ms:.3f} ms",
            f"engine      = {self.engine_calls} vectorised calls "
            f"(mean batch {self.mean_batch:.1f}, max {self.max_batch})",
            f"cache       = {self.cache_hit_ratio:.1%} hit ratio",
        ]
        if self.mode == "open":
            lines.insert(
                1,
                f"arrivals    = open loop (Poisson), offered "
                f"{self.offered_rps:,.0f} req/s; latency measured from "
                "intended arrival",
            )
        if self.wire != "inproc":
            total = self.bytes_sent + self.bytes_received
            per_request = total / self.requests if self.requests else 0.0
            lines.insert(
                1,
                f"wire        = {self.wire} framing over TCP "
                f"({self.bytes_sent:,} B sent, "
                f"{self.bytes_received:,} B received, "
                f"{per_request:,.0f} B/request)",
            )
        if self.router_backends:
            lines.insert(
                1,
                f"router      = {self.router_backends} backends, "
                f"replication {self.replication}",
            )
        if self.target:
            lines.insert(1, f"target      = {self.target} (external)")
        if self.workers:
            lines.append(f"workers     = {self.workers} shard processes")
        if self.batch_size_counts:
            histogram = ", ".join(
                f"{size}x{count}"
                for size, count in sorted(
                    self.batch_size_counts.items(), key=lambda kv: int(kv[0])
                )
            )
            lines.append(f"batch sizes = {histogram}")
        return "\n".join(lines)


def intensity_sequence(
    n: int, *, unique: bool = True, seed: int = _DEFAULT_SEED
) -> np.ndarray:
    """Deterministic log-uniform intensities over [2^-3, 2^6] flop/B."""
    rng = np.random.default_rng(seed)
    if unique:
        return 2.0 ** rng.uniform(-3.0, 6.0, n)
    pool = 2.0 ** rng.uniform(-3.0, 6.0, 16)
    return pool[rng.integers(0, pool.size, n)]


def build_requests(
    n: int,
    *,
    machines: Sequence[str] = _DEFAULT_MACHINES,
    model: str = "energy",
    metric: str = "energy_per_flop",
    unique_intensities: bool = True,
    workload: str = "scalar",
    seed: int = _DEFAULT_SEED,
    timeout_ms: float | None = None,
) -> list[dict[str, Any]]:
    """The deterministic request stream both loops drive.

    ``workload="scalar"`` yields pure scalar ``eval`` bodies (request
    *i* targets machine ``i % len(machines)``, intensity from the
    seeded grid — unchanged from the original closed-loop generator).
    ``workload="mixed"`` interleaves, on a fixed 8-request cycle:
    four scalar evals, one :data:`_MIXED_GRID_POINTS`-point grid eval,
    two :data:`_MIXED_CURVE_PPO`-per-octave curves, and one rotating
    structured analysis (balance / tradeoff / greenup / describe).
    ``workload="heavy"`` is the same cycle with 10x denser curves and
    an 8x larger grid — per-request model compute dominates dispatch
    and IPC cost, which is the regime the worker-pool benchmark gate
    needs (and its curve replies are large enough to travel via shared
    memory, exercising that path too).

    ``timeout_ms`` stamps the same per-request deadline onto every
    body (what deadline-aware batch sizing keys on).  It rides outside
    the semantic body — the response cache ignores it — so stamped and
    unstamped streams still produce identical result bytes.
    """
    if workload not in ("scalar", "mixed", "heavy"):
        raise ValueError(
            f"workload must be 'scalar', 'mixed', or 'heavy', "
            f"got {workload!r}"
        )
    curve_ppo = _HEAVY_CURVE_PPO if workload == "heavy" else _MIXED_CURVE_PPO
    grid_points = (
        _HEAVY_GRID_POINTS if workload == "heavy" else _MIXED_GRID_POINTS
    )
    grid = intensity_sequence(n, unique=unique_intensities, seed=seed)
    machine_cycle = list(machines)
    n_machines = len(machine_cycle)
    base_grid = intensity_sequence(
        grid_points - 1, unique=True, seed=seed + 1
    ).tolist()
    requests: list[dict[str, Any]] = []
    for i in range(n):
        if workload == "scalar":
            machine = machine_cycle[i % n_machines]
        else:
            # Rotate the machine assignment one step per 8-slot cycle;
            # without the offset, slot and machine index stay phase-
            # locked whenever len(machines) divides 8 and the expensive
            # slots (curves) pin themselves to the same machines —
            # i.e. the same worker shards — forever.
            machine = machine_cycle[(i + i // 8) % n_machines]
        x = float(grid[i])
        slot = 0 if workload == "scalar" else i % 8
        if workload == "scalar" or slot < 4:
            requests.append(
                {
                    "op": "eval",
                    "machine": machine,
                    "model": model,
                    "metric": metric,
                    "intensity": x,
                }
            )
        elif slot == 4:
            # Grid eval: the shared base grid prefixed with this
            # request's own intensity, so every body is distinct.
            requests.append(
                {
                    "op": "eval",
                    "machine": machine,
                    "model": model,
                    "metric": metric,
                    "intensities": [x] + base_grid,
                }
            )
        elif slot in (5, 6):
            requests.append(
                {
                    "op": "curve",
                    "machine": machine,
                    "kind": _MIXED_CURVE_KINDS[(i // 8 + slot) % 4],
                    "points_per_octave": curve_ppo,
                }
            )
        else:
            analysis = (i // 8) % 4
            if analysis == 0:
                requests.append({"op": "balance", "machine": machine})
            elif analysis == 1:
                requests.append(
                    {
                        "op": "tradeoff",
                        "machine": machine,
                        "intensity": x,
                        "f": 1.0 + (i % 5) * 0.1,
                        "m": 1.0 + (i % 7) * 0.5,
                    }
                )
            elif analysis == 2:
                requests.append(
                    {
                        "op": "greenup",
                        "machine": machine,
                        "intensity": x,
                        "m": 2.0 + (i % 4),
                    }
                )
            else:
                requests.append({"op": "describe", "machine": machine})
    if timeout_ms is not None:
        for body in requests:
            body["timeout_ms"] = timeout_ms
    return requests


def arrival_schedule(
    rate: float, requests: int, *, seed: int = _DEFAULT_SEED
) -> np.ndarray:
    """Cumulative Poisson arrival instants (seconds from run start).

    One seeded exponential draw (``np.random.default_rng`` — the RL003
    discipline), so the same ``(rate, requests, seed)`` triple yields a
    bit-identical schedule in every process on every platform; the
    cross-process determinism is pinned in
    ``tests/service/test_loadgen_edge.py``.  This is the schedule
    :func:`run_open_loop` fires — exposed so tests and capacity
    planning can inspect the offered load without running a server.
    """
    if requests < 0:
        raise ValueError(f"requests must be >= 0, got {requests}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, requests))


def _merge_server_stats(servers: Sequence[ModelServer]) -> dict[str, Any]:
    """Pipeline statistics summed/merged across server instances.

    One server reduces to its own stats; multiple (the replicated
    backends behind a router) merge the additive counters, weight the
    batch-size mean by per-server counts, and recompute the cache hit
    ratio from summed hits/misses rather than averaging ratios.  The
    keys are :class:`LoadReport` field names.
    """
    engine_calls = 0
    hits = 0
    misses = 0
    batch_count = 0
    batch_sum = 0.0
    batch_max = 0
    batch_values: dict[str, int] = {}
    workers = 0
    for server in servers:
        stats = server.stats()
        engine_calls += int(stats["engine_batch_calls"])
        cache = stats.get("cache", {})
        hits += int(cache.get("hits", 0))
        misses += int(cache.get("misses", 0))
        hist = stats["histograms"].get("batch_size", {})
        count = int(hist.get("count", 0))
        batch_count += count
        batch_sum += float(hist.get("mean", 0.0)) * count
        batch_max = max(batch_max, int(hist.get("max", 0) or 0))
        for size, tally in hist.get("values", {}).items():
            batch_values[size] = batch_values.get(size, 0) + int(tally)
        workers = max(workers, int(stats["config"].get("workers", 0)))
    lookups = hits + misses
    return {
        "engine_calls": engine_calls,
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "mean_batch": batch_sum / batch_count if batch_count else 0.0,
        "max_batch": batch_max,
        "batch_size_counts": batch_values,
        "workers": workers,
    }


def _finish_report(
    servers: Sequence[ModelServer],
    latencies: np.ndarray,
    *,
    errors: int,
    concurrency: int,
    duration: float,
    mode: str,
    workload: str,
    offered_rps: float,
) -> LoadReport:
    requests = latencies.size
    ordered = to_milliseconds(np.sort(latencies))
    return LoadReport(
        requests=requests,
        errors=errors,
        concurrency=concurrency,
        duration=duration,
        throughput=requests / duration if duration > 0 else 0.0,
        p50_ms=float(ordered[int(0.50 * (requests - 1))]) if requests else 0.0,
        p99_ms=float(ordered[int(0.99 * (requests - 1))]) if requests else 0.0,
        mode=mode,
        workload=workload,
        offered_rps=offered_rps,
        latencies_ms=tuple(to_milliseconds(latencies).tolist()),
        **_merge_server_stats(servers),
    )


async def _prepare(
    server: ModelServer | None,
    client: Any | None,
    backends: Sequence[ModelServer],
    machines: Sequence[str],
) -> tuple[Any, list[ModelServer]]:
    """The client a loop calls and the local servers it measures.

    Resolves machines and waits for worker pools on every local server
    in the measurement, so cold boot isn't billed to the run.  External
    targets (no local server objects) warm nothing.
    """
    servers = list(backends) or ([server] if server is not None else [])
    if client is None:
        if server is None:
            raise ValueError("server=None requires an explicit client")
        client = InProcessClient(server)
    for instance in servers:
        for machine in machines:
            instance.engine.machine(machine)  # fail fast on config errors
        if instance.pool is not None:
            # Measure steady state, not the ~0.4 s/worker cold boot.
            await instance.pool.ready()
    return client, servers


async def run_closed_loop(
    server: ModelServer | None,
    *,
    requests: int = 2000,
    concurrency: int = 64,
    machines: Sequence[str] = _DEFAULT_MACHINES,
    model: str = "energy",
    metric: str = "energy_per_flop",
    unique_intensities: bool = True,
    workload: str = "scalar",
    timeout_ms: float | None = None,
    client: Any | None = None,
    backends: Sequence[ModelServer] = (),
) -> LoadReport:
    """Drive ``requests`` evaluations through ``server``, closed-loop.

    The ``client`` defaults to an :class:`InProcessClient`; pass an
    :class:`~repro.service.client.AsyncServiceClient` to include the
    TCP+JSON wire in the measurement.  When the client fronts a router,
    pass the backend :class:`ModelServer` instances via ``backends``
    (and ``server=None``): pipeline statistics are then merged across
    all of them.  ``server=None`` with no ``backends`` (an external
    target) zeroes the pipeline statistics.
    """
    if requests < 0 or concurrency < 1:
        raise ValueError("requests must be >= 0 and concurrency >= 1")
    bodies = build_requests(
        requests,
        machines=machines,
        model=model,
        metric=metric,
        unique_intensities=unique_intensities,
        workload=workload,
        timeout_ms=timeout_ms,
    )
    client, servers = await _prepare(server, client, backends, machines)
    latencies = np.empty(requests, dtype=float)
    errors = 0
    next_index = 0
    call = client.call

    async def worker() -> None:
        nonlocal next_index, errors
        while True:
            index = next_index
            if index >= requests:
                return
            next_index = index + 1
            started = time.perf_counter()
            try:
                await call(bodies[index])
            except Exception:  # noqa: BLE001 - tallied, not raised
                errors += 1
            latencies[index] = time.perf_counter() - started

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    duration = time.perf_counter() - started
    return _finish_report(
        servers,
        latencies,
        errors=errors,
        concurrency=concurrency,
        duration=duration,
        mode="closed",
        workload=workload,
        offered_rps=0.0,
    )


async def run_open_loop(
    server: ModelServer | None,
    *,
    rate: float,
    requests: int = 2000,
    machines: Sequence[str] = _DEFAULT_MACHINES,
    model: str = "energy",
    metric: str = "energy_per_flop",
    unique_intensities: bool = True,
    workload: str = "scalar",
    seed: int = _DEFAULT_SEED,
    timeout_ms: float | None = None,
    client: Any | None = None,
    backends: Sequence[ModelServer] = (),
) -> LoadReport:
    """Drive ``requests`` evaluations at a fixed Poisson arrival rate.

    Inter-arrival gaps are one seeded exponential draw
    (``np.random.default_rng(seed)`` — the RL003 discipline), so the
    same parameters offer the identical arrival schedule every run.
    Each request fires at its scheduled instant whether or not earlier
    replies have come back, and its latency is measured from the
    **intended** arrival time — dispatch lateness and queueing delay
    count, which closed-loop generators structurally cannot see
    (coordinated omission).
    """
    arrivals = arrival_schedule(rate, requests, seed=seed)
    bodies = build_requests(
        requests,
        machines=machines,
        model=model,
        metric=metric,
        unique_intensities=unique_intensities,
        workload=workload,
        seed=seed,
        timeout_ms=timeout_ms,
    )
    client, servers = await _prepare(server, client, backends, machines)
    latencies = np.empty(requests, dtype=float)
    errors = 0
    call = client.call

    async def issue(index: int, target: float) -> None:
        nonlocal errors
        try:
            await call(bodies[index])
        except Exception:  # noqa: BLE001 - tallied, not raised
            errors += 1
        latencies[index] = time.perf_counter() - target

    base = time.perf_counter()
    tasks = []
    for index in range(requests):
        target = base + arrivals[index]
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(issue(index, target)))
    await asyncio.gather(*tasks)
    duration = time.perf_counter() - base
    return _finish_report(
        servers,
        latencies,
        errors=errors,
        concurrency=0,
        duration=duration,
        mode="open",
        workload=workload,
        offered_rps=(
            requests / float(arrivals[-1]) if requests else 0.0
        ),
    )


def bench_serving(
    config: ServerConfig | None = None,
    *,
    requests: int = 2000,
    concurrency: int = 64,
    machines: Sequence[str] = _DEFAULT_MACHINES,
    model: str = "energy",
    metric: str = "energy_per_flop",
    unique_intensities: bool = True,
    workload: str = "scalar",
    open_loop_rate: float | None = None,
    timeout_ms: float | None = None,
    wire: str = "inproc",
    router_backends: int = 0,
    replication: int = 1,
    target: str | None = None,
) -> LoadReport:
    """One synchronous end-to-end serving benchmark run.

    Builds the topology, runs the load — a closed loop by default, or
    a Poisson open loop at ``open_loop_rate`` requests/s — drains, and
    returns the report.  Local servers are built from ``config``;
    ``None`` means the defaults with the response cache off
    (``cache_size=0``), so the run isolates the execution path under
    test.  The admission
    queue is widened to at least ``2 * concurrency``.

    The topology follows from three arguments.  ``wire="inproc"``
    calls one server's handler directly; ``"ndjson"``/``"binary"``
    drive it over loopback TCP with that framing, and the report adds
    the bytes on the wire.  ``router_backends=N`` puts N servers behind
    a :class:`~repro.service.router.RouterServer` with the given
    ``replication``, speaking ``wire`` on the backend hop too, and
    merges their statistics.  ``target="HOST:PORT"``
    builds nothing and drives an external server or router: a
    ``config`` is then an error, engine/cache statistics read as zero,
    and an unreachable target fails within
    :data:`TARGET_CONNECT_TIMEOUT` seconds instead of hanging.
    """
    if wire not in ("inproc", "ndjson", "binary"):
        raise ValueError(
            f"wire must be 'inproc', 'ndjson', or 'binary', got {wire!r}"
        )
    if router_backends < 0:
        raise ValueError(
            f"router_backends must be >= 0, got {router_backends}"
        )
    if (router_backends > 0 or target is not None) and wire == "inproc":
        raise ValueError(
            "router/target runs need a TCP wire ('ndjson' or 'binary')"
        )
    if router_backends > 0 and target is not None:
        raise ValueError("router_backends and target are mutually exclusive")
    if target is not None:
        if config is not None:
            raise ValueError(
                "a server config configures a locally built server and "
                "cannot apply to an external --target"
            )
    else:
        config = config or ServerConfig(cache_size=0)
        config = replace(
            config, queue_limit=max(config.queue_limit, 2 * concurrency)
        )
    if open_loop_rate is None:
        loop = partial(run_closed_loop, concurrency=concurrency)
    else:
        loop = partial(run_open_loop, rate=open_loop_rate)
    drive = partial(
        loop,
        requests=requests,
        machines=machines,
        model=model,
        metric=metric,
        unique_intensities=unique_intensities,
        workload=workload,
        timeout_ms=timeout_ms,
    )

    async def _run() -> LoadReport:
        async with _topology(
            config,
            wire=wire,
            router_backends=router_backends,
            replication=replication,
            target=target,
        ) as (client, servers):
            server = servers[0] if client is None else None
            report = await drive(server, client=client, backends=servers)
            if client is None:
                return report
            return replace(
                report,
                wire=wire,
                bytes_sent=client.bytes_sent,
                bytes_received=client.bytes_received,
                router_backends=router_backends,
                replication=replication if router_backends else 0,
                target=target or "",
            )

    return asyncio.run(_run())


@asynccontextmanager
async def _topology(
    config: ServerConfig | None,
    *,
    wire: str,
    router_backends: int,
    replication: int,
    target: str | None,
) -> AsyncIterator[tuple[Any | None, list[ModelServer]]]:
    """The serving topology one :func:`bench_serving` run drives.

    Yields ``(client, servers)``: the client is ``None`` for an
    ``"inproc"`` run (the loops call the one server's handler
    directly), and ``servers`` are the local servers whose statistics
    the report merges — empty when ``target`` names an external
    server.  Starts backends, then the router (``router_backends >
    0``, offering its backends the client's ``wire``, so an NDJSON
    run is NDJSON on both hops), then the client; tears down in the
    reverse order.
    """
    servers: list[ModelServer] = []
    router: RouterServer | None = None
    client: AsyncServiceClient | None = None
    try:
        if target is not None:
            host, _, port = target.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    f"target must look like HOST:PORT, got {target!r}"
                )
            try:
                async with asyncio.timeout(TARGET_CONNECT_TIMEOUT):
                    client = await AsyncServiceClient.connect(
                        host, int(port), wire=wire
                    )
            except asyncio.TimeoutError:
                raise ConnectionError(
                    f"could not connect to target {target!r} within "
                    f"{TARGET_CONNECT_TIMEOUT:g}s — check the address is a "
                    f"running repro server/router and that the requested "
                    f"wire ({wire!r}) matches what it speaks"
                ) from None
            except OSError as exc:
                raise ConnectionError(
                    f"could not connect to target {target!r}: {exc}"
                ) from exc
        else:
            assert config is not None
            for _ in range(max(1, router_backends)):
                servers.append(ModelServer(config))
            if wire != "inproc":
                addresses = [await server.start() for server in servers]
                address = addresses[0]
                if router_backends:
                    router = RouterServer(
                        [f"{host}:{port}" for host, port in addresses],
                        RouterConfig(
                            replication=replication, backend_wire=wire
                        ),
                    )
                    address = await router.start()
                client = await AsyncServiceClient.connect(*address, wire=wire)
                if client.wire != wire:  # pragma: no cover - local server
                    raise RuntimeError(
                        f"negotiated {client.wire!r} framing, wanted {wire!r}"
                    )
        yield client, servers
    finally:
        if client is not None:
            await client.close()
        if router is not None:
            await router.stop()
        for server in servers:
            await server.stop()
