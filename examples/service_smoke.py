#!/usr/bin/env python
"""Serving-stack smoke test: a server, two transports, ~100 requests.

This script is the CI gate for the model-serving subsystem
(:mod:`repro.service`).  It starts a real TCP server, drives a mixed
workload against two catalog machines through both the in-process and
the multiplexing TCP client, and asserts the properties the subsystem
exists to provide:

* every request succeeds (and scalar answers are **bit-identical** to
  direct model calls — serving never changes a value);
* concurrent scalar requests actually micro-batch (fewer engine calls
  than requests);
* the response cache participates (hit ratio > 0 on repeated bodies);
* shutdown drains cleanly.

With ``--workers N`` the same workload and the same assertions run
against the sharded worker-pool execution tier — every value above,
including the micro-batching bound and the cache behavior, must be
indistinguishable from the in-loop path.  With ``--wire binary`` the
TCP client negotiates the binary framing and the same assertions run
over it — bit-identity across framings is the wire-format contract.

With ``--router`` the smoke instead stands up two backend servers and
the consistent-hash router in front of them, then drives one NDJSON
and one binary client through the router *concurrently*: every value
still bit-identical to direct model calls, each machine's requests
pinned to one backend, zero errors, zero failovers, clean drain.

With ``--admission cost`` the server runs the roofline cost model in
the request path — predicted-work admission (generous, so nothing is
refused) plus deadline-aware batch sizing — and every assertion above
must still hold bit-for-bit: the cost loop may move batch boundaries,
never values.  After the drain the held (count, seconds) vector must
be back at zero.

Run:  python examples/service_smoke.py [--workers N]
          [--wire ndjson|binary] [--router] [--admission depth|cost]
"""

from __future__ import annotations

import argparse
import asyncio
import math

from repro.core.energy_model import EnergyModel
from repro.core.powercap import CappedModel
from repro.machines.catalog import get_machine
from repro.service import (
    AsyncServiceClient,
    InProcessClient,
    ModelServer,
    RouterConfig,
    RouterServer,
    ServerConfig,
)

MACHINES = ("gtx580-double", "i7-950-double")
GRID = [2.0 ** (0.25 * k - 3.0) for k in range(32)]  # 1/8 .. ~32 flop/B


async def drive(server: ModelServer, wire: str) -> None:
    host, port = await server.start()
    print(f"server up on {host}:{port}")

    # --- scalar evals over TCP: concurrent, micro-batched, bit-exact ---
    async with await AsyncServiceClient.connect(host, port, wire=wire) as tcp:
        assert tcp.wire == wire, f"negotiated {tcp.wire!r}, wanted {wire!r}"
        print(f"TCP client negotiated {tcp.wire} framing")
        values = await asyncio.gather(*(
            tcp.eval(machine, "energy_per_flop", model="energy", intensity=x)
            for machine in MACHINES for x in GRID
        ))
        n_scalar = len(MACHINES) * len(GRID)
        reference = [
            EnergyModel(get_machine(machine)).energy_per_flop(x)
            for machine in MACHINES for x in GRID
        ]
        assert values == reference, "served values drifted from the models"
        print(f"{n_scalar} scalar evals over TCP: bit-identical to EnergyModel")

        calls = server.engine.batch_calls
        bound = len(MACHINES) * math.ceil(
            len(GRID) / server.config.max_batch
        )
        assert calls <= bound, f"{calls} engine calls > bound {bound}"
        print(f"micro-batching: {n_scalar} requests -> {calls} engine calls")

        # --- structured ops + repeated bodies to exercise the cache ---
        for machine in MACHINES:
            balance = await tcp.balance(machine)
            again = await tcp.balance(machine)  # same body: cache hit
            assert balance == again
            curve = await tcp.curve(machine, "roofline", lo=0.5, hi=64.0)
            assert len(curve["values"]) == len(curve["intensities"])
            described = await tcp.describe(machine)
            assert described["b_eps"] > 0
        greenup = await tcp.greenup(MACHINES[0], intensity=0.5, m=4.0)
        assert greenup["threshold_closed"] > 1.0
        for m in (2.0, 4.0, 8.0):
            tradeoff = await tcp.tradeoff(
                MACHINES[1], intensity=0.5, f=1.2, m=m
            )
            assert tradeoff["greenup"] > 0
        catalog = await tcp.machines()
        assert {entry["key"] for entry in catalog} >= set(MACHINES)

        # A second pass over the same scalar bodies: pure cache traffic.
        repeat = await asyncio.gather(*(
            tcp.eval(machine, "energy_per_flop", model="energy", intensity=x)
            for machine in MACHINES for x in GRID[:12]
        ))
        assert repeat == [
            reference[i * len(GRID) + j]
            for i in range(len(MACHINES)) for j in range(12)
        ]
        print("repeat pass served from the response cache")

    # --- the in-process transport shares the same pipeline ---
    local = InProcessClient(server)
    capped = await local.eval(
        MACHINES[0], "energy_per_flop", model="capped", intensity=2.0
    )
    direct = CappedModel(get_machine(MACHINES[0])).energy_per_flop(2.0)
    assert capped == direct
    grid_values = await local.eval(
        MACHINES[1], "energy_per_flop", model="energy", intensities=GRID[:8]
    )
    assert grid_values == reference[len(GRID):len(GRID) + 8]
    print("in-process client: capped + grid evals bit-identical")

    # --- the numbers the operator would look at ---
    stats = await local.stats()
    requests_total = stats["counters"]["requests_total"]
    hit_ratio = stats["cache"]["hit_ratio"]
    errors = stats["counters"].get("errors_total", 0)
    batch_hist = stats["histograms"]["batch_size"]
    print(
        f"served {requests_total} requests, {errors} errors, "
        f"cache hit ratio {hit_ratio:.1%}"
    )
    print(
        f"batch sizes: mean {batch_hist['mean']:.1f}, "
        f"max {batch_hist['max']:.0f}, distribution {batch_hist['values']}"
    )
    print(
        f"latency: p50 {stats['histograms']['request_latency_ms']['p50']:.3f} ms, "
        f"p99 {stats['histograms']['request_latency_ms']['p99']:.3f} ms"
    )
    assert requests_total >= 100, "smoke must drive a real workload"
    assert errors == 0, "every request must succeed"
    assert hit_ratio > 0, "repeated bodies must hit the response cache"
    wire_counter = f"wire_{wire}_connections_total"
    assert stats["counters"][wire_counter] >= 1, (
        f"{wire_counter} must count the smoke's TCP connection"
    )


async def drive_router() -> None:
    """Two backends, the router in front, mixed-framing clients."""
    backends, addresses = [], []
    for _ in range(2):
        backend = ModelServer(ServerConfig(port=0, max_batch=16))
        host, port = await backend.start()
        backends.append(backend)
        addresses.append(f"{host}:{port}")
    router = RouterServer(addresses, RouterConfig(replication=2))
    rhost, rport = await router.start()
    print(f"router up on {rhost}:{rport} over {', '.join(addresses)}")

    reference = {
        machine: [
            EnergyModel(get_machine(machine)).energy_per_flop(x)
            for x in GRID
        ]
        for machine in MACHINES
    }

    async def one_client(wire: str, machine: str) -> None:
        async with await AsyncServiceClient.connect(
            rhost, rport, wire=wire
        ) as client:
            assert client.wire == wire, (
                f"negotiated {client.wire!r}, wanted {wire!r}"
            )
            values = await asyncio.gather(*(
                client.eval(
                    machine, "energy_per_flop", model="energy", intensity=x
                )
                for x in GRID
            ))
            assert values == reference[machine], (
                f"routed values drifted from the models ({wire})"
            )
            balance = await client.balance(machine)
            assert balance == await client.balance(machine)
            curve = await client.curve(machine, "roofline", lo=0.5, hi=64.0)
            assert len(curve["values"]) == len(curve["intensities"])

    # One NDJSON and one binary client, concurrently, per machine —
    # framing and topology must both be invisible in the values.
    await asyncio.gather(*(
        one_client(wire, machine)
        for machine, wire in zip(MACHINES, ("ndjson", "binary"))
    ))
    await asyncio.gather(*(
        one_client(wire, machine)
        for machine, wire in zip(MACHINES, ("binary", "ndjson"))
    ))
    n_requests = 2 * len(MACHINES) * (len(GRID) + 3)
    print(
        f"{n_requests} requests through the router over mixed "
        "ndjson/binary clients: bit-identical to EnergyModel"
    )

    stats = router.stats()
    counters = stats["counters"]
    assert counters["requests_total"] >= n_requests
    assert counters.get("failovers_total", 0) == 0, (
        "healthy ring must not fail over"
    )
    served = {
        backend: info.get("requests_total", 0)
        for backend, info in stats["backends"].items()
    }
    # Each machine routes to exactly one backend; with two machines on
    # two backends both sides of the ring should have seen traffic
    # (probe pings at minimum, real spread in practice).
    assert all(count > 0 for count in served.values()), served
    print(f"per-backend requests: {served}")

    await router.stop()
    for backend in backends:
        await backend.stop()
        assert backend.batcher.pending_requests == 0
    print("router and backends drained cleanly; router smoke passed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for model evaluation; 0 runs in-loop",
    )
    parser.add_argument(
        "--wire", choices=("ndjson", "binary"), default="ndjson",
        help="framing the TCP client negotiates (default: ndjson)",
    )
    parser.add_argument(
        "--router", action="store_true",
        help="smoke the scale-out router over two backends instead",
    )
    parser.add_argument(
        "--admission", choices=("depth", "cost"), default="depth",
        help="admission policy under test; cost runs the roofline "
        "predictor in the request path with a generous budget",
    )
    args = parser.parse_args()

    if args.router:
        asyncio.run(drive_router())
        return

    cost_kwargs = (
        # A budget far above anything ~100 requests can queue: every
        # admission dimension runs on every request, and none refuses.
        dict(admission="cost", work_budget=60.0, deadline_batching=True)
        if args.admission == "cost"
        else {}
    )

    async def scenario() -> None:
        server = ModelServer(
            ServerConfig(
                port=0, max_batch=16, workers=args.workers, **cost_kwargs
            )
        )
        workers = (
            [shard.process for shard in server.pool._shards]
            if server.pool is not None
            else []
        )
        if workers:
            await server.pool.ready()
            print(f"worker pool up: {len(workers)} shard processes")
        try:
            await drive(server, args.wire)
        finally:
            await server.stop()
        if args.admission == "cost":
            stats = server.stats()
            cost = stats["cost"]
            admission = stats["admission"]
            accepted = stats["counters"]["admission_accepted_total"]
            rejected = stats["counters"]["admission_rejected_total"]
            assert cost["predictions"] > 0, "cost model never consulted"
            assert cost["observations"] > 0, "no wall times fed the fit"
            assert accepted > 0 and rejected == 0, (accepted, rejected)
            # Drained: the whole held vector is back at zero.
            assert stats["inflight"] == 0, stats["inflight"]
            assert admission["predicted_work_s"] == 0, admission
            print(
                f"cost admission: {accepted} admitted, 0 refused, "
                f"{cost['predictions']} predictions over {cost['keys']} "
                f"fitted keys, {cost['observations']} observations"
            )
        assert server.batcher.pending_requests == 0
        for process in workers:
            assert not process.is_alive(), "worker left running after stop"
            assert process.exitcode == 0, "worker did not exit cleanly"
        if workers:
            print(f"{len(workers)} workers joined cleanly")
        print("drained cleanly; smoke test passed")

    asyncio.run(scenario())


if __name__ == "__main__":
    main()
