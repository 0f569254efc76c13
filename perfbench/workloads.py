"""The benchmark's workloads: seeded request streams, the serving
topology each one runs against, and the oracles its replies are checked
with.

The benchmark talks to the program only through ``ServerConfig`` /
``ModelServer``, ``RouterServer``, ``AsyncServiceClient``, the
``EvalEngine`` oracle and the experiment registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

MACHINES = ("gtx580-double", "gtx580-single", "i7-950-double", "i7-950-single")
CURVE_KINDS = ("roofline", "archline", "powerline", "capped-powerline")
ANALYSES = ("balance", "tradeoff", "greenup", "describe")


@dataclass(frozen=True)
class Workload:
    """One closed-loop serving workload.

    ``in_flight`` callers each await their reply before sending again.
    The measured phase is cut into blocks of ``block`` replies; the
    timing figures are medians over the blocks, scaled by the host's
    speed measured between them (``hoststats.HostSpeed``).
    ``sample_every`` is the mean spacing of the replies kept for the
    output check.  ``bulk_calibration`` samples the host's speed with
    the bulk samples of ``hoststats.calibration_ns``, for a workload
    whose worker shard shares the measured CPU with the servers and
    whose time goes to moving large replies.  Why each
    workload exists is recorded in ``BENCHMARK.json`` and the README.
    """

    name: str
    in_flight: int
    block: int
    warmup_s: float
    probes: int
    sample_every: int
    bulk_calibration: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scalar-binary", in_flight=64, block=512, warmup_s=1.0, probes=3,
            sample_every=64,
        ),
        Workload(
            "heavy-pool", in_flight=8, block=128, warmup_s=1.5, probes=3,
            sample_every=32, bulk_calibration=True,
        ),
        Workload(
            "routed-cached", in_flight=16, block=64, warmup_s=1.0, probes=3,
            sample_every=32,
        ),
    )
}

#: ``reproduce`` is not a serving workload; it runs the registry.
ALL_WORKLOADS = (*WORKLOADS, "reproduce")


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------


class Stream:
    """The seeded request stream of one workload; ``body(i)`` is request i.

    Bodies are built on demand from arrays drawn once from the seed, so
    the same seed always gives the same stream, however long the run.
    """

    SIZE = 1 << 16
    #: Request i fills slot ``i % SLOTS`` of the workload's mix.
    SLOTS = 8

    def __init__(self, workload: str, seed: int):
        rng = np.random.default_rng(seed)
        self.workload = workload
        self.machines = rng.integers(0, len(MACHINES), self.SIZE).tolist()
        if workload == "routed-cached":
            # A 16-intensity pool: keys repeat, so the cache is exercised.
            pool = 2.0 ** rng.uniform(-3.0, 6.0, 16)
            self.intensities = pool[rng.integers(0, 16, self.SIZE)].tolist()
        else:
            self.intensities = (2.0 ** rng.uniform(-3.0, 6.0, self.SIZE)).tolist()
        grid_points = 8192 if workload == "heavy-pool" else 1024
        self.base_grid = (2.0 ** rng.uniform(-3.0, 6.0, grid_points - 1)).tolist()
        self.curve_ppo = 2000 if workload == "heavy-pool" else 200
        self.timeout_ms = 30_000.0 if workload == "heavy-pool" else None

    def body(self, i: int) -> dict[str, Any]:
        j = i % self.SIZE
        machine = MACHINES[self.machines[j]]
        x = self.intensities[j]
        slot = 0 if self.workload == "scalar-binary" else i % self.SLOTS
        if slot < 4:
            body: dict[str, Any] = {
                "op": "eval", "machine": machine, "model": "energy",
                "metric": "energy_per_flop", "intensity": x,
            }
        elif slot == 4:
            body = {
                "op": "eval", "machine": machine, "model": "power",
                "metric": "power", "intensities": [x, *self.base_grid],
            }
        elif slot in (5, 6):
            body = {
                "op": "curve", "machine": machine,
                "kind": CURVE_KINDS[(i // self.SLOTS + slot) % 4],
                "points_per_octave": self.curve_ppo,
            }
        else:
            analysis = ANALYSES[(i // self.SLOTS) % 4]
            body = {"op": analysis, "machine": machine}
            if analysis == "tradeoff":
                body.update(intensity=x, f=1.0 + (i % 5) * 0.1, m=1.0 + (i % 7) * 0.5)
            elif analysis == "greenup":
                body.update(intensity=x, m=2.0 + (i % 4))
        if self.timeout_ms is not None:
            body["timeout_ms"] = self.timeout_ms
        return body

    def warm_bodies(self) -> list[dict[str, Any]]:
        """One request per op kind the stream sends."""
        if self.workload == "scalar-binary":
            return [self.body(0)]
        seen: dict[tuple, dict[str, Any]] = {}
        for i in range(64):
            body = self.body(i)
            kind = (body["op"], "intensities" in body)
            seen.setdefault(kind, body)
        return list(seen.values())


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------


class Topology:
    """The servers of one workload and the one client connection to them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.servers: list[Any] = []
        self.router: Any = None
        self.client: Any = None
        self.timings: dict[str, float] = {}

    async def start(self) -> None:
        from repro.service import (
            AsyncServiceClient,
            ModelServer,
            RouterConfig,
            RouterServer,
            ServerConfig,
        )

        # flush_window=0 batches what arrives in one loop iteration: with
        # the 1 ms timer, closed-loop runs locked into different batching
        # modes from run to run.  The 60 s work budget admits the whole
        # in-flight set, so cost admission runs but never refuses.
        started = time.perf_counter()
        if self.workload == "scalar-binary":
            configs = [
                ServerConfig(
                    workers=0, cache_size=0, admission="depth", flush_window=0.0
                )
            ]
        elif self.workload == "heavy-pool":
            configs = [
                ServerConfig(
                    workers=1, cache_size=0, admission="cost",
                    work_budget=60.0, deadline_batching=True,
                )
            ]
        else:
            configs = [ServerConfig(workers=0, flush_window=0.0)] * 2
        addresses = []
        for config in configs:
            server = ModelServer(config)
            self.servers.append(server)
            host, port = await server.start()
            addresses.append(f"{host}:{port}")
        wire = "binary"
        if self.workload == "routed-cached":
            self.router = RouterServer(
                addresses, RouterConfig(replication=2, backend_wire="ndjson")
            )
            host, port = await self.router.start()
            wire = "ndjson"
        self.timings["server_start_s"] = time.perf_counter() - started
        started = time.perf_counter()
        for server in self.servers:
            if server.pool is not None:
                await server.pool.ready()
        self.timings["pool_ready_s"] = time.perf_counter() - started
        self.client = await AsyncServiceClient.connect(host, port, wire=wire)
        if self.client.wire != wire:
            raise RuntimeError(f"negotiated {self.client.wire!r}, wanted {wire!r}")

    async def warm(self, stream: Stream) -> None:
        started = time.perf_counter()
        for body in stream.warm_bodies():
            await self.client.call(body)
        self.timings["warm_s"] = time.perf_counter() - started

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.router is not None:
            await self.router.stop()
        for server in self.servers:
            await server.stop()

    def stats(self) -> list[dict[str, Any]]:
        return [server.stats() for server in self.servers]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def oracle_result(engine: Any, body: dict[str, Any]) -> dict[str, Any]:
    """``EvalEngine``'s in-process answer for one request body."""
    op = body["op"]
    machine = body["machine"]
    if op == "eval":
        args = (machine, body.get("model", "time"), body["metric"])
        if "intensities" in body:
            return {"values": engine.eval_batch(*args, body["intensities"]).tolist()}
        return {"value": engine.eval_batch(*args, [body["intensity"]]).tolist()[0]}
    if op == "curve":
        options = ("lo", "hi", "points_per_octave", "normalized")
        return engine.curve(
            machine, body["kind"], **{k: body[k] for k in options if k in body}
        )
    if op == "tradeoff":
        return engine.tradeoff(machine, body["intensity"], body["f"], body["m"])
    if op == "greenup":
        return engine.greenup(machine, body["intensity"], body["m"])
    return getattr(engine, op)(machine)


#: Paper validation targets (DESIGN.md §5) and the experiment values
#: that must reproduce them: (experiment, value key, target, tolerance).
#: Balance points are quoted to two decimals in the paper, so they must
#: round to the target; the rest are relative tolerances.
PAPER_TARGETS = [
    *(
        ("fig4", f"{panel}_b_tau", target, 0.005)
        for panel, target in (
            ("gpu_double", 1.03), ("gpu_single", 8.22),
            ("cpu_double", 2.08), ("cpu_single", 4.16),
        )
    ),
    *(
        ("fig4", f"{panel}_b_eps", target, 0.005)
        for panel, target in (
            ("gpu_double", 2.42), ("gpu_single", 5.15),
            ("cpu_double", 1.19), ("cpu_single", 2.14),
        )
    ),
    *(
        ("fig4", f"{panel}_peak_gflops_per_joule", target, 0.05 * target)
        for panel, target in (
            ("gpu_double", 1.2), ("gpu_single", 5.7),
            ("cpu_double", 0.34), ("cpu_single", 0.66),
        )
    ),
    ("fmm", "eps_cache_fit_pj", 187.0, 0.05 * 187.0),
    ("fmm", "naive_mean_signed_error", -0.33, 0.05),
    ("fmm", "corrected_median_error", 0.04, 0.02),
]


def check_paper_targets(values: dict[str, dict[str, float]]) -> list[str]:
    """Mismatches of one registry pass against :data:`PAPER_TARGETS`."""
    problems = []
    for experiment, key, target, tolerance in PAPER_TARGETS:
        got = values.get(experiment, {}).get(key)
        if got is None or abs(got - target) > tolerance:
            problems.append(f"{experiment}.{key} = {got!r}, paper {target} ± {tolerance:g}")
    return problems
