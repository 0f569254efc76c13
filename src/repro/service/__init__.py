"""Async model-serving subsystem: the always-on face of the models.

Everywhere else in this repository the analytic models (eqs. 3–8, the
balance analysis of §II-D, the eq. 10 greenup thresholds) run as
one-shot batch computations.  This package runs them as a *service*: a
long-lived asyncio server speaking newline-delimited JSON, shaped like
an inference-serving stack —

    request → admission control → response cache → micro-batcher
            → vectorised engine → metrics / access log

Layers (one module each):

:mod:`~repro.service.protocol`
    Wire format, error codes, canonical cache keys.
:mod:`~repro.service.engine`
    Request ops mapped onto the core models' scalar/batch methods.
:mod:`~repro.service.batcher`
    Micro-batching of concurrent scalar requests into ``*_batch`` calls.
:mod:`~repro.service.cache`
    TTL+LRU response cache.
:mod:`~repro.service.metrics`
    Counters / gauges / histograms behind the ``stats`` request.
:mod:`~repro.service.costmodel`
    Analytic-seeded, EWMA-refined per-request service-time prediction
    (cost admission and deadline batching) — the roofline model
    pointed at its own serving tier.
:mod:`~repro.service.workers`
    Sharded worker-pool execution tier (``workers=N`` servers).
:mod:`~repro.service.server`
    The asyncio server: TCP + in-process, deadlines, graceful drain.
:mod:`~repro.service.client`
    Async (multiplexed), sync, and in-process clients, plus the
    :class:`~repro.service.client.RetryPolicy` failover helper.
:mod:`~repro.service.loadgen`
    Closed-loop load generator (the ``bench-serve`` CLI verb).
:mod:`~repro.service.frontend`
    The shared TCP wire surface (NDJSON + negotiated binary framing).
:mod:`~repro.service.router`
    Multi-node scale-out tier: consistent-hash router over replicated
    server instances (the ``route`` CLI verb).

Quickstart::

    server = ModelServer(ServerConfig(port=0))
    host, port = await server.start()
    client = await AsyncServiceClient.connect(host, port)
    value = await client.eval(
        "gtx580-double", "energy_per_flop", model="energy", intensity=2.0
    )
    await client.close()
    await server.stop()

See ``docs/SERVICE.md`` for the protocol and capacity-tuning notes.
"""

from repro.service.batcher import MicroBatcher
from repro.service.cache import TTLCache
from repro.service.costmodel import CostPredictor
from repro.service.client import (
    AsyncServiceClient,
    InProcessClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.engine import EVAL_METRICS, CURVE_KINDS, EvalEngine, MODELS
from repro.service.loadgen import (
    LoadReport,
    bench_serving,
    run_closed_loop,
    run_open_loop,
)
from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.router import (
    HashRing,
    HealthMonitor,
    RouterConfig,
    RouterServer,
)
from repro.service.server import ModelServer, ServerConfig
from repro.service.workers import WorkerPool

__all__ = [
    "AsyncServiceClient",
    "CostPredictor",
    "Counter",
    "CURVE_KINDS",
    "EVAL_METRICS",
    "EvalEngine",
    "Gauge",
    "HashRing",
    "HealthMonitor",
    "Histogram",
    "InProcessClient",
    "LoadReport",
    "MetricsRegistry",
    "MicroBatcher",
    "MODELS",
    "ModelServer",
    "RetryPolicy",
    "RouterConfig",
    "RouterServer",
    "ServerConfig",
    "ServiceClient",
    "TTLCache",
    "WorkerPool",
    "bench_serving",
    "run_closed_loop",
    "run_open_loop",
]
