"""Multi-node scale-out router over replicated model servers.

The tier above the in-process worker pool: a standalone asyncio process
that accepts client connections on the serving protocol (NDJSON and the
negotiated binary wire) and fans requests out over TCP to N replicated
:class:`~repro.service.server.ModelServer` instances.

* :mod:`~repro.service.router.ring` — consistent-hash placement with
  virtual nodes and per-key replication.
* :mod:`~repro.service.router.health` — probe- and data-path-driven
  backend up/down tracking.
* :mod:`~repro.service.router.router` — the
  :class:`~repro.service.router.router.RouterServer` itself: wire
  surface, replica failover, per-backend metrics.
"""

from repro.service.router.health import BackendHealth, HealthMonitor
from repro.service.router.ring import DEFAULT_VNODES, HashRing, hash_position
from repro.service.router.router import (
    BackendHandle,
    RouterConfig,
    RouterServer,
    parse_backend,
)

__all__ = [
    "BackendHandle",
    "BackendHealth",
    "DEFAULT_VNODES",
    "HashRing",
    "HealthMonitor",
    "RouterConfig",
    "RouterServer",
    "hash_position",
    "parse_backend",
]
