"""Sharded worker-pool execution tier: model evaluation off the loop.

The asyncio server (:mod:`repro.service.server`) is a single event
loop; with ``workers=0`` every coalesced ``*_batch`` numpy call and
every curve/greenup analysis runs *on that loop*, so one fat batch
stalls accept/read/write for every connection.  This module hosts N
persistent worker **processes** — spawned once, each holding a warm
:class:`~repro.service.engine.EvalEngine` — and routes each job to a
shard chosen by a stable hash of its machine name, so per-shard engine
memos (resolved machines, model instances, bound batch methods) stay
hot and results are bit-identical and order-invariant regardless of
worker count: every worker runs the exact same IEEE operations the
in-loop engine would.

Topology and job protocol
-------------------------
One shard = one duplex :func:`multiprocessing.Pipe` + one worker
process + one single-thread executor on the parent side.  *All* pipe
I/O and process lifecycle for a shard happens on its executor thread,
which serialises access without any locks; the asyncio side only ever
awaits ``loop.run_in_executor`` futures, so the event loop never
blocks on IPC.

On the wire (the pipe), a job is ``(seq, kind, body)`` and a reply is
``(seq, "ok", body, compute_seconds)`` or ``(seq, "err", code,
message)``.  Bodies in both directions are pickled bytes that travel
one of two ways:

* ``("ring", length, stamp)`` — the bytes sit in the shard's
  preallocated shared-memory :class:`~repro.service.shmring.RingArena`
  (one per direction, one slot each), and only this addressing pair
  crosses the pipe.  One ``memcpy`` in, one zero-copy ``pickle.loads``
  out — no per-job segment churn, no chunked pipe copy.  A stamp
  mismatch on read means lost protocol state and is treated exactly
  like a worker crash.
* ``("shm", name, size)`` — a dedicated per-job shared-memory segment
  for bodies too big for the slot.  The receiver unlinks it after
  reading.  Segment names are deterministic —
  ``rs-<pool-token>-<shard>-<seq><direction>`` — so when a worker dies
  mid-job the respawn path can reclaim any segment the dead
  incarnation left behind.  Ring arenas are likewise parent-owned,
  epoch-named, and unlinked+recreated on respawn, so crashes never
  leak shared memory.

Failure and shutdown semantics
------------------------------
* **Bounded queues** — each shard admits at most ``queue_limit``
  concurrent jobs; excess submissions fail fast with ``overloaded``,
  feeding the server's existing admission-control story.
* **Crash detection** — a broken pipe or EOF mid-roundtrip means the
  worker died (OOM-killed, segfault, ``kill -9``).  The shard thread
  respawns a fresh worker immediately and the failed job gets a
  ``worker_crashed`` error marked ``retriable: true`` — the job may
  have executed, so the *client* decides whether to retry.
* **Graceful drain** — :meth:`WorkerPool.close` queues a shutdown
  sentinel behind each shard's in-flight jobs, then joins the process;
  with ``force=True`` it terminates instead.  Either way every worker
  is joined — no zombies.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import pickle
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context
from multiprocessing import resource_tracker, shared_memory
from typing import Any

from repro._heap import reserve_heap
from repro.exceptions import ServiceError
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    BAD_REQUEST,
    INTERNAL,
    OVERLOADED,
    WORKER_CRASHED,
)
from repro.service.shmring import SLOT_SIZE, RingArena, RingError
from repro.units import to_milliseconds

__all__ = ["WorkerPool"]

#: Distinguishes spill/ring names of pools that share a parent pid.
_POOL_COUNTER = itertools.count()

#: Worker-side operations reachable through an ``("op", ...)`` job —
#: exactly the engine's structured analyses.  ``eval_batch`` has its
#: own job kind; anything else is a protocol violation.
_ENGINE_OPS = frozenset({"curve", "balance", "tradeoff", "greenup", "describe"})

#: Ops whose results carry bulk numeric series.  The worker runs the
#: array-returning engine variant (first element) and the parent calls
#: ``.tolist()`` on the named fields — pickling an ndarray is a buffer
#: copy, ~10x cheaper than pickling the same values as a float list,
#: and ``.tolist()`` yields the identical floats either side of the
#: process boundary, so responses stay byte-identical.
_ARRAY_RESULT_FIELDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "curve": ("curve_arrays", ("intensities", "values")),
}


def _stable_shard(key: str, n: int) -> int:
    """crc32-based shard index: stable across processes and runs.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    which would make routing — and therefore which engine memos warm
    up — differ between identical runs; crc32 is deterministic.
    """
    return zlib.crc32(key.encode("utf-8")) % n


# ----------------------------------------------------------------------
# Body marshalling (the sender ships, the receiver unpacks)
# ----------------------------------------------------------------------


def _ship(data: bytes, ring: RingArena, name: str) -> tuple:
    """Ship pickled bytes: through the ring slot if they fit, else spill.

    A spilled body gets its own named segment, whose ownership
    transfers to the *receiver*: it unlinks the segment after reading —
    so the sender unregisters the segment from its own resource tracker
    (otherwise the tracker of a long-lived sender warns about every
    already-unlinked name at process exit; Python < 3.13 has no public
    ``track=False``).  ``name`` is deterministic so the pool can
    reclaim the segment if the receiver dies before reading.
    """
    pair = ring.write(data)
    if pair is not None:
        return ("ring", *pair)
    segment = shared_memory.SharedMemory(create=True, size=len(data), name=name)
    try:
        segment.buf[: len(data)] = data
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except (AttributeError, NotImplementedError):  # pragma: no cover
            pass  # platforms without a posix resource tracker
        return ("shm", segment.name, len(data))
    finally:
        segment.close()


def _unpack_body(body: tuple, ring: RingArena) -> Any:
    tag = body[0]
    if tag == "ring":
        _, length, stamp = body
        view = ring.read(length, stamp)  # raises RingError on mismatch
        try:
            return pickle.loads(view)
        finally:
            view.release()
    if tag == "shm":
        _, name, size = body
        segment = shared_memory.SharedMemory(name=name)
        try:
            return pickle.loads(bytes(segment.buf[:size]))
        finally:
            segment.close()
            segment.unlink()
    raise ServiceError(INTERNAL, f"malformed worker reply body: {body!r}")


def _reclaim_segment(name: str) -> bool:
    """Unlink one possibly-orphaned shared-memory segment by name.

    Returns whether a segment existed.  Used by the respawn path to
    collect spill segments a dead worker never read (or never sent).
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    segment.unlink()
    return True


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(
    conn: Any,
    spill_prefix: str,
    job_name: str,
    reply_name: str,
    plan_cache_size: int | None = None,
) -> None:
    """Entry point of one worker process: a warm engine behind a pipe.

    Runs until the pipe closes or a ``None`` shutdown sentinel arrives.
    Every exception is mapped to an error reply — the worker never dies
    of a bad request, only of external signals (and of ring-validation
    failure, which means protocol state is lost beyond repair: exiting
    lets the parent's crash path respawn it with fresh arenas).

    ``job_name``/``reply_name`` name the parent-created arenas this
    worker attaches to; ``spill_prefix`` names this worker's reply
    spill segments deterministically so the parent can reclaim them
    after a crash.
    """
    from repro.exceptions import ReproError
    from repro.service.engine import EvalEngine

    reserve_heap()  # each job's temporaries would otherwise re-fault
    engine = (
        EvalEngine()
        if plan_cache_size is None
        else EvalEngine(plan_cache_size=plan_cache_size)
    )
    job_ring = reply_ring = None
    # The rings MUST detach even when the loop exits abnormally (e.g.
    # a send on a torn pipe raising outside the guarded spots below) —
    # a leaked attachment keeps the segment alive past parent cleanup.
    try:
        job_ring = RingArena(job_name, create=False)
        reply_ring = RingArena(reply_name, create=False)
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            if job is None:
                break
            seq, kind, body = job
            started = time.perf_counter()
            try:
                payload = _unpack_body(body, job_ring)
            except RingError:
                break  # lost transport state; die so the parent respawns us
            except Exception as exc:  # noqa: BLE001 - the process boundary
                conn.send((seq, "err", INTERNAL, f"bad job payload: {exc}"))
                continue
            try:
                if kind == "eval_batch":
                    machine, model, metric, intensities = payload
                    result: Any = engine.eval_batch(
                        machine, model, metric, intensities
                    )
                elif kind == "ping":
                    result = None
                elif kind == "op":
                    op, kwargs = payload
                    if op not in _ENGINE_OPS:
                        raise ServiceError(
                            INTERNAL, f"op {op!r} is not worker-executable"
                        )
                    # Ops with a bulk-series result ship it as ndarrays
                    # (cheap buffer pickle); the parent restores the lists.
                    method = _ARRAY_RESULT_FIELDS.get(op, (op, ()))[0]
                    result = getattr(engine, method)(**kwargs)
                else:
                    raise ServiceError(INTERNAL, f"unknown job kind {kind!r}")
            except ServiceError as exc:
                reply = (seq, "err", exc.code, exc.message)
            except ReproError as exc:
                reply = (seq, "err", BAD_REQUEST, str(exc))
            except Exception as exc:  # noqa: BLE001 - the process boundary
                reply = (seq, "err", INTERNAL, f"{type(exc).__name__}: {exc}")
            else:
                compute = time.perf_counter() - started
                data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                reply_body = _ship(data, reply_ring, f"{spill_prefix}{seq:x}r")
                reply = (seq, "ok", reply_body, compute)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        # Nested so a raising close() cannot skip the next detach.
        try:
            if job_ring is not None:
                job_ring.close()
        finally:
            if reply_ring is not None:
                reply_ring.close()
            conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _Shard:
    """One worker process plus its parent-side serialisation thread."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "executor",
        "inflight",
        "jobs_total",
        "crashes",
        "busy_seconds",
        "next_seq",
        "epoch",
        "job_ring",
        "reply_ring",
        "ring_jobs",
        "ring_fallbacks",
    )

    def __init__(self, index: int):
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        self.inflight = 0
        self.jobs_total = 0
        self.crashes = 0
        self.busy_seconds = 0.0
        self.next_seq = 0
        # Ring-transport state: arenas are recreated each worker
        # incarnation (epoch), so a dead worker's stale view can never
        # alias a live arena.
        self.epoch = 0
        self.job_ring: RingArena | None = None
        self.reply_ring: RingArena | None = None
        self.ring_jobs = 0
        self.ring_fallbacks = 0


class WorkerCrashError(ServiceError):
    """A worker died mid-job; it has been respawned.

    The job may or may not have executed before the crash, so the
    reply is marked ``retriable: true`` and the *client* decides.
    """

    retriable = True

    def __init__(self, shard: int, message: str):
        super().__init__(
            WORKER_CRASHED,
            f"worker shard {shard} crashed mid-job ({message}); "
            "a fresh worker has been spawned — safe to retry",
        )


class WorkerPool:
    """N persistent engine processes behind stable-hash shard routing.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1; the server uses ``0`` to mean
        "no pool at all" and never constructs one).
    queue_limit:
        Per-shard bound on concurrently admitted jobs; excess
        submissions raise ``overloaded`` immediately.
    plan_cache_size:
        Forwarded to each worker's :class:`EvalEngine`; ``None`` keeps
        the engine default.
    metrics:
        Registry for per-shard queue depth gauges, job/crash counters,
        job/IPC-overhead timers, and ring job/fallback counters; a
        private one when omitted.
    """

    def __init__(
        self,
        workers: int,
        *,
        queue_limit: int = 256,
        plan_cache_size: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        self.plan_cache_size = plan_cache_size
        #: Unique token prefixing every shared-memory name this pool
        #: creates (ring arenas and spill segments) — what the crash
        #: path scans for and what the leak regression test asserts on.
        self.shm_token = f"{os.getpid():x}-{next(_POOL_COUNTER):x}"
        self._ctx = get_context("spawn")
        self._closing = False
        self._started = time.perf_counter()
        metrics = metrics or MetricsRegistry()
        self._shards = [_Shard(i) for i in range(workers)]
        for shard in self._shards:
            self._spawn(shard)
        self._jobs_total = metrics.counter("worker_jobs_total")
        self._crashes_total = metrics.counter("worker_crashes_total")
        self._rejected_total = metrics.counter("worker_rejected_total")
        self._job_ms = metrics.histogram("worker_job_ms")
        self._ipc_ms = metrics.histogram("worker_ipc_overhead_ms")
        self._depth_gauges = [
            metrics.gauge(f"worker_queue_depth_{i}") for i in range(workers)
        ]
        self._ring_jobs_total = metrics.counter("ring_jobs_total")
        self._ring_fallbacks_total = metrics.counter("ring_fallbacks_total")

    # ------------------------------------------------------------------
    # Process lifecycle (always on the shard's executor thread, except
    # the initial spawn from __init__ before any jobs exist)
    # ------------------------------------------------------------------

    def _spill_prefix(self, shard: _Shard) -> str:
        return f"rs-{self.shm_token}-{shard.index}-"

    def _spawn(self, shard: _Shard) -> None:
        base = f"rr-{self.shm_token}-{shard.index}-{shard.epoch:x}"
        shard.job_ring = RingArena(f"{base}j", create=True)
        shard.reply_ring = RingArena(f"{base}r", create=True)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._spill_prefix(shard),
                f"{base}j",
                f"{base}r",
                self.plan_cache_size,
            ),
            name=f"repro-worker-{shard.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own copy
        shard.process = process
        shard.conn = parent_conn

    def _drop_rings(self, shard: _Shard) -> None:
        """Unmap and unlink a shard's arenas (parent owns their names)."""
        for ring in (shard.job_ring, shard.reply_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        shard.job_ring = shard.reply_ring = None

    def _respawn(self, shard: _Shard, failed_seq: int | None = None) -> None:
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        if shard.process is not None:
            shard.process.join(timeout=1.0)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.kill()
                shard.process.join(timeout=1.0)
        shard.crashes += 1
        # Reclaim what the dead incarnation left behind: its arenas
        # (recreated under a fresh epoch below) and any spill segment
        # of the in-flight job — the job body it never read, or the
        # reply body it built but never handed over.
        self._drop_rings(shard)
        if failed_seq is not None:
            prefix = self._spill_prefix(shard)
            for suffix in ("j", "r"):
                _reclaim_segment(f"{prefix}{failed_seq:x}{suffix}")
        shard.epoch += 1
        self._spawn(shard)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Jobs admitted and not yet replied to, across all shards."""
        return sum(shard.inflight for shard in self._shards)

    async def ready(self) -> None:
        """Block until every shard answers a ping.

        Worker boot (interpreter start + numpy import + engine build)
        takes on the order of a second; callers that measure steady
        state — the load generator, benchmarks — await this first so
        cold-start is not billed to the first requests.
        """
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(
                    shard.executor, self._roundtrip, shard, "ping", None
                )
                for shard in self._shards
            )
        )

    async def submit(
        self, kind: str, payload: Any, key: str, *, listify: bool = True
    ) -> Any:
        """Run one job on the shard ``key`` routes to; returns its result.

        The server keys every job on its machine name, so all models of
        one machine share a shard and its warm machine resolutions.

        Raises :class:`~repro.exceptions.ServiceError` with the worker's
        error code on evaluation failure, ``overloaded`` when the
        shard's queue is full, and ``worker_crashed`` (retriable) when
        the worker dies mid-job.

        ``listify=False`` leaves bulk-series result fields (see
        ``_ARRAY_RESULT_FIELDS``) as ndarrays instead of ``.tolist()``
        lists — the binary wire ships them raw, so converting would be
        pure waste on that path.
        """
        if self._closing:
            raise ServiceError(INTERNAL, "worker pool is closed")
        shard = self._shards[_stable_shard(key, self.workers)]
        if shard.inflight >= self.queue_limit:
            self._rejected_total.inc()
            raise ServiceError(
                OVERLOADED,
                f"worker shard {shard.index} queue full "
                f"({self.queue_limit} jobs in flight); retry with backoff",
                retriable=True,
            )
        loop = asyncio.get_running_loop()
        shard.inflight += 1
        self._depth_gauges[shard.index].set(shard.inflight)
        submitted = time.perf_counter()
        try:
            result, compute, ringed = await loop.run_in_executor(
                shard.executor, self._roundtrip, shard, kind, payload
            )
        except WorkerCrashError:
            # Counted here, on the loop, so the metrics registry is
            # only ever touched from the event-loop thread.
            self._crashes_total.inc()
            raise
        finally:
            shard.inflight -= 1
            self._depth_gauges[shard.index].set(shard.inflight)
        elapsed = time.perf_counter() - submitted
        shard.jobs_total += 1
        shard.busy_seconds += compute
        self._jobs_total.inc()
        self._job_ms.observe(to_milliseconds(elapsed))
        # Queue wait + pickling + pipe/shm transfer: everything the job
        # cost beyond the worker's own compute time.
        self._ipc_ms.observe(to_milliseconds(max(0.0, elapsed - compute)))
        if ringed:
            self._ring_jobs_total.inc()
        else:
            self._ring_fallbacks_total.inc()
        if listify and kind == "op":
            fields = _ARRAY_RESULT_FIELDS.get(payload[0], (None, ()))[1]
            for field in fields:
                result[field] = result[field].tolist()
        return result

    def _roundtrip(
        self, shard: _Shard, kind: str, payload: Any
    ) -> tuple[Any, float, bool]:
        """Blocking send/recv on the shard thread; respawns on crash.

        Returns ``(result, compute_seconds, ringed)`` where ``ringed``
        says whether both body directions travelled through the ring
        arenas (``False`` = at least one body spilled).
        """
        seq = shard.next_seq
        shard.next_seq += 1
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        job_body = _ship(
            data, shard.job_ring, f"{self._spill_prefix(shard)}{seq:x}j"
        )
        # The ring stats count round trips: a fallback when either body
        # spilled.  A spilled job counts as it ships, so a worker that
        # dies holding it still shows in the stats.
        ringed_job = job_body[0] == "ring"
        if not ringed_job:
            shard.ring_fallbacks += 1
        try:
            shard.conn.send((seq, kind, job_body))
            reply = shard.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            if self._closing:
                raise ServiceError(
                    INTERNAL, "worker pool closed mid-job"
                ) from exc
            self._respawn(shard, seq)
            raise WorkerCrashError(
                shard.index, type(exc).__name__
            ) from exc
        if reply[0] != seq:  # pragma: no cover - protocol corruption
            self._respawn(shard, seq)
            raise WorkerCrashError(shard.index, "out-of-sequence reply")
        ringed = ringed_job and (reply[1] == "err" or reply[2][0] == "ring")
        if ringed:
            shard.ring_jobs += 1
        elif ringed_job:
            shard.ring_fallbacks += 1
        if reply[1] == "err":
            raise ServiceError(reply[2], reply[3])
        try:
            result = _unpack_body(reply[2], shard.reply_ring)
        except RingError as exc:
            self._respawn(shard, seq)
            raise WorkerCrashError(
                shard.index, f"reply ring validation failed: {exc}"
            ) from exc
        return result, reply[3], ringed

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def close(self, *, force: bool = False, timeout: float = 10.0) -> None:
        """Stop every worker and join it — no zombies either way.

        Graceful (default): a shutdown sentinel is queued *behind* each
        shard's in-flight jobs, so outstanding work completes and its
        replies flush before the worker exits.  ``force=True``
        terminates the processes instead (jobs in flight are lost; their
        waiters see crash errors marked non-retriable by ``_closing``).
        """
        if self._closing:
            return
        self._closing = True
        if force:
            for shard in self._shards:
                if shard.process is not None and shard.process.is_alive():
                    shard.process.terminate()
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(
                    shard.executor, self._shutdown_shard, shard, timeout
                )
                for shard in self._shards
            )
        )
        for shard in self._shards:
            shard.executor.shutdown(wait=False)
            self._drop_rings(shard)

    def _shutdown_shard(self, shard: _Shard, timeout: float) -> None:
        """Runs on the shard thread, queued behind any in-flight job."""
        try:
            shard.conn.send(None)
        except (BrokenPipeError, OSError):
            pass  # already dead or terminated
        shard.process.join(timeout=timeout)
        if shard.process.is_alive():  # pragma: no cover - stuck worker
            shard.process.kill()
            shard.process.join(timeout=timeout)
        try:
            shard.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready pool state for the ``stats`` operation."""
        uptime = time.perf_counter() - self._started
        shards = []
        for shard in self._shards:
            alive = shard.process is not None and shard.process.is_alive()
            shards.append(
                {
                    "shard": shard.index,
                    "pid": shard.process.pid if shard.process else None,
                    "alive": alive,
                    "inflight": shard.inflight,
                    "jobs": shard.jobs_total,
                    "crashes": shard.crashes,
                    "busy_seconds": round(shard.busy_seconds, 6),
                    "utilization": (
                        shard.busy_seconds / uptime if uptime > 0 else 0.0
                    ),
                }
            )
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "uptime_seconds": round(uptime, 6),
            "shards": shards,
            "ring": {
                "slot_size": SLOT_SIZE,
                "jobs": sum(s.ring_jobs for s in self._shards),
                "fallbacks": sum(s.ring_fallbacks for s in self._shards),
            },
        }
