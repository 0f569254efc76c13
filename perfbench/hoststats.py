"""Host-side readings the benchmark takes: CPU time, peak memory and CPU
steal of this process and its children (from ``/proc``), the host's
speed against a fixed calibration sample, and the environment stamp
printed beside every result.

Only the standard library and numpy are used, so the module can be
imported before (and without) the program under test.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import platform
import resource
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_pids() -> list[int]:
    """Direct children of this process, from /proc."""
    found: set[int] = set()
    tasks = Path(f"/proc/{os.getpid()}/task")
    try:
        for task in tasks.iterdir():
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            found.update(int(tok) for tok in text.split())
    except OSError:
        pass
    return sorted(found)


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def process_cpu_s(pid: int) -> float:
    """User+system CPU seconds of one live process (0 if it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime and stime are fields 14 and 15 of stat(5); index 11/12 here.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one live process, in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class CpuMeter:
    """CPU seconds of this process plus a fixed set of child processes.

    The children are listed once (``track_children``) and read from
    ``/proc`` on every :meth:`read`, so live worker processes count
    while they run, not only once reaped.
    """

    def __init__(self) -> None:
        self.children: list[int] = []

    def track_children(self) -> None:
        self.children = child_pids()

    def read(self) -> float:
        own = time.process_time()
        return own + sum(process_cpu_s(pid) for pid in self.children)

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus the peaks of tracked children."""
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids_kb = sum(peak_rss_kb(pid) for pid in self.children)
        return (own_kb + kids_kb) / 1024.0


#: Iterations of the arithmetic part of one calibration sample.
CALIBRATION_ITERATIONS = 1000
#: The JSON part: a document shaped like a small curve reply.
CALIBRATION_DOC = {
    "kind": "roofline",
    "machine": "reference",
    "intensities": [2.0 ** (i / 32) for i in range(-48, 96, 2)],
    "values": [1.0 / (1.0 + i * 0.37) for i in range(72)],
}
#: The kernel part: 64-byte round trips over a loopback TCP connection.
CALIBRATION_PINGS = 8
#: What one calibration sample takes on the reference host: a round
#: figure near the fastest sample seen on the 2 GHz Xeon VM the
#: benchmark was defined on.
REFERENCE_NS = 400_000


class _Loopback:
    """One loopback TCP connection per process for the calibration's
    round trips, opened at the first sample and closed at exit."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pair: tuple[socket.socket, socket.socket] | None = None

    def connect(self) -> tuple[socket.socket, socket.socket]:
        if self.pair is None:
            with socket.create_server(("127.0.0.1", 0)) as server:
                client = socket.create_connection(server.getsockname())
                peer, _addr = server.accept()
            for sock in (client, peer):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.pair = (client, peer)
            atexit.register(self.close)
        return self.pair

    def close(self) -> None:
        if self.pair is not None:
            for sock in self.pair:
                sock.close()
            self.pair = None


_LOOPBACK = _Loopback()
_PING = b"p" * 64


#: The bulk part of a calibration sample (see :func:`calibration_ns`): a
#: float array the size of a large grid reply.
BULK_POINTS = 10_000
BULK_ARRAY = np.linspace(0.0, 1.0, BULK_POINTS)
#: What the bulk part adds to a sample on the reference host: a round
#: figure near the fastest seen on the 2 GHz Xeon VM.
BULK_REFERENCE_NS = 230_000


def calibration_ns(*, bulk: bool = False) -> int:
    """Time of one fixed piece of work like the serving stack's:
    integer arithmetic and dict updates, a JSON round trip of a
    curve-sized document (which touches more memory), and small round
    trips through the kernel over loopback TCP.

    Wall time, so it sees both a slower core and a core shared with
    other processes.  With ``bulk``, for a workload that moves large
    replies on a CPU it shares with its worker, the sample also copies
    a grid-sized float array to bytes, reads it back and turns it into
    a list of floats, as the worker ring, the binary wire and the
    client do with big replies; and it is the calling thread's CPU
    time, which follows the core's speed (it tracked wall time with a
    correlation of 0.9997 on an idle CPU) but not the share of the core
    the other process takes."""
    clock = time.thread_time_ns if bulk else time.perf_counter_ns
    with _LOOPBACK.lock:
        client, peer = _LOOPBACK.connect()
        start = clock()
        counts: dict[int, int] = {}
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i
            key = i & 255
            counts[key] = counts.get(key, 0) + 1
        json.loads(json.dumps(CALIBRATION_DOC))
        for _ in range(CALIBRATION_PINGS):
            client.sendall(_PING)
            received = 0
            while received < len(_PING):
                received += len(peer.recv(len(_PING) - received))
        if bulk:
            np.frombuffer(BULK_ARRAY.tobytes()).tolist()
        return clock() - start


class HostSpeed:
    """How slow the host ran while something was measured.

    On a shared VM the speed of a core drifts by up to 2x within seconds
    (other tenants' work on the same physical cores), with little CPU
    steal.  Calibration samples taken on the CPU the measured work runs
    on, every 20 ms while it runs, give the mean slowdown against
    :data:`REFERENCE_NS`; times divided by it (rates multiplied by it)
    read as on the reference host.  ``bulk`` selects the bulk samples
    of :func:`calibration_ns`.  The calibration does
    not depend on the program, so a change to the program still moves
    the figures.
    """

    #: The slowest tenth of the samples is left out of the mean, so a
    #: rare long interruption does not decide it.
    TRIM = 0.1

    def __init__(self, samples: list[int] | None = None, *, bulk: bool = False) -> None:
        self.samples: list[int] = list(samples or [])
        self.bulk = bulk

    def sample(self) -> None:
        self.samples.append(calibration_ns(bulk=self.bulk))

    def slowdown(self) -> float:
        """Mean sample time over its time on the reference host (1.0 if
        unsampled)."""
        if not self.samples:
            return 1.0
        kept = sorted(self.samples)[: max(1, int(len(self.samples) * (1 - self.TRIM)))]
        reference = REFERENCE_NS + (BULK_REFERENCE_NS if self.bulk else 0)
        return sum(kept) / len(kept) / reference

    @contextlib.contextmanager
    def during(self, interval_s: float = 0.02) -> Iterator["HostSpeed"]:
        """Sample from a thread every ``interval_s`` while the block runs
        (for waits on a child process, where this process is idle)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval_s):
                self.sample()

        thread = threading.Thread(target=loop, name="perfbench-host-speed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()


def _threads(pid: int) -> list[int]:
    try:
        return [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return []


@contextlib.contextmanager
def one_cpu(pids: Iterable[int] = ()) -> Iterator[None]:
    """Keep every thread of this process and of the processes ``pids``
    (and whatever they start meanwhile) on one CPU, the highest-numbered
    this process may use, so the calibration samples measure the core
    the measured work runs on.  Affinity is per thread, so threads that
    already run (a worker pool's executor, say) are moved one by one."""
    cpu = max(os.sched_getaffinity(0))
    saved: dict[int, set[int]] = {}
    for pid in (os.getpid(), *pids):
        for tid in _threads(pid):
            try:
                saved[tid] = os.sched_getaffinity(tid)
                os.sched_setaffinity(tid, {cpu})
            except OSError:  # the thread has ended
                saved.pop(tid, None)
    try:
        yield
    finally:
        for tid, allowed in saved.items():
            try:
                os.sched_setaffinity(tid, allowed)
            except OSError:
                pass


def steal_jiffies() -> int:
    """Host-wide CPU steal so far (the 8th ``cpu`` column of /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: Path) -> dict[str, object]:
    """The stamp printed with every result: cores, CPU, versions, sha."""
    stamp: dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
            stamp[name] = getattr(module, "__version__", "unknown")
        except ImportError:
            stamp[name] = "missing"
    return stamp
