"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A one-second run of every workload (traced and untraced) must pass its
output checks and print every metric ``BENCHMARK.json`` names; the
tracer's self-time accounting, the reply oracle and the host-speed
scaling are checked on their own; and without the program the benchmark must fail without a result.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hoststats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=170, check=False,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.ALL_WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.ALL_WORKLOADS)
def test_smallest_run_passes_its_output_checks(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench-env ")
    env = json.loads(lines[-2].split(" ", 1)[1])
    assert env["nproc"] >= 1 and "steal_jiffies" in env and "git_sha" in env
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, env.get("problems")
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_the_layers_the_workload_exercises():
    out = _run("--workload", "heavy-pool", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert out.returncode == 0, out.stderr[-3000:]
    metrics = {k: v["value"] for k, v in json.loads(out.stdout.splitlines()[-1])["metrics"].items()}
    for name in ("wire.encode_frame.calls", "server.handle_request.calls",
                 "workers.submit.calls", "workers.ring_jobs", "costmodel.predict.calls",
                 "engine.curve.calls", "engine.eval_batch.calls", "setup.pool_ready_s"):
        assert metrics[name] > 0, name
    # Engine spans come from inside the worker shard; the router and the
    # response cache are not part of this topology.
    assert metrics["router.handle_request.calls"] == 0
    assert metrics["cache.get.calls"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("--workload", "scalar-binary", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_excludes_children_and_awaits():
    tracer = tracing.Tracer()

    def leaf():
        sum(range(20000))

    traced_leaf = tracer.wrap("leaf", leaf)

    async def outer():
        traced_leaf()
        await asyncio.sleep(0.05)
        traced_leaf()

    asyncio.run(tracer.wrap("outer", outer)())
    agg = tracing.aggregate([s.record() for s in tracer.spans])
    assert agg["leaf"]["calls"] == 2
    outer_span = agg["outer"]
    # Wall time covers the 50 ms sleep; self time covers neither the
    # sleep nor the two leaf calls.
    assert outer_span["wall_ns"] >= 50e6
    assert outer_span["self_ns"] < 5e6
    assert outer_span["self_ns"] < agg["leaf"]["self_ns"]
    parents = {s.name: s.parent for s in tracer.spans}
    outer_id = next(s.sid for s in tracer.spans if s.name == "outer")
    assert parents["leaf"] == outer_id


def test_oracle_flags_a_changed_reply():
    from repro._canon import canonical_json
    from repro.service.engine import EvalEngine

    engine = EvalEngine()
    stream = workloads.Stream("heavy-pool", 5)
    for i in range(16):
        body = stream.body(i)
        good = workloads.oracle_result(engine, body)
        assert canonical_json(good) == canonical_json(workloads.oracle_result(EvalEngine(), body))
    body = stream.body(0)
    bad = {"value": workloads.oracle_result(engine, body)["value"] * (1 + 1e-12)}
    assert canonical_json(bad) != canonical_json(workloads.oracle_result(engine, body))


def test_stream_is_a_function_of_the_seed():
    a, b, c = (workloads.Stream("routed-cached", s) for s in (11, 11, 12))
    assert [a.body(i) for i in range(40)] == [b.body(i) for i in range(40)]
    assert [a.body(i) for i in range(40)] != [c.body(i) for i in range(40)]


def test_paper_targets_catch_a_wrong_balance_point():
    values: dict[str, dict[str, float]] = {}
    for experiment, key, target, _tol in workloads.PAPER_TARGETS:
        values.setdefault(experiment, {})[key] = target
    assert workloads.check_paper_targets(values) == []
    values["fig4"]["gpu_double_b_tau"] = 1.10
    assert len(workloads.check_paper_targets(values)) == 1


def test_host_speed_is_the_trimmed_mean_sample_over_the_reference():
    speed = hoststats.HostSpeed()
    assert speed.slowdown() == 1.0
    ref = hoststats.REFERENCE_NS
    speed.samples = [ref] * 9 + [100 * ref]  # one long interruption
    assert speed.slowdown() == pytest.approx(1.0)
    speed.samples = [2 * ref] * 10
    assert speed.slowdown() == pytest.approx(2.0)
    with hoststats.HostSpeed().during(interval_s=0.001) as live:
        time.sleep(0.05)
    assert live.samples and live.slowdown() > 0
    bulk = hoststats.HostSpeed(bulk=True)
    bulk.samples = [2 * (hoststats.REFERENCE_NS + hoststats.BULK_REFERENCE_NS)]
    assert bulk.slowdown() == pytest.approx(2.0)
    bulk.sample()
    assert bulk.samples[-1] > 0


def test_one_cpu_moves_every_thread_of_this_process_and_the_given_ones():
    import os
    import threading

    child = subprocess.Popen(
        [sys.executable, "-c",
         "import threading, time; threading.Thread(target=time.sleep, args=(30,)).start();"
         " print('up', flush=True); time.sleep(30)"],
        stdout=subprocess.PIPE, text=True,
    )
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        assert child.stdout.readline().strip() == "up"
        allowed = os.sched_getaffinity(0)
        tids = [tid for pid in (os.getpid(), child.pid) for tid in hoststats._threads(pid)]
        assert len(tids) >= 4  # two threads here, two in the child
        with hoststats.one_cpu([child.pid]):
            assert {frozenset(os.sched_getaffinity(t)) for t in tids} == {
                frozenset({max(allowed)})
            }
        assert all(os.sched_getaffinity(t) == allowed for t in tids)
    finally:
        stop.set()
        helper.join()
        child.kill()
        child.wait()
