"""Steadiness report: run one workload several times and show, for every
metric, the median, the quartiles and the spread (Q3 - Q1) / median next
to the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload heavy-pool --runs 10
    python3 perfbench/steady.py --workload reproduce --runs 5 --first-seed 100

A metric is ``steady`` when its spread is below a third of its bound and
``within`` when it is below the bound.  ``setup_s`` is measured from
fresh interpreters and is judged on its median, so its spread is shown
but not graded.  Use the report to prove the benchmark steady, and to
tell an unchanged metric (spread well inside the bound) from an
unresolved one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}"
        )
    lines = out.stdout.strip().splitlines()
    env = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines
         if line.startswith("perfbench-env ")),
        {},
    )
    return {"result": json.loads(lines[-1]), "env": env}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and (Q3 - Q1) / median, from ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(runs: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>8} {'bound':>6}  verdict"]
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median, q1, q3, s = spread(values)
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "median-only"
        elif s < bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within"
        else:
            verdict = "NOISY"
        lines.append(
            f"{name:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{s:>8.4f} {'' if bound is None else f'{bound:.2f}':>6}  {verdict}"
        )
    steal = [r["env"].get("steal_jiffies", 0) for r in runs]
    correct = sum(1 for r in runs if r["result"]["correct"])
    lines.append(f"runs: {len(runs)}, correct: {correct}, steal jiffies per run: {steal}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="also write the raw results here as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed}: correct={runs[-1]['result']['correct']}", flush=True)
    if args.save is not None:
        args.save.write_text(json.dumps(runs, indent=1))
    print(f"workload {args.workload}, {seconds} s per run")
    print("\n".join(report(runs, bounds)))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
