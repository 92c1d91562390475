"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads deep-cohomology --seeds 1-10 --trace 0
    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --trace 1 --point 0 --commit <sha>

Runs are made one after another, each in its own process, with the run
length from BENCHMARK.json.  For every workload and metric the sweep
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the sample count and the quartile spread as a share of the median, and
flags a spread that is not below a third of the metric's bound.  With
``--point`` the summary is appended to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def describe(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, action="append", choices=(0, 1))
    parser.add_argument("--point", type=int, help="append the summary to trajectory.json")
    parser.add_argument("--commit", default="", help="library commit the point measures")
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_range(args.seeds)
    summary: dict = {}
    for workload in chosen:
        for trace in args.trace or [0]:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            extra: dict[str, list] = {"tail_percentile": [], "latency_samples": [],
                                      "tracing_overhead": []}
            correct = True
            for seed in seeds:
                detail, result = run_once(workload, seed, bench["run_seconds"], trace)
                correct = correct and result["correct"] and result["failed"] == 0
                for k, m in result["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
                    units[k] = m["unit"]
                for k in extra:
                    if k in detail:
                        extra[k].append(detail[k])
                print(f"{workload} trace={trace} seed={seed} correct={result['correct']} "
                      + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                                 if k in bounds or trace),
                      flush=True)
            block = {k: dict(describe(v), unit=units[k]) for k, v in values.items()}
            summary.setdefault(workload, {})[f"trace{trace}"] = {
                "correct": correct, "metrics": block,
                **{k: v for k, v in extra.items() if v},
            }
            for k, d in block.items():
                if k in bounds:
                    flag = "" if d["spread"] < bounds[k] / 3 or k == "setup_s" else "  <-- wide"
                    print(f"  {workload:16s} {k:16s} median {d['median']:.6g} "
                          f"q1 {d['q1']:.6g} q3 {d['q3']:.6g} spread {d['spread']:.4f} "
                          f"(bound {bounds[k]}){flag}", flush=True)
    if args.point is not None:
        trajectory = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory.append({
            "point": args.point,
            "commit": args.commit,
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        })
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
