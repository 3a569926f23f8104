#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (interquartile distance as a share
of the median) next to its bound from BENCHMARK.json.

    python3 perfbench/prove.py --seeds 1..10
    python3 perfbench/prove.py --seeds 1..10 --record baseline

Every run covers every workload in BENCHMARK.json at its run_seconds, so a
spread always describes the benchmark as the bounds apply to it.  Seeds
run in the outer loop and workloads in the inner one, so slow phases of a
shared machine fall on every workload alike.  ``--record``
also makes one traced run per workload at its default seed and appends
the whole summary to trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import environment
from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def parse_seeds(raw: str) -> list[int]:
    lo, sep, hi = raw.partition("..")
    if sep:
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    env = environment()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = bench(w, seed, seconds, 0)
            runs[w].append(res)
            print(f"{w} seed={seed} correct={res['correct']} "
                  f"failed/attempted={res['failed']}/{res['attempted']}",
                  flush=True)

    summary: dict = {}
    worst = 0.0
    for w in workloads:
        summary[w] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": s, "bound": bound,
                                "unit": runs[w][0]["metrics"][name]["unit"],
                                "values": vals}
            if name != "setup_s":
                worst = max(worst, s / bound)
            flag = "" if s < bound / 3 else ("  > bound/3" if s < bound
                                             else "  > BOUND")
            print(f"{w:18s} {name:14s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {s:.3f}  bound {bound}{flag}")
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    print(f"failed operations: {failed}; worst spread/bound (setup_s "
          f"excluded): {worst:.2f}")

    if args.record:
        entry = {"label": args.record,
                 "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                 "seconds": seconds, "seeds": seeds,
                 "env": env,
                 "end_to_end": summary,
                 "per_layer": {w: {k: v["value"] for k, v in
                                   bench(w, None, seconds, 1)["metrics"].items()}
                               for w in workloads}}
        path = HERE / "trajectory.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended {args.record!r} to {path.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
