"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

For each workload it makes one untraced run per seed (seeds 1..N) and one
traced run on seed 1, all with the run length from BENCHMARK.json. For every
end-to-end metric it records the ten values, their median and the spread:
the distance between the first and third quartile as a share of the median,
with quartiles as statistics.quantiles(values, n=4) gives them. A spread at
or above a third of the metric's bound is printed as UNSTEADY. With
--compare FIRST.json it also prints, for every workload and metric, how much
worse this set's median is than FIRST's, flagging any change beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, {result}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", default=None, help="write the record here (default: print only)")
    parser.add_argument("--compare", default=None, help="an earlier record to compare medians with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "traced_seed": 1,
        "workloads": {},
    }
    for name in names:
        results = [run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        e2e = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median
            e2e[metric] = {"unit": results[0]["metrics"][metric]["unit"], "median": median,
                           "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "UNSTEADY" if spread >= bound / 3 and metric != "setup_s" else ""
            print(f"{name:20s} {metric:18s} median {median:14.4f} spread {spread:7.4f} (bound {bound}) {flag}",
                  flush=True)
        traced = run(name, 1, spec["run_seconds"], 1)
        record["workloads"][name] = {
            "runs": len(results),
            "attempted_per_run": statistics.median(r["attempted"] for r in results),
            "process_s_per_run": statistics.median(r["process_s"] for r in results),
            "traced_process_s": traced["process_s"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    worse_than_bound = 0
    if args.compare:
        first = json.loads(Path(args.compare).read_text())["workloads"]
        for name, now in record["workloads"].items():
            for metric, bound in bounds.items():
                m1, m2 = first[name]["end_to_end"][metric]["median"], now["end_to_end"][metric]["median"]
                worse = (m2 - m1) / m1 if lower_is_better[metric] else (m1 - m2) / m1
                flag = "WORSE THAN BOUND" if worse > bound else ""
                worse_than_bound += bool(flag)
                print(f"{name:20s} {metric:18s} {m1:14.4f} -> {m2:14.4f} worse by {worse:+.4f} {flag}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
