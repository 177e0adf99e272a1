"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --set a --seeds 1-10
    python3 bench/repeat.py --set traced --seeds 1-2 --trace 1

Each run is a fresh `python3 bench/run.py` process, one after another.
Every run's result and the summary (median, quartiles, and the spread
(q3 - q1) / median) go to bench/results/<set>.json; the summary is also
printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fd:
        bench = json.load(fd)
    p = argparse.ArgumentParser()
    p.add_argument("--set", required=True, help="name of the result file")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in names:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit("%s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "result": result})
            print("%-15s seed %3d  %6.1f s  %s" % (workload, seed, wall, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
                if args.trace == 0 or k.startswith(("layer.", "trace."))
            )), flush=True)
    summary = {}
    for workload in names:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {
            "failed_share": [r["failed"] / r["attempted"] for r in mine],
            "correct": all(r["correct"] for r in mine),
            "metrics": {k: summarize([r["metrics"][k]["value"] for r in mine])
                        for k in mine[0]["metrics"]} if len(mine) > 1 else {}}
        if args.trace == 0:
            for k, s in summary[workload]["metrics"].items():
                print("%-15s %-17s median %9.4f  q1 %9.4f  q3 %9.4f  spread %.4f"
                      % (workload, k, s["median"], s["q1"], s["q3"], s["spread"]))
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", args.set + ".json"), "w") as fd:
        json.dump({"runs": runs, "summary": summary}, fd, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
