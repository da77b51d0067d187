"""Repeats the benchmark over seeds and reports how far each metric spreads.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/NAME.json
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Runs are interleaved (seed 1 of every workload, then seed 2, ...), so a
slow spell on the shared machine hits every workload alike.  For each
workload and end-to-end metric it reports the median of the runs and the
spread: the distance between the first and third quartiles, from
``statistics.quantiles(values, n=4)``, as a share of the median.  A metric
is steady when its spread stays below a third of its bound in
``BENCHMARK.json``.  The unscaled timings ``run.py`` prints (before
rescaling by ``speed.py``) are collected too, as ``raw.<name>``.

``--compare`` reads two such files, made from the same code, and checks
that every end-to-end metric's second median is no worse than its first by
more than the metric's bound.
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


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def compare(first_path, second_path):
    """0 when no median of the second set is worse than the first's by more
    than the metric's bound."""
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    with open(first_path) as handle:
        first = json.load(handle)["summary"]
    with open(second_path) as handle:
        second = json.load(handle)["summary"]
    worse = 0
    print("%-9s %-16s %12s %12s %8s %6s" % ("workload", "metric", "median 1", "median 2", "worse by", "bound"))
    for workload, rows in first.items():
        for name, metric in metrics.items():
            a, b = rows[name]["median"], second[workload][name]["median"]
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = change <= metric["bound"]
            worse += not ok
            print("%-9s %-16s %12.5g %12.5g %8.4f %6.2f%s" % (
                workload, name, a, b, change, metric["bound"], "" if ok else "  WORSE THAN BOUND"))
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="spread of the benchmark's metrics over seeds")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the summary here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two files of --out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable] + bench["command"][1:] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print("seed %d %s: exit %d\n%s" % (seed, workload, proc.returncode, proc.stderr[-2000:]))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=took)
            for line in proc.stdout.splitlines():
                if line.startswith("unscaled: "):
                    for name, value in json.loads(line[len("unscaled: "):]).items():
                        result["metrics"]["raw." + name] = {"value": value, "unit": "s"}
            runs[workload].append(result)
            print("seed %d %-8s %5.1fs correct=%s %s" % (
                seed, workload, took, result["correct"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = {"median": statistics.median(values), "min": min(values), "max": max(values)}
            if len(values) >= 2:
                row["spread"] = spread(values)
            summary[workload][name] = row
    print("\n%-9s %-16s %12s %8s %8s" % ("workload", "metric", "median", "spread", "bound/3"))
    for workload, rows in summary.items():
        for name, row in rows.items():
            bound = bounds.get(name)
            print("%-9s %-16s %12.5g %8.4f %8s" % (
                workload, name, row["median"], row.get("spread", float("nan")),
                "%.4f" % (bound / 3) if bound is not None else "-"))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump({"seeds": args.seeds, "trace": args.trace, "summary": summary, "runs": runs},
                      handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
