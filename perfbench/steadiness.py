#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads w ...]
                                    [--out perfbench/evidence/steadiness.json]

Run from the repository root. For each set and workload it makes `--runs`
untraced runs of perfbench/run.py, each on its own seed (set k uses seeds
k*runs .. k*runs+runs-1), and reports per end-to-end metric:

  * spread: the distance between the first and third quartile of the runs'
    values (statistics.quantiles, n=4) as a share of their median; it must
    stay within the metric's bound in BENCHMARK.json (setup_s is exempt),
    and the benchmark aims for a third of it;
  * drift: how much worse each later set's median is than the first set's,
    as a share of the first; it must stay within the bound for every metric.

Writes every run's values and the verdicts to --out and prints a table.
Exit code 0 when every check holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric, before, after):
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "evidence" / "steadiness.json"))
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    report = {"run_seconds": bench["run_seconds"], "runs_per_set": args.runs, "workloads": {}}
    ok = True
    # Set by set, so the sets of one workload lie apart in time.
    by_workload = {w: [] for w in args.workloads}
    for k in range(args.sets):
        seeds = list(range(k * args.runs, (k + 1) * args.runs))
        for workload in args.workloads:
            runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
            by_workload[workload].append({"seeds": seeds, "runs": runs})
    for workload, sets in by_workload.items():
        verdicts = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(r[name] for r in s["runs"]) for s in sets]
            spreads = [spread([r[name] for r in s["runs"]]) for s in sets]
            drifts = [worse_by(m, medians[0], later) for later in medians[1:]]
            good = all(d <= bound for d in drifts) and (
                name == "setup_s" or all(s <= bound for s in spreads))
            ok = ok and good
            verdicts[name] = {"bound": bound, "medians": medians, "spreads": spreads,
                              "drifts": drifts, "within_third": all(s <= bound / 3 for s in spreads),
                              "ok": good}
            print(f"{workload:11s} {name:16s} bound {bound:5.3f}  spreads "
                  + " ".join(f"{s:6.4f}" for s in spreads) + "  drift "
                  + " ".join(f"{d:+7.4f}" for d in drifts) + ("" if good else "  FAIL"))
        report["workloads"][workload] = {"sets": sets, "metrics": verdicts}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
