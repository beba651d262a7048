"""Steadiness check: two sets of runs of one commit, compared metric by metric.

    python3 perfbench/steady.py                          # 2 sets x 10 seeds, all workloads
    python3 perfbench/steady.py --workloads lbp --runs 5 # 2 sets x 5 seeds, one workload

Each run is ``run.py --trace 0`` with its own seed (set one uses seeds
1 to ``runs``, set two the next ``runs``) and the length from
BENCHMARK.json.
For every end-to-end metric on every workload it prints each set's
median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over median), and whether the spread and the
change of median between the sets stay within the metric's bound. The
raw figures go to ``perfbench/out/steady-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        timeout=200)
    if proc.returncode != 0:
        raise SystemExit("run.py --workload %s --seed %d exited with %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    raw = {}
    for k in range(2):
        for workload in args.workloads.split(","):
            for j in range(args.runs):
                seed = 1 + k * args.runs + j
                start = time.monotonic()
                line = run_once(workload, seed, bench["run_seconds"])
                raw.setdefault(workload, [[], []])[k].append(
                    dict(line, seed=seed, wall_s=time.monotonic() - start))
                print("set %d %s seed %d: %.1f s" % (k + 1, workload, seed,
                                                     time.monotonic() - start),
                      file=sys.stderr)

    (HERE / "out").mkdir(exist_ok=True)
    dump = HERE / "out" / ("steady-%d.json" % time.time())
    dump.write_text(json.dumps(raw, indent=1))
    steady = True
    print("| workload | metric | bound | set | median | q1 | q3 | spread | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, sets in raw.items():
        shares = {Fraction(sum(r["failed"] for r in runs),
                           sum(r["attempted"] for r in runs)) for runs in sets}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [describe([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            for k, s in enumerate(stats):
                verdict = ["spread %s" % ("ok" if s["spread"] <= bound
                                          else "OVER BOUND")]
                if s["spread"] > bound / 3:
                    verdict.append("above a third of the bound")
                if k == 1:
                    drift = worse_by(stats[0]["median"], s["median"],
                                     metric["better"])
                    verdict.append("median %+.1f%% %s" % (
                        100 * drift, "ok" if drift <= bound else "OVER BOUND"))
                steady &= "OVER BOUND" not in " ".join(verdict)
                print("| %s | %s | %.2f | %d | %.6g | %.6g | %.6g | %.1f%% | %s |"
                      % (workload, name, bound, k + 1, s["median"], s["q1"],
                         s["q3"], 100 * s["spread"], ", ".join(verdict)))
        steady &= len(shares) == 1
        print("| %s | failed share | | | %s | | | | %s |"
              % (workload, " vs ".join(str(s) for s in sorted(shares)),
                 "same" if len(shares) == 1 else "DIFFERENT"))
    print("raw figures: %s" % dump.relative_to(ROOT))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
