"""Compare two sets of benchmark results.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the lines that `run.py --out FILE` appended, any number
of runs per workload.  For every workload and end-to-end metric this
prints the median and quartiles of both sides, and the verdict against
the bound in BENCHMARK.json:

- REGRESSION: the new median is worse than the base median by more
  than the bound;
- unresolved: the spread (quartile distance over median) of either
  side exceeds the bound, and not every new run beats every base run;
- ok: otherwise.  A gain is not claimed here; that needs paired runs.

Per-layer metrics (traced runs) are listed with their median delta.
The exit code is 1 when any regression is found.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """(workload, trace) -> metric -> list of values."""
    groups = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            metrics = groups.setdefault((run["workload"], run["trace"]), {})
            for name, entry in run["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, better, bound):
    """REGRESSION, unresolved or ok for one metric; change > 0 is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    wins = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not wins:
        return "unresolved", change
    if change > bound:
        return "REGRESSION", change
    return "ok", change


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    base, new = load(args.base), load(args.new)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b, n = base.get((workload, 0), {}), new.get((workload, 0), {})
        print("%s: %d base runs, %d new runs" % (workload, len(next(iter(b.values()), [])), len(next(iter(n.values()), []))))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in b or name not in n:
                print("  %-18s missing" % name)
                continue
            status, change = verdict(b[name], n[name], metric["better"], metric["bound"])
            regressions += status == "REGRESSION"
            bq, nq = quartiles(b[name]), quartiles(n[name])
            print(
                "  %-18s base %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g] %s  worse by %+.1f%% (bound %.0f%%)  %s"
                % (name, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2], metric["unit"], 100 * change, 100 * metric["bound"], status)
            )
        b, n = base.get((workload, 1), {}), new.get((workload, 1), {})
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name in b and name in n:
                old_value, new_value = statistics.median(b[name]), statistics.median(n[name])
                delta = "%+.1f%%" % (100 * (new_value - old_value) / abs(old_value)) if old_value else "n/a"
                print("  layer %-34s %.4g -> %.4g %s (%s)" % (name, old_value, new_value, metric["unit"], delta))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
