#!/usr/bin/env python3
"""Summarises or compares sets of SUDAF benchmark reports.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A set is a directory of reports written by perfbench/run.py (one JSON file
per run, *-trace0.json or *-trace1.json). With one set it prints, for each
workload and metric, the median, the quartiles and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json. With
two sets it prints one row per workload and metric with both sides'
medians and quartiles and a verdict:

  better        the new side wins at least 9 in 10 pairs of runs (ties
                count for neither) and the medians differ by more than the
                base side's quartile distance;
  worse         the same rule the other way, or the new median is worse
                than the base median by more than the metric's bound;
  within-bound  the new median is no worse than the bound allows;
  unresolved    the base side's own spread is wider than the bound (and
                not every new run beats every base run), or the metric has
                no bound.

Runs are paired by seed, so both sets should use the same seeds.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spec():
    """metric -> (better, bound or None) from BENCHMARK.json."""
    spec = {}
    path = ROOT / "BENCHMARK.json"
    if path.is_file():
        bench = json.loads(path.read_text())
        for m in bench.get("end_to_end", []):
            spec[m["name"]] = (m["better"], m["bound"])
        for m in bench.get("per_layer", []):
            spec[m["name"]] = (m["better"], None)
    return spec


def load_runs(directory):
    """(workload, trace) -> metric -> [(seed, value)]."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            report = json.loads(path.read_text())
        except ValueError:
            continue
        if report.get("schema") != "sudaf.perfbench.v1":
            continue
        key = (report["workload"], report["trace"])
        for name, m in report["result"]["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(
                (report["seed"], m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, better, bound):
    """base, new: [(seed, value)]; returns the verdict string."""
    base_by_seed = dict(base)
    pairs = [(base_by_seed[s], v) for s, v in new if s in base_by_seed]
    if not pairs:
        pairs = list(zip(sorted(v for _, v in base), sorted(v for _, v in new)))
    b_vals = [v for _, v in base]
    n_vals = [v for _, v in new]
    b_q1, b_med, b_q3 = quartiles(b_vals)
    _, n_med, _ = quartiles(n_vals)
    new_wins = sum(is_better(n, b, better) for b, n in pairs)
    base_wins = sum(is_better(b, n, better) for b, n in pairs)
    resolved = abs(n_med - b_med) > (b_q3 - b_q1)
    if pairs and new_wins >= 0.9 * len(pairs) and resolved:
        return "better"
    if pairs and base_wins >= 0.9 * len(pairs) and resolved:
        return "worse"
    if bound is None:
        return "unresolved"
    all_better = all(is_better(n, b, better) for n in n_vals for b in b_vals)
    if spread(b_vals) > bound and not all_better:
        return "unresolved"
    worse_by = (n_med - b_med) / b_med if b_med else 0.0
    if better == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "within-bound"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%12.5g [%.5g, %.5g]" % (med, q1, q3)


def summarise(directory, spec):
    runs = load_runs(directory)
    print("%-10s %-5s %-28s %4s %36s %8s %8s" %
          ("workload", "trace", "metric", "runs", "median [q1, q3]",
           "spread", "bound"))
    for (workload, trace), metrics in sorted(runs.items()):
        for name, pts in sorted(metrics.items()):
            values = [v for _, v in pts]
            bound = spec.get(name, (None, None))[1]
            print("%-10s %-5d %-28s %4d %36s %8.4f %8s" %
                  (workload, trace, name, len(values), fmt(values),
                   spread(values), "-" if bound is None else "%.3f" % bound))


def compare(base_dir, new_dir, spec):
    base, new = load_runs(base_dir), load_runs(new_dir)
    print("%-10s %-28s %36s %36s %9s  %s" %
          ("workload", "metric", "base median [q1, q3]",
           "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(new[key])):
            better, bound = spec.get(name, ("lower", None))
            b_vals = [v for _, v in base[key][name]]
            n_vals = [v for _, v in new[key][name]]
            b_med = quartiles(b_vals)[1]
            change = (quartiles(n_vals)[1] - b_med) / b_med if b_med else 0.0
            print("%-10s %-28s %36s %36s %+8.2f%%  %s" %
                  (workload, name, fmt(b_vals), fmt(n_vals), 100 * change,
                   verdict(base[key][name], new[key][name], better, bound)))


def main(argv):
    spec = load_spec()
    if len(argv) == 2:
        summarise(argv[1], spec)
    elif len(argv) == 3:
        compare(argv[1], argv[2], spec)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
