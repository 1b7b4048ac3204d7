#!/usr/bin/env python3
"""Compares two sets of bench_pipeline result files, metric by metric.

    compare.py BASE.json... --vs NEW.json...     # parent commit vs change
    compare.py --agreement A.json --vs B.json    # two sets of one commit
    compare.py --self-test

Each file is one `bench_pipeline --json` result; every workload object in
it is one run (a process) and contributes the value it reports, so a file
from `--runs=N` holds N runs per workload. Runs pair up in the order they
appear, files in the order given: pass them in the order the runs
alternated.

For every (workload, end-to-end metric) present on both sides this prints
each side's median and quartiles and the fraction of pairs the new side
won (ties count for neither), then a verdict. The bound and direction come
from the result files themselves (the benchmark's metric table):

  improved    at least 9/10 pairs won, at least 10 pairs, and the medians
              differ by more than the base side's interquartile range
  regressed   the new median is worse than the base median by more than
              the bound (bound x |base median|, or the metric's absolute
              floor if larger)
  unresolved  the spread (either side's interquartile range) exceeds the
              bound, unless every new run beats every base run
  unchanged   none of the above

With --agreement (two sets from one commit), the verdict is symmetric:
"disagree" when the medians differ by more than the bound in either
direction, "unresolved" as above, else "agree". Exits 1 if any pair is
regressed, disagrees or is unresolved.
"""

import argparse
import json
import statistics
import sys

MIN_PAIRS_FOR_GAIN = 10
WIN_FRACTION_FOR_GAIN = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_runs(paths):
    """{(workload, metric): (definition, [value per run])}."""
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return collect(docs)


def collect(docs):
    series = {}
    for doc in docs:
        for workload in doc["workloads"]:
            for name, metric in workload.get("metrics", {}).items():
                entry = series.setdefault((workload["name"], name),
                                          (metric, []))
                if metric["value"] is not None:
                    entry[1].append(metric["value"])
    return series


def better(definition, new, base):
    if definition["better"] == "higher":
        return new > base
    return new < base


def compare_pair(definition, base, new, agreement):
    base_med = statistics.median(base)
    new_med = statistics.median(new)
    base_q1, base_q3 = quartiles(base)
    new_q1, new_q3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(definition, n, b))
    tolerance = max(definition["bound"] * abs(base_med), definition["floor"])
    worse_by = (base_med - new_med if definition["better"] == "higher"
                else new_med - base_med)
    spread = max(base_q3 - base_q1, new_q3 - new_q1)
    dominates = all(better(definition, n, b) for n in new for b in base)
    if agreement:
        if abs(worse_by) > tolerance:
            verdict = "disagree"
        elif spread > tolerance:
            verdict = "unresolved"
        else:
            verdict = "agree"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN
          and wins >= WIN_FRACTION_FOR_GAIN * len(pairs)
          and better(definition, new_med, base_med)
          and abs(new_med - base_med) > base_q3 - base_q1):
        verdict = "improved"
    elif worse_by > tolerance:
        verdict = "regressed"
    elif spread > tolerance and not dominates:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": (base_med, base_q1, base_q3, len(base)),
        "new": (new_med, new_q1, new_q3, len(new)),
        "wins": wins, "pairs": len(pairs),
        "change": (new_med - base_med) / base_med if base_med else 0.0,
        "tolerance": tolerance, "verdict": verdict,
    }


def compare(base_series, new_series, agreement):
    rows = []
    for key in sorted(base_series.keys() & new_series.keys()):
        definition, base = base_series[key]
        _, new = new_series[key]
        if base and new:
            rows.append((key, definition,
                         compare_pair(definition, base, new, agreement)))
    return rows


def report(rows):
    print(f"{'workload':8s} {'metric':20s} {'unit':9s} "
          f"{'base median [q1, q3] n':40s} {'new median [q1, q3] n':40s} "
          f"{'won':>6s} {'change':>8s} {'bound':>8s} verdict")
    for (workload, name), definition, r in rows:
        def side(s):
            return f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}] {s[3]}"
        bound = (f"{definition['bound']:.0%}"
                 + (f"|{definition['floor']:g}" if definition["floor"] else ""))
        print(f"{workload:8s} {name:20s} {definition['unit']:9s} "
              f"{side(r['base']):40s} {side(r['new']):40s} "
              f"{r['wins']:>2d}/{r['pairs']:<3d} {r['change']:>+8.2%} "
              f"{bound:>8s} {r['verdict']}")
    bad = [r for _, _, r in rows
           if r["verdict"] in ("regressed", "disagree", "unresolved")]
    print(f"{len(rows)} pair(s) compared, {len(bad)} regressed, "
          "disagreeing or unresolved")
    return 1 if bad else 0


def self_test():
    """Checks every verdict on synthetic result sets."""
    def per_run(series, runs_per_file=1):
        """Result files holding one run per value of each metric's series."""
        runs = []
        for i in range(len(next(iter(series.values()))[3])):
            metrics = {name: {"unit": "u", "better": d, "bound": b,
                              "floor": f, "value": values[i]}
                       for name, (d, b, f, values) in series.items()}
            runs.append({"name": "w", "metrics": metrics})
        return [{"workloads": runs[i:i + runs_per_file]}
                for i in range(0, len(runs), runs_per_file)]

    def run_files(files_base, files_new, agreement=False):
        rows = compare(collect(files_base), collect(files_new), agreement)
        return {name: r["verdict"] for (_, name), _, r in rows}

    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 1.2 for v in steady]
    noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 90.0, 110.0, 85.0, 115.0]

    base = per_run({"tput": ("higher", 0.08, 0.0, steady),
                    "lat": ("lower", 0.08, 0.0, steady),
                    "noisy": ("higher", 0.08, 0.0, steady),
                    "ties": ("higher", 0.08, 0.0, steady),
                    "setup": ("lower", 0.01, 5.0, steady)})
    new = per_run({"tput": ("higher", 0.08, 0.0, faster),
                   "lat": ("lower", 0.08, 0.0, faster),
                   "noisy": ("higher", 0.08, 0.0, noisy),
                   "ties": ("higher", 0.08, 0.0, steady),
                   "setup": ("lower", 0.01, 5.0, [v + 3.0 for v in steady])})
    checks = [
        (run_files(base, new), {"tput": "improved", "lat": "regressed",
                                "noisy": "unresolved", "ties": "unchanged",
                                "setup": "unchanged"}),
        (run_files(base, base, agreement=True),
         {"tput": "agree", "lat": "agree", "noisy": "agree", "ties": "agree",
          "setup": "agree"}),
        (run_files(base, new, agreement=True),
         {"tput": "disagree", "lat": "disagree", "noisy": "unresolved",
          "ties": "agree", "setup": "agree"}),
        # Five runs in one file per side: five pairs are too few to claim
        # a gain however clear it looks.
        (run_files(per_run({"tput": ("higher", 0.08, 0.0, steady[:5])}, 5),
                   per_run({"tput": ("higher", 0.08, 0.0, faster[:5])}, 5)),
         {"tput": "unchanged"}),
    ]
    failures = 0
    for got, want in checks:
        if got != want:
            failures += 1
            print(f"self-test: got {got}, want {want}", file=sys.stderr)
    print("self-test:", "PASS" if failures == 0 else "FAIL")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s [--agreement] BASE.json... --vs NEW.json... | "
              "--self-test")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--agreement", action="store_true")
    parser.add_argument("base", nargs="*")
    parser.add_argument("--vs", nargs="+", default=[], dest="new")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("give base files, then --vs and the new files")
    try:
        rows = compare(load_runs(args.base), load_runs(args.new),
                       args.agreement)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: cannot read results: {e!r}", file=sys.stderr)
        return 2
    if not rows:
        print("compare.py: no (workload, metric) pair on both sides",
              file=sys.stderr)
        return 2
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
