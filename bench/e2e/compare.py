#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs, metric by metric.

Each set is either a directory of run outputs, one file per run named
<workload>.<anything>, whose last line is the benchmark's result JSON and
whose "# workload=... seed=..." line names the seed, or
`baseline.json#<set>` for a set stored in bench/e2e/baseline.json.

    python3 bench/e2e/compare.py bench/e2e/baseline.json#seeds_a runs/
    python3 bench/e2e/compare.py --self-test

For each workload and metric it prints the median and quartiles of both
sets, the change of the median, the spread (interquartile range over the
median, the wider of the two sets) and the fraction of run pairs the second
set wins (ties count for neither). End-to-end metrics get a verdict:

  REGRESSION  the median worsened by more than the bound in BENCHMARK.json,
              or the second set loses at least nine tenths of the run pairs
              and its median is worse by more than the first set's spread
              (the usual rule for claiming a gain, applied to a loss)
  unresolved  the spread exceeds the bound, so a change of that size cannot
              be told from noise (unless every run of the second set beats
              every run of the first)
  ok          none of the above

Runs pair up by seed when the two sets ran the same seeds, and in order
when every run of both used one seed (sets run in alternation). Other sets
get no pair rule and no win fraction.

The sim-time metrics (EXACT below) are a pure function of the seed, so for
them runs of the same seed are also compared one to one: any difference is
CHANGED, and a CHANGED value that is worse is a REGRESSION whatever the
bound.

Exits 1 when any metric regressed or any run reported incorrect output.
Standard library only.
"""
import argparse
import io
import json
import os
import random
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
EXACT = {"deliver_latency_sim_ms_mean", "wire_bytes_per_delivery"}
SEED_LINE = re.compile(r"^# workload=\S+ seed=(\d+)")


def read_run(path):
    """Returns (seed or None, result) of one run's output file."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    seed = None
    for line in lines:
        match = SEED_LINE.match(line)
        if match:
            seed = int(match.group(1))
    return seed, json.loads(lines[-1])


def load_set(spec):
    """Returns {workload: [(seed, result), ...]} for a directory or a
    file#set spec."""
    runs = {}
    if "#" in spec:
        path, name = spec.rsplit("#", 1)
        with open(path) as f:
            stored = json.load(f)["sets"][name]
        for run in stored:
            runs.setdefault(run["workload"], []).append(
                (run["seed"], run["result"]))
        return runs
    for entry in sorted(os.listdir(spec)):
        path = os.path.join(spec, entry)
        if not os.path.isfile(path) or "." not in entry:
            continue
        try:
            seed, result = read_run(path)
        except ValueError:
            continue
        if "metrics" in result:
            runs.setdefault(entry.split(".", 1)[0], []).append((seed, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value b is better than value a."""
    return b > a if direction == "higher" else b < a


def compare_metric(a_vals, b_vals, pairs, direction, bound):
    """Returns (change, spread, win_fraction, verdict) for one metric;
    `pairs` is None when the runs do not pair up."""
    _, a_med, _ = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    worse = -change if direction == "higher" else change
    noise = max(spread(a_vals), spread(b_vals))
    win_fraction = None
    lost = False
    if pairs:
        win_fraction = sum(better(a, b, direction) for a, b in pairs) / len(
            pairs)
        losses = sum(better(b, a, direction) for a, b in pairs)
        lost = losses >= 0.9 * len(pairs) and worse > spread(a_vals)
    if bound is None:
        verdict = ""
    elif worse > bound or lost:
        verdict = "REGRESSION"
    elif noise > bound and not all(
            better(a, b, direction) for a in a_vals for b in b_vals):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return change, noise, win_fraction, verdict


def pair_up(a_list, b_list):
    """Returns the (first, second) run pairs, or None when the sets do not
    pair up."""
    a_seeds = [seed for seed, _ in a_list]
    b_seeds = [seed for seed, _ in b_list]
    if None in a_seeds or None in b_seeds:
        return None
    if sorted(a_seeds) == sorted(b_seeds) and len(set(a_seeds)) == len(
            a_seeds):
        b_by_seed = dict(b_list)
        return [(r, b_by_seed[seed]) for seed, r in a_list]
    if len(set(a_seeds + b_seeds)) == 1:
        return [(a, b) for (_, a), (_, b) in zip(a_list, b_list)]
    return None


def metric_specs(benchmark):
    specs = {}
    for m in benchmark["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in benchmark["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def fmt(value):
    return f"{value:.6g}"


def exact_verdict(a_list, b_list, name, direction):
    """Compares an EXACT metric seed by seed. Returns '' when no seed both
    sets ran changed, else CHANGED or REGRESSION with the count."""
    a_by_seed = {seed: r["metrics"][name]["value"] for seed, r in a_list
                 if seed is not None}
    changed = worse = 0
    for seed, r in b_list:
        if seed not in a_by_seed:
            continue
        a, b = a_by_seed[seed], r["metrics"][name]["value"]
        if a != b:
            changed += 1
            worse += better(b, a, direction)
    if worse:
        return f"REGRESSION (worse on {worse} seeds)"
    return f"CHANGED (on {changed} seeds)" if changed else ""


def compare(a_runs, b_runs, benchmark, out=sys.stdout):
    """Prints the comparison; returns the list of (workload, metric) that
    regressed, plus ('<workload>', 'incorrect') for failed runs."""
    specs = metric_specs(benchmark)
    flagged = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        a_list, b_list = a_runs[workload], b_runs[workload]
        print(f"== {workload}: {len(a_list)} vs {len(b_list)} runs", file=out)
        if not all(r["correct"] for _, r in a_list + b_list):
            flagged.append((workload, "incorrect"))
            print("   INCORRECT output in at least one run", file=out)
        print(f"   {'metric':34} {'A median [q1, q3]':30} "
              f"{'B median [q1, q3]':30} {'change':>8} {'spread':>7} "
              f"{'bound':>6} {'wins':>5}  verdict", file=out)
        names = [n for n in specs
                 if all(n in r["metrics"] for _, r in a_list + b_list)]
        run_pairs = pair_up(a_list, b_list)
        for name in names:
            direction, bound = specs[name]
            a_vals = [r["metrics"][name]["value"] for _, r in a_list]
            b_vals = [r["metrics"][name]["value"] for _, r in b_list]
            pairs = None
            if run_pairs:
                pairs = [(a["metrics"][name]["value"],
                          b["metrics"][name]["value"]) for a, b in run_pairs]
            change, noise, wins, verdict = compare_metric(
                a_vals, b_vals, pairs, direction, bound)
            if name in EXACT:
                verdict = (exact_verdict(a_list, b_list, name, direction)
                           or verdict)
            if verdict.startswith("REGRESSION"):
                flagged.append((workload, name))
            qa, qb = quartiles(a_vals), quartiles(b_vals)
            cell_a = f"{fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]"
            cell_b = f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}]"
            bound_txt = f"{bound:.3f}" if bound is not None else "-"
            wins_txt = f"{wins:.0%}" if wins is not None else "-"
            print(f"   {name:34} {cell_a:30} {cell_b:30} {change:+8.2%} "
                  f"{noise:7.2%} {bound_txt:>6} {wins_txt:>5}  {verdict}",
                  file=out)
    return flagged


def self_test(benchmark):
    """Checks the comparison with the bounds BENCHMARK.json sets, on
    synthetic runs of ten seeds whose wall-clock metrics carry 4% noise
    (about the spread baseline.json measured): a 10% events_per_s drop on
    one workload must be flagged and a 2% drop must not, and a 1% change of
    an exact sim-time metric on one seed must be flagged."""
    rng = random.Random(7)

    def runs(events_scale=1.0, latency_scale=1.0):
        out = {}
        for workload in ("feed_fanout", "sub_churn"):
            out[workload] = []
            for seed in range(1, 11):
                metrics = {}
                for m in benchmark["end_to_end"]:
                    if m["name"] in EXACT:
                        value = 100.0 + seed
                    else:
                        value = 100.0 * (1 + rng.uniform(-0.04, 0.04))
                    metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                if workload == "feed_fanout":
                    metrics["events_per_s"]["value"] *= events_scale
                    if seed == 3:
                        metrics["deliver_latency_sim_ms_mean"]["value"] *= (
                            latency_scale)
                out[workload].append((seed, {"correct": True, "attempted": 1,
                                             "failed": 0,
                                             "metrics": metrics}))
        return out

    parent = runs()
    sink = io.StringIO()
    big = compare(parent, runs(events_scale=0.90), benchmark, out=sink)
    small = compare(parent, runs(events_scale=0.98), benchmark, out=sink)
    exact = compare(parent, runs(latency_scale=1.01), benchmark, out=sink)
    ok = (big == [("feed_fanout", "events_per_s")] and small == [] and
          exact == [("feed_fanout", "deliver_latency_sim_ms_mean")])
    print(f"self-test: 10% events_per_s drop flagged {big}; 2% drop flagged "
          f"{small}; 1% latency change on one seed flagged {exact}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", nargs="?", help="first (parent) run set")
    parser.add_argument("b", nargs="?", help="second (candidate) run set")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with directions and bounds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    if args.self_test:
        return self_test(benchmark)
    if not args.a or not args.b:
        parser.error("two run sets are required")
    flagged = compare(load_set(args.a), load_set(args.b), benchmark)
    if flagged:
        print("flagged: " + ", ".join(f"{w}/{m}" for w, m in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
