#!/usr/bin/env python3
"""Repeat, compare and check runs of the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/compare.py repeat --workload lan_mixed --runs 10
      Runs one workload with seeds seed0, seed0+1, ... and prints every
      metric's median, quartiles and spread (quartile distance over the
      median), marking spreads above a third of the metric's bound.

  python3 perfbench/compare.py compare --parent ../parent --change . \\
          --workload lan_mixed --pairs 10
      Runs parent and change checkouts in pairs on the same seed,
      alternating which side runs first. For each metric it prints both
      sides' median and quartiles, the share of pairs the change won,
      and a verdict: "gain" (won >= 9/10 of the pairs and the medians
      differ by more than the parent's own quartile distance),
      "not met" (it would be a gain, but more operations failed on the
      change than on the parent), "regression" (median worse by more
      than the metric's bound), "unresolved" (the move lies inside the
      parent's own quartile distance, or the parent's spread is wider
      than the bound and not every change run beats every parent run)
      or "within bound". Exits 1 when any run was incorrect.

  python3 perfbench/compare.py check [--seconds 2]
      Runs every workload untraced and traced and checks that the
      printed metrics, with their units, are exactly those named in
      BENCHMARK.json.

repeat and check exit 1 when any run failed an operation or was
incorrect.

Quartiles are those of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    """Runs the benchmark command in `root`; returns the parsed result."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    """Median, first and third quartile, and spread (IQR / |median|)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def change_wins(parent, change, better):
    """Share of pairs in which the change read better; ties count for
    neither side."""
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    return wins / len(parent) if parent else 0.0


def relative_move(parent_med, change_med, better):
    """How much worse the change's median is, as a share of the
    parent's (negative when it is better)."""
    if parent_med == 0:
        return 0.0
    worse = change_med - parent_med if better == "lower" else parent_med - change_med
    return worse / abs(parent_med)


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Classifies one metric's paired runs (see the module docstring).
    `parent_failed` and `change_failed` count the failed operations of
    each side's runs."""
    ps, cs = summarize(parent), summarize(change)
    move = relative_move(ps["median"], cs["median"], better)
    outside_spread = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
    if move < 0 and outside_spread and change_wins(parent, change, better) >= 0.9:
        return "not met" if change_failed > parent_failed else "gain"
    if bound is not None and move > bound:
        return "regression"
    every_run_better = all(
        (c < min(parent) if better == "lower" else c > max(parent)) for c in change)
    if not outside_spread or (bound is not None and ps["spread"] > bound
                              and not every_run_better):
        return "unresolved"
    return "within bound"


def metric_specs(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def print_table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(x):
    return f"{x:.4g}"


def cmd_repeat(args):
    spec = load_spec(".")
    seconds = args.seconds or spec["run_seconds"]
    metrics = metric_specs(spec, args.trace)
    values = {name: [] for name in metrics}
    failed = 0
    for i in range(args.runs):
        res = run_once(".", spec, args.workload, args.seed0 + i, seconds, args.trace)
        failed += res["failed"] + (0 if res["correct"] else 1)
        for name in metrics:
            values[name].append(res["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed {args.seed0 + i} done", file=sys.stderr)
    rows = []
    for name, m in metrics.items():
        s = summarize(values[name])
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            if s["spread"] > bound:
                flag = "OVER BOUND"
            elif s["spread"] > bound / 3:
                flag = "over bound/3"
        rows.append([name, m["unit"], fmt(s["median"]), fmt(s["q1"]), fmt(s["q3"]),
                     f"{s['spread']:.3f}", "" if bound is None else bound, flag])
    print(f"workload {args.workload}: {args.runs} runs of {seconds} s, "
          f"failed/incorrect {failed}")
    print_table(rows, ["metric", "unit", "median", "q1", "q3", "spread", "bound", ""])
    return 1 if failed else 0


def cmd_compare(args):
    pspec, cspec = load_spec(args.parent), load_spec(args.change)
    if pspec != cspec:
        print("warning: BENCHMARK.json differs between the two checkouts", file=sys.stderr)
    seconds = args.seconds or cspec["run_seconds"]
    metrics = metric_specs(cspec, args.trace)
    parent = {n: [] for n in metrics}
    change = {n: [] for n in metrics}
    failed = {"parent": 0, "change": 0}
    incorrect = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("parent", args.parent, parent), ("change", args.change, change)]
        if i % 2:
            order.reverse()
        for side, root, sink in order:
            res = run_once(root, cspec, args.workload, seed, seconds, args.trace)
            failed[side] += res["failed"]
            incorrect[side] += 0 if res["correct"] else 1
            for n in metrics:
                sink[n].append(res["metrics"][n]["value"])
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
    rows = []
    for n, m in metrics.items():
        ps, cs = summarize(parent[n]), summarize(change[n])
        better = m.get("better", "higher")
        bound = m.get("bound")
        rows.append([
            n, m["unit"],
            f"{fmt(ps['median'])} [{fmt(ps['q1'])}, {fmt(ps['q3'])}]",
            f"{fmt(cs['median'])} [{fmt(cs['q1'])}, {fmt(cs['q3'])}]",
            f"{change_wins(parent[n], change[n], better):.2f}",
            f"{-relative_move(ps['median'], cs['median'], better):+.3f}",
            verdict(parent[n], change[n], better, bound,
                    failed["parent"], failed["change"]),
        ])
    print(f"workload {args.workload}: {args.pairs} pairs of {seconds} s; "
          f"failed operations parent {failed['parent']}, change {failed['change']}; "
          f"incorrect runs parent {incorrect['parent']}, change {incorrect['change']}")
    print_table(rows, ["metric", "unit", "parent median [q1, q3]",
                       "change median [q1, q3]", "won", "gain", "verdict"])
    return 1 if incorrect["parent"] or incorrect["change"] else 0


def cmd_check(args):
    spec = load_spec(".")
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            want = {m["name"]: m["unit"] for m in metric_specs(spec, trace).values()}
            res = run_once(".", spec, w["name"], 1, args.seconds, trace)
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            for n in sorted(set(want) - set(got)):
                problems.append(f"{w['name']} trace={trace}: {n} not printed")
            for n in sorted(set(got) - set(want)):
                problems.append(f"{w['name']} trace={trace}: {n} printed but not in BENCHMARK.json")
            for n in sorted(set(want) & set(got)):
                if want[n] != got[n]:
                    problems.append(f"{w['name']} trace={trace}: {n} unit {got[n]} != {want[n]}")
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: correct={res['correct']} "
                                f"attempted={res['attempted']} failed={res['failed']}")
            print(f"checked {w['name']} trace={trace}", file=sys.stderr)
    for p in problems:
        print(p)
    print("consistent" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("repeat")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--seed0", type=int, default=1)
    rep.add_argument("--seconds", type=int)
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("--parent", required=True)
    cmp_.add_argument("--change", default=".")
    cmp_.add_argument("--workload", required=True)
    cmp_.add_argument("--pairs", type=int, default=10)
    cmp_.add_argument("--seed0", type=int, default=1000)
    cmp_.add_argument("--seconds", type=int)
    cmp_.add_argument("--trace", type=int, choices=(0, 1), default=0)
    chk = sub.add_parser("check")
    chk.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args(argv)
    return {"repeat": cmd_repeat, "compare": cmd_compare, "check": cmd_check}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
