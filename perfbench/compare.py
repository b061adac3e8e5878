#!/usr/bin/env python3
"""Compare two sets of benchmark runs recorded with `run.py --record`.

    python3 perfbench/compare.py base.jsonl change.jsonl

For every (workload, metric) pair it prints each side's median and
quartiles, the change of the median, and a verdict against the metric's
bound in BENCHMARK.json:

  ok          the change's median is not worse than the base's by more
              than the bound
  WORSE       it is worse by more than the bound
  unresolved  the base's own spread (quartile distance over median) is
              wider than the bound, so the base cannot tell a change within
              the bound from one beyond it, and not every change run beats
              every base run
  -           per-layer metric: no bound, figures only

Records are compared only when their environment headers agree in
everything but the git sha and the seed (which varies between runs by
design). Exit status: 0 every bounded pair ok, 1 some pair WORSE, 2 refused,
3 no pair WORSE but some unresolved (rerun the base on a quieter machine or
with more runs). The summary line counts each verdict.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VARYING = ("sha", "seed")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load(path):
    """{workload: (header key, {metric: [values]})} from a JSONL record file."""
    out = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            env = rec["env"]
            key = json.dumps({k: v for k, v in env.items() if k not in VARYING},
                             sort_keys=True)
            wl = env["workload"]
            if wl in out and out[wl][0] != key:
                raise ValueError("%s:%d: header differs from earlier %s runs: %s"
                                 % (path, n, wl, key))
            if not rec["result"]["correct"]:
                raise ValueError("%s:%d: run failed its output check" % (path, n))
            metrics = out.setdefault(wl, (key, {}))[1]
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def verdict(base, change, bound, better):
    """Verdict and signed change of the median (positive = worse)."""
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (mc - mb) / mb if mb else 0.0
    if bound is None:
        return "-", worse
    if spread(base) > bound:
        beats = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
        return ("ok" if beats else "unresolved"), worse
    return ("WORSE" if worse > bound else "ok"), worse


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        base, change = load(argv[1]), load(argv[2])
    except ValueError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    counts = {"ok": 0, "WORSE": 0, "unresolved": 0}
    for wl in sorted(set(base) & set(change)):
        if base[wl][0] != change[wl][0]:
            print("refused: %s headers differ beyond sha/seed:\n  %s\n  %s"
                  % (wl, base[wl][0], change[wl][0]), file=sys.stderr)
            return 2
        print("== %s (%d vs %d runs)" % (wl, len(next(iter(base[wl][1].values()))),
                                         len(next(iter(change[wl][1].values())))))
        print("  %-36s %12s %12s %12s | %12s %12s %12s | %8s  %s"
              % ("metric", "base q1", "median", "q3", "change q1", "median", "q3",
                 "worse", "verdict"))
        for name, vb in base[wl][1].items():
            vc = change[wl][1].get(name)
            if vc is None or name not in declared:
                continue
            m = declared[name]
            v, worse = verdict(vb, vc, m.get("bound"), m["better"])
            if v in counts:
                counts[v] += 1
            qb, qc = quartiles(vb), quartiles(vc)
            print("  %-36s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.1f%%  %s"
                  % ((name,) + qb + qc + (100 * worse, v)))
    print("%d ok, %d WORSE, %d unresolved" % (counts["ok"], counts["WORSE"], counts["unresolved"]))
    if counts["WORSE"]:
        return 1
    return 3 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
