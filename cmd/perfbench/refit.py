#!/usr/bin/env python3
"""Refit the calibrated clock's exponents (calib.go, workloadGammas).

    perfbench -workload W -seed N -dump >> runs.txt     (many seeds, mixed weather)
    python3 cmd/perfbench/refit.py runs.txt

Reads every summary line that carries -dump's segments and, per workload
and kind of measurement, prints the exponent that puts the runs' metric
(the median over segments of value / f**gamma, as result.go computes it)
closest together: least standard deviation of its logarithm, and least
mean distance from the median with the farthest tenth of the runs left
out. Runs in one kind of weather say nothing; wait for f to span 1.0-1.4.
"""
import json
import math
import statistics as st
import sys

GRID = [g * 0.05 for g in range(61)]


def runs_of(paths):
    runs = {}
    for path in paths:
        for line in open(path):
            line = line.strip()
            if not line.startswith('{"workload"'):
                continue
            r = json.loads(line)
            if r.get("segments"):
                runs.setdefault(r["workload"], []).append(r)
    return runs


def metric(r, kind, g):
    segs = r["segments"]  # [worker, f, ns, allocations, p50 ns, tail ns, low f]
    if kind in ("pause", "wall"):
        i = 1 if kind == "pause" else 2
        return st.median(c[i] / c[0] ** g for c in r["cycle_recs"])
    if kind == "setup":
        v = [ns / f ** g for f, ns in r["set_ups"]]
        return sum(v) if r["workload"] == "program_t" else st.median(v)
    if kind == "rate":
        workers = {}
        for s in segs:
            workers.setdefault(s[0], []).append(s)
        rates = [sum(w[i][3] / (w[i][2] / w[i][1] ** g) for w in workers.values())
                 for i in range(len(workers[0]))]
        return 1 / st.median(rates)
    if kind == "p50Low":
        return st.median(s[4] / s[6] ** g for s in segs)
    return st.median(s[4 if kind == "p50" else 5] / s[1] ** g for s in segs)


def trimmed(logs):
    m = st.median(logs)
    d = sorted(abs(x - m) for x in logs)
    return st.mean(d[:max(1, len(d) * 9 // 10)])


def main():
    for name, rs in runs_of(sys.argv[1:]).items():
        fs = sorted(st.median(s[1] for s in r["segments"]) for r in rs)
        print(f"{name}: {len(rs)} runs, median f {fs[0]:.2f}..{fs[-1]:.2f}")
        for kind in ("p50", "p50Low", "tail", "rate", "pause", "wall", "setup"):
            sd, rob = {}, {}
            for g in GRID:
                logs = [math.log(metric(r, kind, g)) for r in rs]
                sd[g], rob[g] = st.pstdev(logs), trimmed(logs)
            a, b = min(sd, key=sd.get), min(rob, key=rob.get)
            print(f"  {kind:7s} gamma {a:.2f} (sd of log {sd[a]:.3f}; wall clock {sd[0]:.3f})"
                  f"   trimmed: gamma {b:.2f}")


if __name__ == "__main__":
    main()
