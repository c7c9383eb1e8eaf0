#!/usr/bin/env python3
"""Run the benchmark repeatedly; report each metric's median, quartiles and spread.

    python3 benchmark/spread.py [--runs N] [--workload NAME]... [--seed S]
                                [--same-seed] [--trace 0|1] [--baseline PATH]
                                [--compare PATH]

Runs the command in BENCHMARK.json from the repository root with its
run_seconds, N times per workload (all workloads unless named, taken in
turn), with seeds S, S+1, ... (or S every time with --same-seed). Prints, per
workload and metric, the median, the first and third quartiles (Python's
statistics.quantiles with n=4) and the spread (q3 - q1) / median.

For an end-to-end metric it also prints the bound from BENCHMARK.json and
whether the spread is under a third of it. Every metric's spread must stay
within its bound except setup_s's: set-up is short and timed a few times
per run, so its spread is reported but not gated. Its median is gated like
every other metric's: --compare PATH reads an earlier --baseline file and
flags every metric whose median got worse than the earlier one by more than
its bound.

--baseline writes the figures and the host fingerprint as JSON. Exits
non-zero if a run fails or reports correct=false, or if a gate above fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correct=false\n{out.stdout[-4000:]}")
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
    return result["metrics"], host


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def worsening(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline")
    ap.add_argument("--compare")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    baseline = {"runs": args.runs, "seed": args.seed, "same_seed": args.same_seed,
                "run_seconds": spec["run_seconds"], "host": None, "workloads": {}}
    # Round-robin over workloads, so a slow spell on the host spreads over
    # every workload's runs instead of landing on one workload's set.
    samples = {w: {} for w in workloads}
    for r in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + r
        for w in workloads:
            metrics, host = run_once(spec, w, seed, args.trace)
            baseline["host"] = baseline["host"] or host
            for name, m in metrics.items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"{w} run {r + 1}/{args.runs} seed {seed} done", file=sys.stderr, flush=True)
    steady, gated = True, True
    for w in workloads:
        baseline["workloads"][w] = {}
        for name, values in samples[w].items():
            s = summarize(values)
            baseline["workloads"][w][name] = s
            line = (f"{w:14} {name:28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
            if name in e2e:
                bound = e2e[name]["bound"]
                steady &= s["spread"] < bound / 3
                if name != "setup_s":
                    gated &= s["spread"] <= bound
                line += f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
                old = earlier.get(w, {}).get(name)
                if old:
                    worse = worsening(e2e[name], old["median"], s["median"])
                    gated &= worse <= bound
                    line += f"  vs earlier {worse:+.4f} {'ok' if worse <= bound else 'WORSE'}"
            print(line, flush=True)
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=2) + "\n")
    print("all spreads under a third of their bounds" if steady else "some spreads are wide")
    print("every gate holds" if gated else "a gate fails")
    sys.exit(0 if gated else 1)


if __name__ == "__main__":
    main()
