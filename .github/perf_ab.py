#!/usr/bin/env python3
"""Same-runner A/B perf gate: this tree's benchmark against a base tree's.

    python3 .github/perf_ab.py BASE_TREE

BASE_TREE is a checkout of the revision to compare against (in CI, a git
worktree of the merge base). Each side runs through its own tree's
benchmark/spread.py run_once and BENCHMARK.json, so command, run length and
correctness checks are that tree's own. PAIRS pairs per workload alternate
which side goes first; pair i uses seed i + 1 on both sides. Gated: every
kernel.<name>.s of a traced `kernels` run, and throughput and p50/tail
latency of untraced `fleet-sweep` and `fleet-status` runs. The gate fails
when a metric's median per-pair worsening factor (change / base, inverted
when higher is better) exceeds 1 + TOLERANCE, or when a metric the base
reports is missing from the change's output.
"""

import importlib.util
import json
import re
import statistics
import sys
from pathlib import Path

PAIRS = 5
TOLERANCE = 3.0
FLEET = re.compile(r"throughput_per_s|latency_p50_ms|latency_tail_ms")
GATES = {  # workload: (--trace, gated metric names)
    "kernels": (1, re.compile(r"kernel\.[a-z_]+\.s")),
    "fleet-sweep": (0, FLEET),
    "fleet-status": (0, FLEET),
}


def load(tree, name):
    """The tree's spread.py as a module, and its BENCHMARK.json."""
    found = importlib.util.spec_from_file_location(name, tree / "benchmark" / "spread.py")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module, json.loads((tree / "BENCHMARK.json").read_text())


def factor(better, base, change):
    worse, than = (change, base) if better == "lower" else (base, change)
    return worse / than if than else float("inf")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sides = {"base": load(Path(sys.argv[1]).resolve(), "spread_base"),
             "change": load(Path(__file__).resolve().parent.parent, "spread_change")}
    base_spec = sides["base"][1]
    better = {m["name"]: m["better"] for m in base_spec["end_to_end"] + base_spec["per_layer"]}
    failed = False
    for workload, (trace, gated) in GATES.items():
        factors = {}
        for i in range(PAIRS):
            got = {}
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                spread, spec = sides[side]
                got[side], _ = spread.run_once(spec, workload, i + 1, trace)
            for name, m in got["base"].items():
                if not gated.fullmatch(name):
                    continue
                if name not in got["change"]:
                    print(f"{workload} pair {i + 1}: {name} missing from the change's output")
                    failed = True
                    continue
                f = factor(better[name], m["value"], got["change"][name]["value"])
                factors.setdefault(name, []).append(f)
            print(f"{workload} pair {i + 1}/{PAIRS} seed {i + 1} done", file=sys.stderr, flush=True)
        for name, fs in sorted(factors.items()):
            median = statistics.median(fs)
            ok = median <= 1 + TOLERANCE
            failed |= not ok
            print(f"{workload:13} {name:28} median worsening x{median:<8.3f} "
                  f"limit x{1 + TOLERANCE:g}  {'ok' if ok else 'WORSE'}", flush=True)
    print("a perf gate fails" if failed else "every perf gate holds")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
