#!/usr/bin/env python3
"""Seeded mutation gate: each catalog entry breaks one contract, and the
workspace suite must fail with it applied.

    python3 .github/mutants.py [SCRATCH_DIR]

Copies this tree's tracked and unignored files into SCRATCH_DIR (default:
a new temporary directory), checks that `cargo test --workspace --locked`
passes there unmutated, then applies the entries one at a time, runs the
suite and restores the file. Entries under crates/kernels/ run with
--release, where the AVX2 twins execute vectorized code; the others run in
debug. A mutant is killed when the suite fails (a timeout counts as a
failure) and survives when it passes. The gate fails when any mutant
survives or when an entry's old text does not occur exactly once in its
file. A surviving entry stays in the catalog; the test that would kill it
is what is missing.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800

MUTANTS = [
    {
        "file": "crates/fleet/src/job.rs",
        "old": "b.ppw.total_cmp(&a.ppw).then_with(|| a.server.cmp(&b.server))",
        "new": "a.ppw.total_cmp(&b.ppw).then_with(|| a.server.cmp(&b.server))",
        "breaks": "job::rank orders the §V ranking best PPW first",
    },
    {
        "file": "crates/fleet/src/job.rs",
        "old": "b.ppw.total_cmp(&a.ppw).then_with(|| a.server.cmp(&b.server))",
        "new": "b.ppw.total_cmp(&a.ppw).then_with(|| b.server.cmp(&a.server))",
        "breaks": "job::rank breaks PPW ties by server name, ascending",
    },
    {
        "file": "crates/fleet/src/router.rs",
        "old": "        job::rank(&mut rows);\n        Ok(rows)",
        "new": "        Ok(rows)",
        "breaks": "the router's merged ranking is the one a single daemon reports",
    },
    {
        "file": "crates/fleet/src/pool.rs",
        "old": "_ if n > 1 => 1 + self.next_lane.fetch_add(1, Ordering::Relaxed) % (n - 1),",
        "new": "_ if n > 1 => self.next_lane.fetch_add(1, Ordering::Relaxed) % n,",
        "breaks": "reads keep off the pool lane a drain holds, so statuses answer during a drain",
    },
    {
        "file": "crates/telemetry/src/monitor.rs",
        "old": "pub const SPIKE_SIGMA: f64 = 6.0;",
        "new": "pub const SPIKE_SIGMA: f64 = 4.0;",
        "breaks": "the monitor reports one power spike per program edge",
    },
    {
        "file": "crates/machine/src/cache.rs",
        "old": "        ways.copy_within(..way, 1);\n"
               "        ways[0] = if hit { old } else { key } | u64::from(write);\n",
        "new": "        if hit {\n"
               "            ways[way] = old | u64::from(write);\n"
               "        } else {\n"
               "            ways.copy_within(..way, 1);\n"
               "            ways[0] = key | u64::from(write);\n"
               "        }\n",
        "breaks": "a hit moves its line to the front of the set (LRU, not FIFO)",
    },
    {
        "file": "crates/machine/src/cache.rs",
        "old": "(line % self.parts == self.part).then(",
        "new": "(line % self.parts == self.part + 1).then(",
        "breaks": "part r of a set-split hierarchy replays exactly the lines ≡ r (mod parts)",
    },
    {
        "file": "crates/kernels/src/simd.rs",
        "old": "6.0 * uc[i] - uxm[i] - uxp[i]",
        "new": "6.0 * uc[i] - uxp[i] - uxm[i]",
        "breaks": "stencil7 subtracts its legs in the documented order",
    },
]


def suite(tree, release):
    """True when the workspace suite passes in `tree`."""
    cmd = ["cargo", "test", "-q", "--workspace", "--locked"] + (["--release"] if release else [])
    try:
        run = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def copy_tree(dest):
    """Copy the files git would commit (tracked plus unignored) to `dest`.

    Copies take fresh mtimes (`shutil.copy`, not `copy2`): when `dest`
    holds builds from an earlier run, each restored file must look newer
    than the mutant build made from it, or cargo reuses that build.
    """
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, dest / name)


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    tree = Path(sys.argv[1] if len(sys.argv) == 2 else tempfile.mkdtemp(prefix="mutants-"))
    tree.mkdir(parents=True, exist_ok=True)
    copy_tree(tree)

    failed = False
    for m in MUTANTS:
        count = (tree / m["file"]).read_text().count(m["old"])
        if count != 1:
            print(f"ERROR {m['file']}: old text occurs {count} times: {m['old']!r}")
            failed = True
    if failed:
        sys.exit(1)

    for release in sorted({m["file"].startswith("crates/kernels/") for m in MUTANTS}):
        if not suite(tree, release):
            sys.exit(f"the unmutated suite fails (release={release}); nothing to measure")

    for m in MUTANTS:
        path = tree / m["file"]
        original = path.read_text()
        path.write_text(original.replace(m["old"], m["new"]))
        release = m["file"].startswith("crates/kernels/")
        started = time.monotonic()
        try:
            survived = suite(tree, release)
        finally:
            path.write_text(original)
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:8} {m['file']}: {m['breaks']} ({time.monotonic() - started:.0f} s)",
              flush=True)
        failed |= survived
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
