#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py once
untraced and twice traced with the same seed, and checks that

  * each run succeeds, is correct and has no failed ops;
  * each run prints every declared metric with its declared unit
    (run.py validates names and units against BENCHMARK.json);
  * the per-layer counts documented as exact repeat exactly.

Takes about three minutes.  Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# Untraced runs need 1000 requests for the windowed p99; traced runs
# always finish the fixed prefix their exact counts cover.
SECONDS = {0: 8, 1: 1}

# Per-layer counts that must repeat exactly for a fixed seed.
EXACT = {
    "kv_zipf": ["app.accesses_per_op", "app.dummy_op_frac",
                "crypto.aes_blocks_per_access",
                "crypto.mac_tags_per_access"],
    "split_64m": ["sdimm.channel_bytes_per_access",
                  "sdimm.local_bytes_per_access", "sdimm.shadow_stash_max",
                  "crypto.aes_blocks_per_access",
                  "crypto.mac_tags_per_access", "crypto.mac_batch_frac"],
    "sim_fig8": ["sim.cycles.freecursive", "sim.cycles.indep2",
                 "sim.cycles.split2", "sim.norm_time.indep2",
                 "sim.norm_time.split2", "dram.bursts_per_record",
                 "sim.access_orams_per_record"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS[trace]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s trace=%d: correct=%s failed=%d\n%s" % (
            workload, trace, result["correct"], result["failed"],
            proc.stdout))
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        run(name, 0)
        first, second = run(name, 1), run(name, 1)
        for metric in EXACT[name]:
            a, b = first[metric]["value"], second[metric]["value"]
            if a != b:
                sys.exit("FAIL %s: %s is %r then %r" % (name, metric, a, b))
        print("ok %s: %s" % (name, ", ".join(
            "%s=%g" % (m, first[m]["value"]) for m in EXACT[name])))
    print("smoke test passed")


if __name__ == "__main__":
    main()
