"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload certify-k13p1 --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each end-to-end
metric the median and the quartile spread (Q3 - Q1) as a share of the
median, next to the metric's bound.  ``raw_wall_s``, the median timed
phase before speed calibration, which ``run.py`` reports on standard
error, is shown for comparison; it has no bound.  Quartiles are those of
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        took = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"] or out["failed"]:
            print(f"seed {seed}: {out['failed']} of {out['attempted']} failed", file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in out["metrics"].items()}
        row["raw_wall_s"] = float(re.search(r"raw wall_s (\S+)", proc.stderr).group(1))
        print(f"seed {seed} ({took:.0f} s): " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':26} {'median':>10} {'iqr/median':>11} {'bound':>6}")
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{k:26} {med:10.4g} {(q3 - q1) / med:11.3f} {bounds.get(k, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
