"""Record one entry of the bench trajectory.

    python3 perfbench/record.py --label NAME

Runs every workload of BENCHMARK.json once untraced for each seed of
SEEDS and once traced with TRACE_SEED; then appends to
perfbench/trajectory.json, with the seeds, for every end-to-end metric
the median, quartiles and spread (quartile distance over median) of
both the calibrated values and the raw ones, the same for the
reference-loop time, the traced per-layer breakdown, the workload
descriptors and the environment.  It prints how each median compares
with the entry before.  Run it from the root of a checkout, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "perfbench" / "trajectory.json"
SEEDS = range(301, 311)
TRACE_SEED = 301


def run(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.strip().splitlines()


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []

    entry = {"label": args.label,
             "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "seeds": list(SEEDS), "trace_seed": TRACE_SEED, "run_seconds": seconds,
             "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        refs = []
        failed = attempted = 0
        for seed in SEEDS:
            lines = run(workload, seed, seconds, 0)
            header, result = json.loads(lines[0]), json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in header["raw"].items():
                raw.setdefault(name, []).append(value)
            refs.append(header["reference_ms"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        entry["env"] = header["env"]
        traced = run(workload, TRACE_SEED, seconds, 1)
        entry["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "descriptors": header["descriptors"],
            "end_to_end": {name: stats(vals) for name, vals in values.items()},
            "raw_end_to_end": {name: stats(vals) for name, vals in raw.items()},
            "reference_ms": stats(refs),
            "per_layer": {k: v["value"] for k, v in json.loads(traced[-1])["metrics"].items()},
            "coverage": next(line for line in traced if line.startswith("coverage:")),
        }
    entry["finished"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")

    if len(trajectory) > 1:
        before = trajectory[-2]
        print(f"medians against {before['label']!r}:")
        for workload, now in entry["workloads"].items():
            old = before["workloads"].get(workload, {}).get("end_to_end", {})
            print(workload, {name: round(m["median"] / old[name]["median"] - 1, 4)
                             for name, m in now["end_to_end"].items() if name in old})
    return 0


if __name__ == "__main__":
    sys.exit(main())
