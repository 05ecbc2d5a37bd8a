"""Benchmark of the severi command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`
and `BENCHMARK.json`).  The workloads and metrics are declared in
BENCHMARK.json; the generators are in workloads.py, the output checks
in checks.py and the per-layer spans in tracing.py.

This launcher pins the environment of every process it starts: the
same interpreter, no -O, PYTHONPATH=src, PYTHONHASHSEED=0, bytecode
caches written next to the sources, and no SEVERI_BUDGET or
PYTHONOPTIMIZE.  With `--trace 0` it first measures
`setup_s`, the time from starting a fresh interpreter until
`import severi.cli` and `build_parser()` are done, as the median of
SETUP_SAMPLES starts after one warm-up start.  It then starts
worker.py, which runs the workload in-process for `--seconds` of timed
work and writes every output to .bench_out/, and then checks.py, which
checks those outputs in a process of its own.  The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics for `--trace 0` and the
per-layer metrics for `--trace 1`.
The lines before it give the environment, the workload descriptors,
the uncalibrated times and each metric with its unit and sample count.
A run is correct when every output passes its check and, with
`--trace 1`, every traced output equals its untraced one and the
coverage self-check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, reference_loop

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 15
DEADLINE_S = 170    # for the worker and the checker together
SETUP_CODE = ("import sys, severi.cli; severi.cli.build_parser(); "
              "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def pinned_env() -> dict:
    # Bytecode caching is forced on and kept inside the checkout: with
    # PYTHONDONTWRITEBYTECODE set outside, every start would compile the
    # package from source and setup_s and peak_rss_mb would change.
    dropped = ("SEVERI_BUDGET", "PYTHONOPTIMIZE", "PYTHONSTARTUP", "PYTHONHOME",
               "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0")
    return env


def time_setup(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def measure_setup(env: dict) -> tuple[float, float]:
    """Calibrated and raw median of SETUP_SAMPLES fresh starts, after one
    warm-up start so that compiling the bytecode cache is not counted.
    Reference samples taken between the starts give the calibration."""
    time_setup(env)
    raw, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs += [reference_loop() for _ in range(3)]
        raw.append(time_setup(env))
    return statistics.median(raw) * NOMINAL_S / statistics.median(refs), statistics.median(raw)


def run_child(args: list[str], env: dict, deadline: float) -> dict | None:
    """Run a benchmark script under `env`; its last stdout line as JSON."""
    name = Path(args[0]).name
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"run.py: {name} did not end within {DEADLINE_S} s of the run", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run.py: {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "severi" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: {ROOT} is not a severi checkout (src/severi and BENCHMARK.json needed)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = pinned_env()
    if not args.trace:
        setup_s, setup_raw = measure_setup(env)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    stem = f".bench_out/{args.workload}-{args.seed}-{args.trace}"
    run_args = ["--workload", args.workload, "--seed", str(args.seed)]
    worker = ["perfbench/worker.py", *run_args, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--outputs", f"{stem}-outputs.jsonl"]
    if args.trace:
        worker += ["--spans", f"{stem}-spans.jsonl"]
    deadline = perf_counter() + DEADLINE_S
    result = run_child(worker, env, deadline)
    if result is None:
        return 3
    checked = run_child(["perfbench/checks.py", *run_args, "--outputs", f"{stem}-outputs.jsonl"],
                        env, deadline)
    if checked is None:
        return 3
    for reason in checked["reasons"]:
        print("FAIL", reason, file=sys.stderr)
    failed = len(set(checked["failed_ids"]) | set(result["mismatched"]))

    samples = {name: result["attempted"] for name in ("latency_p50_ms", "latency_p90_ms",
                                                      "fail_ratio")}
    samples.update(wall_s=result["batches"], peak_rss_mb=1, setup_s=SETUP_SAMPLES)
    units = {m["name"]: m["unit"] for m in wanted}
    raw = {}
    if args.trace:
        values = result["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=setup_s,
                      fail_ratio=failed / result["attempted"])
        raw = dict(result["raw"], setup_s=setup_raw)
        units["fail_ratio"] = "1"

    print(json.dumps({"env": {"python": platform.python_version(),
                              "implementation": platform.python_implementation(),
                              "nproc": os.cpu_count(),
                              "affinity_cpus": len(os.sched_getaffinity(0))},
                      "workload": args.workload, "seed": args.seed,
                      "batches": result["batches"],
                      "descriptors": result["descriptors"],
                      "raw": raw, "reference_ms": result.get("reference_ms")}))
    missing = [name for name in units if name not in values]
    if missing:
        print(f"run.py: worker did not report {missing}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        count = samples.get(name, result["batches"])
        line = f"{name:<44} {values[name]:>14.6g} {unit:<12} n={count}"
        print(line + (f"  raw {raw[name]:.6g}" if name in raw else ""))
    if not args.trace:
        print(f"reference loop median {result['reference_ms']:.4g} ms "
              f"(nominal {1000 * NOMINAL_S:g} ms); times above are calibrated to nominal")
    if result["mismatched"]:
        print(f"{len(result['mismatched'])} traced outputs differ from their untraced ones")
    correct = failed == 0 and checked["checked"] == result["attempted"]
    if args.trace:
        gaps = result["coverage_missing"]
        print("coverage: " + ("ok" if not gaps else "MISSING " + ", ".join(gaps)))
        print(f"spans: {result['spans']} written to .bench_out/")
        correct = correct and not gaps
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
