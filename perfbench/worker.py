"""One benchmark run: drive `severi.cli.main(argv)` in this process as a
single closed-loop client (next item only after the previous returns),
time every item, write every output to `--outputs`, and print one JSON
result line.  The outputs are checked afterwards by checks.py in a
process of its own, so that this process's peak memory and garbage are
the workload's alone.

Started by run.py with a pinned environment; run it through run.py.

Batches of the workload are run until the timed work reaches
`--seconds` and at least MIN_ITEMS items were timed.  The reference
loop (reference.py) is timed before every item, outside the item's
timing, and each item's time is calibrated by the median reference
time of the items around it.  With `--trace 1` each batch runs twice
with the same inputs, untraced and traced, in alternating order from
batch to batch; both runs count toward `--seconds`, and an item whose
traced output differs from its untraced one is reported as mismatched.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import severi.cli as cli_mod

from reference import NOMINAL_S, factors, reference_loop
from tracing import SPAN_NAMES, Tracer
from workloads import WORKLOADS

MIN_ITEMS = 100     # so the 90th percentile has at least ten samples beyond it
WARMUP_ITEMS = 20
REF_WINDOW = 8      # items on each side whose reference samples calibrate an item

# Per-layer metrics that must be nonzero on each workload, and the one
# that must stay zero off its workload.
COVERAGE = {
    "positive_lowest": [
        "braid.pinf_positive.self_ms", "braid.pinf_positive.calls",
        "braid.parse_braid.self_ms", "braid.parse_braid.calls",
        "braid.letters", "braid.identity_partitions",
        "genus_transform.local_transform.self_ms", "genus_transform.local_transform.calls",
        "models.conjecture_check.self_ms", "models.conjecture_check.calls",
        "models.catalog.self_ms", "models.catalog.calls",
        "cli.main.self_ms", "cli.output_bytes",
    ],
    "mixed_homfly": [
        "braid.pinf_positive.self_ms", "braid.pinf_positive.calls",
        "braid.jaeger_homfly.self_ms", "braid.jaeger_homfly.calls",
        "braid.parse_braid.self_ms", "braid.parse_braid.calls",
        "braid.letters", "braid.identity_partitions",
        "laurent.poly2_arith.self_ms", "laurent.poly2_arith.calls",
        "laurent.divide_unknot.self_ms", "laurent.divide_unknot.calls",
        "laurent.lowest_a_part.self_ms", "laurent.lowest_a_part.calls",
        "laurent.output_terms",
        "cli.main.self_ms", "cli.output_bytes",
    ],
    "euler_series": [
        "laurent.poly1_arith.self_ms", "laurent.poly1_arith.calls",
        "laurent.expand_rational.self_ms", "laurent.expand_rational.calls",
        "genus_transform.local_transform.self_ms", "genus_transform.local_transform.calls",
        "genus_transform.combine_local.self_ms", "genus_transform.combine_local.calls",
        "staircase.count_staircases.self_ms", "staircase.count_staircases.calls",
        "staircase.model_series.self_ms", "staircase.model_series.calls",
        "staircase.ade_nh.self_ms", "staircase.ade_nh.calls",
        "staircase.ade_closed_vector.self_ms", "staircase.ade_closed_vector.calls",
        "dynkin.independence_counts.self_ms", "dynkin.independence_counts.calls",
        "dynkin.dynkin_nh.self_ms", "dynkin.dynkin_nh.calls",
        "cli.main.self_ms", "cli.output_bytes",
    ],
}
ZERO_OFF_WORKLOAD = {"staircase.count_staircases.calls": "euler_series"}

COUNTERS = ("braid.letters", "braid.identity_partitions", "laurent.output_terms",
            "cli.output_bytes")


@dataclass(slots=True)
class Timed:
    """One item's outcome: raw seconds, exit code, captured streams, and
    the reference time taken just before it."""

    seconds: float
    code: int | str
    stdout: str | None
    stderr: str | None
    ref: float


def run_batch(items, tracer: Tracer | None = None, first_id: int = 0) -> list[Timed]:
    """Time each item's main(argv) call, with stdout and stderr captured."""
    records = []
    for offset, item in enumerate(items):
        ref = reference_loop()
        if tracer is not None:
            tracer.item = first_id + offset
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli_mod.main(list(item.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        records.append(Timed(elapsed, code, out.getvalue(), err.getvalue(), ref))
    return records


def run_traced(tracer: Tracer, items, first_id: int) -> list[Timed]:
    tracer.install()
    try:
        return run_batch(items, tracer, first_id)
    finally:
        tracer.uninstall()


def calibrated(batches: list[list[Timed]]) -> list[list[float]]:
    """Each item's seconds scaled to the nominal host speed."""
    flat = [r for batch in batches for r in batch]
    scale = iter(factors([r.ref for r in flat], REF_WINDOW))
    return [[r.seconds * next(scale) for r in batch] for batch in batches]


def per_layer(tracer: Tracer, batches: int, scale: float, overhead_s: float) -> dict:
    """Per-batch averages of the traced run; times scaled by `scale`."""
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = tracer.self_s[name] * scale * 1000 / batches
        metrics[f"{name}.calls"] = tracer.calls[name] / batches
    for name in COUNTERS:
        metrics[name] = tracer.counts[name] / batches
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def coverage(workload: str, metrics: dict) -> list[str]:
    """Names of per-layer metrics that break the coverage rule."""
    bad = [name for name in COVERAGE[workload] if not metrics.get(name)]
    bad += [name for name, home in ZERO_OFF_WORKLOAD.items()
            if home != workload and metrics.get(name)]
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--outputs", required=True, help="file to write the outputs to")
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args()
    if sys.flags.optimize or "SEVERI_BUDGET" in os.environ:
        print("worker: needs no -O and no SEVERI_BUDGET", file=sys.stderr)
        return 2

    generate = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    plain_batches, traced_batches, mismatched = [], [], []
    seen, repeated, deep_checked, deep_eligible = set(), 0, 0, 0
    letters, strands, orders = [], [], []
    # A few untimed items outside the seeded stream first, so the
    # interpreter's specialisation and lazy imports do not land in batch 0.
    run_batch(generate(args.seed, -1)[:WARMUP_ITEMS])
    measured = 0.0
    with open(args.outputs, "w") as outputs:
        while measured < args.seconds or sum(map(len, plain_batches)) < MIN_ITEMS:
            batch = len(plain_batches)
            items = generate(args.seed, batch)
            first_id = batch * len(items)
            traced_first = tracer is not None and batch % 2 == 1
            if traced_first:
                traced = run_traced(tracer, items, first_id)
            records = run_batch(items)
            if tracer is not None and not traced_first:
                traced = run_traced(tracer, items, first_id)
            plain_batches.append(records)
            measured += sum(r.seconds for r in records)
            if tracer is not None:
                traced_batches.append(traced)
                measured += sum(r.seconds for r in traced)
                tracer.counts["cli.output_bytes"] += sum(len(r.stdout.encode()) for r in traced)

            for offset, (item, r) in enumerate(zip(items, records)):
                key = tuple(item.argv)
                repeated += key in seen
                seen.add(key)
                if item.letters:
                    letters.append(item.letters)
                    strands.append(item.strands)
                if item.order:
                    orders.append(item.order)
                if item.kind == "pinf":
                    deep_eligible += 1
                    deep_checked += item.deep
                if tracer is not None and (traced[offset].code, traced[offset].stdout) != (
                        r.code, r.stdout):
                    mismatched.append(first_id + offset)
                outputs.write(json.dumps({"batch": batch, "code": r.code, "stdout": r.stdout,
                                          "stderr": r.stderr}) + "\n")
            # Keep only the timings, so the process's memory does not grow with run length.
            for r in records + (traced if tracer is not None else []):
                r.stdout = r.stderr = None

    attempted = sum(map(len, plain_batches))
    result = {
        "attempted": attempted,
        "mismatched": mismatched,
        "batches": len(plain_batches),
        "descriptors": {
            "items": attempted,
            "items_per_batch": len(plain_batches[0]),
            "repeated_share": repeated / attempted,
            "braid_items": len(letters),
            "letters_mean": statistics.fmean(letters) if letters else 0,
            "letters_max": max(letters, default=0),
            "strands_mean": statistics.fmean(strands) if strands else 0,
            "series_items": len(orders),
            "order_mean": statistics.fmean(orders) if orders else 0,
            "order_max": max(orders, default=0),
            "pinf_full_sum_checked_share": deep_checked / deep_eligible if deep_eligible else 0,
        },
    }
    plain = calibrated(plain_batches)
    if tracer is None:
        raw = [[r.seconds for r in batch] for batch in plain_batches]
        result["end_to_end"] = summary(plain)
        result["end_to_end"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["raw"] = summary(raw)
        result["reference_ms"] = 1000 * statistics.median(
            r.ref for batch in plain_batches for r in batch)
    else:
        traced_cal = calibrated(traced_batches)
        overhead = statistics.median(sum(t) - sum(p) for t, p in zip(traced_cal, plain))
        refs = [r.ref for batch in traced_batches for r in batch]
        metrics = per_layer(tracer, len(traced_batches), NOMINAL_S / statistics.median(refs),
                            overhead)
        result["per_layer"] = metrics
        result["coverage_missing"] = coverage(args.workload, metrics)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def summary(batches: list[list[float]]) -> dict:
    """wall_s and per-item latency percentiles of a run's item times."""
    latencies = [t for batch in batches for t in batch]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"wall_s": statistics.median(sum(batch) for batch in batches),
            "latency_p50_ms": deciles[4] * 1000,
            "latency_p90_ms": deciles[8] * 1000}


if __name__ == "__main__":
    sys.exit(main())
