"""The braidforms benchmark: one workload, one seed, end-to-end or traced.

    python3 benchmarks/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from a checkout: the package is imported from its src/ directory.
With --trace 0 it reports the end-to-end metrics: throughput, median
and tail op latency, import set-up time (median over fresh
interpreters) and peak RSS.  Times are scaled to a reference host
speed by a kernel probed between ops (see speed.py); the report also
prints the raw figures.  With --trace 1 it runs the workload for
half of --seconds untraced and half traced, each in a fresh process on the
same inputs, and reports per-layer calls, self and total time, counters
and the tracing overhead.  A human-readable report comes first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from tracer import LAYER_FUNCTIONS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 15
IMPORT_PROBE = ("import time; s = time.perf_counter(); import {0}; "
                "print(time.perf_counter() - s)")
SIZE_NAMES = {"verify_sweep": "sum |t|", "invariants_mix": "sum letters",
              "census_cli": "sum census words"}


def child_env() -> dict:
    # A fixed hash seed keeps set and dict layout, and so timing, alike across runs.
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def setup_seconds(module: str) -> tuple[list[float], list[float]]:
    """Import times in fresh interpreters, raw and scaled to the reference host."""
    raw, midpoints = [], []
    probes = speed.Probes()
    for _ in range(SETUP_PROBES):
        probes.take()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        midpoints.append((start + perf_counter()) / 2)
        raw.append(float(proc.stdout))
    probes.take()
    return raw, [s * f for s, f in zip(raw, probes.factors(midpoints))]


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    config = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "ops", json.dumps(config)],
                          env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 40)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def describe(result: dict, workload: str, label: str) -> None:
    lat = result["latencies"]
    n = len(lat)
    print(f"[{label}] ops {n}, failed {result['failed']}, failed_frac "
          f"{result['failed'] / n:.4g}, busy {sum(lat):.3f} s, "
          f"{SIZE_NAMES[workload]} {result['input_size']:.0f}, import {result['import_s']:.4f} s")
    print(f"[{label}] raw: {n / sum(lat):.4g} ops/s, p50 {1000 * statistics.median(lat):.4g} ms, "
          f"tail {1000 * tail(lat)[0]:.4g} ms; median probe {1000 * result['probe_s']:.4g} ms "
          f"against {1000 * speed.REF_S:g} ms on the reference host")
    print(f"[{label}] inputs sha256 {result['inputs_sha256']}")
    print(f"[{label}] output sha256 over the first {result['prefix_ops']} ops {result['digest']}")
    if result["exhausted"]:
        print(f"[{label}] warning: the run used every generated input")
    for error in result["errors"]:
        print(f"[{label}] FAILED {error}")


def end_to_end(result: dict, setup_raw: list[float], setup: list[float]) -> dict:
    lat = result["scaled"]
    tail_s, tail_pct = tail(lat)
    print(f"op_tail_ms is the p{tail_pct:.2f} latency: 10 of {len(lat)} samples lie beyond it")
    print(f"setup_s is the median of {len(setup)} fresh imports, scaled: "
          + " ".join(f"{s:.4f}" for s in sorted(setup)))
    print("setup raw: " + " ".join(f"{s:.4f}" for s in sorted(setup_raw)))
    return {
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    rows, counters = traced["trace"]
    spans: dict[str, list] = {}
    for name, _, calls, total, self_time in rows:
        s = spans.setdefault(name, [0, 0.0, 0.0])
        s[0] += calls
        s[1] += total
        s[2] += self_time
    ops = len(traced["scaled"])
    op_total = spans["op"][1]
    self_sum = sum(s for _, _, s in spans.values())
    print(f"{'span':32} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name in sorted(spans):
        calls, total, self_time = spans[name]
        print(f"{name:32} {calls:9d} {total:10.4f} {self_time:10.4f}")
    print(f"self times sum to {self_sum:.6f} s; traced op time {op_total:.6f} s")
    print("self_s by input-size bucket:")
    for name, bucket, calls, _, self_time in sorted(rows, key=lambda r: (len(r[1]), r[1], r[0])):
        print(f"  {bucket:10} {name:32} {calls:9d} {self_time:10.4f}")
    for key in sorted(counters):
        print(f"counter {key} {counters[key]}")

    def hit_ratio(name: str) -> float:
        hits, misses = counters.get(name + ".hits", 0), counters.get(name + ".misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    k = min(len(plain["scaled"]), ops)
    overhead = sum(traced["scaled"][:k]) / sum(plain["scaled"][:k])
    print(f"tracing overhead: {overhead:.4f}x op time over the first {k} ops of both runs")
    metrics = {}
    for name in ("op", *LAYER_FUNCTIONS):
        calls, total, self_time = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_pct"] = (100 * self_time / op_total, "%")
        if name != "op":
            metrics[f"{name}.total_pct"] = (100 * total / op_total, "%")
    for name in ("braid3.burau", "braid3.phi"):
        metrics[f"{name}.letters"] = (counters.get(f"{name}.letters", 0), "count")
        metrics[f"{name}.calls_per_op"] = (spans.get(name, (0,))[0] / ops, "1/op")
    metrics["sl2z.decompose_st.syllables"] = (counters.get("sl2z.decompose_st.syllables", 0), "count")
    metrics["quadforms.enumerate_classes.forms"] = (
        counters.get("quadforms.enumerate_classes.forms", 0), "count")
    metrics["quadforms.enumerate_classes.hit_ratio"] = (hit_ratio("quadforms.enumerate_classes"), "ratio")
    metrics["counts.trace_classes.hit_ratio"] = (hit_ratio("counts.trace_classes"), "ratio")
    metrics["cli.child_wall_pct"] = (100 * spans.get("cli.child_wall", (0, 0.0))[1] / op_total, "%")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.throughput_ops_s"] = (ops / sum(traced["scaled"]), "1/s")
    metrics["trace.untraced_throughput_ops_s"] = (
        len(plain["scaled"]) / sum(plain["scaled"]), "1/s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "braidforms" / "__init__.py").is_file():
        print(f"error: no braidforms package under {SRC}", file=sys.stderr)
        return 2
    module = WORKLOADS[args.workload].imports
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        results = [run_worker(args.workload, args.seed, args.seconds / 2, trace)
                   for trace in (False, True)]
        for result, label in zip(results, ("untraced", "traced")):
            describe(result, args.workload, label)
        metrics = per_layer(*results)
    else:
        results = [run_worker(args.workload, args.seed, args.seconds, False)]
        describe(results[0], args.workload, "run")
        metrics = end_to_end(results[0], *setup_seconds(module))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
