"""One measured phase of one workload, in a fresh interpreter.

    python3 worker.py ops '{"workload": ..., "seed": ..., "seconds": ..., "trace": ...}'
    python3 worker.py census-child <braidforms census arguments>

``ops`` imports the package, runs the ops of a run of ``seconds`` one
at a time (see measure), checks each output outside the
timed interval, and prints one JSON result line.  ``census-child`` is
the traced stand-in for `python -m braidforms.cli`: it runs the CLI
under the tracer and reports its spans on stderr after TRACE_MARKER.
It expects the package on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import resource
import sys
from time import perf_counter

import speed
import tracer as tracing
from workloads import TRACE_MARKER, WORKLOADS


def inputs_sha256(specs: list) -> str:
    return hashlib.sha256(json.dumps(specs).encode()).hexdigest()


def measure(workload, specs: list, seconds: float, tracer=None) -> dict:
    """Closed loop over specs; every op is checked, and failures are counted.

    The run is a fixed amount of work: the first ``seconds`` times
    ``workload.rate`` ops, which take about ``seconds`` on the reference
    host, so that two runs of a seed, or two commits, time the same ops.
    It stops early if the wall time, checks included, reaches twice
    ``seconds`` plus 10 s.  Host-speed probes run between ops (see
    speed.py), and ``scaled`` holds each latency scaled to the
    reference host.
    """
    latencies: list[float] = []
    midpoints: list[float] = []
    probes = speed.Probes()
    errors: list[str] = []
    who = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
    peak_rss_kb = None
    digest = hashlib.sha256()
    input_size = 0.0
    wall_end = perf_counter() + 2 * seconds + 10
    for spec in specs[:max(1, round(seconds * workload.rate))]:
        if perf_counter() > wall_end:
            break
        probes.maybe()
        span = tracer.op(workload.bucket(spec)) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                output = workload.run(spec)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, f"raised {exc!r}"
        elapsed = perf_counter() - start
        latencies.append(elapsed)
        midpoints.append(start + elapsed / 2)
        input_size += workload.size(spec)
        if error is None:
            try:
                error = workload.check(spec, output)
            except Exception as exc:
                error = f"check raised {exc!r}"
        if len(latencies) <= workload.prefix_ops:
            digest.update(workload.canonical(spec, output) if error is None else b"failed")
            digest.update(b"\0")
        if len(latencies) == workload.prefix_ops:
            peak_rss_kb = resource.getrusage(who).ru_maxrss
        if error is not None:
            errors.append(f"op {len(latencies) - 1} {spec!r:.120}: {error}")
    probes.take()
    return {
        "latencies": latencies,
        "scaled": [lat * f for lat, f in zip(latencies, probes.factors(midpoints))],
        "probe_s": probes.median_s(),
        "failed": len(errors),
        "errors": errors[:5],
        "exhausted": len(latencies) == len(specs),
        "input_size": input_size,
        "digest": digest.hexdigest(),
        "prefix_ops": min(len(latencies), workload.prefix_ops),
        "peak_rss_mb": (peak_rss_kb or resource.getrusage(who).ru_maxrss) / 1024,
        "trace": tracer.dump() if tracer else None,
    }


def run_ops(config: dict) -> dict:
    workload = WORKLOADS[config["workload"]]()
    specs = workload.inputs(config["seed"])
    start = perf_counter()
    importlib.import_module(workload.imports)
    import_s = perf_counter() - start
    tracer = None
    if config["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if workload.child_processes:
            workload.tracer = tracer
    result = measure(workload, specs, config["seconds"], tracer)
    result.update(import_s=import_s, inputs_sha256=inputs_sha256(specs))
    return result


def census_child(argv: list[str]) -> int:
    tracer = tracing.Tracer()
    with tracer.op("", name=tracing.CHILD_ROOT):
        from braidforms import cli
        tracing.install(tracer)
        code = cli.main(argv)
    spans, counters = tracer.dump()
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps([spans, counters]) + "\n")
    return code


def main() -> int:
    if sys.argv[1] == "census-child":
        return census_child(sys.argv[2:])
    print(json.dumps(run_ops(json.loads(sys.argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
