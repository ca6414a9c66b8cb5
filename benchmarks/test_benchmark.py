"""Tests of the benchmark itself.  Run with: python3 -m pytest benchmarks"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import speed
import tracer as tracing
import worker
from run import SRC
from workloads import WORKLOADS, CensusCli, InvariantsMix, VerifySweep

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(SRC))


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def bench(workload: str, seconds: str, trace: str) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", seconds, "--trace", trace],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_failures(workload):
    result = bench(workload, "0.5", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    result = bench("invariants_mix", "1", "1")
    assert result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["braid3.burau.calls_per_op"] == 2 and metrics["braid3.phi.calls_per_op"] == 3
    self_pct = sum(v for k, v in metrics.items() if k.endswith(".self_pct"))
    assert self_pct == pytest.approx(100.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = WORKLOADS[workload]().inputs
    assert worker.inputs_sha256(make(7)) == worker.inputs_sha256(make(7))
    assert worker.inputs_sha256(make(7)) != worker.inputs_sha256(make(8))


def test_corrupted_invariants_document_is_a_failed_op():
    class Corrupted(InvariantsMix):
        def run(self, spec):
            code, out = super().run(spec)
            doc = json.loads(out)
            doc["eps"] += 1
            return code, json.dumps(doc)

    specs = InvariantsMix().inputs(1)[:5]
    assert worker.measure(InvariantsMix(), specs, 60)["failed"] == 0
    assert worker.measure(Corrupted(), specs, 60)["failed"] == 5


def test_truncated_invariants_document_is_a_failed_op():
    class Truncated(InvariantsMix):
        def run(self, spec):
            code, out = super().run(spec)
            return code, out[:-5]

    assert worker.measure(Truncated(), InvariantsMix().inputs(1)[:3], 60)["failed"] == 3


def test_wrong_residue_is_a_failed_op():
    class WrongResidue(VerifySweep):
        def classes(self, t):
            (form, residue), *rest = super().classes(t)
            return [(form, (residue + 1) % 12), *rest]

    specs = [3, -7, 40]
    assert worker.measure(VerifySweep(), specs, 60)["failed"] == 0
    assert worker.measure(WrongResidue(), specs, 60)["failed"] == 3


def test_census_checks():
    doc = {"schema": checks.SCHEMA, "command": "census", "t": 3, "n": 0, "max_len": 10,
           "census": 1, "x_count": 1, "gap": 0}
    seen: dict = {}
    assert checks.check_census(3, 0, 10, 0, json.dumps(doc), seen) is None
    assert checks.check_census(3, 0, 10, 1, json.dumps(doc), {}) is not None
    assert checks.check_census(3, 0, 10, 0, json.dumps({**doc, "census": 2, "gap": -1}), {}) is not None
    lower = {**doc, "max_len": 12, "census": 0, "gap": 1}
    assert checks.check_census(3, 0, 12, 0, json.dumps(lower), seen) is not None


def test_census_op_is_checked(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    census = CensusCli()
    result = worker.measure(census, [[3, 0, 6], [3, 0, 7]], 60)
    assert result["failed"] == 0 and sorted(census.seen[(3, 0)]) == [6, 7]


def test_rademacher_residue_on_generators():
    assert checks.rademacher_residue(1, 1, 0, 1) == 1     # S
    assert checks.rademacher_residue(1, 0, -1, 1) == 1    # T
    assert checks.rademacher_residue(-1, 0, 0, -1) == 6   # (ST)^3 = -I
    assert checks.rademacher_residue(0, 1, -1, 1) == 2    # ST


def test_install_wraps_every_layer_function():
    t = tracing.Tracer()
    tracing.install(t)
    from braidforms import cli, counts
    with t.op("all"), contextlib.redirect_stdout(io.StringIO()):
        counts.check_main_identity(5, counts.default_sweep_exponent(5))
        assert cli.main(["invariants", "1 2 -1", "--format", "json"]) == 0
        assert cli.main(["census", "3", "0", "--max-len", "5", "--format", "json"]) == 0
    names = {row[0] for row in t.dump()[0]}
    assert set(tracing.LAYER_FUNCTIONS) <= names


def test_self_times_add_up_to_op_time():
    t = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    leaf = t.wrap("leaf", leaf)
    mid = t.wrap("mid", lambda x: leaf(x) + leaf(x))
    with t.op("b"):
        mid(20000)
    rows, _ = t.dump()
    spans = {name: (calls, total, self_time) for name, _, calls, total, self_time in rows}
    assert spans["leaf"][0] == 2 and spans["mid"][0] == 1
    assert sum(s for _, _, s in spans.values()) == pytest.approx(spans["op"][1])
    leaf(10)  # outside an op: not recorded
    assert t.dump()[0] == rows


def test_speed_factors_use_the_nearest_probes():
    probes = speed.Probes()
    ref = speed.REF_S
    probes.samples = [(float(t), d) for t, d in enumerate([ref] * 5 + [2 * ref] * 5)]
    early, late = probes.factors([1.0, 8.6])
    assert early == pytest.approx(1.0) and late == pytest.approx(0.5)
    assert probes.factors([-3.0, 30.0]) == pytest.approx([1.0, 0.5])


def test_scaled_latencies_follow_the_raw_ones():
    result = worker.measure(VerifySweep(), [3, -7, 40, 11], 60)
    assert len(result["scaled"]) == len(result["latencies"]) == 4
    ratios = [s / r for s, r in zip(result["scaled"], result["latencies"])]
    # a run this short has fewer than NEAREST probes, so all of them scale every op
    assert all(r == pytest.approx(speed.REF_S / result["probe_s"]) for r in ratios)
