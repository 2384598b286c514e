"""Tiny-size runs of every workload, so the benchmark harness cannot rot.

Timings are never asserted; only the shape of the result, the metric names
and units declared in BENCHMARK.json, and the correctness checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_known_spin_peel_failures_are_counted_not_hidden():
    # the tiny bank stream holds an N = 3, k = 32 bank, whose spin peel fails for most seeds
    failed = []
    for seed in range(3):
        proc = _run(ROOT, "--workload", "bank-certify", "--seed", str(seed), "--seconds", "0.2", "--trace", "0", "--tiny")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed.append(result["failed"])
        assert result["correct"] is True
        assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - result["failed"] / result["attempted"])
    assert any(failed)


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))


@pytest.mark.filterwarnings("ignore:low-pass is not DC-normalized")
@pytest.mark.parametrize("known", [True, False])
def test_only_not_factorable_is_a_known_spin_failure(bench_modules, monkeypatch, tmp_path, known):
    import bank_certify
    import inputs
    from common import Context
    from tracing import Tracer
    from wavebank import loops

    def peel(loop):
        if known:
            raise loops.NotFactorableError("injected", 1.0)
        raise RuntimeError("injected")

    monkeypatch.setattr(loops, "factor_to_spins", peel)
    ctx = Context(tmp_path, Tracer(), True, {})
    case = bank_certify.Case(ctx, 1, 0, 0, inputs.BankSpec(N=2, k=2))
    step = next(s for s in case.run(ctx).steps if s.name == "spin-roundtrip")
    assert not step.ok and step.known is known


def test_inputs_depend_only_on_the_seed(bench_modules):
    import inputs

    spec = inputs.BankSpec(N=3, k=4)
    a = inputs.draw_bank(spec, inputs.rng_for(5, 3, 0, 1)).bank.dense_taps()
    b = inputs.draw_bank(spec, inputs.rng_for(5, 3, 0, 1)).bank.dense_taps()
    c = inputs.draw_bank(spec, inputs.rng_for(6, 3, 0, 1)).bank.dense_taps()
    assert (a == b).all() and a.shape == c.shape and not (a == c).all()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
