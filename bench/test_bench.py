"""Tests of the benchmark itself: span arithmetic, smoke runs, traced outputs.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import spans as sp
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1):
    return sp.Span(name, float(start), float(end), parent, -1)


def test_self_times_of_a_synthetic_tree():
    tree = [
        _span("root", 0, 10),
        _span("a", 1, 4, parent=0),
        _span("a.child", 2, 3, parent=1),
        _span("b", 5, 7, parent=0),
        _span("b.first", 5, 6, parent=3),
        _span("b.second", 6, 7, parent=3),
    ]
    selfs = sp.self_times(tree)
    assert selfs == pytest.approx([5.0, 2.0, 1.0, 0.0, 1.0, 1.0])
    assert sum(selfs) == pytest.approx(tree[0].duration)


def test_tracer_nests_spans_under_ops_and_restores_patches():
    ticks = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))
    lib = SimpleNamespace(inner=lambda x: x + 1)
    lib.step = lambda x: lib.inner(x) * 2
    original = vars(lib)["inner"]
    tracer.patch(lib, "step", "step", op=True, note=lambda args: lambda out: (args[0], out))
    tracer.patch(lib, "inner", "inner")
    assert tracer.run("root", lambda: lib.step(1) + lib.step(2)) == 10
    tracer.restore()
    assert vars(lib)["inner"] is original
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("root", -1, -1), ("step", 0, 0), ("inner", 1, 0),
                     ("step", 0, 1), ("inner", 3, 1)]
    assert [s.note for s in tracer.spans if s.name == "step"] == [(1, 4), (2, 6)]
    assert sum(sp.self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert sp.tail_percentile(20_000) == 99.9
    assert sp.tail_percentile(9_999) == 99.0
    assert sp.tail_percentile(9_999, ceiling=90.0) == 90.0
    assert sp.tail_percentile(40) == 50.0


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(wl.DEFAULT_SEED), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke():
    """One smoke-size untraced and traced run of every workload."""
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail_path = ROOT / ".bench_work" / "results" / (
                f"{workload}-seed{wl.DEFAULT_SEED}-trace{trace}.json")
            out[workload, trace] = (proc.stdout, result, json.loads(detail_path.read_text()))
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_emits_every_metric(smoke, workload, trace):
    stdout, result, _detail = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for name in result["metrics"]:
        assert any(line.startswith(name + " ") for line in stdout.splitlines())
    assert "failed_frac" in stdout


@pytest.mark.parametrize("workload, taped, masked", [
    (wl.TRAIN_M2, 2, 3), (wl.TRAIN_M8, 2, 255), (wl.DIAGNOSE, 0, 1),
])
def test_traced_calls_per_op_match_the_pass_budget(smoke, workload, taped, masked):
    metrics = smoke[workload, 1][1]["metrics"]
    assert metrics["model.taped.calls_per_op"]["value"] == taped
    assert metrics["model.masked.calls_per_op"]["value"] == masked


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_does_not_change_the_outputs(smoke, workload):
    reps = smoke[workload, 1][2]["reps"]
    assert {r["traced"] for r in reps} == {False, True}
    assert all(r["digest"] == reps[0]["digest"] for r in reps)
    assert smoke[workload, 0][2]["reps"][0]["digest"] == reps[0]["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(wl.TRAIN_M2, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
