"""Tests of the benchmark itself.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q bench

Smoke runs use ``--seconds 0``: one round, or one untraced and one traced
round with ``--trace 1``.  Gate tests corrupt one result of each workload
and check that the failure is counted in ``fail_ratio``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as runner
import sunmesh as sm
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ORIGINAL_RECONSTRUCT = sm.reconstruct


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("name", runner.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_item_smoke_run_prints_every_metric_with_its_unit(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"{m['name']} ") and line.split()[2] == m["unit"] for line in lines[:-1]
        ), m["name"]
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines)
    assert any(line.startswith("item_p50_ms ") and line.split()[2] == "ms" for line in lines) == (trace == 0)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "mesh_roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, beyond = runner.tail([float(x) for x in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)


def corrupt_run(monkeypatch, cls, corrupt):
    """Make ``cls.run`` hand ``corrupt(index, output)`` to the gate."""
    original = cls.run

    def run(self, inp):
        return corrupt(inp, original(self, inp))

    monkeypatch.setattr(cls, "run", run)


def measure_one_round(name, tmp_path):
    return runner.run_workload(name, 5, 0, False, tmp_path)


def bump(key, scale=1.0 + 1e-6):
    def corrupt(inp, out):
        out[key] = out[key] * scale
        return out

    return corrupt


@pytest.mark.parametrize(
    "cls, corrupt",
    [
        (wl.MeshRoundtrip, bump("canonical")),
        (wl.MeshRoundtrip, bump("clements")),
        (wl.MeshRoundtrip, bump("reck")),
        (wl.HaarSampling, lambda inp, u: u * np.where(np.arange(len(u)) == 7, 1.001, 1.0)[:, None, None]),
        (wl.HaarSampling, lambda inp, u: u * (1.0 + 1e-15)),
        (wl.PhotonLift, bump("big", 1.0001)),
        (wl.PhotonLift, bump("permanents")),
    ],
    ids=["canonical", "clements", "reck", "haar-unitarity", "haar-slab", "lift-unitarity", "lift-routes"],
)
def test_gates_count_a_wrong_in_process_result(monkeypatch, tmp_path, cls, corrupt):
    corrupt_run(monkeypatch, cls, corrupt)
    result = measure_one_round(cls.name, tmp_path)
    assert (result["attempted"], result["failed"], result["fail_ratio"]) == (1, 1, 1.0)


def with_stdout(change):
    """Change the stdout of the first item (decompose | lift)."""

    def corrupt(inp, out):
        if inp["index"] == 0:
            out["stdout"] = change(out["stdout"])
        return out

    return corrupt


def with_exit(code):
    def corrupt(inp, out):
        if inp["index"] == 0:
            out["codes"][-1] = code
        return out

    return corrupt


def lift_dimension(stdout):
    doc = json.loads(stdout)
    doc["provenance"]["dimension"] = 20
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "corrupt",
    [with_exit(1), with_stdout(lambda s: s[:-10]), with_stdout(lift_dimension)],
    ids=["exit-code", "parse", "dimension"],
)
def test_gates_count_a_wrong_pipeline_result(monkeypatch, tmp_path, corrupt):
    corrupt_run(monkeypatch, wl.CliPipeline, corrupt)
    result = measure_one_round("cli_pipeline", tmp_path)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["fail_ratio"] == pytest.approx(1 / 3)


def test_gate_counts_a_pipeline_whose_rerun_differs(tmp_path):
    workload = wl.CliPipeline(5, ROOT, tmp_path)
    workload.prepare()
    problems = []
    for index in range(2 * workload.round_size):
        inp = workload.make_input(index)
        out = workload.run(inp)
        if index == 3:
            out["stdout"] += b" "
        problems.append(workload.check(inp, out))
    assert [bool(p) for p in problems] == [False, False, False, True, False, False]
    assert "differs from the first run" in problems[3][0]


def test_statistical_reject_is_noted_not_failed(monkeypatch, tmp_path):
    def reject(inp, out):
        if inp["kind"] == 2:
            doc = json.loads(out["stdout"])
            doc["passed"] = False
            out = {**out, "codes": [3], "stdout": json.dumps(doc).encode()}
        return out

    corrupt_run(monkeypatch, wl.CliPipeline, reject)
    result = measure_one_round("cli_pipeline", tmp_path)
    assert result["failed"] == 0
    assert result["notes"]["statistical_rejects"] == 1


class TracedOrNot(wl.Workload):
    """Each item reports whether it ran with the tracer installed."""

    round_size = 2

    def make_input(self, index):
        return index

    def run(self, index):
        return self.tracer is not None and sm.reconstruct is not ORIGINAL_RECONSTRUCT

    def check(self, index, traced):
        return [] if traced == (index // self.round_size % 2 == 1) else [f"traced={traced}"]


def test_traced_run_alternates_untraced_and_traced_rounds(tmp_path):
    measured = runner.measure(TracedOrNot(5, ROOT, tmp_path), 0, Tracer())
    assert measured["problems"] == []
    assert (len(measured["times"]), len(measured["traced_times"])) == (2, 2)
    assert measured["rounds"] == {2: 1, 3: 1}
    assert sm.reconstruct is ORIGINAL_RECONSTRUCT


def test_traced_runs_at_one_seed_count_the_same_calls(tmp_path):
    first, second = (
        runner.run_workload("photon_lift", 9, 0, True, tmp_path / name) for name in ("a", "b")
    )
    for key, metric in first["metrics"].items():
        if key.endswith(".calls") or key.endswith("analytic_ratio"):
            assert second["metrics"][key] == metric, key
    assert first["metrics"]["symrep.permanent_ryser.calls"]["value"] == 35 * 35
