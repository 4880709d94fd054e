"""Smoke tests of the benchmark itself: coarse inputs, a few seconds each.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def smoke(workload, trace=0, cwd=ROOT):
    proc, lines = bench("--workload", workload, "--seed", "0", "--seconds",
                        "1", "--trace", str(trace), "--smoke", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(lines[-1]), lines


def checkout(tmp_path, with_sources=True):
    """Copy what the benchmark needs into a fresh directory."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def assert_printed(lines, metrics, declared):
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in metrics.items()}
    for m in declared:
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines)


@pytest.mark.parametrize("workload", sorted(run.FULL))
def test_end_to_end_metrics_print_with_units(workload):
    result, lines = smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert_printed(lines, result["metrics"], BENCHMARK["end_to_end"])
    assert any(line.startswith("failed_frac ") for line in lines)
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def test_per_layer_metrics_print_with_units():
    result, lines = smoke("fv-secondary-sweep", trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert_printed(lines, metrics, BENCHMARK["per_layer"])
    value = lambda name: metrics[name]["value"]
    assert value("fv.cg_calls") >= 2 and value("fv.cg_iterations") > 0
    assert value("trace.unmeasured_layers") == 0
    assert value("fv.cg_s") + value("fv.solve_self_s") == pytest.approx(
        value("fv.solve_s"), rel=1e-9)
    assert value("studies.evaluate_design_calls") == 2


def test_wrong_reference_trips_gate(tmp_path):
    path = checkout(tmp_path) / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    points = refs["smoke"]["fv-secondary-sweep"]
    points[sorted(points)[0]] += 2e-6
    path.write_text(json.dumps(refs))
    result, lines = smoke("fv-secondary-sweep", cwd=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_frac"]["value"] == 0.5
    assert any(line.startswith("FAILED") and "misses reference" in line
               for line in lines)


def test_seeded_inputs():
    assert run.workload_inputs("fv-primary", 0, False)["velocities"] == [
        0.5, 1.1, 2.9]
    drawn = run.workload_inputs("fv-secondary-sweep", 7, False)["velocities"]
    assert drawn == run.workload_inputs("fv-secondary-sweep", 7,
                                        False)["velocities"]
    for v, v0 in zip(drawn, [0.8, 1.1, 1.4, 2.9]):
        assert abs(v / v0 - 1) <= 0.0201  # rounded to 4 decimals
    grid = run.workload_inputs("network-optimize", 7, False)
    assert 0.5 <= grid["v_min"] <= 0.505


def test_exits_nonzero_without_sources(tmp_path):
    checkout(tmp_path, with_sources=False)
    proc, lines = bench("--workload", "network-optimize", "--seed", "0",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
