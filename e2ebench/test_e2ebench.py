"""Self-test of the end-to-end benchmark: manifest, layer accounting, minimal runs.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import launch  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_lists_equal_the_runner(manifest):
    assert manifest["workloads"] == [
        {"name": name, "why": why} for name, why in run.WORKLOADS.items()
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in run.PER_LAYER
    ]
    assert manifest["command"] == ["python3", "e2ebench/run.py"]
    assert manifest["paths"] == ["e2ebench"]


def test_every_name_has_a_unit_and_a_direction(manifest):
    names = [entry["name"] for entry in manifest["workloads"]]
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(entry["name"])
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    for entry in manifest["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25, entry
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for entry in manifest["workloads"]:
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in manifest["end_to_end"])


def test_self_time_excludes_children_and_same_layer_calls_nest():
    recorder = launch.Recorder("cold")

    def leaf():
        return sum(range(20_000))

    inner = recorder.wrap("child", leaf)
    same_layer = recorder.wrap("parent", lambda: inner())
    outer = recorder.wrap("parent", lambda: (same_layer(), inner()))
    outer()
    parent_self, parent_total, parent_calls = recorder.layers["cold"]["parent"]
    child_self, child_total, child_calls = recorder.layers["cold"]["child"]
    assert (parent_calls, child_calls) == (1, 2)
    assert child_self == child_total
    assert parent_self == pytest.approx(parent_total - child_total)


def test_every_wrapper_target_exists_in_the_program():
    """A renamed entry point must be renamed here too, not silently dropped."""
    code = (
        "import sys; sys.path.insert(0, 'e2ebench'); import importlib, launch\n"
        "import repro.cli\n"
        "for name in launch.SERVE_MODULES: importlib.import_module(name)\n"
        "print('\\n'.join(launch.install(launch.Recorder('test'))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=str(ROOT), env=run.child_env(),
    )
    installed = set(completed.stdout.split())
    for layer, _, path in launch.TARGETS:
        assert f"{layer}:{path}" in installed
    assert any(label.startswith("inum.eval:") for label in installed)


@pytest.mark.parametrize("workload, trace", [
    ("fig7-star", 0), ("tpch-small", 0), ("fig7-star", 1), ("tpch-small", 1),
])
def test_minimal_run_passes_its_output_check(workload, trace):
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, completed.stdout
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in expected]
    for name, entry in result["metrics"].items():
        if name in run.MAY_BE_ZERO:
            assert entry["value"] >= 0, name
        else:
            assert entry["value"] > 0, name


def test_a_layer_reading_zero_fails_the_run():
    spans = {"installed": [f"{layer}:x" for layer, _, _ in launch.TARGETS] + ["inum.eval:x"]}
    values = {metric.name: 1.0 for metric in run.PER_LAYER}
    assert run.layer_problems(spans, values) == []
    values["inum.eval_ms"] = 0.0
    values["advisor.ilp_nodes"] = 0.0
    assert run.layer_problems(spans, values) == ["inum.eval_ms reads 0.0"]
    spans["installed"] = [label for label in spans["installed"] if label != "inum.compile:x"]
    assert run.layer_problems(spans, values)[0].startswith("layer inum.compile:")


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "e2ebench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "tpch-small"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
