"""Tests of the benchmark itself: ``python3 -m pytest nebench -q``.

The manifest checks are instant.  The smoke runs execute each workload
with a one-second budget, which still runs one full round (~1.5 min in
total, plus world generation on first use).
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
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import manifest  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "nebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in MANIFEST[section]}


def test_manifest_follows_the_rules():
    assert manifest.check(MANIFEST) == []


def test_manifest_rejects_bad_names_and_limits():
    broken = json.loads(json.dumps(MANIFEST))
    broken["per_layer"][0]["name"] = "bad name!"
    broken["workloads"] = broken["workloads"] * 3
    problems = manifest.check(broken)
    assert any("bad name" in p for p in problems)
    assert any("workloads must have" in p for p in problems)


def test_manifest_declares_what_the_benchmark_measures():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(bench.WORKLOADS)
    assert declared("end_to_end") == bench.END_TO_END
    assert declared("per_layer") == {**bench.PER_LAYER, **bench.TRACE_ONLY}
    assert MANIFEST["command"] == ["python3", "nebench/run.py"]
    assert MANIFEST["paths"] == ["nebench"]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["unit"] for name, m in result["metrics"].items()}
    assert metrics == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = result_of(run("--workload", "ingest-1x", "--seed", "7", "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True
    metrics = {name: m["unit"] for name, m in result["metrics"].items()}
    assert metrics == declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Stage 1 leads self time on the 1x world.
    stage1 = values["meta.match_score.self_ms"] + values["core.generate_queries.self_ms"]
    assert stage1 > values["core.acg.shortest_hops.self_ms"]
    assert values["service.batch_size"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "nebench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    completed = run("--workload", "ingest-1x", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
