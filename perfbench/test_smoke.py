"""Smoke test of the benchmark's own code (not part of the repository suite):

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a few steps, traced and untraced, checks that each
declared metric is reported with its declared unit, and that a broken
reference makes the correctness gate fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT_STEPS = {"sector128-rk4": 3, "lattice32-rk4": 2, "sector64-imex": 1,
               "sphere64-rk4": 200}


def declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_declared_workloads_are_the_benchmarks():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(SHORT_STEPS)


@pytest.mark.parametrize("name", sorted(SHORT_STEPS))
def test_workload_reports_every_metric_and_gates(name, tmp_path):
    workload, steps = WORKLOADS[name], SHORT_STEPS[name]
    workdir = str(tmp_path / "work")
    reference = run.build_reference(workload, 3, workdir, steps)

    references = {3: reference}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(workload, [3], 0.0, trace, workdir, references,
                                  steps=steps)
        assert result["correct"] and result["failed"] == 0, result
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared(key)

    broken = run.run_workload(workload, [3], 0.0, False, workdir,
                              {3: reference * 1.05}, steps=steps)
    assert not broken["correct"]
    assert broken["failed"] == broken["attempted"]


def test_self_time_excludes_children():
    spans = [["flow.step", 0.0, 10.0, -1, False],
             ["flow.rhs", 1.0, 4.0, 0, False],
             ["operators.div_form", 2.0, 3.0, 1, False],
             ["operators.linear_solve", 5.0, 9.0, 0, True]]
    out = summarize({"spans": spans, "counters": {"matvecs": 7}})
    assert out["steps"] == 1 and out["matvecs"] == 7
    assert out["spans"]["flow.step"]["self_s"] == 3.0
    assert out["spans"]["flow.rhs"]["self_s"] == 2.0
    assert out["spans"]["operators.div_form"]["calls_in_step"] == 1
    assert out["spans"]["operators.linear_solve"]["failed"] == 1


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sector128-rk4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
