"""The benchmark's own test: the whole harness on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "3",
         "--seconds", "0.2", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def test_one_command_runs_every_workload_with_every_end_to_end_metric():
    code, doc, err = bench("--workload", "all", "--trace", "0")
    assert code == 0, err
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 3
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCH["end_to_end"]}
    assert set(doc["metrics"]) == expected
    for name, metric in doc["metrics"].items():
        assert metric["value"] > 0, name
    for name in ("setup_s", "call_ms", "peak_rss_mb", "error_rate", "score_fps",
                 "train_s", "best_cv_mse"):
        assert f"  {name} " in err, name
    assert "host: nproc" in err


def test_traced_run_reports_every_layer_where_it_is_exercised():
    layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    exercised = {
        "score_long_small": ("video_io.frames", "frame_analysis.fd_us_per_pair",
                             "freeze_detection.events", "cli.self_ms"),
        "train_search": ("training.cv_calls", "training.solves",
                         "training.cpu_per_wall", "training.final_fit_ms"),
    }
    for workload, names in exercised.items():
        code, doc, err = bench("--workload", workload, "--trace", "1")
        assert code == 0, err
        assert doc["correct"], err
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == layers
        for name in names:
            assert doc["metrics"][name]["value"] > 0, (workload, name)
        assert "trace.overhead_ms" in doc["metrics"]


def test_planted_wrong_output_raises_error_rate():
    code, doc, err = bench("--workload", "score_long_small", "--fault")
    assert code == 1
    assert not doc["correct"]
    assert doc["failed"] >= 1
    assert "FAILED" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, doc, _ = bench("--workload", WORKLOADS[0], cwd=str(tmp_path))
    assert code != 0
    assert doc is None
