"""Smoke runs of the experiment scripts, at sizes that finish in seconds.

The scripts import the public API, so a renamed or removed name breaks
them here rather than silently. ``project_paper_search.py`` has no size
flags (it times a fixed 24-structure sample of the paper-default search)
and is left out. ``ab_perfbench.py`` runs the benchmark on its tiny
inputs, with this checkout on both sides.
"""

import importlib.util
import json
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_detection_sweep(capsys):
    sweep = load_script("detection_sweep")
    assert sweep.main(["--plans", "3", "--frames", "60", "--noise", "0,0.01"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split()[0]) for row in rows] == [0.0, 0.01]
    # Noiseless injected freezes are all found, with no false alarms.
    assert [float(v) for v in rows[0].split()[1:]] == [1.0, 0.0]


def test_train_synthetic_demo(tmp_path, capsys):
    demo = load_script("train_synthetic_demo")
    assert demo.main(["--samples", "20", "--subset-sizes", "2", "--hidden", "1",
                      "--folds", "2", "--out-dir", str(tmp_path)]) == 0
    assert "whole-corpus fit" in capsys.readouterr().out
    model = json.loads((tmp_path / "model.json").read_text())
    assert len(model["features"]) == 2 and len(model["hidden"]) == 1
    assert (tmp_path / "ranking.csv").read_text().count("\n") == 1 + 78  # C(13, 2)


def test_ab_perfbench(tmp_path, capsys):
    ab = load_script("ab_perfbench")
    out = tmp_path / "ab.json"
    root = str(SCRIPTS.parent)
    assert ab.main([root, root, "--workload", "score_long_small", "--pairs", "2",
                    "--seconds", "0.2", "--size", "tiny", "--seed", "5",
                    "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "call_ms" in printed and "failed operations: parent 0, change 0" in printed
    doc = json.loads(out.read_text())
    assert [p["seed"] for p in doc["pairs"]] == [5, 6]
    assert [p["first"] for p in doc["pairs"]] == ["parent", "change"]
    assert set(doc["summary"]) == {"setup_s", "call_ms", "peak_rss_mb"}
    for metric in doc["summary"].values():
        assert metric["pairs"] == 2 and 0 <= metric["change_better_pairs"] <= 2
        assert metric["parent"]["q1"] <= metric["parent"]["median"] <= metric["parent"]["q3"]
