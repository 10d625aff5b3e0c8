import hashlib
import json

import numpy as np
import pytest

from jerkmeter import (
    FEATURE_NAMES,
    DetectorConfig,
    FreezeKind,
    FreezePlan,
    add_capture_noise,
    VideoSequence,
    Y4MReader,
    analyze,
    compute_series,
    freeze_threshold,
    inject,
    load_model,
)
from jerkmeter import freeze_detection
from jerkmeter.cli import run

from conftest import make_sequence, y4m_bytes


def run_json(capsys, argv):
    capsys.readouterr()  # drop output of any earlier commands
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


@pytest.fixture
def clip(tmp_path):
    """A 60-frame synthetic source on disk."""
    path = tmp_path / "src.y4m"
    assert run(["synth", "--frames", "60", "--size", "64x16",
                "--out", str(path)]) == 0
    return path


class TestSynth:
    def test_writes_parseable_clip(self, tmp_path, capsys):
        out = tmp_path / "a.y4m"
        doc = run_json(capsys, ["synth", "--frames", "12", "--size", "32x8",
                                "--fps", "30:1", "--out", str(out), "--json"])
        assert doc["frames"] == 12
        with open(out, "rb") as handle:
            seq = VideoSequence.from_reader(Y4MReader(handle))
        assert seq.frame_count == 12
        assert seq.header.width == 32
        assert seq.header.fps == 30.0

    def test_bad_size(self, tmp_path, capsys):
        assert run(["synth", "--frames", "5", "--size", "banana",
                    "--out", str(tmp_path / "x.y4m")]) == 1


class TestDegradeDetect:
    def test_loss_truth_scores_perfectly(self, clip, tmp_path, capsys):
        deg = tmp_path / "deg.y4m"
        truth = tmp_path / "truth.json"
        assert run(["degrade", str(clip), "--kind", "loss",
                    "--events", "10:4,30:6", "--out", str(deg),
                    "--truth", str(truth)]) == 0
        doc = run_json(capsys, ["detect", str(deg), "--truth", str(truth),
                                "--json"])
        assert doc["report"]["detection_rate"] == 1.0
        assert doc["report"]["false_alarm_rate"] == 0.0
        assert doc["events"] == [
            {"start_frame": 10, "duration": 4},
            {"start_frame": 30, "duration": 6},
        ]

    def test_delay_truth_scores_perfectly(self, clip, tmp_path, capsys):
        deg = tmp_path / "deg.y4m"
        truth = tmp_path / "truth.json"
        assert run(["degrade", str(clip), "--kind", "delay",
                    "--events", "10:4,30:6", "--out", str(deg),
                    "--truth", str(truth)]) == 0
        doc = run_json(capsys, ["detect", str(deg), "--truth", str(truth),
                                "--json"])
        assert doc["report"]["detection_rate"] == 1.0
        truth_doc = json.loads(truth.read_text())
        assert truth_doc["schema"] == 1
        assert truth_doc["events"][1]["start_frame"] == 34  # shifted by 4

    @pytest.mark.parametrize("synth,term", [
        (["--velocity", "0", "--noise", "0.01"], "epsilon_abs"),  # static, noisy
        ([], "rel_factor"),
    ])
    def test_threshold_is_the_one_detection_used(self, tmp_path, capsys,
                                                 monkeypatch, synth, term):
        src, deg = tmp_path / "src.y4m", tmp_path / "deg.y4m"
        assert run(["synth", "--frames", "60", "--size", "64x16",
                    "--out", str(src), *synth]) == 0
        assert run(["degrade", str(src), "--kind", "loss", "--events", "10:4,30:3",
                    "--out", str(deg)]) == 0
        calls = []

        def counted(*args):
            calls.append(args)
            return freeze_threshold(*args)

        monkeypatch.setattr(freeze_detection, "freeze_threshold", counted)
        doc = run_json(capsys, ["detect", str(deg), "--json"])
        assert len(calls) == 1
        with open(deg, "rb") as handle:
            series = compute_series(Y4MReader(handle))
        config = DetectorConfig()
        assert doc["threshold"] == freeze_threshold(series, config)
        # max(epsilon_abs, rel_factor * median): which term set it.
        assert (doc["threshold"] == config.epsilon_abs) == (term == "epsilon_abs")
        with open(deg, "rb") as handle:
            events = analyze(Y4MReader(handle)).timeline.events
        assert doc["events"] == [{"start_frame": ev.start_frame, "duration": ev.duration}
                                 for ev in events]
        assert run_json(capsys, ["score", str(deg), "--json"])["events"] == doc["events"]
        features = run_json(capsys, ["features", str(deg), "--json"])
        assert features["NumFz"] == len(events) > 0

    def test_bad_events_string(self, clip, tmp_path):
        assert run(["degrade", str(clip), "--kind", "loss", "--events",
                    "oops", "--out", str(tmp_path / "d.y4m")]) == 1

    def test_out_of_bounds_plan_is_runtime_error(self, clip, tmp_path):
        assert run(["degrade", str(clip), "--kind", "loss", "--events",
                    "59:30", "--out", str(tmp_path / "d.y4m")]) == 2

    def test_capture_noise_output_is_pinned(self, clip, tmp_path):
        # Noise is drawn frame by frame as the clip is written, in the rng
        # order of add_capture_noise on the whole degraded clip.
        deg = tmp_path / "deg.y4m"
        assert run(["degrade", str(clip), "--kind", "loss", "--events", "10:4,30:3",
                    "--capture-noise", "0.02", "--seed", "3", "--out", str(deg)]) == 0
        assert hashlib.sha256(deg.read_bytes()).hexdigest() == (
            "c30c171eebfdcdd2e4bf8a6da76f8c3c6bc46583dc5aa731c2ea0d997df2d002")
        with open(clip, "rb") as handle:
            degraded, _ = inject(VideoSequence.from_reader(Y4MReader(handle)),
                                 FreezePlan(FreezeKind.LOSS, [(10, 4), (30, 3)]))
        assert deg.read_bytes() == y4m_bytes(add_capture_noise(degraded, 0.02, seed=3))


class TestFd:
    def test_json_series(self, clip, capsys):
        doc = run_json(capsys, ["fd", str(clip), "--json"])
        assert doc["frame_count"] == 60
        assert len(doc["values"]) == 59
        assert doc["scene_cuts"] == []
        assert doc["fps"] == 25.0

    def test_human_output(self, clip, capsys):
        assert run(["fd", str(clip)]) == 0
        out = capsys.readouterr().out
        assert "frames: 60" in out


class TestFeatures:
    def test_flat_json(self, clip, tmp_path, capsys):
        deg = tmp_path / "deg.y4m"
        assert run(["degrade", str(clip), "--kind", "loss",
                    "--events", "20:5", "--out", str(deg)]) == 0
        doc = run_json(capsys, ["features", str(deg), "--json"])
        for name in FEATURE_NAMES:
            assert name in doc
        assert doc["NumFz"] == 1.0
        assert doc["frame_count"] == 60
        assert doc["fps"] == 25.0


class TestScore:
    def test_pristine_clip_default_model(self, clip, capsys):
        doc = run_json(capsys, ["score", str(clip), "--json"])
        assert doc["features"]["NumFz"] == 0.0
        assert doc["calibrated"] is False
        assert doc["events"] == []
        assert np.isfinite(doc["dmos_pred"])

    def test_human_mentions_uncalibrated(self, clip, capsys):
        assert run(["score", str(clip)]) == 0
        assert "uncalibrated" in capsys.readouterr().out

    def test_custom_model(self, clip, tmp_path, capsys):
        from jerkmeter import default_model, save_model
        path = tmp_path / "model.json"
        path.write_bytes(save_model(default_model()))
        doc = run_json(capsys, ["score", str(clip), "--model", str(path),
                                "--json"])
        assert "dmos_pred" in doc

    def test_malformed_model_is_runtime_error(self, clip, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}")
        assert run(["score", str(clip), "--model", str(path)]) == 2

    def test_weight_beyond_float_range_is_runtime_error(self, clip, tmp_path,
                                                        capsys):
        from jerkmeter import default_model, save_model
        doc = json.loads(save_model(default_model()))
        doc["hidden"][0][0] = 10**400
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["score", str(clip), "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad model field 'hidden'" in err
        assert "Traceback" not in err


class TestRawInput:
    def test_size_required(self, tmp_path):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(96))
        assert run(["fd", str(raw)]) == 1

    def test_size_flag_reads_raw(self, tmp_path, capsys, rng):
        seq = make_sequence(rng, count=4, width=4, height=2)
        raw = tmp_path / "clip.yuv"
        payload = b"".join(
            f.samples.tobytes() + c for f, c in zip(seq.frames, seq.chroma))
        raw.write_bytes(payload)
        doc = run_json(capsys, ["fd", str(raw), "--size", "4x2", "--json"])
        assert doc["frame_count"] == 4

    def test_size_synth_refuses_stays_valid_for_raw_input(self, tmp_path, capsys):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(range(12)))  # three 1x4 mono frames
        doc = run_json(capsys, ["fd", str(raw), "--size", "1x4", "--chroma", "mono",
                                "--json"])
        assert doc["frame_count"] == 3

    def test_score_raw_matches_y4m(self, clip, tmp_path, capsys):
        with open(clip, "rb") as handle:
            seq = VideoSequence.from_reader(Y4MReader(handle))
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(b"".join(
            f.samples.tobytes() + c for f, c in zip(seq.frames, seq.chroma)))
        from_raw = run_json(capsys, ["score", str(raw), "--size", "64x16",
                                     "--json"])
        assert from_raw == run_json(capsys, ["score", str(clip), "--json"])

    def test_error_names_missing_flag(self, tmp_path, capsys):
        raw = tmp_path / "clip.yuv"
        raw.write_bytes(bytes(96))
        run(["fd", str(raw)])
        assert "--size" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self):
        assert run(["fd", "--bogus"]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_missing_file(self, tmp_path):
        assert run(["fd", str(tmp_path / "nope.y4m")]) == 2

    def test_malformed_container(self, tmp_path):
        bad = tmp_path / "bad.y4m"
        bad.write_bytes(b"not a video")
        assert run(["fd", str(bad)]) == 2

    @pytest.mark.parametrize("name,data,extra", [
        ("huge.y4m", b"YUV4MPEG2 W60000 H60000 F25:1\nFRAME\n" + bytes(13), []),
        ("huge.yuv", bytes(50), ["--size", "60000x60000"]),
    ])
    def test_header_claiming_more_than_the_file(self, tmp_path, name, data,
                                                extra):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["score", str(path), *extra]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize("command,flag,value", [
        ("detect", "--epsilon-abs", "nan"),
        ("score", "--rel-factor", "inf"),
        ("synth", "--noise", "nan"),
        ("degrade", "--capture-noise", "nan"),
        ("eval", "--range", "nan"),
        ("score", "--fps", "bogus"),
    ])
    def test_bad_flag_value_is_usage_error_naming_it(self, clip, tmp_path,
                                                     capsys, command, flag,
                                                     value):
        out = str(tmp_path / "out")
        argv = {"detect": ["detect", str(clip)],
                "score": ["score", str(clip)],
                "synth": ["synth", "--frames", "5", "--out", out],
                "degrade": ["degrade", str(clip), "--kind", "loss",
                            "--events", "10:4", "--out", out],
                "eval": ["eval", "--data", out]}[command]
        capsys.readouterr()
        assert run([*argv, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,form", [
        (["synth", "--frames", "5", "--out", "OUT", "--size", "banana"], "WxH"),
        (["score", "CLIP", "--fps", "bogus"], "N or N:D"),
        (["degrade", "CLIP", "--kind", "loss", "--events", "oops", "--out", "OUT"],
         "START:DURATION"),
        (["train", "--data", "OUT", "--out", "OUT", "--threads", "0"], "at least 1"),
        (["train", "--data", "OUT", "--out", "OUT", "--hidden", "x"],
         "comma-separated integers"),
        (["detect", "CLIP", "--epsilon-abs", "nan"], "a finite number"),
        (["fd", "OUT", "--size", "0x0"], "WxH"),
        (["score", "CLIP", "--fps", "0"], "N or N:D"),
        (["score", "CLIP", "--fps", "25:0"], "N or N:D"),
        (["synth", "--frames", "0", "--out", "OUT"], "at least 1"),
        (["synth", "--frames", "5", "--out", "OUT", "--noise", "-1"],
         "a number from 0 to 1"),
        (["synth", "--frames", "5", "--out", "OUT", "--noise", "2"],
         "a number from 0 to 1"),
        (["degrade", "CLIP", "--kind", "loss", "--events", "10:4", "--out", "OUT",
          "--capture-noise", "2"], "a number from 0 to 1"),
        (["synth", "--frames", "5", "--out", "OUT", "--size", "1x4"],
         "--size: invalid value '1x4', expected WxH, both even and at least 2"),
        (["synth", "--frames", "5", "--out", "OUT", "--size", "3x4"],
         "--size: invalid value '3x4', expected WxH, both even and at least 2"),
        (["synth", "--frames", "5", "--out", "OUT", "--size", "2x3"],
         "--size: invalid value '2x3', expected WxH, both even and at least 2"),
    ])
    def test_bad_flag_value_names_the_expected_form(self, clip, tmp_path, capsys,
                                                     argv, form):
        argv = [{"CLIP": str(clip), "OUT": str(tmp_path / "out")}.get(a, a)
                for a in argv]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert form in err
        assert "_parse_" not in err and "_finite" not in err

    @pytest.mark.parametrize("flag", ["--epsilon-abs", "--rel-factor"])
    def test_negative_detector_setting_is_usage_error(self, clip, capsys, flag):
        # No frame difference is at or below a negative threshold: no events.
        capsys.readouterr()
        assert run(["detect", str(clip), flag, "-1", "--json"]) == 1
        captured = capsys.readouterr()
        assert "must be at least 0" in captured.err
        assert captured.out == ""
        assert run(["detect", str(clip), flag, "0", "--json"]) == 0

    @pytest.mark.parametrize("argv", [
        ["score", "CLIP", "--threads", "2"],
        ["fd", "CLIP", "--seed", "1"],
        ["synth", "--frames", "5", "--out", "OUT", "--pattern", "gradient"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, clip, tmp_path,
                                                        capsys, argv):
        out = tmp_path / "out.y4m"
        argv = [{"CLIP": str(clip), "OUT": str(out)}.get(a, a) for a in argv]
        capsys.readouterr()
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        capsys.readouterr()
        assert run(["train", "--data", str(tmp_path / "none.csv"),
                    "--out", str(tmp_path / "m.json"),
                    "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err


def write_feature_csv(path, rng, count=20):
    rows = []
    for i in range(count):
        feats = {n: float(rng.uniform(0, 3)) for n in FEATURE_NAMES}
        dmos = 1.0 + 0.9 * feats["NumFz"]
        rows.append((f"s{i}", f"src{i % 4}", dmos, feats))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,source_id,dmos," + ",".join(FEATURE_NAMES) + "\n")
        for sid, src, dmos, feats in rows:
            handle.write(f"{sid},{src},{dmos!r},"
                         + ",".join(repr(feats[n]) for n in FEATURE_NAMES)
                         + "\n")


class TestTrainEval:
    def test_train_writes_model_and_ranking(self, tmp_path, capsys, rng):
        csv_path = tmp_path / "samples.csv"
        write_feature_csv(csv_path, rng)
        model_path = tmp_path / "model.json"
        ranking_path = tmp_path / "ranking.csv"
        doc = run_json(capsys, [
            "train", "--data", str(csv_path), "--subset-sizes", "1",
            "--hidden", "1", "--folds", "3", "--seed", "5",
            "--lm-max-iters", "25", "--lm-restarts", "1",
            "--out", str(model_path), "--ranking", str(ranking_path),
            "--threads", "2", "--json",
        ])
        assert doc["combinations"] == 13
        assert doc["best"]["features"] == ["NumFz"]
        model = load_model(model_path.read_bytes())
        assert model.calibrated
        lines = ranking_path.read_text().strip().splitlines()
        assert len(lines) == 14  # header + 13 rows
        assert lines[0].startswith("rank,")

    def test_eval_reports_metrics(self, tmp_path, capsys, rng):
        csv_path = tmp_path / "samples.csv"
        write_feature_csv(csv_path, rng)
        model_path = tmp_path / "model.json"
        assert run(["train", "--data", str(csv_path), "--subset-sizes", "1",
                    "--hidden", "1", "--folds", "3", "--seed", "5",
                    "--lm-max-iters", "25", "--lm-restarts", "1",
                    "--out", str(model_path)]) == 0
        capsys.readouterr()
        doc = run_json(capsys, ["eval", "--data", str(csv_path),
                                "--model", str(model_path), "--json"])
        assert doc["n"] == 20
        assert doc["pcc"] > 0.99
        assert doc["calibrated"] is True

    def test_missing_csv_column_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,dmos\nx,1\n")
        assert run(["train", "--data", str(bad), "--out",
                    str(tmp_path / "m.json")]) == 1

    def test_nan_csv_cell_is_usage_error_naming_its_row(self, tmp_path, rng,
                                                        capsys):
        csv_path = tmp_path / "samples.csv"
        write_feature_csv(csv_path, rng)
        lines = csv_path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["train", "--data", str(csv_path), "--subset-sizes", "1",
                    "--hidden", "1", "--folds", "3",
                    "--out", str(tmp_path / "m.json")]) == 1
        assert "row 5: feature columns must be finite numbers" in \
            capsys.readouterr().err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, clip, tmp_path, capsys):
        deg = tmp_path / "deg.y4m"
        assert run(["degrade", str(clip), "--kind", "loss",
                    "--events", "15:5", "--out", str(deg)]) == 0
        capsys.readouterr()
        assert run(["score", str(deg), "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["score", str(deg), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
