"""Command-line front end.

One executable, eight subcommands covering the whole pipeline:

  synth     generate a synthetic test clip
  degrade   inject freeze events with exact ground truth
  fd        frame-difference series and scene cuts
  detect    freeze events (optionally scored against ground truth)
  features  the 13 freeze/motion features
  score     predicted DMOS for a clip
  train     fit a model from an annotated CSV
  eval      correlation metrics of a model against an annotated CSV

Exit codes: 0 success, 1 bad usage or invalid configuration, 2 runtime
failure (unreadable input, malformed video, numerical breakdown). With
--json every result is a single JSON document on stdout carrying
"schema": 1; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Iterator

import numpy as np

from .degradation import FreezeKind, FreezePlan, capture_noise_frames, gradient_video, inject
from .errors import ConfigError, JerkmeterError
from .eval_metrics import evaluate
from .features import FEATURE_NAMES, analyze
from .frame_analysis import compute_series
from .freeze_detection import DetectorConfig, FreezeEvent, FreezeTimeline, score_detection
from .pool import cpu_count
from .quality_model import default_model, load_model, save_model, score_features
from .training import (
    LMConfig,
    SearchConfig,
    _finite_float,
    exhaustive_search,
    load_samples_csv,
)
from .video_io import ChromaFormat, VideoHeader, VideoSequence, Y4MReader, write_y4m

JSON_SCHEMA = 1

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _expects(form: str):
    """Make a flag value parser's ValueError a usage error naming ``form``."""
    def wrap(parse):
        def convert(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid value {text!r}, expected {form}") from None
        return convert
    return wrap


def _at_least_1(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _size(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return _at_least_1(w), _at_least_1(h)


@_expects("WxH, both even and at least 2")
def _parse_even_size(text: str) -> tuple[int, int]:
    """A size ``synth`` can write: its ramp needs width 2, its 4:2:0 even sides."""
    width, height = _size(text)
    if width % 2 or height % 2:
        raise ValueError(text)
    return width, height


@_expects("N or N:D, both at least 1")
def _parse_fps(text: str) -> tuple[int, int]:
    num, sep, den = text.partition(":")
    return _at_least_1(num), _at_least_1(den) if sep else 1


@_expects("comma-separated START:DURATION pairs")
def _parse_events(text: str) -> list[tuple[int, int]]:
    events = []
    for part in filter(str.strip, text.split(",")):
        start, duration = part.split(":")
        events.append((int(start), int(duration)))
    if not events:
        raise ValueError("no events")
    return events


@_expects("a number from 0 to 1")
def _parse_density(text: str) -> float:
    density = float(text)
    if not 0.0 <= density <= 1.0:
        raise ValueError(text)
    return density


@_expects("comma-separated integers")
def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


_parse_size = _expects("WxH, both at least 1")(_size)
_parse_count = _expects("an integer of at least 1")(_at_least_1)
_parse_finite = _expects("a finite number")(_finite_float)


@contextlib.contextmanager
def _open_video(path: str, args) -> Iterator[Y4MReader]:
    """Stream the input clip: Y4M by extension, else raw YUV per --size."""
    header = None
    if not path.lower().endswith(".y4m"):
        if args.size is None:
            raise ConfigError("raw YUV input requires --size WxH")
        (width, height), (fps_num, fps_den) = args.size, args.fps
        header = VideoHeader(width=width, height=height, fps_num=fps_num,
                             fps_den=fps_den, chroma=ChromaFormat(args.chroma))
    with open(path, "rb") as handle:
        yield Y4MReader(handle, header)


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(epsilon_abs=args.epsilon_abs, rel_factor=args.rel_factor)


def _analyze_input(args):
    """Analyze the input clip on the CPUs this process may run on."""
    with _open_video(args.input, args) as reader:
        return analyze(reader, config=_detector_config(args), workers=cpu_count())


def _load_model_arg(args):
    if args.model is None:
        return default_model()
    with open(args.model, "rb") as handle:
        return load_model(handle.read())


def _timeline_doc(timeline: FreezeTimeline) -> dict:
    return {
        "frame_count": timeline.frame_count,
        "fps": timeline.fps,
        "events": [
            {"start_frame": ev.start_frame, "duration": ev.duration}
            for ev in timeline.events
        ],
    }


def _json_number(value, kinds=(int,)):
    """``value`` if it is finite and its type is one of ``kinds`` (bool is not)."""
    if type(value) not in kinds or not -math.inf < value < math.inf:
        raise TypeError(f"expected a finite {kinds[-1].__name__}, got {value!r}")
    return value


def _timeline_from_doc(handle) -> FreezeTimeline:
    """The timeline of a truth JSON file; any malformation is a ConfigError.

    Frame numbers must be JSON integers and fps a finite JSON number.
    """
    try:
        doc = json.load(handle)
        events = [FreezeEvent(_json_number(ev["start_frame"]), _json_number(ev["duration"]))
                  for ev in doc["events"]]
        return FreezeTimeline(events=events, frame_count=_json_number(doc["frame_count"]),
                              fps=float(_json_number(doc.get("fps", 0.0), (int, float))))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"malformed truth file: {exc}")


def _emit(args, doc: dict, human) -> None:
    if args.json:
        print(json.dumps({"schema": JSON_SCHEMA, **doc}, indent=2))
    else:
        human(doc)


# --- subcommand bodies ----------------------------------------------------

def _cmd_synth(args) -> int:
    width, height = args.size
    seq = gradient_video(
        frame_count=args.frames, width=width, height=height,
        fps=args.fps, noise=args.noise, seed=args.seed,
        velocity=args.velocity,
    )
    with open(args.out, "wb") as handle:
        write_y4m(seq, handle)
    _emit(args, {"out": args.out, "frames": seq.frame_count,
                 "width": width, "height": height},
          lambda d: print(f"wrote {d['frames']} frames to {d['out']}"))
    return 0


def _cmd_degrade(args) -> int:
    plan = FreezePlan(kind=FreezeKind(args.kind), events=args.events)
    with _open_video(args.input, args) as reader:
        seq = VideoSequence.from_reader(reader)
    degraded, truth = inject(seq, plan)
    frames = degraded.frames
    if args.capture_noise > 0.0:
        # Noisy frames are made as they are written: one is alive at a time.
        frames = capture_noise_frames(frames, args.capture_noise, seed=args.seed)
    with open(args.out, "wb") as handle:
        write_y4m(degraded, handle, frames)
    truth_doc = {"schema": JSON_SCHEMA, "kind": args.kind, **_timeline_doc(truth)}
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as handle:
            json.dump(truth_doc, handle, indent=2)
            handle.write("\n")
    _emit(args, {"out": args.out, "truth": args.truth, "kind": args.kind,
                 "events": truth_doc["events"]},
          lambda d: print(f"wrote {d['out']} with {len(d['events'])} "
                          f"{d['kind']}-type freeze events"))
    return 0


def _cmd_fd(args) -> int:
    with _open_video(args.input, args) as reader:
        series = compute_series(reader, workers=cpu_count())
    doc = {
        "frame_count": series.frame_count,
        "fps": reader.header.fps,
        "values": [float(v) for v in series.values],
        "scene_cuts": [int(i) for i in np.flatnonzero(series.scene_cut_flags)],
    }

    def human(d):
        values = np.array(d["values"])
        print(f"frames: {d['frame_count']}  transitions: {values.size}")
        print(f"fd mean: {values.mean():.4f}  max: {values.max():.4f}")
        print(f"scene cuts: {d['scene_cuts']}")

    _emit(args, doc, human)
    return 0


def _cmd_detect(args) -> int:
    timeline = _analyze_input(args).timeline
    doc = {"threshold": timeline.threshold, **_timeline_doc(timeline)}
    if args.truth:
        with open(args.truth, encoding="utf-8") as handle:
            truth = _timeline_from_doc(handle)
        report = score_detection(timeline, truth)
        doc["report"] = {
            "total_true": report.total_true,
            "correctly_detected": report.correctly_detected,
            "detection_rate": report.detection_rate,
            "false_alarms": report.false_alarms,
            "false_alarm_rate": report.false_alarm_rate,
        }

    def human(d):
        print(f"threshold: {d['threshold']:.6f}")
        if not d["events"]:
            print("no freeze events")
        for ev in d["events"]:
            print(f"freeze at frame {ev['start_frame']}, "
                  f"{ev['duration']} frames")
        if "report" in d:
            r = d["report"]
            print(f"detection rate: {r['detection_rate']:.4f}  "
                  f"false alarm rate: {r['false_alarm_rate']:.4f}")

    _emit(args, doc, human)
    return 0


def _cmd_features(args) -> int:
    result = _analyze_input(args)
    doc = dict(result.features.as_dict())
    doc["frame_count"] = result.timeline.frame_count
    doc["fps"] = result.timeline.fps

    def human(d):
        for name in FEATURE_NAMES:
            print(f"{name:>10}: {d[name]:.6f}")

    _emit(args, doc, human)
    return 0


def _cmd_score(args) -> int:
    model = _load_model_arg(args)
    result = _analyze_input(args)
    score = score_features(result.features, model)
    doc = {
        "dmos_pred": score.dmos_pred,
        "calibrated": score.calibrated,
        "features": result.features.as_dict(),
        "events": _timeline_doc(result.timeline)["events"],
    }

    def human(d):
        tag = "" if d["calibrated"] else " (uncalibrated)"
        print(f"predicted dmos: {d['dmos_pred']:.4f}{tag}")
        print(f"freeze events: {len(d['events'])}")

    _emit(args, doc, human)
    return 0


def _cmd_train(args) -> int:
    samples = load_samples_csv(args.data, detector_config=_detector_config(args))
    lm = LMConfig(max_iters=args.lm_max_iters, restarts=args.lm_restarts)
    config = SearchConfig(
        hidden_range=args.hidden,
        subset_sizes=args.subset_sizes,
        folds=args.folds,
        sample_count_cap=args.cap,
        rng_seed=args.seed,
        lm=lm,
        group_by_source=args.group_by_source,
    )
    result = exhaustive_search(samples, config, workers=args.threads)
    with open(args.out, "wb") as handle:
        handle.write(save_model(result.model))
    if args.ranking:
        with open(args.ranking, "w", encoding="utf-8") as handle:
            handle.write(result.ranking_csv())
    best = result.best
    doc = {
        "out": args.out,
        "samples": len(samples),
        "combinations": len(result.ranking),
        "best": {
            "features": list(best.features),
            "hidden_nodes": best.hidden_nodes,
            "cv_error": best.cv_error,
            "param_count": best.param_count,
        },
    }

    def human(d):
        b = d["best"]
        print(f"evaluated {d['combinations']} structures on {d['samples']} samples")
        print(f"best: {', '.join(b['features'])} with {b['hidden_nodes']} "
              f"hidden nodes (cv mse {b['cv_error']:.6f})")
        print(f"model written to {d['out']}")

    _emit(args, doc, human)
    return 0


def _cmd_eval(args) -> int:
    model = _load_model_arg(args)
    samples = load_samples_csv(args.data, detector_config=_detector_config(args))
    preds = []
    dmos = []
    for sample in samples:
        preds.append(score_features(sample.features, model).dmos_pred)
        dmos.append(sample.dmos)
    report = evaluate(preds, dmos, scale_range=args.range)
    doc = {**report.as_dict(), "calibrated": model.calibrated}

    def human(d):
        print(f"n: {d['n']}")
        print(f"pcc: {d['pcc']:.4f}  srocc: {d['srocc']:.4f}  "
              f"rrmse: {d['rrmse']:.2f}%")
        if not d["calibrated"]:
            print("note: model normalization is a placeholder; "
                  "scores are uncalibrated", file=sys.stderr)

    _emit(args, doc, human)
    return 0


# --- parser construction --------------------------------------------------

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")

    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")

    raw_input = _Parser(add_help=False)
    raw_input.add_argument("--size", type=_parse_size, default=None,
                           help="WxH, required for raw YUV input")
    raw_input.add_argument("--fps", type=_parse_fps, default="25:1",
                           help="N or N:D frame rate for raw input")
    raw_input.add_argument("--chroma", choices=[c.value for c in ChromaFormat],
                           default="420", help="chroma layout of raw input")

    detector = _Parser(add_help=False)
    detector.add_argument("--epsilon-abs", type=_parse_finite,
                          default=DetectorConfig.epsilon_abs,
                          help="absolute freeze threshold floor")
    detector.add_argument("--rel-factor", type=_parse_finite,
                          default=DetectorConfig.rel_factor,
                          help="fraction of robust background motion")

    parser = _Parser(prog="jerkmeter",
                     description="temporal jerkiness metric for frame-freeze "
                                 "degraded video")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", parents=[common, seeded],
                       help="generate a synthetic clip")
    p.add_argument("--frames", type=_parse_count, required=True)
    p.add_argument("--size", type=_parse_even_size, default="64x64")
    p.add_argument("--fps", type=_parse_fps, default="25:1")
    p.add_argument("--noise", type=_parse_density, default=0.0,
                   help="density of +/-1 pixel perturbations per frame")
    p.add_argument("--velocity", type=int, default=1,
                   help="pixels of motion per frame")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("degrade", parents=[common, seeded, raw_input],
                       help="inject freeze events")
    p.add_argument("input")
    p.add_argument("--kind", choices=[k.value for k in FreezeKind], required=True)
    p.add_argument("--events", type=_parse_events, required=True,
                   help="comma-separated start:duration pairs")
    p.add_argument("--capture-noise", type=_parse_density, default=0.0,
                   help="density of +/-1 perturbations applied after injection")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None,
                   help="write the ground-truth timeline JSON here")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("fd", parents=[common, raw_input],
                       help="frame-difference series")
    p.add_argument("input")
    p.set_defaults(func=_cmd_fd)

    p = sub.add_parser("detect", parents=[common, raw_input, detector],
                       help="freeze events")
    p.add_argument("input")
    p.add_argument("--truth", default=None,
                   help="score against this ground-truth timeline JSON")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("features", parents=[common, raw_input, detector],
                       help="the 13 features")
    p.add_argument("input")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("score", parents=[common, raw_input, detector],
                       help="predicted DMOS (higher = worse)")
    p.add_argument("input")
    p.add_argument("--model", default=None,
                   help="model JSON (bundled default if omitted)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("train", parents=[common, seeded, detector],
                       help="fit a model from annotated samples")
    p.add_argument("--data", required=True, help="sample CSV")
    p.add_argument("--threads", type=_parse_count, default=1,
                   help="worker processes of the structure search (default 1)")
    p.add_argument("--subset-sizes", type=_parse_int_list,
                   default=SearchConfig.subset_sizes)
    p.add_argument("--hidden", type=_parse_int_list,
                   default=SearchConfig.hidden_range)
    p.add_argument("--folds", type=int, default=SearchConfig.folds)
    p.add_argument("--cap", type=int, default=SearchConfig.sample_count_cap,
                   help="strict upper bound on trainable weights")
    p.add_argument("--group-by-source", action="store_true",
                   help="keep samples of one source video in one fold")
    p.add_argument("--lm-max-iters", type=int, default=LMConfig.max_iters)
    p.add_argument("--lm-restarts", type=int, default=LMConfig.restarts)
    p.add_argument("--out", required=True, help="model JSON destination")
    p.add_argument("--ranking", default=None,
                   help="write the full structure ranking CSV here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common, detector],
                       help="correlation metrics on annotated samples")
    p.add_argument("--data", required=True, help="sample CSV")
    p.add_argument("--model", default=None,
                   help="model JSON (bundled default if omitted)")
    p.add_argument("--range", type=_parse_finite, default=None,
                   help="score range for rRMSE (default: observed)")
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except ConfigError as exc:
        print(f"jerkmeter: error: {exc}", file=sys.stderr)
        return 1
    except (JerkmeterError, OSError, ValueError) as exc:
        print(f"jerkmeter: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
