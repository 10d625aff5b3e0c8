"""Freeze-pattern and motion features.

Thirteen scalars summarize a freeze timeline and the frame-difference
series it was detected on. The first nine describe the temporal pattern
of the freezes alone (how many, how long, how far apart); the last four
relate the motion at freeze boundaries to the motion of clean playback,
which is what separates a freeze that lost content from one that merely
paused it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import ShapeError
from .frame_analysis import FrameDiffSeries, compute_series
from .freeze_detection import DetectorConfig, FreezeTimeline, detect_freezes
from .video_io import LumaFrame, Y4MReader

# Floor for the background motion level when forming the rFD ratio, so
# a perfectly static clean section cannot blow the ratio up to infinity.
RATIO_FLOOR = 1e-6


@dataclass(frozen=True)
class FeatureVector:
    """The features, in order: the first nine depend on the timeline alone
    (``freeze_pattern_features``), the last four on motion too."""

    NumFz: float
    AvgFzDur: float
    MaxFzDur: float
    StdFzDur: float
    AvgFzDist: float
    MaxFzDist: float
    StdFzDist: float
    rLenFz: float
    rDurDist: float
    AvgFzFD: float
    MaxFzFD: float
    AvgBgFD: float
    rFD: float

    def __getitem__(self, name: str) -> float:
        if name not in FEATURE_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def as_array(self, names: Iterable[str] | None = None) -> np.ndarray:
        names = FEATURE_NAMES if names is None else names
        return np.array([self[name] for name in names], dtype=np.float64)


# The column order of every feature matrix and CSV, and the JSON key order.
FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def freeze_pattern_features(timeline: FreezeTimeline) -> dict[str, float]:
    """The nine statistics that depend on the timeline alone.

    Distances are the clean gaps between consecutive freezes: with a
    single event there is exactly one "gap", everything that is not
    frozen, and its spread is zero. With no events at all every
    statistic is zero.
    """
    n = len(timeline.events)
    total = timeline.frame_count
    if n == 0:
        return {name: 0.0 for name in FEATURE_NAMES[:9]}
    durations = np.array([ev.duration for ev in timeline.events], dtype=np.float64)
    frozen = float(durations.sum())
    if n == 1:
        clean = total - frozen
        distances = np.array([clean], dtype=np.float64)
    else:
        starts = np.array([ev.start_frame for ev in timeline.events], dtype=np.float64)
        ends = starts + durations  # first frame after each event
        distances = starts[1:] - ends[:-1]
    avg_dur = float(durations.mean())
    avg_dist = float(distances.mean())
    return {
        "NumFz": float(n),
        "AvgFzDur": avg_dur,
        "MaxFzDur": float(durations.max()),
        "StdFzDur": float(durations.std()),
        "AvgFzDist": avg_dist,
        "MaxFzDist": float(distances.max()),
        "StdFzDist": float(distances.std()),
        "rLenFz": frozen / total,
        "rDurDist": avg_dur / avg_dist if avg_dist > 0.0 else 0.0,
    }


def content_features(series: FrameDiffSeries, timeline: FreezeTimeline
                     ) -> dict[str, float]:
    """The four statistics comparing boundary motion with clean motion.

    Each event contributes the frame difference of its exit transition,
    the jump from the last repeated frame to the first fresh one. Events
    running to the end of the sequence have no exit and contribute
    nothing. The background level averages the transitions that touch no
    frozen frame and are not scene cuts; it is 0 when none are left.
    """
    if timeline.frame_count != series.frame_count:
        raise ShapeError(
            f"timeline covers {timeline.frame_count} frames, "
            f"series covers {series.frame_count}"
        )
    exit_fds = [
        series.values[ev.end_frame]
        for ev in timeline.events
        if ev.end_frame < series.frame_count - 1
    ]
    avg_fz = float(np.mean(exit_fds)) if exit_fds else 0.0
    max_fz = float(np.max(exit_fds)) if exit_fds else 0.0
    frozen = timeline.frame_mask()
    keep = ~series.scene_cut_flags & ~(frozen[:-1] | frozen[1:])
    avg_bg = float(np.mean(series.values[keep])) if keep.any() else 0.0
    return {
        "AvgFzFD": avg_fz,
        "MaxFzFD": max_fz,
        "AvgBgFD": avg_bg,
        "rFD": avg_fz / max(avg_bg, RATIO_FLOOR),
    }


def extract(series: FrameDiffSeries, timeline: FreezeTimeline) -> FeatureVector:
    """All thirteen features from a precomputed series and timeline."""
    values = freeze_pattern_features(timeline)
    values.update(content_features(series, timeline))
    return FeatureVector(**values)


@dataclass(frozen=True)
class VideoAnalysis:
    series: FrameDiffSeries
    timeline: FreezeTimeline
    features: FeatureVector


def analyze(source: Iterable[LumaFrame] | Y4MReader,
            config: DetectorConfig | None = None) -> VideoAnalysis:
    """Full pipeline: differences, detection, features, in one pass.

    ``source`` is a ``VideoSequence``, a ``Y4MReader`` or any frame
    iterable; the frame rate is its ``header``'s if it has one, else 0.
    A large ``Y4MReader`` file is differenced on the CPUs this process may
    run on (see ``compute_series``); the result is the same for any count.
    """
    header = getattr(source, "header", None)
    fps = header.fps if header is not None else 0.0
    series = compute_series(source)
    timeline = detect_freezes(series, config=config, fps=fps)
    return VideoAnalysis(series=series, timeline=timeline,
                         features=extract(series, timeline))
