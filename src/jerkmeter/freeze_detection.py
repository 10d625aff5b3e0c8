"""Freeze-event detection over a frame-difference series, plus scoring.

A frame is frozen when its incoming transition falls at or below an
adaptive threshold: the larger of an absolute noise floor and a fraction
of the clip's typical motion level (the median of all differences above
the floor). Maximal runs of frozen frames form events; runs shorter than
two frames are discarded as imperceptible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .frame_analysis import FrameDiffSeries

MIN_EVENT_FRAMES = 2
# A detected event must cover at least this share of a true event to match.
MATCH_OVERLAP = 0.5


@dataclass(frozen=True)
class DetectorConfig:
    # Absolute floor on the freeze threshold, in mean-squared-luma units.
    # Absorbs capture/requantization noise on otherwise identical frames.
    epsilon_abs: float = 0.05
    # Fraction of the robust background motion level.
    rel_factor: float = 0.02

    def __post_init__(self):
        # A negative epsilon_abs can make the threshold negative, which no
        # difference is at or below, so detection would be off; a negative
        # share of the background level means nothing.
        for name in ("epsilon_abs", "rel_factor"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be at least 0, got {getattr(self, name)}")


@dataclass(frozen=True, order=True)
class FreezeEvent:
    """A run of frames that each duplicate their predecessor."""

    start_frame: int
    duration: int

    def __post_init__(self):
        if self.start_frame < 1:
            raise ValueError("frame 0 cannot duplicate a predecessor")
        if self.duration < MIN_EVENT_FRAMES:
            raise ValueError(f"events shorter than {MIN_EVENT_FRAMES} frames are not events")

    @property
    def end_frame(self) -> int:
        """Index of the last duplicated frame."""
        return self.start_frame + self.duration - 1


@dataclass
class FreezeTimeline:
    events: list[FreezeEvent]
    frame_count: int
    fps: float = 0.0
    # The threshold a detection used; None on truth and plan timelines.
    threshold: float | None = None

    def __post_init__(self):
        prev_end = 0
        for ev in self.events:
            if ev.start_frame <= prev_end:
                raise ValueError("events must be sorted with a non-frozen gap between them")
            if ev.start_frame + ev.duration > self.frame_count:
                raise ValueError(
                    f"event {ev} runs past the last frame ({self.frame_count})"
                )
            prev_end = ev.end_frame + 1

    def frame_mask(self) -> np.ndarray:
        """Boolean per-frame mask, True where the frame belongs to an event."""
        mask = np.zeros(self.frame_count, dtype=bool)
        for ev in self.events:
            mask[ev.start_frame: ev.start_frame + ev.duration] = True
        return mask


@dataclass(frozen=True)
class DetectionReport:
    total_true: int
    correctly_detected: int
    detection_rate: float
    false_alarms: int
    false_alarm_rate: float


def freeze_threshold(series: FrameDiffSeries, config: DetectorConfig) -> float:
    """Adaptive threshold: max of the absolute floor and a fraction of the
    median of all values strictly above the floor (0 when none are)."""
    active = series.values[series.values > config.epsilon_abs]
    robust_background = float(np.median(active)) if active.size else 0.0
    return max(config.epsilon_abs, config.rel_factor * robust_background)


def detect_freezes(series: FrameDiffSeries,
                   config: DetectorConfig | None = None,
                   fps: float = 0.0) -> FreezeTimeline:
    """Group sub-threshold transitions into freeze events.

    Frame i (i >= 1) is frozen when transition i-1 is at or below the
    threshold and is not a scene cut. Runs shorter than two frames are
    dropped.
    """
    if config is None:
        config = DetectorConfig()
    threshold = freeze_threshold(series, config)
    frozen = (series.values <= threshold) & ~series.scene_cut_flags

    # Runs of frozen transitions [start, end); transition i freezes frame i+1.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], frozen, [False]))))
    events = [
        FreezeEvent(start + 1, end - start)
        for start, end in zip(edges[0::2].tolist(), edges[1::2].tolist())
        if end - start >= MIN_EVENT_FRAMES
    ]
    return FreezeTimeline(events=events, frame_count=series.frame_count, fps=fps,
                          threshold=threshold)


def score_detection(found: FreezeTimeline, truth: FreezeTimeline) -> DetectionReport:
    """Tally detections and false alarms against a ground-truth timeline.

    A true event is detected when a single found event covers at least half
    of its frames. A found event that touches no true event is a false
    alarm. With no true events the detection rate is vacuously 1; with no
    found events the false-alarm rate is 0. Both timelines are sorted and
    their events disjoint, so one merge pass meets every overlapping pair.
    """
    if found.frame_count != truth.frame_count:
        raise ShapeError(
            f"frame counts differ: found {found.frame_count}, truth {truth.frame_count}"
        )
    touched, hit = set(), set()  # found events on a true one, true ones detected
    i = j = 0
    while i < len(found.events) and j < len(truth.events):
        f, t = found.events[i], truth.events[j]
        overlap = min(f.end_frame, t.end_frame) + 1 - max(f.start_frame, t.start_frame)
        if overlap > 0:
            touched.add(i)
            if overlap >= MATCH_OVERLAP * t.duration:
                hit.add(j)
        i, j = (i + 1, j) if f.end_frame < t.end_frame else (i, j + 1)
    total_true, found_count = len(truth.events), len(found.events)
    detected, false_alarms = len(hit), found_count - len(touched)
    return DetectionReport(
        total_true=total_true,
        correctly_detected=detected,
        detection_rate=detected / total_true if total_true else 1.0,
        false_alarms=false_alarms,
        false_alarm_rate=false_alarms / found_count if found_count else 0.0,
    )
