"""Frame-difference series, scene-cut flagging, background motion level.

The frame difference between consecutive frames is the mean of the squared
per-pixel luma change. The per-pixel change of 8-bit input is taken in
int16 and its squares are summed by a float64 dot product. Every partial
sum is an integer below 255^2 * W * H < 2^53, so the sum is exact in any
order, and the one division at the end rounds as integer arithmetic
would: results are bit-exact and platform independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ShapeError, TooFewFrames
from .video_io import LumaFrame

if TYPE_CHECKING:
    from .freeze_detection import FreezeTimeline

# A transition must exceed this multiple of the recent mean to count as a cut.
SCENE_CUT_FACTOR = 5.0
SCENE_CUT_HISTORY = 5


@dataclass(eq=False)
class FrameDiffSeries:
    """Per-transition mean squared luma difference.

    Entry i is the difference between frame i and frame i+1, so a sequence
    of F frames yields F-1 entries.
    """

    values: np.ndarray
    scene_cut_flags: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.scene_cut_flags = np.asarray(self.scene_cut_flags, dtype=bool)
        if self.values.ndim != 1 or self.values.shape != self.scene_cut_flags.shape:
            raise ShapeError("values and scene_cut_flags must be parallel 1-D arrays")
        if np.any(self.values < 0):
            raise ShapeError("frame differences cannot be negative")

    @property
    def transition_count(self) -> int:
        return len(self.values)

    @property
    def frame_count(self) -> int:
        return len(self.values) + 1


def frame_diff(a: LumaFrame, b: LumaFrame) -> float:
    """Mean squared luma difference between two equally sized frames."""
    if a.width != b.width or a.height != b.height:
        raise ShapeError(
            f"frame sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    d = (b.samples.astype(np.int16) - a.samples).ravel().astype(np.float64)
    return float(d @ d) / d.size


def detect_scene_cuts(values: np.ndarray) -> np.ndarray:
    """Flag entries larger than 5x the mean of the preceding five entries.

    The first five entries have no full history and are never flagged. The
    history window uses the raw preceding values, frozen transitions
    included.
    """
    values = np.asarray(values, dtype=np.float64)
    flags = np.zeros(len(values), dtype=bool)
    for i in range(SCENE_CUT_HISTORY, len(values)):
        window = values[i - SCENE_CUT_HISTORY: i]
        threshold = SCENE_CUT_FACTOR * (float(np.sum(window)) / SCENE_CUT_HISTORY)
        flags[i] = values[i] > threshold
    return flags


def compute_series(source: Iterable[LumaFrame]) -> FrameDiffSeries:
    """Frame-difference series for a sequence or a streamed frame source.

    Consuming a reader keeps only the current frame pair in memory.
    """
    values: list[float] = []
    prev: LumaFrame | None = None
    for frame in source:
        if prev is not None:
            values.append(frame_diff(prev, frame))
        prev = frame
    if not values:
        raise TooFewFrames("need at least two frames to form a difference")
    arr = np.array(values, dtype=np.float64)
    return FrameDiffSeries(values=arr, scene_cut_flags=detect_scene_cuts(arr))


def background_fd(series: FrameDiffSeries, timeline: "FreezeTimeline") -> tuple[float, bool]:
    """Mean difference outside freezes and scene cuts.

    A transition is inside a freeze if either of its endpoint frames belongs
    to a freeze event. Returns (mean, all_excluded); when every transition is
    excluded the mean is 0.0 and the flag is set instead of raising.
    """
    if timeline.frame_count != series.frame_count:
        raise ShapeError(
            f"timeline covers {timeline.frame_count} frames, "
            f"series covers {series.frame_count}"
        )
    frozen = timeline.frame_mask()
    keep = ~series.scene_cut_flags & ~(frozen[:-1] | frozen[1:])
    if not keep.any():
        return 0.0, True
    return float(np.mean(series.values[keep])), False
