"""Frame-difference series and scene-cut flagging.

The frame difference between consecutive frames is the mean of the squared
per-pixel luma change. A block of frame pairs is walked in runs of at
most 66,051 pixels, a whole frame when it is that small: each run is
differenced and squared in one uint16 scratch buffer of run size, which
stays in cache where full-frame temporaries would not, and summed in
uint32 (255^2 * 66,051 < 2^32); the run sums are added in uint64. Every
sum is an exact integer below 255^2 * W * H < 2^53, so it converts to
float64 exactly and the one division at the end rounds as integer
arithmetic would: results are bit-exact and platform independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import JerkmeterError, ShapeError, TooFewFrames
from .pool import _claimed_map, cpu_count
from .video_io import LumaFrame, Y4MReader

# A transition must exceed this multiple of the recent mean to count as a cut.
SCENE_CUT_FACTOR = 5.0
SCENE_CUT_HISTORY = 5
# compute_series reads and differences as many frames at once as fit in
# this many bytes, at least one.
_BLOCK_BYTES = 1 << 18
# compute_series differences a regular file from a read-only mapping, on
# one CPU too, only from this many unread bytes on: about four chunks per
# CPU, claimed one at a time. On 2 CPUs two ranges broke even between 16
# and 24 MiB at 64x64 and 1280x720, and won at 32 MiB (floor_sweep in
# BENCH_split.json); mapped ranges won from 16 MiB on a quiet host and lost
# up to 64 MiB on a loaded one (floor_sweep_mapped).
_SPLIT_BYTES = 1 << 25
# A process that starts late or runs slow claims fewer of these chunks.
_CHUNKS_PER_CPU = 4
# Most squared uint8 differences a uint32 sum holds: 255**2 * 66051 < 2**32.
_SUM32_PIXELS = 66051


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
    return float(compute_series((a, b)).values[0])


def _fd_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean squared difference between matching rows of two (pairs, pixels) blocks."""
    pairs, pixels = a.shape
    run = min(pixels, _SUM32_PIXELS)
    # A negative difference -d wraps to 2^16 - d in uint16, and so does its
    # square: (2^16 - d)^2 = d^2 (mod 2^16), exact because d^2 <= 255^2 < 2^16.
    scratch = np.empty((pairs, run), dtype=np.uint16)
    sums = np.zeros(pairs, dtype=np.uint64)
    for start in range(0, pixels, run):
        sq = scratch[:, :min(run, pixels - start)]
        sq[...] = a[:, start:start + run]
        sq -= b[:, start:start + run]
        sums += np.square(sq, out=sq).sum(axis=1, dtype=np.uint32)
    return sums / pixels


def detect_scene_cuts(values: np.ndarray) -> np.ndarray:
    """Flag entries larger than 5x the mean of the preceding five entries.

    The first five entries have no full history and are never flagged. The
    history window uses the raw preceding values, frozen transitions
    included.
    """
    values = np.asarray(values, dtype=np.float64)
    flags = np.zeros(len(values), dtype=bool)
    n = len(values) - SCENE_CUT_HISTORY
    if n > 0:
        # Window sums added left to right, the order np.sum uses for five
        # elements, so every threshold matches the per-window sum bit for bit.
        thresholds = values[:n].copy()
        for k in range(1, SCENE_CUT_HISTORY):
            thresholds += values[k: k + n]
        thresholds /= SCENE_CUT_HISTORY
        thresholds *= SCENE_CUT_FACTOR
        flags[SCENE_CUT_HISTORY:] = values[SCENE_CUT_HISTORY:] > thresholds
    return flags


def _frame_blocks(frames: Iterator[LumaFrame], width: int,
                  height: int) -> Iterator[np.ndarray]:
    """Copy frames into one reused block; yield its filled (frames, W*H) rows."""
    capacity = max(1, _BLOCK_BYTES // (width * height))
    block = np.empty((capacity, height, width), dtype=np.uint8)
    rows = block.reshape(capacity, -1)
    filled = 0
    for frame in frames:
        if frame.width != width or frame.height != height:
            raise ShapeError(
                f"frame sizes differ: {width}x{height} vs {frame.width}x{frame.height}")
        block[filled] = frame.samples
        filled += 1
        if filled == capacity:
            yield rows
            filled = 0
    if filled:
        yield rows[:filled]


def _series_values(source: Iterable[LumaFrame] | Y4MReader) -> np.ndarray:
    """Differences of the remaining frames of ``source``; empty for fewer than two.

    The first frame fixes the geometry. The rest arrive in blocks of rows,
    views into a ``Y4MReader``'s buffer or copies from any other source.
    Each block is differenced where it lies, its first row against the
    last row of the block before, which is carried over; memory holds one
    block however long the clip.
    """
    if isinstance(source, Y4MReader):
        # read_frame copies the first frame out, leaving the reader's buffer
        # free for the blocks; perfbench's traced tiny run counts this call.
        head = source.read_frame()
        first = None if head is None else head[0]
        del head
    else:
        frames = iter(source)
        first = next(frames, None)
    if first is None:
        return np.empty(0)
    width, height = first.width, first.height
    last = first.samples.reshape(1, -1).copy()
    del first  # ``last`` holds its copy; do not keep the frame alive
    if isinstance(source, Y4MReader):
        blocks = source.luma_blocks(_BLOCK_BYTES)
    else:
        blocks = _frame_blocks(frames, width, height)
    parts = [np.empty(0)]
    for rows in blocks:
        parts.append(_fd_pairs(last, rows[:1]))
        if len(rows) > 1:
            parts.append(_fd_pairs(rows[:-1], rows[1:]))
        last[0] = rows[-1]
    return np.concatenate(parts)


def _split_values(source: Y4MReader) -> np.ndarray | None:
    """Differences of ``source``'s remaining frames walked from its mapping
    in about four chunks per CPU, claimed one at a time by one process per
    CPU, each sharing its last frame with the next one's first; None, with
    ``source`` unread, if the file does not map or a walk meets a marker
    that is not a bare ``FRAME``, which stops every process from claiming
    another chunk, so that a malformed file raises the serial error.
    """
    mapped = source._mapped(_SPLIT_BYTES, _BLOCK_BYTES)
    if mapped is None:
        return None
    frames, walk = mapped
    cpus = cpu_count()
    parts = min(_CHUNKS_PER_CPU * cpus, frames // 2)
    bounds = [k * frames // parts for k in range(parts)] + [frames - 1]

    def slice_values(k):
        return np.concatenate([_fd_pairs(rows[:-1], rows[1:])
                               for rows in walk(bounds[k], bounds[k + 1])])

    try:
        values = _claimed_map(slice_values, parts, cpus)
    except JerkmeterError:  # a bad marker, or a child died before reporting
        return None
    return np.concatenate(values)


def compute_series(source: Iterable[LumaFrame] | Y4MReader) -> FrameDiffSeries:
    """Frame-difference series for a sequence or a streamed frame source.

    A ``Y4MReader`` over a regular file of at least ``_SPLIT_BYTES`` is
    differenced from a mapping of it in about four chunks per CPU, claimed
    one at a time (``_split_values``); the series is the same for any count.
    """
    values = _split_values(source) if isinstance(source, Y4MReader) else None
    if values is None:
        values = _series_values(source)
    if not len(values):
        raise TooFewFrames("need at least two frames to form a difference")
    return FrameDiffSeries(values=values, scene_cut_flags=detect_scene_cuts(values))
