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
from .pool import _claimed_map, _worker_count
from .video_io import LumaFrame, Y4MReader

# A transition must exceed this multiple of the recent mean to count as a cut.
SCENE_CUT_FACTOR = 5.0
SCENE_CUT_HISTORY = 5
# compute_series reads and differences as many frames at once as fit in
# this many bytes, at least one.
_BLOCK_BYTES = 1 << 18
# compute_series splits a clip into frame ranges on several processes only
# from this many unread bytes on. On 2 CPUs two ranges broke even between
# 16 and 24 MiB at 64x64 and at 1280x720, and won at 32 MiB
# (floor_sweep in BENCH_split.json).
_SPLIT_BYTES = 1 << 25
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
        # read_frame, not next(iter(source)): a suspended iterator would
        # hold on to the first frame for the whole call.
        head = source.read_frame()
        first = None if head is None else head[0]
        del head
    else:
        frames = iter(source)
        first = next(frames, None)
    if first is None:
        return np.empty(0)
    width, height = first.width, first.height
    last = np.empty((1, width * height), dtype=np.uint8)
    last.reshape(height, width)[...] = first.samples
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


def _split_values(source: Y4MReader, workers: int) -> np.ndarray | None:
    """Differences of ``source``'s remaining frames, range by range on up to
    ``workers`` processes; None, with ``source`` unread, if the clip does not split.

    It splits when it is a regular file of at least ``_SPLIT_BYTES`` unread
    bytes and two records per range, and one ``pread`` per range finds a
    bare ``FRAME`` marker where the range starts if every marker is bare.
    Range k reads frames ``starts[k]`` to ``starts[k+1]``, one frame of
    overlap, through a stream that ends where its last record should; the
    last range reads to the end of the file. A range is clean when it
    raised nothing and, but for the last, gave one value per frame step:
    any other marker is longer and leaves the stream short. So a clean
    range proves where the next one starts. The clean ranges are used in
    order; from the first other one, this process reads on serially, so
    an error is the one a serial read raises, frame index and offset alike.
    """
    records = source._unread_records()
    if records * source._record < _SPLIT_BYTES:
        return None
    parts = _worker_count(workers, records // 2)
    if parts < 2:
        return None
    starts = [k * records // parts for k in range(parts)]
    stops = [start + 1 for start in starts[1:]] + [None]
    readers = [source._reader_from(start, stop) for start, stop in zip(starts, stops)]
    if any(reader is None for reader in readers):
        return None

    def clean_values(k):
        try:
            values = _series_values(readers[k])
        except Exception:  # the serial read below raises it where it belongs
            return None
        if stops[k] is not None and len(values) != starts[k + 1] - starts[k]:
            return None
        return values

    try:
        ranges = _claimed_map(clean_values, parts, parts)
    except JerkmeterError:  # a child died before reporting: read it all here
        ranges = [None]
    values = []
    for k, part in enumerate(ranges):
        if part is None:
            rest = source if k == 0 else source._reader_from(starts[k])
            values.append(_series_values(rest))
            break
        values.append(part)
    return np.concatenate(values)


def compute_series(source: Iterable[LumaFrame] | Y4MReader,
                   workers: int = 1) -> FrameDiffSeries:
    """Frame-difference series for a sequence or a streamed frame source.

    A ``Y4MReader`` over a large enough regular file is differenced in
    frame ranges on up to ``workers`` processes (see ``_split_values``);
    the series is the same for any count.
    """
    values = None
    if workers > 1 and isinstance(source, Y4MReader):
        values = _split_values(source, workers)
    if values is None:
        values = _series_values(source)
    if not len(values):
        raise TooFewFrames("need at least two frames to form a difference")
    return FrameDiffSeries(values=values, scene_cut_flags=detect_scene_cuts(values))
