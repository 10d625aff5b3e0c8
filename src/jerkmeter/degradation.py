"""Freeze-artifact injection and synthetic test content.

Two artifact kinds are produced, and they differ only in where the
source resumes after a freeze. Both show the last good frame for the
event's duration. A "loss" freeze resumes after the frozen span, whose
content is skipped, so the first post-freeze transition spikes. A
"delay" freeze resumes with the very next frame, so the post-freeze
transition looks like ordinary motion and the tail is dropped to keep
the length.

``inject`` applies either kind and returns the exact ground-truth
timeline, which is what the detection and feature acceptance suites
score against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import PlanError
from .freeze_detection import MIN_EVENT_FRAMES, FreezeEvent, FreezeTimeline
from .video_io import ChromaFormat, LumaFrame, VideoHeader, VideoSequence


class FreezeKind(enum.Enum):
    LOSS = "loss"
    DELAY = "delay"


@dataclass
class FreezePlan:
    kind: FreezeKind
    # (start_frame, duration) pairs in source-frame indexing.
    events: list[tuple[int, int]]

    def frame_map(self, frame_count: int) -> tuple[list[int], list[FreezeEvent]]:
        """The source frame shown at each output frame, and the ground-truth events.

        Each event shows source frame ``start - 1`` for ``duration`` frames,
        then resumes at ``start + duration`` (loss) or ``start`` (delay).
        The output keeps `frame_count` frames; an event must fit in them.
        """
        index: list[int] = []
        events: list[FreezeEvent] = []
        consumed = prev_end = 0
        for start, duration in self.events:
            if duration < MIN_EVENT_FRAMES:
                raise PlanError(f"event at {start} shorter than {MIN_EVENT_FRAMES} frames")
            if start < 1:
                raise PlanError("events must start at frame 1 or later")
            if start <= prev_end:
                raise PlanError("events must be sorted with at least one clean frame between")
            index.extend(range(consumed, start))
            if len(index) + duration > frame_count:
                raise PlanError(f"event at {start} runs past frame {frame_count - 1}")
            events.append(FreezeEvent(len(index), duration))
            index.extend([start - 1] * duration)
            prev_end = start + duration
            consumed = prev_end if self.kind is FreezeKind.LOSS else start
        index.extend(range(consumed, frame_count))
        return index[:frame_count], events


def inject(seq: VideoSequence, plan: FreezePlan) -> tuple[VideoSequence, FreezeTimeline]:
    """Apply `plan` through its frame map; duplicates share one frame object."""
    index, events = plan.frame_map(seq.frame_count)
    truth = FreezeTimeline(events=events, frame_count=seq.frame_count,
                           fps=seq.header.fps)
    return VideoSequence(seq.header, [seq.frames[i] for i in index],
                         [seq.chroma[i] for i in index]), truth


def gradient_video(frame_count: int, width: int = 64, height: int = 64,
                   fps: tuple[int, int] = (25, 1), noise: float = 0.0,
                   seed: int = 0, velocity: int = 1) -> VideoSequence:
    """Horizontally translating luma ramp, the stock synthetic source.

    The ramp wraps with period `width`, so every transition moves the same
    amount: uniform motion with a flat frame-difference profile. `noise`
    is the per-frame density of pixels perturbed by +/-1 (luma is 8-bit,
    so sub-unit additive noise would vanish in rounding).
    """
    if frame_count < 1 or width < 2 or height < 1:
        raise ValueError("need at least 1 frame of at least 2x1 pixels")
    header = VideoHeader(width=width, height=height, fps_num=fps[0], fps_den=fps[1],
                         chroma=ChromaFormat.C420)
    rng = np.random.default_rng(seed)
    x = np.arange(width, dtype=np.int64)
    frames = []
    for t in range(frame_count):
        ramp = ((x + t * velocity) % width) * 255 // (width - 1)
        plane = np.tile(ramp.astype(np.uint8), (height, 1))
        if noise > 0.0:
            plane = _flip_pixels(plane, noise, rng)
        frames.append(LumaFrame(width=width, height=height, samples=plane))
    return VideoSequence.from_luma(header, frames)


def _flip_pixels(plane: np.ndarray, density: float, rng: np.random.Generator) -> np.ndarray:
    """Perturb a fraction `density` of pixels by +/-1, saturating at 0/255."""
    wide = plane.astype(np.int16)
    mask = rng.random(plane.shape) < density
    signs = rng.integers(0, 2, size=plane.shape) * 2 - 1
    wide[mask] += signs[mask]
    return np.clip(wide, 0, 255).astype(np.uint8)


def add_capture_noise(seq: VideoSequence, density: float, seed: int = 0) -> VideoSequence:
    """Sparse +/-1 pixel perturbations on every frame, luma only.

    Models a display-capture path: duplicated frames stop being bit
    identical, which is exactly what the non-zero detection threshold is
    for. Applied after injection; noise added before injection would be
    copied verbatim into the duplicates and change nothing.
    """
    if density <= 0.0:
        return seq
    return VideoSequence(seq.header, list(capture_noise_frames(seq.frames, density, seed)),
                         list(seq.chroma))


def capture_noise_frames(frames: Iterable[LumaFrame], density: float,
                         seed: int = 0) -> Iterator[LumaFrame]:
    """The frames of ``add_capture_noise``, made one at a time as they are read."""
    rng = np.random.default_rng(seed)
    for f in frames:
        yield LumaFrame(f.width, f.height, _flip_pixels(f.samples, density, rng))
