"""Frame ranges differenced on forked processes give the serial result.

``compute_series(reader, workers=N)`` splits a large enough regular file
into one frame range per process. These tests lower the size floor to 0
so that small clips split, and compare every outcome with ``workers=1``:
the same value bits and scene-cut flags, or the same exception type and
message (which holds the frame index or byte offset).
"""

import multiprocessing
import os

import numpy as np
import pytest

from jerkmeter import (
    ChromaFormat,
    JerkmeterError,
    LumaFrame,
    ParseError,
    TooFewFrames,
    TrailingBytes,
    TruncatedFrame,
    VideoHeader,
    VideoSequence,
    Y4MReader,
    analyze,
    compute_series,
)
from jerkmeter import frame_analysis

from conftest import random_frames, y4m_bytes


@pytest.fixture
def split(monkeypatch):
    """Split every file, on `n` CPUs whatever this machine has; count the splits."""
    calls = []
    real = frame_analysis._claimed_map

    def counted(evaluate, total, workers):
        calls.append(total)
        return real(evaluate, total, workers)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        return calls

    monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(frame_analysis, "_claimed_map", counted)
    return use


def clip(rng, count, width=8, height=6, chroma=ChromaFormat.C420):
    header = VideoHeader(width=width, height=height, fps_num=25, fps_den=1,
                         chroma=chroma)
    return VideoSequence.from_luma(header, random_frames(rng, count, width, height))


def outcome(path, workers, header=None):
    with open(path, "rb") as handle:
        try:
            series = compute_series(Y4MReader(handle, header), workers=workers)
        except JerkmeterError as exc:
            return type(exc), str(exc)
    return series.values.tobytes(), series.scene_cut_flags.tobytes()


def assert_split_equals_serial(path, workers, header=None):
    serial = outcome(path, 1, header)
    assert outcome(path, workers, header) == serial
    return serial


def with_marker(data: bytes, index: int, marker: bytes) -> bytes:
    """``data`` with the marker of frame ``index`` replaced by ``marker``."""
    at = -1
    for _ in range(index + 1):
        at = data.index(b"FRAME\n", at + 1)
    return data[:at] + marker + data[at + len(b"FRAME\n"):]


def record_size(seq):
    return len(b"FRAME\n") + seq.header.frame_size


class TestSplitEqualsSerial:
    @pytest.mark.parametrize("count,workers", [(4, 2), (5, 2), (17, 2), (9, 3), (40, 3)])
    def test_bare_y4m(self, rng, tmp_path, split, count, workers):
        calls = split(workers)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, count)))
        values, _ = assert_split_equals_serial(path, workers)
        assert calls == [workers]
        assert len(values) == 8 * (count - 1)

    # Ranges start at frames 0 and 6. A longer marker at or before frame 6
    # moves frame 6 off its predicted offset, which the probe sees before
    # any fork; one in the last range changes nothing before it.
    @pytest.mark.parametrize("index,splits", [(0, []), (5, []), (11, [2])])
    def test_non_bare_marker(self, rng, tmp_path, split, index, splits):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 12)), index, b"FRAME Ixyz\n"))
        values, _ = assert_split_equals_serial(path, 2)
        assert len(values) == 8 * 11
        assert calls == splits

    # Three ranges start at frames 0, 4 and 8, and frame 5 has a longer
    # marker while the probe still reads FRAME where frame 8 would start
    # were every marker bare. Range 1 is not clean, so this process resumes
    # at frame 4, which the clean range 0 proved.
    # - "crafted": 10 bytes longer, with FRAME written into the payload at
    #   the predicted offset; range 1's last record is cut short.
    # - "record": exactly one record longer, so the predicted offset holds
    #   frame 7's bare marker; range 1 ends cleanly one frame short.
    @pytest.mark.parametrize("longer", ["crafted", "record"])
    def test_marker_bare_at_every_start_but_not_between(self, rng, tmp_path, split,
                                                        monkeypatch, longer):
        calls = split(3)
        seq = clip(rng, 12)
        params = b" Ixyz XY=1" if longer == "crafted" else b" X" + b"p" * (
            record_size(seq) - 2)
        data = bytearray(with_marker(y4m_bytes(seq), 5, b"FRAME" + params + b"\n"))
        predicted = data.index(b"\n") + 1 + 8 * record_size(seq)
        if longer == "crafted":
            assert data[predicted:predicted + 6] != b"FRAME\n"
            data[predicted:predicted + 6] = b"FRAME\n"
        assert data[predicted:predicted + 6] == b"FRAME\n"
        path = tmp_path / "clip.y4m"
        path.write_bytes(bytes(data))
        resumed = []
        real = frame_analysis._series_values

        def spy(source):
            if isinstance(source, Y4MReader) and os.getpid() == parent:
                resumed.append((source._index, source._stream))
            return real(source)

        parent = os.getpid()
        monkeypatch.setattr(frame_analysis, "_series_values", spy)
        serial = outcome(path, 1)
        assert len(serial[0]) == 8 * 11
        resumed.clear()
        assert outcome(path, 3) == serial
        assert calls == [3]
        assert (4, None) in [(index, getattr(stream, "_end", "file"))
                             for index, stream in resumed]

    def test_raw_yuv_with_trailing_bytes(self, rng, tmp_path, split):
        split(2)
        seq = clip(rng, 10)
        path = tmp_path / "clip.yuv"
        path.write_bytes(b"".join(f.samples.tobytes() + c
                                  for f, c in zip(seq.frames, seq.chroma)) + bytes(5))
        error = assert_split_equals_serial(path, 2, seq.header)
        assert error == (TrailingBytes, "5 trailing bytes after the last whole frame")

    def test_raw_yuv(self, rng, tmp_path, split):
        calls = split(2)
        seq = clip(rng, 10)
        path = tmp_path / "clip.yuv"
        path.write_bytes(b"".join(f.samples.tobytes() + c
                                  for f, c in zip(seq.frames, seq.chroma)))
        assert_split_equals_serial(path, 2, seq.header)
        assert calls == [2]

    def test_truncated_last_frame(self, rng, tmp_path, split):
        split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 10))[:-7])
        error = assert_split_equals_serial(path, 2)
        assert error == (TruncatedFrame, "truncated payload for frame 9")

    def test_garbage_in_a_middle_range_reports_the_serial_offset(self, rng, tmp_path,
                                                                 split):
        split(3)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 12)), 6, b"FRAMX\n"))
        error = assert_split_equals_serial(path, 3)
        assert error[0] is ParseError

    @pytest.mark.parametrize("chroma", [ChromaFormat.C422, ChromaFormat.C444,
                                        ChromaFormat.MONO])
    def test_chroma_formats(self, rng, tmp_path, split, chroma):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 9, chroma=chroma)))
        assert_split_equals_serial(path, 2)
        assert calls == [2]

    @pytest.mark.parametrize("count", [2, 3])
    def test_too_short_to_split(self, rng, tmp_path, split, count):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, count)))
        assert_split_equals_serial(path, 2)
        assert calls == []  # two ranges need at least two records each

    def test_header_only_file(self, rng, tmp_path, split):
        split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 0)))
        assert assert_split_equals_serial(path, 2) == (
            TooFewFrames, "need at least two frames to form a difference")

    def test_scene_cut_right_after_a_range_boundary(self, tmp_path, split):
        # Ranges start at frames 0 and 10; the jump into frame 12 is
        # transition 11, inside the first five after the boundary, whose
        # history reaches back into the first range.
        split(2)
        width, height = 8, 6
        ramp = [np.full((height, width), i % 2, dtype=np.uint8) for i in range(20)]
        ramp[12:] = [np.full((height, width), 200 + i % 2, dtype=np.uint8)
                     for i in range(8)]
        header = VideoHeader(width=width, height=height, fps_num=25, fps_den=1)
        frames = [LumaFrame(width, height, samples) for samples in ramp]
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(VideoSequence.from_luma(header, frames)))
        _, flags = assert_split_equals_serial(path, 2)
        assert np.flatnonzero(np.frombuffer(flags, dtype=bool)).tolist() == [11]


def assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessHygiene:
    def test_no_child_left_after_a_result(self, rng, tmp_path, split):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12)))
        with open(path, "rb") as handle:
            analyze(Y4MReader(handle), workers=2)
        assert calls == [2]
        assert_no_children()

    def test_no_child_left_after_an_error(self, rng, tmp_path, split):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12))[:-7])
        with open(path, "rb") as handle, pytest.raises(JerkmeterError):
            analyze(Y4MReader(handle), workers=2)
        assert calls == [2]
        assert_no_children()

    def test_a_child_that_dies_is_read_again_here(self, rng, tmp_path, split,
                                                  monkeypatch):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12)))
        real = frame_analysis._series_values
        parent = os.getpid()

        def dies_in_a_child(source):
            if os.getpid() != parent:
                os._exit(1)
            return real(source)

        monkeypatch.setattr(frame_analysis, "_series_values", dies_in_a_child)
        assert outcome(path, 2) == outcome(path, 1)
        assert calls == [2]
        assert_no_children()

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    def test_pipe_never_forks(self, rng, no_fork, monkeypatch):
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 0)
        data = y4m_bytes(clip(rng, 12))
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as sink:
            sink.write(data)  # well below a pipe's buffer
        with os.fdopen(read_end, "rb") as handle:
            series = compute_series(Y4MReader(handle), workers=2)
        assert series.transition_count == 11

    def test_sequence_never_forks(self, rng, no_fork, monkeypatch):
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 0)
        assert compute_series(clip(rng, 12), workers=2).transition_count == 11

    def test_file_below_the_floor_never_forks(self, rng, tmp_path, no_fork):
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 300, width=64, height=64)))
        assert path.stat().st_size < frame_analysis._SPLIT_BYTES
        with open(path, "rb") as handle:
            assert compute_series(Y4MReader(handle), workers=2).transition_count == 299
