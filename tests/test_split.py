"""Frame ranges walked from a mapping, on forked processes or on one CPU,
give the serial result.

``compute_series(reader)`` maps a large enough regular file read-only
and cuts its frames into about four chunks per CPU the process may run
on, which the calling process and one child forked per further CPU claim
one at a time; on one CPU the calling process walks every chunk. A file
whose unread bytes are not a whole number of records (a longer marker, a
truncated frame, trailing raw bytes) is declined before any walk; a
same-length bad marker is found by the chunk that holds it, and the file
is then read serially. These tests lower the size floor to 0 so that
small clips map, set the CPU count through ``os.sched_getaffinity``, and
compare every outcome with that of the buffered reads over the same
bytes held in memory, which never map: the same value bits and scene-cut
flags, or the same exception type and message (which holds the frame
index or byte offset). Fresh processes check that the mapped pages
behind each block are released and that a split forks without
``multiprocessing``.
"""

import io
import mmap
import os
import subprocess
import sys
import textwrap
import time

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
from jerkmeter import frame_analysis, pool

from conftest import random_frames, y4m_bytes


@pytest.fixture
def split(monkeypatch):
    """Split every file, on `n` CPUs whatever this machine has; record the
    worker count of each split."""
    calls = []
    real = frame_analysis._claimed_map

    def counted(evaluate, total, workers):
        calls.append(workers)
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


def settled(reader):
    """``compute_series(reader)``'s bits, or its error's type and message."""
    try:
        series = compute_series(reader)
    except JerkmeterError as exc:
        return type(exc), str(exc)
    return series.values.tobytes(), series.scene_cut_flags.tobytes()


def outcome(path, cpus, header=None):
    """``compute_series`` of ``path`` in a process that may run on ``cpus`` CPUs."""
    with pytest.MonkeyPatch.context() as patch, open(path, "rb") as handle:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                      raising=False)
        return settled(Y4MReader(handle, header))


def buffered(path, header=None):
    """``compute_series`` of ``path``'s bytes in memory, which never map: the
    buffered reads every mapped walk must equal."""
    return settled(Y4MReader(io.BytesIO(path.read_bytes()), header))


def assert_split_equals_serial(path, cpus, header=None):
    serial = buffered(path, header)
    assert outcome(path, cpus, header) == serial
    return serial


def raw_bytes(seq):
    return b"".join(f.samples.tobytes() + c for f, c in zip(seq.frames, seq.chroma))


def with_marker(data: bytes, index: int, marker: bytes) -> bytes:
    """``data`` with the marker of frame ``index`` replaced by ``marker``."""
    at = -1
    for _ in range(index + 1):
        at = data.index(b"FRAME\n", at + 1)
    return data[:at] + marker + data[at + len(b"FRAME\n"):]


def record_size(seq):
    return len(b"FRAME\n") + seq.header.frame_size


class TestSplitEqualsSerial:
    @pytest.mark.parametrize("count,cpus", [(4, 2), (5, 2), (17, 2), (9, 3), (40, 3)])
    def test_bare_y4m(self, rng, tmp_path, split, count, cpus):
        calls = split(cpus)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, count)))
        values, _ = assert_split_equals_serial(path, cpus)
        assert calls == [cpus]
        assert len(values) == 8 * (count - 1)

    # A longer marker anywhere makes the file's size no whole number of
    # records, which is seen before any fork.
    @pytest.mark.parametrize("index,splits", [(0, []), (5, []), (11, []), (6, []),
                                              (8, [])])
    def test_non_bare_marker(self, rng, tmp_path, split, index, splits):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 12)), index, b"FRAME Ixyz\n"))
        values, _ = assert_split_equals_serial(path, 2)
        assert len(values) == 8 * 11
        assert calls == splits

    # Chunks start at every other frame, and frame 5 has a longer marker
    # while FRAME still sits where frame 8 would start were every marker
    # bare. This process reads the file itself from frame 0.
    # - "crafted": 10 bytes longer, with FRAME written into the payload at
    #   that offset; the size is no whole number of records, so no fork.
    # - "record": exactly one record longer, so that offset holds frame 7's
    #   bare marker; the chunk from frame 4 finds the longer marker where
    #   frame 5 starts.
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
        serial = buffered(path)
        assert len(serial[0]) == 8 * 11
        reads = []  # (frame index, file name) of readers this process differences
        real = frame_analysis._series_values

        def spy(source):
            if isinstance(source, Y4MReader) and os.getpid() == parent:
                reads.append((source._index, getattr(source._stream, "name", None)))
            return real(source)

        parent = os.getpid()
        monkeypatch.setattr(frame_analysis, "_series_values", spy)
        assert outcome(path, 3) == serial
        assert calls == ([] if longer == "crafted" else [3])
        assert (0, str(path)) in reads

    def test_raw_yuv_with_trailing_bytes(self, rng, tmp_path, split):
        calls = split(2)
        seq = clip(rng, 10)
        path = tmp_path / "clip.yuv"
        path.write_bytes(raw_bytes(seq) + bytes(5))
        error = assert_split_equals_serial(path, 2, seq.header)
        assert error == (TrailingBytes, "5 trailing bytes after the last whole frame")
        assert calls == []

    def test_raw_yuv(self, rng, tmp_path, split):
        calls = split(2)
        seq = clip(rng, 10)
        path = tmp_path / "clip.yuv"
        path.write_bytes(raw_bytes(seq))
        assert_split_equals_serial(path, 2, seq.header)
        assert calls == [2]

    @pytest.mark.parametrize("container,chroma", [("y4m", ChromaFormat.C420),
                                                  ("yuv", ChromaFormat.C420),
                                                  ("y4m", ChromaFormat.C444)])
    def test_clean_ranges_are_used(self, rng, tmp_path, split, container, chroma):
        # The calling process never reads the file serially: the reader it
        # was given is left unread, its first frame still next.
        calls = split(2)
        seq = clip(rng, 10, chroma=chroma)
        header = seq.header if container == "yuv" else None
        path = tmp_path / f"clip.{container}"
        path.write_bytes(raw_bytes(seq) if header else y4m_bytes(seq))
        serial = buffered(path, header)
        with open(path, "rb") as handle:
            reader = Y4MReader(handle, header)
            series = compute_series(reader)
            assert reader.read_frame()[0] == seq.frames[0]
        assert (series.values.tobytes(), series.scene_cut_flags.tobytes()) == serial
        assert calls == [2]

    def test_truncated_last_frame(self, rng, tmp_path, split):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 10))[:-7])
        error = assert_split_equals_serial(path, 2)
        assert error == (TruncatedFrame, "truncated payload for frame 9")
        assert calls == []

    def test_garbage_in_a_middle_range_reports_the_serial_offset(self, rng, tmp_path,
                                                                 split):
        calls = split(3)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 12)), 6, b"FRAMX\n"))
        error = assert_split_equals_serial(path, 3)
        assert error[0] is ParseError
        assert calls == [3]

    # 12 frames on 3 CPUs make six chunks, from frames 0, 2, 4, 6, 8 and 10,
    # each sharing its last frame with the next; a same-length marker keeps
    # the size whole, so the chunks fork and one holding it declines.
    @pytest.mark.parametrize("index", [0, 4, 9, 11])
    def test_same_length_garbage_marker_forks_then_raises_serially(
            self, rng, tmp_path, split, index):
        calls = split(3)
        seq = clip(rng, 12)
        data = y4m_bytes(seq)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(data, index, b"FRAMX\n"))
        offset = data.index(b"\n") + 1 + index * record_size(seq)
        assert assert_split_equals_serial(path, 3) == (
            ParseError,
            f"parse error at byte {offset}: expected FRAME marker, got b'FRAMX'")
        assert calls == [3]

    @pytest.mark.parametrize("chroma", [ChromaFormat.C422, ChromaFormat.C444,
                                        ChromaFormat.MONO])
    def test_chroma_formats(self, rng, tmp_path, split, chroma):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 9, chroma=chroma)))
        assert_split_equals_serial(path, 2)
        assert calls == [2]

    @pytest.mark.parametrize("count,cpus", [(4, 2), (17, 2), (40, 2), (9, 3), (40, 3),
                                            (40, 1)])
    def test_about_four_chunks_per_cpu(self, rng, tmp_path, split, monkeypatch,
                                       count, cpus):
        assert split(cpus) == []
        chunks, counted = [], frame_analysis._claimed_map
        monkeypatch.setattr(frame_analysis, "_claimed_map",
                            lambda evaluate, total, workers:
                            chunks.append(total) or counted(evaluate, total, workers))
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, count)))
        assert_split_equals_serial(path, cpus)
        assert chunks == [min(4 * cpus, count // 2)]

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
        # Chunks start at frames 0, 2, 5, 7, 10, 12, 15 and 17; the jump
        # into frame 12 is transition 11, the last of the chunk from frame
        # 10, whose history reaches back across the boundary at frame 10.
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
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessHygiene:
    def test_no_child_left_after_a_result(self, rng, tmp_path, split):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12)))
        with open(path, "rb") as handle:
            analyze(Y4MReader(handle))
        assert calls == [2]
        assert_no_children()

    def test_no_child_left_after_an_error(self, rng, tmp_path, split):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 12)), 9, b"FRAMX\n"))
        with open(path, "rb") as handle, pytest.raises(JerkmeterError):
            analyze(Y4MReader(handle))
        assert calls == [2]
        assert_no_children()

    def test_a_child_that_dies_is_read_again_here(self, rng, tmp_path, split,
                                                  monkeypatch):
        calls = split(2)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12)))
        real = frame_analysis._fd_pairs
        parent = os.getpid()

        def dies_in_a_child(a, b):
            if os.getpid() != parent:
                os._exit(1)
            return real(a, b)

        monkeypatch.setattr(frame_analysis, "_fd_pairs", dies_in_a_child)
        assert outcome(path, 2) == buffered(path)
        assert calls == [2]
        assert_no_children()

    def test_a_child_that_raises_is_reaped_and_reported(self, tmp_path, split, capfd):
        split(2)
        parent = os.getpid()
        claimed = tmp_path / "claimed"

        def evaluate(i):
            if os.getpid() != parent:
                claimed.touch()
                raise RuntimeError("not a JerkmeterError")
            # Hold the first index until the child has claimed the second.
            deadline = time.monotonic() + 30
            while not claimed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return i

        with pytest.raises(JerkmeterError, match=(
                "^a search worker exited with code 1 before reporting its results$")):
            pool._claimed_map(evaluate, 2, 2)
        assert claimed.exists()
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: not a JerkmeterError" in err
        assert_no_children()

    def test_a_split_forks_once_without_multiprocessing(self, rng, tmp_path):
        # A fresh interpreter: a module another test imported stays imported.
        script = textwrap.dedent("""
            import os, sys
            from jerkmeter import Y4MReader, compute_series, frame_analysis

            os.sched_getaffinity = lambda pid: {0, 1}
            frame_analysis._SPLIT_BYTES = 0
            forks, fork = [], os.fork
            os.fork = lambda: forks.append(os.getpid()) or fork()
            with open(sys.argv[1], "rb") as handle:
                count = compute_series(Y4MReader(handle)).transition_count
            print(len(forks), count, "multiprocessing" in sys.modules)
        """)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 40)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(frame_analysis.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.split() == ["1", "39", "False"]

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
            series = compute_series(Y4MReader(handle))
        assert series.transition_count == 11

    def test_sequence_never_forks(self, rng, no_fork, monkeypatch):
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 0)
        assert compute_series(clip(rng, 12)).transition_count == 11

    def test_file_below_the_floor_never_forks(self, rng, tmp_path, no_fork):
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 300, width=64, height=64)))
        assert path.stat().st_size < frame_analysis._SPLIT_BYTES
        with open(path, "rb") as handle:
            assert compute_series(Y4MReader(handle)).transition_count == 299

    def test_one_cpu_never_forks(self, rng, tmp_path, no_fork, monkeypatch):
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 0)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(clip(rng, 12)))
        with open(path, "rb") as handle:  # it maps
            assert Y4MReader(handle)._mapped(0, frame_analysis._BLOCK_BYTES) is not None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with open(path, "rb") as handle:
            assert compute_series(Y4MReader(handle)).transition_count == 11
        with open(path, "rb") as handle:
            assert analyze(Y4MReader(handle)).series.transition_count == 11

    # 40 frames hold 40 records of unread bytes: the floor is at or one byte
    # above them. At it, the mapping is walked as one slice in this process
    # and the buffered reads are never used; below it, the first frame is
    # read with read_frame (as perfbench's traced tiny run counts) and the
    # rest through luma_blocks.
    @pytest.mark.parametrize("above", [0, 1], ids=["at-the-floor", "below-the-floor"])
    def test_one_cpu_walks_the_mapping_from_the_floor_on(self, rng, tmp_path, split,
                                                         no_fork, monkeypatch, above):
        calls = split(1)
        seq = clip(rng, 40)
        path = tmp_path / "clip.y4m"
        path.write_bytes(y4m_bytes(seq))
        reference = buffered(path)
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 40 * record_size(seq) + above)
        reads = []
        frame, blocks = Y4MReader.read_frame, Y4MReader.luma_blocks
        monkeypatch.setattr(Y4MReader, "read_frame",
                            lambda self: reads.append("read_frame") or frame(self))
        monkeypatch.setattr(Y4MReader, "luma_blocks",
                            lambda self, n: reads.append("luma_blocks") or blocks(self, n))
        assert outcome(path, 1) == reference
        assert (calls, reads) == (([], ["read_frame", "luma_blocks"]) if above
                                  else ([1], []))

    @pytest.mark.parametrize("index", [0, 20, 39])
    def test_one_cpu_bad_marker_raises_the_serial_error(self, rng, tmp_path, split,
                                                        no_fork, monkeypatch, index):
        calls = split(1)
        seq = clip(rng, 40)
        data = y4m_bytes(seq)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(data, index, b"FRAMX\n"))
        monkeypatch.setattr(frame_analysis, "_SPLIT_BYTES", 40 * record_size(seq))
        offset = data.index(b"\n") + 1 + index * record_size(seq)
        error = (ParseError,
                 f"parse error at byte {offset}: expected FRAME marker, got b'FRAMX'")
        assert buffered(path) == error
        assert outcome(path, 1) == error
        assert calls == [1]

    # Four chunks of frames 0-10, 10-20, 20-30 and 30-39: a walk raises at
    # the first bad marker of its block, before any pair of that block is
    # differenced, and no later chunk is claimed before the serial read.
    @pytest.mark.parametrize("index,pairs", [(1, 0), (20, 10)])
    def test_a_bad_marker_stops_the_walk(self, rng, tmp_path, split, no_fork,
                                         monkeypatch, index, pairs):
        split(1)
        path = tmp_path / "clip.y4m"
        path.write_bytes(with_marker(y4m_bytes(clip(rng, 40)), index, b"FRAMX\n"))
        serial = buffered(path)
        assert serial[0] is ParseError
        seen, fd, series = [], frame_analysis._fd_pairs, frame_analysis._series_values
        monkeypatch.setattr(frame_analysis, "_fd_pairs",
                            lambda a, b: seen.append(len(a)) or fd(a, b))
        monkeypatch.setattr(frame_analysis, "_series_values",
                            lambda source: seen.append("serial") or series(source))
        assert outcome(path, 1) == serial
        assert sum(seen[:seen.index("serial")]) == pairs


class TestMappedMemory:
    # A walk of 3-record blocks over a 40-frame clip, from frame 0, from a
    # chunk boundary and through the last frame.
    @pytest.mark.parametrize("first,last", [(0, 10), (10, 21), (21, 39)])
    def test_a_walk_releases_through_its_last_frame(self, rng, tmp_path, monkeypatch,
                                                   first, last):
        released = []

        class Spy(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((start, start + length))
                return super().madvise(option, start, length)

        monkeypatch.setattr(mmap, "mmap", Spy)
        seq = clip(rng, 40, width=64, height=64)
        data = y4m_bytes(seq)
        path = tmp_path / "clip.y4m"
        path.write_bytes(data)
        record, offset, page = record_size(seq), data.index(b"\n") + 1, mmap.PAGESIZE
        with open(path, "rb") as handle:
            frames, walk = Y4MReader(handle)._mapped(0, 3 * record)
            assert len(list(walk(first, last))) == -(-(last - first) // 3)
        # Whole pages, each range starting where the one before ended, up to
        # the page that holds the end of frame ``last``.
        assert released[0][0] == (offset + first * record) // page * page
        assert all(a[1] == b[0] for a, b in zip(released, released[1:]))
        assert released[-1][1] == (offset + (last + 1) * record) // page * page

    SCRIPT = textwrap.dedent("""
        import os, resource, sys
        from jerkmeter import Y4MReader, compute_series, frame_analysis

        # A process's peak RSS starts at that of the process that started
        # it (here, pytest); a forked one starts from its own.
        if os.fork():
            sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
        os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
        frame_analysis._SPLIT_BYTES = 0
        calls, real = [], frame_analysis._claimed_map
        frame_analysis._claimed_map = lambda *args: calls.append(args[2]) or real(*args)
        with open(sys.argv[1], "rb") as handle:
            reader = Y4MReader(handle)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            count = compute_series(reader).transition_count
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(calls, count, grown * 1024)
    """)

    def walk(self, rng, tmp_path, cpus):
        """(worker count of each split, transitions, peak RSS growth) of a 48 MiB clip:
        8,192 frames of 64x64 4:2:0, in a fresh process on ``cpus`` CPUs."""
        header = VideoHeader(width=64, height=64, fps_num=25, fps_den=1)
        record = len(b"FRAME\n") + header.frame_size
        path = tmp_path / "clip.y4m"
        with open(path, "wb") as sink:
            sink.write(y4m_bytes(VideoSequence.from_luma(header, [])))
            for _ in range(8):
                records = rng.integers(0, 256, size=(1024, record), dtype=np.uint8)
                records[:, :6] = np.frombuffer(b"FRAME\n", dtype=np.uint8)
                sink.write(records.tobytes())
        src = os.path.dirname(os.path.dirname(os.path.abspath(frame_analysis.__file__)))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(path), str(cpus)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120, check=True)
        path.unlink()
        calls, count, grown = proc.stdout.rsplit(" ", 2)
        return calls, int(count), int(grown)

    # A process maps the whole file, but its peak RSS may grow only by a
    # few MiB (one block, the page-cache folios a fault maps), not by what
    # it walks: on 2 CPUs, walking 24 MiB grew it about 6 MiB with the
    # release (7.5 MiB while each walk kept its last block mapped) and 28
    # MiB without it, on Linux 6.18 and ext4. The bound is half of that walk.
    BOUND = 4096 * (6 + 64 * 64 * 3 // 2) // 2

    def test_pages_behind_each_block_are_released(self, rng, tmp_path):
        calls, count, grown = self.walk(rng, tmp_path, 2)
        assert (calls, count) == ("[2]", 8191)
        assert grown < self.BOUND

    def test_pages_behind_each_block_are_released_on_one_cpu(self, rng, tmp_path):
        # One slice of all 48 MiB, walked in the calling process.
        calls, count, grown = self.walk(rng, tmp_path, 1)
        assert (calls, count) == ("[1]", 8191)
        assert grown < self.BOUND
