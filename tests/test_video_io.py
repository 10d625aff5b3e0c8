import gc
import io
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from jerkmeter import (
    ChromaFormat,
    JerkmeterError,
    LumaFrame,
    ParseError,
    ShapeError,
    TooFewFrames,
    TrailingBytes,
    TruncatedFrame,
    UnsupportedFormat,
    VideoHeader,
    VideoSequence,
    Y4MReader,
    compute_series,
    write_y4m,
)
from jerkmeter import frame_analysis, video_io
from jerkmeter.video_io import header_tokens

from conftest import frame, make_sequence, random_frames, y4m_bytes


def simple_y4m(params=b"W4 H2 F25:1", frames=(bytes(range(8)),), chroma=(b"\x80" * 4,)):
    buf = b"YUV4MPEG2 " + params + b"\n"
    for luma, c in zip(frames, chroma):
        buf += b"FRAME\n" + luma + c
    return buf


class TestHeaderParsing:
    def test_minimal_header(self):
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m())))
        assert seq.header.width == 4
        assert seq.header.height == 2
        assert seq.header.fps_num == 25
        assert seq.header.fps_den == 1
        assert seq.header.chroma is ChromaFormat.C420
        assert seq.frame_count == 1
        assert seq.frames[0].samples.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_extra_params_preserved(self):
        params = b"W4 H2 F30000:1001 Ip A1:1 C420jpeg XYSCSS=420JPEG"
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m(params))))
        assert seq.header.raw_params == (
            "W4", "H2", "F30000:1001", "Ip", "A1:1", "C420jpeg", "XYSCSS=420JPEG",
        )
        assert seq.header.fps == pytest.approx(30000 / 1001)

    @pytest.mark.parametrize("token,fmt", [
        (b"C420", ChromaFormat.C420),
        (b"C420jpeg", ChromaFormat.C420),
        (b"C420mpeg2", ChromaFormat.C420),
        (b"C420paldv", ChromaFormat.C420),
        (b"C422", ChromaFormat.C422),
        (b"C444", ChromaFormat.C444),
        (b"Cmono", ChromaFormat.MONO),
    ])
    def test_chroma_tokens(self, token, fmt):
        header = Y4MReader(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 " + token + b"\n")).header
        assert header.chroma is fmt

    def test_every_format_value_and_420_siting(self):
        tokens = {fmt.value: fmt for fmt in ChromaFormat}
        tokens.update(dict.fromkeys(["420jpeg", "420mpeg2", "420paldv"], ChromaFormat.C420))
        for token, fmt in tokens.items():
            data = f"YUV4MPEG2 W4 H2 F25:1 C{token}\n".encode()
            assert Y4MReader(io.BytesIO(data)).header.chroma is fmt
        with pytest.raises(UnsupportedFormat, match="^chroma token C420p10$"):
            Y4MReader(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1 C420p10\n"))

    def test_missing_signature(self):
        with pytest.raises(ParseError) as exc:
            VideoSequence.from_reader(Y4MReader(io.BytesIO(b"AVI xxxx\n")))
        assert exc.value.position == 0

    @pytest.mark.parametrize("params", [b"H2 F25:1", b"W4 F25:1", b"W4 H2"])
    def test_missing_required_token(self, params):
        with pytest.raises(ParseError):
            VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m(params))))

    def test_bad_frame_rate(self):
        with pytest.raises(ParseError):
            VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m(b"W4 H2 F25"))))

    @pytest.mark.parametrize("params,offset", [
        (b"W4_0 H2 F25:1", 10), (b"W+4 H2 F25:1", 10), (b"W H2 F25:1", 10),
        (b"W4 H-2 F25:1", 13), (b"W4 H 2 F25:1", 13),
        (b"W4 H2 F2_5:1", 16), (b"W4 H2 F+25:1", 16), (b"W4 H2 F25:1_0", 16),
        (b"W4 H2 F25:", 16),
    ])
    def test_numbers_are_plain_decimal_digits(self, params, offset):
        with pytest.raises(ParseError) as exc:
            VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m(params))))
        assert exc.value.position == offset

    def test_unsupported_chroma(self):
        with pytest.raises(UnsupportedFormat):
            VideoSequence.from_reader(Y4MReader(io.BytesIO(simple_y4m(b"W4 H2 F25:1 C420p16"))))

    @pytest.mark.parametrize("head,reason", [
        (b"YUV4MPEG2X W2 H2 F25:1\n", "garbage after signature"),
        (b"YUV4MPEG2 W2 H2 F25:1 X\xff\n", "non-ASCII header parameter"),
    ], ids=["garbage", "non-ascii"])
    def test_signature_and_parameter_refusals(self, head, reason):
        with pytest.raises(ParseError) as exc:
            Y4MReader(io.BytesIO(head))
        assert str(exc.value) == f"parse error at byte 9: {reason}"

    def test_unterminated_header(self):
        with pytest.raises(ParseError):
            VideoSequence.from_reader(Y4MReader(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1")))

    def test_overlong_header(self):
        with pytest.raises(ParseError) as exc:
            Y4MReader(io.BytesIO(simple_y4m(b"W4 H2 F25:1 X" + b"y" * 5000)))
        assert exc.value.position == 0


class TestFramePayloads:
    def test_truncated_frame_carries_index(self):
        data = simple_y4m() + b"FRAME\n" + b"\x00" * 5  # second frame short
        with pytest.raises(TruncatedFrame) as exc:
            VideoSequence.from_reader(Y4MReader(io.BytesIO(data)))
        assert exc.value.frame_index == 1

    def test_garbage_frame_marker(self):
        data = b"YUV4MPEG2 W4 H2 F25:1\nGRAME\n" + bytes(12)
        with pytest.raises(ParseError):
            VideoSequence.from_reader(Y4MReader(io.BytesIO(data)))

    def test_zero_frames_ok(self):
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(b"YUV4MPEG2 W4 H2 F25:1\n")))
        assert seq.frame_count == 0

    def test_frame_params_on_marker_line_accepted(self, rng):
        seq = make_sequence(rng, count=4, width=4, height=2)
        plain = y4m_bytes(seq)
        parts = plain.split(b"FRAME\n")
        with_params = parts[0] + b"".join(
            marker + part for marker, part in
            zip((b"FRAME Ixyz\n", b"FRAME\n", b"FRAME Ip Xa=1\n", b"FRAME \n"), parts[1:]))
        assert (VideoSequence.from_reader(Y4MReader(io.BytesIO(with_params)))
                == seq == VideoSequence.from_reader(Y4MReader(io.BytesIO(plain))))

    @pytest.mark.parametrize("tail,offset,reason", [
        (b"GRAME\n" + bytes(12), 0, "expected FRAME marker"),
        (b"FRAMES\n" + bytes(12), 0, "expected FRAME marker"),
        (b"FRAME\r\n" + bytes(12), 0, "expected FRAME marker"),
        (b"\n" + bytes(12), 0, "expected FRAME marker"),
        (b"FRAME", 5, "unterminated frame marker"),
        (b"FRAME Ix", 8, "unterminated frame marker"),
        (b"FRAME " + b"X" * 5000 + b"\n", 0, "frame marker too long"),
    ], ids=["garbage", "prefix", "crlf", "empty", "unterminated", "unterminated-params",
            "overlong"])
    def test_bad_second_marker_offsets(self, tail, offset, reason):
        data = simple_y4m()
        with pytest.raises(ParseError) as exc:
            VideoSequence.from_reader(Y4MReader(io.BytesIO(data + tail)))
        assert exc.value.position == len(data) + offset
        assert exc.value.reason.startswith(reason)


class TestHeaderValidation:
    def test_odd_dimensions_rejected_for_420(self):
        with pytest.raises(UnsupportedFormat):
            VideoHeader(width=5, height=2, fps_num=25, fps_den=1)

    def test_odd_width_rejected_for_422(self):
        with pytest.raises(UnsupportedFormat):
            VideoHeader(width=5, height=3, fps_num=25, fps_den=1,
                        chroma=ChromaFormat.C422)

    def test_odd_dimensions_fine_for_mono(self):
        header = VideoHeader(width=5, height=3, fps_num=25, fps_den=1,
                             chroma=ChromaFormat.MONO)
        assert header.chroma_size == 0
        assert header.frame_size == 15

    @pytest.mark.parametrize("w,h,num,den", [
        (0, 2, 25, 1), (2, 0, 25, 1), (2, 2, 0, 1), (2, 2, 25, 0),
    ])
    def test_degenerate_geometry(self, w, h, num, den):
        with pytest.raises(UnsupportedFormat):
            VideoHeader(width=w, height=h, fps_num=num, fps_den=den)

    @pytest.mark.parametrize("fmt,expected", [
        (ChromaFormat.C420, 4 * 6 + 2 * 3 * 2),
        (ChromaFormat.C422, 4 * 6 + 2 * 6 * 2),
        (ChromaFormat.C444, 4 * 6 * 3),
        (ChromaFormat.MONO, 4 * 6),
    ])
    def test_frame_sizes(self, fmt, expected):
        header = VideoHeader(width=4, height=6, fps_num=25, fps_den=1, chroma=fmt)
        assert header.frame_size == expected


class TestLumaFrame:
    def test_shape_mismatch(self):
        with pytest.raises(UnsupportedFormat):
            LumaFrame(width=4, height=2, samples=np.zeros((2, 5), dtype=np.uint8))

    def test_wrong_dtype(self):
        with pytest.raises(UnsupportedFormat):
            LumaFrame(width=2, height=2, samples=np.zeros((2, 2), dtype=np.float32))

    def test_equality_is_by_content(self):
        a = frame([[1, 2], [3, 4]])
        b = frame([[1, 2], [3, 4]])
        c = frame([[1, 2], [3, 5]])
        assert a == b
        assert a != c


class TestRoundTrip:
    def test_write_then_parse_is_identity(self, rng):
        seq = make_sequence(rng, count=5)
        again = VideoSequence.from_reader(Y4MReader(io.BytesIO(y4m_bytes(seq))))
        assert again == seq

    def test_parsed_stream_rewrites_byte_identical(self):
        original = simple_y4m(b"W4 H2 F30000:1001 Ip A1:1 C420 XWEIRD=1")
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(original)))
        assert y4m_bytes(seq) == original

    def test_canonical_tokens_for_synthetic_header(self):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        assert header_tokens(header) == ("W4", "H2", "F25:1", "C420jpeg")

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(1, 8).map(lambda v: v * 2),
        height=st.integers(1, 8).map(lambda v: v * 2),
        count=st.integers(0, 4),
        fmt=st.sampled_from(list(ChromaFormat)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, width, height, count, fmt, seed):
        rng = np.random.default_rng(seed)
        header = VideoHeader(width=width, height=height, fps_num=30, fps_den=1,
                             chroma=fmt)
        frames = random_frames(rng, count, width, height)
        chroma = [rng.bytes(header.chroma_size) for _ in range(count)]
        seq = VideoSequence(header=header, frames=frames, chroma=chroma)
        data = y4m_bytes(seq)
        assert VideoSequence.from_reader(Y4MReader(io.BytesIO(data))) == seq
        assert y4m_bytes(VideoSequence.from_reader(Y4MReader(io.BytesIO(data)))) == data


class TestRawYuv:
    def test_round_trip(self, rng):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        frames = random_frames(rng, 3, 4, 2)
        chroma = [rng.bytes(header.chroma_size) for _ in range(3)]
        payload = b"".join(
            f.samples.tobytes() + c for f, c in zip(frames, chroma)
        )
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(payload), header))
        assert seq.frames == frames
        assert seq.chroma == chroma

    def test_trailing_bytes(self):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        payload = bytes(header.frame_size) + b"\x00\x01\x02"
        with pytest.raises(TrailingBytes) as exc:
            VideoSequence.from_reader(Y4MReader(io.BytesIO(payload), header))
        assert exc.value.remainder == 3

    def test_iter_matches_parse(self, rng):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        payload = rng.bytes(header.frame_size * 3)
        materialized = VideoSequence.from_reader(Y4MReader(io.BytesIO(payload), header))
        reader = Y4MReader(io.BytesIO(payload), header)
        assert reader.header is header
        assert [f for f, _ in iter(reader.read_frame, None)] == materialized.frames
        assert len(materialized.frames) == 3

    def test_mono_has_empty_chroma(self, rng):
        header = VideoHeader(width=3, height=3, fps_num=25, fps_den=1,
                             chroma=ChromaFormat.MONO)
        seq = VideoSequence.from_reader(Y4MReader(io.BytesIO(rng.bytes(9 * 2)), header))
        assert seq.frame_count == 2
        assert seq.chroma == [b"", b""]


class TestStreaming:
    def test_reader_yields_same_frames(self, rng):
        seq = make_sequence(rng, count=6)
        reader = Y4MReader(io.BytesIO(y4m_bytes(seq)))
        assert [f for f, _ in iter(reader.read_frame, None)] == seq.frames

    def test_iteration_releases_earlier_frames(self, rng):
        seq = make_sequence(rng, count=12)
        reader = Y4MReader(io.BytesIO(y4m_bytes(seq)))
        refs = []
        for f, _ in iter(reader.read_frame, None):
            refs.append(weakref.ref(f))
        del f
        gc.collect()
        # Streaming contract: nothing but the most recent frame may survive.
        assert sum(1 for r in refs if r() is not None) <= 1


class _RecordingStream(io.BytesIO):
    """A BytesIO that remembers the largest read it was asked for.

    Both ``read(n)`` and ``readinto(buffer)`` count, the latter by the
    buffer's size; ``limit`` caps what either returns per call.
    """

    largest = 0
    limit = None

    def read(self, n=-1):
        self.largest = max(self.largest, n)
        if self.limit is not None:
            n = self.limit if n < 0 else min(n, self.limit)
        return super().read(n)

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        self.largest = max(self.largest, len(view))
        if self.limit is not None:
            view = view[:self.limit]
        return super().readinto(view)


class Trickle(_RecordingStream):
    """Returns at most 7 bytes per read, as a pipe may."""

    limit = 7


class TestBoundedReads:
    # 60000x60000 claims a 5.4 GB frame; the stream holds a few bytes.
    HUGE = VideoHeader(width=60000, height=60000, fps_num=25, fps_den=1)

    def test_lying_y4m_header_is_truncated_frame(self):
        stream = _RecordingStream(
            b"YUV4MPEG2 W60000 H60000 F25:1\nFRAME\n" + bytes(13))
        with pytest.raises(TruncatedFrame) as exc:
            VideoSequence.from_reader(Y4MReader(stream))
        assert exc.value.frame_index == 0
        assert 0 < stream.largest <= video_io._READ_CHUNK

    def test_lying_raw_geometry_is_trailing_bytes(self):
        stream = _RecordingStream(bytes(13))
        with pytest.raises(TrailingBytes) as exc:
            Y4MReader(stream, self.HUGE).read_frame()
        assert exc.value.remainder == 13
        assert 0 < stream.largest <= video_io._READ_CHUNK

    def test_short_reads_are_completed(self, rng):
        seq = make_sequence(rng, count=4, width=8, height=6)
        stream = Trickle(y4m_bytes(seq))
        assert VideoSequence.from_reader(Y4MReader(stream)) == seq
        assert stream.largest > 7

    def test_payload_spanning_many_chunks(self, rng, monkeypatch):
        seq = make_sequence(rng, count=4, width=8, height=6)
        data = y4m_bytes(seq)
        monkeypatch.setattr(video_io, "_READ_CHUNK", 5)
        stream = _RecordingStream(data)
        assert VideoSequence.from_reader(Y4MReader(stream)) == seq
        assert stream.largest == 5


# Bare, parameterised, garbage and CRLF frame markers.
MARKERS = (b"FRAME\n", b"FRAME Ixyz\n", b"FRAME \n", b"GRAME\n", b"FRAME\r\n")


@st.composite
def clips(draw):
    """A Y4M or raw YUV stream described by its parts, and how to read it.

    Frames run from 1x1 to larger than a block; the block budget holds one
    to five frames, so the frame count crosses block boundaries. Most
    markers are bare, as in written files; ``cut`` bytes are taken off the
    end of the stream, so it may stop at any byte of its last record.
    """
    chroma = draw(st.sampled_from([ChromaFormat.MONO, ChromaFormat.C420]))
    step = 1 if chroma is ChromaFormat.MONO else 2
    header = VideoHeader(width=draw(st.integers(1, 12)) * step,
                         height=draw(st.integers(1, 12)) * step,
                         fps_num=25, fps_den=1, chroma=chroma)
    raw = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few distinct payloads, repeated, so some differences are zero.
    pool = [rng.bytes(header.frame_size) for _ in range(3)]
    count = draw(st.integers(0, 12))
    frames = [pool[draw(st.integers(0, 2))] for _ in range(count)]
    if raw:
        markers = [b""] * count
    else:
        markers = [draw(st.one_of(st.just(MARKERS[0]), st.just(MARKERS[0]),
                                  st.sampled_from(MARKERS)))
                   for _ in range(count)]
    cut = draw(st.one_of(st.just(0), st.integers(1, header.frame_size + len(MARKERS[-1]))))
    block_bytes = draw(st.integers(1, 5 * (header.frame_size + 6)))
    stream = draw(st.sampled_from([io.BytesIO, Trickle]))
    return header, raw, frames, markers, cut, block_bytes, stream


def _expected(header, raw, frames, markers, cut, start):
    """Series bytes, or the class and message of the error, from the parts.

    Walks the records as they were generated, ``start`` bytes into the
    stream, and diffs the luma planes in int64; no reader code is used.
    """
    end = max(0, sum(len(m) + len(f) for m, f in zip(markers, frames)) - cut)
    luma, off = [], 0
    for index, (marker, payload) in enumerate(zip(markers, frames)):
        left = end - off
        if left == 0:
            break
        if left < len(marker):
            err = ParseError(start + off + left, "unterminated frame marker")
            return type(err), str(err)
        if not raw and marker not in (b"FRAME\n", b"FRAME Ixyz\n", b"FRAME \n"):
            err = ParseError(start + off, f"expected FRAME marker, got {marker[:-1]!r}")
            return type(err), str(err)
        left -= len(marker)
        if left < len(payload):
            err = TrailingBytes(left) if raw else TruncatedFrame(index)
            return type(err), str(err)
        luma.append(np.frombuffer(payload[:header.luma_size], dtype=np.uint8))
        off += len(marker) + len(payload)
    if len(luma) < 2:
        return TooFewFrames, "need at least two frames to form a difference"
    values = [float(np.square(a.astype(np.int64) - b).sum()) / header.luma_size
              for a, b in zip(luma, luma[1:])]
    return np.array(values, dtype=np.float64).tobytes()


def _outcome(run):
    """Series bytes, or the class and message of the error raised."""
    try:
        return run().values.tobytes()
    except JerkmeterError as exc:
        return type(exc), str(exc)


class TestBlockReads:
    @seed(20261018)
    @settings(max_examples=400, deadline=None)
    @given(clip=clips())
    def test_both_read_paths_match_a_reference(self, clip):
        header, raw, frames, markers, cut, block_bytes, stream = clip
        data = b"".join(m + f for m, f in zip(markers, frames))
        data = data[:max(0, len(data) - cut)]
        start = 0
        if not raw:
            tokens = b"".join(b" " + t.encode("ascii") for t in header_tokens(header))
            prefix = b"YUV4MPEG2" + tokens + b"\n"
            data, start = prefix + data, len(prefix)
        given_header = header if raw else None

        def blocked():
            return compute_series(Y4MReader(stream(data), given_header))

        def frame_by_frame():
            seq = VideoSequence.from_reader(Y4MReader(stream(data), given_header))
            return compute_series(seq.frames)

        expected = _expected(header, raw, frames, markers, cut, start)
        with mock.patch.object(frame_analysis, "_BLOCK_BYTES", block_bytes):
            assert _outcome(blocked) == expected
        assert _outcome(frame_by_frame) == expected

    @pytest.mark.parametrize("k", [0, 7, 8, 9, 71, 72, 73, 99])
    def test_marker_checked_at_every_position_of_a_block(self, k):
        # Markers are compared in runs of 8, 64, ...; the frames are tiny,
        # so all 100 records share one block and k sits at each run's edges.
        header = b"YUV4MPEG2 W2 H2 F25:1 Cmono\n"

        def stream(marker):
            return io.BytesIO(header + b"".join(
                (marker if i == k else b"FRAME\n") + bytes([i]) * 4 for i in range(100)))

        with pytest.raises(ParseError) as exc:
            compute_series(Y4MReader(stream(b"GRAME\n")))
        assert exc.value.position == len(header) + 10 * k
        assert compute_series(Y4MReader(stream(b"FRAME Ixyz\n"))).values.tolist() == [1.0] * 99

    def test_series_does_not_keep_the_first_frame(self, rng):
        # Frames larger than a block are read one per block; by the time
        # the last is read, the first may be held only as the carried row.
        seq = make_sequence(rng, count=6, width=512, height=512)
        reader = Y4MReader(io.BytesIO(y4m_bytes(seq)))
        refs = []
        read_frame = reader.read_frame

        def traced_read_frame():
            nxt = read_frame()
            refs.append(weakref.ref(nxt[0]))
            return nxt

        def blocks(max_bytes):
            for rows in Y4MReader.luma_blocks(reader, max_bytes):
                yield rows
                assert [r() for r in refs] == [None]

        reader.read_frame = traced_read_frame
        reader.luma_blocks = blocks
        assert compute_series(reader).frame_count == 6
        assert len(refs) == 1


class TestVideoSequence:
    def test_parallel_chroma_enforced(self, rng):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        with pytest.raises(ValueError):
            VideoSequence(header=header, frames=random_frames(rng, 2, 4, 2),
                          chroma=[b""])

    def test_frames_must_match_the_header(self, rng):
        # Five 4x4 frames under an 8x6 header would write a file that its
        # own reader refuses.
        header = VideoHeader(width=8, height=6, fps_num=25, fps_den=1)
        with pytest.raises(ShapeError, match="^frame 0 is 4x4 with 24 chroma bytes; "
                                             "the header says 8x6 with 24$"):
            VideoSequence.from_luma(header, random_frames(rng, 5, 4, 4))
        chroma = [b"\x80" * 24] * 2 + [b"\x80" * 23]
        with pytest.raises(ShapeError, match="^frame 2 is 8x6 with 23 chroma bytes"):
            VideoSequence(header, random_frames(rng, 3, 8, 6), chroma)
        seq = VideoSequence(header, random_frames(rng, 4, 8, 6), chroma[:2] * 2)
        assert seq.frame_count == 4

    def test_iterates_luma_frames(self, rng):
        seq = make_sequence(rng, count=3)
        assert list(seq) == seq.frames

    def test_from_luma_fills_chroma(self, rng):
        header = VideoHeader(width=4, height=2, fps_num=25, fps_den=1)
        seq = VideoSequence.from_luma(header, random_frames(rng, 2, 4, 2))
        assert all(c == b"\x80" * header.chroma_size for c in seq.chroma)
