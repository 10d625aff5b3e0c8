"""Y4M container and headerless planar YUV reading/writing.

Only 8-bit planar formats are handled. One reader, ``Y4MReader``, serves
both containers and streams frames in blocks or one at a time;
``VideoSequence.from_reader(Y4MReader(f))`` materializes a whole clip.
Chroma planes are read and carried along so files survive a parse/write
round trip byte for byte, but all analysis downstream looks at the luma
plane only.
"""

from __future__ import annotations

import enum
import mmap
import os
import stat
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    ParseError,
    ShapeError,
    TrailingBytes,
    TruncatedFrame,
    UnsupportedFormat,
)

Y4M_SIGNATURE = b"YUV4MPEG2"
_MAX_HEADER_LINE = 4096
_MARKER = b"FRAME\n"
_MARKER_BYTES = np.frombuffer(_MARKER, dtype=np.uint8)
# Largest single read, and step by which the reader's buffer grows; bounds
# what a header claiming more than the file holds can cost.
_READ_CHUNK = 1 << 24


class ChromaFormat(enum.Enum):
    C420 = "420"
    C422 = "422"
    C444 = "444"
    MONO = "mono"


# Raw C-token -> format. Anything else (alpha planes, >8-bit depths) is refused.
_CHROMA_TOKENS = {
    "420": ChromaFormat.C420,
    "420jpeg": ChromaFormat.C420,
    "420mpeg2": ChromaFormat.C420,
    "420paldv": ChromaFormat.C420,
    "422": ChromaFormat.C422,
    "444": ChromaFormat.C444,
    "mono": ChromaFormat.MONO,
}

_CANONICAL_TOKENS = {
    ChromaFormat.C420: "420jpeg",
    ChromaFormat.C422: "422",
    ChromaFormat.C444: "444",
    ChromaFormat.MONO: "mono",
}


@dataclass(frozen=True)
class VideoHeader:
    width: int
    height: int
    fps_num: int
    fps_den: int
    chroma: ChromaFormat = ChromaFormat.C420
    # Exact Y4M parameter tokens as parsed, kept so writes round-trip.
    raw_params: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise UnsupportedFormat(f"bad dimensions {self.width}x{self.height}")
        if self.fps_num < 1 or self.fps_den < 1:
            raise UnsupportedFormat(f"bad frame rate {self.fps_num}:{self.fps_den}")
        if self.chroma is ChromaFormat.C420 and (self.width % 2 or self.height % 2):
            raise UnsupportedFormat("4:2:0 needs even width and height")
        if self.chroma is ChromaFormat.C422 and self.width % 2:
            raise UnsupportedFormat("4:2:2 needs even width")

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    @property
    def luma_size(self) -> int:
        return self.width * self.height

    @property
    def chroma_size(self) -> int:
        """Total bytes of both chroma planes for one frame."""
        if self.chroma is ChromaFormat.MONO:
            return 0
        if self.chroma is ChromaFormat.C420:
            return (self.width // 2) * (self.height // 2) * 2
        if self.chroma is ChromaFormat.C422:
            return (self.width // 2) * self.height * 2
        return self.width * self.height * 2

    @property
    def frame_size(self) -> int:
        return self.luma_size + self.chroma_size


@dataclass(eq=False)
class LumaFrame:
    """One decoded Y plane, shape (height, width), dtype uint8."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.dtype != np.uint8:
            raise UnsupportedFormat(f"luma must be 8-bit, got {self.samples.dtype}")
        if self.samples.shape != (self.height, self.width):
            raise UnsupportedFormat(
                f"luma shape {self.samples.shape} != ({self.height}, {self.width})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LumaFrame):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.samples, other.samples)
        )


@dataclass(eq=False)
class VideoSequence:
    header: VideoHeader
    frames: list[LumaFrame]
    # Opaque chroma payloads, parallel to frames (b"" for mono).
    chroma: list[bytes]

    def __post_init__(self):
        if len(self.chroma) != len(self.frames):
            raise ValueError("chroma list must be parallel to frames")
        h = self.header
        for i, (frame, chroma) in enumerate(zip(self.frames, self.chroma)):
            if (frame.width, frame.height, len(chroma)) != (h.width, h.height, h.chroma_size):
                raise ShapeError(
                    f"frame {i} is {frame.width}x{frame.height} with {len(chroma)} chroma "
                    f"bytes; the header says {h.width}x{h.height} with {h.chroma_size}")

    @classmethod
    def from_luma(cls, header: VideoHeader, frames: list[LumaFrame]) -> "VideoSequence":
        """Build a sequence with flat mid-grey (128) chroma, for synthetic video."""
        plane = b"\x80" * header.chroma_size
        return cls(header=header, frames=list(frames), chroma=[plane] * len(frames))

    @classmethod
    def from_reader(cls, reader: "Y4MReader") -> "VideoSequence":
        """Read every remaining frame of ``reader``, chroma included."""
        frames: list[LumaFrame] = []
        chroma: list[bytes] = []
        while (nxt := reader.read_frame()) is not None:
            frames.append(nxt[0])
            chroma.append(nxt[1])
        return cls(header=reader.header, frames=frames, chroma=chroma)

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[LumaFrame]:
        return iter(self.frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoSequence):
            return NotImplemented
        return (
            self.header == other.header
            and self.frames == other.frames
            and self.chroma == other.chroma
        )


def _parse_count(text: str, pos: int, what: str) -> int:
    """A Y4M number: decimal digits only (header tokens are ASCII)."""
    if not text.isdigit():
        raise ParseError(pos, f"bad {what} {text!r}")
    return int(text)


def _parse_ratio(text: str, pos: int, what: str) -> tuple[int, int]:
    num, sep, den = text.partition(":")
    if not sep:
        raise ParseError(pos, f"{what} must be num:den, got {text!r}")
    if not (num.isdigit() and den.isdigit()):
        raise ParseError(pos, f"non-integer {what} {text!r}")
    return int(num), int(den)


class Y4MReader:
    """Streaming frame reader over one reused buffer.

    Reads Y4M when ``header`` is None, otherwise headerless planar YUV of
    the given geometry. ``luma_blocks`` hands out the luma planes of as
    many whole frames as fit in a byte budget, as views into the buffer;
    ``read_frame`` hands out an independent copy of one frame.
    Either way the buffer holds one block, or one frame when a frame is
    larger, plus one block of gathered copies once a marker other than a
    bare ``FRAME`` is met, so memory does not grow with the clip's length.
    """

    def __init__(self, stream: BinaryIO, header: VideoHeader | None = None):
        self._stream = stream
        self._buf = np.empty(0, dtype=np.uint8)
        self._lo = self._hi = 0  # unread bytes: self._buf[self._lo:self._hi]
        self._pos = 0  # stream offset of self._lo
        self._gathered = np.empty((0, 0), dtype=np.uint8)
        self._index = 0
        self._marker_size = 0 if header is not None else len(_MARKER)
        self.header = header if header is not None else self._parse_header()
        self._record = self._marker_size + self.header.frame_size

    def _fill(self, n: int) -> int:
        """Make ``n`` unread bytes available, fewer only at end of stream.

        Returns how many are available. Each read asks for at most
        ``_READ_CHUNK`` bytes and the buffer grows only once full, so a
        header claiming a larger frame than the file holds costs one chunk,
        not the claimed size.
        """
        lo, hi = self._lo, self._hi
        if hi - lo >= n:
            return hi - lo
        buf = self._buf
        if lo:
            buf[:hi - lo] = buf[lo:hi]
            hi -= lo
            self._lo = 0
        while hi < n:
            if hi == len(buf):
                grown = np.empty(min(n, hi + _READ_CHUNK), dtype=np.uint8)
                grown[:hi] = buf[:hi]
                buf = self._buf = grown
            got = self._stream.readinto(memoryview(buf)[hi:min(n, hi + _READ_CHUNK)])
            if not got:
                break
            hi += got
        self._hi = hi
        return hi

    def _consume(self, n: int) -> None:
        self._lo += n
        self._pos += n

    def _read_line(self, name: str) -> bytes | None:
        """The next line without its newline, or None at end of stream; errors say ``name``."""
        start = self._pos
        available = min(self._fill(_MAX_HEADER_LINE), _MAX_HEADER_LINE)
        text = self._buf[self._lo:self._lo + available].tobytes()
        end = text.find(b"\n")
        if end < 0:
            if available == _MAX_HEADER_LINE:
                raise ParseError(start, f"{name} too long")
            if available:
                raise ParseError(start + available, f"unterminated {name}")
            return None
        self._consume(end + 1)
        return text[:end]

    def _parse_header(self) -> VideoHeader:
        line = self._read_line("header line")
        if line is None or not line.startswith(Y4M_SIGNATURE):
            raise ParseError(0, "missing YUV4MPEG2 signature")
        rest = line[len(Y4M_SIGNATURE):]
        if rest and not rest.startswith(b" "):
            raise ParseError(len(Y4M_SIGNATURE), "garbage after signature")
        try:
            params = tuple(tok.decode("ascii") for tok in rest.split(b" ") if tok)
        except UnicodeDecodeError:
            raise ParseError(len(Y4M_SIGNATURE), "non-ASCII header parameter") from None

        width = height = None
        fps = None
        chroma = ChromaFormat.C420
        pos = len(Y4M_SIGNATURE) + 1
        for tok in params:
            key, val = tok[0], tok[1:]
            if key == "W":
                width = _parse_count(val, pos, "width")
            elif key == "H":
                height = _parse_count(val, pos, "height")
            elif key == "F":
                fps = _parse_ratio(val, pos, "frame rate")
            elif key == "C":
                if val not in _CHROMA_TOKENS:
                    raise UnsupportedFormat(f"chroma token C{val}")
                chroma = _CHROMA_TOKENS[val]
            # I, A, X and anything else: kept verbatim in raw_params, ignored here.
            pos += len(tok) + 1

        if width is None or height is None:
            raise ParseError(len(Y4M_SIGNATURE), "header missing W or H token")
        if fps is None:
            raise ParseError(len(Y4M_SIGNATURE), "header missing F token")
        return VideoHeader(width=width, height=height, fps_num=fps[0],
                           fps_den=fps[1], chroma=chroma, raw_params=params)

    def _bare_records(self, count: int) -> np.ndarray:
        """Payloads of up to ``count`` next whole records behind bare markers.

        Consumes them and returns a (frames, frame_size) view of the buffer,
        possibly empty. The buffer is refilled only when it holds less than
        one record, so a run of other markers does not reread the block.
        """
        record = self._record
        available = self._hi - self._lo
        if available < record:
            available = self._fill(count * record)
        whole = min(count, available // record)
        records = self._buf[self._lo:self._lo + whole * record].reshape(whole, record)
        if self._marker_size:
            # Check markers in runs growing 8-fold and stop at the first bad
            # one, so a run costs in proportion to its own length.
            checked, run = 0, 8
            while checked < whole:
                end = min(whole, checked + run)
                bad = np.flatnonzero(
                    (records[checked:end, :len(_MARKER)] != _MARKER_BYTES).any(axis=1))
                if bad.size:
                    whole = checked + int(bad[0])
                checked, run = end, run * 8
        self._consume(whole * record)
        self._index += whole
        return records[:whole, self._marker_size:]

    def _checked_record(self) -> np.ndarray | None:
        """Payload of the next frame through the line checks, or None at a clean end.

        This is the path for any marker other than a bare ``FRAME`` and for
        a short tail; it reports where and why the stream is malformed.
        """
        if self._marker_size:
            start = self._pos
            marker = self._read_line("frame marker")
            if marker is None:
                return None
            if marker.split(b" ", 1)[0] != b"FRAME":
                raise ParseError(start, f"expected FRAME marker, got {marker[:16]!r}")
        size = self.header.frame_size
        available = self._fill(size)
        if available < size:
            if self._marker_size:
                raise TruncatedFrame(self._index)
            if available:
                raise TrailingBytes(available)
            return None
        payload = self._buf[self._lo:self._lo + size]
        self._consume(size)
        self._index += 1
        return payload

    def _read_records(self, count: int) -> np.ndarray | None:
        """Payloads of up to ``count`` next frames, or None at a clean end.

        The result is a (frames, frame_size) array valid until the next
        read: a view of the buffer for a run of bare markers, else copies
        gathered into a second reused array of at most ``count`` frames.
        """
        run = self._bare_records(count)
        if len(run):
            return run
        payload = self._checked_record()
        if payload is None or count == 1:
            return None if payload is None else payload.reshape(1, -1)
        if self._gathered.shape[0] != count:
            self._gathered = np.empty((count, len(payload)), dtype=np.uint8)
        gathered = self._gathered
        gathered[0] = payload
        n = 1
        while n < count:
            if (self._buf[self._lo:self._lo + len(_MARKER)].tobytes() == _MARKER
                    and len(run := self._bare_records(count - n))):
                gathered[n:n + len(run)] = run
                n += len(run)
            elif (payload := self._checked_record()) is not None:
                gathered[n] = payload
                n += 1
            else:
                break
        return gathered[:n]

    def luma_blocks(self, max_bytes: int) -> Iterator[np.ndarray]:
        """Luma planes of the remaining frames, block by block.

        Each block holds as many frames as whole records fit in
        ``max_bytes``, at least one, as a (frames, width * height) uint8
        view that the next read overwrites: into the reader's buffer for
        frames behind bare markers, into the gathered copies otherwise.
        """
        count = max(1, max_bytes // self._record)
        while (payload := self._read_records(count)) is not None:
            yield payload[:, :self.header.luma_size]

    def _mapped(self, min_bytes: int, max_bytes: int) -> tuple[int, Callable] | None:
        """(frames, walk) over the unread records through one read-only
        mapping of the file; None, this reader unread either way, if the
        stream is no regular file, the platform cannot release mapped pages
        (``mmap.MADV_DONTNEED``), or the unread bytes are less than
        ``min_bytes`` or no whole number of at least 4 records.

        ``walk(first, last)`` yields the luma planes of frames ``first`` to
        ``last`` as (frames, width * height) views of the mapping, in blocks
        of the records that fit in ``max_bytes`` plus the block before's
        last frame. It releases the whole pages behind each block after it,
        and once done those up to the end of frame ``last``.
        It checks each block's markers first, and raises ParseError at the
        first that is not a bare ``FRAME``: a longer marker would change the
        file's size, so bare ones make the records those the reads give.
        """
        try:
            fd = self._stream.fileno()
            info = os.fstat(fd)
            offset = self._stream.tell() - (self._hi - self._lo)
            frames, tail = divmod(info.st_size - offset, self._record)
            if (not stat.S_ISREG(info.st_mode) or not hasattr(mmap, "MADV_DONTNEED")
                    or tail or frames < 4 or info.st_size - offset < min_bytes):
                return None
            mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        except (AttributeError, OSError, ValueError):
            return None
        record, marker = self._record, self._marker_size
        records = np.ndarray((frames, record), np.uint8, mapping, offset)
        step, page = max(1, max_bytes // record), mmap.PAGESIZE

        def walk(first: int, last: int) -> Iterator[np.ndarray]:
            released = (offset + first * record) // page * page
            for start in range(first, last, step):
                block = records[start:min(start + step, last) + 1]
                if marker and (bad := (block[:, :marker] != _MARKER_BYTES).any(axis=1)).any():
                    raise ParseError(offset + (start + int(bad.argmax())) * record,
                                     "expected a bare FRAME marker")
                yield block[:, marker:marker + self.header.luma_size]
                end = start + len(block) - 1  # the next block's first frame, if any
                behind = (offset + (end + (end == last)) * record) // page * page
                if behind > released:
                    mapping.madvise(mmap.MADV_DONTNEED, released, behind - released)
                    released = behind

        return frames, walk

    def read_frame(self) -> tuple[LumaFrame, bytes] | None:
        """Next (luma, chroma-bytes) pair, or None at a clean end of stream."""
        payload = self._read_records(1)
        if payload is None:
            return None
        width, height, luma_size = self.header.width, self.header.height, self.header.luma_size
        samples = payload[0, :luma_size].reshape(height, width).copy()
        return LumaFrame(width, height, samples), payload[0, luma_size:].tobytes()


def header_tokens(header: VideoHeader) -> tuple[str, ...]:
    """Parameter tokens for writing: parsed ones verbatim, else canonical."""
    if header.raw_params is not None:
        return header.raw_params
    return (
        f"W{header.width}",
        f"H{header.height}",
        f"F{header.fps_num}:{header.fps_den}",
        f"C{_CANONICAL_TOKENS[header.chroma]}",
    )


def write_y4m(seq: VideoSequence, sink: BinaryIO,
              frames: Iterable[LumaFrame] | None = None) -> None:
    """Write ``seq`` as Y4M; ``frames``, if given, is read in place of its luma."""
    tokens = header_tokens(seq.header)
    sink.write(Y4M_SIGNATURE + b"".join(b" " + t.encode("ascii") for t in tokens) + b"\n")
    for frame, chroma in zip(seq.frames if frames is None else frames, seq.chroma):
        sink.write(b"FRAME\n")
        sink.write(frame.samples.tobytes())
        sink.write(chroma)
