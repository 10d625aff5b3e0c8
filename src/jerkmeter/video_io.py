"""Y4M container and headerless planar YUV reading/writing.

Only 8-bit planar formats are handled. One reader, ``Y4MReader``, serves
both containers and streams frame by frame; ``parse_y4m`` and
``parse_raw_yuv`` materialize its output. Chroma planes are read and
carried along so files survive a parse/write round trip byte for byte,
but all analysis downstream looks at the luma plane only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

import numpy as np

from .errors import (
    ParseError,
    TrailingBytes,
    TruncatedFrame,
    UnsupportedFormat,
)

Y4M_SIGNATURE = b"YUV4MPEG2"
_MAX_HEADER_LINE = 4096
# Largest single read of frame payload; bounds what a lying header can cost.
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

    @classmethod
    def from_luma(cls, header: VideoHeader, frames: list[LumaFrame],
                  chroma_fill: int = 128) -> "VideoSequence":
        """Build a sequence with flat chroma planes (for synthetic video)."""
        plane = bytes([chroma_fill]) * header.chroma_size
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


def _parse_ratio(text: str, pos: int, what: str) -> tuple[int, int]:
    num, sep, den = text.partition(":")
    if not sep:
        raise ParseError(pos, f"{what} must be num:den, got {text!r}")
    try:
        return int(num), int(den)
    except ValueError:
        raise ParseError(pos, f"non-integer {what} {text!r}") from None


class Y4MReader:
    """Streaming frame reader: frames come out one at a time.

    Reads Y4M when ``header`` is None, otherwise headerless planar YUV of
    the given geometry. Iterating yields luma only and holds O(1) frames in
    memory, which is what the analysis pipeline needs for long clips.
    """

    def __init__(self, stream: BinaryIO, header: VideoHeader | None = None):
        self._stream = stream
        self._pos = 0
        self._index = 0
        self._raw = header is not None
        self.header = header if header is not None else self._parse_header()
        self._plane_sizes = (self.header.luma_size, self.header.chroma_size)

    def _take_line(self, line: bytes) -> bytes | None:
        """``line``, just read, without its newline, or None at end of stream."""
        start = self._pos
        self._pos += len(line)
        if line.endswith(b"\n"):
            return line[:-1]
        if len(line) == _MAX_HEADER_LINE:
            raise ParseError(start, "header line too long")
        if line:
            raise ParseError(self._pos, "unterminated header line")
        return None

    def _parse_header(self) -> VideoHeader:
        line = self._take_line(self._stream.readline(_MAX_HEADER_LINE))
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
                try:
                    width = int(val)
                except ValueError:
                    raise ParseError(pos, f"bad width {val!r}") from None
            elif key == "H":
                try:
                    height = int(val)
                except ValueError:
                    raise ParseError(pos, f"bad height {val!r}") from None
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

    def read_frame(self) -> tuple[LumaFrame, bytes] | None:
        """Next (luma, chroma-bytes) pair, or None at a clean end of stream."""
        if not self._raw:
            start = self._pos
            line = self._stream.readline(_MAX_HEADER_LINE)
            if line == b"FRAME\n":
                self._pos += len(line)
            else:
                marker = self._take_line(line)
                if marker is None:
                    return None
                if marker.split(b" ", 1)[0] != b"FRAME":
                    raise ParseError(start, f"expected FRAME marker, got {marker[:16]!r}")
        luma_size, chroma_size = self._plane_sizes
        luma = _read_exact(self._stream, luma_size)
        if self._raw and not luma:
            return None
        chroma = _read_exact(self._stream, chroma_size)
        self._pos += len(luma) + len(chroma)
        if len(luma) < luma_size or len(chroma) < chroma_size:
            if self._raw:
                raise TrailingBytes(len(luma) + len(chroma))
            raise TruncatedFrame(self._index)
        self._index += 1
        width, height = self.header.width, self.header.height
        samples = np.frombuffer(luma, dtype=np.uint8).reshape(height, width)
        return LumaFrame(width, height, samples), chroma

    def __iter__(self) -> Iterator[LumaFrame]:
        while (nxt := self.read_frame()) is not None:
            yield nxt[0]


def parse_y4m(stream: BinaryIO) -> VideoSequence:
    """Materialize a whole Y4M stream, chroma included."""
    return VideoSequence.from_reader(Y4MReader(stream))


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    """Up to ``n`` bytes, fewer only at end of stream.

    Reads at most ``_READ_CHUNK`` bytes at a time, so a header claiming a
    larger frame than the file holds costs one chunk, not the claimed size.
    """
    chunk = stream.read(min(n, _READ_CHUNK))
    if len(chunk) == n:
        return chunk
    chunks = [chunk]
    remaining = n - len(chunk)
    while remaining and chunk:
        chunk = stream.read(min(remaining, _READ_CHUNK))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_raw_yuv(stream: BinaryIO, header: VideoHeader) -> VideoSequence:
    """Materialize headerless planar YUV; the caller supplies geometry."""
    return VideoSequence.from_reader(Y4MReader(stream, header))


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


def write_y4m(seq: VideoSequence, sink: BinaryIO) -> None:
    tokens = header_tokens(seq.header)
    sink.write(Y4M_SIGNATURE + b"".join(b" " + t.encode("ascii") for t in tokens) + b"\n")
    for frame, chroma in zip(seq.frames, seq.chroma):
        sink.write(b"FRAME\n")
        sink.write(frame.samples.tobytes())
        sink.write(chroma)
