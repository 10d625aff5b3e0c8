"""Exception types shared across the package."""


class JerkmeterError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(JerkmeterError):
    """Malformed container data at a known byte position."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"parse error at byte {position}: {reason}")
        self.position = position
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.position, self.reason)


class TruncatedFrame(JerkmeterError):
    """A frame payload ended before the expected number of bytes."""

    def __init__(self, frame_index: int):
        super().__init__(f"truncated payload for frame {frame_index}")
        self.frame_index = frame_index

    def __reduce__(self):
        return type(self), (self.frame_index,)


class UnsupportedFormat(JerkmeterError):
    """Pixel format or bit depth this tool does not handle."""


class TrailingBytes(JerkmeterError):
    """Raw stream length is not a whole number of frames."""

    def __init__(self, remainder: int):
        super().__init__(f"{remainder} trailing bytes after the last whole frame")
        self.remainder = remainder

    def __reduce__(self):
        return type(self), (self.remainder,)


class ShapeError(JerkmeterError):
    """Operands have incompatible dimensions."""


class TooFewFrames(JerkmeterError):
    """An analysis step needs at least two frames."""


class PlanError(JerkmeterError):
    """A degradation plan does not fit the target sequence."""


class ModelFormatError(JerkmeterError):
    """Model file violates the expected schema."""

    def __init__(self, field: str, reason: str = ""):
        msg = f"bad model field '{field}'"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.field = field
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.field, self.reason)


class InvalidModel(JerkmeterError):
    """Model values violate an invariant (e.g. non-positive std)."""


class ConfigError(JerkmeterError):
    """Training or search configuration is unusable for the given data."""


class NumericalFailure(JerkmeterError):
    """The damped normal equations could not be solved."""


class DegenerateInput(JerkmeterError):
    """A statistic is undefined for this input (constant vector, zero range)."""
