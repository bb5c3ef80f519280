"""Exception types shared across the codec, framing and CLI layers.

Domain-precondition violations (odd word length, malformed bit literals,
out-of-range indexes) raise plain ``ValueError``; the classes below mark
data-integrity failures detected while decoding material that arrived
from outside.
"""


class BalpackError(Exception):
    """Base class for decode/framing failures."""


class CorruptPacketError(BalpackError):
    """A packet failed validation (unbalanced payload, bad rank or length)."""


class InvalidSextetError(BalpackError):
    """A 6-bit group is not one of the sixteen balanced 4B6B codewords."""


class InputLengthError(BalpackError):
    """Stream input is not a whole number of blocks and padding is off."""


class StreamCorruptError(BalpackError):
    """A framed byte stream failed to parse or decode.

    ``packet_index`` is the zero-based index of the offending packet, or
    ``None`` when the header itself is bad.
    """

    def __init__(self, message: str, packet_index: int | None = None):
        super().__init__(message)
        self.packet_index = packet_index
