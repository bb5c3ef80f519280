"""BPK1 wire accounting read from the encoded bytes, without importing balpack.

A stream is a 16-byte header (magic, k, scheme id, pad flag, payload bit
count) followed by one frame per k-bit block: an unsigned LEB128 varint
holding the packet's bit length, then the packet bits packed most
significant first with the last byte zero-padded.  A packet's prefix is
``bit_length - k`` bits; a packet of exactly k bits travelled prefix-less.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

_HEADER = struct.Struct(">4sHBBQ")


@dataclass
class WireCounts:
    """Bit counts of the frames of one or more streams with the same k."""

    k: int
    blocks: int = 0
    info_bits: int = 0
    frame_bits: int = 0
    varint_bits: int = 0
    pad_bits: int = 0
    prefix_bits: int = 0
    prefixless: int = 0

    def add(self, other: "WireCounts") -> None:
        if other.k != self.k:
            raise ValueError(f"cannot add k={other.k} counts to k={self.k} counts")
        for name in ("blocks", "info_bits", "frame_bits", "varint_bits",
                     "pad_bits", "prefix_bits", "prefixless"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def framing_bits(self) -> int:
        return self.varint_bits + self.pad_bits


def parse_stream(data: bytes) -> WireCounts:
    """Walk the frames of a BPK1 stream; raises ValueError on a malformed one.

    ``info_bits`` is the header's payload bit count; the header itself is
    not counted in ``frame_bits``.
    """
    if len(data) < _HEADER.size:
        raise ValueError("stream shorter than its header")
    magic, k, _scheme, _pad, payload_bits = _HEADER.unpack_from(data)
    if magic != b"BPK1":
        raise ValueError(f"bad magic {magic!r}")
    counts = WireCounts(k=k, info_bits=payload_bits)
    offset = _HEADER.size
    while offset < len(data):
        start = offset
        bit_length = shift = 0
        while True:
            if offset >= len(data):
                raise ValueError(f"truncated varint in frame {counts.blocks}")
            byte = data[offset]
            offset += 1
            bit_length |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        nbytes = (bit_length + 7) // 8
        if offset + nbytes > len(data):
            raise ValueError(f"truncated body in frame {counts.blocks}")
        if bit_length < k:
            raise ValueError(f"frame {counts.blocks} holds {bit_length} < k={k} bits")
        offset += nbytes
        counts.blocks += 1
        counts.varint_bits += 8 * (offset - nbytes - start)
        counts.pad_bits += 8 * nbytes - bit_length
        counts.prefix_bits += bit_length - k
        counts.prefixless += bit_length == k
        counts.frame_bits += 8 * (offset - start)
    if counts.blocks != -(-payload_bits // k):
        raise ValueError(
            f"{counts.blocks} frames for {payload_bits} payload bits at k={k}"
        )
    return counts
