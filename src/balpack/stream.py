"""Byte-stream framing for packets.

A stream is a 16-byte header followed by one frame per block.  Each frame
is a varint bit count and then the packet bits packed most significant
first, final byte zero-padded.  The explicit bit count plays the role of
the end-of-packet marker: packets are self-delimiting without reserving
any bit pattern, which is what lets balanced words travel prefix-less.

Input is checked once per stream.  The core, :func:`frame_bytes` /
:func:`deframe_bytes`, works over bytes plus a payload bit count: every block
travels as an integer from input bytes to output bytes, through the int
kernel :class:`balpack.subsets.BlockCodec`, and no bit string is built.
:func:`frame_stream` / :func:`deframe_stream` are its checking string adapters.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

from .errors import BalpackError, InputLengthError, StreamCorruptError
from .subsets import BlockCodec, Scheme

MAGIC = b"BPK1"
_HEADER = struct.Struct(">4sHBBQ")  # magic, k, scheme, pad flag, payload bit count
MAX_K = 0xFFFE  # the largest even k the 16-bit header field holds
_CHECK_SLICE = 1 << 16  # input characters checked per copy


class StreamHeader(NamedTuple):
    k: int
    scheme: Scheme
    pad_mode: bool
    payload_bit_count: int

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC, self.k, self.scheme.value, int(self.pad_mode), self.payload_bit_count
        )

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < _HEADER.size:
            raise StreamCorruptError("truncated stream header")
        magic, k, scheme_id, pad, nbits = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise StreamCorruptError(f"bad magic {magic!r}, expected {MAGIC!r}")
        try:
            scheme = Scheme(scheme_id)
            BlockCodec(k, scheme)  # the codec's own limits on k
        except ValueError as exc:
            raise StreamCorruptError(f"bad header: {exc}") from None
        if pad > 1 or (not pad and nbits % k):
            raise StreamCorruptError(f"bad header: pad flag {pad}, {nbits} bits, k={k}")
        return cls(k=k, scheme=scheme, pad_mode=bool(pad), payload_bit_count=nbits)


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128: 7 value bits per byte, high bit marks continuation."""
    if value < 0:
        raise ValueError(f"varint is unsigned, got {value}")
    out = bytearray()
    while True:
        part = value & 0x7F
        value >>= 7
        out.append(part | (0x80 if value else 0))
        if not value:
            return bytes(out)


def decode_varint(data: bytes, offset: int, max_bytes: int = 10) -> tuple[int, int]:
    """(value, next offset) of a minimal varint of at most ``max_bytes`` bytes, else raise."""
    value = 0
    for shift in range(0, 7 * max_bytes, 7):
        if offset >= len(data):
            raise StreamCorruptError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if shift and not byte:
                raise StreamCorruptError("varint is not minimal")
            return value, offset
    raise StreamCorruptError(f"varint longer than {max_bytes} bytes")


def bits_to_bytes(bits: str) -> bytes:
    nbytes = (len(bits) + 7) // 8
    return (int(bits or "0", 2) << (8 * nbytes - len(bits))).to_bytes(nbytes, "big")


def bytes_to_bits(data: bytes, bit_count: int) -> str:
    if bit_count > 8 * len(data):
        raise ValueError(f"{bit_count} bits do not fit in {len(data)} bytes")
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[:bit_count] if data else ""


def _chunk(k: int) -> tuple[int, int]:
    """Bytes and blocks per int conversion: whole blocks in whole bytes, 512 bits or more."""
    bits = -(-512 // math.lcm(k, 8)) * math.lcm(k, 8)
    return bits // 8, bits // k


def frame_bytes(data: bytes, k: int, scheme: Scheme, pad_mode: bool = False,
                bit_count: int | None = None) -> bytearray:
    """Encode the first ``bit_count`` bits of ``data`` (all of them by default) into a stream.

    Bits are read most significant first; the fill after ``bit_count`` must be zero.
    The stream is returned as the ``bytearray`` it was built in, not copied.
    """
    if bit_count is None:
        bit_count = 8 * len(data)
    elif not 0 <= bit_count <= 8 * len(data) < bit_count + 8 or (
            bit_count % 8 and data[-1] & 0xFF >> bit_count % 8):
        raise ValueError(f"{len(data)} bytes are not {bit_count} bits and a zero fill")
    if k > MAX_K:
        raise ValueError(f"block length {k} exceeds {MAX_K}, the most the stream header holds")
    codec = BlockCodec(k, scheme)
    if bit_count % k and not pad_mode:
        raise InputLengthError(f"{bit_count} input bits is not a multiple of k={k} "
                               "and padding is off")
    header = StreamHeader(k=k, scheme=scheme, pad_mode=pad_mode, payload_bit_count=bit_count)
    out = bytearray(header.pack())
    # per prefix length p: varint of k + p shifted over the body, frame bytes, slack bits
    shapes = []
    for n in range(k, k + codec.max_prefix + 1):
        varint, body = encode_varint(n), (n + 7) // 8
        head = int.from_bytes(varint, "big") << 8 * body
        shapes.append((head, len(varint) + body, 8 * body - n))
    encode, mask = codec.encode, (1 << k) - 1
    size, per_chunk = _chunk(k)
    shifts, blocks = range(8 * size - k, -1, -k), -(-bit_count // k)
    for first in range(0, blocks, per_chunk):
        chunk = data[first * k // 8 : first * k // 8 + size]
        group = int.from_bytes(chunk, "big") << 8 * (size - len(chunk))
        for shift in shifts[: blocks - first]:
            packet, p = encode(group >> shift & mask)
            head, nbytes, slack = shapes[p]
            out += (head | packet << slack).to_bytes(nbytes, "big")
    return out


def deframe_bytes(data: bytes) -> tuple[bytearray, int]:
    """Decode a framed byte stream to its payload, zero-filled to whole bytes, and bit count.

    Only the exact output of :func:`frame_bytes` is accepted: one frame per
    block, minimal varints, zero slack bits and zero pad fill.  The output
    grows frame by frame, never sized from the header's claim, and is
    returned as the ``bytearray`` it was built in, not copied.
    """
    header = StreamHeader.unpack(data)
    k, payload = header.k, header.payload_bit_count
    codec = BlockCodec(k, header.scheme)
    decode, max_bits = codec.decode, k + codec.max_prefix  # the longest packet
    max_varint = len(encode_varint(max_bits))
    # per packet bit count: body bytes, slack bits, their mask, prefix bits
    shapes = {n: ((n + 7) // 8, -n % 8, (1 << -n % 8) - 1, n - k)
              for n in range(k, max_bits + 1)}
    size, per_chunk = _chunk(k)
    frames, end, offset = -(-payload // k), len(data), _HEADER.size
    out = bytearray()
    for first in range(0, frames, per_chunk):
        group = 0
        for index in range(first, min(first + per_chunk, frames)):
            try:
                if offset >= end:
                    raise StreamCorruptError(f"stream ends after {index} of {frames} frames")
                bit_length = data[offset]  # one-byte varints skip the call
                if bit_length < 0x80:
                    offset += 1
                else:
                    bit_length, offset = decode_varint(data, offset, max_varint)
                shape = shapes.get(bit_length)
                if shape is None:
                    raise StreamCorruptError(f"frame of {bit_length} bits outside {k}..{max_bits}")
                nbytes, slack, slack_mask, p = shape
                if offset + nbytes > end:
                    raise StreamCorruptError(f"packet body truncated ({nbytes} bytes needed)")
                value = int.from_bytes(data[offset : offset + nbytes], "big")
                offset += nbytes
                if value & slack_mask:
                    raise StreamCorruptError("slack bits after the packet are not zero")
                x = decode(value >> slack, p)
            except (BalpackError, ValueError) as exc:
                raise StreamCorruptError(f"packet {index}: {exc}", packet_index=index) from exc
            group = group << k | x
        out += (group << k * (first + per_chunk - 1 - index)).to_bytes(size, "big")
    if offset < end:
        raise StreamCorruptError(
            f"packet {frames}: data after the last of {frames} frames", packet_index=frames
        )
    if payload % k and x & ((1 << k - payload % k) - 1):  # index is the last packet's
        raise StreamCorruptError(f"packet {index}: nonzero pad fill", packet_index=index)
    del out[-(-payload // 8):]  # the zero fill of a short last chunk
    return out, payload


def frame_stream(bits: str, k: int, scheme: Scheme, pad_mode: bool = False) -> bytearray:
    """Encode a bit string into a framed byte stream; checks it, then :func:`frame_bytes`."""
    if not isinstance(bits, str) or any(  # non-ASCII becomes "?", which stays
            bits[i : i + _CHECK_SLICE].encode("ascii", "replace").translate(None, b"01")
            for i in range(0, len(bits), _CHECK_SLICE)):
        raise ValueError("input must be a string over 0/1")
    return frame_bytes(bits_to_bytes(bits), k, scheme, pad_mode, len(bits))


def deframe_stream(data: bytes) -> str:
    """Decode a framed byte stream back to the original bit string, via :func:`deframe_bytes`."""
    return bytes_to_bits(*deframe_bytes(data))
