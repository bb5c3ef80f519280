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

Every block is coded on its own and every frame carries its own length, so
a stream also codes as contiguous block ranges that need nothing from each
other: :func:`frame_range` / :func:`deframe_range` code one, and
:func:`frame_bytes` / :func:`deframe_bytes` are the one-range case.  This
module never starts a process; the CLI decides where each range runs.

Knuth and BASELINE_FL frames all have one size, ``k`` plus the scheme's
prefix bits behind the same varint.  :func:`deframe_range` reads a chunk of
them with one ``int.from_bytes``, checks every head and slack bit in it with
one masked compare, and shifts the packets out.  A chunk that fails, or
whose kernel raises, is read again frame by frame, as a short last chunk
is; only that loop reports errors.  :func:`frame_ranges` finds their cuts
by multiplication.
"""

from operator import itemgetter

from .errors import BalpackError, InputLengthError, StreamCorruptError
from .subsets import BlockCodec, Scheme

MAGIC = b"BPK1"
HEADER_SIZE = 16  # magic (4 bytes), k (2), scheme (1), pad flag (1), payload bits (8), big-endian
MAX_K = 0xFFFE  # the largest even k the 16-bit header field holds
_CHECK_SLICE = 1 << 16  # input characters checked per copy


class StreamHeader(tuple):
    """The fields after the magic: an immutable 4-tuple built by position or by keyword."""

    __slots__ = ()
    k, scheme, pad_mode, payload_bit_count = (property(itemgetter(i)) for i in range(4))

    def __new__(cls, k: int, scheme: Scheme, pad_mode: bool, payload_bit_count: int):
        return tuple.__new__(cls, (k, scheme, pad_mode, payload_bit_count))

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with the four fields
        return tuple(self)

    @property
    def blocks(self) -> int:
        """The number of k-bit blocks, and so of frames, the payload fills."""
        return -(-self.payload_bit_count // self.k)

    def pack(self) -> bytes:
        k, scheme, pad, nbits = self
        return MAGIC + k.to_bytes(2, "big") + bytes((scheme.value, pad)) + nbits.to_bytes(8, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < HEADER_SIZE:
            raise StreamCorruptError("truncated stream header")
        if data[:4] != MAGIC:
            raise StreamCorruptError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
        k, scheme_id, pad = int.from_bytes(data[4:6], "big"), data[6], data[7]
        nbits = int.from_bytes(data[8:HEADER_SIZE], "big")
        try:
            scheme = Scheme(scheme_id)
            BlockCodec(k, scheme)  # the codec's own limits on k
        except ValueError as exc:
            raise StreamCorruptError(f"bad header: {exc}") from None
        if pad > 1 or (not pad and nbits % k):
            raise StreamCorruptError(f"bad header: pad flag {pad}, {nbits} bits, k={k}")
        return cls(k, scheme, bool(pad), nbits)


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
    lcm = 8 * k // min(k & -k, 8)  # lcm(k, 8): gcd(k, 8) is the lowest set bit of k, capped
    bits = -(-512 // lcm) * lcm
    return bits // 8, bits // k


def input_header(data: bytes, k: int, scheme: Scheme, pad_mode: bool = False,
                 bit_count: int | None = None) -> StreamHeader:
    """The header of the stream :func:`frame_bytes` makes of these arguments; raises as it does."""
    if bit_count is None:
        bit_count = 8 * len(data)
    elif not 0 <= bit_count <= 8 * len(data) < bit_count + 8 or (
            bit_count % 8 and data[-1] & 0xFF >> bit_count % 8):
        raise ValueError(f"{len(data)} bytes are not {bit_count} bits and a zero fill")
    if k > MAX_K:
        raise ValueError(f"block length {k} exceeds {MAX_K}, the most the stream header holds")
    BlockCodec(k, scheme)  # the codec's own limits on k
    if bit_count % k and not pad_mode:
        raise InputLengthError(f"{bit_count} input bits is not a multiple of k={k} "
                               "and padding is off")
    return StreamHeader(k, scheme, pad_mode, bit_count)


def block_ranges(header: StreamHeader, count: int) -> list[tuple[int, int]]:
    """``count`` contiguous ranges ``(first, last)`` of the stream's blocks, of about equal size.

    Every cut falls between two int conversions (see :func:`_chunk`), so each
    range codes to whole bytes on both sides; there are fewer ranges only if
    there are fewer conversions, and always one.
    """
    blocks = header.blocks
    if count < 2:
        return [(0, blocks)]
    per_chunk = _chunk(header.k)[1]
    chunks = -(-blocks // per_chunk)
    count = max(1, min(count, chunks))
    cuts = [chunks * i // count * per_chunk for i in range(count)] + [blocks]
    return list(zip(cuts, cuts[1:]))


def frame_ranges(data: bytes, header: StreamHeader, count: int) -> list[tuple[int, int, int]]:
    """:func:`block_ranges` of a framed stream, each with the byte offset of its first frame.

    The offsets come from the frame heads before the last cut, and no payload
    is decoded.  Knuth and BASELINE_FL frames all have one size, so their
    offsets are products and their heads are checked by one strided compare
    per varint byte; other schemes' heads are walked one by one.  If a head
    there is not one the scheme makes, or the stream ends before the last
    cut, the stream is one range, whose decode raises the error.
    """
    ranges, whole = block_ranges(header, count), [(0, header.blocks, HEADER_SIZE)]
    if len(ranges) < 2:
        return whole
    codec = BlockCodec(header.k, header.scheme)
    max_bits = header.k + codec.max_prefix
    varint = encode_varint(max_bits)
    if not codec.prefix_less:  # one frame size: cuts by arithmetic, heads by strided compares
        step = len(varint) + (max_bits + 7) // 8
        offsets = [HEADER_SIZE + first * step for first, _ in ranges]
        cut, offset = ranges[-1][0], offsets[-1]
        if any(data[HEADER_SIZE + i : offset : step] != varint[i : i + 1] * cut
               for i in range(len(varint))):
            return whole
    else:
        body = {n: (n + 7) // 8 for n in range(header.k, max_bits + 1)}
        offsets, offset, index = [HEADER_SIZE], HEADER_SIZE, 0
        try:
            for first, _ in ranges[1:]:
                for _ in range(first - index):
                    bit_length = data[offset]  # one-byte varints skip the call
                    if bit_length < 0x80:
                        offset += 1
                    else:
                        bit_length, offset = decode_varint(data, offset, len(varint))
                    offset += body[bit_length]
                offsets.append(offset)
                index = first
        except (IndexError, KeyError, StreamCorruptError):
            return whole
    if offset >= len(data):
        return whole
    return [(first, last, offset) for (first, last), offset in zip(ranges, offsets)]


def frame_range(data: bytes, header: StreamHeader, first: int, last: int) -> bytearray:
    """The stream's bytes for blocks ``first`` to ``last`` (exclusive) of ``data``.

    The range from block 0 starts with the header, so the ranges of
    :func:`block_ranges` joined in order are the stream.  ``data`` is taken
    as :func:`input_header` checked it.
    """
    k = header.k
    codec = BlockCodec(k, header.scheme)
    out = bytearray(b"" if first else header.pack())
    # per prefix length p: varint of k + p shifted over the body, frame bytes, slack bits
    shapes = []
    for n in range(k, k + codec.max_prefix + 1):
        varint, body = encode_varint(n), (n + 7) // 8
        head = int.from_bytes(varint, "big") << 8 * body
        shapes.append((head, len(varint) + body, 8 * body - n))
    encode, mask = codec.encode, (1 << k) - 1
    size, per_chunk = _chunk(k)
    shifts = range(8 * size - k, -1, -k)
    for start in range(first, last, per_chunk):
        chunk = data[start * k // 8 : start * k // 8 + size]
        group = int.from_bytes(chunk, "big") << 8 * (size - len(chunk))
        for shift in shifts[: last - start]:
            packet, p = encode(group >> shift & mask)
            head, nbytes, slack = shapes[p]
            out += (head | packet << slack).to_bytes(nbytes, "big")
    return out


def frame_bytes(data: bytes, k: int, scheme: Scheme, pad_mode: bool = False,
                bit_count: int | None = None) -> bytearray:
    """Encode the first ``bit_count`` bits of ``data`` (all of them by default) into a stream.

    Bits are read most significant first; the fill after ``bit_count`` must be zero.
    The stream is returned as the ``bytearray`` it was built in, not copied.
    """
    header = input_header(data, k, scheme, pad_mode, bit_count)
    return frame_range(data, header, 0, header.blocks)


def deframe_range(data: bytes, header: StreamHeader, first: int, last: int,
                  offset: int) -> bytearray:
    """The payload bytes of blocks ``first`` to ``last`` (exclusive), framed from ``offset`` on.

    Errors name the packet by its index in the stream.  The range that ends
    at the last block also checks the stream's end: no data after the last
    frame, a zero pad fill, and it drops the zero fill past the payload's
    last byte.  So the ranges of :func:`frame_ranges` joined in order are the
    payload.
    """
    k, payload = header.k, header.payload_bit_count
    codec = BlockCodec(k, header.scheme)
    decode, max_bits = codec.decode, k + codec.max_prefix  # the longest packet
    max_varint = len(encode_varint(max_bits))
    # per packet bit count: body bytes, slack bits, their mask, prefix bits
    shapes = {n: ((n + 7) // 8, -n % 8, (1 << -n % 8) - 1, n - k)
              for n in range(k, max_bits + 1)}
    size, per_chunk = _chunk(k)
    frames, end = header.blocks, len(data)
    one_shape = not codec.prefix_less
    if one_shape:  # every frame max_bits long: a chunk's heads and slack bits are one pattern
        varint, (nbytes, slack, slack_mask, prefix) = encode_varint(max_bits), shapes[max_bits]
        step, packet_mask = len(varint) + nbytes, (1 << max_bits) - 1
        span = per_chunk * step  # the bytes of a whole chunk
        heads = int.from_bytes((varint + bytes(nbytes)) * per_chunk, "big")
        check = int.from_bytes((b"\xff" * len(varint) + slack_mask.to_bytes(nbytes, "big"))
                               * per_chunk, "big")
        packets = range(8 * (span - step) + slack, -1, -8 * step)  # the shift of each packet
    out = bytearray()
    for start in range(first, last, per_chunk):
        count = min(per_chunk, last - start)
        if one_shape and count == per_chunk and offset + span <= end:  # else frame by frame
            value = int.from_bytes(data[offset : offset + span], "big")
            if value & check == heads:
                try:
                    group = 0
                    for shift in packets:
                        group = group << k | decode(value >> shift & packet_mask, prefix)
                    out += group.to_bytes(size, "big")
                    offset += span
                    continue
                except (BalpackError, ValueError):
                    pass  # the frame loop below raises it, naming the packet
        group = 0
        for index in range(start, start + count):
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
        out += (group << k * (per_chunk - count)).to_bytes(size, "big")
    if last < frames:
        return out
    if offset < end:
        raise StreamCorruptError(
            f"packet {frames}: data after the last of {frames} frames", packet_index=frames
        )
    if payload % k and group & ((1 << k - payload % k) - 1):  # the last packet's fill
        raise StreamCorruptError(f"packet {frames - 1}: nonzero pad fill", packet_index=frames - 1)
    del out[-(-payload // 8) - first * k // 8:]  # the zero fill of a short last chunk
    return out


def deframe_bytes(data: bytes) -> tuple[bytearray, int]:
    """Decode a framed byte stream to its payload, zero-filled to whole bytes, and bit count.

    Only the exact output of :func:`frame_bytes` is accepted: one frame per
    block, minimal varints, zero slack bits and zero pad fill.  The output
    grows chunk by chunk (see :func:`_chunk`), never sized from the header's
    claim, and is returned as the ``bytearray`` it was built in, not copied.
    """
    header = StreamHeader.unpack(data)
    return deframe_range(data, header, 0, header.blocks, HEADER_SIZE), header.payload_bit_count


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
