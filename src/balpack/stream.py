"""Byte-stream framing for packets.

A stream is a 16-byte header followed by one frame per block.  Each frame
is a varint bit count and then the packet bits packed most significant
first, final byte zero-padded.  The explicit bit count plays the role of
the end-of-packet marker: packets are self-delimiting without reserving
any bit pattern, which is what lets balanced words travel prefix-less.

Input is checked once per stream.  The core, :func:`frame_bytes` /
:func:`deframe_bytes`, works over bytes plus a payload bit count: every block
travels as an integer from input bytes to output bytes, through the int
kernel :class:`balpack.subsets.BlockCodec` or, at some k, the lanes below,
and no bit string is built.
:func:`frame_stream` / :func:`deframe_stream` are its checking string adapters.
Each call codes the whole stream in the calling process.

For k a multiple of 8 up to ``LANE_K_MAX`` = 32, both directions code
``LANE_BLOCKS`` = 1,024 blocks at a time in lanes.  :func:`frame_bytes`
codes them with :func:`balpack.subsets.encode_lanes` and lays their frames
out by extended-slice byte copies, one frame in k / 8 + 2 bytes.  The
output is allocated once for the longest frames and cut to size.
:func:`deframe_bytes` gathers a walk's frames into that layout, which for
the prefix-less schemes takes one walk over the heads, and decodes them
with :func:`balpack.subsets.decode_lanes`.  The lanes make the frame
loop's checks themselves: every head is k plus a prefix length the scheme
may have, every slack bit is zero, and ``decode_lanes`` makes those of
:meth:`balpack.subsets.BlockCodec.decode`.  A walk with a frame that fails
any of them is read again frame by frame.  Either way a call peaks at the
stream plus one walk's working set, the same for any file.
The lanes are one byte wide, so a walk's cost per block grows as k, as
the byte walk's k / 8 steps do (lanes k bits wide would grow as k^2).
They stop at k = 32, past which the 4B6B prefix needs two sextets, more
than the one prefix byte of the layout.  Other k go block by block.

At other k, Knuth and BASELINE_FL frames all have one size, ``k`` plus the
scheme's prefix bits behind the same varint.  :func:`deframe_bytes` reads a
chunk of them with one ``int.from_bytes``, checks every head and slack bit
in it with one masked compare, and shifts the packets out.  A chunk that
fails, or whose kernel raises, is read again frame by frame, as a short
last chunk is.  Only the frame loop reports errors, so a stream fails with
the same message and packet index on every path.
"""

from itertools import compress
from operator import itemgetter

from .errors import BalpackError, InputLengthError, StreamCorruptError
from .subsets import BlockCodec, Scheme, decode_lanes, encode_lanes

MAGIC = b"BPK1"
HEADER_SIZE = 16  # magic (4 bytes), k (2), scheme (1), pad flag (1), payload bits (8), big-endian
MAX_K = 0xFFFE  # the largest even k the 16-bit header field holds
_CHECK_SLICE = 1 << 16  # input characters checked per copy
LANE_K_MAX = 32  # the largest k that frame_bytes and deframe_bytes code in lanes
LANE_BLOCKS = 1024  # blocks per lane walk


def in_lanes(k: int) -> bool:
    """Whether :func:`frame_bytes` and :func:`deframe_bytes` code k-bit blocks in lanes."""
    return not k % 8 and k <= LANE_K_MAX


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


def _skip_frames(data: bytes, offset: int, count: int, body: dict[int, int], cuts: list[int],
                 short: int) -> int:
    """The offset ``count`` frames after ``offset``, each a one-byte head n and ``body[n]`` bytes.

    ``cuts`` gets the offset after each frame of ``short`` bits.  A head not
    in ``body`` raises KeyError, and data that ends at a head IndexError; a
    body is not read, so it may end past the data.
    """
    for _ in range(count):
        bit_length = data[offset]
        offset += 1 + body[bit_length]
        if bit_length == short:
            cuts.append(offset)
    return offset


def _frame_lanes(data: bytes, head: bytes, codec: BlockCodec, blocks: int) -> bytearray:
    """:func:`frame_bytes` for k a multiple of 8 up to ``LANE_K_MAX``, ``LANE_BLOCKS`` at a time.

    The output is sized for the longest frames and cut to the bytes written.
    """
    width = codec.k // 8
    out = bytearray(len(head) + blocks * (width + 2))
    out[: len(head)] = head
    pos = len(head)
    for start in range(0, blocks, LANE_BLOCKS):
        count = min(LANE_BLOCKS, blocks - start)
        chunk = data[start * width : (start + count) * width]  # short in a ragged last block only
        pos = _lane_frames(out, pos, chunk.ljust(count * width, b"\0"), count, codec)
    del out[pos:]
    return out


def _lane_frames(out: bytearray, pos: int, data: bytes, count: int, codec: BlockCodec) -> int:
    """Write the frames of the ``count`` blocks in ``data`` to ``out`` at ``pos``; their end.

    :func:`balpack.subsets.encode_lanes` codes the blocks.  Every frame is
    laid out in ``k / 8 + 2`` bytes: the varint, the prefix byte and the
    payload.  The lanes' packets, shifted up a byte and then each down by
    its prefix bits, are the bodies, and ``itertools.compress`` drops the
    last byte of each prefix-less frame.
    """
    k, step = codec.k, codec.k // 8 + 2
    payloads, prefixes, lengths = encode_lanes(data, count, codec)
    lanes = bytearray(count * step)
    lanes[1::step] = prefixes
    for i, plane in enumerate(payloads):
        lanes[2 + i :: step] = plane
    del payloads
    body = int.from_bytes(lanes, "big") << 8
    for p in set(lengths) - {0}:  # each lane down by its prefix bits
        if lengths.count(p) == count:
            body >>= p
            continue
        flags = bytearray(len(lanes))
        flags[step - 1 :: step] = lengths.translate(bytes(p) + b"\1" + bytes(255 - p))
        flags = int.from_bytes(flags, "big")
        shifted = body & (flags << 8 * step) - flags  # the lanes with p prefix bits
        body ^= shifted ^ shifted >> p
    lanes[:] = body.to_bytes(count * step, "big")
    del body
    lanes[::step] = lengths.translate(bytes(range(k, 256)) + bytes(k))  # p to k + p
    size = len(lanes) - lengths.count(0)
    if size < len(lanes):
        keep = bytearray(b"\1") * len(lanes)
        keep[step - 1 :: step] = lengths  # 0 in a prefix-less frame's last byte
        lanes = compress(lanes, keep)
    out[pos : pos + size] = lanes
    return pos + size


def _lane_blocks(out: bytearray, data: bytes, offset: int, count: int, codec: BlockCodec) -> int | None:
    """Append to ``out`` the ``count`` blocks framed from ``offset``; the offset after them, or None.

    The frames go to the ``k / 8 + 2`` byte layout of :func:`_lane_frames`,
    a prefix-less one with a zero byte after it, which takes one walk over
    the heads; one-size frames already have it.  :func:`_lane_decode` checks
    and decodes them.  None means a head that is not a one-byte varint, a
    stream that ends, or a frame that no block codes to, and the frame loop
    then names the error.
    """
    k, step = codec.k, codec.k // 8 + 2
    if codec.prefix_less:
        sizes = {n: (n + 7) // 8 for n in range(k, k + codec.max_prefix + 1)}
        cuts = [offset]
        try:
            end = _skip_frames(data, offset, count, sizes, cuts, k)
        except (IndexError, KeyError):
            return None
        cuts.append(end)
        lanes = bytearray(b"\0").join([data[a:b] for a, b in zip(cuts, cuts[1:])])
    else:
        end = offset + count * step
        lanes = bytearray(data[offset:end])
    if len(lanes) != count * step:
        return None
    blocks, rejected = _lane_decode(lanes, count, codec)
    if rejected:
        return None
    out += blocks
    return end


def _lane_decode(lanes: bytearray, count: int, codec: BlockCodec) -> tuple[bytearray, int]:
    """The blocks of ``count`` frames laid out as :func:`_lane_frames` lays them, and the bad ones.

    Each frame is its head, then its body in ``k / 8 + 1`` bytes.  The second
    value has a nonzero byte in each frame's lane that the frame loop would
    reject: a head outside k..k + max_prefix, nonzero slack bits, or a
    packet :func:`balpack.subsets.decode_lanes` finds no block for.  With the
    heads cleared, each lane goes up by its prefix bits, so the prefix fills
    the head's byte and the slack bits the last byte, which must be zero.
    ``lanes`` is emptied.
    """
    k, p_max, step = codec.k, codec.max_prefix, codec.k // 8 + 2
    heads = lanes[::step]
    lengths = heads.translate(bytes(k) + bytes(range(p_max + 1)) + bytes(255 - k - p_max))
    outside = b"\1" * k + bytes(p_max + 1) + b"\1" * (255 - k - p_max)
    rejected = int.from_bytes(heads.translate(outside), "big")
    del heads
    lanes[::step] = bytes(count)
    body = int.from_bytes(lanes, "big")
    lanes.clear()
    for p in set(lengths) - {0}:  # each lane up by its prefix bits
        if lengths.count(p) == count:
            body <<= p
            continue
        flags = bytearray(count * step)
        flags[step - 1 :: step] = lengths.translate(bytes(p) + b"\1" + bytes(255 - p))
        flags = int.from_bytes(flags, "big")
        shifted = body & (flags << 8 * step) - flags  # the lanes with p prefix bits
        body ^= shifted ^ shifted << p
    lanes = body.to_bytes(count * step, "big")
    del body
    planes, prefixes = [lanes[i :: step] for i in range(1, step - 1)], lanes[::step]
    rejected |= int.from_bytes(lanes[step - 1 :: step], "big")  # the slack bits
    del lanes
    blocks, bad = decode_lanes(planes, prefixes, lengths, codec)
    return blocks, rejected | bad


def frame_bytes(data: bytes, k: int, scheme: Scheme, pad_mode: bool = False,
                bit_count: int | None = None) -> bytearray:
    """Encode the first ``bit_count`` bits of ``data`` (all of them by default) into a stream.

    Bits are read most significant first; the fill after ``bit_count`` must be zero.
    The stream is returned as the ``bytearray`` it was built in, not copied.
    """
    header = input_header(data, k, scheme, pad_mode, bit_count)
    codec, blocks = BlockCodec(k, scheme), header.blocks
    if in_lanes(k):
        return _frame_lanes(data, header.pack(), codec, blocks)
    out = bytearray(header.pack())
    # per prefix length p: varint of k + p shifted over the body, frame bytes, slack bits
    shapes = []
    for n in range(k, k + codec.max_prefix + 1):
        varint, body = encode_varint(n), (n + 7) // 8
        head = int.from_bytes(varint, "big") << 8 * body
        shapes.append((head, len(varint) + body, 8 * body - n))
    encode, mask = codec.encode, (1 << k) - 1
    size, per_chunk = _chunk(k)
    shifts = range(8 * size - k, -1, -k)
    for start in range(0, blocks, per_chunk):
        chunk = data[start * k // 8 : start * k // 8 + size]
        group = int.from_bytes(chunk, "big") << 8 * (size - len(chunk))
        for shift in shifts[: blocks - start]:
            packet, p = encode(group >> shift & mask)
            head, nbytes, slack = shapes[p]
            out += (head | packet << slack).to_bytes(nbytes, "big")
    return out


def deframe_bytes(data: bytes) -> tuple[bytearray, int]:
    """Decode a framed byte stream to its payload, zero-filled to whole bytes, and bit count.

    Only the exact output of :func:`frame_bytes` is accepted: one frame per
    block, minimal varints, zero slack bits and zero pad fill, and no data
    after the last frame.  Errors name the packet by its index in the stream.
    The output grows chunk by chunk (see :func:`_chunk`), never sized from
    the header's claim, and is returned as the ``bytearray`` it was built
    in, not copied.
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
    frames, end, offset = header.blocks, len(data), HEADER_SIZE
    lanes = in_lanes(k)
    one_shape = not (codec.prefix_less or lanes)
    if one_shape:  # every frame max_bits long: a chunk's heads and slack bits are one pattern
        varint, (nbytes, slack, slack_mask, prefix) = encode_varint(max_bits), shapes[max_bits]
        step, packet_mask = len(varint) + nbytes, (1 << max_bits) - 1
        span = per_chunk * step  # the bytes of a whole chunk
        heads = int.from_bytes((varint + bytes(nbytes)) * per_chunk, "big")
        check = int.from_bytes((b"\xff" * len(varint) + slack_mask.to_bytes(nbytes, "big"))
                               * per_chunk, "big")
        packets = range(8 * (span - step) + slack, -1, -8 * step)  # the shift of each packet
    walk = LANE_BLOCKS if lanes else per_chunk
    out = bytearray()
    for start in range(0, frames, walk):
        count = min(walk, frames - start)
        if lanes:  # else frame by frame
            walked = _lane_blocks(out, data, offset, count, codec)
            if walked is not None:
                offset = walked
                group = int.from_bytes(out[-(k // 8):], "big")  # the last block
                continue
        elif one_shape and count == per_chunk and offset + span <= end:  # else frame by frame
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
        out += (group << -count * k % 8).to_bytes(-(-count * k // 8), "big")
    if offset < end:
        raise StreamCorruptError(
            f"packet {frames}: data after the last of {frames} frames", packet_index=frames
        )
    if payload % k and group & ((1 << k - payload % k) - 1):  # the last packet's fill
        raise StreamCorruptError(f"packet {frames - 1}: nonzero pad fill", packet_index=frames - 1)
    del out[-(-payload // 8):]  # the zero fill of a short last block
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
