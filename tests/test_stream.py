"""Framing, self-check and CLI tests."""

import copy
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balpack
from balpack import cli, counting, invariants, stream, subsets
from balpack.cli import SCHEME_NAMES, main
from balpack.counting import CountTable, count_table, subset_size_count
from balpack.errors import InputLengthError, StreamCorruptError
from balpack.stream import (
    _CHECK_SLICE,
    HEADER_SIZE,
    LANE_BLOCKS,
    LANE_K_MAX,
    MAGIC,
    MAX_K,
    StreamHeader,
    _chunk,
    bits_to_bytes,
    block_ranges,
    bytes_to_bits,
    decode_varint,
    deframe_bytes,
    deframe_range,
    deframe_stream,
    encode_varint,
    frame_bytes,
    frame_range,
    frame_ranges,
    frame_stream,
    input_header,
)
from balpack.invariants import selfcheck
from balpack.subsets import BlockCodec, Scheme, ceil_log2, prefix_length
from balpack.words import decode_packet, encode_packet, is_balanced

ALL_SCHEMES = list(Scheme)


def test_varint_roundtrip():
    for value in (0, 1, 127, 128, 300, 2**20, 2**40):
        data = encode_varint(value)
        assert decode_varint(data, 0) == (value, len(data))
    assert encode_varint(4) == b"\x04"
    assert encode_varint(300) == b"\xac\x02"


def test_varint_truncation():
    with pytest.raises(StreamCorruptError):
        decode_varint(b"\xac", 1)
    with pytest.raises(StreamCorruptError):
        decode_varint(b"\x80", 0)


def test_varint_rejects_overlong_and_non_minimal():
    assert decode_varint(b"\xff\xff\x7f", 0, max_bytes=3) == (2**21 - 1, 3)
    with pytest.raises(StreamCorruptError, match="longer"):
        decode_varint(b"\xff\xff\x7f", 0, max_bytes=2)
    with pytest.raises(StreamCorruptError, match="minimal"):
        decode_varint(b"\x94\x00", 0)  # 20 with a redundant zero byte
    assert decode_varint(b"\x00", 0) == (0, 1)


def test_bit_packing_msb_first():
    assert bits_to_bytes("0101") == b"\x50"
    assert bits_to_bytes("10011") == b"\x98"
    assert bytes_to_bits(b"\x98", 5) == "10011"
    assert bits_to_bytes("") == b""
    with pytest.raises(ValueError):
        bytes_to_bits(b"\x00", 9)


def test_header_roundtrip():
    """``pack`` is ``struct.pack(">4sHBBQ", ...)`` for every scheme and pad flag, up to each
    field's maximum, and ``unpack`` inverts it; the header is a hashable, picklable 4-tuple."""
    for scheme, pad_mode in itertools.product(ALL_SCHEMES, (False, True)):
        for k, payload_bit_count in [(MAX_K, 2**64 - 1), (MAX_K, 0), (MAX_K, MAX_K * 3),
                                     (64, 12345), (16, 2**64 - 16)]:
            header = StreamHeader(k, scheme, pad_mode, payload_bit_count)
            packed = header.pack()
            assert packed == struct.pack(">4sHBBQ", MAGIC, k, scheme.value, pad_mode,
                                         payload_bit_count)
            if payload_bit_count % k and not pad_mode:  # a ragged payload needs the pad flag
                with pytest.raises(StreamCorruptError, match="pad flag 0"):
                    StreamHeader.unpack(packed)
            else:
                assert StreamHeader.unpack(packed) == header
                assert StreamHeader.unpack(bytearray(packed) + b"tail") == header
            assert header == StreamHeader(k=k, scheme=scheme, pad_mode=pad_mode,
                                          payload_bit_count=payload_bit_count)
            assert hash(header) == hash((k, scheme, pad_mode, payload_bit_count))
            got_k, got_scheme, got_pad, got_bits = header
            assert (got_k, got_scheme, got_pad, got_bits) == (k, scheme, pad_mode,
                                                              payload_bit_count)
            assert (header.k, header.scheme, header.pad_mode, header.payload_bit_count) == (
                k, scheme, pad_mode, payload_bit_count)
            assert copy.copy(header) == pickle.loads(pickle.dumps(header)) == header
            assert type(pickle.loads(pickle.dumps(header))) is StreamHeader
    with pytest.raises(AttributeError):
        header.extra = 1
    with pytest.raises(TypeError):
        StreamHeader(k, scheme, pad_mode)


def test_header_corruption():
    good = StreamHeader(k=8, scheme=Scheme.KNUTH, pad_mode=False,
                        payload_bit_count=8).pack()
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(good[:10])
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(b"XXXX" + good[4:])
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(good[:6] + bytes([99]) + good[7:])  # scheme id
    odd_k = StreamHeader(k=8, scheme=Scheme.KNUTH, pad_mode=False,
                         payload_bit_count=8).pack()
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(odd_k[:5] + bytes([7]) + odd_k[6:])
    for k in (0, 0xFFFF):  # nbits % k must not be reached: no ZeroDivisionError at k = 0
        with pytest.raises(StreamCorruptError, match="block length"):
            StreamHeader.unpack(good[:4] + k.to_bytes(2, "big") + good[6:])


def test_frame_stream_example():
    stream = frame_stream("01011111", 4, Scheme.PROPOSED_FL)
    body = stream[16:]
    # packet 1: 4 bits "0101" prefix-less; packet 2: 5 bits "1" + "0011"
    assert body == bytes([4, 0b01010000, 5, 0b10011000])
    assert deframe_stream(stream) == "01011111"


def test_frame_stream_length_error_and_padding():
    with pytest.raises(InputLengthError):
        frame_stream("010111", 4, Scheme.PROPOSED_FL)
    stream = frame_stream("010111", 4, Scheme.PROPOSED_FL, pad_mode=True)
    assert deframe_stream(stream) == "010111"


def test_frame_stream_rejects_junk():
    for junk in ("0101x111", b"0101"):
        with pytest.raises(ValueError):
            frame_stream(junk, 4, Scheme.KNUTH)
    with pytest.raises(ValueError):
        frame_stream("0101", 3, Scheme.KNUTH)


@pytest.mark.parametrize("bits", ["0_01", " 0101 ", "0101\n", "+0101", "\u0660\u0661\u0660\u0661"])
def test_frame_stream_rejects_what_int_accepts(bits):
    int(bits, 2)  # the block conversion alone would take these
    with pytest.raises(ValueError, match="0/1"):
        frame_stream(bits, 4, Scheme.KNUTH, pad_mode=True)


@pytest.mark.parametrize("where", [_CHECK_SLICE - 1, _CHECK_SLICE, 2 * _CHECK_SLICE + 3])
def test_frame_stream_rejects_junk_past_the_first_check_slice(where):
    bits = "01" * _CHECK_SLICE + "0101"
    bits = bits[:where] + "2" + bits[where + 1:]
    with pytest.raises(ValueError, match="0/1"):
        frame_stream(bits, 4, Scheme.KNUTH, pad_mode=True)


def test_frame_stream_rejects_block_lengths_the_header_cannot_hold():
    for k in (MAX_K + 2, 1 << 20):
        with pytest.raises(ValueError, match="header"):
            frame_stream("0" * k, k, Scheme.KNUTH)


@pytest.mark.parametrize("scheme", [Scheme.PROPOSED_FL, Scheme.PROPOSED_FULL])
def test_k2_streams_rejected_for_schemes_that_cannot_code_them(scheme):
    # a zero-bit rank prefix at k = 2 would collide with the prefix-less case
    with pytest.raises(ValueError):
        frame_stream("", 2, scheme)
    header = StreamHeader(k=2, scheme=scheme, pad_mode=False, payload_bit_count=0)
    with pytest.raises(StreamCorruptError) as err:
        deframe_stream(header.pack())
    assert err.value.packet_index is None


def test_oversized_frame_rejected_before_its_body_is_read():
    k = 16
    header = StreamHeader(k=k, scheme=Scheme.KNUTH, pad_mode=False, payload_bit_count=k)
    nbytes = 8 << 20
    stream = header.pack() + encode_varint(8 * nbytes) + bytes(nbytes)
    tracemalloc.start()
    try:
        with pytest.raises(StreamCorruptError) as err:
            deframe_stream(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.packet_index == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("k", [8, 16, 64])
def test_roundtrip_random_10k_bits(scheme, k):
    rng = random.Random(0xBA1 + k)
    bits = "".join(rng.choice("01") for _ in range(10_000))
    stream = frame_stream(bits, k, scheme, pad_mode=True)
    assert deframe_stream(stream) == bits


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ALL_SCHEMES), st.sampled_from([4, 6, 8, 10]),
       st.text(alphabet="01", min_size=1, max_size=120))
def test_roundtrip_random_inputs(scheme, k, bits):
    stream = frame_stream(bits, k, scheme, pad_mode=True)
    assert deframe_stream(stream) == bits


@pytest.mark.parametrize("scheme", [s for s in ALL_SCHEMES if s is not Scheme.KNUTH])
def test_roundtrip_at_header_block_length_limit(scheme):
    # 65534 is the largest even k the 16-bit header field holds
    k = 65534
    unbalanced = format(random.Random(k).getrandbits(k), f"0{k}b")
    assert not is_balanced(unbalanced)
    bits = "10" * (k // 2) + unbalanced
    assert deframe_stream(frame_stream(bits, k, scheme)) == bits


def _frame_offsets(stream):
    """Start offset of every frame (its varint) in a well-formed stream."""
    offsets, offset = [], 16
    while offset < len(stream):
        offsets.append(offset)
        bit_length, offset = decode_varint(stream, offset)
        offset += (bit_length + 7) // 8
    return offsets


def _corrupt_index(stream):
    with pytest.raises(StreamCorruptError) as err:
        deframe_stream(bytes(stream))
    return err.value.packet_index


def test_long_varint_rejected_in_milliseconds():
    # a run of continuation bytes used to cost O(n^2) in the varint shift
    header = StreamHeader(k=16, scheme=Scheme.KNUTH, pad_mode=False, payload_bit_count=16)
    stream = header.pack() + b"\xff" * 10**5
    start = time.perf_counter()
    assert _corrupt_index(stream) == 0
    assert time.perf_counter() - start < 0.05


def test_non_minimal_varint_rejected():
    # k = 126 VL frames reach 132 bits, so a 2-byte varint fits the length
    # bound; the 126-bit prefix-less frame must still take the 1-byte form
    stream = frame_stream("01" * 63 + "10" * 63, 126, Scheme.PROPOSED_VL)
    second = _frame_offsets(stream)[1]
    assert stream[second] == 126
    padded = stream[:second] + b"\xfe\x00" + stream[second + 1 :]
    with pytest.raises(StreamCorruptError, match="minimal") as err:
        deframe_stream(padded)
    assert err.value.packet_index == 1


def test_set_slack_bit_rejected():
    # a k = 16 Knuth frame is 20 bits in 3 bytes: 4 slack bits in the last byte
    stream = bytearray(frame_stream("0110111101011111" * 2, 16, Scheme.KNUTH))
    assert stream[_frame_offsets(stream)[1]] == 20
    stream[-1] |= 1
    assert _corrupt_index(stream) == 1


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_frame_after_the_last_block_rejected(scheme):
    stream = frame_stream("0110111101011111", 8, scheme)
    first, second = _frame_offsets(stream)
    assert _corrupt_index(stream + stream[first:second]) == 2
    assert _corrupt_index(stream + b"\x00") == 2


def test_nonzero_pad_fill_rejected():
    stream = frame_stream("01011111", 4, Scheme.PROPOSED_FL, pad_mode=True)
    assert deframe_stream(stream) == "01011111"
    # claim 6 payload bits: the last block's two fill bits are then "11"
    header = StreamHeader(k=4, scheme=Scheme.PROPOSED_FL, pad_mode=True, payload_bit_count=6)
    assert _corrupt_index(header.pack() + stream[16:]) == 1
    zero_fill = frame_stream("010111", 4, Scheme.PROPOSED_FL, pad_mode=True)
    assert deframe_stream(zero_fill) == "010111"


def test_header_pad_flag_must_match_payload():
    good = StreamHeader(k=8, scheme=Scheme.KNUTH, pad_mode=False, payload_bit_count=8).pack()
    assert StreamHeader.unpack(good).payload_bit_count == 8
    ragged = StreamHeader(k=8, scheme=Scheme.KNUTH, pad_mode=False, payload_bit_count=6)
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(ragged.pack())
    with pytest.raises(StreamCorruptError):
        StreamHeader.unpack(good[:7] + b"\x02" + good[8:])  # pad flag 2


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_SCHEMES), st.sampled_from([4, 6, 10, 16]), st.booleans(),
       st.randoms(use_true_random=False))
def test_mutated_streams_are_rejected_or_canonical(scheme, k, pad_mode, rng):
    # bit flips, byte insertions and deletions, truncation after the header
    n = rng.randrange(5 * k)
    n -= 0 if pad_mode else n % k
    data = (rng.getrandbits(n) << -n % 8).to_bytes((n + 7) // 8, "big")
    stream = bytearray(frame_bytes(data, k, scheme, pad_mode, n))
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(16, len(stream) + 1), rng.randrange(4)
        if op == 0 and i < len(stream):
            stream[i] ^= 1 << rng.randrange(8)
        elif op == 1:
            stream.insert(i, rng.randrange(256))
        elif op == 2 and i < len(stream):
            del stream[i]
        else:
            del stream[i:]
    try:
        data, n = deframe_bytes(bytes(stream))
    except StreamCorruptError as err:
        assert err.packet_index is not None
        return
    assert frame_bytes(data, k, scheme, pad_mode, n) == stream


def reference_frame_stream(bits, k, scheme, pad_mode):
    """The per-packet framing the block kernel replaced, kept as its specification."""
    original = len(bits)
    bits += "0" * (-original % k)
    out = StreamHeader(k=k, scheme=scheme, pad_mode=pad_mode,
                       payload_bit_count=original).pack()
    for start in range(0, len(bits), k):
        packet = encode_packet(bits[start : start + k], scheme)
        out += encode_varint(len(packet)) + bits_to_bytes(packet)
    return out


def reference_deframe_stream(data):
    header = StreamHeader.unpack(data)
    offset, decoded = 16, []
    while offset < len(data):
        bit_length, offset = decode_varint(data, offset)
        nbytes = (bit_length + 7) // 8
        bits = bytes_to_bits(data[offset : offset + nbytes], bit_length)
        decoded.append(decode_packet(bits, header.k, header.scheme))
        offset += nbytes
    return "".join(decoded)[: header.payload_bit_count]


@pytest.mark.parametrize("pad_mode", [False, True])
@pytest.mark.parametrize("scheme,k", [
    (scheme, k) for scheme in ALL_SCHEMES for k in (2, 4, 6, 10, 16, 18, 64, 1000, 1002, 1024)
    if k > 2 or scheme not in (Scheme.PROPOSED_FL, Scheme.PROPOSED_FULL)  # need k >= 4
])
def test_block_kernel_matches_per_packet_path(scheme, k, pad_mode):
    rng = random.Random(k * 10 + scheme.value)
    blocks = ["01" * (k // 2), "1" * k, "0" * k, "1" * (k // 2) + "0" * (k // 2)]
    # an odd block count, so that the payload is not whole bytes unless 8 divides
    # k; the ragged payloads of pad mode never are
    blocks += [format(rng.getrandbits(k), f"0{k}b") for _ in range(9 if k > 64 else 41)]
    bits = "".join(blocks)
    if pad_mode:
        bits = bits[: len(bits) - k // 2 + 1]  # the last block is ragged
    stream = frame_stream(bits, k, scheme, pad_mode)
    assert stream == reference_frame_stream(bits, k, scheme, pad_mode)
    assert deframe_stream(stream) == reference_deframe_stream(stream) == bits
    data = bits_to_bytes(bits)
    if len(bits) % 8 == 0:
        assert frame_bytes(data, k, scheme, pad_mode) == stream
    assert frame_bytes(data, k, scheme, pad_mode, len(bits)) == stream
    assert deframe_bytes(stream) == (data, len(bits))


# sha256 of frame_bytes(random.Random(16).randbytes(4097), k, scheme, pad_mode=True),
# computed with the two-walk ranked encoder (balancing index search, then the
# listing of y); k = 6, 18, 66 and 1002 end each block in a partial byte.  The
# k = 8 and 32 rows were computed with the byte walk, before the lane encoder
# coded those k.
PINNED_STREAM_SHA256 = {
    Scheme.KNUTH: {
        6: "7b26d528b7ebe2f3cd78319b7e307d4a30ef31b73aa2e17e3b5ad689c868477d",
        8: "118eee0c543d7da61c2d8775b973f84fb5a836e3cd9cd9aa483b45249ded802d",
        16: "9815f3c8e814a23c7bdac971960a4082da3d61aadf81bf29d7754af6699701ad",
        18: "5f0418b08a0ab1dc861c95892a1888d625de272171fd26bdd5b082277e58a0d2",
        32: "eaf8a07756c7f4f69c4fd893ba1870fac5f581d15e84c36ce0a99dcebd1db82f",
        64: "f14f18d8fdd086b59e742b0574f53d36e798906dca415ba861ff7ab74ccb10ed",
        66: "f096d7d81801236d794d5671b798f3fd5e44aac7bac7a39547ca7f07e03e84af",
        1002: "60035f4ccd407e240f30921d60af3417774cb059cea8b5eb74b281831f8d5d24",
        1024: "08dac597ad2572e4bc760c8738a88943531d85c24c7f1bf823cfb81f11eaf716",
    },
    Scheme.BASELINE_FL: {
        6: "202e33ba79e3a94c55fef477126b5a30c85d0b883cce0397497ba91874f521b8",
        8: "54130feb5fadd328d9882eb2e5154d1fb0c93adf0f17c3ac1d3323400ccd28ac",
        16: "7baf8107f4b329f67e6f122eed4a3ea7f702bf6fdfbe23db76ebda07ce7a8e02",
        18: "3b3ab3fb6d023cab3710d47c6e85815a5cd6a664368c9bdc23c2a3a4d09e17ef",
        32: "19dfe061dc619ba39e5a0263d1f86c89298553b3682749a9969f2a0b4edeb810",
        64: "527331c836dfe9a1f65d42c23fa94e643fe4fff53228a30501b5ed5c6558d762",
        66: "1eadb4d58fdf101e18a2f29c29d4dedaa4f4496ff0ef96e9b099116092c6efed",
        1002: "26b338d6b51adc0656cb4138049c580ca6bd2ce04f38bf277cad68de50abe1b4",
        1024: "c0447ddc74d3ed62f8fe5fe4ad809ccd0def9963cb27601bf068cebd77bde189",
    },
    Scheme.PROPOSED_FL: {
        6: "cf21c99707898e317aae136b6b8a41bd1a7a7a16da3fb552d944f8740916c4d4",
        8: "ea05caae45647b4ad9263268bac915f3e383435587ec47ac6f1e4a6107b9de11",
        16: "c93915a2872385aef7a4f317ea5aedc7f5b0fabd96ab06f0c7b1e771f94f5e46",
        18: "bec8ad4f5b942733f44a995e20dbcd55ca3c7c0c385f3b7a47a215c7f64c2890",
        32: "0661036802751d135d2927e25e665c461636142476870350c49fe45b7beecf19",
        64: "c9c662bfafb11fa23bd08d4309ffa5f88c29181332f7e385b02d59eec30e773c",
        66: "b54bf37afd3301d291ceff8afdd694b14384493440a3ac97a9760bfea1d80176",
        1002: "48e387360f10c5766750aad0c5e869c53574ec68b4196d5731681bc21a7dc966",
        1024: "a46bc9a075c1ac1b749d8efe927352ef043456b781e3e26af104a093c83a71e4",
    },
    Scheme.PROPOSED_VL: {
        6: "21b27c402c4389c6eb1bd7a8cb082303664200843de7c41cd56e78aa0d738899",
        8: "ef683d58f518d8610d3c69f707b66132cdb437a727263e23443d6c0d9c58cd9d",
        16: "63d5153d65ac3de518b38f7e7532e177ed4cdbf74b51af6c48eb55eac8d4fd25",
        18: "e8299c8f2c328d67493a77b624d9f987b629fe22ba9a8c4c759d029189a11968",
        32: "80f46fd41dca7aa60e936fb38208205195087472b4dfd750412f3627a8363436",
        64: "7edf0756ff6dfdc9b134e62beb1b40c4b4217fd058b471b4331cb8a602ac06e2",
        66: "76c91f305732fc513ca48725726f949f25484acd022d2d1b8c5e8a47009ce2c8",
        1002: "0de44df3fda1e989c4e15176756b753036c32c9f1981ea9baf988e56f00ecd70",
        1024: "28361249d5b70c9101587076dae02d761e4a15154fe512d367d365f10c5c4ae9",
    },
    Scheme.PROPOSED_FULL: {
        6: "5120f6b478f1afd0ece2f452d822a591a1036b812b5becc46a635e7a06f014c5",
        8: "3c6f6c1934930a924bf1cd8657dd246e1584b503104d56505f79509a9cc5f594",
        16: "26342e26dbf67287d38bc995838cefec10cb2aad3a4487c41014d8ff5246227e",
        18: "e7d35f624804bbcf3c3abf8fcdf1d2f3b91f3d0a1b6c7fa6358fefa33e4796f8",
        32: "9a571e2234c149991f5e1bb8ca023c4817d746a4737352c8558ef0dd40e8534e",
        64: "874c3fe5d75ecff14fc5fb84517f0e8c95153cc0764e2ca39a57d53a4611f4b6",
        66: "235e2c54cdccc95a2dc122070022bc4b231be94b9fcd2d09ba1d53999316192e",
        1002: "e30aaae87b017aeb29b65f803a4dbef075f5d929eddda77723a9ddcd8f13a9a6",
        1024: "e37b97065a8f4dbfe60199ceb366cb871420c8a6f5b8726818937c20d79d4839",
    },
}


@pytest.mark.parametrize("k", [6, 8, 16, 18, 32, 64, 66, 1002, 1024])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_pinned_stream_digests(scheme, k):
    # every k here is >= 4, so PROPOSED_FL and PROPOSED_FULL code them all
    data = random.Random(16).randbytes(4097)
    stream = frame_bytes(data, k, scheme, pad_mode=True)
    assert hashlib.sha256(stream).hexdigest() == PINNED_STREAM_SHA256[scheme][k]


def test_frame_bytes_rejects_a_bit_count_its_bytes_do_not_hold():
    assert frame_bytes(b"\x5c", 4, Scheme.PROPOSED_FL, True, 6) == frame_stream(
        "010111", 4, Scheme.PROPOSED_FL, True)
    for data, bit_count in ((b"\x5f", 6), (b"\x5c\x00", 6), (b"\x5c", 9), (b"", -1)):
        with pytest.raises(ValueError, match="zero fill"):
            frame_bytes(data, 4, Scheme.PROPOSED_FL, True, bit_count)


@pytest.mark.parametrize("k", [16, 1024])
def test_cli_codec_memory_is_proportional_to_the_file(tmp_path, monkeypatch, k):
    """Encode and decode of a 64 KiB file hold no bit string: each peaks below 512 KiB.

    Each command runs once untraced first, so one-time set-up (the byte-walk
    table) is not counted against the file.  It runs on one CPU and on two:
    at k = 16 the file's 32,768 blocks split in two, and this process then
    holds one copy of each part, never a joined one, so it peaks within
    16 KiB of the serial call.
    """
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    payload = random.Random(k).randbytes(64 << 10)
    src.write_bytes(payload)
    peaks = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        for argv in (["encode", "--scheme", "knuth", "--k", str(k), str(src), str(enc)],
                     ["decode", str(enc), str(out)]):
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[count, argv[0]] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out.read_bytes() == payload
    assert max(peaks.values()) < 512 << 10, {key: peak >> 10 for key, peak in peaks.items()}
    for side in ("encode", "decode"):
        assert peaks[2, side] <= peaks[1, side] + (16 << 10), (side, peaks[2, side] >> 10,
                                                               peaks[1, side] >> 10)


@pytest.mark.parametrize("k", [16, 1024])
def test_framing_peaks_at_its_output_plus_32_kib(k):
    """``frame_bytes`` / ``deframe_bytes`` return the buffer they built: no final copy."""
    payload = random.Random(k).randbytes(64 << 10)
    stream = frame_bytes(payload, k, Scheme.KNUTH)  # the untraced call builds the walk table
    for side, run, expect in (("encode", lambda: frame_bytes(payload, k, Scheme.KNUTH), stream),
                              ("decode", lambda: deframe_bytes(stream)[0], payload)):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expect
        assert peak <= len(result) + (32 << 10), (side, peak >> 10, len(result) >> 10)


LANE_KS = list(range(8, LANE_K_MAX + 1, 8))


def framed_block_by_block(data: bytes, k: int, scheme: Scheme, pad_mode: bool,
                          bit_count: int) -> bytearray:
    """The stream of ``frame_bytes``, one ``BlockCodec.encode`` and one frame per block."""
    codec = BlockCodec(k, scheme)
    blocks = -(-bit_count // k)
    value = int.from_bytes(data, "big") >> 8 * len(data) - bit_count << blocks * k - bit_count
    out = bytearray(StreamHeader(k, scheme, pad_mode, bit_count).pack())
    for i in range(blocks):
        packet, p = codec.encode(value >> k * (blocks - 1 - i) & codec.mask)
        out += encode_varint(k + p) + (packet << -(k + p) % 8).to_bytes((k + p + 7) // 8, "big")
    return out


def assert_frames_block_by_block(data: bytes, k: int, scheme: Scheme, cut: int = 0) -> None:
    """``frame_bytes`` of ``data`` less its last ``cut`` bits (zero-filled, padded if any)."""
    bit_count = 8 * len(data) - cut
    data = (int.from_bytes(data, "big") >> cut << cut % 8).to_bytes(-(-bit_count // 8), "big")
    pad = bool(bit_count % k)
    assert frame_bytes(data, k, scheme, pad, bit_count) == framed_block_by_block(
        data, k, scheme, pad, bit_count)


def every_block(k: int, blocks: int) -> bytes:
    """``blocks`` k-bit blocks counting up from 0, wrapping after all 2**k."""
    return b"".join((i % (1 << k)).to_bytes(k // 8, "big") for i in range(blocks))


@pytest.mark.parametrize("k", [8, 16])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_lane_encoder_matches_the_kernel_on_every_block(scheme, k):
    """Every one of the 2**k blocks, in order, codes as ``BlockCodec.encode`` codes it."""
    assert_frames_block_by_block(every_block(k, 1 << k), k, scheme)
    for blocks in (LANE_BLOCKS - 1, LANE_BLOCKS, LANE_BLOCKS + 1):  # each whole and ragged
        data = every_block(k, blocks)
        for cut in (0, 1, k // 2 + 3):
            assert_frames_block_by_block(data, k, scheme, cut)


@pytest.mark.parametrize("k", LANE_KS + [LANE_K_MAX + 8])  # the first k past the lanes walks
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_lane_encoder_matches_the_kernel_on_random_streams(scheme, k):
    rng = random.Random(k)
    for blocks in (1, 3, LANE_BLOCKS * 2 + 5):
        data = rng.randbytes(blocks * k // 8)
        assert_frames_block_by_block(data, k, scheme)
        assert_frames_block_by_block(data, k, scheme, cut=rng.randrange(1, k))


@pytest.mark.parametrize("k", [4, 6, *LANE_KS, 34, 40, 64, 1024])
def test_the_lane_encoder_codes_k_a_multiple_of_8_up_to_its_cut_over(monkeypatch, k):
    calls = []
    encode_lanes = stream.encode_lanes
    monkeypatch.setattr(stream, "encode_lanes", lambda *args: calls.append(args[1]) or
                        encode_lanes(*args))
    blocks = 3 * LANE_BLOCKS + 1
    frame_bytes(random.Random(k).randbytes(-(-blocks * k // 8)), k, Scheme.PROPOSED_VL, True)
    if k % 8 or k > LANE_K_MAX:
        assert calls == []
    else:
        assert sum(calls) == blocks and max(calls) == LANE_BLOCKS


def test_the_lane_masks_are_built_per_call():
    """The lane walk keeps no mask, table or lane value in a module after it returns."""
    frame_bytes(random.Random(8).randbytes(4096), 16, Scheme.PROPOSED_FULL)
    for module in (stream, subsets):
        kept = [name for name, value in vars(module).items()
                if isinstance(value, int) and value.bit_length() > 64
                or isinstance(value, (bytes, bytearray)) and len(value) > len(MAGIC)]
        assert kept == [], module.__name__


def test_lane_framing_memory_is_bounded_per_walk():
    """Above the stream it returns, ``frame_bytes`` peaks the same for 64 KiB and 1 MiB."""
    above = {}
    for size in (64 << 10, 1 << 20):
        payload = random.Random(size).randbytes(size)
        tracemalloc.start()
        try:
            result = frame_bytes(payload, 16, Scheme.PROPOSED_VL)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) > size
        above[size] = peak - current
    assert abs(above[64 << 10] - above[1 << 20]) <= 4 << 10, {s: a >> 10 for s, a in above.items()}


def test_header_claiming_2_63_bits_is_not_believed():
    one_frame = frame_stream("0110" * 4, 16, Scheme.KNUTH)
    claim = StreamHeader(k=16, scheme=Scheme.KNUTH, pad_mode=True, payload_bit_count=2**63 - 1)
    start = time.perf_counter()
    with pytest.raises(StreamCorruptError) as err:
        deframe_bytes(claim.pack() + one_frame[16:])
    assert time.perf_counter() - start < 0.05
    assert err.value.packet_index == 1


def test_bit_flip_detected_with_packet_index():
    bits = "01011111" + "11110000"
    stream = frame_stream(bits, 8, Scheme.PROPOSED_FL, pad_mode=False)
    # walk the frames to find where packet 1's payload starts
    offset = 16
    length0, offset = decode_varint(stream, offset)
    offset += (length0 + 7) // 8
    length1, body_start = decode_varint(stream, offset)
    # flip the last payload bit of packet 1: balanced word becomes unbalanced
    byte_index = body_start + (length1 - 1) // 8
    bit_in_byte = 7 - ((length1 - 1) % 8)
    corrupted = bytearray(stream)
    corrupted[byte_index] ^= 1 << bit_in_byte
    with pytest.raises(StreamCorruptError) as err:
        deframe_stream(bytes(corrupted))
    assert err.value.packet_index == 1


def test_truncated_stream_reports_index():
    stream = frame_stream("0101111101011111", 8, Scheme.KNUTH)
    with pytest.raises(StreamCorruptError) as err:
        deframe_stream(stream[:-1])
    assert err.value.packet_index == 1


def test_short_stream_vs_promised_bits():
    stream = bytearray(frame_stream("01011111", 8, Scheme.KNUTH))
    # drop the single frame entirely, keep the header promise of 8 bits
    with pytest.raises(StreamCorruptError):
        deframe_stream(bytes(stream[:16]))


def test_empty_payload_stream():
    stream = frame_stream("", 8, Scheme.KNUTH)
    assert deframe_stream(stream) == ""


def test_measured_average_prefix_bits_matches_enumeration():
    # sample mean of the variable-length prefix size converges to the
    # enumeration-weighted mean within 3 sigma
    k, trials = 16, 100_000
    sizes = {s: subset_size_count(s, k) for s in range(1, k // 2 + 1)}
    bits_for = {s: max(1, ceil_log2(s)) for s in sizes}
    mean = sum(s * n * bits_for[s] for s, n in sizes.items()) / 2**k
    second = sum(s * n * bits_for[s] ** 2 for s, n in sizes.items()) / 2**k
    sigma = math.sqrt(second - mean * mean)
    rng = random.Random(1234)
    total = 0
    for _ in range(trials):
        x = format(rng.getrandbits(k), f"0{k}b")
        total += len(encode_packet(x, Scheme.PROPOSED_VL)) - k
    sample_mean = total / trials
    assert abs(sample_mean - mean) <= 3 * sigma / math.sqrt(trials)


def test_selfcheck_passes_and_caps():
    report = selfcheck(8)
    assert report.all_passed
    assert any("k=8" in e.name for e in report.entries)
    assert any("discrepancy" in note for note in report.notes)
    with pytest.raises(ValueError):
        selfcheck(18)
    with pytest.raises(ValueError):
        selfcheck(2)


def test_selfcheck_reports_a_broken_count_identity(monkeypatch, capsys):
    def one_count_off(k):
        table = count_table(k)
        if k == 6:  # N(3) = 6 becomes 7, and the table is validated on the way out as usual
            table = CountTable(k, {**table.counts, 3: table.counts[3] + 1})
            table.validate()
        return table

    monkeypatch.setattr(invariants, "count_table", one_count_off)
    report = selfcheck(6)
    assert not report.all_passed
    failed = {entry.name: entry.detail for entry in report.entries if not entry.passed}
    assert set(failed) == {
        "k=6: count identities (sum and weighted sum)",
        "k=6: exact counts match brute-force enumeration",
    }
    assert failed["k=6: count identities (sum and weighted sum)"] == "counts sum to 21, expected 20"

    assert main(["selfcheck", "--k-max", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  k=6: count identities (sum and weighted sum)  [counts sum to 21, expected 20]" in lines
    assert lines[-1].startswith("FAILED:")


def test_selfcheck_names_each_checks_own_counterexample(monkeypatch):
    """A broken running-sum span fails its own entry only; no passing entry carries its detail."""
    clean = {entry.name: entry.detail for entry in selfcheck(6).entries}
    subset_size_rds = invariants.subset_size_rds

    def one_off_at_0110(y):
        return subset_size_rds(y) + (y == "0110")

    monkeypatch.setattr(invariants, "subset_size_rds", one_off_at_0110)
    report = selfcheck(6)
    failed = {entry.name: entry.detail for entry in report.entries if not entry.passed}
    assert failed == {"k=4: size equals running-sum span": "running-sum span mismatch at 0110"}
    assert {entry.name: entry.detail for entry in report.entries if entry.passed} == {
        name: detail for name, detail in clean.items() if name not in failed
    }


def test_selfcheck_lists_each_balanced_word_once(monkeypatch):
    """One pass per k: one listing per balanced word, and the brute-force counts come from it."""
    listed = Counter()
    subset_members = invariants.subset_members

    def counted(y, includes_balanced):
        listed[y] += 1
        return subset_members(y, includes_balanced)

    def second_enumeration(*args, **kwargs):
        raise AssertionError(f"selfcheck enumerated again: {args} {kwargs}")

    monkeypatch.setattr(invariants, "subset_members", counted)
    monkeypatch.setattr(counting, "subset_members", second_enumeration)
    monkeypatch.setattr(counting, "subset_size_count_bruteforce", second_enumeration)
    assert selfcheck(10).all_passed
    assert not hasattr(invariants, "subset_size_count_bruteforce")
    # k = 4 words are listed again by the worked-example check
    assert {y: n for y, n in listed.items() if len(y) >= 6} == Counter(
        y for k in (6, 8, 10) for y in counting.balanced_words(k))


def test_selfcheck_leaves_no_cache_entries():
    """After a selfcheck no ``functools`` cache in a loaded balpack module holds an entry."""
    code = (
        "import json, sys\n"
        "from balpack.cli import main\n"
        "assert main(['selfcheck', '--k-max', '10']) == 0\n"
        "held = {f'{name}.{attr}': value.cache_info().currsize\n"
        "        for name, module in list(sys.modules.items()) if name.split('.')[0] == 'balpack'\n"
        "        for attr, value in vars(module).items()\n"
        "        if callable(getattr(value, 'cache_info', None))}\n"
        "print(json.dumps(held), file=sys.stderr)\n"
    )
    src_dir = Path(balpack.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": str(src_dir)})
    assert result.returncode == 0, result.stderr
    held = json.loads(result.stderr.splitlines()[-1])
    assert "balpack.counting._bruteforce_table" in held  # the probe sees the caches there are
    assert not any(held.values()), held


# --- CLI ---


def test_cli_scheme_names():
    assert SCHEME_NAMES == {
        "knuth": Scheme.KNUTH,
        "baseline-fl": Scheme.BASELINE_FL,
        "proposed-fl": Scheme.PROPOSED_FL,
        "proposed-vl": Scheme.PROPOSED_VL,
        "proposed-full": Scheme.PROPOSED_FULL,
    }


@pytest.mark.parametrize("name", sorted(SCHEME_NAMES))
def test_cli_encode_decode_roundtrip(tmp_path, name):
    src = tmp_path / "input.bin"
    enc = tmp_path / "stream.bpk"
    out = tmp_path / "output.bin"
    payload = bytes(range(256))
    src.write_bytes(payload)
    assert main(["encode", "--scheme", name, "--k", "16",
                 str(src), str(enc)]) == 0
    assert main(["decode", str(enc), str(out)]) == 0
    assert out.read_bytes() == payload


def test_cli_empty_file_roundtrip(tmp_path):
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    src.write_bytes(b"")
    assert main(["encode", "--scheme", "knuth", "--k", "16", str(src), str(enc)]) == 0
    assert main(["decode", str(enc), str(out)]) == 0
    assert out.read_bytes() == b""


def test_cli_output_overwrites_existing_files_exactly(tmp_path):
    """Outputs are written in place; an older file of any length leaves nothing behind."""
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    for payload, old in [(b"ab" * 100, b"\xff" * 5000), (b"ab" * 2000, b"\xff" * 5), (b"", b"x")]:
        src.write_bytes(payload)
        enc.write_bytes(old)
        out.write_bytes(old)
        assert main(["encode", "--scheme", "knuth", "--k", "16", str(src), str(enc)]) == 0
        assert enc.read_bytes() == frame_stream(
            "".join(f"{b:08b}" for b in payload), 16, Scheme.KNUTH)
        assert main(["decode", str(enc), str(out)]) == 0
        assert out.read_bytes() == payload


def test_cli_write_finishes_short_writes(tmp_path, monkeypatch):
    """``os.write`` may take part of its buffer; the writer goes on from where it stopped."""
    target, sizes = tmp_path / "out.bin", []
    target.write_bytes(b"\xff" * 1000)
    real_write = os.write

    def short_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(cli.os, "write", short_write)
    payload = random.Random(7).randbytes(100)
    cli._write(str(target), payload)
    assert target.read_bytes() == payload
    assert sizes == list(range(100, 0, -7))


def test_cli_decode_to_a_device(tmp_path):
    src, enc = tmp_path / "input.bin", tmp_path / "stream.bpk"
    src.write_bytes(b"abcd")
    assert main(["encode", "--scheme", "proposed-fl", "--k", "16", str(src), str(enc)]) == 0
    assert main(["decode", str(enc), os.devnull]) == 0


def test_cli_encode_pad_flag(tmp_path):
    src = tmp_path / "input.bin"
    enc = tmp_path / "stream.bpk"
    out = tmp_path / "output.bin"
    src.write_bytes(b"xyz")  # 24 bits, not a multiple of k=64
    assert main(["encode", "--scheme", "proposed-vl", "--k", "64",
                 str(src), str(enc)]) == 1
    assert main(["encode", "--scheme", "proposed-vl", "--k", "64", "--pad",
                 str(src), str(enc)]) == 0
    assert main(["decode", str(enc), str(out)]) == 0
    assert out.read_bytes() == b"xyz"


def test_cli_decode_refuses_a_payload_that_is_not_whole_bytes(tmp_path, capsys):
    enc, out = tmp_path / "stream.bpk", tmp_path / "output.bin"
    enc.write_bytes(frame_stream("011010011001", 4, Scheme.PROPOSED_FL))
    assert main(["decode", str(enc), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith("not byte aligned")
    assert not out.exists()


def test_cli_decode_refuses_a_misaligned_payload_from_the_header(tmp_path, capsys):
    """The alignment check reads the header only: no frame is decoded, no child forked."""
    enc, out = tmp_path / "stream.bpk", tmp_path / "output.bin"
    header = StreamHeader(k=4, scheme=Scheme.PROPOSED_FL, pad_mode=True, payload_bit_count=12)
    enc.write_bytes(header.pack() + b"\xff" * 40)  # garbage where the frames belong
    assert main(["decode", str(enc), str(out)]) == 1
    assert capsys.readouterr().err == "error: decoded payload of 12 bits is not byte aligned\n"
    assert not out.exists()


def cpus(monkeypatch, count: int) -> None:
    """Make the CLI see ``count`` CPUs: 1 keeps a stream in one process, more split it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def decode_outcome(stream: bytes, tmp_path: Path) -> tuple:
    """The output of decoding ``stream`` through the CLI, or its error's class, text and index."""
    enc, out = tmp_path / "outcome.bpk", tmp_path / "outcome.out"
    enc.write_bytes(stream)
    out.unlink(missing_ok=True)
    try:
        cli._cmd_decode(str(enc), str(out))
    except (StreamCorruptError, ValueError) as exc:
        outcome = (type(exc), str(exc), getattr(exc, "packet_index", None), out.exists())
    else:
        outcome = ("ok", out.read_bytes())
    assert_no_child_left()
    return outcome


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("scheme,k,bits", [
    (scheme, k, bits) for scheme in ALL_SCHEMES for k, bits in (
        (4, 4 * 300 + 2), (6, 6 * 211), (16, 16 * 90 + 7), (18, 18 * 70 + 4), (1024, 1024 * 9 + 8))
])
def test_ranges_join_to_the_stream_and_the_payload(scheme, k, bits, count):
    """Block ranges cut between int conversions; their parts joined in order are the whole."""
    rng = random.Random(f"{scheme}/{k}/{count}")
    data = (rng.getrandbits(bits) << -bits % 8).to_bytes((bits + 7) // 8, "big")
    header = input_header(data, k, scheme, True, bits)
    stream = frame_bytes(data, k, scheme, True, bits)
    ranges = block_ranges(header, count)
    assert len(ranges) == min(count, -(-header.blocks // _chunk(k)[1]))
    assert ranges[0][0] == 0 and ranges[-1][1] == header.blocks
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(ranges, ranges[1:]))
    assert b"".join(frame_range(data, header, *r) for r in ranges) == stream
    located = frame_ranges(bytes(stream), header, count)
    assert [r[:2] for r in located] == ranges
    assert b"".join(deframe_range(bytes(stream), header, *r) for r in located) == data


def test_frame_ranges_keep_an_irregular_stream_whole():
    """A bad frame head before the last cut, or a stream too short, leaves one range.

    Knuth and BASELINE_FL frames all have one size, so their cut offsets are
    products; they must be the offsets a walk over every frame finds.
    """
    data = random.Random(3).randbytes(4096)
    for scheme, k in ((Scheme.PROPOSED_VL, 16), (Scheme.KNUTH, 16), (Scheme.KNUTH, 1024),
                      (Scheme.BASELINE_FL, 16), (Scheme.BASELINE_FL, 1024)):
        header = input_header(data, k, scheme)
        stream = bytes(frame_bytes(data, k, scheme))
        whole = [(0, header.blocks, HEADER_SIZE)]
        ranges = frame_ranges(stream, header, 4)
        assert len(ranges) == 4
        assert frame_ranges(stream, header, 1) == whole
        offsets = _frame_offsets(stream)
        assert [r[2] for r in ranges] == [offsets[r[0]] for r in ranges]
        last_cut = ranges[-1][2]
        before = offsets[ranges[-1][0] - 1]  # the last frame head before the last cut
        bad = [stream[:16] + b"\x7f" + stream[17:],  # a 127-bit frame
               stream[:16] + b"\x91\x00" + stream[18:],  # a varint that is not minimal
               stream[:2000], stream[:last_cut],
               flipped(stream, (before, 0x80))]
        if k == 1024:  # two-byte varints: a corrupt second byte, early and late
            bad += [flipped(stream, (offsets[1] + 1, 0x01)), flipped(stream, (before + 1, 0x01))]
        for corrupt in bad:
            assert frame_ranges(corrupt, header, 4) == whole


@pytest.mark.parametrize("scheme", [Scheme.KNUTH, Scheme.BASELINE_FL])
def test_one_shape_streams_decode_without_reading_a_varint(monkeypatch, scheme):
    """A valid Knuth or BASELINE_FL stream is read a chunk at a time, with no frame's varint parsed.

    At k = 1024 every frame starts with a two-byte varint, which the frame
    loop would read with ``decode_varint``; a corrupt packet sends its chunk
    there, so the count shows which path ran.
    """
    data = random.Random(5).randbytes(8 * 1024 // 8)
    stream = bytes(frame_bytes(data, 1024, scheme))
    assert stream[HEADER_SIZE] >= 0x80
    calls = []

    def counted(*args):
        calls.append(args)
        return decode_varint(*args)

    monkeypatch.setattr("balpack.stream.decode_varint", counted)
    header = StreamHeader.unpack(stream)
    ranges = frame_ranges(stream, header, 3)
    assert len(ranges) == 3
    assert b"".join(deframe_range(stream, header, *r) for r in ranges) == data
    assert deframe_bytes(stream) == (data, len(data) * 8)
    assert calls == []
    with pytest.raises(StreamCorruptError, match="^packet 7: ") as err:
        deframe_bytes(flipped(stream, (len(stream) - 2, 0x01)))
    assert err.value.packet_index == 7 and len(calls) == 1


def one_shape_mutations(stream: bytes, k: int, scheme: Scheme, rng: random.Random):
    """Corrupt copies of a Knuth or BASELINE_FL stream, whose frames are all one size.

    Bit flips, byte inserts and deletes and truncations at each chunk boundary
    (the first byte of the chunk's first frame and the last byte before it),
    inside each chunk, in the last, partial chunk and at the end; then random ones.
    """
    bit_length = k + prefix_length(k, scheme)
    step = len(encode_varint(bit_length)) + (bit_length + 7) // 8
    per_chunk = _chunk(k)[1]
    frames = (len(stream) - HEADER_SIZE) // step
    places = {len(stream) - 1, HEADER_SIZE + (frames - 1) * step + 1}
    for first in range(0, frames, per_chunk):
        at = HEADER_SIZE + first * step
        places |= {at, at - 1, at + min(per_chunk, frames - first) * step // 2}
    for at in sorted(places - {HEADER_SIZE - 1}):
        for mask in (0x01, 0x10, 0x80):
            yield flipped(stream, (at, mask))
        yield stream[:at] + b"\x00" + stream[at:]
        yield stream[:at] + bytes([rng.randrange(256)]) + stream[at:]
        yield stream[:at] + stream[at + 1:]
        yield stream[:at]
    for _ in range(8):
        yield flipped(stream, *((rng.randrange(HEADER_SIZE, len(stream)), 1 << rng.randrange(8))
                                for _ in range(rng.randint(1, 3))))


#: sha256 of the JSON list of outcomes of ``test_one_shape_decode_outcomes_are_pinned``,
#: computed before the one-shape chunk path existed
PINNED_ONE_SHAPE_OUTCOMES_SHA256 = {
    Scheme.KNUTH: "a8e00bbd080d81a02138f2e9347fe532701340455dcda25da0000f75083a0391",
    Scheme.BASELINE_FL: "f1ff6964c987011e466229b03ab6f5985d223d9921bbe94c145ab556a67715a4",
}


@pytest.mark.parametrize("scheme", [Scheme.KNUTH, Scheme.BASELINE_FL])
def test_one_shape_decode_outcomes_are_pinned(scheme):
    """Every mutated stream decodes to the same bytes, or fails with the same error, as pinned.

    The outcome is the decoded payload or the error's class, message and
    packet index.  Decoding the ranges of ``frame_ranges`` in order, stopping
    at the first error, as a split CLI call does, gives the same outcome.
    """
    outcomes = []
    for k in (4, 6, 16, 18, 126, 128, 130, 1024):
        per_chunk = _chunk(k)[1]
        blocks = 2 * per_chunk + per_chunk // 2 + 1
        for pad_mode in (False, True):
            rng = random.Random(f"{scheme.name}/{k}/{pad_mode}")
            bits = blocks * k - (k // 2 + 1 if pad_mode else 0)
            data = (rng.getrandbits(bits) << -bits % 8).to_bytes((bits + 7) // 8, "big")
            stream = bytes(frame_bytes(data, k, scheme, pad_mode, bits))
            for corrupt in one_shape_mutations(stream, k, scheme, rng):
                try:
                    payload, nbits = deframe_bytes(corrupt)
                    outcome = [payload.hex(), nbits]
                except StreamCorruptError as exc:
                    outcome = [type(exc).__name__, str(exc), exc.packet_index]
                header = StreamHeader.unpack(corrupt)
                try:
                    parts = [deframe_range(corrupt, header, *r)
                             for r in frame_ranges(corrupt, header, 3)]
                    assert outcome == [b"".join(parts).hex(), header.payload_bit_count]
                except StreamCorruptError as exc:
                    assert outcome == [type(exc).__name__, str(exc), exc.packet_index]
                outcomes.append(outcome)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == PINNED_ONE_SHAPE_OUTCOMES_SHA256[scheme]


def ragged_input(k: int, blocks: int, seed: int) -> bytes:
    """Random bytes that end in a partial block, ``blocks`` blocks with it."""
    return random.Random(seed).randbytes(((blocks - 1) * k + k // 2 + 7) // 8)


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("k", [4, 6, 16, 18, 1024])
@pytest.mark.parametrize("name", sorted(SCHEME_NAMES))
def test_cli_split_streams_and_outputs_match_one_process(tmp_path, monkeypatch, name, k, pad):
    """Streams and decoded files are the same bytes on one CPU and split over two or three.

    The threshold is lowered to 16 blocks per process so that every k splits
    in milliseconds; the real one is exercised by the memory test above.
    """
    monkeypatch.setattr(cli, "MIN_BLOCKS_PER_WORKER", 16)
    blocks = 3 * 16 * 33  # 33 int conversions at k = 16
    data = ragged_input(k, blocks, k) if pad else random.Random(k).randbytes(blocks * k // 8)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    results = []
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        enc, out = tmp_path / f"stream{count}.bpk", tmp_path / f"output{count}.bin"
        argv = ["encode", "--scheme", name, "--k", str(k), *(["--pad"] if pad else []),
                str(src), str(enc)]
        assert main(argv) == 0
        assert_no_child_left()
        assert main(["decode", str(enc), str(out)]) == 0
        assert_no_child_left()
        results.append((enc.read_bytes(), out.read_bytes()))
    assert results[0][1] == data
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("name", sorted(SCHEME_NAMES))
def test_cli_split_at_the_real_threshold(tmp_path, monkeypatch, name):
    """At k = 16 a ragged input of 8,193 blocks splits in two at 4,096 blocks per process."""
    assert cli.MIN_BLOCKS_PER_WORKER == 4096
    assert cli._workers(8191) == 1
    cpus(monkeypatch, 2)
    assert cli._workers(8192) == 2
    src = tmp_path / "input.bin"
    src.write_bytes(ragged_input(16, 8193, 16))
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        enc, out = tmp_path / f"stream{count}.bpk", tmp_path / f"output{count}.bin"
        assert main(["encode", "--scheme", name, "--k", "16", "--pad", str(src), str(enc)]) == 0
        assert main(["decode", str(enc), str(out)]) == 0
        assert_no_child_left()
        results.append((enc.read_bytes(), out.read_bytes()))
    assert results[0] == results[1] and results[0][1] == src.read_bytes()


def flipped(stream: bytes, *places: tuple[int, int]) -> bytes:
    """``stream`` with the bits of each (byte offset, mask) place inverted."""
    corrupt = bytearray(stream)
    for at, mask in places:
        corrupt[at] ^= mask
    return bytes(corrupt)


def mutations(stream: bytes, rng: random.Random):
    """Corrupt copies of ``stream``: named cases around the cuts and ends, then random flips."""
    first, middle, last = HEADER_SIZE + 2, HEADER_SIZE + (len(stream) - HEADER_SIZE) // 2, -2
    yield stream[:-1]  # the last frame truncated
    yield stream + b"\x00"  # data after the last frame
    yield stream[:middle] + stream[middle + 1:]  # a byte deleted in the middle
    for at in (first, HEADER_SIZE, middle, last):
        for mask in (0x01, 0x80):
            yield flipped(stream, (at, mask))
    yield flipped(stream, (first, 0x01), (last, 0x01))  # a bad packet in the first range and last
    yield flipped(stream, (middle, 0x01), (last, 0x01))
    for _ in range(12):
        yield flipped(stream, *((rng.randrange(HEADER_SIZE, len(stream)), 1 << rng.randrange(8))
                                for _ in range(rng.randint(1, 3))))


@pytest.mark.parametrize("name,k", [(name, k) for name in sorted(SCHEME_NAMES) for k in (4, 16)])
def test_cli_split_errors_match_one_process(tmp_path, monkeypatch, name, k):
    """Mutated streams past the threshold give the same error class, message and packet index."""
    monkeypatch.setattr(cli, "MIN_BLOCKS_PER_WORKER", 64)
    data = ragged_input(k, 64 * 3 * 8, k)
    stream = bytes(frame_bytes(data, k, SCHEME_NAMES[name], pad_mode=True))
    rng = random.Random(f"{name}/{k}")
    failed = 0
    for corrupt in mutations(stream, rng):
        outcomes = []
        for count in (1, 2, 3):
            cpus(monkeypatch, count)
            outcomes.append(decode_outcome(corrupt, tmp_path))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        failed += outcomes[0][0] is StreamCorruptError
    assert failed >= 10


def test_cli_split_survives_a_failed_fork_and_a_child_without_a_result(tmp_path, monkeypatch):
    """A range whose child never started or never answered is coded by the parent itself."""
    monkeypatch.setattr(cli, "MIN_BLOCKS_PER_WORKER", 64)
    cpus(monkeypatch, 3)
    data = ragged_input(16, 64 * 3 * 4, 5)
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    src.write_bytes(data)
    stream = bytes(frame_bytes(data, 16, Scheme.PROPOSED_VL, pad_mode=True))
    encode = ["encode", "--scheme", "proposed-vl", "--k", "16", "--pad", str(src), str(enc)]
    decode = ["decode", str(enc), str(out)]

    def failing_fork():
        raise OSError("no fork")

    parent = os.getpid()

    def dying(code):
        def wrapper(*args):
            if os.getpid() != parent:
                os._exit(3)
            return code(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", failing_fork)
        assert main(encode) == 0 and enc.read_bytes() == stream
        assert main(decode) == 0 and out.read_bytes() == data
    with monkeypatch.context() as patch:
        patch.setattr(cli, "frame_range", dying(frame_range))
        patch.setattr(cli, "deframe_range", dying(deframe_range))
        out.unlink()
        assert main(encode) == 0 and enc.read_bytes() == stream
        assert main(decode) == 0 and out.read_bytes() == data
        corrupt = bytearray(stream)
        corrupt[-3] ^= 0x10
        assert decode_outcome(bytes(corrupt), tmp_path)[0] is StreamCorruptError
    assert_no_child_left()


def test_cli_split_leaves_no_child_on_any_exit(tmp_path, monkeypatch, capsys):
    """Success, a corrupt range in this process or in a child, and an interrupt: no child left.

    A child's error comes back as its record: this process decodes only its
    own range, never the child's again.
    """
    monkeypatch.setattr(cli, "MIN_BLOCKS_PER_WORKER", 64)
    cpus(monkeypatch, 2)
    src, enc, bad, out = (tmp_path / n for n in ("input.bin", "stream.bpk", "bad.bpk", "out"))
    src.write_bytes(random.Random(9).randbytes(4096))  # 2,048 blocks at k = 16
    assert main(["encode", "--scheme", "knuth", "--k", "16", str(src), str(enc)]) == 0
    assert_no_child_left()
    stream = enc.read_bytes()
    parent, decoded_here = os.getpid(), []

    def recorded(data, header, first, last, offset):
        if os.getpid() == parent:
            decoded_here.append(first)
        return deframe_range(data, header, first, last, offset)

    monkeypatch.setattr(cli, "deframe_range", recorded)
    for at in (HEADER_SIZE + 2, len(stream) - 2):  # in this process's range, in the child's
        bad.write_bytes(flipped(stream, (at, 0x01)))
        decoded_here.clear()
        assert main(["decode", str(bad), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: packet ")
        assert decoded_here == [0]
        assert not out.exists()
        assert_no_child_left()

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "deframe_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["decode", str(enc), str(out)])
    assert_no_child_left()


def test_cli_decode_corrupt_stream(tmp_path):
    bad = tmp_path / "bad.bpk"
    bad.write_bytes(b"not a stream at all")
    out = tmp_path / "out.bin"
    assert main(["decode", str(bad), str(out)]) == 1


def test_cli_rejects_odd_k(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(b"ab")
    assert main(["encode", "--scheme", "knuth", "--k", "7",
                 str(src), str(tmp_path / "o")]) == 1


def test_cli_rejects_k_beyond_the_header_field(tmp_path, capsys):
    src, out = tmp_path / "input.bin", tmp_path / "o"
    src.write_bytes(bytes(8192))
    assert main(["encode", "--scheme", "knuth", "--k", "65536", str(src), str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: block length 65536")
    assert not out.exists()


def test_cli_tables(capsys):
    assert main(["tables", "--what", "table1", "--k-list", "4,8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,H0,H,H1,H2"
    assert lines[1] == "4,1.4150,0.8000,1.4387,0.5000"
    assert lines[2].startswith("8,1.8707,")

    assert main(["tables", "--what", "fig3", "--k-list", "256 1024"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["256,8,8,7", "1024,10,10,9"]

    assert main(["tables", "--what", "nlambda", "--k-list", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["k,lambda,N", "4,1,2", "4,2,4"]


@pytest.mark.parametrize("what, k_list", [
    ("table1", "4,5"), ("nlambda", "4,3"), ("fig2", "2"), ("fig3", "4,2"),
])
def test_cli_tables_writes_nothing_when_a_k_is_bad(capsys, what, k_list):
    assert main(["tables", "--what", what, "--k-list", k_list]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("k_list", ["", " , ", "4,x"])
def test_cli_tables_rejects_a_k_list_without_numbers(capsys, k_list):
    with pytest.raises(SystemExit) as exit_info:
        main(["tables", "--what", "fig3", "--k-list", k_list])
    assert exit_info.value.code == 2
    assert "bad k list" in capsys.readouterr().err


def test_cli_tables_stops_quietly_when_the_reader_leaves():
    """``tables … | head -1``: a closed pipe ends the command with no message and status 141."""
    code = "import sys; from balpack.cli import main; sys.exit(main(sys.argv[1:]))"
    src_dir = Path(balpack.__file__).resolve().parent.parent
    # about 116 KiB of CSV: more than a pipe holds, so the writer outlives the reader
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "tables", "--what", "nlambda", "--k-list", "1024"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(src_dir)},
    )
    assert proc.stdout.readline().rstrip() == b"k,lambda,N"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_cli_selfcheck(capsys):
    assert main(["selfcheck", "--k-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("FAILED", "")
    assert "NOTE" in out
    assert main(["selfcheck", "--k-max", "99"]) == 1


TABLES_K_LIST = ",".join(str(4 << i) for i in range(10))  # 4, 8, ..., 2048


@pytest.mark.parametrize("what", ["selfcheck", "table1", "nlambda", "fig2", "fig3"])
def test_cli_analytics_output_matches_the_pinned_digests(capsys, what):
    """The selfcheck and tables output, byte for byte, as pinned in the benchmark's digests."""
    digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                         .read_text())
    if what == "selfcheck":
        argv, want = ["selfcheck", "--k-max", "14"], digests["selfcheck"]
    else:
        argv, want = ["tables", "--what", what, "--k-list", TABLES_K_LIST], digests["tables"][what]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.mark.parametrize("argv, problem", [
    (["frobnicate", "IN", "OUT"], "invalid command 'frobnicate'"),
    ([], "a command is required"),
    (["encode", "--scheme", "knuth", "--k", "16", "--bogus", "IN", "OUT"],
     "unrecognized arguments: --bogus"),
    (["encode", "--sch", "knuth", "--k", "16", "IN", "OUT"], "unrecognized arguments: --sch"),
    (["encode", "-x", "--scheme", "knuth", "--k", "16", "IN", "OUT"], "unrecognized arguments: -x"),
    (["encode", "--scheme", "knuth", "--k", "16", "--pad=yes", "IN", "OUT"],
     "unrecognized arguments: --pad=yes"),
    (["encode", "--k", "16", "IN", "OUT"], "the following arguments are required: --scheme"),
    (["encode", "--scheme", "knuth", "IN", "OUT"], "the following arguments are required: --k"),
    (["tables", "--k-list", "4"], "the following arguments are required: --what"),
    (["encode", "IN", "OUT", "--scheme", "knuth", "--k"], "argument --k: expected one argument"),
    (["encode", "--scheme", "--k", "16", "IN", "OUT"], "argument --scheme: expected one argument"),
    (["encode", "--scheme", "nope", "--k", "16", "IN", "OUT"],
     "argument --scheme: invalid choice: 'nope'"),
    (["tables", "--what", "nope"], "argument --what: invalid choice: 'nope'"),
    (["encode", "--scheme", "knuth", "--k", "x", "IN", "OUT"],
     "argument --k: invalid literal for int() with base 10: 'x'"),
    (["selfcheck", "--k-max", "x"], "argument --k-max: invalid literal for int()"),
    (["encode", "--scheme", "knuth", "--k", "16", "IN"],
     "the following arguments are required: outfile"),
    (["decode"], "the following arguments are required: infile, outfile"),
    (["encode", "--scheme", "knuth", "--k", "16", "IN", "OUT", "extra"],
     "unrecognized arguments: extra"),
])
def test_cli_usage_errors_exit_2_and_write_nothing(tmp_path, capsys, argv, problem):
    src, out = tmp_path / "input.bin", tmp_path / "output.bpk"
    src.write_bytes(bytes(64))
    argv = [{"IN": str(src), "OUT": str(out)}.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("usage: balpack")
    assert f"balpack: error: {problem}" in stderr
    assert not out.exists()


@pytest.mark.parametrize("spelling", [
    ["--k=64", "--scheme=proposed-full", "IN", "OUT"],
    ["IN", "OUT", "--scheme", "proposed-full", "--k", "64"],
    ["IN", "--k=64", "OUT", "--scheme=proposed-full"],
    ["--scheme", "knuth", "--k", "8", "--scheme", "proposed-full", "--k=64", "IN", "OUT"],
])
def test_cli_option_spellings_round_trip(tmp_path, spelling):
    """``--name=value``, options after the positionals, and the last repeat wins."""
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    payload = random.Random(64).randbytes(512)
    src.write_bytes(payload)
    assert main(["encode", *[{"IN": str(src), "OUT": str(enc)}.get(a, a) for a in spelling]]) == 0
    assert enc.read_bytes() == frame_bytes(payload, 64, Scheme.PROPOSED_FULL)
    assert main(["decode", str(enc), str(out)]) == 0
    assert out.read_bytes() == payload


def test_cli_main_calls_the_handler_it_finds_at_run_time(monkeypatch):
    """``main`` looks each ``_cmd_`` handler up per call: the benchmark tracer replaces them."""
    assert set(cli.build_parser()) == {"encode", "decode", "tables", "selfcheck"}
    calls = []
    for command in cli.build_parser():
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda **kw: calls.append(kw) or 0)
    for argv in (["encode", "--scheme", "knuth", "--k", "16", "in", "out"],
                 ["encode", "--pad", "--scheme", "proposed-vl", "--k", "-4", "in", "out"],
                 ["decode", "in", "out"],
                 ["tables", "--what", "fig3"], ["tables", "--what", "fig2", "--k-list", "4, 8"],
                 ["selfcheck"], ["selfcheck", "--k-max", "12"]):
        assert main(argv) == 0
    monkeypatch.setattr(sys, "argv", ["balpack", "decode", "a", "b"])
    assert main() == 0
    assert calls == [
        {"scheme": "knuth", "k": 16, "pad": False, "infile": "in", "outfile": "out"},
        {"scheme": "proposed-vl", "k": -4, "pad": True, "infile": "in", "outfile": "out"},
        {"infile": "in", "outfile": "out"},
        {"what": "fig3", "k_list": [4, 8, 16, 32, 64, 128, 256, 512, 1024]},
        {"what": "fig2", "k_list": [4, 8]},
        {"k_max": 8}, {"k_max": 12},
        {"infile": "a", "outfile": "b"},
    ]


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: balpack [-h] {encode,decode,tables,selfcheck} ..."),
    (["--help"], "usage: balpack [-h] {encode,decode,tables,selfcheck} ..."),
    (["encode", "--help"], "usage: balpack encode [-h] --scheme {baseline-fl,knuth,proposed-fl,"
                           "proposed-full,proposed-vl} --k K [--pad] infile outfile"),
    (["decode", "IN", "-h"], "usage: balpack decode [-h] infile outfile"),
    (["tables", "-h"], "usage: balpack tables [-h] --what {table1,nlambda,fig2,fig3} "
                       "[--k-list K_LIST]"),
    (["selfcheck", "--help"], "usage: balpack selfcheck [-h] [--k-max K_MAX]"),
])
def test_cli_help_prints_usage_to_stdout_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.splitlines()[0] == usage and stderr == ""


def test_cli_import_loads_only_the_codec_path():
    """Encode and decode load no argparse, analytics, oracles, self-check harness or mpmath.

    ``balpack.knuth`` holds no code; the Knuth codec is the kernel's ``Scheme.KNUTH``.
    """
    unwanted = ["argparse", "gettext", "dataclasses", "inspect", "fractions", "decimal", "csv",
                "mpmath", "balpack.counting", "balpack.redundancy", "balpack.invariants",
                "balpack.knuth", "balpack.words",
                "typing", "__future__", "re", "struct", "math", "contextlib"]
    code = f"import sys, balpack.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    src_dir = Path(balpack.__file__).resolve().parent.parent
    result = subprocess.run(  # -S: no site module, whose .pth files may load these first
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src_dir)},
    )
    assert result.stdout.strip() == "[]"


def test_analytics_import_loads_no_csv_re_or_typing():
    """The analytics write CSV lines themselves and build their records as tuples."""
    unwanted = ["csv", "re", "typing", "mpmath", "dataclasses", "fractions", "__future__"]
    code = (f"import sys, balpack.redundancy, balpack.invariants; "
            f"print([m for m in {unwanted!r} if m in sys.modules])")
    src_dir = Path(balpack.__file__).resolve().parent.parent
    result = subprocess.run(  # -S: no site module, whose .pth files may load these first
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src_dir)},
    )
    assert result.stdout.strip() == "[]"


def test_analytics_run_without_mpmath():
    """mpmath is only the optional cosine extra: tables and selfcheck run with it blocked."""
    code = ("import sys; sys.modules['mpmath'] = None; from balpack.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    src_dir = Path(balpack.__file__).resolve().parent.parent
    for argv, first, last in (
        (["tables", "--what", "table1", "--k-list", "4,8,16"], "k,H0,H,H1,H2", "16,"),
        (["selfcheck", "--k-max", "6"], "PASS  k=4: balanced words balance to balanced words",
         "OK: "),
    ):
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True,
            env={"PYTHONPATH": str(src_dir)},
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == first and lines[-1].startswith(last), result.stdout


def test_cli_import_builds_no_walk_table():
    """The one byte table is built by the first walk, so it stays out of set-up time.

    Every scheme reads its blocks off the span table: in a fresh process the
    first ranked block builds it, and so does the first Knuth block.
    """
    code = (
        "import sys, balpack.cli; subsets = sys.modules['balpack.subsets']\n"
        "print(subsets._BYTE_SPAN is not None, 'balpack.words' in sys.modules)\n"
        "k = 66; y = int('01' * (k // 2), 2)  # one member, inverting the first bit\n"
        "codec = subsets.BlockCodec(k, subsets.Scheme[sys.argv[1]])\n"
        "x = y ^ 1 << k - 1; assert codec.decode(*codec.encode(x)) == x\n"
        "print(subsets._BYTE_SPAN is not None, 'balpack.words' in sys.modules)\n"
    )
    src_dir = Path(balpack.__file__).resolve().parent.parent
    for scheme in ("BASELINE_FL", "KNUTH"):
        result = subprocess.run(
            [sys.executable, "-c", code, scheme], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src_dir)},
        )
        assert result.stdout.split() == ["False", "False", "True", "False"], scheme


def test_codec_path_never_imports_the_oracles():
    """Ranked round trips at k = 1024 and 65534 never load ``balpack.words``.

    ``test_cli_import_loads_only_the_codec_path`` checks the import alone;
    this also catches an oracle imported lazily by the codec on first use.
    """
    code = (
        "import random, sys, balpack.cli\n"
        "from balpack.stream import deframe_bytes, frame_bytes\n"
        "from balpack.subsets import Scheme\n"
        "for k in (1024, 65534):  # 65534: the largest even k the header holds\n"
        "    bits = '01' * (k // 2) + '1' * k + '0' * k\n"
        "    bits += format(random.Random(k).getrandbits(2 * k), f'0{2 * k}b')\n"
        "    fill = -len(bits) % 8\n"
        "    data = int(bits + '0' * fill, 2).to_bytes((len(bits) + fill) // 8, 'big')\n"
        "    for scheme in (s for s in Scheme if s is not Scheme.KNUTH):\n"
        "        stream = frame_bytes(data, k, scheme, bit_count=len(bits))\n"
        "        assert deframe_bytes(stream) == (data, len(bits)), (k, scheme)\n"
        "print('balpack.words' in sys.modules)\n"
    )
    src_dir = Path(balpack.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(src_dir)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


@pytest.mark.parametrize("k, size", [(1024, 1 << 10), (16, 8 << 10)])
@pytest.mark.parametrize("name", sorted(SCHEME_NAMES))
def test_cold_cli_call_runs_no_collector_pass(tmp_path, name, k, size):
    """A fresh ``balpack encode`` / ``decode`` makes no pass of the cyclic garbage collector.

    Without the pause, import and the byte table leave enough tracked objects
    that the first call of every process runs at least one pass.
    """
    code = (
        "import gc, sys\n"
        "from balpack.cli import main\n"
        "passes = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and passes.append(info))\n"
        "status = main(sys.argv[1:])\n"
        "print(status, len(passes), gc.isenabled())\n"
    )
    src, enc, out = tmp_path / "input.bin", tmp_path / "stream.bpk", tmp_path / "output.bin"
    src.write_bytes(random.Random(size + k).randbytes(size))
    src_dir = Path(balpack.__file__).resolve().parent.parent
    for argv in (["encode", "--scheme", name, "--k", str(k), str(src), str(enc)],
                 ["decode", str(enc), str(out)]):
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True,
            env={"PYTHONPATH": str(src_dir)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "0", "True"], argv[0]
    assert out.read_bytes() == src.read_bytes()


def test_cli_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch):
    """Every way out of ``main`` restores the collector's setting; the library never sets it."""
    src, enc, out, bad = (tmp_path / name for name in ("in", "stream.bpk", "out", "bad.bpk"))
    src.write_bytes(random.Random(7).randbytes(512))
    bad.write_bytes(b"not a stream at all")
    encode = ["encode", "--scheme", "proposed-fl", "--k", "64", str(src), str(enc)]
    during = []

    def interrupted(**keywords):
        during.append(gc.isenabled())
        raise KeyboardInterrupt

    assert gc.isenabled()
    try:
        for setting in (True, False):
            (gc.enable if setting else gc.disable)()
            assert main(encode) == 0 and gc.isenabled() is setting
            assert main(["decode", str(enc), str(out)]) == 0 and gc.isenabled() is setting
            assert main(["decode", str(bad), str(out)]) == 1 and gc.isenabled() is setting
            stream = frame_bytes(src.read_bytes(), 64, Scheme.PROPOSED_FL)
            assert deframe_bytes(stream)[0] == src.read_bytes() and gc.isenabled() is setting
            for argv, code in ((["encode", "--k", "x"], 2), (["--help"], 0),
                               (["decode", "--help"], 0)):
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                assert exit_info.value.code == code and gc.isenabled() is setting
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_cmd_selfcheck", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    main(["selfcheck"])
            assert gc.isenabled() is setting
    finally:
        gc.enable()
    assert during == [False, False]
    assert out.read_bytes() == src.read_bytes()


def test_no_command_leaves_reference_cycles(tmp_path):
    """With the collector off, every command frees all it made by reference counting alone.

    This is what makes the pause in ``cli.main`` safe: memory stays bounded
    per block.  ``gc.DEBUG_SAVEALL`` keeps whatever a pass would have freed.
    """
    code = (
        "import gc, random, sys\n"
        "from pathlib import Path\n"
        "from balpack.cli import SCHEME_NAMES, main\n"
        "from balpack.stream import deframe_bytes, frame_bytes\n"
        "gc.disable(); gc.collect(); gc.set_debug(gc.DEBUG_SAVEALL)\n"
        "tmp = Path(sys.argv[1]); src, enc, out = tmp / 'in', tmp / 'stream.bpk', tmp / 'out'\n"
        "for k in (4, 6, 16, 18, 64, 1002, 1024):\n"
        "    data = random.Random(k).randbytes(517)\n"
        "    src.write_bytes(data)\n"
        "    for name, scheme in SCHEME_NAMES.items():\n"
        "        stream = frame_bytes(data, k, scheme, pad_mode=True)\n"
        "        assert deframe_bytes(stream) == (data, 8 * len(data)), (name, k)\n"
        "        assert main(['encode', '--pad', '--scheme', name, '--k', str(k),\n"
        "                     str(src), str(enc)]) == 0\n"
        "        assert main(['decode', str(enc), str(out)]) == 0\n"
        "        assert out.read_bytes() == data, (name, k)\n"
        "enc.write_bytes(stream[:-1])\n"
        "assert main(['decode', str(enc), str(out)]) == 1\n"
        "assert main(['tables', '--what', 'fig2']) == 0\n"
        "assert main(['selfcheck', '--k-max', '8']) == 0\n"
        "print('unreachable', gc.collect(), len(gc.garbage), file=sys.stderr)\n"
    )
    src_dir = Path(balpack.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
        env={"PYTHONPATH": str(src_dir)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "unreachable 0 0", result.stderr
