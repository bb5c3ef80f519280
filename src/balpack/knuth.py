"""The classic Knuth balancing codec, as a view of the block kernel.

Encoding inverts the first e bits of the information word, where e is the
first balancing index, and records e - 1 in a fixed prefix of ceil(log2 k)
bits.  A codeword is the ``Scheme.KNUTH`` packet of
:class:`~balpack.subsets.BlockCodec`, split into its prefix and its payload.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CorruptCodewordError, CorruptPacketError
from .subsets import Packet, Scheme, decode_packet, encode_packet
from .words import check_word


class KnuthCodeword(NamedTuple):
    """Inversion-index prefix plus balanced payload."""

    prefix: str
    payload: str

    @property
    def bits(self) -> str:
        return self.prefix + self.payload


def ka_encode(x: str) -> KnuthCodeword:
    """Balance ``x`` by first-index prefix inversion.

    The prefix stores e - 1 (zero-based, most significant bit first) so
    that e = k still fits in ceil(log2 k) bits when k is a power of two.
    """
    bits = encode_packet(x, Scheme.KNUTH).bits
    return KnuthCodeword(prefix=bits[:-len(x)], payload=bits[-len(x):])


def ka_decode(cw: KnuthCodeword) -> str:
    """Recover the information word from a codeword that :func:`ka_encode` emits."""
    packet = Packet(check_word(cw.prefix) + check_word(cw.payload))
    try:
        return decode_packet(packet, len(cw.payload), Scheme.KNUTH)
    except CorruptPacketError as exc:
        raise CorruptCodewordError(str(exc)) from exc
