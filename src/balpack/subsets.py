"""Compressed-subset prefix-ranking codec for packet channels.

Every information word x is tied to the balanced word y it Knuth-balances
to.  The words tied to a given y form its subset; ranking x inside that
subset needs a shorter prefix than Knuth's inversion index.  On a packet
channel (explicit end-of-packet), already balanced words travel with no
prefix at all and the balanced member can be dropped from every subset,
which caps the subset size at k/2 instead of k/2 + 1.

With d_1..d_k the running sums of x and e the first j with d_j = d_k / 2,
y = invert_prefix(x, e).  invert_prefix(y, j) is a member of y's subset
exactly when j is a first visit of y's sums (the first index at its level):
new maxima and minima give the unbalanced members, the first return to zero
the balanced one, so lambda is the span of y's sums.  Of two members, the
one with the smaller j sorts first exactly when y's bit j + 1 is 0, so the
compressed listing is the first visits followed by a 0, ascending, then
those followed by a 1, descending.  The rank is e's position in y's
listing; the balanced member ranks lambda, last.  Encode
walks x once (:func:`_encode_rank`): up to e, y's first visits are x's, so
it counts e's rank there and reads lambda off the sums after e.  Decode
walks y once (:func:`_decode_rank`): rank r names the r-th first visit
followed by a 0, which ends the walk, or, past those, the (lambda - 1 - r)-th
followed by a 1.  Neither lists the subset, and no walk keeps a cache;
their specification, the per-bit :func:`balpack.words.member_order` and the
explicit O(k^2) listings, lives in :mod:`balpack.words`, off the codec path.

Each walk goes a byte at a time.  A first visit is a record of its byte:
its running sum, counted from the byte's start, goes above or below every
earlier one.  One lazily built 256-entry table gives each byte value its
net sum, its highest and lowest running sums, and those records, so a byte
whose sums stay within the levels already reached costs one addition, and
any other byte is read off its records, not bit by bit.  The same table
serves the one level search, :func:`level_index`: Knuth's first balancing
index, and the first return to 0 of a balanced block.

For k a multiple of 8 from 8 to 32, a chunk of blocks is coded at once by
lane walks: :func:`encode_lanes` and its inverse :func:`decode_lanes`.
Each block is a lane of integers with one byte per block, its bytes spread
over k / 8 such planes, and k steps of whole-integer arithmetic read bit j
of every block at once.  The encoder works out every scheme's prefix for
the whole chunk.  The decoder walks y twice, once for lambda and the
records and once to count them up to the one the rank names; Knuth's
inversion length is the rank plus one, and one walk checks that it is x's
first balancing index.  The decoder passes use the encoder's record
arithmetic.  Byte-wide lanes make a step cost one byte of arithmetic per
block at any k, so a walk grows as k per block, as the byte walk does
(k / 8 bytes); lanes k bits wide would grow as k^2.  A 64 KiB stream
encodes 5-10x faster than on the byte walk at k = 16 and 4-8x at k = 32,
and decodes 6-9x and 6-7x faster.  The walks stop at k = 32, past which
the 4B6B prefix of PROPOSED_FULL outgrows the one prefix byte of the frame
layout; the lanes would hold the sums up to 84.  :mod:`balpack.stream`
picks the walks by k alone, :class:`BlockCodec` codes every other k, and
the tests hold the lanes to it.  The decoder makes, in the same lanes,
every check of :meth:`BlockCodec.decode`, which specifies them, and names
the lanes that fail; the tests compare the two on every frame at k = 8 and
on every payload and prefix at k = 16.

Schemes
-------
KNUTH         inversion-index prefix, ceil(log2 k) bits
BASELINE_FL   rank in the uncompressed subset, ceil(log2 (k/2+1)) bits
PROPOSED_FL   rank in the compressed subset, ceil(log2 (k/2)) bits
PROPOSED_VL   rank in max(1, ceil(log2 lambda)) bits, lambda = subset size
PROPOSED_FULL PROPOSED_FL with the prefix re-encoded into balanced sextets

One kernel, :class:`BlockCodec`, serves all five; full balancing is its
single extra step, :func:`balpack.fourb6b.balance_rank` on the rank.
It takes and returns blocks as integers, first bit most significant, and
formats none.  It works out the scheme's widths and its smallest k once,
from the largest listing the scheme ranks into, and checks no block:
streams are checked once per stream, and the checking bit-string adapters
:func:`balpack.words.encode_packet` / :func:`balpack.words.decode_packet`
live off the codec path.
"""

import enum

from .errors import CorruptPacketError
from .fourb6b import balance_rank, unbalance_rank


class Scheme(enum.Enum):
    KNUTH = 0
    BASELINE_FL = 1
    PROPOSED_FL = 2
    PROPOSED_VL = 3
    PROPOSED_FULL = 4


#: Per byte value: its net bipolar sum, the highest and lowest of its running
#: sums (the empty prefix's 0 included), and its records, (bit, sum) for each
#: bit 1..8 at which its running sum goes above or below every earlier one.
#: Built on first use.
_BYTE_SPAN: list[tuple[int, int, int, tuple[tuple[int, int], ...]]] | None = None


def _build_byte_span() -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    global _BYTE_SPAN
    spans = [(0, 0, 0, ())]  # the empty prefix
    for j in range(1, 9):  # extend every j - 1 bit prefix by a 0, then by a 1
        grown = []
        for net, high, low, records in spans:
            down, up = net - 1, net + 1  # past the lowest or highest sum so far: a record
            grown.append((down, high, down, (*records, (j, down))) if net == low
                         else (down, high, low, records))
            grown.append((up, up, low, (*records, (j, up))) if net == high
                         else (up, high, low, records))
        spans = grown
    _BYTE_SPAN = spans
    return spans


def level_index(v: int, k: int, level: int) -> int:
    """Smallest j >= 1 with d_j = ``level`` in the ``k``-bit word of value ``v``.

    Raises ``ValueError`` if no j <= k exists.  A level first reached in a
    byte is reached at one of its records, and a byte is read only when the
    level lies within its sums; a first reach in the zero fill of a partial
    last byte is no index.  With bit 1 flipped every later sum moves by
    2 - 4 * bit 1, so the first return to 0 is the first reach of that level.
    """
    if not level:
        v, level = v ^ 1 << k - 1, 2 - 4 * (v >> k - 1)
    spans = _BYTE_SPAN or _build_byte_span()
    done = 0
    for b in (v << -k % 8).to_bytes((k + 7) // 8, "big"):
        net, high, low, records = spans[b]
        if low <= level <= high:
            for i, d in records:
                if d == level:
                    break
            if done + i > k:
                break
            return done + i
        level -= net
        done += 8
    raise ValueError(f"the running sums of the {k}-bit word never reach the level")


def _encode_rank(v: int, k: int, t: int, need_lam: bool) -> tuple[int, int, int | None]:
    """First balancing index e of the ``k``-bit block ``v`` (t != 0), e's rank, and lambda.

    One walk over v lists nothing: before e, v's first visits are y's, with the
    inverse next bit.  With c those that v follows by a 1, e ranks c in y's
    listing if v's bit e + 1 is 0, else c + lambda - (hi - lo), v's span up to
    e.  Lambda (y's sums after e: v's less 2t) is None unless needed.
    """
    spans = _BYTE_SPAN or _build_byte_span()
    # past bit k, y's sums go 0, ±1, 0, ... (±1 as y's first bit); e < k, so a record
    # up to e has its next bit in the data
    pad = -k % 8
    data = (v << pad | 0xAA >> (v >> k - 1) + 8 - pad).to_bytes((k + 7) // 8, "big")
    run = hi = lo = c = 0
    for n, b in enumerate(data):
        net, high, low, records = spans[b]
        if run + high > hi or run + low < lo:  # the byte reaches a new level
            for i, d in records:
                level = run + d
                if level > hi:
                    hi = level
                elif level < lo:
                    lo = level
                else:
                    continue
                if level == t:
                    break
                c += (b >> 7 - i if i < 8 else data[n + 1] >> 7) & 1  # v's bit 8n + i + 1
            if lo <= t <= hi:  # t lies beyond every level until e reaches it
                break
        run += net
    e, up = 8 * n + i, (b >> 7 - i if i < 8 else data[n + 1] >> 7) & 1  # up: v's bit e + 1
    if not (up or need_lam):
        return e, c, None
    rest = b << i & 0xFF  # v's sums after e: its high with a 0 fill, its low with 1s
    top, bot = t + spans[rest][1], t + spans[rest | (1 << i) - 1][2]
    for b in data[n + 1 :]:
        run += net
        net, high, low, _ = spans[b]
        if run + high > top:
            top = run + high
        if run + low < bot:
            bot = run + low
    top, bot = top - 2 * t, bot - 2 * t  # y's sums after e
    lam = (top if top > -lo else -lo) - (bot if bot < -hi else -hi)
    return e, c + lam - (hi - lo) if up else c, lam


def _decode_rank(y: int, k: int, rank: int, need_lam: bool) -> tuple[int | None, int | None]:
    """Inversion length e of member ``rank`` of the balanced ``k``-bit block ``y``, and lambda.

    One walk over y, the decode twin of :func:`_encode_rank`: e is the rank-th
    first visit that y follows by a 0, found with no lambda and no list, or, once
    the walk ends, the (lambda - 1 - rank)-th one that y follows by a 1.  Lambda
    is None if the walk stopped early and it is not needed; e is None if rank >= lambda.
    """
    spans = _BYTE_SPAN or _build_byte_span()
    # past bit k, y's sums go ±1, 0, ... (±1 as y's first bit): no new level, and no
    # record at bit k, so a record's next bit is never past the last byte
    pad = -k % 8
    data = (y << pad | 0x55 << (y >> k - 1) >> 8 - pad).to_bytes((k + 7) // 8, "big")
    run = hi = lo = z = 0
    ones = []
    for n, b in enumerate(data):
        net, high, low, records = spans[b]
        if run + high > hi or run + low < lo:  # the byte reaches a new level
            for i, d in records:
                level = run + d
                if level > hi:
                    hi = level
                elif level < lo:
                    lo = level
                else:
                    continue
                if (b >> 7 - i if i < 8 else data[n + 1] >> 7) & 1:  # y's bit 8n + i + 1
                    ones.append(8 * n + i)
                elif z < rank:
                    z += 1
                elif not need_lam:
                    return 8 * n + i, None
                else:  # the rest of e's byte: its high with a 0 fill, its low with 1s
                    rest = b << i & 0xFF
                    if level + spans[rest][1] > hi:
                        hi = level + spans[rest][1]
                    if level + spans[rest | (1 << i) - 1][2] < lo:
                        lo = level + spans[rest | (1 << i) - 1][2]
                    for b in data[n + 1 :]:
                        run += net
                        net, high, low, _ = spans[b]
                        if run + high > hi:
                            hi = run + high
                        if run + low < lo:
                            lo = run + low
                    return 8 * n + i, hi - lo
        run += net
    lam = hi - lo
    return ones[lam - 1 - rank] if rank < lam else None, lam


def encode_lanes(data: bytes, n: int, codec: "BlockCodec") -> tuple[list[bytes], bytes, bytes]:
    """Payloads, prefixes and prefix bit counts of the ``n`` k-bit blocks in ``data``.

    k is a multiple of 8 up to 32.  Byte i of every block goes to plane i,
    an integer with one byte per block, and every value the walk keeps is
    such an integer: each block is a lane one byte wide.  The payloads come
    back as their k / 8 planes, the prefixes and their bit counts as one
    byte per block.  Step j reads bit j of every block at once.  Lane values
    stay within 1..255, so no sum borrows or carries across lanes, and a
    lane holds 0x80 exactly when ``v & ~(v - 1)`` has its top bit.  The walk
    keeps, per lane: x's running sum less d_k / 2, offset by 0x80, and
    whether it has reached 0 yet (e); y's distances below its highest and
    above its lowest sum, offset by 0x7F, where a step up at the highest or
    down at the lowest is a record (y's bits are x's up to e, inverted);
    the records up to e, and those before e that a 1 follows (c).  Then
    lambda is the distances' sum at the end, and e's rank is c, plus the
    records after e if x's bit e + 1 is 1.
    """
    k, width, ranked = codec.k, codec.k // 8, not codec.knuth
    ones = int.from_bytes(b"\1" * n, "big")
    planes = [data[i::width] for i in range(width)]
    counts = bytes(map(int.bit_count, range(256)))
    run = (0x80 + k // 2) * ones - sum(int.from_bytes(p.translate(counts), "big") for p in planes)
    x = [int.from_bytes(p, "big") for p in planes]

    def payloads(inv: list[int]) -> list[bytes]:  # x's planes with the inverted bits
        return [(p ^ i).to_bytes(n, "big") for p, i in zip(x, inv)]

    bal = (run & ~(run - ones)) >> 7 & ones if ranked else 0  # balanced blocks: d_k = 0
    inv = [0] * width  # the first e bits of every block
    before, met, prefix, up = ones, 0, 0, 0  # before: e not yet met
    below = above = 0x7F * ones if ranked else 0  # y's distances
    reach = tally = after = 0  # records up to e, c, and the last record if before e
    for j in range(k):
        xj = x[j >> 3] >> (7 - j & 7) & ones  # bit j + 1 of every block
        if ranked:
            up |= xj & met  # met a step ago: x's bit e + 1
            yj = xj ^ before
            nj = yj ^ ones
            rise = yj & below >> 7  # steps up below the highest sum, down above the lowest
            fall = nj & above >> 7
            below = below + nj - rise
            above = above + yj - fall
            record = ones ^ (rise | fall)
            tally += after & xj
            reach += record & before
        inv[j >> 3] |= before << (7 - j & 7)
        run += xj + xj - ones
        met = before & (run & ~(run - ones)) >> 7
        before ^= met
        if ranked:
            after = record & before
        else:
            prefix += before  # e - 1 once the walk is done
    fixed = bytes((codec.max_prefix,)) * n
    if not ranked:
        return payloads(inv), prefix.to_bytes(n, "big"), fixed
    balanced = bal * 0xFF
    lam = below + above - 0xFE * ones
    rank = tally + (lam - reach & up * 0xFF)
    if not codec.prefix_less:  # a balanced x ranks lambda, last
        return payloads(inv), (rank ^ (rank ^ lam) & balanced).to_bytes(n, "big"), fixed
    table = bytearray(256)  # a balanced block has no prefix: its prefix byte is no rank
    if codec.vl:
        table[1 : k // 2 + 1] = map(_vl_prefix, range(1, k // 2 + 1))
        lengths = (lam & ~balanced).to_bytes(n, "big").translate(table)
    else:
        lengths = bal.to_bytes(n, "big").translate(b"%c\0" % codec.max_prefix + bytes(254))
    prefixes = rank.to_bytes(n, "big")
    if codec.full:
        ranks = range(1 << codec.rank_bits)
        table[: len(ranks)] = (balance_rank(r, codec.rank_bits) for r in ranks)
        prefixes = prefixes.translate(table)
    return payloads([i & ~balanced for i in inv]), prefixes, lengths  # balanced x goes as it is


def decode_lanes(planes: list[bytes], prefixes: bytes, lengths: bytes,
                 codec: "BlockCodec") -> tuple[bytearray, int]:
    """The blocks, k / 8 bytes each, of these lanes, and the lanes that no block codes to.

    The inverse of :func:`encode_lanes` in the same byte lanes: ``planes`` are
    y's k / 8 payload planes, ``prefixes`` each block's prefix and ``lengths``
    its prefix bit count, one byte per block.  The second value has a nonzero
    byte in each lane whose packet :meth:`BlockCodec.decode` rejects, and that
    lane's block is garbage; the checks are the kernel's, which specify them.
    y must be balanced, one sum of popcount planes against k / 2.  The length
    must be one the scheme makes, VL's that of lambda.  A 4B6B prefix must be
    a codeword with a zero fill; any other sextet is a rank past every
    subset.  The rank must name a member: below lambda, or up to lambda for
    BASELINE_FL, whose rank lambda is the first return to 0.

    Knuth inverts rank + 1 bits, e, which must be x's first balancing index:
    y's sum at e lies above its sums at 1..e - 1 if y's bit e is a 1, else
    below them.  With y's first e - 1 bits kept, inverted in the second case,
    and the rest zero, that is a walk whose highest sum is its one at e - 1.
    A prefix-less block is y.  Otherwise the first pass walks y as the
    encoder does, for lambda and Z, the records that a 0 follows; rank r < Z
    names the r-th of those, else the (lambda - 1 - r)-th record that a 1
    follows.  The second pass counts the chosen records down from 0x80 plus
    that index: e is the number of steps that start with the count at 0x80
    or more, as a record at bit j is known chosen only at bit j + 1.
    """
    k, n, width = codec.k, len(prefixes), codec.k // 8
    ones = int.from_bytes(b"\1" * n, "big")
    y = [int.from_bytes(plane, "big") for plane in planes]
    counts = bytes(map(int.bit_count, range(256)))
    made = bytearray(b"\1") * 256  # 0 at each prefix length the scheme makes
    made[codec.max_prefix] = 0
    if codec.prefix_less:
        made[0] = 0
    if codec.vl:
        made[: codec.max_prefix] = bytes(codec.max_prefix)
    weight = sum(int.from_bytes(plane.translate(counts), "big") for plane in planes)
    rejected = weight ^ codec.half * ones | int.from_bytes(lengths.translate(made), "big")
    ramp = bytes(0xFF00 >> i & 0xFF for i in range(8))  # per plane, by e: its byte of e leading 1s
    firsts = [(bytes(8 * i) + ramp + b"\xff" * 256)[:256] for i in range(width)]
    if codec.knuth:
        e = prefixes.translate(bytes(range(1, 256)) + b"\0")
        inverted = [int.from_bytes(e.translate(first), "big") for first in firsts]
        walk = [int.from_bytes(prefixes.translate(first), "big") for first in firsts]  # e - 1 bits
        bit_e = sum(p & (i ^ b) for p, i, b in zip(y, inverted, walk))
        down = int.from_bytes(bit_e.to_bytes(n, "big").translate(b"\xff" + bytes(255)), "big")
        for i, p in enumerate(y):
            walk[i] &= p ^ down
        del bit_e, down
        below = 0x7F * ones  # the distance below the walk's highest sum from bit 1 on, plus 0x7F
        for j in range(1, k):
            wj = walk[j >> 3] >> (7 - j & 7) & ones
            below += (wj ^ ones) - (wj & below >> 7)
        # the distance at e - 1 is 0 exactly when it ends at 0x7F + k - rank (0x7E + k for e = 1,
        # as bit 1 is then zero fill); a rank of k or more maps to 0, where no walk ends
        end = bytes((0x7E + k,)) + bytes(range(0x7E + k, 0x7F, -1)) + bytes(256 - k)
        rejected |= below ^ int.from_bytes(prefixes.translate(end), "big")
    else:
        if codec.full:  # each sextet back to its rank; a non-codeword or nonzero fill past them all
            table = bytearray(b"\x3f") * 256
            for r in range(1 << codec.rank_bits):
                table[balance_rank(r, codec.rank_bits)] = r
            prefixes = prefixes.translate(table)
        rank = int.from_bytes(prefixes, "big")  # below 0x40: no lane borrows
        records = [0] * width  # planes: is y's bit j a record, in bit j + 1's place
        below = above = 0x7F * ones
        record = 0
        for j in range(k):
            records[j >> 3] |= record << (7 - j & 7)
            yj = y[j >> 3] >> (7 - j & 7) & ones
            nj = yj ^ ones
            rise = yj & below >> 7
            fall = nj & above >> 7
            below = below + nj - rise
            above = above + yj - fall
            record = ones ^ (rise | fall)
        lam = below + above - 0xFE * ones
        plain = int.from_bytes(lengths.translate(b"\xff" + bytes(255)), "big")
        count = 0x7F * ones + lam - rank  # 0x80 plus lambda - 1 - rank
        inside = count if codec.prefix_less else count + ones  # bit 7: a member's rank
        rejected |= ~inside & 0x80 * ones & ~plain
        if codec.vl:
            table = bytearray(256)
            table[1 : k // 2 + 1] = map(_vl_prefix, range(1, k // 2 + 1))
            rejected |= (int.from_bytes(lam.to_bytes(n, "big").translate(table), "big")
                         ^ int.from_bytes(lengths, "big")) & ~plain
        z = sum(int.from_bytes((r & ~p).to_bytes(n, "big").translate(counts), "big")
                for r, p in zip(records, y))
        zeros = z + 0x7F * ones - rank >> 7 & ones  # rank < Z: count records a 0 follows
        count ^= (count ^ 0x80 * ones ^ rank) & zeros * 0xFF  # 0x80 plus rank
        chosen = [r & (p ^ zeros * 0xFF) for r, p in zip(records, y)]  # records of that kind
        e = 0
        for j in range(k):
            count -= chosen[j >> 3] >> (7 - j & 7) & ones
            e += count >> 7 & ones
        if not codec.prefix_less:  # rank lambda: e is the first return to 0
            back = (inside & ~(inside - ones)) >> 7 & ones  # rank = lambda
            run, away, ret = 0x80 * ones, ones, 0
            for j in range(k):
                ret += away
                yj = y[j >> 3] >> (7 - j & 7) & ones
                run += yj + yj - ones
                away ^= away & (run & ~(run - ones)) >> 7
            e ^= (e ^ ret) & back * 0xFF
        e = (e & ~plain).to_bytes(n, "big")  # a prefix-less block is y
        inverted = [int.from_bytes(e.translate(first), "big") for first in firsts]
    blocks = bytearray(n * width)
    for i, (plane, inv) in enumerate(zip(y, inverted)):
        blocks[i::width] = (plane ^ inv).to_bytes(n, "big")
    return blocks, rejected


def ceil_log2(n: int) -> int:
    """Smallest r with 2**r >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def prefix_length(k: int, scheme: Scheme, lam: int | None = None) -> int:
    """Prefix bit count for a scheme at block length ``k``: the codec's ``max_prefix``.

    ``lam`` (the compressed-subset size) is required for PROPOSED_VL only.
    The variable-length rule keeps a 1-bit floor for unbalanced words so a
    rank prefix can never be confused with the prefix-less balanced case.
    """
    codec = BlockCodec(k, scheme)
    if (lam is None) == codec.vl:
        raise ValueError(f"the subset size is needed for PROPOSED_VL and only there, "
                         f"got {lam} for {scheme.name}")
    if lam is None:
        return codec.max_prefix
    if not 1 <= lam <= k // 2:
        raise ValueError(f"subset size {lam} outside 1..{k // 2}")
    return _vl_prefix(lam)


def _vl_prefix(lam: int) -> int:
    return (lam - 1).bit_length() or 1  # ceil_log2(lam), with prefix_length's 1-bit floor


class BlockCodec:
    """The unchecked per-block kernel of one scheme at one block length.

    Blocks and packets are integers, a packet being ``prefix << k | payload``:
    balanced means a bit count of k/2, and a prefix inversion is an XOR.
    """

    def __init__(self, k: int, scheme: Scheme) -> None:
        if k % 2 or k < 2:
            raise ValueError(f"block length must be even >= 2, got {k}")
        self.k, self.half, self.fmt = k, k // 2, f"0{k}b"
        self.mask = (1 << k) - 1
        self.knuth = scheme is Scheme.KNUTH
        self.vl = scheme is Scheme.PROPOSED_VL
        self.full = scheme is Scheme.PROPOSED_FULL
        self.prefix_less = scheme not in (Scheme.KNUTH, Scheme.BASELINE_FL)
        # the rank spans the largest listing: k indexes, k/2 members, or those and the balanced one
        listing = k if self.knuth else k // 2 if self.prefix_less else k // 2 + 1
        self.rank_bits = ceil_log2(listing)
        self.max_prefix = (_vl_prefix(k // 2) if self.vl  # VL's largest subset, longest prefix
                           else 6 * ((self.rank_bits + 3) // 4) if self.full else self.rank_bits)
        if self.prefix_less and not self.max_prefix:
            raise ValueError(f"{scheme.name} needs k >= 4 (a zero-bit rank prefix at k={k} "
                             "would collide with the prefix-less balanced case)")

    def encode(self, xi: int) -> tuple[int, int]:
        """Packet value and prefix bit count of the block of value ``xi``."""
        k = self.k
        t = xi.bit_count() - self.half
        if self.knuth:  # the rank is e - 1
            e = level_index(xi, k, t)
            return (e - 1) << k | xi ^ (((1 << e) - 1) << (k - e)), self.max_prefix
        if t:
            e, rank, lam = _encode_rank(xi, k, t, self.vl)
        elif self.prefix_less:
            return xi, 0
        else:  # BASELINE_FL lists a balanced x last, at rank lambda; rank k/2 is past every member
            e = level_index(xi, k, 0)
            rank = _decode_rank(xi ^ (((1 << e) - 1) << (k - e)), k, self.half, False)[1]
        y = xi ^ (((1 << e) - 1) << (k - e))
        if self.vl:
            return rank << k | y, _vl_prefix(lam)
        if self.full:
            rank = balance_rank(rank, self.rank_bits)
        return rank << k | y, self.max_prefix

    def decode(self, v: int, p: int) -> int:
        """Block of packet ``v`` (``p`` prefix bits); BalpackError if no block encodes to it."""
        k, half, y = self.k, self.half, v & self.mask
        nbits = max(1, p) if self.vl else self.max_prefix
        if p != nbits and not (p == 0 and self.prefix_less):
            raise CorruptPacketError(f"expected {nbits + k} bits ({nbits}-bit prefix + {k}), "
                                     f"got {p + k}")
        rank = v >> k
        if self.full and p:
            rank = unbalance_rank(rank, self.rank_bits)
        if y.bit_count() != half:
            raise CorruptPacketError(f"payload {format(y, self.fmt)!r} is not balanced")
        if not p:
            return y
        if self.knuth:  # the inversion index e = rank + 1 is any of 1..k
            e = rank + 1
            if e > k:
                raise CorruptPacketError(f"rank {rank} outside subset of size {k}")
            x = y ^ (((1 << e) - 1) << (k - e))
            # the ranked walk yields first balancing indexes only; Knuth's prefix does not
            if level_index(x, k, x.bit_count() - half) != e:
                raise CorruptPacketError(f"{e} is not the first balancing index of "
                                         f"{format(x, self.fmt)!r}")
            return x
        e, lam = _decode_rank(y, k, rank, self.vl)
        if self.vl and p != _vl_prefix(lam):
            raise CorruptPacketError(f"{p}-bit prefix inconsistent with subset size {lam}")
        if e is None:  # past the members: BASELINE_FL's balanced one, ranked last, or none
            size = lam if self.prefix_less else lam + 1
            if rank >= size:
                raise CorruptPacketError(f"rank {rank} outside subset of size {size}")
            e = level_index(y, k, 0)
        return y ^ (((1 << e) - 1) << (k - e))
