"""balpack: balanced-code codecs for packet channels.

Knuth's prefix-inversion balancing, subset prefix ranking with and without
the compressed (balanced-member-free) listings, a table-free 4B6B code for
overall balancing, exact enumeration of subset multiplicities, and the
redundancy analytics that compare the schemes.
"""

from .counting import (
    CountTable,
    connection_matrix,
    count_table,
    subset_size_count,
    subset_size_count_bruteforce,
    subset_size_count_cosine,
    trace_closed_walks,
)
from .errors import (
    BalpackError,
    CorruptCodewordError,
    CorruptPacketError,
    InputLengthError,
    InvalidSextetError,
    StreamCorruptError,
)
from .fourb6b import (
    balance_prefix,
    decode_sextet,
    encode_nibble,
    unbalance_prefix,
)
from .knuth import KnuthCodeword, ka_decode, ka_encode
from .redundancy import (
    RedundancyRow,
    comparison_rows,
    delta_lambda,
    emit_tables,
    h0_approx,
    h0_exact,
    h1_avg,
    h1_prime,
    h2_avg,
    h_avg,
    h_prime,
)
from .stream import (
    SelfCheckReport,
    StreamHeader,
    deframe_stream,
    frame_stream,
    selfcheck,
)
from .subsets import (
    Packet,
    Scheme,
    SubsetListing,
    decode_packet,
    encode_packet,
    prefix_length,
    subset_members,
    subset_size_rds,
)
from .words import (
    RdsExtrema,
    disparity,
    first_balancing_index,
    invert_prefix,
    is_balanced,
    rds_extrema,
)

__version__ = "0.1.0"

__all__ = [
    "BalpackError",
    "CorruptCodewordError",
    "CorruptPacketError",
    "CountTable",
    "InputLengthError",
    "InvalidSextetError",
    "KnuthCodeword",
    "Packet",
    "RdsExtrema",
    "RedundancyRow",
    "Scheme",
    "SelfCheckReport",
    "StreamCorruptError",
    "StreamHeader",
    "SubsetListing",
    "__version__",
    "balance_prefix",
    "comparison_rows",
    "connection_matrix",
    "count_table",
    "decode_packet",
    "decode_sextet",
    "deframe_stream",
    "delta_lambda",
    "disparity",
    "emit_tables",
    "encode_nibble",
    "encode_packet",
    "first_balancing_index",
    "frame_stream",
    "h0_approx",
    "h0_exact",
    "h1_avg",
    "h1_prime",
    "h2_avg",
    "h_avg",
    "h_prime",
    "invert_prefix",
    "is_balanced",
    "ka_decode",
    "ka_encode",
    "prefix_length",
    "rds_extrema",
    "selfcheck",
    "subset_members",
    "subset_size_count",
    "subset_size_count_bruteforce",
    "subset_size_count_cosine",
    "subset_size_rds",
    "trace_closed_walks",
    "unbalance_prefix",
]
