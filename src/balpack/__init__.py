"""balpack: balanced-code codecs for packet channels.

Knuth's prefix-inversion balancing, subset prefix ranking with and without
the compressed (balanced-member-free) listings, a table-free 4B6B code for
overall balancing, exact enumeration of subset multiplicities, and the
redundancy analytics that compare the schemes.

The names below load on first use (PEP 562), so importing one module, such
as the codec path under ``balpack encode``, loads none of the others.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "counting": (
        "CountTable", "connection_matrix", "count_table", "subset_size_count",
        "subset_size_count_bruteforce", "subset_size_count_cosine", "trace_closed_walks",
    ),
    "errors": (
        "BalpackError", "CorruptPacketError", "InputLengthError", "InvalidSextetError",
        "StreamCorruptError",
    ),
    "invariants": ("SelfCheckReport", "selfcheck"),
    "redundancy": (
        "RedundancyRow", "comparison_rows", "delta_lambda", "emit_tables", "h0_approx",
        "h0_exact", "h1_avg", "h1_prime", "h2_avg", "h_avg", "h_prime",
    ),
    "stream": ("StreamHeader", "deframe_bytes", "deframe_stream", "frame_bytes", "frame_stream"),
    "subsets": ("Scheme", "prefix_length"),
    "words": (
        "decode_packet", "disparity", "encode_nibble", "encode_packet", "first_balancing_index",
        "invert_prefix", "is_balanced", "subset_members", "subset_size_rds",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME_OF, "__version__"])


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
