"""Span recording around the calls one balpack module makes into another.

Each span keeps its name, start, end and the index of the span that was
open when it began (its parent).  A wrapper replaces a function in the
namespace of the module that calls it, e.g. ``balpack.stream.encode_packet``
is the ``encode_packet`` that framing looks up, so only cross-module calls
are seen.  Self time is a span's duration minus the durations of its
children; spans are single-threaded and nested, so the children of one span
never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

#: span name -> the (module, attribute) pairs that are replaced by one wrapper.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.encode": (("balpack.cli", "_cmd_encode"),),
    "cli.decode": (("balpack.cli", "_cmd_decode"),),
    "cli.tables": (("balpack.cli", "_cmd_tables"),),
    "cli.selfcheck": (("balpack.cli", "_cmd_selfcheck"),),
    "stream.frame": (("balpack.cli", "frame_stream"),),
    "stream.deframe": (("balpack.cli", "deframe_stream"),),
    "subsets.encode_packet": (
        ("balpack.stream", "encode_packet"),
        ("balpack.fourb6b", "encode_packet"),
    ),
    "subsets.decode_packet": (
        ("balpack.stream", "decode_packet"),
        ("balpack.fourb6b", "decode_packet"),
    ),
    "knuth.ka_encode": (("balpack.subsets", "ka_encode"),),
    "fourb6b.full_encode": (("balpack.fourb6b", "full_encode"),),
    "fourb6b.full_decode": (("balpack.fourb6b", "full_decode"),),
    "words.first_balancing_index": (
        ("balpack.subsets", "first_balancing_index"),
        ("balpack.knuth", "first_balancing_index"),
        ("balpack.stream", "first_balancing_index"),
    ),
    "redundancy.emit_tables": (("balpack.cli", "emit_tables"),),
    "counting.subset_size_count": (
        ("balpack.redundancy", "subset_size_count"),
        ("balpack.counting", "subset_size_count"),
    ),
    "counting.trace_closed_walks": (("balpack.counting", "trace_closed_walks"),),
    "counting.count_table": (("balpack.stream", "count_table"),),
    "counting.subset_size_count_bruteforce": (
        ("balpack.stream", "subset_size_count_bruteforce"),
        ("balpack.counting", "subset_size_count_bruteforce"),
    ),
    "subsets.subset_members": (
        ("balpack.stream", "subset_members"),
        ("balpack.counting", "subset_members"),
    ),
}

#: spans whose distinct argument tuples are counted, to show repeated work.
ARG_SPANS = frozenset({"counting.trace_closed_walks"})


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.args: dict[str, set] = {name: set() for name in ARG_SPANS}
        self._open = [-1]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so every call records one span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        seen = self.args.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._open[-1])
            self.end.append(0)
            self._open.append(index)
            if seen is not None:
                seen.add(args + tuple(sorted(kwargs.items())))
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                self._open.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every function in :data:`SPANS`; return the names not found."""
        missing = []
        for name, sites in SPANS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                else:
                    setattr(module, attr, self.wrap(name, fn))
        return missing

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, distinct argument tuples."""
        child_ns = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, name_id in enumerate(self.name_of):
            duration = self.end[i] - self.start[i]
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += duration * 1e-9
            entry["self_s"] += (duration - child_ns[i]) * 1e-9
        for name, seen in self.args.items():
            if name in out:
                out[name]["distinct_args"] = len(seen)
        return out
