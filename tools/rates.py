"""In-process encode and decode rates of every scheme on a seeded 64 KiB file.

Usage: python tools/rates.py [--runs N] [--k K[,K...]] [--against DIR]

Times :func:`balpack.stream.frame_bytes` and :func:`balpack.stream.deframe_bytes`
on the same bytes, prints the median of ``--runs`` runs in Mbit/s of input
per scheme and block length (``--k``, by default ``BLOCK_LENGTHS``: both
sides of the cut-over at k = 32 from the lane walks, which encode and
decode k = 8 to 32, to the byte walk beyond it), and exits 1 if any round
trip differs from its input.  It imports the ``balpack`` beside it, so a
second checkout's copy measures that checkout.

``--against DIR`` loads the ``balpack`` of the checkout at DIR into the same
interpreter as well.  Each round times both copies on the same bytes, the
one that goes first alternating, and the tool prints each copy's median rate,
their ratio (this checkout over DIR's) and the rounds this checkout won.
Rates taken in separate processes drift too much on a shared machine to
compare two commits; rates interleaved in one process do not.

Check the pairing before reading a ratio: ``--against`` on an identical copy
of this checkout (``--against .``, or a ``git archive`` of the same commit)
should read about 1.00 for every scheme and block length in the same session.
Until it does, a ratio below about 1.15x is not a change: a pair of identical
copies has read a steady 0.885 (Knuth encode at k = 16, this checkout faster
in 0 of 7 rounds) and 0.812 (k = 1024) on a 2-vCPU machine shared with other
load.
"""

from __future__ import annotations

import argparse
import importlib
import random
import statistics
import sys
import time
from pathlib import Path

BLOCK_LENGTHS = (8, 16, 32, 64, 256, 1024)
SEED = 64


def load(root: Path):
    """Scheme names, ``frame_bytes`` and ``deframe_bytes`` of a fresh import of root/src/balpack.

    Copies imported earlier keep working: their functions hold their own modules.
    """
    if not (root / "src" / "balpack" / "__init__.py").is_file():
        raise SystemExit(f"no balpack under {root / 'src'}")
    for name in [name for name in sys.modules if name.partition(".")[0] == "balpack"]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        cli = importlib.import_module("balpack.cli")
        stream = importlib.import_module("balpack.stream")
    finally:
        sys.path.remove(str(root / "src"))
    return cli.SCHEME_NAMES, stream.frame_bytes, stream.deframe_bytes


def time_round_trip(copy, name: str, k: int, data: bytes) -> tuple[float, float] | None:
    """Encode and decode seconds of one round trip, or None if it changed the input."""
    schemes, frame_bytes, deframe_bytes = copy
    start = time.perf_counter()
    stream = frame_bytes(data, k, schemes[name], pad_mode=True)
    mid = time.perf_counter()
    out, n = deframe_bytes(stream)
    end = time.perf_counter()
    if (bytes(out), n) != (data, 8 * len(data)):
        return None
    return mid - start, end - mid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="timed runs per rate (median)")
    parser.add_argument("--k", default=",".join(map(str, BLOCK_LENGTHS)),
                        help="comma-separated block lengths")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second checkout to time in the same rounds")
    args = parser.parse_args(argv)
    copies = [load(Path(__file__).resolve().parent.parent)]
    if args.against:
        copies.append(load(args.against.resolve()))
    data = random.Random(SEED).randbytes(64 * 1024)
    mbit = 8 * len(data) / 1e6
    print("scheme k encode_mbps decode_mbps" if len(copies) == 1 else
          "scheme k encode_mbps against ratio wins decode_mbps against ratio wins")
    for k in map(int, args.k.split(",")):
        for name in copies[0][0]:
            times = [[] for _ in copies]  # per copy, per run: (encode s, decode s)
            for run in range(args.runs):
                for side in range(len(copies))[:: 1 if run % 2 == 0 else -1]:
                    timing = time_round_trip(copies[side], name, k, data)
                    if timing is None:
                        print(f"{name} at k = {k}: the round trip changed the input",
                              file=sys.stderr)
                        return 1
                    times[side].append(timing)
            columns = []
            for step in (0, 1):  # encode, decode
                rates = [mbit / statistics.median(t[step] for t in runs) for runs in times]
                columns.append(f"{rates[0]:.2f}")
                if len(copies) == 2:
                    wins = sum(a[step] < b[step] for a, b in zip(*times))
                    columns.append(f"{rates[1]:.2f} {rates[0] / rates[1]:.3f} {wins}/{args.runs}")
            print(f"{name} {k} {' '.join(columns)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
