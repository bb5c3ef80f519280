"""In-process encode and decode rates of every scheme on a seeded 64 KiB file.

Usage: python tools/rates.py [--runs N]

Times :func:`balpack.stream.frame_bytes` and :func:`balpack.stream.deframe_bytes`
on the same bytes, prints the median of ``--runs`` runs in Mbit/s of input
per scheme and block length, and exits 1 if any round trip differs from its
input.  It imports the ``balpack`` beside it, so a second checkout's copy
measures that checkout.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from balpack.cli import SCHEME_NAMES  # noqa: E402
from balpack.stream import deframe_bytes, frame_bytes  # noqa: E402

BLOCK_LENGTHS = (16, 64, 256, 1024)
SEED = 64


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="timed runs per rate (median)")
    args = parser.parse_args(argv)
    data = random.Random(SEED).randbytes(64 * 1024)
    mbit = 8 * len(data) / 1e6
    print("scheme k encode_mbps decode_mbps")
    for k in BLOCK_LENGTHS:
        for name, scheme in SCHEME_NAMES.items():
            enc, dec = [], []
            for _ in range(args.runs):
                start = time.perf_counter()
                stream = frame_bytes(data, k, scheme, pad_mode=True)
                mid = time.perf_counter()
                out, n = deframe_bytes(stream)
                end = time.perf_counter()
                if (bytes(out), n) != (data, 8 * len(data)):
                    print(f"{name} at k = {k}: the round trip changed the input", file=sys.stderr)
                    return 1
                enc.append(mid - start)
                dec.append(end - mid)
            print(f"{name} {k} {mbit / statistics.median(enc):.2f} "
                  f"{mbit / statistics.median(dec):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
