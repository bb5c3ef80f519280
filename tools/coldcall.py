"""Where the time of a cold ``balpack encode`` / ``decode`` call goes, piece by piece.

Usage: python tools/coldcall.py [--scheme NAME] [--k K] [--bytes N] [--runs N] [--against DIR]

Each run encodes a seeded random file of ``--bytes`` bytes through
``balpack.cli.main`` in one fresh interpreter and decodes the stream in
another, as the two ends of a channel do; it exits 1 if a call fails or the
decoded file differs from the input.  For each side the tool prints the
median over ``--runs`` runs, in µs, of:

- ``import``: ``import balpack.cli``;
- ``parse``: from entering ``main`` to entering the command's handler;
- ``read``: from entering the handler to calling the codec (opening and
  reading the input);
- ``byte_table``: the first ``subsets._build_byte_span``, inside ``codec``;
- ``gc_passes`` and ``gc_us``: the cyclic garbage collector's passes during
  ``main``, as a count and in µs, inside whichever piece made them;
- ``codec``: the first ``stream.frame_bytes`` / ``deframe_bytes``;
- ``write``: writing the output file;
- ``call``: ``main`` as a whole.

It imports the ``balpack`` beside it, so a second checkout's copy measures
that checkout.  ``--against DIR`` runs the checkout at DIR in the same
rounds, the one that goes first alternating, and prints each piece's median
for both, their ratio (this checkout over DIR's) and the runs this checkout
was faster in.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1024
PIECES = ("import", "parse", "read", "byte_table", "gc_passes", "gc_us", "codec", "write", "call")

#: One cold call: ``python -c CHILD SRC_DIR CLI_ARGS...``; prints one JSON object of pieces.
CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import balpack.cli as cli
imported = time.perf_counter()
import gc, json
from balpack import subsets

spans = {}  # piece: (first entry, first exit)
def timed(module, name, piece):
    inner = getattr(module, name)
    def wrapper(*args, **kwargs):
        begun = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spans.setdefault(piece, (begun, time.perf_counter()))
    setattr(module, name, wrapper)

command = sys.argv[2]
timed(cli, f"_cmd_{command}", "handler")
timed(cli, "frame_bytes" if command == "encode" else "deframe_bytes", "codec")
timed(cli, "_write", "write")
timed(subsets, "_build_byte_span", "byte_table")
passes = []
gc.callbacks.append(lambda phase, info: passes.append(time.perf_counter()))
begun = time.perf_counter()
status = cli.main(sys.argv[2:])
ended = time.perf_counter()
gc.callbacks.clear()
if status != 0:
    raise SystemExit(f"balpack {command} exited {status}")
length = lambda piece: spans[piece][1] - spans[piece][0] if piece in spans else None
print(json.dumps({
    "import": imported - start,
    "parse": spans["handler"][0] - begun,
    "read": spans["codec"][0] - spans["handler"][0],
    "byte_table": length("byte_table"),
    "gc_passes": len(passes) // 2,
    "gc_us": sum(passes[1::2]) - sum(passes[0::2]),
    "codec": length("codec"),
    "write": length("write"),
    "call": ended - begun,
}))
"""


def cold_call(root: Path, argv: list[str]) -> dict[str, float | None]:
    """The pieces of one ``balpack`` call in a fresh interpreter importing root/src/balpack."""
    result = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), *argv],
                            capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{root}: balpack {' '.join(argv)}: {result.stderr.strip()}")
    pieces = json.loads(result.stdout.splitlines()[-1])
    return {piece: value if value is None or piece == "gc_passes" else value * 1e6
            for piece, value in pieces.items()}


def round_trip(root: Path, work: Path, scheme: str, k: int, data: Path):
    """Encode and decode pieces of one run of the checkout at root."""
    stream, out = work / "stream.bpk", work / "out.bin"
    encode = cold_call(root, ["encode", "--scheme", scheme, "--k", str(k), "--pad",
                              str(data), str(stream)])
    decode = cold_call(root, ["decode", str(stream), str(out)])
    if out.read_bytes() != data.read_bytes():
        raise SystemExit(f"{root}: the round trip changed the input")
    return encode, decode


def median(runs: list[dict], piece: str) -> float | None:
    values = [run[piece] for run in runs if run[piece] is not None]
    return statistics.median(values) if values else None


def show(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scheme", default="proposed-fl", help="as balpack encode takes it")
    parser.add_argument("--k", type=int, default=1024, help="block length")
    parser.add_argument("--bytes", type=int, default=1024, help="size of the seeded input file")
    parser.add_argument("--runs", type=int, default=11, help="fresh-process runs (median)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second checkout to time in the same rounds")
    args = parser.parse_args(argv)
    roots = [Path(__file__).resolve().parent.parent]
    if args.against:
        roots.append(args.against.resolve())
    for root in roots:
        if not (root / "src" / "balpack" / "cli.py").is_file():
            raise SystemExit(f"no balpack under {root / 'src'}")
    runs = [([], []) for _ in roots]  # per checkout: encode runs, decode runs
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "in.bin"
        data.write_bytes(random.Random(SEED).randbytes(args.bytes))
        for run in range(args.runs):
            for side in range(len(roots))[:: 1 if run % 2 == 0 else -1]:
                for step, pieces in enumerate(round_trip(roots[side], work, args.scheme,
                                                         args.k, data)):
                    runs[side][step].append(pieces)
    print(f"{args.scheme} k = {args.k}, {args.bytes} bytes, medians of {args.runs} "
          f"fresh processes per call, µs")
    print("piece encode decode" if len(roots) == 1 else
          "piece encode against ratio wins decode against ratio wins")
    for piece in PIECES:
        columns = []
        for step in (0, 1):  # encode, decode
            mine = median(runs[0][step], piece)
            columns.append(show(mine))
            if len(roots) == 2:
                theirs = median(runs[1][step], piece)
                ratio = f"{mine / theirs:.3f}" if mine is not None and theirs else "-"
                wins = sum(a[piece] is not None and b[piece] is not None and a[piece] < b[piece]
                           for a, b in zip(runs[0][step], runs[1][step]))
                columns.append(f"{show(theirs)} {ratio} {wins}/{args.runs}")
        print(piece, *columns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
