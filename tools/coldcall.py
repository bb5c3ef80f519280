"""Where the time of a cold ``balpack`` call goes, piece by piece.

Usage: python tools/coldcall.py [--scheme NAME] [--k K] [--bytes N] [--runs N] [--against DIR]
       python tools/coldcall.py --what TABLE [--runs N] [--against DIR]

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
  ``n/a`` for a call that never builds it, as a lane-coded one;
- ``lanes``: the lane walks, inside ``codec``: the time spent in
  ``stream._lane_frames`` (encode) or ``stream._lane_blocks`` (decode),
  summed over every walk; ``n/a`` for a call that runs no walk, as one at a
  k the lanes do not code;
- ``gc_passes`` and ``gc_us``: the cyclic garbage collector's passes that
  start before ``main`` returns, as a count and in µs, inside whichever
  piece made them;
- ``codec``: the first ``frame_bytes`` (encode) or ``deframe_bytes``
  (decode) the CLI calls; a decode's early header check falls in ``read``;
- ``write``: writing the output file;
- ``call``: ``main`` as a whole;
- ``cpu``: user plus system time of the process during ``main``
  (``getrusage``, which counts what ``os.times()`` does in µs rather than
  clock ticks).

``--what TABLE`` times a cold ``balpack tables --what TABLE --k-list
4,8,...,2048`` instead, the call and k list the benchmark makes, with its
standard output sent to a file; it prints the ``import``, ``parse``, ``call``
and ``cpu`` pieces and exits 1 if a call fails or its output's sha256 is not
the one ``perfbench/digests.json`` pins.

It imports the ``balpack`` beside it, so a second checkout's copy measures
that checkout.  ``--against DIR`` runs the checkout at DIR in the same
rounds, the one that goes first alternating, and prints each piece's median
for both, their ratio (this checkout over DIR's) and the runs this checkout
was faster in.  Both checkouts' sources are byte-compiled first: under
``PYTHONDONTWRITEBYTECODE`` a checkout without ``__pycache__`` would compile
them in every run, and its ``import`` would time the compiler.

Check the pairing before reading a ratio: ``--against`` on an identical copy
of this checkout (a ``git archive`` of the same commit) should read about
1.00 for every piece.  It does not always: identical copies have read the
``parse`` piece 1.02-1.06x slower for the checkout the tool sits in (a
2-vCPU machine shared with other load), so a piece of a few µs that moves
by that much is not a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1024
PIECES = ("import", "parse", "read", "byte_table", "lanes", "gc_passes", "gc_us", "codec", "write",
          "call", "cpu")
TABLE_PIECES = ("import", "parse", "call", "cpu")
TABLES = ("table1", "nlambda", "fig2", "fig3")
TABLE_K_LIST = ",".join(str(4 << i) for i in range(10))  # 4, 8, ..., 2048

#: One cold call: ``python -c CHILD SRC_DIR STDOUT_FILE CLI_ARGS...``; prints one JSON
#: object of pieces, with the call's standard output sent to STDOUT_FILE.
CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import balpack.cli as cli
imported = time.perf_counter()
import gc, json, resource
from balpack import stream, subsets

spans = {}  # piece: [(entry, exit) of each call]
def timed(module, name, piece):
    inner = getattr(module, name, None)
    if inner is None:  # a checkout without it, as one without lane walks
        return
    def wrapper(*args, **kwargs):
        begun = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spans.setdefault(piece, []).append((begun, time.perf_counter()))
    setattr(module, name, wrapper)

command = sys.argv[3]
timed(cli, f"_cmd_{command}", "handler")
if command in ("encode", "decode"):
    timed(cli, "frame_bytes" if command == "encode" else "deframe_bytes", "codec")
    timed(cli, "_write", "write")
    timed(subsets, "_build_byte_span", "byte_table")
    timed(stream, "_lane_frames" if command == "encode" else "_lane_blocks", "lanes")
def cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime

passes = []
gc.callbacks.append(lambda phase, info: passes.append(time.perf_counter()))
stdout, sys.stdout = sys.stdout, open(sys.argv[2], "w")
cpu_begun = cpu_s()
begun = time.perf_counter()
status = cli.main(sys.argv[3:])
ended = time.perf_counter()
cpu = cpu_s() - cpu_begun
sys.stdout.close()
sys.stdout = stdout
gc.callbacks.clear()
if status != 0:
    raise SystemExit(f"balpack {command} exited {status}")
first = {piece: calls[0] for piece, calls in spans.items()}
length = lambda piece: first[piece][1] - first[piece][0] if piece in first else None
# cpu_s()'s own objects can start a pass just after main returns: count those before ``ended``
collected = [(a, b) for a, b in zip(passes[0::2], passes[1::2]) if a < ended]
print(json.dumps({
    "import": imported - start,
    "parse": first["handler"][0] - begun,
    "read": first["codec"][0] - first["handler"][0] if "codec" in first else None,
    "byte_table": length("byte_table"),
    "lanes": sum(b - a for a, b in spans["lanes"]) if "lanes" in spans else None,
    "gc_passes": len(collected),
    "gc_us": sum(b - a for a, b in collected),
    "codec": length("codec"),
    "write": length("write"),
    "call": ended - begun,
    "cpu": cpu,
}))
"""


def cold_call(root: Path, argv: list[str], stdout: str = os.devnull) -> dict[str, float | None]:
    """The pieces of one ``balpack`` call in a fresh interpreter importing root/src/balpack."""
    result = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), stdout, *argv],
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


def table_call(root: Path, work: Path, what: str, digest: str):
    """The pieces of one cold ``balpack tables`` call of the checkout at root, as a 1-tuple."""
    out = work / "table.csv"
    pieces = cold_call(root, ["tables", "--what", what, "--k-list", TABLE_K_LIST], str(out))
    if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
        raise SystemExit(f"{root}: tables --what {what}: the output differs from its pinned digest")
    return (pieces,)


def median(runs: list[dict], piece: str) -> float | None:
    values = [run[piece] for run in runs if run[piece] is not None]
    return statistics.median(values) if values else None


def show(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.1f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scheme", default="proposed-fl", help="as balpack encode takes it")
    parser.add_argument("--k", type=int, default=1024, help="block length")
    parser.add_argument("--bytes", type=int, default=1024, help="size of the seeded input file")
    parser.add_argument("--runs", type=int, default=11, help="fresh-process runs (median)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second checkout to time in the same rounds")
    parser.add_argument("--what", choices=TABLES,
                        help="time a cold tables call of this table instead of a round trip")
    args = parser.parse_args(argv)
    roots = [Path(__file__).resolve().parent.parent]
    if args.what:
        digests = json.loads((roots[0] / "perfbench" / "digests.json").read_text())
        digest = digests["tables"][args.what]
    if args.against:
        roots.append(args.against.resolve())
    for root in roots:
        if not (root / "src" / "balpack" / "cli.py").is_file():
            raise SystemExit(f"no balpack under {root / 'src'}")
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "balpack")],
                       check=True, stdout=subprocess.DEVNULL)
    runs = [([], []) for _ in roots]  # per checkout: encode runs, decode runs
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "in.bin"
        data.write_bytes(random.Random(SEED).randbytes(args.bytes))
        for run in range(args.runs):
            for side in range(len(roots))[:: 1 if run % 2 == 0 else -1]:
                calls = (table_call(roots[side], work, args.what, digest) if args.what else
                         round_trip(roots[side], work, args.scheme, args.k, data))
                for step, pieces in enumerate(calls):
                    runs[side][step].append(pieces)
    if args.what:
        print(f"tables --what {args.what} --k-list {TABLE_K_LIST}, medians of {args.runs} "
              f"fresh processes, µs")
        sides, shown = ["tables"], TABLE_PIECES
    else:
        print(f"{args.scheme} k = {args.k}, {args.bytes} bytes, medians of {args.runs} "
              f"fresh processes per call, µs")
        sides, shown = ["encode", "decode"], PIECES
    print("piece", *(side if len(roots) == 1 else f"{side} against ratio wins" for side in sides))
    for piece in shown:
        columns = []
        for step in range(len(sides)):
            mine = median(runs[0][step], piece)
            columns.append(show(mine))
            if len(roots) == 2:
                theirs = median(runs[1][step], piece)
                if mine is None or theirs is None:
                    columns.append(f"{show(theirs)} n/a n/a")
                    continue
                ratio = f"{mine / theirs:.3f}" if theirs else "-"
                wins = sum(a[piece] is not None and b[piece] is not None and a[piece] < b[piece]
                           for a, b in zip(runs[0][step], runs[1][step]))
                columns.append(f"{show(theirs)} {ratio} {wins}/{args.runs}")
        print(piece, *columns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
