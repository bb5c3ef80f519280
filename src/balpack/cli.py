"""Command-line front end: file encode/decode, analytics CSV, self-check.

Exit status is 0 on success, 141 when the reader of standard output leaves
early, and otherwise nonzero on any error or detected corruption.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BalpackError
from .stream import deframe_bytes, frame_bytes
from .subsets import Scheme

SCHEME_NAMES = {s.name.lower().replace("_", "-"): s for s in Scheme}

DEFAULT_K_LIST = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _write(path: os.PathLike[str], data: bytes) -> None:
    """Overwrite ``path`` in place: ext4 flushes a file truncated to zero on close."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        out.write(data)
        if os.fstat(out.fileno()).st_size > len(data):  # an older, longer file
            out.truncate()


def _cmd_encode(args: argparse.Namespace) -> int:
    stream = frame_bytes(args.infile.read_bytes(), args.k, SCHEME_NAMES[args.scheme], args.pad)
    _write(args.outfile, stream)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    data, bit_count = deframe_bytes(args.infile.read_bytes())
    if bit_count % 8:
        raise ValueError(f"decoded payload of {bit_count} bits is not byte aligned")
    _write(args.outfile, data)
    return 0


# The analytics load only in their own commands: encode and decode never need them.
def _cmd_tables(args: argparse.Namespace) -> int:
    from .redundancy import emit_tables

    emit_tables(args.what, args.k_list, sys.stdout)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .invariants import selfcheck

    report = selfcheck(args.k_max)
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        line = f"{status}  {entry.name}"
        if entry.detail:
            line += f"  [{entry.detail}]"
        print(line)
    for note in report.notes:
        print(f"NOTE  {note}")
    print(f"{'OK' if report.all_passed else 'FAILED'}: "
          f"{sum(e.passed for e in report.entries)}/{len(report.entries)} checks passed")
    return 0 if report.all_passed else 1


def _parse_k_list(text: str) -> list[int]:
    try:
        k_list = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        k_list = []
    if not k_list:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}")
    return k_list


def build_parser() -> argparse.ArgumentParser:
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="balpack", description="balanced-code packet codec and analytics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into a framed packet stream")
    enc.add_argument("--scheme", choices=sorted(SCHEME_NAMES), required=True)
    enc.add_argument("--k", type=int, required=True, help="information block length in bits")
    enc.add_argument("--pad", action="store_true",
                     help="zero-pad input that is not a whole number of blocks")
    enc.add_argument("infile", type=Path)
    enc.add_argument("outfile", type=Path)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decode a framed packet stream back to the file")
    dec.add_argument("infile", type=Path)
    dec.add_argument("outfile", type=Path)
    dec.set_defaults(func=_cmd_decode)

    tab = sub.add_parser("tables", help="print analytics tables as CSV")
    tab.add_argument("--what", choices=["table1", "nlambda", "fig2", "fig3"],
                     required=True)
    tab.add_argument("--k-list", type=_parse_k_list, default=DEFAULT_K_LIST,
                     help="comma or space separated block lengths "
                          "(default: 4,8,...,1024)")
    tab.set_defaults(func=_cmd_tables)

    chk = sub.add_parser("selfcheck", help="run exhaustive structural invariants")
    chk.add_argument("--k-max", type=int, default=8)
    chk.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that left surfaces here, not at exit
        return status
    except BrokenPipeError:  # like a shell filter: quiet, status 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BalpackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
