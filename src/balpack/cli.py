"""Command-line front end: file encode/decode, analytics CSV, self-check.

Exit status is 0 on success and nonzero on any error or detected
corruption.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BalpackError
from .redundancy import emit_tables
from .stream import deframe_stream, frame_stream, selfcheck
from .subsets import Scheme

SCHEME_NAMES = {s.name.lower().replace("_", "-"): s for s in Scheme}

DEFAULT_K_LIST = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _bits_of(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def _cmd_encode(args: argparse.Namespace) -> int:
    data = args.infile.read_bytes()
    stream = frame_stream(_bits_of(data), args.k, SCHEME_NAMES[args.scheme], args.pad)
    args.outfile.write_bytes(stream)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    bits = deframe_stream(args.infile.read_bytes())
    if len(bits) % 8:
        print(f"error: decoded payload of {len(bits)} bits is not byte aligned",
              file=sys.stderr)
        return 1
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    args.outfile.write_bytes(data)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    k_list = args.k_list if args.k_list else list(DEFAULT_K_LIST)
    emit_tables(args.what, k_list, sys.stdout)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
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
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None


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
    tab.add_argument("--k-list", type=_parse_k_list, default=None,
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
        return args.func(args)
    except (BalpackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
