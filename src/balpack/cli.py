"""Command-line front end: file encode/decode, analytics CSV, self-check.

Exit status is 0 on success, 2 on a usage error, 141 when the reader of
standard output leaves early, and otherwise nonzero on any error or detected
corruption.

Each command runs with CPython's cyclic garbage collector paused: no command
creates reference cycles, so reference counting alone keeps memory bounded
per block, and a collector pass would walk the objects import and the byte
table left behind and free nothing.  Library callers keep their own setting.

``encode`` and ``decode`` code the whole file in this one process.
"""

import gc
import os
import sys

from .errors import BalpackError
from .stream import StreamHeader, deframe_bytes, frame_bytes
from .subsets import Scheme

SCHEME_NAMES = {s.name.lower().replace("_", "-"): s for s in Scheme}

DEFAULT_K_LIST = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _write(path: str, data: bytes) -> None:
    """Overwrite ``path`` in place with ``data``.

    In place, because ext4 flushes a file truncated to zero on close.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):  # an older, longer file
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_encode(scheme: str, k: int, pad: bool, infile: str, outfile: str) -> int:
    with open(infile, "rb") as src:
        data = src.read()
    _write(outfile, frame_bytes(data, k, SCHEME_NAMES[scheme], pad))
    return 0


def _cmd_decode(infile: str, outfile: str) -> int:
    with open(infile, "rb") as src:
        data = src.read()
    header = StreamHeader.unpack(data)
    if header.payload_bit_count % 8:
        raise ValueError(f"decoded payload of {header.payload_bit_count} bits is not byte aligned")
    _write(outfile, deframe_bytes(data)[0])
    return 0


# The analytics load only in their own commands: encode and decode never need them.
def _cmd_tables(what: str, k_list: list[int]) -> int:
    from .redundancy import emit_tables

    emit_tables(what, k_list, sys.stdout)
    return 0


def _cmd_selfcheck(k_max: int) -> int:
    from .invariants import selfcheck

    report = selfcheck(k_max)
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
        raise ValueError(f"bad k list {text!r}")
    return k_list


def build_parser() -> dict[str, tuple]:
    """The table :func:`main` parses with: each command's help, options, defaults, positionals.

    An option maps to its converter, the tuple of its choices, or None for a
    flag, which is True when given; one with no default is required.  Names
    without ``--``, ``-`` as ``_``, are the parameters of its ``_cmd_`` handler.
    """
    return {
        "encode": ("encode a file into a framed packet stream of k-bit information blocks; "
                   "--pad zero-pads input that is not a whole number of blocks",
                   {"--scheme": tuple(sorted(SCHEME_NAMES)), "--k": int, "--pad": None},
                   {"--pad": False}, ("infile", "outfile")),
        "decode": ("decode a framed packet stream back to the file", {}, {}, ("infile", "outfile")),
        "tables": ("print analytics tables as CSV for the comma or space separated block "
                   "lengths of --k-list (default: 4,8,...,1024)",
                   {"--what": ("table1", "nlambda", "fig2", "fig3"), "--k-list": _parse_k_list},
                   {"--k-list": DEFAULT_K_LIST}, ()),
        "selfcheck": ("run exhaustive structural invariants for every k up to --k-max (default: 8)",
                      {"--k-max": int}, {"--k-max": 8}, ()),
    }


def _is_option(token: str) -> bool:
    """Whether ``token`` names an option; ``-`` and negative numbers are values."""
    return token.startswith("-") and token != "-" and not token[1:2].isdigit()


def _usage(table: dict[str, tuple], command: str | None = None) -> str:
    """The usage line of ``command``, or of balpack when None; built only to be printed."""
    if command is None:
        return f"usage: balpack [-h] {{{','.join(table)}}} ..."
    _, options, defaults, positionals = table[command]
    words = [f"usage: balpack {command} [-h]"]
    for name, kind in options.items():
        metavar = ("" if kind is None else " {" + ",".join(kind) + "}" if isinstance(kind, tuple)
                   else " " + name[2:].upper().replace("-", "_"))
        words.append(f"[{name}{metavar}]" if name in defaults else name + metavar)
    return " ".join(words + list(positionals))


def _fail(table: dict[str, tuple], message: str, command: str | None = None) -> SystemExit:
    print(f"{_usage(table, command)}\nbalpack: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse(table: dict[str, tuple], argv: list[str]) -> tuple[str, dict[str, object]]:
    """The command ``argv`` names and its handler's keywords; exits 0 after help, 2 on misuse."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_usage(table), "", *(f"  {name:<10} {table[name][0]}" for name in table), sep="\n")
        raise SystemExit(0)
    if not argv or argv[0] not in table:
        raise _fail(table, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command, tokens = argv[0], iter(argv[1:])
    help_line, options, defaults, positionals = table[command]
    values, given = dict(defaults), []
    for token in tokens:
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            print(_usage(table, command), "", help_line, sep="\n")
            raise SystemExit(0)
        if not _is_option(token):
            given.append(token)
        elif name not in options or eq and options[name] is None:
            raise _fail(table, f"unrecognized arguments: {token}", command)
        elif (kind := options[name]) is None:
            values[name] = True
        elif not eq and _is_option(value := next(tokens, "--")):  # "--name value" needs a value
            raise _fail(table, f"argument {name}: expected one argument", command)
        elif isinstance(kind, tuple) and value not in kind:
            raise _fail(table, f"argument {name}: invalid choice: {value!r} "
                               f"(choose from {', '.join(kind)})", command)
        else:
            try:
                values[name] = value if isinstance(kind, tuple) else kind(value)
            except ValueError as exc:
                raise _fail(table, f"argument {name}: {exc}", command) from None
    missing = [name for name in options if name not in values] + list(positionals[len(given):])
    if missing:
        raise _fail(table, f"the following arguments are required: {', '.join(missing)}", command)
    if len(given) > len(positionals):
        raise _fail(table, f"unrecognized arguments: {' '.join(given[len(positionals):])}", command)
    keywords = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return command, keywords | dict(zip(positionals, given))


def main(argv: list[str] | None = None) -> int:
    command, keywords = _parse(build_parser(), sys.argv[1:] if argv is None else argv)
    collecting = gc.isenabled()
    gc.disable()
    try:  # looked up by name at each call, so a handler replaced in this module is the one run
        status = globals()[f"_cmd_{command}"](**keywords)
        sys.stdout.flush()  # a reader that left surfaces here, not at exit
        return status
    except BrokenPipeError:  # like a shell filter: quiet, status 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BalpackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
