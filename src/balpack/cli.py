"""Command-line front end: file encode/decode, analytics CSV, self-check.

Exit status is 0 on success, 2 on a usage error, 141 when the reader of
standard output leaves early, and otherwise nonzero on any error or detected
corruption.

Each command runs with CPython's cyclic garbage collector paused: no command
creates reference cycles, so reference counting alone keeps memory bounded
per block, and a collector pass would walk the objects import and the byte
table left behind and free nothing.  Library callers keep their own setting.

``encode`` and ``decode`` code a stream whose blocks one process would code in
an estimated ``2 * MIN_WORK_PER_WORKER`` or more in contiguous block ranges,
one per CPU the process may run on, each range after the first in a forked
child.  The bytes and the errors are the ones a single process makes.  No
option controls the split; ``taskset`` restricts it.  The library itself
never forks.
"""

import gc
import os
import sys

from .errors import BalpackError, StreamCorruptError
from .stream import (StreamHeader, block_ranges, deframe_range, frame_range, frame_ranges,
                     in_lanes, input_header)
from .subsets import Scheme

SCHEME_NAMES = {s.name.lower().replace("_", "-"): s for s in Scheme}

DEFAULT_K_LIST = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


#: One process's coding time of a block of k bits, ``base + per_bit * k`` ns, by (lane walk,
#: ranked scheme): fitted to in-process ``frame_range`` and ``deframe_range`` times at k = 4
#: to 1024 on 2 vCPUs (README, Performance).  The byte walk costs over a microsecond a block
#: at any k, 5-15x a lane walk's at k = 8 to 32; a ranked scheme costs 1-4x Knuth.
BLOCK_NS = {(True, False): (60, 6), (True, True): (100, 13),
            (False, False): (1500, 4), (False, True): (2000, 16)}

#: Estimated coding time, in ns, each process must have before a stream is split.  A fork,
#: its late-starting child and its reaping cost 1.5-2.5 ms, and two processes on two vCPUs
#: each run slower than one alone.  Cold calls on those 2 vCPUs, serial against a forced 2-way
#: split (``tools/coldcall.py --cpus 1 --against``; README, Performance): up to about 10 ms of
#: estimated work a lane-walk split lost or broke even in every set; from 12 ms on most sets
#: gained 1.1-1.6x at k = 4, 16, 64 and 1024, but some read 0.8-1.0.
MIN_WORK_PER_WORKER = 6_000_000


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write(path: str, *parts: bytes) -> None:
    """Overwrite ``path`` in place with ``parts`` in order.

    In place, because ext4 flushes a file truncated to zero on close.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for part in parts:
            _write_all(fd, part)
        size = sum(map(len, parts))
        if os.fstat(fd).st_size > size:  # an older, longer file
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _work(header: StreamHeader) -> int:
    """One process's estimated time, in ns, to code the stream's blocks (``BLOCK_NS``)."""
    k = header.k
    base, per_bit = BLOCK_NS[in_lanes(k), header.scheme is not Scheme.KNUTH]
    return header.blocks * (base + per_bit * k)


def _workers(work: int) -> int:
    """Processes to code ``work`` ns of blocks in: one per CPU this process may run on, each with
    ``MIN_WORK_PER_WORKER`` or more; one without ``fork`` or ``sched_getaffinity``."""
    most = work // MIN_WORK_PER_WORKER
    if most < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(most, len(os.sched_getaffinity(0)))


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """The next ``size`` bytes from ``fd``, or None if it ends first."""
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            return None
        got += n
    return buf


def _fork(code, block_range: tuple) -> tuple[int, int] | None:
    """Fork a child that sends the part of ``block_range``: its pid and pipe read end, or None.

    The child writes one record: a tag (P for a part, E for an error), a
    big-endian 8-byte length and the body; an error's body is its packet
    index in 8 bytes and its message.  Any other exception ends the child
    without a record.  The child leaves by ``os._exit``: it flushes no stdio
    and runs no ``finally`` of its parent's stack.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        try:
            tag, body = b"P", code(block_range)
        except StreamCorruptError as exc:
            tag, body = b"E", exc.packet_index.to_bytes(8, "big") + str(exc).encode()
        _write_all(write_end, tag + len(body).to_bytes(8, "big"))
        _write_all(write_end, body)
        status = 0
    finally:
        os._exit(status)


def _receive(fd: int) -> bytearray | None:
    """A child's part from its pipe, None if it sent no whole record; raises the error it sent."""
    head = _read_exactly(fd, 9)
    if head is None:
        return None
    body = _read_exactly(fd, int.from_bytes(head[1:], "big"))
    if body is not None and head[0] == ord("E"):
        raise StreamCorruptError(body[8:].decode(), packet_index=int.from_bytes(body[:8], "big"))
    return body


def _coded(code, ranges: list) -> list:
    """``code(r)`` for each block range ``r``, in order, each range after the first in a child.

    This process codes the first range while forked children code the others
    and send them through pipes.  Where a fork fails or a child ends without
    a result, this process codes that range itself.  The error of the
    earliest failing range is raised, and every child is reaped on the way
    out, killed first if its pipe was not read.
    """
    children = []  # per range after the first: (pid, pipe read end), or None
    read = 0  # children whose pipe was read to a whole record or to its end
    try:
        for block_range in ranges[1:]:
            children.append(_fork(code, block_range))
        parts = [code(ranges[0])]
        for block_range, child in zip(ranges[1:], children):
            part = _receive(child[1]) if child else None
            read += 1
            parts.append(code(block_range) if part is None else part)
        return parts
    finally:
        for i, child in enumerate(children):
            if child:
                pid, read_end = child
                os.close(read_end)
                if i >= read:  # an early exit: the child may still be coding or writing
                    from signal import SIGKILL

                    os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _cmd_encode(scheme: str, k: int, pad: bool, infile: str, outfile: str) -> int:
    with open(infile, "rb") as src:
        data = src.read()
    header = input_header(data, k, SCHEME_NAMES[scheme], pad)
    ranges = block_ranges(header, _workers(_work(header)))
    _write(outfile, *_coded(lambda block_range: frame_range(data, header, *block_range), ranges))
    return 0


def _cmd_decode(infile: str, outfile: str) -> int:
    with open(infile, "rb") as src:
        data = src.read()
    header = StreamHeader.unpack(data)
    if header.payload_bit_count % 8:
        raise ValueError(f"decoded payload of {header.payload_bit_count} bits is not byte aligned")
    ranges = frame_ranges(data, header, _workers(_work(header)))
    _write(outfile, *_coded(lambda block_range: deframe_range(data, header, *block_range), ranges))
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
