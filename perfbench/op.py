"""One benchmark sample: a fresh interpreter that makes one balpack CLI call.

    python op.py SRC_DIR TRACE STDOUT_FILE -- CLI_ARGS...

Imports ``balpack.cli`` from SRC_DIR and builds its parser (timed as
set-up), times :func:`control_loop`, then runs ``balpack.cli.main(CLI_ARGS)``
with standard output sent to STDOUT_FILE (timed as the operation).  With TRACE = 1 the cross-module
calls are wrapped by :mod:`tracer` first.  The last line printed is one
JSON object describing the sample.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def _cached_entries() -> int:
    """Entries held by any ``functools`` cache in the loaded balpack modules."""
    total = 0
    for name, module in list(sys.modules.items()):
        if name == "balpack" or name.startswith("balpack."):
            for value in vars(module).values():
                info = getattr(value, "cache_info", None)
                if callable(info):
                    total += info().currsize
    return total


def peak_rss_kib() -> int:
    """Peak resident set size of this process image (``VmHWM``), in KiB.

    Not ``ru_maxrss``: Linux keeps the peak of the process image replaced by
    ``exec`` in it, so every sample would report at least the size of the
    benchmark process that started it.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def control_loop() -> float:
    """Seconds this process takes for a fixed mix of pure-Python work.

    The mix is string formatting and translation, big-integer parsing and
    small-integer arithmetic, like the codec and the analytics, and never
    touches balpack.  Its time shows how fast the machine runs this process
    at this moment, whatever the version of balpack.
    """
    flip = str.maketrans("01", "10")
    start = time.perf_counter()
    words = []
    for i in range(5000):
        word = format(i * 2654435761 % 4294967296, "032b")
        words.append(word.translate(flip)[::-1])
    int("".join(words), 2).bit_count() + sum(int(w, 2) % 7 for w in words)
    return time.perf_counter() - start


def main() -> int:
    src_dir, trace, stdout_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: op.py SRC_DIR TRACE STDOUT_FILE -- CLI_ARGS...")
    process = os.urandom(8).hex()

    start = time.perf_counter()
    import balpack.cli

    balpack.cli.build_parser()
    setup_s = time.perf_counter() - start

    origin = os.path.realpath(balpack.cli.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"balpack was imported from {origin}, not from {src_dir}")
    cached_at_start = _cached_entries()
    control_s = control_loop()

    recorder = None
    missing: list[str] = []
    cli_main = balpack.cli.main
    if trace == "1":
        from tracer import Recorder

        recorder = Recorder()
        missing = recorder.install()
        cli_main = recorder.wrap("cli.main", cli_main)

    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        op_s = time.perf_counter() - start

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "op_s": op_s,
        "peak_rss_kib": peak_rss_kib(),
        "process": process,
        "cached_at_start": cached_at_start,
        "control_s": control_s,
    }
    if recorder is not None:
        result["spans"] = recorder.summary()
        result["missing"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
