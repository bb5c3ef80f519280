"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Exits nonzero if any test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Recorder  # noqa: E402
from wire import parse_stream  # noqa: E402

sys.path.insert(0, str(run.SRC))
WORK = run.BUILD / f"selftest-{os.getpid()}"

_NAIVE_HARNESS = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from op import _cached_entries
import balpack.cli
process = os.urandom(8).hex()
results = []
for argv in json.loads(sys.argv[2]):
    results.append({"process": process, "cached_at_start": _cached_entries()})
    balpack.cli.main(argv)
print(json.dumps(results))
"""


def _codec_argvs(scheme: str) -> list[list[str]]:
    src, stream, back = (str(WORK / name) for name in ("in.bin", "s.bpk", "out.bin"))
    (WORK / "in.bin").write_bytes(run.chunk(0, "selftest", 0, 256))
    return [["encode", "--scheme", scheme, "--k", "16", src, stream],
            ["decode", stream, back]]


def test_isolation_check_flags_shared_and_warm_processes() -> None:
    cold = {"process": "a", "cached_at_start": 0}
    assert run.isolation_problems([("enc", cold), ("dec", {**cold, "process": "b"})]) == []
    shared = run.isolation_problems([("enc", cold), ("dec", cold)])
    assert shared == ["dec ran in the same process as enc"], shared
    warm = run.isolation_problems([("dec", {"process": "c", "cached_at_start": 7})])
    assert warm == ["dec started with 7 cache entries"], warm


def test_harness_samples_are_isolated() -> None:
    bench = run.Bench("stream-k16", 0, False, WORK, {})
    results = [bench.sample(" ".join(argv[:1]), argv) for argv in _codec_argvs("proposed-fl")]
    assert bench.failed == 0, bench.problems
    assert run.isolation_problems(bench.timed) == []
    assert results[0]["process"] != results[1]["process"]


def test_one_process_for_encoder_and_decoder_is_caught() -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _NAIVE_HARNESS, str(HERE),
         json.dumps(_codec_argvs("proposed-fl"))],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, check=True)
    encoder, decoder = json.loads(proc.stdout)
    assert decoder["cached_at_start"] > 0, "the encoder left no cached listings"
    problems = run.isolation_problems([("encode", encoder), ("decode", decoder)])
    assert len(problems) == 2, problems


def test_wire_counts_match_the_encoder() -> None:
    from balpack.stream import frame_stream
    from balpack.subsets import Scheme
    from balpack.words import is_balanced

    k = 16
    data = run.chunk(0, "selftest", 1, 512)
    bits = "".join(format(b, "08b") for b in data)
    blocks = [bits[i:i + k] for i in range(0, len(bits), k)]
    assert run.balanced_blocks(data, k) == sum(map(is_balanced, blocks)) > 0
    streams = {}
    for scheme in run.SCHEMES:
        stream = frame_stream(bits, k, Scheme[scheme.upper().replace("-", "_")])
        wire = streams[scheme] = parse_stream(stream)
        assert wire.blocks == len(blocks) and wire.info_bits == len(bits)
        assert wire.frame_bits == 8 * (len(stream) - 16)
        assert wire.frame_bits == wire.blocks * k + wire.prefix_bits + wire.framing_bits
        assert run.wire_problem(scheme, data, wire) is None, scheme
    # a scheme that stopped sending balanced blocks prefix-less is caught
    assert run.wire_problem("proposed-fl", data, streams["baseline-fl"])
    assert run.wire_problem("baseline-fl", data, streams["proposed-fl"])


def test_wire_parser_rejects_truncated_streams() -> None:
    from balpack.stream import frame_stream
    from balpack.subsets import Scheme

    stream = frame_stream("0110" * 8, 16, Scheme.KNUTH)
    for cut in (len(stream) - 1, 17):
        try:
            parse_stream(stream[:cut])
        except ValueError:
            continue
        raise AssertionError(f"stream cut at {cut} bytes was accepted")


def test_tracer_self_time_excludes_children() -> None:
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda n: time.sleep(n))

    def outer_body():
        inner(0.01)
        inner(0.01)
        time.sleep(0.01)

    recorder.wrap("outer", outer_body)()
    spans = recorder.summary()
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    outer = spans["outer"]
    assert abs(outer["self_s"] - (outer["total_s"] - spans["inner"]["total_s"])) < 1e-9
    assert 0.009 < outer["self_s"] < outer["total_s"] - 0.019


def test_tracer_counts_distinct_arguments() -> None:
    recorder = Recorder()
    name = "counting.trace_closed_walks"
    walks = recorder.wrap(name, lambda states, steps: states * steps)
    for args in ((2, 4), (3, 4), (2, 4)):
        walks(*args)
    spans = recorder.summary()[name]
    assert spans["calls"] == 3 and spans["distinct_args"] == 2, spans


def test_directory_without_sources_is_refused() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-k16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name, fn in tests:
            try:
                fn()
            except Exception as exc:  # report every failing test, then exit nonzero
                failures += 1
                print(f"FAIL  {name}: {exc!r}")
            else:
                print(f"PASS  {name}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
