#!/usr/bin/env python3
"""Cold-process benchmark of the balpack command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every timed sample is a fresh interpreter (``op.py``) that
imports ``balpack.cli`` (timed as set-up) and then makes one CLI call
(timed as the operation).  The loop is closed with one client: one sample
runs at a time.  An encoder and its decoder are separate processes, as the
two ends of a channel share no cache.

Inputs are seeded random bytes made here; the program only sees the files.
Every operation is checked: exit status, decoded bytes equal to the input,
stream and table digests equal to those in ``digests.json``, selfcheck
reporting OK, frame counts read from the encoded bytes that follow each
scheme's prefix rule, and no two timed samples sharing a process.  The last
line of standard output is one JSON object with the metrics of
``BENCHMARK.json``: its ``end_to_end`` metrics with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SPANS
from wire import WireCounts, parse_stream

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
DIGESTS = HERE / "digests.json"

SCHEMES = ("knuth", "baseline-fl", "proposed-fl", "proposed-vl", "proposed-full")
RANKED = SCHEMES[1:]
PREFIXLESS = ("proposed-fl", "proposed-vl", "proposed-full")
TABLES = ("table1", "nlambda", "fig2", "fig3")
#: 4, 8, ..., 2048.  Up to 1024 the four tables take 0.06 s, too short to
#: time; with 4096 they take 1.8 s, which leaves too few rounds in a run.
TABLE_K_LIST = ",".join(str(4 << i) for i in range(10))
#: selfcheck accepts up to 16, but one call then takes 2.5 s instead of 0.6 s.
SELFCHECK_K_MAX = 14

#: Median of the operation processes' ``op.control_loop`` times on the
#: machine the benchmark was built on (2 vCPUs, Python 3.11.7).
CONTROL_NOMINAL_S = 0.0080

#: Rounds of samples a run makes at least, untraced / traced.
MIN_ROUNDS = {False: 3, True: 1}
CHILD_TIMEOUT_S = 120
#: The whole run stops sampling here even if an operation is short of samples.
HARD_STOP_S = 120


@dataclass(frozen=True)
class Workload:
    k: int
    #: bytes per encode sample, per scheme; ranked schemes get the prefix
    #: of the chunk Knuth gets, so both see the same data.
    chunk_bytes: dict[str, int]
    #: random bytes of the digest-checked reference input
    reference_bytes: int
    #: bytes of one extra ``proposed-fl`` sample per run, large enough for
    #: the subset-listing cache to show in ``peak_rss_mib.ranked``; 0 for none
    memory_bytes: int = 0


#: At k = 16 per-packet framing and CLI costs dominate and the listing cache
#: gets hits; at k = 1024 the O(k^2) listing dominates the ranked schemes and
#: its cache never hits.  Sizes make one ranked operation take 0.2-0.5 s at
#: the first benchmarked commit; they are part of the workload (at k = 16 a
#: larger file gets more cache hits) and are named in BENCHMARK.json.
WORKLOADS = {
    "stream-k16": Workload(
        k=16, chunk_bytes={"knuth": 65536, **{s: 8192 for s in RANKED}}, reference_bytes=2048,
    ),
    "stream-k1024": Workload(
        k=1024, chunk_bytes={"knuth": 65536, **{s: 1024 for s in RANKED}}, reference_bytes=512,
        memory_bytes=4096,
    ),
}


def key(scheme: str) -> str:
    return scheme.replace("-", "_")


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def balanced_blocks(data: bytes, k: int) -> int:
    """Number of whole k-bit blocks of ``data`` with as many ones as zeros."""
    step = k // 8
    return sum(int.from_bytes(data[i:i + step], "big").bit_count() == k // 2
               for i in range(0, len(data) - step + 1, step))


def fixed_prefix_bits(scheme: str, k: int) -> int | None:
    """Prefix length of every ranked (non prefix-less) packet; None for VL."""
    return {
        "knuth": ceil_log2(k),
        "baseline-fl": ceil_log2(k // 2 + 1),
        "proposed-fl": ceil_log2(k // 2),
        "proposed-full": 6 * ((ceil_log2(k // 2) + 3) // 4),
    }.get(scheme)


def wire_problem(scheme: str, data: bytes, wire: WireCounts) -> str | None:
    """How the frames of ``data`` encoded with ``scheme`` break its prefix rule.

    Balanced blocks travel without a prefix in exactly the PREFIXLESS schemes;
    every other packet of a fixed-length scheme carries the same prefix.
    """
    k = wire.k
    expected = balanced_blocks(data, k) if scheme in PREFIXLESS else 0
    if wire.prefixless != expected:
        return f"{wire.prefixless} packets without prefix, expected {expected}"
    fixed = fixed_prefix_bits(scheme, k)
    if fixed is not None and wire.prefix_bits != fixed * (wire.blocks - wire.prefixless):
        return f"prefix bits are not {fixed} per prefixed packet"
    return None


def chunk(seed: int, workload: str, index: int, size: int) -> bytes:
    return random.Random(f"{seed}/{workload}/{index}").randbytes(size)


def reference_input(workload: Workload) -> bytes:
    """Fixed input whose streams must match the recorded digests.

    Random bytes, then one balanced block (sent prefix-less), then a byte
    that leaves a partial block, so the ``--pad`` path is covered too.
    """
    body = random.Random("reference").randbytes(workload.reference_bytes)
    return body + b"\x55" * (workload.k // 8) + b"\xa5"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


def isolation_problems(samples: list[tuple[str, dict]]) -> list[str]:
    """Timed samples must each own a fresh interpreter with empty caches.

    A second operation in the same process finds the first one's
    subset listings cached and reads many times faster than a cold one.
    """
    problems = []
    owner: dict[str, str] = {}
    for label, result in samples:
        process = result["process"]
        if process in owner:
            problems.append(f"{label} ran in the same process as {owner[process]}")
        owner.setdefault(process, label)
        if result["cached_at_start"]:
            problems.append(
                f"{label} started with {result['cached_at_start']} cache entries"
            )
    return problems


@dataclass
class CodecSample:
    scheme: str
    bits: int
    wire: WireCounts
    enc: dict
    dec: dict


@dataclass
class Bench:
    workload_name: str
    seed: int
    trace: bool
    workdir: Path
    digests: dict
    env: dict = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timed: list[tuple[str, dict]] = field(default_factory=list)
    codec: list[CodecSample] = field(default_factory=list)
    tables: list[tuple[float, list[dict]]] = field(default_factory=list)
    selfchecks: list[dict] = field(default_factory=list)

    @property
    def workload(self) -> Workload:
        return WORKLOADS[self.workload_name]

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)

    def child(self, label: str, argv: list[str], trace: bool = False) -> dict | None:
        """Run one operation in a fresh interpreter; None if it failed."""
        out = self.workdir / "stdout"
        cmd = [sys.executable, str(HERE / "op.py"), str(SRC), "1" if trace else "0",
               str(out), "--", *argv]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: no result within {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None or result["rc"] != 0:
            rc = result["rc"] if result else proc.returncode
            self.fail(f"{label}: exit status {rc}: {proc.stderr.strip()[-500:]}")
            return None
        if result.get("missing"):
            print(f"perfbench: {label}: not traced, not found: {result['missing']}",
                  file=sys.stderr)
        result["stdout"] = out
        return result

    def sample(self, label: str, argv: list[str]) -> dict | None:
        """A timed operation; traced runs time it untraced first, then traced."""
        plain = self.child(label, argv)
        if plain is None:
            return None
        self.timed.append((label, plain))
        if not self.trace:
            return plain
        traced = self.child(f"{label} (traced)", argv, trace=True)
        if traced is None:
            return None
        self.timed.append((f"{label} (traced)", traced))
        traced["plain_op_s"] = plain["op_s"]
        return traced

    # -- operations ---------------------------------------------------------

    def codec_sample(self, scheme: str, index: int, size: int | None = None) -> None:
        if size is None:
            size = self.workload.chunk_bytes[scheme]
        data = chunk(self.seed, self.workload_name, index, max(
            size, *self.workload.chunk_bytes.values()))[:size]
        src, stream, back = (self.workdir / name for name in ("in.bin", "s.bpk", "out.bin"))
        src.write_bytes(data)
        label = f"{scheme} sample {index}"
        enc = self.sample(f"encode {label}", ["encode", "--scheme", scheme, "--k",
                                              str(self.workload.k), str(src), str(stream)])
        if enc is None:
            return
        try:
            wire = parse_stream(stream.read_bytes())
        except ValueError as exc:
            self.fail(f"encode {label}: malformed stream: {exc}")
            return
        problem = wire_problem(scheme, data, wire)
        if problem:
            self.fail(f"encode {label}: {problem}")
            return
        dec = self.sample(f"decode {label}", ["decode", str(stream), str(back)])
        if dec is None:
            return
        if back.read_bytes() != data:
            self.fail(f"decode {label}: output differs from the input")
            return
        self.codec.append(CodecSample(scheme, 8 * len(data), wire, enc, dec))

    def tables_sample(self, index: int) -> None:
        results = []
        for what in TABLES:
            result = self.sample(f"tables {what} sample {index}", [
                "tables", "--what", what, "--k-list", TABLE_K_LIST])
            if result is None:
                return
            if sha256(result["stdout"]) != self.digests["tables"][what]:
                self.fail(f"tables {what} sample {index}: output digest differs")
                return
            results.append(result)
        self.tables.append((sum(r["op_s"] for r in results), results))

    def selfcheck_sample(self, index: int) -> None:
        result = self.sample(f"selfcheck sample {index}",
                             ["selfcheck", "--k-max", str(SELFCHECK_K_MAX)])
        if result is None:
            return
        text = result["stdout"].read_text()
        if not text.splitlines() or not text.splitlines()[-1].startswith("OK:"):
            self.fail(f"selfcheck sample {index}: did not report OK")
        elif sha256(result["stdout"]) != self.digests["selfcheck"]:
            self.fail(f"selfcheck sample {index}: output digest differs")
        else:
            self.selfchecks.append(result)

    def reference_streams(self) -> dict[str, str]:
        """Encode and decode the reference input; return stream digests."""
        data = reference_input(self.workload)
        src, stream, back = (self.workdir / name for name in ("ref.bin", "ref.bpk", "ref.out"))
        src.write_bytes(data)
        out = {}
        for scheme in SCHEMES:
            label = f"reference {scheme}"
            if self.child(f"encode {label}", [
                    "encode", "--scheme", scheme, "--k", str(self.workload.k), "--pad",
                    str(src), str(stream)]) is None:
                continue
            out[scheme] = sha256(stream)
            if self.child(f"decode {label}", ["decode", str(stream), str(back)]) is None:
                continue
            if back.read_bytes() != data:
                self.fail(f"decode {label}: output differs from the input")
        return out

    def check_reference(self) -> None:
        expected = self.digests["streams"][self.workload_name]
        for scheme, digest in self.reference_streams().items():
            if digest != expected[scheme]:
                self.fail(f"reference {scheme}: stream digest differs from digests.json")

    # -- schedule -------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Closed loop in rounds: each round runs every operation once, in turn."""
        ops = [lambda i, s=scheme: self.codec_sample(s, i) for scheme in SCHEMES]
        ops += [self.tables_sample, self.selfcheck_sample]
        start = time.perf_counter()
        if self.workload.memory_bytes:
            self.codec_sample("proposed-fl", -1, self.workload.memory_bytes)
        rounds = 0
        while rounds < MIN_ROUNDS[self.trace] or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > HARD_STOP_S:
                self.problem(f"stopped after {rounds} rounds at {HARD_STOP_S} s")
                break
            for op in ops:
                op(rounds)
            rounds += 1
        print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
        for problem in isolation_problems(self.timed):
            self.problem(problem)
        k = self.workload.k
        for scheme in PREFIXLESS:
            wire = self.wire(scheme)
            print(f"{scheme}: {wire.prefixless} of {wire.blocks} packets prefix-less, "
                  f"C(k,k/2)/2^k = {math.comb(k, k // 2) / 2**k:.3f}", file=sys.stderr)

    def wire(self, scheme: str) -> WireCounts:
        total = WireCounts(k=self.workload.k)
        for sample in self.codec:
            if sample.scheme == scheme:
                total.add(sample.wire)
        return total

    # -- metrics -------------------------------------------------------------

    def samples(self, scheme: str) -> list[CodecSample]:
        return [s for s in self.codec if s.scheme == scheme]

    def slowdown(self) -> float:
        """How much slower the operation processes ran than nominal."""
        return statistics.median(r["control_s"] for _, r in self.timed) / CONTROL_NOMINAL_S

    def end_to_end(self) -> dict[str, float]:
        """End-to-end metrics, with times divided by the root of the slowdown.

        The control loop's time moves about twice as much with the machine's
        drift as the operations' times do, so dividing by the slowdown itself
        over-corrects (measurements in NOTES.md, "Noise").
        """
        slow = math.sqrt(self.slowdown())
        m = {"setup_s": statistics.median(r["setup_s"] for _, r in self.timed) / slow}
        m["peak_rss_mib"] = max(
            r["peak_rss_kib"] for s in self.codec for r in (s.enc, s.dec)) / 1024
        m["peak_rss_mib.ranked"] = max(
            r["peak_rss_kib"] for s in self.codec if s.scheme in RANKED
            for r in (s.enc, s.dec)) / 1024
        for scheme in SCHEMES:
            samples = self.samples(scheme)
            bits = sum(s.bits for s in samples)
            m[f"encode_mbps.{key(scheme)}"] = (
                slow * bits / sum(s.enc["op_s"] for s in samples) / 1e6)
            m[f"decode_mbps.{key(scheme)}"] = (
                slow * bits / sum(s.dec["op_s"] for s in samples) / 1e6)
        wire = self.wire("proposed-fl")
        m["wire_bits_per_info_bit.proposed_fl"] = wire.frame_bits / wire.info_bits
        m["tables_s"] = statistics.fmean(total for total, _ in self.tables) / slow
        m["selfcheck_s"] = statistics.fmean(r["op_s"] for r in self.selfchecks) / slow
        return m

    def per_layer(self) -> dict[str, float]:
        def spans(results, name, field_="self_s"):
            return sum(r["spans"].get(name, {}).get(field_, 0) for r in results)

        def root(results):
            return sum(r["spans"]["cli.main"]["total_s"] for r in results)

        m: dict[str, float] = {}
        encs = [s.enc for s in self.codec]
        decs = [s.dec for s in self.codec]
        blocks = sum(s.wire.blocks for s in self.codec)
        m["cli.encode.self_share"] = spans(encs, "cli.encode") / root(encs)
        m["cli.decode.self_share"] = spans(decs, "cli.decode") / root(decs)
        m["stream.frame.self_us_per_block"] = 1e6 * spans(encs, "stream.frame") / blocks
        m["stream.deframe.self_us_per_block"] = 1e6 * spans(decs, "stream.deframe") / blocks
        per_block = []
        for scheme in SCHEMES:
            wire = self.wire(scheme)
            m[f"stream.wire_bits_per_info_bit.{key(scheme)}"] = wire.frame_bits / wire.info_bits
            m[f"stream.prefix_bits_per_block.{key(scheme)}"] = wire.prefix_bits / wire.blocks
            per_block.append(wire.framing_bits / wire.blocks)
            if scheme in PREFIXLESS:
                m[f"stream.prefixless_share.{key(scheme)}"] = wire.prefixless / wire.blocks
        m["stream.framing_bits_per_block"] = statistics.fmean(per_block)
        fbi = "words.first_balancing_index"
        for scheme in SCHEMES:
            samples = self.samples(scheme)
            n = sum(s.wire.blocks for s in samples)
            enc = [s.enc for s in samples]
            dec = [s.dec for s in samples]
            if scheme in RANKED:
                m[f"subsets.encode_packet.self_us_per_block.{key(scheme)}"] = (
                    1e6 * spans(enc, "subsets.encode_packet") / n)
                m[f"subsets.decode_packet.self_us_per_block.{key(scheme)}"] = (
                    1e6 * spans(dec, "subsets.decode_packet") / n)
                m[f"{fbi}.calls_per_block.{key(scheme)}.dec"] = spans(dec, fbi, "calls") / n
            m[f"{fbi}.calls_per_block.{key(scheme)}.enc"] = spans(enc, fbi, "calls") / n
            if scheme == "knuth":
                m["knuth.ka_encode.self_us_per_block"] = 1e6 * spans(enc, "knuth.ka_encode") / n
            if scheme == "proposed-full":
                m["fourb6b.full_encode.self_us_per_block"] = (
                    1e6 * spans(enc, "fourb6b.full_encode") / n)
                m["fourb6b.full_decode.self_us_per_block"] = (
                    1e6 * spans(dec, "fourb6b.full_decode") / n)
        calls = spans(encs + decs, fbi, "calls")
        m[f"{fbi}.us_per_call"] = 1e6 * spans(encs + decs, fbi, "total_s") / calls if calls else 0.0

        tables = self.tables[0][1]  # every pass computes the same tables
        m["counting.trace_closed_walks.calls"] = spans(
            tables, "counting.trace_closed_walks", "calls")
        m["counting.trace_closed_walks.distinct_args"] = spans(
            tables, "counting.trace_closed_walks", "distinct_args")
        every_table = [r for _, results in self.tables for r in results]
        counting = sum(spans(every_table, name) for name in SPANS if name.startswith("counting."))
        m["counting.self_share"] = counting / root(every_table)
        m["redundancy.self_share"] = (
            spans(every_table, "redundancy.emit_tables") / root(every_table))
        m["counting.subset_size_count_bruteforce.self_s"] = statistics.median(
            spans([r], "counting.subset_size_count_bruteforce") for r in self.selfchecks)
        m["subsets.subset_members.calls"] = spans(
            self.selfchecks[:1], "subsets.subset_members", "calls")
        m["import.mpmath_s"] = self.mpmath_import_s()
        traced = [r for _, r in self.timed if "plain_op_s" in r]
        overhead = sum(r["op_s"] - r["plain_op_s"] for r in traced)
        m["trace.overhead_s"] = overhead
        m["trace.overhead_share"] = overhead / sum(r["plain_op_s"] for r in traced)
        return m

    def mpmath_import_s(self, repeats: int = 5) -> float:
        """Median cumulative mpmath import time under ``-X importtime``; 0 if not imported."""
        times = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import balpack.cli"],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
            found = 0.0
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "mpmath":
                    found = int(parts[1]) * 1e-6
            times.append(found)
        return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "balpack" / "cli.py").is_file():
        print(f"perfbench: no balpack sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    workdir = BUILD / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        bench = Bench(args.workload, args.seed, bool(args.trace), workdir,
                      json.loads(DIGESTS.read_text()))
        bench.check_reference()
        bench.measure(args.seconds)
        try:
            values = bench.per_layer() if args.trace else bench.end_to_end()
        except (ArithmeticError, IndexError, KeyError, statistics.StatisticsError) as exc:
            bench.problem(f"metrics could not be computed: {exc!r}")
            values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            bench.problem(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        print(f"{metric['name']:<58} {values[metric['name']]:>14.6g} {metric['unit']}")
    extra = sorted(set(values) - set(metrics))
    if extra:
        bench.problem(f"measured metrics missing from BENCHMARK.json: {extra}")
    if bench.timed and not args.trace:
        print(f"machine slowdown {bench.slowdown()!r}: times divided and rates "
              f"multiplied by its square root; the control loop took a median "
              f"{bench.slowdown() * CONTROL_NOMINAL_S:.6f} s against {CONTROL_NOMINAL_S} s")
    print(f"{args.workload}: {bench.failed} of {bench.attempted} operations failed")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
