"""The package namespace and the record types it exports."""

import copy
import doctest
import importlib
import importlib.util
import pickle
from pathlib import Path

import pytest

import balpack
from balpack import invariants, subsets, words
from balpack.counting import CountTable
from balpack.redundancy import RedundancyRow
from balpack.stream import StreamHeader
from balpack.subsets import Scheme
from balpack.words import subset_members


def test_every_exported_name_is_its_home_modules_object():
    for module, names in balpack._HOMES.items():
        home = importlib.import_module(f"balpack.{module}")
        for name in names:
            assert getattr(balpack, name) is getattr(home, name), name
    assert set(balpack.__all__) <= set(dir(balpack))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from balpack import *", namespace)
    assert namespace["selfcheck"] is invariants.selfcheck
    assert namespace["encode_packet"] is words.encode_packet
    assert {name for name in namespace if name != "__builtins__"} == set(balpack.__all__)
    with pytest.raises(AttributeError):
        balpack.no_such_name
    with pytest.raises(ImportError):
        exec("from balpack import no_such_name", {})


def test_readme_library_example_is_a_passing_doctest():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted and not result.failed


def test_the_codec_kernel_defines_no_string_adapter():
    """Bit strings live in ``words``; ``subsets`` takes and returns integers only."""
    for name in ("check_word", "Packet", "encode_packet", "decode_packet"):
        assert not hasattr(subsets, name), name
    for name in ("Packet", "SubsetListing"):
        assert name not in balpack.__all__ and not hasattr(words, name), name


def tracer_sites():
    """The (module, attribute) pairs the benchmark tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {site for sites in tracer.SPANS.values() for site in sites}


def test_every_module_the_benchmark_tracer_hooks_imports():
    """A traced benchmark run imports each module its spans name and dies if one is gone."""
    for module in sorted({module for module, _ in tracer_sites()}):
        importlib.import_module(module)


#: The tracer sites that resolve.  A missing one only prints "not found" and
#: reads 0 in its per-layer metrics, so moving a name can drop it unnoticed.
LIVE_TRACER_SITES = [
    ("balpack.cli", "_cmd_encode"), ("balpack.cli", "_cmd_decode"),
    ("balpack.cli", "_cmd_tables"), ("balpack.cli", "_cmd_selfcheck"),
    ("balpack.counting", "subset_members"), ("balpack.counting", "subset_size_count"),
    ("balpack.counting", "subset_size_count_bruteforce"),
    ("balpack.counting", "trace_closed_walks"),
]


def test_the_benchmark_tracers_live_hooks_resolve():
    named = tracer_sites()
    dead = [f"{module}.{attr}" for module, attr in LIVE_TRACER_SITES if (module, attr) in named
            and not callable(getattr(importlib.import_module(module), attr, None))]
    assert not dead


RECORDS = [
    (StreamHeader, {"k": 16, "scheme": Scheme.KNUTH, "pad_mode": False,
                    "payload_bit_count": 32}),
    (CountTable, {"k": 4, "counts": {1: 2, 2: 4}}),
    (RedundancyRow, {"k": 4, "h0": 1.0, "h": 0.8, "h1": 1.4, "h2": 0.5}),
    (invariants.CheckResult, {"name": "x", "passed": True, "detail": ""}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_records_are_immutable_values_built_by_keyword(cls, fields):
    record = cls(**fields)
    assert record == cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_records_copy_and_pickle_as_themselves(cls, fields):
    record = cls(**fields)
    assert tuple(record) == tuple(fields.values())
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is cls
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:1])


def test_subset_listing_length_counts_members():
    assert len(subset_members("0011", includes_balanced=True)) == 3
    assert len(subset_members("0011", includes_balanced=False)) == 2


def test_selfcheck_report_is_mutable():
    report = invariants.SelfCheckReport()
    assert report == invariants.SelfCheckReport(entries=[], notes=[])
    report.add("a check", True)
    report.notes.append("a note")
    assert report.entries == [invariants.CheckResult("a check", True)]
    assert report.all_passed and report.notes == ["a note"]
    report.add("another", False, "why")
    assert not report.all_passed
