"""The package namespace and the record types it exports."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import balpack
from balpack import invariants
from balpack.counting import CountTable
from balpack.redundancy import RedundancyRow
from balpack.stream import StreamHeader
from balpack.subsets import Packet, Scheme, SubsetListing, subset_members


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
    assert namespace["Packet"] is Packet
    assert {name for name in namespace if name != "__builtins__"} == set(balpack.__all__)
    with pytest.raises(AttributeError):
        balpack.no_such_name
    with pytest.raises(ImportError):
        exec("from balpack import no_such_name", {})


def test_every_module_the_benchmark_tracer_hooks_imports():
    """A traced benchmark run imports each module its spans name and dies if one is gone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {module for sites in tracer.SPANS.values() for module, _ in sites}
    for module in sorted(modules):
        importlib.import_module(module)


RECORDS = [
    (Packet, {"bits": "10011"}),
    (SubsetListing, {"y": "0011", "members": ("1011", "1111"), "includes_balanced": False}),
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


def test_packet_repr_and_validation():
    assert repr(Packet(bits="10011")) == "Packet(bits='10011')"
    assert Packet("10011").bit_length == 5
    for bad in ("", "1021", 5):
        with pytest.raises(ValueError):
            Packet(bad)


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
