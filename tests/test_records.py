"""The result records: immutable named tuples that compare and hash by
their fields, with their properties read off those fields."""

import pytest

from nulldecomp import (
    CycleInfo,
    Graph,
    Matching,
    NullBasis,
    NullDecomposition,
    PartAnalysis,
    SweepOutcome,
    TypeVerdict,
    UnicyclicAnalysis,
    analyze,
    classify_type,
    decompose,
    find_cycle,
    max_matching,
    null_basis,
)
from nulldecomp.fixtures import CheckRow, FixtureReport, check_fixture

P3 = Graph(3, [(0, 1), (1, 2)])
# C4 with a pendant vertex 4 at 0, which is matched in its tree: type I.
TAILED = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def records():
    """One instance of each record type, built by the code that makes it."""
    a = analyze(TAILED)
    return [
        find_cycle(TAILED),
        decompose(P3),
        classify_type(TAILED),
        a.parts[0],
        a,
        null_basis(P3),
        max_matching(P3),
        SweepOutcome({"x": (1, 0)}, {}),
        check_fixture("fig1_T1").rows[0],
        check_fixture("fig1_T1"),
    ]


RECORDS = records()


def name(record):
    return type(record).__name__


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == {
        CycleInfo,
        NullDecomposition,
        TypeVerdict,
        PartAnalysis,
        UnicyclicAnalysis,
        NullBasis,
        Matching,
        SweepOutcome,
        CheckRow,
        FixtureReport,
    }


@pytest.mark.parametrize("record", RECORDS, ids=name)
def test_a_record_is_immutable_and_holds_no_instance_dict(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=name)
def test_a_record_compares_by_its_fields(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    # Records are tuples: they unpack, and equal the plain tuple of their fields.
    assert record == tuple(getattr(record, f) for f in record._fields)
    changed = record._replace(**{record._fields[-1]: "changed"})
    assert changed != record


@pytest.mark.parametrize(
    "record", [r for r in RECORDS if type(r) is not SweepOutcome], ids=name
)
def test_a_record_hashes_by_its_fields(record):
    assert hash(type(record)(*record)) == hash(record)
    assert len({record, type(record)(*record)}) == 1


def test_properties_read_the_fields():
    cycle = find_cycle(TAILED)
    assert cycle == ((0, 1, 2, 3), 4)
    assert cycle.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    d = decompose(P3)
    assert (d.alpha, d.nu) == (2, 1)
    assert null_basis(P3).nullity == 1
    assert max_matching(P3).size == 1
    a = analyze(TAILED)
    assert (a.kind, a.witness, a.alpha, a.nu) == ("I", 0, 3, 2)
    assert SweepOutcome({"x": (5, 0)}, {}).ok
    assert not SweepOutcome({"x": (4, 1)}, {}).ok
    report = check_fixture("fig1_T1")
    assert report.ok
    failed = report._replace(rows=report.rows + (CheckRow("extra", False, "1", "2"),))
    assert not failed.ok


def test_sweep_outcomes_share_no_stats_dict():
    first, second = SweepOutcome({}, {}), SweepOutcome({}, {})
    assert first.stats == {} and first.stats is not second.stats
    stats = {"type I": 3}
    assert SweepOutcome({}, {}, stats).stats is stats


@pytest.mark.parametrize(
    "vertices, length, message",
    [
        ((0, 1, 2), 4, "cycle length disagrees with vertex tuple"),
        ((0, 1), 2, "cycles have at least three vertices"),
        ((0, 1, 0), 3, "cycle vertices must be distinct"),
    ],
    ids=["length-mismatch", "two-vertices", "repeated-vertex"],
)
def test_cycle_info_refuses_what_is_no_cycle(vertices, length, message):
    with pytest.raises(ValueError, match=message):
        CycleInfo(vertices, length)
