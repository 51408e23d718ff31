"""The result records: immutable named tuples that compare and hash by
their fields, with their properties read off those fields.  The two
records on a role array (NullDecomposition, PartAnalysis) are not
tuples: every public field is a read-only property, they compare and
hash by their roles (and a part by its kind, root and ids), and their
vertex sets are built on first read and kept."""

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
TWINS = dict(zip(map(id, RECORDS), records()))  # each record built again
ON_ROLES = {
    NullDecomposition: ("roles", "supp", "core", "n_forest_vertices", "nullity", "alpha", "nu"),
    PartAnalysis: ("kind", "root", "roles", "vertices", "supp", "core", "n_vertices"),
}


def name(record):
    return type(record).__name__


def fields(record):
    return ON_ROLES.get(type(record)) or record._fields


def with_other_roles(record):
    """The record with its smallest vertex given another role."""
    roles = bytearray(record.roles)
    v = min(record.vertices if type(record) is PartAnalysis else range(len(roles)))
    roles[v] = roles[v] % 3 + 1
    if type(record) is NullDecomposition:
        return NullDecomposition(bytes(roles))
    return PartAnalysis(record.kind, record.root, sorted(record.vertices), bytes(roles))


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
    for field in fields(record) if type(record) in ON_ROLES else fields(record)[:1]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=name)
def test_a_record_compares_by_its_fields(record):
    twin = TWINS[id(record)]
    assert twin == record and twin is not record
    assert all(getattr(twin, f) == getattr(record, f) for f in fields(record))
    if type(record) in ON_ROLES:
        # Not tuples: they do not unpack.
        with pytest.raises(TypeError):
            tuple(record)
        assert with_other_roles(record) != record
        return
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
    twin = TWINS[id(record)]
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_properties_read_the_fields():
    cycle = find_cycle(TAILED)
    assert cycle == ((0, 1, 2, 3), 4)
    assert cycle.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    d = decompose(P3)
    assert (d.alpha, d.nu, d.nullity) == (2, 1, 1)
    assert d.roles == bytes([1, 2, 1])  # Supp, Core, Supp
    assert (d.supp, d.core, d.n_forest_vertices) == ({0, 2}, {1}, set())
    assert d.supp is d.supp  # built on first read and kept
    assert null_basis(P3).nullity == 1
    assert max_matching(P3).size == 1
    a = analyze(TAILED)
    assert (a.kind, a.witness, a.alpha, a.nu) == ("I", 0, 3, 2)
    pendant, rest = a.parts
    assert a.parts[0].roles is a.parts[1].roles  # one role array for the whole forest
    assert (pendant.kind, pendant.root, pendant.vertices) == ("pendant", 0, {0, 4})
    assert (pendant.supp, pendant.core, pendant.n_vertices) == (set(), set(), {0, 4})
    assert (rest.kind, rest.root, rest.vertices, rest.supp, rest.core) == (
        "rest", None, {1, 2, 3}, {1, 3}, {2}
    )
    assert rest.supp is rest.supp  # built on first read and kept
    assert SweepOutcome({"x": (5, 0)}, {}).ok
    assert not SweepOutcome({"x": (4, 1)}, {}).ok
    report = check_fixture("fig1_T1")
    assert report.ok
    failed = report._replace(rows=report.rows + (CheckRow("extra", False, "1", "2"),))
    assert not failed.ok


# C3 with a two-vertex path hung at each cycle vertex: type II, one
# component part per cycle vertex.
PENDANT_PATHS = Graph(9, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)])


@pytest.mark.parametrize("g", [TAILED, PENDANT_PATHS], ids=["type-I", "type-II"])
def test_a_part_over_a_list_of_its_ids_equals_the_analysis_part(g):
    for part in analyze(g).parts:
        rebuilt = PartAnalysis(part.kind, part.root, sorted(part.vertices), part.roles)
        assert rebuilt == part and hash(rebuilt) == hash(part)
        assert (rebuilt.supp, rebuilt.core, rebuilt.n_vertices) == (
            part.supp, part.core, part.n_vertices
        )


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
