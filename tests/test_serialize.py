"""Round-trip and validation tests for the JSON views."""

from __future__ import annotations

import json
import re
import tracemalloc
from collections import deque

import pytest

import mcw.geometry

from conftest import all_dissections
from mcw.algebra import AlgebraError, quiver, quiver_of
from mcw.geometry import (
    CapExceeded,
    Dissection,
    PolygonParams,
    dissection,
    dissection_tuples,
    fuss_catalan,
)
from mcw.homology import derived_invariant
from mcw.mutation import record_move, tilting_mutation_plus
from mcw.normalform import reduce
from mcw.serialize import (
    SerializeError,
    dissection_from_json,
    dissection_lines,
    dissection_to_json,
    dumps,
    invariant_from_json,
    invariant_to_json,
    move_from_json,
    move_to_json,
    quiver_from_json,
    quiver_to_json,
    trace_from_json,
    trace_to_json,
)


def test_dumps_is_key_sorted():
    assert dumps({"b": 1, "a": [2, 3]}) == '{"a": [2, 3], "b": 1}'


def test_dumps_and_dissection_json_keep_their_text():
    # The shared encoder writes what json.dumps writes with the same options,
    # and a dissection's diagonals serialize as plain integer pairs.
    t = dissection(3, 2, [(3, 0), (6, 3), (6, 9)])
    doc = dissection_to_json(t)
    assert doc["diagonals"] == [[0, 3], [3, 6], [6, 9]]
    assert all(type(pair) is list for pair in doc["diagonals"])
    nested = {"z": {"y": [1, {"b": None, "a": "é"}]}, "x": 1.5, "w": True, **doc}
    for payload in (doc, nested):
        assert dumps(payload) == json.dumps(payload, sort_keys=True, separators=(", ", ": "))
    assert dumps(doc) == '{"diagonals": [[0, 3], [3, 6], [6, 9]], "m": 2, "n": 3}'


def test_dissection_round_trip_exhaustive():
    for t in all_dissections(3, 2):
        assert dissection_from_json(dissection_to_json(t)) == t


@pytest.mark.parametrize(
    "n,m",
    [(n, m) for m in range(1, 7) for n in range(1, 12) if (n + 1) * m + 2 <= 14],
)
def test_dissection_lines_are_the_encoders_text(n, m):
    # Every line enumerate writes, for every dissection with N <= 14, is the
    # encoder's text for that dissection, in the order of dissection_tuples.
    # Loading the line back validates the dissection (about 0.2 ms each), so
    # that runs on the cells of at most 5000 dissections: all but 9/1, 10/1
    # and 11/1.
    p = PolygonParams(n, m)
    tuples = list(dissection_tuples(p))
    assert len(tuples) == fuss_catalan(n, m)
    load_back = len(tuples) <= 5000
    for ds, line in zip(tuples, dissection_lines(p), strict=True):
        t = Dissection(p, ds)
        assert line == dumps(dissection_to_json(t)) + "\n"
        if load_back:
            assert dissection_from_json(json.loads(line)) == t


def test_dissection_lines_write_labels_of_several_digits():
    # The generator's own lines on polygons of 122 and 200 vertices, whose
    # labels have up to three digits, are the encoder's text for the
    # dissections of dissection_tuples, in that order.
    for n, m in [(2, 40), (1, 98)]:
        p = PolygonParams(n, m)
        lines = list(dissection_lines(p))
        assert len(lines) == fuss_catalan(n, m)
        for ds, line in zip(dissection_tuples(p), lines, strict=True):
            t = dissection_from_json(json.loads(line))
            assert t.diagonals == ds and t.params == p
            assert line == dumps(dissection_to_json(t)) + "\n"


def test_dissection_lines_drain_within_the_tuple_bound():
    # 12/1 (742,900 lines) holds no more than the tuple stream's drain test
    # allows: the memoized sub-chain lists hold text instead of tuples.
    tracemalloc.start()
    try:
        deque(dissection_lines(PolygonParams(12, 1)), maxlen=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 10


def test_quiver_round_trip_exhaustive():
    for t in all_dissections(3, 2):
        q = quiver_of(t)
        back = quiver_from_json(quiver_to_json(q))
        assert back == q
        assert back.relation_triples() == q.relation_triples()


def test_invariant_round_trip_keeps_all_fields():
    inv = derived_invariant(quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)])))
    back = invariant_from_json(invariant_to_json(inv))
    assert (back.s, back.r, back.snf, back.cycle_parity_counts) == (
        inv.s,
        inv.r,
        inv.snf,
        inv.cycle_parity_counts,
    )


def test_move_record_round_trip():
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    rec = record_move("plus", (0,), q, tilting_mutation_plus(q, 0))
    back = move_from_json(move_to_json(rec))
    assert back == rec


def test_trace_round_trip():
    trace = reduce(dissection(3, 1, [(0, 2), (2, 5), (3, 5)]), 0)
    assert trace.steps, "fixture should need at least one move"
    assert trace_from_json(trace_to_json(trace)) == trace


def test_trace_json_labels_each_step_with_its_phase():
    trace = reduce(dissection(3, 1, [(0, 2), (2, 5), (3, 5)]), 0)
    doc = trace_to_json(trace)
    assert [step["phase"] for step in doc["steps"]] == list(trace.phases)
    renamed = [{**doc["steps"][0], "phase": "sweep"}] + doc["steps"][1:]
    with pytest.raises(SerializeError, match="unknown phase 'sweep'"):
        trace_from_json({**doc, "steps": renamed})
    unlabeled = [{k: v for k, v in step.items() if k != "phase"} for step in doc["steps"]]
    with pytest.raises(SerializeError, match="missing keys: phase"):
        trace_from_json({**doc, "steps": unlabeled})


def test_shape_errors():
    with pytest.raises(SerializeError, match="missing keys"):
        dissection_from_json({"n": 2, "m": 1})
    with pytest.raises(SerializeError, match="JSON object"):
        quiver_from_json([1, 2, 3])
    with pytest.raises(SerializeError, match="integer pairs"):
        dissection_from_json({"n": 2, "m": 1, "diagonals": [[0, 2, 4]]})


def test_dissection_loader_rejects_malformed_diagonals():
    with pytest.raises(SerializeError, match=r"d\(0,2\) crosses d\(1,3\)"):
        dissection_from_json({"n": 2, "m": 1, "diagonals": [[0, 2], [1, 3]]})
    with pytest.raises(SerializeError, match=r"d\(0,2\) is not 2-allowable"):
        dissection_from_json({"n": 3, "m": 2, "diagonals": [[0, 2]]})
    with pytest.raises(SerializeError, match="out of range"):
        dissection_from_json({"n": 2, "m": 1, "diagonals": [[0, 7]]})
    # Non-crossing partial dissections stay loadable.
    partial = dissection_from_json({"n": 4, "m": 2, "diagonals": [[0, 3], [6, 9]]})
    assert len(partial.diagonals) == 2


def test_dissection_loader_builds_no_cells(monkeypatch):
    # Loading checks chords only: allowability and crossing need no cell walk.
    def unreachable(*args):
        raise AssertionError("cells built while loading")

    monkeypatch.setattr(mcw.geometry, "faces", unreachable)
    monkeypatch.setattr(mcw.geometry, "_arc_cell", unreachable)
    for t in all_dissections(4, 2):
        assert dissection_from_json(dissection_to_json(t)) == t
    with pytest.raises(SerializeError, match=r"d\(0,2\) crosses d\(1,3\)"):
        dissection_from_json({"n": 2, "m": 1, "diagonals": [[0, 2], [1, 3]]})


def test_dissection_loader_reports_constructor_refusals():
    with pytest.raises(
        SerializeError, match=r"^invalid dissection: d\(7,10\) out of range for a 10-gon$"
    ):
        dissection_from_json({"n": 3, "m": 2, "diagonals": [[0, 3], [3, 6], [7, 10]]})
    with pytest.raises(SerializeError, match=r"degenerate chord d\(3,3\)"):
        dissection_from_json({"n": 2, "m": 1, "diagonals": [[3, 3]]})


def test_semantic_errors_come_from_the_constructors():
    # Shape is fine but the content is not; the domain validation runs.
    with pytest.raises(AlgebraError):
        quiver_from_json(
            {"m": 1, "vertices": 2, "arrows": [[0, 1]], "relations": [[0, 5]]}
        )


def test_quiver_relation_indices_survive_unsorted_input():
    # Arrows written out of id order still land on the same relations.
    q = quiver(1, 3, [(1, 2), (0, 1)], [(1, 0)])
    back = quiver_from_json(quiver_to_json(q))
    assert back.relation_triples() == q.relation_triples() == {(0, 1, 2)}


@pytest.mark.parametrize("bad", ["x", "2", 2.0, True, None, [2]])
@pytest.mark.parametrize(
    "load, doc, field",
    [
        (dissection_from_json, {"n": 2, "m": 1, "diagonals": []}, "n"),
        (dissection_from_json, {"n": 2, "m": 1, "diagonals": []}, "m"),
        (quiver_from_json, {"m": 1, "vertices": 2, "arrows": [], "relations": []}, "m"),
        (
            quiver_from_json,
            {"m": 1, "vertices": 2, "arrows": [], "relations": []},
            "vertices",
        ),
        (invariant_from_json, {"s": 1, "r": 0, "snf": [1], "parity": [0, 0]}, "s"),
    ],
    ids=[
        "dissection-n",
        "dissection-m",
        "quiver-m",
        "quiver-vertices",
        "invariant-s",
    ],
)
def test_scalar_fields_must_be_integers(load, doc, field, bad):
    with pytest.raises(SerializeError, match=f"^{field} must be an integer"):
        load({**doc, field: bad})


@pytest.mark.parametrize("bad", [2.9, "2", True])
@pytest.mark.parametrize(
    "load, doc, key",
    [
        (dissection_from_json, {"n": 2, "m": 1, "diagonals": [[0, 2]]}, "diagonals"),
        (quiver_from_json, {"m": 1, "vertices": 3, "arrows": [[0, 2]], "relations": []}, "arrows"),
    ],
    ids=["diagonals", "arrows"],
)
def test_pair_entries_must_be_integers(load, doc, key, bad):
    # A float endpoint used to be truncated: [0, 2.9] loaded as d(0,2).
    with pytest.raises(SerializeError, match=f"^{key} must be a list of integer pairs"):
        load({**doc, key: [[0, bad]]})


@pytest.mark.parametrize(
    "field, bad",
    [
        ("parity", [0, 0, 1]),
        ("parity", [0]),
        ("parity", [0, 1.5]),
        ("parity", "01"),
        ("snf", [1, 1.0]),
        ("snf", ["1"]),
    ],
)
def test_invariant_lists_must_hold_integers(field, bad):
    doc = invariant_to_json(derived_invariant(quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))))
    with pytest.raises(SerializeError, match=f"^{field} must be"):
        invariant_from_json({**doc, field: bad})


@pytest.mark.parametrize("bad", [[0.5], ["0"], [True], 0])
def test_move_site_must_be_an_integer_list(bad):
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    rec = move_to_json(record_move("plus", (0,), q, tilting_mutation_plus(q, 0)))
    with pytest.raises(SerializeError, match="^site must be a list of integers"):
        move_from_json({**rec, "site": bad})


@pytest.mark.parametrize("bad", [5, "foo", "", None, ["plus"], "PLUS"])
def test_move_kind_must_be_a_known_name(bad):
    # A kind used to reach MoveRecord through str(), as a MutationError.
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    rec = move_to_json(record_move("plus", (0,), q, tilting_mutation_plus(q, 0)))
    with pytest.raises(SerializeError, match=f"^unknown move kind {re.escape(repr(bad))}$"):
        move_from_json({**rec, "kind": bad})
    trace = trace_to_json(reduce(dissection(3, 1, [(0, 2), (2, 5), (3, 5)]), 0))
    steps = [{**trace["steps"][0], "kind": bad}] + trace["steps"][1:]
    with pytest.raises(SerializeError, match="^unknown move kind"):
        trace_from_json({**trace, "steps": steps})


@pytest.mark.parametrize(
    "field, value",
    [("snf", [1, 2]), ("parity", [1, 0]), ("parity", [0, 1]), ("r", 1), ("s", 3)],
    ids=["snf", "odd-parity", "even-parity", "r", "s"],
)
def test_a_move_record_must_keep_its_invariant(field, value):
    # Such a record used to reach MoveRecord, a MutationError with exit 1.
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    rec = move_to_json(record_move("plus", (0,), q, tilting_mutation_plus(q, 0)))
    assert rec["before"] == rec["after"] == {"s": 2, "r": 0, "snf": [1, 1], "parity": [0, 0]}
    bad = {**rec, "after": {**rec["after"], field: value}}
    before = invariant_from_json(bad["before"])
    after = invariant_from_json(bad["after"])
    message = (
        r"^accepted plus move at \(0,\) changed the invariant: "
        f"{re.escape(f'{before!r} -> {after!r}')}$"
    )
    with pytest.raises(SerializeError, match=message):
        move_from_json(bad)
    trace = trace_to_json(reduce(dissection(3, 1, [(0, 2), (2, 5), (3, 5)]), 0))
    steps = [{**trace["steps"][0], "before": bad["before"], "after": bad["after"]}]
    steps += trace["steps"][1:]
    with pytest.raises(SerializeError, match="^accepted .* changed the invariant: "):
        trace_from_json({**trace, "steps": steps})


@pytest.mark.parametrize(
    "load, doc, message",
    [
        (
            dissection_from_json,
            {"n": 10**12, "m": 1, "diagonals": [[0, 2]]},
            "a dissection of the 1000000000003-gon (n=1000000000000, m=1) exceeds "
            "the cap of 100000 polygon vertices",
        ),
        (
            dissection_from_json,
            {"n": 2, "m": 33_333, "diagonals": []},
            "a dissection of the 100001-gon (n=2, m=33333) exceeds the cap of 100000 "
            "polygon vertices",
        ),
        (
            quiver_from_json,
            {"m": 1, "vertices": 10**12, "arrows": [], "relations": []},
            "a quiver of 1000000000000 vertices exceeds the cap of 100000 vertices",
        ),
        (
            quiver_from_json,
            {"m": 1, "vertices": 100_001, "arrows": [], "relations": []},
            "a quiver of 100001 vertices exceeds the cap of 100000 vertices",
        ),
    ],
)
def test_loaders_refuse_a_size_past_the_cap(load, doc, message):
    with pytest.raises(CapExceeded) as refused:
        load(doc)
    assert str(refused.value) == message


def test_loaders_take_a_size_at_the_cap():
    assert mcw.geometry.MAX_VERTICES == 100_000
    t = dissection_from_json({"n": 99_997, "m": 1, "diagonals": [[0, 2]]})
    assert t.params.N == 100_000 and t.diagonals == ((0, 2),)
    q = quiver_from_json({"m": 1, "vertices": 100_000, "arrows": [[0, 1]], "relations": []})
    assert q.vertex_count == 100_000


@pytest.mark.parametrize("bad", [[0.5, 1, 2], ["0", 1, 2], [True, 1, 2], 0])
def test_trace_iso_must_be_an_integer_list(bad):
    trace = trace_to_json(reduce(dissection(3, 1, [(0, 2), (2, 5), (3, 5)]), 0))
    with pytest.raises(SerializeError, match="^iso must be a list of integers"):
        trace_from_json({**trace, "iso": bad})
