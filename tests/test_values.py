"""Value semantics of the package's immutable records.

Each record compares and hashes as the tuple of its fields, refuses
assignment, keeps the repr that reaches output and error messages, and
validates in its constructor.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mcw
from conftest import all_dissections
from mcw.algebra import (
    AlgebraError,
    Arrow,
    Component,
    GentleReport,
    QuiverWithRelations,
    components,
    quiver,
    quiver_of,
)
from mcw.geometry import (
    Diagonal,
    Dissection,
    Face,
    GeometryError,
    PolygonParams,
    ValidationResult,
    dissection,
    faces,
)
from mcw.homology import (
    DerivedInvariant,
    HomologyError,
    IntMatrix,
    SmithNormalForm,
    smith_normal_form,
)
from mcw.mutation import MoveRecord, MutationError, RealizabilityReport
from mcw.normalform import NormalFormError, NormalFormSpec, ReductionTrace, reduce_component

FAN = dissection(3, 1, [(0, 2), (0, 3), (0, 4)])
PATH = quiver(1, 3, [(0, 1), (1, 2)])
INV = DerivedInvariant(3, 0, (1, 1, 1), (0, 0))


def plain(value):
    """``value`` with every tuple inside it, records included, made a plain
    tuple: two plain forms compare with no ``__eq__`` of the package."""
    if type(value) is frozenset:
        return frozenset(map(plain, value))
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def _value_pools() -> dict[str, list]:
    ts = all_dissections(3, 1) + all_dissections(3, 2)
    invariants = [
        DerivedInvariant(s, r, snf, parity)
        for s, r in ((3, 0), (3, 1))
        for snf in ((1, 1, 1), (1, 1, 2), (1, 1, 0))
        for parity in ((0, 0), (1, 0), (0, 1))
    ]
    return {
        "Face": [f for t in ts for f in faces(t)],
        "DerivedInvariant": invariants,
        "QuiverWithRelations": [c.quiver for t in ts for c in components(quiver_of(t))],
        "MoveRecord": [
            MoveRecord(kind, site, before, after)
            for kind in ("plus", "minus")
            for site in ((0,), (1,))
            for before in invariants
            for after in invariants
            if before == after
        ],
        "Dissection": ts,
    }


@pytest.mark.parametrize(
    "kind", ["Face", "DerivedInvariant", "QuiverWithRelations", "MoveRecord", "Dissection"]
)
def test_every_value_compares_and_hashes_as_its_tuple(kind):
    # Faces from enumerated dissections share corners under other side
    # tags, invariants share (s, r) under other Smith forms and parities,
    # and each value is rebuilt once, so equal and unequal pairs both occur.
    pool = _value_pools()[kind]
    values = pool + [type(v)(*v) for v in pool]
    forms = [plain(v) for v in values]
    for a, form_a in zip(values, forms):
        for b, form_b in zip(values, forms):
            assert (a == b) is (form_a == form_b) and (a != b) is (form_a != form_b), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_importing_the_cli_builds_no_dataclass():
    # Every mcw process executes each layer its command runs, and a frozen
    # dataclass costs about 1 ms to build; the value types are tuples
    # instead.  The layers are lazy modules, so each is executed here by
    # reading from it.
    src = Path(mcw.__file__).resolve().parents[1]
    code = (
        "import sys, mcw, mcw.cli\n"
        "for name in mcw._LAYERS: vars(getattr(mcw, name))\n"
        "assert 'dataclasses' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    for name in mcw.__all__:
        assert getattr(mcw, name) is not None, name
    from mcw import reduce

    assert reduce is mcw.normalform.reduce
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        mcw.missing


def assert_equal_values(x, y) -> None:
    assert x == y and not x != y and hash(x) == hash(y)


def assert_frozen(value, *fields: str) -> None:
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


# --- geometry ---------------------------------------------------------------


def test_polygon_params_values():
    p = PolygonParams(3, 1)
    assert_equal_values(p, PolygonParams(n=3, m=1))
    assert p != PolygonParams(3, 2) and p != PolygonParams(2, 1)
    assert (p.n, p.m, p.N) == (3, 1, 6)
    assert repr(p) == "PolygonParams(n=3, m=1)"
    assert_frozen(p, "n", "m")
    for n, m in ((0, 1), (1, 0), (-2, -3)):
        with pytest.raises(GeometryError, match=rf"need n >= 1 and m >= 1, got n={n}, m={m}"):
            PolygonParams(n, m)


def test_dissection_values():
    # The constructor sorts and de-duplicates its diagonals.
    t = Dissection(PolygonParams(3, 1), (Diagonal(0, 4), Diagonal(0, 2), Diagonal(0, 3), Diagonal(0, 2)))
    assert t.diagonals == (Diagonal(0, 2), Diagonal(0, 3), Diagonal(0, 4))
    assert type(t.diagonals) is tuple
    assert_equal_values(t, FAN)
    assert_equal_values(t, Dissection(params=PolygonParams(3, 1), diagonals=FAN.diagonals))
    assert FAN != dissection(3, 1, [(0, 2), (0, 3), (3, 5)])
    assert FAN != Dissection(PolygonParams(4, 1), FAN.diagonals)
    assert repr(FAN) == "Dissection(n=3, m=1, {d(0,2), d(0,3), d(0,4)})"
    assert_frozen(FAN, "params", "diagonals")
    with pytest.raises(GeometryError, match=r"d\(0,9\) out of range for a 6-gon"):
        dissection(3, 1, [(0, 2), (0, 9)])
    with pytest.raises(GeometryError, match=r"d\(-1,2\) out of range for a 6-gon"):
        Dissection(PolygonParams(3, 1), (Diagonal(-1, 2),))


def test_dissection_holds_only_its_tuple_and_pickles():
    t = dissection(4, 1, [(0, 2), (0, 3), (3, 5), (0, 5)])
    faces(t)
    assert not hasattr(t, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(t, protocol))
        assert type(back) is Dissection and back == t and hash(back) == hash(t)
        assert repr(back) == repr(t) and not hasattr(back, "__dict__")
        assert faces(back) == faces(t)


def test_face_values():
    f = faces(FAN)[0]
    assert repr(f) == "Face(corners=(0, 2, 1), side_diagonals=(0, None, None))"
    assert_equal_values(f, Face(corners=(0, 2, 1), side_diagonals=(0, None, None)))
    assert f != Face((0, 2, 1), (None, None, None))
    assert f != Face((0, 3, 2), (0, None, None))
    assert_frozen(f, "corners", "side_diagonals")


def test_validation_result_values():
    ok = ValidationResult(True)
    assert (ok.ok, ok.problem, ok.detail) == (True, None, None)
    assert_equal_values(ok, ValidationResult(ok=True, problem=None, detail=None))
    bad = ValidationResult(False, "crossing", "d(0,3) crosses d(1,4)")
    assert bad != ok and bad != ValidationResult(False, "crossing", "other")
    assert repr(ok) == "ValidationResult(ok=True, problem=None, detail=None)"
    assert repr(bad) == (
        "ValidationResult(ok=False, problem='crossing', detail='d(0,3) crosses d(1,4)')"
    )
    assert_frozen(bad, "ok", "problem", "detail")


# --- algebra ----------------------------------------------------------------


def test_quiver_values_ignore_labels():
    # A quiver is its four fields: the diagonals that name a dissection's
    # vertices are not part of it, so a turned fan and a bare path give
    # the same value.
    q = quiver_of(FAN)
    assert tuple(q) == (1, 3, q.arrows, q.relations)
    assert_equal_values(q, quiver(1, 3, [(0, 1), (1, 2)]))
    assert_equal_values(q, quiver_of(dissection(3, 1, [(1, 3), (1, 4), (1, 5)])))
    with pytest.raises(TypeError):
        QuiverWithRelations(1, 3, q.arrows, q.relations, FAN.diagonals)
    assert q != quiver(2, 3, [(0, 1), (1, 2)])
    assert q != quiver(1, 3, [(1, 0), (1, 2)])
    assert q != quiver(1, 3, [(0, 1), (1, 2)], [(0, 1)])
    assert q != quiver(1, 4, [(0, 1), (1, 2)])
    assert repr(q) == "Quiver(m=1, V=3, arrows=[0->1, 1->2], relations=[])"
    cyc = quiver(1, 3, [(1, 2), (0, 1), (2, 0)], [(1, 0), (0, 2), (2, 1)])
    assert repr(cyc) == (
        "Quiver(m=1, V=3, arrows=[0->1, 1->2, 2->0], relations=[(0, 1), (1, 2), (2, 0)])"
    )
    assert_frozen(q, "m", "vertex_count", "arrows", "relations")


def test_quiver_normalizes_arrow_ids():
    q = QuiverWithRelations(1, 3, (Arrow(5, 1, 2), Arrow(9, 0, 1)), frozenset({(9, 5)}))
    assert q.arrows == (Arrow(0, 0, 1), Arrow(1, 1, 2))
    assert q.relations == frozenset({(0, 1)})
    assert type(q.arrows) is tuple and type(q.relations) is frozenset
    assert_equal_values(q, quiver(1, 3, [(0, 1), (1, 2)], [(0, 1)]))


@pytest.mark.parametrize(
    "arrows, relations, message",
    [
        ((Arrow(0, 0, 1), Arrow(0, 1, 2)), (), "duplicate arrow ids"),
        ((Arrow(0, 0, 3),), (), r"arrow Arrow\(id=0, source=0, target=3\) out of vertex range"),
        ((Arrow(0, 1, 1),), (), "loop at vertex 1"),
        ((Arrow(0, 0, 1), Arrow(1, 0, 1)), (), "parallel arrows 0->1"),
        ((Arrow(0, 0, 1),), ((0, 4),), r"relation \(0,4\) references missing arrow"),
        ((Arrow(0, 0, 1), Arrow(1, 0, 2)), ((0, 1),), r"relation \(0,1\) is not composable"),
    ],
)
def test_quiver_constructor_refusals(arrows, relations, message):
    with pytest.raises(AlgebraError, match=message):
        QuiverWithRelations(1, 3, arrows, frozenset(relations))


def test_arrow_ids_are_positions_after_renumbering():
    # Arrows given out of (source, target) order, with ids that are not
    # positions, are renumbered so that an arrow's id is its position;
    # relations follow their arrows.
    pairs = [(3, 4), (0, 1), (2, 3), (1, 2), (4, 0), (0, 2)]
    order = [4, 0, 5, 2, 3, 1]
    arrows = tuple(Arrow(10 + i, *pairs[i]) for i in order)
    q = QuiverWithRelations(1, 5, arrows, frozenset({(13, 12), (12, 10)}))
    assert [(a.source, a.target) for a in q.arrows] == sorted(pairs)
    for a in q.arrows:
        assert q.arrows[a.id] is a
    assert q.relation_triples() == {(1, 2, 3), (2, 3, 4)}


def test_quiver_caches_and_pickles():
    q = quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)]))
    runs = q.runs
    assert q.runs is runs
    assert q.full_cycle_count == 1 and q.component_count == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(q, protocol))
        assert type(back) is QuiverWithRelations and back == q and hash(back) == hash(q)
        assert repr(back) == repr(q)
        assert back.runs == runs and back.out_arrows == q.out_arrows
    bare = quiver(1, 2, [(0, 1)])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(bare, protocol))
        assert back == bare and hash(back) == hash(bare)


def test_gentle_report_values():
    ok = GentleReport(True)
    assert ok.problem is None
    assert_equal_values(ok, GentleReport(ok=True, problem=None))
    assert ok != GentleReport(False, "x") and GentleReport(False, "x") != GentleReport(False, "y")
    assert repr(GentleReport(False, "vertex 0 has more than two out-arrows")) == (
        "GentleReport(ok=False, problem='vertex 0 has more than two out-arrows')"
    )
    assert_frozen(ok, "ok", "problem")


def test_component_values():
    comp = components(quiver_of(FAN))[0]
    assert_equal_values(comp, Component(quiver=PATH, vertices=(0, 1, 2)))
    assert comp != Component(PATH, (0, 1, 3)) and comp != Component(quiver(1, 3, [(0, 1)]), (0, 1, 2))
    assert repr(comp) == (
        "Component(quiver=Quiver(m=1, V=3, arrows=[0->1, 1->2], relations=[]), vertices=(0, 1, 2))"
    )
    assert_frozen(comp, "quiver", "vertices")


# --- homology ---------------------------------------------------------------


def test_int_matrix_values():
    m = IntMatrix(((1, 1), (0, 1)))
    assert_equal_values(m, IntMatrix([[1, 1], [0, 1]]))
    assert_equal_values(m, IntMatrix(rows=((1, 1), (0, 1))))
    assert type(IntMatrix([[1, 1], [0, 1]]).rows) is tuple
    assert all(type(row) is tuple for row in IntMatrix([[1, 1], [0, 1]]).rows)
    assert m != IntMatrix(((1, 0), (0, 1)))
    assert (m.size, m[0, 1], m[1, 0]) == (2, 1, 0)
    assert repr(m) == "IntMatrix(rows=((1, 1), (0, 1)))"
    assert_frozen(m, "rows")
    with pytest.raises(HomologyError, match="matrix must be square"):
        IntMatrix(((1, 2),))
    with pytest.raises(HomologyError, match=r"matrix entries must be int, got 1\.5 \(float\)"):
        IntMatrix(((1, 1.5), (0, 1)))


def test_smith_normal_form_values():
    snf = smith_normal_form(IntMatrix(((2, 0), (0, 3))))
    assert snf.diagonal == (1, 6)
    assert_equal_values(snf, SmithNormalForm(d=snf.d, u=snf.u, v=snf.v))
    assert snf != SmithNormalForm(snf.d, snf.v, snf.u)
    assert repr(snf) == (
        "SmithNormalForm(d=IntMatrix(rows=((1, 0), (0, 6))), "
        "u=IntMatrix(rows=((1, 1), (3, 2))), v=IntMatrix(rows=((-1, 3), (1, -2))))"
    )
    assert_frozen(snf, "d", "u", "v")


def test_derived_invariant_values():
    assert INV.cycle_parity_counts == DerivedInvariant(3, 0, (1, 1, 1)).cycle_parity_counts == (0, 0)
    assert_equal_values(INV, DerivedInvariant(s=3, r=0, snf=(1, 1, 1), cycle_parity_counts=(0, 0)))
    assert INV != DerivedInvariant(3, 0, (9,), (0, 0)) and INV != DerivedInvariant(3, 0, (1, 1, 1), (5, 5))
    assert INV != DerivedInvariant(3, 1, (1, 1, 1)) and INV != DerivedInvariant(4, 0, (1, 1, 1, 1))
    assert hash(INV) == hash((3, 0, (1, 1, 1), (0, 0)))
    assert repr(INV) == "DerivedInvariant(s=3, r=0, snf=(1, 1, 1), cycle_parity_counts=(0, 0))"
    assert_frozen(INV, "s", "r", "snf", "cycle_parity_counts")


# --- mutation ---------------------------------------------------------------


def test_move_record_values():
    rec = MoveRecord("plus", (0,), INV, INV)
    assert_equal_values(rec, MoveRecord(kind="plus", site=(0,), invariant_before=INV, invariant_after=INV))
    assert rec != MoveRecord("minus", (0,), INV, INV) and rec != MoveRecord("plus", (1,), INV, INV)
    assert repr(rec) == (
        "MoveRecord(kind='plus', site=(0,), "
        f"invariant_before={INV!r}, invariant_after={INV!r})"
    )
    assert_frozen(rec, "kind", "site", "invariant_before", "invariant_after")
    with pytest.raises(MutationError, match="unknown move kind 'turn'"):
        MoveRecord("turn", (0,), INV, INV)
    after = DerivedInvariant(3, 0, (1, 1, 2), (0, 0))
    with pytest.raises(
        MutationError,
        match=(
            r"accepted minus move at \(2,\) changed the invariant: "
            r"DerivedInvariant\(s=3, r=0, snf=\(1, 1, 1\), cycle_parity_counts=\(0, 0\)\) -> "
            r"DerivedInvariant\(s=3, r=0, snf=\(1, 1, 2\), cycle_parity_counts=\(0, 0\)\)"
        ),
    ):
        MoveRecord("minus", (2,), INV, after)


@pytest.mark.parametrize("parity", [(1, 0), (0, 1)])
def test_move_record_refuses_a_parity_change(parity):
    # The two invariants agree in s, r and the Smith form; a record compares
    # them as values, so the parity counts count too.
    after = DerivedInvariant(3, 0, (1, 1, 1), parity)
    with pytest.raises(MutationError) as refused:
        MoveRecord("plus", (0,), INV, after)
    assert str(refused.value) == (
        f"accepted plus move at (0,) changed the invariant: {INV!r} -> {after!r}"
    )


def test_realizability_report_values():
    ok = RealizabilityReport(True, ())
    assert_equal_values(ok, RealizabilityReport(ok=True, problems=()))
    assert ok != RealizabilityReport(False, ("x",))
    assert repr(RealizabilityReport(False, ("x",))) == "RealizabilityReport(ok=False, problems=('x',))"
    assert_frozen(ok, "ok", "problems")


# --- normalform -------------------------------------------------------------


def test_normal_form_spec_values():
    spec = NormalFormSpec(7, 2, 1)
    assert_equal_values(spec, NormalFormSpec(s=7, r=2, m=1))
    assert spec != NormalFormSpec(7, 2, 2) and spec != NormalFormSpec(7, 1, 1)
    assert spec.tail_length == 2 and NormalFormSpec(4, 0, 3).tail_length == 4
    assert repr(spec) == "NormalFormSpec(s=7, r=2, m=1)"
    assert_frozen(spec, "s", "r", "m")
    for args, message in (
        ((3, 0, 0), "level m must be positive, got 0"),
        ((0, 0, 1), r"need r >= 0 and s >= 1, got \(s=0, r=0\)"),
        ((3, -1, 1), r"need r >= 0 and s >= 1, got \(s=3, r=-1\)"),
        ((4, 2, 1), "2 chained 3-cycles need at least 5 vertices, got 4"),
    ):
        with pytest.raises(NormalFormError, match=message):
            NormalFormSpec(*args)


def test_reduction_trace_values():
    trace = reduce_component(PATH)
    assert_equal_values(trace, ReductionTrace((), PATH, (0, 1, 2), ()))
    assert trace != ReductionTrace((), PATH, (2, 1, 0), ())
    assert repr(trace) == (
        "ReductionTrace(steps=(), final=Quiver(m=1, V=3, arrows=[0->1, 1->2], "
        "relations=[]), iso_witness=(0, 1, 2), phases=())"
    )
    assert_frozen(trace, "steps", "final", "iso_witness", "phases")
    rec = MoveRecord("plus", (0,), INV, INV)
    with pytest.raises(NormalFormError, match="1 steps but 0 phase labels"):
        ReductionTrace((rec,), PATH, (0, 1, 2), ())
    with pytest.raises(NormalFormError, match=r"unknown phase labels \['sweep'\]"):
        ReductionTrace((rec,), PATH, (0, 1, 2), ("sweep",))
