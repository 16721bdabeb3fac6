"""Normal-form layer tests: construction, vertex classification, the
three reduction phases, the step cap, reductions well past exhaustive
sizes, and the equivalence decision."""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import mcw.algebra
import mcw.mutation
import mcw.normalform

from conftest import Cycle, all_dissections, oriented_cycles, small_range
from mcw.algebra import (
    QuiverWithRelations,
    components,
    is_gentle,
    iso_quivers,
    quiver,
    quiver_of,
)
from mcw.geometry import CapExceeded, dissection
from mcw.homology import cartan_matrix, derived_invariant
from mcw.mutation import (
    MutationError,
    apply_mutation,
    realizability_report,
    record_move,
)
from mcw.normalform import (
    PHASES,
    NormalFormError,
    NormalFormSpec,
    build_normal_form,
    connector_position,
    derived_equivalent,
    reduce,
    reduce_component,
    step_cap,
)
from mcw.serialize import dissection_from_json, dumps, quiver_from_json, trace_to_json

DATA = Path(__file__).parent / "data"


def replay(q, records):
    for rec in records:
        q = apply_mutation(q, rec.kind, rec.site)
    return q


def directed_path_from(q, start):
    """The vertices of q as one directed path leaving ``start``, or None."""
    path = [start]
    while len(q.out_arrows[path[-1]]) == 1 and len(path) <= q.vertex_count:
        path.append(q.out_arrows[path[-1]][0].target)
    whole = len(path) == q.vertex_count == len(set(path)) == len(q.arrows) + 1
    return path if whole and not q.out_arrows[path[-1]] else None


# --- construction ------------------------------------------------------------


def test_normal_form_triangle():
    nf = build_normal_form(NormalFormSpec(3, 1, 1))
    assert nf.arrow_pairs() == {(0, 1), (1, 2), (2, 0)}
    assert len(nf.relations) == 3
    assert oriented_cycles(nf).full_count == 1


def test_normal_form_single_four_cycle():
    nf = build_normal_form(NormalFormSpec(4, 1, 2))
    assert nf.arrow_pairs() == {(0, 1), (1, 2), (2, 3), (3, 0)}
    assert len(nf.relations) == 4


def test_normal_form_linear():
    nf = build_normal_form(NormalFormSpec(4, 0, 2))
    assert nf.arrow_pairs() == {(0, 1), (1, 2), (2, 3)}
    assert nf.relations == frozenset()


def test_normal_form_two_chained_triangles():
    # Cycles share the first cycle's connector (position 1 for m = 1).
    nf = build_normal_form(NormalFormSpec(5, 2, 1))
    assert nf.arrow_pairs() == {
        (0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1),
    }
    assert len(nf.relations) == 6
    assert oriented_cycles(nf).full_count == 2


def test_normal_form_cycle_with_tail():
    nf = build_normal_form(NormalFormSpec(6, 1, 2))
    assert nf.arrow_pairs() == {(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)}
    assert len(nf.relations) == 4


def test_normal_form_structure_on_grid():
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            for extra in (0, 1, 3):
                s = max(1, r * (m + 1) + 1) + extra
                spec = NormalFormSpec(s, r, m)
                assert spec.tail_length == (extra if r else s)
                nf = build_normal_form(spec)
                assert nf.vertex_count == s
                assert oriented_cycles(nf).full_count == r
                assert realizability_report(nf).ok, (s, r, m)


def test_normal_form_infeasible():
    with pytest.raises(NormalFormError, match="positive"):
        NormalFormSpec(3, 1, 0)
    with pytest.raises(NormalFormError, match="s >= 1"):
        NormalFormSpec(0, 0, 2)
    with pytest.raises(NormalFormError, match="at least"):
        NormalFormSpec(4, 2, 1)
    with pytest.raises(NormalFormError):
        NormalFormSpec(3, -1, 1)


# --- vertex classification ---------------------------------------------------


def classify_vertices(cycle: Cycle, m: int) -> dict[int, str]:
    """Vertex roles around one normal-form cycle, as the proof names them.

    The cycle's stored rotation designates the entry connector: position 0.
    Walking along the orientation, positions 1..floor(m/2) are type B, the
    next position is the exit connector, and the remaining positions are
    type A.  Connectors belong to neither region.
    """

    if len(cycle) != m + 2 or not cycle.full_relations:
        raise NormalFormError(
            f"vertex classification needs a full-relation {m + 2}-cycle"
        )
    conn = connector_position(m)
    roles: dict[int, str] = {}
    for pos, v in enumerate(cycle.vertices):
        if pos == 0 or pos == conn:
            roles[v] = "connector"
        elif pos < conn:
            roles[v] = "B"
        else:
            roles[v] = "A"
    return roles


def test_connector_positions():
    assert [connector_position(m) for m in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_classify_role_counts():
    # B-count is floor(m/2); A gets the rest; two connectors per cycle.
    for m in (1, 2, 3, 4):
        nf = build_normal_form(NormalFormSpec(m + 2, 1, m))
        (cycle,) = oriented_cycles(nf).cycles
        roles = classify_vertices(cycle, m)
        counts = {role: 0 for role in ("A", "B", "connector")}
        for role in roles.values():
            counts[role] += 1
        assert counts["connector"] == 2
        assert counts["B"] == m // 2
        assert counts["A"] == m + 2 - 2 - m // 2


def test_classify_four_cycle_roles():
    nf = build_normal_form(NormalFormSpec(4, 1, 2))
    (cycle,) = oriented_cycles(nf).cycles
    assert classify_vertices(cycle, 2) == {
        0: "connector", 1: "B", 2: "connector", 3: "A",
    }


def test_classify_rejects_non_matching_cycles():
    triangle = build_normal_form(NormalFormSpec(3, 1, 1))
    (cycle,) = oriented_cycles(triangle).cycles
    with pytest.raises(NormalFormError, match="full-relation"):
        classify_vertices(cycle, 2)
    hollow = quiver(1, 3, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2)])
    (hollow_cycle,) = oriented_cycles(hollow).cycles
    with pytest.raises(NormalFormError, match="full-relation"):
        classify_vertices(hollow_cycle, 1)


# --- reduction ---------------------------------------------------------------


def test_reduce_zigzag_to_linear():
    t = dissection(3, 1, [(0, 2), (2, 5), (3, 5)])
    q = quiver_of(t)
    assert q.arrow_pairs() == {(1, 0), (1, 2)}
    trace = reduce(t, 0)
    assert 1 <= len(trace.steps) <= step_cap(3, 1)
    target = build_normal_form(NormalFormSpec(3, 0, 1))
    assert iso_quivers(trace.final, target) is not None
    assert replay(q, trace.steps) == trace.final


def test_reduce_normal_form_class_is_a_fixed_point():
    t = dissection(2, 1, [(0, 2), (0, 3)])
    trace = reduce(t, 0)
    assert trace.steps == ()
    assert trace.final == components(quiver_of(t))[0].quiver


def test_reduce_component_out_of_range():
    t = dissection(2, 1, [(0, 2), (0, 3)])
    with pytest.raises(NormalFormError, match="out of range"):
        reduce(t, 3)


def test_reduce_witness_maps_onto_normal_form():
    t = dissection(4, 1, [(0, 2), (0, 3), (0, 5), (3, 5)])
    trace = reduce(t, 0)
    inv = derived_invariant(quiver_of(t))
    target = build_normal_form(NormalFormSpec(inv.s, inv.r, 1))
    w = trace.iso_witness
    mapped_arrows = {(w[a.source], w[a.target]) for a in trace.final.arrows}
    assert mapped_arrows == target.arrow_pairs()
    mapped_rels = {
        (w[a], w[b], w[c]) for a, b, c in trace.final.relation_triples()
    }
    assert mapped_rels == target.relation_triples()


def test_reduce_small_range_terminates_at_normal_form():
    # The full criterion range runs in the acceptance suite.
    for n, m in small_range(4, 2):
        for t in all_dissections(n, m):
            q = quiver_of(t)
            for idx, comp in enumerate(components(q)):
                trace = reduce(t, idx)
                inv = derived_invariant(comp.quiver)
                assert len(trace.steps) <= step_cap(inv.s, m)
                target = build_normal_form(NormalFormSpec(inv.s, inv.r, m))
                assert iso_quivers(trace.final, target) is not None
                assert replay(comp.quiver, trace.steps) == trace.final


def test_reduce_chained_triangles_is_a_fixed_point():
    t = dissection(5, 1, [(0, 2), (2, 4), (0, 4), (4, 6), (0, 6)])
    q = quiver_of(t)
    assert derived_invariant(q) == derived_invariant(
        build_normal_form(NormalFormSpec(5, 2, 1))
    )
    trace = reduce(t, 0)
    assert trace.steps == ()


def test_reduce_bridged_triangles_needs_real_steps():
    # Two full triangles joined by a length-two bridge; the bridge must be
    # reoriented and reattached, so the script is non-trivial.
    t = dissection(
        7, 1, [(0, 2), (2, 4), (0, 4), (5, 7), (7, 9), (5, 9), (4, 9)]
    )
    comp = components(quiver_of(t))[0]
    inv = derived_invariant(comp.quiver)
    assert (inv.s, inv.r) == (7, 2)
    trace = reduce(t, 0)
    assert trace.steps
    assert len(trace.steps) <= step_cap(7, 1)
    target = build_normal_form(NormalFormSpec(7, 2, 1))
    assert iso_quivers(trace.final, target) is not None
    assert replay(comp.quiver, trace.steps) == trace.final


def test_reduce_chained_four_cycles():
    t = dissection(
        7, 2, [(0, 3), (3, 6), (6, 9), (0, 9), (9, 12), (12, 15), (0, 15)]
    )
    inv = derived_invariant(quiver_of(t))
    assert (inv.s, inv.r) == (7, 2)
    trace = reduce(t, 0)
    target = build_normal_form(NormalFormSpec(7, 2, 2))
    assert iso_quivers(trace.final, target) is not None


def test_reduce_is_deterministic():
    t = dissection(3, 1, [(0, 2), (2, 5), (3, 5)])
    first = reduce(t, 0)
    second = reduce(t, 0)
    assert first == second


def test_cap_is_checked_before_each_step():
    # Two triangles joined by a bridge: the chain phase takes several steps.
    t = dissection(7, 1, [(0, 2), (2, 4), (0, 4), (5, 7), (7, 9), (5, 9), (4, 9)])
    q = components(quiver_of(t))[0].quiver
    needed = len(reduce_component(q).steps)
    assert needed > 1
    with pytest.raises(CapExceeded, match=f"more than the cap of {needed - 1} steps"):
        reduce_component(q, cap=needed - 1)
    assert len(reduce_component(q, cap=needed).steps) == needed
    with pytest.raises(CapExceeded, match="more than the cap of 0 steps"):
        reduce_component(q, cap=0)


def test_search_stops_at_the_cap():
    # A cap below the reduction's length stops it before the step that would
    # pass the cap; nothing is remembered between calls, so a completed
    # reduction does not change what a later capped call does.
    q = components(quiver_of(dissection(4, 1, [(0, 2), (0, 3), (3, 6), (4, 6)])))[0].quiver
    with pytest.raises(CapExceeded, match="more than the cap of 1 steps"):
        reduce_component(q, cap=1)
    needed = len(reduce_component(q).steps)
    assert needed >= 2
    assert len(reduce_component(q, cap=needed).steps) == needed
    with pytest.raises(CapExceeded, match="more than the cap of 1 steps"):
        reduce_component(q, cap=1)


def test_normal_form_input_needs_no_cap():
    nf = build_normal_form(NormalFormSpec(9, 2, 2))
    trace = reduce_component(nf, cap=0)
    assert trace.steps == () and trace.phases == ()


# --- the three phases ----------------------------------------------------------


def phases_in_order(trace):
    ranks = [PHASES.index(p) for p in trace.phases]
    return ranks == sorted(ranks)


def test_relations_phase_removes_a_bare_run_whole():
    # A 2-run whose middle vertex carries nothing else goes in one rel_rem.
    q = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    trace = reduce_component(q)
    assert trace.steps[0].kind == "rel_rem"
    assert trace.steps[0].site == (0, 1, 2)
    assert trace.phases[0] == "relations"
    assert set(trace.phases) <= {"relations", "tail"}


def test_relations_phase_drains_a_run_with_an_attached_vertex():
    # 0 -> 1 -> 2 with a relation and 3 -> 1 attached in the middle: the run
    # is not bare, so its relation is handed out to a leaf by plus/minus.
    q = quiver(2, 4, [(0, 1), (1, 2), (3, 1)], [(0, 1)])
    trace = reduce_component(q)
    first = [rec for rec, p in zip(trace.steps, trace.phases) if p == "relations"]
    assert first and all(rec.kind in ("plus", "minus") for rec in first)
    state = replay(q, first)
    assert state.relations == frozenset()
    assert phases_in_order(trace)


def test_chain_phase_brings_bridged_cycles_together():
    t = dissection(7, 1, [(0, 2), (2, 4), (0, 4), (5, 7), (7, 9), (5, 9), (4, 9)])
    q = components(quiver_of(t))[0].quiver
    trace = reduce_component(q)
    chain = [rec for rec, p in zip(trace.steps, trace.phases) if p == "chain"]
    assert chain
    state = replay(q, chain)
    cycles = [set(c.vertices) for c in oriented_cycles(state).cycles if c.full_relations]
    assert len(cycles) == 2 and len(cycles[0] & cycles[1]) == 1
    assert phases_in_order(trace)


def test_tail_phase_alone_orients_a_tree():
    t = dissection(3, 1, [(0, 2), (2, 5), (3, 5)])
    trace = reduce(t, 0)
    assert trace.steps and set(trace.phases) == {"tail"}


def test_every_phase_label_is_known_and_ordered():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m):
            for comp in components(quiver_of(t)):
                trace = reduce_component(comp.quiver)
                assert len(trace.phases) == len(trace.steps)
                assert phases_in_order(trace), (t, trace.phases)


def test_reduction_refuses_unrealizable_input_before_labeling(monkeypatch):
    def never(q):
        raise AssertionError("canonical labeling reached")

    monkeypatch.setattr(mcw.algebra, "canonical_form", never)
    monkeypatch.setattr(mcw.normalform, "canonical_key", never)
    star = quiver(1, 13, [(0, k) for k in range(1, 13)])
    start = time.perf_counter()
    with pytest.raises(NormalFormError, match="not realizable: not gentle"):
        reduce_component(star)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m", [1, 2])
def test_figure_eight_is_refused_by_its_non_full_cycles(m):
    # v -> x -> v -> y -> v with every length-two step a relation: gentle,
    # one closed run that passes v twice, and two non-full 2-cycles.
    q = quiver(m, 3, [(0, 1), (1, 0), (0, 2), (2, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_gentle(q).ok
    assert [closed for closed, _ in q.runs] == [True]
    report = realizability_report(q)
    assert report.problems[0] == "closed relation run through (0, 1, 0, 2) repeats a vertex"
    with pytest.raises(
        NormalFormError, match=r"not realizable: closed relation run through \(0, 1, 0, 2\)"
    ):
        reduce_component(q)


@pytest.mark.parametrize("name", ["found_affine_a3", "found_square_m2"])
def test_unoriented_cycle_is_refused_before_any_move(monkeypatch, name):
    def never(*args):
        raise AssertionError("a move on unrealizable input")

    monkeypatch.setattr(mcw.normalform, "apply_mutation", never)
    q = quiver_from_json(json.loads((DATA / f"{name}.json").read_text()))
    with pytest.raises(NormalFormError, match="not realizable: underlying graph has cycle rank 1"):
        reduce_component(q)


def test_partial_dissection_is_refused_before_any_move(monkeypatch):
    # The pentagon cell of a dissection with 5 of its 7 diagonals gives the
    # oriented 5-cycle with full relations, which no m = 1 dissection has.
    def never(*args):
        raise AssertionError("a move on unrealizable input")

    monkeypatch.setattr(mcw.normalform, "apply_mutation", never)
    t = dissection_from_json(json.loads((DATA / "partial_pentagon_m1.json").read_text()))
    assert len(t.diagonals) == 5 < t.params.n
    with pytest.raises(
        NormalFormError, match=r"not realizable: cycle through \(0, 1, 4, 3, 2\) has length 5"
    ):
        reduce(t)


def test_runs_match_full_cycles_on_every_reduction_state():
    """Along every reduction of 5/2 and 6/1, each state's closed runs are the
    full-relation cycles of the oriented-cycle search, by arrow set."""
    states = 0
    for n, m in ((5, 2), (6, 1)):
        for t in all_dissections(n, m):
            for comp in components(quiver_of(t)):
                q = comp.quiver
                for rec in (None, *reduce_component(q).steps):
                    if rec is not None:
                        q = apply_mutation(q, rec.kind, rec.site)
                    closed = {frozenset(run) for full, run in q.runs if full}
                    cycles = oriented_cycles(q).cycles
                    assert closed == {frozenset(c.arrows) for c in cycles if c.full_relations}
                    states += 1
    assert states > 5000


def test_reduction_refuses_a_disconnected_quiver():
    with pytest.raises(NormalFormError, match="one component"):
        reduce_component(quiver(1, 3, [(0, 1)]))


# --- reductions past exhaustive sizes ------------------------------------------


def random_dissection(rng, n, m):
    """A random maximal dissection of the (m(n+1)+2)-gon into (m+2)-gons, by
    the splitting scheme of the benchmark's generator: each step picks the
    cell on the closing side of a sub-polygon, whose m+1 gaps are 1 mod m
    and sum to the arc.  Returns the sorted diagonals."""
    size = m * (n + 1) + 2
    diagonals = []
    stack = [tuple(range(size))]
    while stack:
        poly = stack.pop()
        spare = (len(poly) - m - 2) // m
        cuts = sorted(rng.randint(0, spare) for _ in range(m))
        corners = [0]
        for lo, hi in zip([0] + cuts, cuts + [spare]):
            corners.append(corners[-1] + 1 + m * (hi - lo))
        for i, j in zip(corners, corners[1:]):
            if j - i >= 2:
                diagonals.append((poly[i], poly[j]))
                stack.append(poly[i : j + 1])
    return sorted(diagonals)


def largest_component(n, m, seed):
    t = dissection(n, m, random_dissection(random.Random(seed), n, m))
    return max((c.quiver for c in components(quiver_of(t))), key=lambda q: q.vertex_count)


def check_trace(q, trace):
    """Replay every step, re-derive its MoveRecord, and match the end."""
    state = q
    for rec in trace.steps:
        moved = apply_mutation(state, rec.kind, rec.site)
        again = record_move(rec.kind, rec.site, state, moved)
        assert again == rec and again.invariant_after.snf == rec.invariant_after.snf
        state = moved
    assert state == trace.final
    inv = derived_invariant(q)
    target = build_normal_form(NormalFormSpec(inv.s, inv.r, q.m))
    assert iso_quivers(state, target) is not None


# sha256 of each sampled reduction's trace JSON.  A change that alters
# reduce output on purpose re-pins these and says so in CHANGES.md.
SAMPLED_TRACE_DIGESTS = {
    (20, 1, 0): "8391d200a7b1f9a26b4c3105f7d967090558c27b07ac4befe5b1de50de369247",
    (40, 1, 0): "2686589fbd36e6bca6e0eade7580493f24c8de3bc8c89f8d1026af558722a506",
    (30, 2, 0): "f84d110e1a7eee2dd99f2255fe9b813b3a341ee05c543b1caad512044323f805",
    (60, 2, 1): "8f51b7006f0fa65e9e93b88c9d61f6c393686b42cd5438f6d3de80f4de755425",
}


@pytest.mark.parametrize(
    "n,m,seed,size",
    [(20, 1, 0, 20), (40, 1, 0, 40), (30, 2, 0, 20), (60, 2, 1, 40)],
)
def test_reduce_sampled_components_past_exhaustive_sizes(n, m, seed, size):
    """Each sampled reduction replays through its checks and reproduces its
    pinned trace byte for byte (``SAMPLED_TRACE_DIGESTS``)."""
    q = largest_component(n, m, seed)
    assert q.vertex_count >= size
    start = time.perf_counter()
    trace = reduce_component(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    assert len(trace.steps) <= step_cap(q.vertex_count, m)
    check_trace(q, trace)
    digest = hashlib.sha256(dumps(trace_to_json(trace)).encode()).hexdigest()
    assert digest == SAMPLED_TRACE_DIGESTS[n, m, seed]


def test_m2_reduce_fixture_is_the_sampled_component():
    # CI reduces tests/data/reduce_s41_m2.json for its relation runs; it is
    # the quiver of the (60, 2, 1) case above.
    q = quiver_from_json(json.loads((DATA / "reduce_s41_m2.json").read_text()))
    assert q == largest_component(60, 2, 1) and q.vertex_count == 41


def test_a_failed_check_inside_a_turn_ends_the_reduction(monkeypatch):
    # The turn's move is the only one tried: when its check fails, the
    # reduction stops with the cause rather than trying the other kind.
    q = largest_component(12, 1, 0)
    assert q.vertex_count == 12
    real, calls = mcw.mutation.tilting_mutation_minus, [0]

    def minus(q, v):
        calls[0] += 1
        if calls[0] == 11:
            raise MutationError("injected")
        return real(q, v)

    monkeypatch.setattr(mcw.mutation, "tilting_mutation_minus", minus)
    with pytest.raises(NormalFormError, match=r"phase: minus at \(\d+,\) refused: injected"):
        reduce_component(q)
    assert calls[0] == 11


@pytest.mark.parametrize("n,m", [(20, 1), (30, 2)])
def test_one_cell_picture_per_state(monkeypatch, n, m):
    q = largest_component(n, m, 0)
    real, built = mcw.normalform._Shape.__init__, [0]

    def counting(self, state):
        built[0] += 1
        real(self, state)

    monkeypatch.setattr(mcw.normalform._Shape, "__init__", counting)
    trace = reduce_component(q)
    assert trace.steps
    assert built[0] == len(trace.steps) + 1


def test_one_checked_move_builds_one_result(monkeypatch):
    # A plus step constructs its result only; a minus step also builds the
    # opposite frame its rewrite runs in.  Each step counts one Cartan path
    # walk, the result's: the state's own is the memo's from the step before.
    q = largest_component(20, 1, 0)
    built, per_step = [0], []
    real_new = QuiverWithRelations.__new__
    real_move = mcw.normalform.apply_mutation

    def counting_new(cls, *args):
        built[0] += 1
        return real_new(cls, *args)

    def counting_move(state, kind, site):
        before = built[0]
        moved = real_move(state, kind, site)
        per_step.append((kind, built[0] - before))
        return moved

    monkeypatch.setattr(QuiverWithRelations, "__new__", counting_new)
    monkeypatch.setattr(mcw.normalform, "apply_mutation", counting_move)
    cartan_matrix.cache_clear()
    trace = reduce_component(q)
    assert len(trace.steps) == len(per_step) == 86
    kinds = {kind for kind, _ in per_step}
    assert kinds == {"plus", "minus"}, kinds
    for kind, count in per_step:
        assert count <= (2 if kind == "minus" else 1), (kind, count)
    # The walks: the input state's, then one per step.
    assert cartan_matrix.cache_info().misses <= len(trace.steps) + 1


def test_reduce_sampled_tree_at_s10():
    # An r = 0 component at s = 10: the breadth-first search this reduction
    # replaced ran for over a minute on such trees.
    q = largest_component(10, 1, 75)
    assert derived_invariant(q).r == 0 and q.vertex_count == 10
    start = time.perf_counter()
    trace = reduce_component(q)
    assert time.perf_counter() - start < 5.0
    assert set(trace.phases) <= {"tail"}
    check_trace(q, trace)


# --- tail and relation clean-up through reduce_component ---------------------


def test_linearize_tail_already_uniform():
    q = quiver(2, 3, [(0, 1), (1, 2)])
    trace = reduce_component(q)
    assert trace.steps == () and trace.final == q


def test_linearize_tail_alternating_a4():
    q = quiver(1, 4, [(0, 1), (2, 1), (2, 3)])
    trace = reduce_component(q)
    assert trace.steps and set(trace.phases) == {"tail"}
    # Reversing a stretch re-orders its vertices; the result is a directed
    # path through all four.
    assert any(directed_path_from(trace.final, v) for v in range(4))
    check_trace(q, trace)

    # The same path hanging off a triangle at 0: the tail phase never moves
    # the attachment or the cycle.
    hung = quiver(
        1,
        6,
        [(0, 1), (1, 2), (2, 0), (0, 3), (4, 3), (4, 5)],
        [(0, 1), (1, 2), (2, 0)],
    )
    trace = reduce_component(hung)
    assert trace.steps and set(trace.phases) == {"tail"}
    assert all(rec.site[0] > 2 for rec in trace.steps), "attachment or cycle moved"
    check_trace(hung, trace)


def test_linearize_tail_wrong_direction_at_free_end():
    q = quiver(2, 3, [(0, 1), (2, 1)])
    trace = reduce_component(q)
    assert len(trace.steps) == 1 and trace.phases == ("tail",)
    assert trace.final.arrow_pairs() == {(0, 1), (1, 2)}
    check_trace(q, trace)


def test_remove_tail_relation_single():
    q = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    trace = reduce_component(q)
    dropped = [rec for rec, p in zip(trace.steps, trace.phases) if p == "relations"]
    assert dropped
    state = replay(q, dropped)
    assert len(state.relations) == len(q.relations) - 1
    assert derived_invariant(state) == derived_invariant(q)
    check_trace(q, trace)


def test_remove_tail_relation_empty_when_clean():
    # No relation, so no relations-phase step, whether or not the path
    # needs turning.
    for q in (quiver(2, 3, [(0, 1), (1, 2)]), quiver(2, 4, [(0, 1), (2, 1), (2, 3)])):
        trace = reduce_component(q)
        assert "relations" not in trace.phases
        check_trace(q, trace)


def test_remove_tail_relation_sweeps_clear_a_chain():
    # A run of three relations with bare interior vertices leaves in one
    # rel_rem, before the tail phase orients the path.
    q = quiver(4, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)])
    trace = reduce_component(q)
    dropped = [rec for rec, p in zip(trace.steps, trace.phases) if p == "relations"]
    assert [(rec.kind, rec.site) for rec in dropped] == [("rel_rem", (0, 1, 2, 3, 4))]
    assert replay(q, dropped).relations == frozenset()
    check_trace(q, trace)


# --- equivalence decision ----------------------------------------------------


def test_component_equivalent_to_its_reduction():
    t = dissection(4, 1, [(0, 2), (0, 3), (0, 5), (3, 5)])
    q = quiver_of(t)
    trace = reduce(t, 0)
    assert derived_equivalent(q, trace.final)


def test_equivalence_matches_cycle_count():
    cycle = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    rotated = quiver_of(dissection(4, 2, [(1, 4), (4, 7), (7, 10), (1, 10)]))
    fan = quiver_of(dissection(4, 2, [(0, 3), (0, 5), (0, 7), (0, 9)]))
    assert derived_equivalent(cycle, rotated)
    assert not derived_equivalent(cycle, fan)


def test_equivalence_rejects_mixed_levels():
    a = quiver(1, 2, [(0, 1)])
    b = quiver(2, 2, [(0, 1)])
    with pytest.raises(NormalFormError, match="levels"):
        derived_equivalent(a, b)


def test_equivalence_flags_smith_form_disagreement(monkeypatch):
    # Same (s, r) with different Smith forms cannot happen for genuine
    # dissection components.  The off-class odd cycle that has them is
    # refused by the screen first, so force the disagreement by giving one
    # side the odd cycle's invariant.
    even = build_normal_form(NormalFormSpec(4, 1, 2))
    odd = quiver(
        2, 4, [(0, 1), (1, 2), (2, 0), (0, 3)], [(0, 1), (1, 2), (2, 0)]
    )
    with pytest.raises(NormalFormError, match="not realizable: cycle through"):
        derived_equivalent(even, odd)
    rotated = quiver_of(dissection(4, 2, [(1, 4), (4, 7), (7, 10), (1, 10)]))
    assert derived_equivalent(even, rotated)
    invariant = mcw.normalform.derived_invariant
    monkeypatch.setattr(
        mcw.normalform,
        "derived_invariant",
        lambda q: invariant(odd) if q is rotated else invariant(q),
    )
    with pytest.raises(NormalFormError, match="Smith forms differ"):
        derived_equivalent(even, rotated)


def test_equivalence_refuses_an_unrealizable_component():
    # The pentagon cell of a partial dissection gives the oriented 5-cycle
    # with full relations, (s, r) = (5, 1) like the valid component beside
    # it; the two are not derived equivalent, and the screen names the cycle.
    pentagon = dissection_from_json(
        json.loads((DATA / "partial_pentagon_m1.json").read_text())
    )
    valid = dissection(5, 1, [(0, 2), (2, 4), (0, 4), (4, 6), (4, 7)])
    (bad,) = (c.quiver for c in components(quiver_of(pentagon)))
    (good,) = (c.quiver for c in components(quiver_of(valid)))
    for q in (bad, good):
        assert (derived_invariant(q).s, derived_invariant(q).r) == (5, 1)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(
            NormalFormError, match=r"not realizable: cycle through \(0, 1, 4, 3, 2\) has length 5"
        ):
            derived_equivalent(a, b)
