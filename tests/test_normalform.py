"""Normal-form layer tests: construction, vertex classification, the
reduction search, tail utilities, and the equivalence decision."""

from __future__ import annotations

from collections import deque

import pytest

import mcw.normalform

from conftest import all_dissections, small_range
from mcw.algebra import (
    canonical_key,
    components,
    full_relation_cycles,
    iso_quivers,
    quiver,
    quiver_of,
)
from mcw.geometry import CapExceeded, dissection
from mcw.homology import derived_invariant
from mcw.mutation import apply_mutation, is_realizable
from mcw.normalform import (
    NormalFormError,
    NormalFormSpec,
    build_normal_form,
    classify_vertices,
    connector_position,
    derived_equivalent,
    linearize_tail,
    reduce,
    _fingerprint,
    _search_script,
    _successors,
    reduce_component,
    remove_tail_relation,
    step_cap,
)


def replay(q, records):
    for rec in records:
        q = apply_mutation(q, rec.kind, rec.site)
    return q


# --- construction ------------------------------------------------------------


def test_normal_form_triangle():
    nf = build_normal_form(NormalFormSpec(3, 1, 1))
    assert nf.arrow_pairs() == {(0, 1), (1, 2), (2, 0)}
    assert len(nf.relations) == 3
    assert full_relation_cycles(nf).full_count == 1


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
    assert full_relation_cycles(nf).full_count == 2


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
                assert full_relation_cycles(nf).full_count == r
                assert is_realizable(nf), (s, r, m)


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


def test_connector_positions():
    assert [connector_position(m) for m in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_classify_role_counts():
    # B-count is floor(m/2); A gets the rest; two connectors per cycle.
    for m in (1, 2, 3, 4):
        nf = build_normal_form(NormalFormSpec(m + 2, 1, m))
        (cycle,) = full_relation_cycles(nf).cycles
        roles = classify_vertices(cycle, m)
        counts = {role: 0 for role in ("A", "B", "connector")}
        for role in roles.values():
            counts[role] += 1
        assert counts["connector"] == 2
        assert counts["B"] == m // 2
        assert counts["A"] == m + 2 - 2 - m // 2


def test_classify_four_cycle_roles():
    nf = build_normal_form(NormalFormSpec(4, 1, 2))
    (cycle,) = full_relation_cycles(nf).cycles
    assert classify_vertices(cycle, 2) == {
        0: "connector", 1: "B", 2: "connector", 3: "A",
    }


def test_classify_rejects_non_matching_cycles():
    triangle = build_normal_form(NormalFormSpec(3, 1, 1))
    (cycle,) = full_relation_cycles(triangle).cycles
    with pytest.raises(NormalFormError, match="full-relation"):
        classify_vertices(cycle, 2)
    hollow = quiver(1, 3, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2)])
    (hollow_cycle,) = full_relation_cycles(hollow).cycles
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


def reference_search(q, target_key, cap):
    """The reduction search without the exact-repeat skip: every successor
    goes through canonical labeling."""

    if canonical_key(q) == target_key:
        return []
    seen = {canonical_key(q)}
    queue = deque([(q, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= cap:
            continue
        for kind, site, nxt in _successors(state):
            key = canonical_key(nxt)
            if key in seen:
                continue
            step = path + [(kind, site)]
            if key == target_key:
                return step
            seen.add(key)
            queue.append((nxt, step))
    raise AssertionError("reference search found no script")


def test_repeat_skip_keeps_every_search_script():
    inputs = {
        comp.quiver
        for n, m in [(5, 1), (4, 2), (3, 3)]
        for t in all_dissections(n, m)
        for comp in components(quiver_of(t))
    }
    for q in sorted(inputs, key=repr):
        inv = derived_invariant(q)
        target = canonical_key(build_normal_form(NormalFormSpec(inv.s, inv.r, q.m)))
        cap = step_cap(inv.s, q.m)
        assert _search_script(q, target, cap) == reference_search(q, target, cap)


def test_fingerprint_tells_labeled_quivers_apart():
    chain = quiver(1, 3, [(0, 1), (1, 2)])
    # Arrows are stored sorted, and vertex labels are not part of a quiver.
    assert _fingerprint(chain) == _fingerprint(quiver(1, 3, [(1, 2), (0, 1)]))
    labelled = components(quiver_of(dissection(3, 1, [(0, 2), (0, 3), (0, 4)])))[0].quiver
    assert labelled == chain
    assert _fingerprint(labelled) == _fingerprint(chain)
    others = [
        quiver(1, 3, [(0, 1), (1, 2)], [(0, 1)]),
        quiver(1, 3, [(1, 0), (1, 2)]),
        quiver(1, 3, [(0, 1)]),
        quiver(1, 3, [(0, 1), (0, 2)]),
    ]
    assert len({_fingerprint(q) for q in [chain, *others]}) == 5
    # Indices past one byte stay distinct.
    wide = [quiver(1, 300, [(0, 299)]), quiver(1, 300, [(0, 298)]), quiver(1, 300, [(43, 0)])]
    assert len({_fingerprint(q) for q in wide}) == 3


def test_search_stops_at_the_cap(monkeypatch):
    # Two moves from its normal form; a cap of one prunes the second level.
    q = components(quiver_of(dissection(4, 1, [(0, 2), (0, 3), (3, 6), (4, 6)])))[0].quiver
    monkeypatch.setattr(mcw.normalform, "_SCRIPTS", {})
    with pytest.raises(CapExceeded, match="more than the cap of 1 steps; 1 states expanded"):
        reduce_component(q, cap=1)
    assert mcw.normalform._SCRIPTS == {}, "a capped failure must not be memoized"
    assert len(reduce_component(q, cap=2).steps) == 2
    # The memoized two-step script is refused under a smaller cap before replay.
    with pytest.raises(CapExceeded, match="needs 2 steps, over the cap of 1"):
        reduce_component(q, cap=1)


# --- tail utilities ----------------------------------------------------------


def test_linearize_tail_already_uniform():
    q = quiver(2, 3, [(0, 1), (1, 2)])
    assert linearize_tail(q, (0, 1, 2)) == []


def test_linearize_tail_alternating_a4():
    q = quiver(1, 4, [(0, 1), (2, 1), (2, 3)])
    moves = linearize_tail(q, (0, 1, 2, 3))
    assert moves, "expected a non-empty reorientation"
    assert all(mv.site != (0,) for mv in moves), "protected endpoint mutated"
    final = replay(q, moves)
    assert final.arrow_pairs() == {(0, 1), (1, 2), (2, 3)}
    assert final.relations == frozenset()


def test_linearize_tail_wrong_direction_at_free_end():
    q = quiver(2, 3, [(0, 1), (2, 1)])
    final = replay(q, linearize_tail(q, (0, 1, 2)))
    assert final.arrow_pairs() == {(0, 1), (1, 2)}


def test_linearize_tail_rejects_bad_input():
    with_rel = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    with pytest.raises(NormalFormError, match="relation"):
        linearize_tail(with_rel, (0, 1, 2))
    branching = quiver(2, 4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(NormalFormError, match="off the path"):
        linearize_tail(branching, (0, 1, 2))
    gap = quiver(2, 3, [(0, 1)])
    with pytest.raises(NormalFormError, match="not joined"):
        linearize_tail(gap, (0, 2, 1))


def test_remove_tail_relation_single():
    q = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    moves = remove_tail_relation(q, 2)
    assert moves
    final = replay(q, moves)
    assert len(final.relations) == len(q.relations) - 1
    assert derived_invariant(final) == derived_invariant(q)


def test_remove_tail_relation_empty_when_clean():
    q = quiver(2, 3, [(0, 1), (1, 2)])
    assert remove_tail_relation(q, 2) == []


def test_remove_tail_relation_validates_endpoint():
    q = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    with pytest.raises(NormalFormError, match="not a leaf"):
        remove_tail_relation(q, 1)
    triangle = build_normal_form(NormalFormSpec(3, 1, 1))
    with pytest.raises(NormalFormError, match="on a cycle"):
        remove_tail_relation(triangle, 0)


def test_remove_tail_relation_sweeps_clear_a_chain():
    state = quiver(
        4, 5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)]
    )
    sweeps = 0
    while state.relations:
        leaves = [
            v
            for v in range(state.vertex_count)
            if len(state.in_arrows[v]) + len(state.out_arrows[v]) == 1
        ]
        moves = next(
            (mv for mv in map(lambda v: remove_tail_relation(state, v), leaves) if mv),
            None,
        )
        assert moves is not None, state
        state = replay(state, moves)
        sweeps += 1
    assert sweeps == 3


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


def test_equivalence_flags_smith_form_disagreement():
    # Same (s, r) with different Smith forms cannot happen for genuine
    # dissection components; force it with an off-class odd cycle.
    even = build_normal_form(NormalFormSpec(4, 1, 2))
    odd = quiver(
        2, 4, [(0, 1), (1, 2), (2, 0), (0, 3)], [(0, 1), (1, 2), (2, 0)]
    )
    with pytest.raises(NormalFormError, match="Smith forms differ"):
        derived_equivalent(even, odd)
