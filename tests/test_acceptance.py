"""Acceptance gates, one test per numbered criterion.

Each test prints a single "criterion N: PASS ..." line (visible under
``pytest -s``); a failure carries the offending cell or object in its
assertion message.  Criteria 2+3 and 6+7 share one sweep each through
module-scoped fixtures, so the whole file stays within a few minutes.
"""

from __future__ import annotations

import hashlib
import math
import time

import pytest

from conftest import all_dissections, in_moved_order, small_range
from mcw.algebra import canonical_form, components, iso_quivers, opposite, quiver, quiver_of
from mcw.geometry import PolygonParams, apply_move, enumerate_dissections
from mcw.homology import (
    bh_diagonal,
    cartan_matrix,
    cycle_parity_counts,
    derived_invariant,
    determinant,
    happel_hom_dims,
    snf_diagonal,
)
from mcw.mutation import (
    MoveRejected,
    apply_mutation,
    mutation_complex,
    preserves_invariant,
    realizability_report,
    remove_relation_chain,
    rotation_move,
)
from mcw.normalform import (
    NormalFormSpec,
    build_normal_form,
    derived_equivalent,
    reduce_component,
    step_cap,
)
from mcw.serialize import dumps, trace_to_json
from test_mutation import golden_moves

COUNT_RANGE = small_range(6, 4)
MOVE_RANGE = small_range(5, 3)


# --- criterion 1: enumeration counts -----------------------------------------


def _oracle_count(n: int, m: int) -> int:
    """Count maximal dissections by plain backtracking over chords.

    Independent of the geometry module: allowability, crossing, and the
    search are reimplemented from the definitions.
    """

    big_n = m * (n + 1) + 2
    chords = [
        (a, b)
        for a in range(big_n)
        for b in range(a + 2, big_n)
        if (b - a) % m == 1 % m and not (a == 0 and b == big_n - 1)
    ]
    compatible = [0] * len(chords)
    for i, (a, b) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, d = chords[j]
            if not (a < c < b < d or c < a < d < b):
                compatible[i] |= 1 << j
    found = 0

    def extend(allowed: int, need: int) -> None:
        nonlocal found
        if need == 0:
            found += 1
            return
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            extend(allowed & compatible[low.bit_length() - 1], need - 1)

    extend((1 << len(chords)) - 1, n)
    return found


def test_criterion_1_enumeration_counts():
    start = time.time()
    for n, m in COUNT_RANGE:
        closed = math.comb((m + 1) * (n + 1), n) // (n + 1)
        assert _oracle_count(n, m) == closed, (n, m)
        assert len(all_dissections(n, m)) == closed, (n, m)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS - counts match the backtracking oracle and "
        f"(1/(n+1))C((m+1)(n+1),n) on {len(COUNT_RANGE)} cells "
        f"in {elapsed:.1f}s"
    )


# --- criteria 2 and 3: structure and Cartan invariants (one sweep) -----------


@pytest.fixture(scope="module")
def structure_sweep():
    structure_failures: list[str] = []
    homology_failures: list[str] = []
    quivers = 0
    comps = 0
    start = time.time()
    for n, m in COUNT_RANGE:
        for t in all_dissections(n, m):
            q = quiver_of(t)
            quivers += 1
            report = realizability_report(q)
            if report.problems:
                structure_failures.append(f"{t!r}: {report.problems[0]}")
            for comp in components(q):
                comps += 1
                cartan = cartan_matrix(comp.quiver)
                if any(x not in (0, 1) for row in cartan.rows for x in row):
                    homology_failures.append(f"{t!r}: Cartan entry outside {{0, 1}}")
                if snf_diagonal(cartan) != bh_diagonal(comp.quiver):
                    homology_failures.append(f"{t!r}: Smith forms disagree")
                odd, _ = cycle_parity_counts(comp.quiver)
                if determinant(cartan) not in (0, 2**odd):
                    homology_failures.append(f"{t!r}: det(cartan) off-formula")
    return {
        "structure": structure_failures,
        "homology": homology_failures,
        "quivers": quivers,
        "components": comps,
        "elapsed": time.time() - start,
    }


def test_criterion_2_structure_theorems(structure_sweep):
    assert structure_sweep["structure"] == []
    print(
        f"criterion 2: PASS - {structure_sweep['quivers']} quivers gentle "
        f"with full (m+2)-cycles, bounded relation runs, cycle rank = r "
        f"(sweep {structure_sweep['elapsed']:.1f}s)"
    )


def test_criterion_3_cartan_smith_consistency(structure_sweep):
    assert structure_sweep["homology"] == []
    print(
        f"criterion 3: PASS - 0/1 Cartan, snf(cartan) = predicted diagonal "
        f"and det in {{0, 2^oc}} on {structure_sweep['components']} components"
    )


# --- criterion 4: mutation equivalence ----------------------------------------


def test_criterion_4_mutation_matches_geometry_and_happel():
    start = time.time()
    moves = 0
    for n, m in MOVE_RANGE:
        golden = golden_moves(n, m)
        for t in all_dissections(n, m):
            q = quiver_of(t)
            admissible = {
                (d.a, d.b, k)
                for d in t.diagonals
                for k in (1, -1)
                if preserves_invariant(t, d, k)
            }
            key = tuple((d.a, d.b) for d in t.diagonals)
            assert admissible == golden[key], (n, m, t)
            for a, b, k in sorted(admissible):
                d = next(x for x in t.diagonals if (x.a, x.b) == (a, b))
                site = t.diagonals.index(d)
                records, algebra = rotation_move(q, site, k)
                geo = quiver_of(apply_move(t, d, k))
                assert in_moved_order(algebra, t, d, k) == geo, (t, d, k)
                # The records replay to the result, and Happel's prediction
                # holds on every move taken.
                state = q
                for rec in records:
                    assert rec.site == (site,), (t, d, k, rec)
                    frame = opposite(state) if rec.kind == "minus" else state
                    predicted = happel_hom_dims(
                        cartan_matrix(state), site, mutation_complex(frame, site)
                    )
                    state = apply_mutation(state, rec.kind, rec.site)
                    assert cartan_matrix(state) == predicted, (t, d, k, rec.kind)
                assert state == algebra, (t, d, k)
                moves += 1
    print(
        f"criterion 4: PASS - {moves} admissible moves match geometry label "
        f"for label and the alternating-sum Cartan prediction exactly "
        f"({time.time() - start:.1f}s)"
    )


# --- criterion 5: move group law ----------------------------------------------


def test_criterion_5_move_group_law():
    start = time.time()
    cells = [
        (n, m)
        for m in range(1, 7)
        for n in range(1, 12)
        if m * (n + 1) + 2 <= 14
    ]
    pairs = 0
    for n, m in cells:
        for t in enumerate_dissections(PolygonParams(n, m)):
            for d in t.diagonals:
                orbit = [(t, d)]
                cur_t, cur_d = t, d
                for _ in range(m + 1):
                    nxt = apply_move(cur_t, cur_d, 1)
                    gained = set(nxt.diagonals) - set(cur_t.diagonals)
                    cur_d = gained.pop() if gained else cur_d
                    cur_t = nxt
                    orbit.append((cur_t, cur_d))
                assert orbit[m + 1] == (t, d), (n, m, t, d)
                back = apply_move(t, d, -1)
                assert back == orbit[m][0], (n, m, t, d)
                pairs += 1
    print(
        f"criterion 5: PASS - mu^(m+1) = id and mu o mu^(-1) = id on "
        f"{pairs} (dissection, diagonal) pairs with N <= 14 "
        f"({time.time() - start:.1f}s)"
    )


# --- criteria 6 and 7: reduction and the classification (one sweep) ----------


@pytest.fixture(scope="module")
def reduction_sweep():
    failures: list[str] = []
    classes: dict[tuple[int, int, int], dict] = {}
    comps = 0
    total_steps = 0
    digest = hashlib.sha256()
    start = time.time()
    for n, m in MOVE_RANGE:
        for t in all_dissections(n, m):
            for comp in components(quiver_of(t)):
                comps += 1
                inv = derived_invariant(comp.quiver)
                trace = reduce_component(comp.quiver)
                total_steps += len(trace.steps)
                digest.update(dumps(trace_to_json(trace)).encode())
                if len(trace.steps) > step_cap(inv.s, m):
                    failures.append(f"{t!r}: step cap exceeded")
                for rec in trace.steps:
                    before, after = rec.invariant_before, rec.invariant_after
                    if (before.s, before.r, before.snf) != (
                        after.s,
                        after.r,
                        after.snf,
                    ):
                        failures.append(f"{t!r}: step changed (s, r, snf)")
                target = build_normal_form(NormalFormSpec(inv.s, inv.r, m))
                if iso_quivers(trace.final, target) is None:
                    failures.append(f"{t!r}: final form off-target")
                cls = classes.setdefault(
                    (m, inv.s, inv.r), {"keys": set(), "reps": []}
                )
                cls["keys"].add(canonical_form(trace.final)[0])
                if len(cls["reps"]) < 2:
                    cls["reps"].append(comp.quiver)
    return {
        "failures": failures,
        "classes": classes,
        "components": comps,
        "steps": total_steps,
        "digest": digest.hexdigest(),
        "elapsed": time.time() - start,
    }


def test_criterion_6_reduction_terminates_on_normal_form(reduction_sweep):
    assert reduction_sweep["failures"] == []
    assert reduction_sweep["elapsed"] < 300.0
    print(
        f"criterion 6: PASS - {reduction_sweep['components']} components "
        f"reduced in {reduction_sweep['steps']} total steps within cap, "
        f"every step invariant-preserving, finals isomorphic to the normal "
        f"form ({reduction_sweep['elapsed']:.1f}s)"
    )


def test_criterion_6_traces_match_their_pin(reduction_sweep):
    """sha256 over every trace JSON of the sweep, in sweep order.  A change
    that alters reduce output on purpose re-pins it and says so in
    CHANGES.md."""
    pinned = "dfa3c28d53e81be8671e60aec0c8678d70ee26bd47927534a3836ec93c5b89a6"
    assert reduction_sweep["digest"] == pinned


def test_criterion_7_partitions_coincide(reduction_sweep):
    classes = reduction_sweep["classes"]
    for (m, s, r), cls in classes.items():
        assert len(cls["keys"]) == 1, (m, s, r)
    by_level: dict[int, list[tuple[tuple[int, int], dict]]] = {}
    for (m, s, r), cls in classes.items():
        by_level.setdefault(m, []).append(((s, r), cls))
    for m, entries in by_level.items():
        keys = [next(iter(cls["keys"])) for _, cls in entries]
        assert len(set(keys)) == len(keys), f"m={m}: reduce targets collide"
        for i, (pair_i, cls_i) in enumerate(entries):
            if len(cls_i["reps"]) == 2:
                assert derived_equivalent(*cls_i["reps"]), (m, pair_i)
            for pair_j, cls_j in entries[i + 1 :]:
                assert not derived_equivalent(
                    cls_i["reps"][0], cls_j["reps"][0]
                ), (m, pair_i, pair_j)
    print(
        f"criterion 7: PASS - reduce-target, (s, r), and derived_equivalent "
        f"partitions coincide on {len(classes)} classes"
    )


# --- criterion 8: relation-chain removal --------------------------------------


def _candidate_chains(q):
    """Vertex paths eligible for relation-chain removal: each maximal
    zero-run and its >= 2-arrow prefixes (runs on full cycles never qualify
    because every cycle relation has a predecessor)."""

    by_id = {a.id: a for a in q.arrows}
    seconds = {second for _, second in q.relations}
    for first, second in sorted(r for r in q.relations if r[0] not in seconds):
        run = [first, second]
        while True:
            nxt = [s for f, s in q.relations if f == run[-1]]
            if not nxt:
                break
            run.append(nxt[0])
        verts = [by_id[run[0]].source] + [by_id[a].target for a in run]
        for end in range(3, len(verts) + 1):
            yield tuple(verts[:end])


def test_criterion_8_relation_chain_removal():
    checked = 0
    for n, m in MOVE_RANGE:
        for t in all_dissections(n, m):
            for comp in components(quiver_of(t)):
                q = comp.quiver
                base = snf_diagonal(cartan_matrix(q))
                for chain in _candidate_chains(q):
                    try:
                        out = remove_relation_chain(q, chain)
                    except MoveRejected:
                        continue
                    assert snf_diagonal(cartan_matrix(out)) == base, (t, chain)
                    assert len(out.relations) == len(q.relations) - (
                        len(chain) - 2
                    ), (t, chain)
                    checked += 1
    for m in range(1, 5):
        for run in range(2, m + 3):
            s = run + 2
            q = quiver(
                m,
                s,
                [(i, i + 1) for i in range(s - 1)],
                [(i, i + 1) for i in range(run - 1)],
            )
            out = remove_relation_chain(q, tuple(range(run + 1)))
            assert len(out.relations) == len(q.relations) - (run - 1)
            assert snf_diagonal(cartan_matrix(out)) == snf_diagonal(
                cartan_matrix(q)
            )
            checked += 1

    # Non-closure, inward: a quiver violating the structural constraints
    # (a 4-run of relations at m = 4) lands on the relation-free zigzag.
    bad_in = quiver(
        4,
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    assert realizability_report(bad_in).problems
    cleaned = remove_relation_chain(bad_in, (0, 1, 2, 3, 4, 5))
    assert not realizability_report(cleaned).problems
    assert cleaned.relations == frozenset()

    # Non-closure, outward: an in-range move whose output still carries an
    # over-long run, so the image leaves the structural class.
    carrier = quiver(
        4,
        8,
        [(i, i + 1) for i in range(7)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
    )
    moved = remove_relation_chain(carrier, (5, 6, 7))
    problems = realizability_report(moved).problems
    assert any("relation chain" in p for p in problems)
    print(
        f"criterion 8: PASS - snf kept and relation count dropped by "
        f"chain length - 1 on {checked} fixtures; one output violates the "
        f"structural constraints (class not closed)"
    )
