"""Quiver-layer tests: construction from dissections, gentleness, components,
cycles, relation chains, isomorphism, canonical forms."""

from __future__ import annotations

import random
import time

import pytest
from networkx import DiGraph
from networkx.algorithms.isomorphism import DiGraphMatcher

from conftest import all_dissections, oriented_cycles, small_range
from mcw.algebra import (
    AlgebraError,
    canonical_form,
    canonical_key,
    components,
    full_relation_cycles,
    is_gentle,
    iso_quivers,
    max_relation_chain,
    opposite,
    quiver,
    quiver_of,
)
from mcw.geometry import diagonal, dissection
from mcw.normalform import NormalFormSpec, build_normal_form


def test_pentagon_fan_is_a2():
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    # vertex order follows sorted diagonals: 0 = d(0,2), 1 = d(0,3)
    assert q.vertex_count == 2
    assert q.arrow_pairs() == {(0, 1)}
    assert q.relations == frozenset()


def test_ten_gon_chain_with_one_relation():
    q = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    # vertices: 0 = d(0,3), 1 = d(3,6), 2 = d(6,9); arrows run clockwise
    assert q.arrow_pairs() == {(2, 1), (1, 0)}
    assert q.relation_triples() == {(2, 1, 0)}


def test_named_renames_the_arrow_pairs_and_relation_triples():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:20]:
            q = quiver_of(t)
            assert q.named(range(q.vertex_count)) == (q.arrow_pairs(), q.relation_triples())
    q = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    a, b, c = diagonal(0, 3), diagonal(3, 6), diagonal(6, 9)
    assert q.named((a, b, c)) == ({(c, b), (b, a)}, {(c, b, a)})
    assert q.named("xyz") == ({("z", "y"), ("y", "x")}, {("z", "y", "x")})


def test_twelve_gon_inner_quadrilateral_full_cycle():
    q = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    # vertices: 0 = d(0,3), 1 = d(0,9), 2 = d(3,6), 3 = d(6,9)
    assert q.arrow_pairs() == {(1, 3), (3, 2), (2, 0), (0, 1)}
    report = oriented_cycles(q)
    assert len(report.cycles) == 1
    cyc = report.cycles[0]
    assert len(cyc) == 4 and cyc.full_relations
    assert report.full_count == 1


def test_hexagon_triangle_full_relations():
    q = quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)]))
    report = oriented_cycles(q)
    assert [len(c) for c in report.cycles] == [3]
    assert report.cycles[0].full_relations
    assert len(q.relations) == 3


def test_tree_quiver_has_no_cycles():
    q = quiver(1, 3, [(0, 1), (2, 1)])
    assert oriented_cycles(q).cycles == ()


def test_gentle_spec_cases():
    assert is_gentle(quiver(1, 2, [(0, 1)])).ok
    three_out = quiver(1, 4, [(0, 1), (0, 2), (0, 3)])
    rep = is_gentle(three_out)
    assert not rep.ok and "out-arrows" in rep.problem
    two_free = quiver(1, 3, [(0, 1), (1, 2), (1, 0)])
    assert not is_gentle(two_free).ok


def test_gentle_on_sampled_dissections():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:30]:
            q = quiver_of(t)
            assert is_gentle(q).ok, t


def test_components_spec_example():
    t = dissection(3, 2, [(0, 3), (5, 8)])
    q = quiver_of(t)
    comps = components(q)
    assert len(comps) == 2
    assert all(c.quiver.arrows == () for c in comps)
    assert [c.vertices for c in comps] == [(0,), (1,)]


def test_components_partition_and_labels():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:20]:
            q = quiver_of(t)
            comps = components(q)
            all_verts = sorted(v for c in comps for v in c.vertices)
            assert all_verts == list(range(q.vertex_count))
            assert sum(len(c.quiver.arrows) for c in comps) == len(q.arrows)
            assert sum(len(c.quiver.relations) for c in comps) == len(q.relations)
            # Component vertex i is parent vertex c.vertices[i], and so the
            # diagonal t.diagonals[c.vertices[i]].
            for c in comps:
                back = c.vertices
                assert {(back[a], back[b]) for a, b in c.quiver.arrow_pairs()} <= q.arrow_pairs()
                assert {
                    (back[a], back[b], back[e]) for a, b, e in c.quiver.relation_triples()
                } <= q.relation_triples()


def filtered_components(q):
    """The components by filtering every arrow and relation once per
    component: the quadratic oracle of the one-pass split."""
    groups: dict[int, list[int]] = {}
    adjacent = {v: {v} for v in range(q.vertex_count)}
    for a in q.arrows:
        adjacent[a.source].add(a.target)
        adjacent[a.target].add(a.source)
    seen: set[int] = set()
    for v in range(q.vertex_count):
        if v not in seen:
            stack, groups[v] = [v], []
            seen.add(v)
            while stack:
                w = stack.pop()
                groups[v].append(w)
                stack.extend(x for x in adjacent[w] if x not in seen)
                seen.update(adjacent[w])
    out = []
    for verts in map(sorted, groups.values()):
        index = {v: i for i, v in enumerate(verts)}
        ids = [a.id for a in q.arrows if a.source in index]
        arrs = [(index[q.arrows[i].source], index[q.arrows[i].target]) for i in ids]
        pos = {i: k for k, i in enumerate(ids)}
        rels = [(pos[f], pos[s]) for f, s in q.relations if f in pos]
        out.append((quiver(q.m, len(verts), arrs, rels), tuple(verts)))
    return out


def random_quiver(rng: random.Random):
    """A quiver of up to 12 vertices with random arrows and, among the
    composable pairs, random relations."""
    k = rng.randint(0, 12)
    pairs = [(s, t) for s in range(k) for t in range(k) if s != t]
    arrows = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * k)))
    composable = [
        (i, j) for i, (_, t) in enumerate(arrows) for j, (s, _) in enumerate(arrows) if t == s
    ]
    relations = rng.sample(composable, rng.randint(0, len(composable)))
    return quiver(rng.randint(1, 3), k, arrows, relations)


def test_components_match_the_filtering_oracle():
    rng = random.Random(28)
    quivers = [random_quiver(rng) for _ in range(500)]
    for n, m in [(5, 1), (4, 2), (3, 3)]:
        for t in all_dissections(n, m):
            quivers += [quiver_of(dissection(n, m, list(t.diagonals[::2]))), quiver_of(t)]
    for q in quivers:
        assert [tuple(c) for c in components(q)] == filtered_components(q)


def test_equal_components_share_one_quiver():
    # One quiver object per distinct component value, the first one built,
    # so a repeated component's cached tables and runs are built once.
    rng = random.Random(30)
    quivers = [random_quiver(rng) for _ in range(300)]
    quivers += [quiver_of(t) for t in all_dissections(6, 1)]
    repeated = 0
    for q in quivers:
        comps = components(q)
        assert [tuple(c) for c in comps] == filtered_components(q)
        values = {c.quiver for c in comps}
        assert len({id(c.quiver) for c in comps}) == len(values)
        repeated += len(comps) > len(values)
    assert repeated > 50


def test_components_split_in_linear_time():
    # 50,000 two-vertex components: filtering every arrow once per
    # component took 10 s at 10,000 of them.
    k = 50_000
    q = quiver(1, 2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    start = time.perf_counter()
    comps = components(q)
    assert time.perf_counter() - start < 5
    assert len(comps) == k
    assert set(c.quiver for c in comps) == {quiver(1, 2, [(0, 1)])}
    assert len({id(c.quiver) for c in comps}) == 1
    assert comps[-1].vertices == (2 * k - 2, 2 * k - 1)


def test_max_relation_chain_cases():
    chain = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    assert max_relation_chain(chain) == 1
    free = quiver_of(dissection(3, 2, [(0, 3), (0, 5), (0, 7)]))
    assert max_relation_chain(free) == 0
    # relations on a full cycle do not count
    cycle = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    assert max_relation_chain(cycle) == 0


def test_chain_bound_on_sampled_range():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:30]:
            assert max_relation_chain(quiver_of(t)) <= m - 1


def full_cycle_arrow_sets(q):
    return {frozenset(c.arrows) for c in oriented_cycles(q).cycles if c.full_relations}


def check_runs(q):
    """``q.runs`` partitions the arrows into maximal relation runs whose
    closed members are the full-relation cycles of the oriented-cycle
    search."""
    runs = q.runs
    assert sorted(a for _, run in runs for a in run) == [a.id for a in q.arrows]
    for closed, run in runs:
        steps = list(zip(run, run[1:] + run[:1] if closed else run[1:]))
        assert all(r in q.relations for r in steps)
        if not closed:
            assert not any(second == run[0] for _, second in q.relations)
            assert not any(first == run[-1] for first, _ in q.relations)
    assert [min(run) for _, run in runs] == sorted(min(run) for _, run in runs)
    assert {frozenset(run) for closed, run in runs if closed} == full_cycle_arrow_sets(q)


def test_runs_on_every_dissection_quiver_up_to_twelve_gons():
    cells = [(n, m) for m in range(1, 11) for n in range(1, 11) if (n + 1) * m + 2 <= 12]
    for n, m in cells:
        for t in all_dissections(n, m):
            q = quiver_of(t)
            check_runs(q)
            # every oriented cycle of a dissection quiver has full relations
            assert {frozenset(run) for run in full_relation_cycles(q)} == {
                frozenset(c.arrows) for c in oriented_cycles(q).cycles
            }


def test_runs_of_small_quivers():
    assert quiver(1, 3, [(0, 1), (2, 1)]).runs == ((False, (0,)), (False, (1,)))
    chain = quiver(2, 4, [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)])
    assert chain.runs == ((False, (0, 1, 2)),)
    triangle = quiver(1, 3, [(1, 2), (0, 1), (2, 0)], [(1, 0), (0, 2), (2, 1)])
    assert triangle.runs == ((True, (0, 1, 2)),)
    assert triangle.full_cycle_count == 1
    assert full_relation_cycles(triangle) == ((0, 1, 2),)
    assert full_relation_cycles(chain) == ()


@pytest.mark.parametrize(
    "arrows,relations,problem",
    [
        ([(0, 1), (1, 2), (1, 3)], [(0, 1), (0, 2)], "arrow 0->1 starts two relations"),
        ([(0, 2), (1, 2), (2, 3)], [(0, 2), (1, 2)], "arrow 2->3 ends two relations"),
    ],
)
def test_runs_refuse_branching_relations(arrows, relations, problem):
    q = quiver(1, 4, arrows, relations)
    with pytest.raises(AlgebraError, match=problem):
        q.runs


def test_iso_identity_and_relabeling():
    q = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    assert iso_quivers(q, q) == (0, 1, 2)
    # image of q under 2 -> 0, 1 -> 2, 0 -> 1
    relabeled = quiver(2, 3, [(0, 2), (2, 1)], [(0, 1)])
    found = iso_quivers(q, relabeled)
    assert found is not None
    # the mapping transports arrows and relations
    pairs = {(found[s], found[t]) for s, t in q.arrow_pairs()}
    assert pairs == relabeled.arrow_pairs()


def test_iso_distinguishes_relation_sets():
    with_rel = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    without = quiver(2, 3, [(0, 1), (1, 2)])
    assert iso_quivers(with_rel, without) is None


def test_two_a3_presentations_are_not_isomorphic():
    chain = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    fan = quiver_of(dissection(3, 2, [(0, 3), (0, 5), (0, 7)]))
    assert chain.arrow_pairs() != fan.arrow_pairs()  # orientations differ
    stripped_chain = quiver(2, 3, list(chain.arrow_pairs()))
    stripped_fan = quiver(2, 3, list(fan.arrow_pairs()))
    assert iso_quivers(stripped_chain, stripped_fan) is not None
    assert iso_quivers(chain, fan) is None


def test_m1_relations_determined_by_quiver():
    for n in (2, 3, 4):
        groups: dict[tuple, list] = {}
        for t in all_dissections(n, 1):
            q = quiver_of(t)
            stripped = quiver(1, q.vertex_count, list(q.arrow_pairs()))
            groups.setdefault(canonical_key(stripped), []).append(q)
        for qs in groups.values():
            for a, b in zip(qs, qs[1:]):
                assert iso_quivers(a, b) is not None


def test_m2_counterexample_exists():
    pairs_seen: dict[tuple, list] = {}
    for t in all_dissections(3, 2):
        q = quiver_of(t)
        stripped = quiver(2, q.vertex_count, list(q.arrow_pairs()))
        pairs_seen.setdefault(canonical_key(stripped), []).append(q)
    assert any(
        iso_quivers(a, b) is None
        for qs in pairs_seen.values()
        for a, b in zip(qs, qs[1:])
    )


def test_quiver_invariant_under_polygon_rotation():
    for n, m in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        N = (n + 1) * m + 2
        for t in all_dissections(n, m)[:15]:
            rotated = dissection(
                n, m, [((d.a + m) % N, (d.b + m) % N) for d in t.diagonals]
            )
            assert iso_quivers(quiver_of(t), quiver_of(rotated)) is not None


def test_arrow_count_matches_corner_incidences():
    from mcw.geometry import faces

    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:25]:
            q = quiver_of(t)
            incidences = 0
            for f in faces(t):
                k = len(f.side_diagonals)
                for j in range(k):
                    if (
                        f.side_diagonals[j - 1] is not None
                        and f.side_diagonals[j] is not None
                    ):
                        incidences += 1
            assert len(q.arrows) == incidences


def test_canonical_key_agrees_with_iso():
    qs = [quiver_of(t) for t in all_dissections(3, 2)[:40]]
    for i, a in enumerate(qs):
        for b in qs[i + 1 : i + 6]:
            same_key = canonical_key(a) == canonical_key(b)
            assert same_key == (iso_quivers(a, b) is not None)


def test_canonical_form_witness_is_a_relabeling():
    q = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    key, perm = canonical_form(q)
    assert sorted(perm) == list(range(q.vertex_count))
    relabeled_pairs = tuple(sorted((perm[s], perm[t]) for s, t in q.arrow_pairs()))
    assert key[1] == relabeled_pairs


def test_opposite_involution():
    q = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    assert opposite(opposite(q)) == q
    assert opposite(q).arrow_pairs() == {(1, 2), (0, 1)}


def test_opposite_keeps_each_inputs_labels():
    # The opposite keeps every vertex, so vertex i still names the input
    # dissection's i-th diagonal, and each arrow joins the same two.
    for t in (
        dissection(3, 2, [(0, 3), (3, 6), (6, 9)]),
        dissection(3, 2, [(0, 3), (0, 6), (0, 9)]),
    ):
        q = quiver_of(t)
        back = opposite(q)
        d = t.diagonals
        assert {(d[s], d[e]) for s, e in back.arrow_pairs()} == {
            (d[e], d[s]) for s, e in q.arrow_pairs()
        }
        assert back.relation_triples() == {(e, b, a) for a, b, e in q.relation_triples()}
        bare = quiver(q.m, q.vertex_count, [(a.source, a.target) for a in q.arrows], q.relations)
        assert opposite(bare) == back


def test_component_count_matches_components():
    # The union-find count, also on partial dissections with several
    # components and on the components themselves.
    for n, m in [(5, 1), (4, 2), (3, 3)]:
        for t in all_dissections(n, m):
            for keep in (t.diagonals, t.diagonals[::2], t.diagonals[1:]):
                q = quiver_of(dissection(n, m, list(keep)))
                comps = components(q)
                assert q.component_count == len(comps)
                assert all(c.quiver.component_count == 1 for c in comps)


def test_constructor_rejects_malformed():
    with pytest.raises(AlgebraError):
        quiver(1, 2, [(0, 0)])  # loop
    with pytest.raises(AlgebraError):
        quiver(1, 2, [(0, 1), (0, 1)])  # parallel
    with pytest.raises(AlgebraError):
        quiver(1, 3, [(0, 1), (2, 1)], [(0, 1)])  # not composable
    with pytest.raises(AlgebraError):
        quiver(1, 2, [(0, 3)])  # vertex out of range


def shuffled(q, rng):
    """The image of q under a random vertex relabeling; arrow ids keep their
    order as written, so relation pairs carry over unchanged."""
    perm = rng.sample(range(q.vertex_count), q.vertex_count)
    arrows = [(perm[a.source], perm[a.target]) for a in q.arrows]
    return quiver(q.m, q.vertex_count, arrows, q.relations)


def fan(s):
    return quiver_of(dissection(s, 1, [(0, j) for j in range(2, s + 2)]))


def cycles(*lengths):
    """Disjoint oriented cycles: every vertex has one arrow in and one out,
    so colour refinement alone splits nothing."""
    arrows, start = [], 0
    for k in lengths:
        arrows += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return quiver(1, start, arrows)


def property_inputs():
    """Every component of a few small cells, normal forms up to s = 60, the
    fans with 18 and 40 diagonals, and cycles that need individualization."""
    qs = [
        c.quiver
        for n, m in [(5, 1), (4, 2), (3, 3)]
        for t in all_dissections(n, m)
        for c in components(quiver_of(t))
    ]
    for m in (1, 2, 3):
        for s in (1, 2, 7, 16, 33, 60):
            top = (s - 1) // (m + 1)
            for r in sorted({0, 1, top // 2, top}):
                if r <= top:
                    qs.append(build_normal_form(NormalFormSpec(s, r, m)))
    return qs + [fan(18), fan(40), cycles(3, 6), cycles(4, 2, 5)]


def test_canonical_form_under_random_relabeling():
    rng = random.Random(2)
    for q in property_inputs():
        moved = shuffled(q, rng)
        assert canonical_key(moved) == canonical_key(q), q
        witness = iso_quivers(q, moved)
        assert witness is not None
        assert sorted(witness) == list(range(q.vertex_count))
        assert {(witness[s], witness[t]) for s, t in q.arrow_pairs()} == moved.arrow_pairs()
        assert {
            (witness[a], witness[b], witness[c]) for a, b, c in q.relation_triples()
        } == moved.relation_triples()


def as_digraph(q):
    """Arrows as edges between vertex nodes; each relation triple as an
    extra node with edges to its first, middle and last vertex."""
    g = DiGraph()
    g.add_nodes_from((("v", v) for v in range(q.vertex_count)), kind="vertex")
    g.add_edges_from(((("v", a.source), ("v", a.target)) for a in q.arrows), role="arrow")
    for i, triple in enumerate(sorted(q.relation_triples())):
        g.add_node(("r", i), kind="relation")
        for role, v in enumerate(triple):
            g.add_edge(("r", i), ("v", v), role=role)
    return g


def networkx_isomorphic(a, b):
    return DiGraphMatcher(
        as_digraph(a),
        as_digraph(b),
        node_match=lambda x, y: x["kind"] == y["kind"],
        edge_match=lambda x, y: x["role"] == y["role"],
    ).is_isomorphic()


def test_iso_and_canonical_key_agree_with_networkx():
    rng = random.Random(3)
    by_size: dict[tuple[int, int], list] = {}
    for n, m in [(4, 1), (3, 2), (4, 2), (3, 3)]:
        for t in all_dissections(n, m):
            for c in components(quiver_of(t)):
                by_size.setdefault((c.quiver.vertex_count, len(c.quiver.arrows)), []).append(c.quiver)
    pairs = rng.sample([(a, b) for qs in by_size.values() for a, b in zip(qs, qs[1:])], 300)
    pairs += [(a, shuffled(a, rng)) for a, _ in pairs[:60]]
    pairs += [(cycles(9), cycles(3, 6)), (cycles(3, 6), cycles(3, 3, 3)), (cycles(6, 3), cycles(3, 6))]
    verdicts = []
    for a, b in pairs:
        expected = networkx_isomorphic(a, b)
        assert (iso_quivers(a, b) is not None) == expected, (a, b)
        assert (canonical_key(a) == canonical_key(b)) == expected, (a, b)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
