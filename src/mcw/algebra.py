"""Quivers with relations: construction from a dissection, gentleness
diagnostics, components, relation runs, and exact isomorphism.

A quiver value is immutable and normalized: arrow ids are the positions in
the (source, target)-sorted arrow list, so two equal presentations compare
equal and JSON round-trips are exact.  Relations are stored extensionally as
ordered pairs of arrow ids (alpha, beta), meaning the path "alpha then beta"
is zero.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from typing import Hashable, Iterable, NamedTuple, Sequence

from .geometry import Dissection, faces


class AlgebraError(ValueError):
    """Structurally invalid quiver input."""

    exit_code = 2


class Sealed:
    """Mixin for the quiver, the one tuple-backed value with an instance
    ``__dict__`` (for ``cached_property``): it refuses attribute assignment
    and deletion.  ``cached_property`` and pickle write the ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Arrow(NamedTuple):
    id: int
    source: int
    target: int


class QuiverWithRelations(
    NamedTuple(
        "QuiverWithRelations",
        [
            ("m", int),
            ("vertex_count", int),
            ("arrows", tuple[Arrow, ...]),
            ("relations", frozenset[tuple[int, int]]),
        ],
    ),
    Sealed,
):
    """The tuple (m, vertex_count, arrows, relations), arrows renumbered in
    (source, target) order."""

    def __new__(cls, m, vertex_count, arrows, relations):
        by_pair = sorted(arrows, key=lambda a: (a.source, a.target))
        remap = {a.id: i for i, a in enumerate(by_pair)}
        if len(remap) != len(arrows):
            raise AlgebraError("duplicate arrow ids")
        arrows = tuple(Arrow(i, a.source, a.target) for i, a in enumerate(by_pair))
        seen_pairs = set()
        for a in arrows:
            if not (0 <= a.source < vertex_count and 0 <= a.target < vertex_count):
                raise AlgebraError(f"arrow {a} out of vertex range")
            if a.source == a.target:
                raise AlgebraError(f"loop at vertex {a.source}")
            if (a.source, a.target) in seen_pairs:
                raise AlgebraError(f"parallel arrows {a.source}->{a.target}")
            seen_pairs.add((a.source, a.target))
        for first, second in relations:
            if first not in remap or second not in remap:
                raise AlgebraError(
                    f"relation ({first},{second}) references missing arrow"
                )
        relations = frozenset(
            (remap[first], remap[second]) for first, second in relations
        )
        for first, second in relations:
            if arrows[first].target != arrows[second].source:
                raise AlgebraError(f"relation ({first},{second}) is not composable")
        return tuple.__new__(cls, (m, vertex_count, arrows, relations))

    @cached_property
    def out_arrows(self) -> dict[int, tuple[Arrow, ...]]:
        table: dict[int, list[Arrow]] = {v: [] for v in range(self.vertex_count)}
        for a in self.arrows:
            table[a.source].append(a)
        return {v: tuple(arrs) for v, arrs in table.items()}

    @cached_property
    def in_arrows(self) -> dict[int, tuple[Arrow, ...]]:
        table: dict[int, list[Arrow]] = {v: [] for v in range(self.vertex_count)}
        for a in self.arrows:
            table[a.target].append(a)
        return {v: tuple(arrs) for v, arrs in table.items()}

    @cached_property
    def component_count(self) -> int:
        """Number of connected components, counted by union-find without
        building them; computed once per quiver value."""
        return len(set(_component_roots(self.vertex_count, self.arrows)))

    @cached_property
    def runs(self) -> tuple[tuple[bool, tuple[int, ...]], ...]:
        """The maximal relation runs as ``(closed, arrow ids)``, computed once
        per quiver value.

        Each arrow lies in exactly one run, and consecutive arrows of a run
        compose to a relation; a relation-free arrow is a run of its own.  A
        closed run lists its arrows from the smallest id, and is a
        full-relation cycle unless it passes a vertex twice, a run that
        ``realizability_report`` names and refuses; an open run lists them
        from its first arrow.  Runs are ordered by their smallest arrow id.
        An arrow that starts or ends two relations raises ``AlgebraError``.
        """
        after: dict[int, int] = {}
        before: dict[int, int] = {}
        for first, second in sorted(self.relations):
            for arrow, side, role in ((first, after, "starts"), (second, before, "ends")):
                if arrow in side:
                    a = self.arrows[arrow]
                    raise AlgebraError(
                        f"arrow {a.source}->{a.target} {role} two relations"
                    )
            after[first], before[second] = second, first
        seen: set[int] = set()
        found: list[tuple[bool, tuple[int, ...]]] = []
        for a in self.arrows:
            if a.id in seen:
                continue
            start = a.id
            while start in before:
                start = before[start]
                if start == a.id:
                    break
            run = [start]
            while run[-1] in after and after[run[-1]] != start:
                run.append(after[run[-1]])
            seen.update(run)
            found.append((run[-1] in after, tuple(run)))
        return tuple(found)

    @cached_property
    def full_cycle_count(self) -> int:
        """Number of full-relation cycles: the closed relation runs."""
        return sum(closed for closed, _ in self.runs)

    def arrow_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a.source, a.target) for a in self.arrows)

    def relation_triples(self) -> frozenset[tuple[int, int, int]]:
        """Relations as (start, middle, end) vertex triples; well-defined
        because there is at most one arrow per ordered vertex pair."""
        arrows = self.arrows
        return frozenset(
            (arrows[f].source, arrows[f].target, arrows[s].target)
            for f, s in self.relations
        )

    def named(self, names: Sequence[Hashable]) -> tuple[frozenset[tuple], frozenset[tuple]]:
        """The arrow pairs and relation triples with vertex v named ``names[v]``."""
        return (
            frozenset(tuple(names[v] for v in pair) for pair in self.arrow_pairs()),
            frozenset(tuple(names[v] for v in triple) for triple in self.relation_triples()),
        )

    def __repr__(self) -> str:
        arrs = ", ".join(f"{a.source}->{a.target}" for a in self.arrows)
        return (
            f"Quiver(m={self.m}, V={self.vertex_count}, arrows=[{arrs}], "
            f"relations={sorted(self.relations)})"
        )


def quiver(
    m: int,
    vertex_count: int,
    arrows: Iterable[tuple[int, int]],
    relations: Iterable[tuple[int, int]] = (),
) -> QuiverWithRelations:
    """Build a quiver from (source, target) pairs; relations are given as
    index pairs into the arrow list as written here."""
    arrs = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(arrows))
    return QuiverWithRelations(m, vertex_count, arrs, frozenset(relations))


def quiver_of(t: Dissection) -> QuiverWithRelations:
    """The gentle presentation attached to a dissection: vertex i is the
    diagonal ``t.diagonals[i]``; one arrow per corner of a cell where two
    diagonal sides meet (earlier side to later side in the clockwise
    boundary walk); one zero-relation per composable arrow pair in a cell.
    Arrows are numbered cell by cell as ``faces`` gives the side tags: two
    diagonals consecutive in one cell are consecutive in no other."""
    arrow_list: list[tuple[int, int]] = []
    relation_list: list[tuple[int, int]] = []
    for f in faces(t):
        tags = f.side_diagonals
        # ids[i] is the arrow at the corner from side i to side i+1, if any.
        ids: list[int | None] = [None] * len(tags)
        for i, pair in enumerate(zip(tags, tags[1:] + tags[:1])):
            if None not in pair:
                ids[i] = len(arrow_list)
                arrow_list.append(pair)
        relation_list += [r for r in zip(ids, ids[1:] + ids[:1]) if None not in r]

    return quiver(t.params.m, len(t.diagonals), arrow_list, relation_list)


class GentleReport(NamedTuple):
    ok: bool
    problem: str | None = None


def is_gentle(q: QuiverWithRelations) -> GentleReport:
    """Check the gentle conditions: at most two arrows in and out per vertex,
    and per arrow at most one zero and one nonzero continuation on each side.
    Loops, parallel arrows and non-composable relations are already excluded
    by construction, so an arrow's zero continuations are the relations it
    starts, and the rest of the arrows out of its target are free."""
    for v in range(q.vertex_count):
        if len(q.out_arrows[v]) > 2:
            return GentleReport(False, f"vertex {v} has more than two out-arrows")
        if len(q.in_arrows[v]) > 2:
            return GentleReport(False, f"vertex {v} has more than two in-arrows")
    starts = Counter(first for first, _ in q.relations)
    ends = Counter(second for _, second in q.relations)
    for a in q.arrows:
        zero_next, zero_prev = starts[a.id], ends[a.id]
        if zero_next > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two zero continuations")
        if len(q.out_arrows[a.target]) - zero_next > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two nonzero continuations")
        if zero_prev > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two zero predecessors")
        if len(q.in_arrows[a.source]) - zero_prev > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two nonzero predecessors")
    return GentleReport(True)


class Component(NamedTuple):
    """A connected component, vertices renumbered 0..k-1; vertices[i] is the
    index of component vertex i in the parent quiver."""

    quiver: QuiverWithRelations
    vertices: tuple[int, ...]


def _component_roots(vertex_count: int, arrows: Iterable[Arrow]) -> list[int]:
    """Union-find over ``arrows``: entry v is the smallest vertex of v's
    connected component."""
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in arrows:
        ra, rb = find(a.source), find(a.target)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(vertex_count)]


def components(q: QuiverWithRelations) -> list[Component]:
    """Connected components of the underlying undirected graph, ordered by
    smallest parent vertex; each keeps its vertices and arrows in the
    parent's order.  Vertices, arrows and relations are each bucketed by
    their component's root in one pass, so the split is linear in q.  Equal
    components are one quiver object."""
    roots = _component_roots(q.vertex_count, q.arrows)
    # A root is its component's smallest vertex, so the parts are created
    # in root order.  local[v] and arrow_local[a] are positions in the part.
    parts: dict[int, tuple[list[int], list[tuple[int, int]], list[tuple[int, int]]]] = {}
    local: list[int] = []
    for v, root in enumerate(roots):
        verts = parts.setdefault(root, ([], [], []))[0]
        local.append(len(verts))
        verts.append(v)
    arrow_local: list[int] = []
    for a in q.arrows:
        arrs = parts[roots[a.source]][1]
        arrow_local.append(len(arrs))
        arrs.append((local[a.source], local[a.target]))
    for f, s in q.relations:
        parts[roots[q.arrows[f].source]][2].append((arrow_local[f], arrow_local[s]))
    # Equal components share the first quiver built, and with it its cached
    # tables and runs.
    shared: dict[QuiverWithRelations, QuiverWithRelations] = {}
    comps = []
    for verts, arrs, rels in parts.values():
        c = quiver(q.m, len(verts), arrs, rels)
        comps.append(Component(shared.setdefault(c, c), tuple(verts)))
    return comps


def full_relation_cycles(q: QuiverWithRelations) -> tuple[tuple[int, ...], ...]:
    """The closed relation runs, as arrow-id tuples from each run's smallest
    id, read off ``q.runs`` in linear time; raises ``AlgebraError`` where
    ``runs`` does.  On a realizable quiver these are its oriented cycles."""
    return tuple(run for closed, run in q.runs if closed)


def max_relation_chain(q: QuiverWithRelations) -> int:
    """Length (in relations) of the longest open relation run."""
    return max((len(run) - 1 for closed, run in q.runs if not closed), default=0)


def _refine(
    colours: list[int],
    outs: list[list[int]],
    ins: list[list[int]],
    triples: frozenset[tuple[int, int, int]],
) -> list[int]:
    """Colour refinement to a fixed point.

    A vertex's signature is its colour, the sorted colours of its out- and
    in-neighbours, and its roles (0 first, 1 middle, 2 last) in relation
    triples together with the colours of the other two vertices.  New
    colours are the ranks of the sorted signatures: they do not depend on
    how the vertices are numbered, and a class only ever splits.
    """
    while True:
        roles: list[list[tuple[int, int, int]]] = [[] for _ in colours]
        for a, b, c in triples:
            roles[a].append((0, colours[b], colours[c]))
            roles[b].append((1, colours[a], colours[c]))
            roles[c].append((2, colours[a], colours[b]))
        sigs = [
            (
                colours[v],
                tuple(sorted(colours[w] for w in outs[v])),
                tuple(sorted(colours[w] for w in ins[v])),
                tuple(sorted(roles[v])),
            )
            for v in range(len(colours))
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        refined = [rank[sig] for sig in sigs]
        if len(rank) == len(set(colours)):
            return refined
        colours = refined


def iso_quivers(q1: QuiverWithRelations, q2: QuiverWithRelations) -> tuple[int, ...] | None:
    """A vertex bijection carrying q1's arrows and relations onto q2's, or None.

    Vertex v of q1 goes to the vertex of q2 with the same canonical index,
    so the witness is the isomorphism fixed by the two canonical labelings.
    On a quiver with automorphisms it need not be the first bijection in
    index order; ``iso_quivers(q, q)`` is the identity.
    """
    key1, perm1 = canonical_form(q1)
    key2, perm2 = canonical_form(q2)
    if key1 != key2:
        return None
    vertex_of = {canon: v for v, canon in enumerate(perm2)}
    return tuple(vertex_of[canon] for canon in perm1)


def canonical_key(q: QuiverWithRelations) -> tuple:
    """A complete isomorphism invariant: the key of ``canonical_form``."""
    return canonical_form(q)[0]


# A reduction labels its input and its target to test for the zero-step
# exit, then labels the final quiver and the target again to build the
# witness: on `mcw check --n 4 --m 2 --seed 1`, 253 of 408 calls hit.
@lru_cache(maxsize=8)
def canonical_form(q: QuiverWithRelations) -> tuple[tuple, tuple[int, ...]]:
    """(canonical key, relabeling) where relabeling[v] is the canonical index
    of vertex v and the key is (vertex count, sorted relabeled arrows,
    sorted relabeled relation triples).

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): refine the uniform colouring; while a class
    holds several vertices, branch on each vertex of the first such class,
    give it a colour of its own and refine again.  Each discrete colouring
    is a relabeling, and the least key over all of them is canonical.  No
    automorphism pruning is done, so the number of leaves grows with the
    symmetry left after refinement: small on gentle quivers, factorial on
    a vertex with many interchangeable neighbours.
    """
    n = q.vertex_count
    outs = [[a.target for a in q.out_arrows[v]] for v in range(n)]
    ins = [[a.source for a in q.in_arrows[v]] for v in range(n)]
    pairs = [(a.source, a.target) for a in q.arrows]
    triples = q.relation_triples()
    best: tuple[tuple, tuple[int, ...]] | None = None

    def search(colours: list[int]) -> None:
        nonlocal best
        sizes = Counter(colours)
        cell = min((c for c, size in sizes.items() if size > 1), default=None)
        if cell is None:
            key = (
                n,
                tuple(sorted((colours[s], colours[t]) for s, t in pairs)),
                tuple(sorted((colours[a], colours[b], colours[c]) for a, b, c in triples)),
            )
            if best is None or key < best[0]:
                best = (key, tuple(colours))
            return
        for v in range(n):
            if colours[v] == cell:
                split = [2 * c + (c == cell and u != v) for u, c in enumerate(colours)]
                search(_refine(split, outs, ins, triples))

    search(_refine([0] * n, outs, ins, triples))
    assert best is not None
    return best


def opposite(q: QuiverWithRelations) -> QuiverWithRelations:
    """The opposite quiver: arrows reversed, relation pairs swapped, each
    vertex kept."""
    arrows = tuple(Arrow(a.id, a.target, a.source) for a in q.arrows)
    relations = frozenset((second, first) for first, second in q.relations)
    return QuiverWithRelations(q.m, q.vertex_count, arrows, relations)
