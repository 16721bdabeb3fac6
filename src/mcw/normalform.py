"""Normal forms and the reduction of components onto them.

A connected component with s vertices and r full-relation (m+2)-cycles is
derived equivalent to exactly one normal form: r cycles chained through
single connector vertices followed by a linearly oriented relation-free
tail.  ``build_normal_form`` constructs that quiver, ``reduce`` finds an
invariant-checked move sequence from a dissection component to it, and
``derived_equivalent`` compares two components by their (s, r) data.

The reduction is a breadth-first search over the three accepted move kinds
(plus, minus, rel_rem) with isomorphism-class deduplication.  A successor
that exactly repeats, labels included, a quiver the search has already
generated is recognised by a compact fingerprint and skipped before
canonical labeling.  The step cap is the search's depth bound, so a
reduction longer than the cap stops the search with ``CapExceeded``
instead of being found and refused afterwards.  Search results are
memoized per canonical class and replayed through the relabeling witness,
so sweeping many components stays cheap.  Intermediate states may leave the
dissection-realizable class; moves that fail their internal cross-checks on
such states are simply not taken as edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import (
    Cycle,
    QuiverWithRelations,
    canonical_form,
    canonical_key,
    components,
    full_relation_cycles,
    iso_quivers,
    quiver,
    quiver_of,
)
from .geometry import CapExceeded, Dissection
from .homology import derived_invariant
from .mutation import (
    MoveRecord,
    MoveRejected,
    MutationError,
    apply_mutation,
    record_move,
    remove_relation_chain,
    tilting_mutation_minus,
    tilting_mutation_plus,
)


class NormalFormError(ValueError):
    """Infeasible normal-form parameters or an impossible reduction request."""


@dataclass(frozen=True)
class NormalFormSpec:
    """Parameters (s, r, m) of a normal form.

    Chaining r cycles through shared connectors uses r*(m+1) + 1 vertices,
    so s must cover at least that many (one vertex suffices when r = 0).
    """

    s: int
    r: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise NormalFormError(f"level m must be positive, got {self.m}")
        if self.r < 0 or self.s < 1:
            raise NormalFormError(f"need r >= 0 and s >= 1, got (s={self.s}, r={self.r})")
        if self.r > 0 and self.s < self.r * (self.m + 1) + 1:
            raise NormalFormError(
                f"{self.r} chained {self.m + 2}-cycles need at least "
                f"{self.r * (self.m + 1) + 1} vertices, got {self.s}"
            )

    @property
    def tail_length(self) -> int:
        if self.r == 0:
            return self.s
        return self.s - (self.r * (self.m + 1) + 1)


def connector_position(m: int) -> int:
    """Cycle position of the vertex that connects to the next cycle (or the
    tail); positions run 0..m+1 along the cycle orientation."""
    return m // 2 + 1


def build_normal_form(spec: NormalFormSpec) -> QuiverWithRelations:
    """The normal form quiver for (s, r, m).

    Cycle vertices are laid out first, one chain link at a time; each cycle
    is oriented 0 -> 1 -> ... -> m+1 -> 0 from its entry connector, carries
    full relations, and hands off to the next cycle (or the tail) at the
    connector position.  The tail is oriented away from its attachment.
    With r = 0 this degenerates to the linear orientation of A_s.
    """

    s, r, m = spec.s, spec.r, spec.m
    if r == 0:
        return quiver(m, s, [(i, i + 1) for i in range(s - 1)])
    conn = connector_position(m)
    arrows: list[tuple[int, int]] = []
    relations: list[tuple[int, int]] = []
    entry = 0
    next_id = 1
    for _ in range(r):
        ids = [entry] + list(range(next_id, next_id + m + 1))
        next_id += m + 1
        first = len(arrows)
        arrows.extend((ids[p], ids[(p + 1) % (m + 2)]) for p in range(m + 2))
        relations.extend(
            (first + p, first + (p + 1) % (m + 2)) for p in range(m + 2)
        )
        entry = ids[conn]
    for _ in range(spec.tail_length):
        arrows.append((entry, next_id))
        entry = next_id
        next_id += 1
    return quiver(m, s, arrows, relations)


def classify_vertices(cycle: Cycle, m: int) -> dict[int, str]:
    """Vertex roles around one normal-form cycle.

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


@dataclass(frozen=True)
class ReductionTrace:
    """An accepted move sequence ending at the normal form.

    ``iso_witness[v]`` is the normal-form vertex corresponding to vertex v
    of ``final``.
    """

    steps: tuple[MoveRecord, ...]
    final: QuiverWithRelations
    iso_witness: tuple[int, ...]


def step_cap(s: int, m: int) -> int:
    """Hard bound on reduction length; exceeding it signals a bug."""
    return 50 * s * (m + 2)


def _candidate_chains(q: QuiverWithRelations) -> Iterator[tuple[int, ...]]:
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


def _successors(
    q: QuiverWithRelations, sites: Sequence[int] | None = None
) -> Iterator[tuple[str, tuple[int, ...], QuiverWithRelations]]:
    """Accepted moves out of q in deterministic order.

    Cross-check failures (MutationError) are treated like rejections here:
    the guarantees behind those checks assume a realizable algebra, and the
    search may stand on states outside that class.
    """

    vertices = range(q.vertex_count) if sites is None else sites
    for v in vertices:
        for kind, fn in (
            ("plus", tilting_mutation_plus),
            ("minus", tilting_mutation_minus),
        ):
            try:
                moved = fn(q, v)
            except (MoveRejected, MutationError):
                continue
            if moved != q:
                yield kind, (v,), moved
    for chain in _candidate_chains(q):
        if sites is not None and not set(chain) <= set(sites):
            continue
        try:
            yield "rel_rem", chain, remove_relation_chain(q, chain)
        except (MoveRejected, MutationError):
            continue


_SCRIPTS: dict[tuple, tuple[tuple[str, tuple[int, ...]], ...]] = {}
_STATE_BUDGET = 100_000


def _fingerprint(q: QuiverWithRelations) -> str:
    """The labeled quiver as a string: arrow count, the (source, target) of
    each arrow in stored order, then the sorted relation pairs, one
    character per number.  Arrows are stored sorted, so two states of one
    search (one vertex count) with the same fingerprint are the same
    quiver.  Below 256 vertices and arrows each character takes one byte."""

    flat = [len(q.arrows)]
    flat.extend(v for a in q.arrows for v in (a.source, a.target))
    flat.extend(x for pair in sorted(q.relations) for x in pair)
    return "".join(map(chr, flat))


def _search_script(
    q: QuiverWithRelations, target_key: tuple, cap: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Shortest accepted-move path of at most ``cap`` steps from q to the
    target isomorphism class.

    Breadth-first with one labeled representative kept per canonical class;
    paths stay valid because successors are always generated from the
    stored representative.  A successor that repeats a labeled quiver the
    search has already generated is skipped by its fingerprint before
    canonical labeling: its class is already in ``seen``.  States at depth
    ``cap`` are not expanded; if any was pruned and the target was not
    reached, the search raises ``CapExceeded``.
    """

    if canonical_key(q) == target_key:
        return []
    seen = {canonical_key(q)}
    generated = {_fingerprint(q)}
    expanded = 0
    pruned = False
    queue: deque[
        tuple[QuiverWithRelations, list[tuple[str, tuple[int, ...]]]]
    ] = deque([(q, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= cap:
            pruned = True
            continue
        expanded += 1
        for kind, site, nxt in _successors(state):
            fingerprint = _fingerprint(nxt)
            if fingerprint in generated:
                continue
            generated.add(fingerprint)
            key = canonical_key(nxt)
            if key in seen:
                continue
            step = path + [(kind, site)]
            if key == target_key:
                return step
            seen.add(key)
            queue.append((nxt, step))
        if len(seen) > _STATE_BUDGET:
            raise CapExceeded(
                f"reduction search found {len(seen)} states, "
                f"over the budget of {_STATE_BUDGET}"
            )
    if pruned:
        raise CapExceeded(
            f"reduction needs more than the cap of {cap} steps; "
            f"{expanded} states expanded"
        )
    raise NormalFormError(
        "no accepted move sequence reaches the normal form; "
        "this contradicts the classification theorem"
    )


def reduce_component(q: QuiverWithRelations, cap: int | None = None) -> ReductionTrace:
    """Reduce one connected component to its normal form.

    The move script is resolved per canonical class: a fresh breadth-first
    search the first time a class is seen, a replay through the relabeling
    witness afterwards.  ``cap`` bounds the number of steps, on top of
    ``step_cap``; the search does not look past it, and a memoized script
    longer than it is refused before replay, both with ``CapExceeded``.
    Every step is wrapped in a MoveRecord, which enforces (s, r, snf)
    preservation; the final state is iso-matched to build_normal_form.
    """

    inv = derived_invariant(q)
    target = build_normal_form(NormalFormSpec(inv.s, inv.r, q.m))
    limit = step_cap(inv.s, q.m)
    if cap is not None:
        limit = min(limit, cap)
    key, perm = canonical_form(q)
    memo_key = (q.m, key)
    if memo_key not in _SCRIPTS:
        script = _search_script(q, canonical_key(target), limit)
        _SCRIPTS[memo_key] = tuple(
            (kind, tuple(perm[v] for v in site)) for kind, site in script
        )
    if len(_SCRIPTS[memo_key]) > limit:
        raise CapExceeded(
            f"reduction needs {len(_SCRIPTS[memo_key])} steps, over the cap of {limit}"
        )
    unperm = {canon: v for v, canon in enumerate(perm)}

    steps: list[MoveRecord] = []
    state = q
    for kind, canon_site in _SCRIPTS[memo_key]:
        site = tuple(unperm[c] for c in canon_site)
        try:
            moved = apply_mutation(state, kind, site)
        except (MoveRejected, MutationError) as exc:
            raise NormalFormError(
                f"memoized script replay failed at {kind} {site}: {exc}"
            ) from exc
        steps.append(record_move(kind, site, state, moved))
        state = moved
    witness = iso_quivers(state, target)
    if witness is None:
        raise NormalFormError("reduction terminated off the normal form")
    return ReductionTrace(tuple(steps), state, witness)


def reduce(t: Dissection, component: int = 0) -> ReductionTrace:
    """Reduce one component of a dissection's quiver to its normal form."""

    comps = components(quiver_of(t))
    if not 0 <= component < len(comps):
        raise NormalFormError(
            f"component {component} out of range; quiver has {len(comps)}"
        )
    return reduce_component(comps[component].quiver)


def _tail_arrow(q: QuiverWithRelations, a: int, b: int):
    hits = [x for x in q.arrows if {x.source, x.target} == {a, b}]
    if len(hits) != 1:
        raise NormalFormError(f"tail vertices {a}, {b} are not joined by one arrow")
    return hits[0]


def linearize_tail(
    q: QuiverWithRelations, tail: Sequence[int]
) -> list[MoveRecord]:
    """Moves reorienting a relation-free path away from its first vertex.

    ``tail[0]`` is the protected attachment endpoint and is never mutated;
    every other tail vertex must carry no arrows besides the path's own.
    Returns the accepted plus/minus sequence after which every tail arrow
    points from tail[i] to tail[i+1]; empty if already uniform.
    """

    path = list(tail)
    if len(set(path)) != len(path):
        raise NormalFormError("tail revisits a vertex")
    if len(path) < 2:
        return []
    arrows = [_tail_arrow(q, a, b) for a, b in zip(path, path[1:])]
    ids = {a.id for a in arrows}
    if any(f in ids or s in ids for f, s in q.relations):
        raise NormalFormError("tail carries a relation; remove it first")
    for v in path[1:]:
        incident = {a.id for a in q.in_arrows[v]} | {a.id for a in q.out_arrows[v]}
        if incident - ids:
            raise NormalFormError(f"tail vertex {v} has arrows off the path")

    def uniform(state: QuiverWithRelations) -> bool:
        pairs = state.arrow_pairs()
        if any(
            (a, b) not in pairs for a, b in zip(path, path[1:])
        ):
            return False
        by_pair = {(x.source, x.target): x.id for x in state.arrows}
        tail_ids = {by_pair[(a, b)] for a, b in zip(path, path[1:])}
        return not any(f in tail_ids or s in tail_ids for f, s in state.relations)

    return _local_sweep(q, path[1:], uniform, cap=step_cap(len(path), q.m))


def remove_tail_relation(q: QuiverWithRelations, endpoint: int) -> list[MoveRecord]:
    """Moves eliminating the relation nearest to a cycle-free leaf.

    Searches over accepted moves at the branch's non-cycle vertices until
    the total relation count drops by one; returns the empty list when the
    branch is already relation-free.
    """

    on_cycle = {
        v
        for cyc in full_relation_cycles(q).cycles
        if cyc.full_relations
        for v in cyc.vertices
    }
    if endpoint in on_cycle:
        raise NormalFormError(f"vertex {endpoint} lies on a cycle")
    degree = len(q.in_arrows[endpoint]) + len(q.out_arrows[endpoint])
    if degree > 1:
        raise NormalFormError(f"vertex {endpoint} is not a leaf")

    branch = {endpoint}
    frontier = [endpoint]
    while frontier:
        v = frontier.pop()
        for a in q.in_arrows[v] + q.out_arrows[v]:
            for w in (a.source, a.target):
                if w not in branch and w not in on_cycle:
                    branch.add(w)
                    frontier.append(w)
    branch_arrows = {
        a.id
        for v in branch
        for a in q.in_arrows[v] + q.out_arrows[v]
    }
    if not any(f in branch_arrows for f, _ in q.relations):
        return []

    want = len(q.relations) - 1

    def one_fewer(state: QuiverWithRelations) -> bool:
        return len(state.relations) == want

    return _local_sweep(q, sorted(branch), one_fewer, cap=step_cap(len(branch), q.m))


def _local_sweep(q, sites, done, cap: int) -> list[MoveRecord]:
    """Breadth-first search over moves at the given sites; returns records."""

    if done(q):
        return []
    seen = {q}
    queue: deque[tuple[QuiverWithRelations, list]] = deque([(q, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= cap:
            continue
        for kind, site, nxt in _successors(state, sites):
            if nxt in seen:
                continue
            step = path + [(state, kind, site, nxt)]
            if done(nxt):
                return [record_move(k, s, b, a) for b, k, s, a in step]
            seen.add(nxt)
            queue.append((nxt, step))
        if len(seen) > 50_000:
            break
    raise NormalFormError("local sweep could not reach its goal")


def derived_equivalent(a: QuiverWithRelations, b: QuiverWithRelations) -> bool:
    """Whether two components are derived equivalent: equal (s, r).

    The Cartan Smith form is determined by that data, so a disagreement
    while (s, r) match is a hard error rather than a verdict.
    """

    if a.m != b.m:
        raise NormalFormError(f"levels differ: {a.m} vs {b.m}")
    ia, ib = derived_invariant(a), derived_invariant(b)
    if (ia.s, ia.r) != (ib.s, ib.r):
        return False
    if ia.snf != ib.snf:
        raise NormalFormError(
            f"(s, r) = ({ia.s}, {ia.r}) on both sides but Smith forms differ: "
            f"{ia.snf} vs {ib.snf}"
        )
    return True
