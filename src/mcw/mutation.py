"""Mutations of gentle presentations, checked against the theory.

Three kinds of moves live here.  ``tilting_mutation_plus`` reverses the
arrows into a vertex (``tilting_mutation_minus`` the arrows out of one),
rewrites the relations around that vertex, and accepts the move only when
the result is again gentle with the same component and cycle structure.
Both are one checked move: a minus move is the plus rewrite done in the
opposite quiver and turned back, and the acceptance checks and Happel's
prediction run once, on the quiver and the result.  ``preserves_invariant``
decides on a dissection whether a diagonal move keeps the derived class;
``rotation_move`` is its algebra move, which ``rotate`` checks label for label.
``remove_relation_chain`` trades a run of consecutive zero-relations for a
reversed arrow chain, which preserves the Cartan invariants but can leave
the class of dissection-realizable presentations.

Rejected moves raise :class:`MoveRejected`; internal consistency failures
(a move that passed its preconditions but broke an invariant that the
theory guarantees) raise :class:`MutationError`.

Every check runs on every move.  A state's component count and full-cycle
count are cached on the quiver value; the full-cycle count is the number of
closed runs in ``QuiverWithRelations.runs``, the relation-run walk that
also gives the zero-chains a source move follows.  Its Cartan matrix and
Smith form come from memos in ``homology``, so a reduction step does not
recompute what the step before it computed for the same state.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import (
    AlgebraError,
    Arrow,
    QuiverWithRelations,
    _component_roots,
    full_relation_cycles,
    is_gentle,
    max_relation_chain,
    opposite,
    quiver_of,
)
from .geometry import Diagonal, Dissection, apply_move, rotation_cycle
from .homology import (
    DerivedInvariant,
    cartan_matrix,
    derived_invariant,
    happel_hom_dims,
    snf_diagonal,
)


class MutationError(RuntimeError):
    """A move that should have been safe broke a guaranteed invariant."""

    exit_code = 1


class MoveRejected(Exception):
    """The requested move is not admissible on this quiver."""


class _Builder:
    """Mutable working copy with stable arrow ids.  ``build(flip=True)``
    reverses every arrow and relation pair, so a minus move, rewritten in
    the opposite quiver, constructs its result in the original orientation."""

    def __init__(self, q: QuiverWithRelations):
        self.m = q.m
        self.vertex_count = q.vertex_count
        self.ends: dict[int, tuple[int, int]] = {
            a.id: (a.source, a.target) for a in q.arrows
        }
        self.relations: set[tuple[int, int]] = set(q.relations)
        self._next = max(self.ends, default=-1) + 1

    def add(self, source: int, target: int) -> int:
        aid = self._next
        self._next += 1
        self.ends[aid] = (source, target)
        return aid

    def delete(self, aid: int) -> None:
        del self.ends[aid]
        self.relations = {r for r in self.relations if aid not in r}

    def retarget(self, aid: int, target: int) -> None:
        self.ends[aid] = (self.ends[aid][0], target)

    def build(self, flip: bool = False) -> QuiverWithRelations:
        turn = slice(None, None, -1 if flip else 1)
        arrows = tuple(Arrow(aid, *ends[turn]) for aid, ends in self.ends.items())
        relations = frozenset(pair[turn] for pair in self.relations)
        return QuiverWithRelations(self.m, self.vertex_count, arrows, relations)


def mutation_complex(q: QuiverWithRelations, mut: int) -> dict[int, list[int]]:
    """The complex of the plus move at ``mut`` that replaces its stalk, for
    the Happel prediction ``happel_hom_dims(cartan, mut, complex_)``; every
    other vertex keeps its degree-0 stalk.

    At a vertex with in-arrows, the two-term complex has the in-neighbors
    in degree 0 and ``mut`` in degree 1.  At a source, the zero-chain of
    each out-arrow is laid out with alternating signs: ``mut`` sits in the
    top degree and each chain descends one degree per arrow (``_source_plus``
    refuses chains of unequal length, where this is not a tilt).  An
    isolated vertex keeps its stalk.  The minus move's complex is this one
    in the opposite quiver, ``mutation_complex(opposite(q), mut)``.
    """

    ins = q.in_arrows[mut]
    if ins:
        return {0: [a.source for a in ins], 1: [mut]}
    chains = [_chase_zero_chain(q, o) for o in q.out_arrows[mut]]
    top = max(map(len, chains), default=0)
    complex_: dict[int, list[int]] = {top: [mut]}
    for chain in chains:
        for depth, a in enumerate(chain, start=1):
            complex_.setdefault(top - depth, []).append(a.target)
    return complex_


def _chase_zero_chain(q: QuiverWithRelations, start: Arrow) -> list[Arrow]:
    """The rest of ``start``'s relation run, from ``start`` on.

    From a source, a zero-chain can come back on itself only through an
    arrow that ends two relations, where ``q.runs`` raises ``AlgebraError``;
    ``_mutate`` reads the runs first and refuses the move there."""

    closed, run = next(r for r in q.runs if start.id in r[1])
    if closed:
        raise MoveRejected("zero-chain from the mutation vertex wraps a cycle")
    return [q.arrows[a] for a in run[run.index(start.id) :]]


def tilting_mutation_plus(q: QuiverWithRelations, mut: int) -> QuiverWithRelations:
    """Reverse the arrows into ``mut`` and rewrite the local relations.

    At a vertex with in-arrows this implements the reflection-with-
    shortcuts rewrite.  At a source it reattaches each out-arrow at the far
    end of its zero-chain, and refuses the move if the chains differ in
    length.  Either way the result's Cartan matrix is checked against the
    alternating-sum prediction (a mismatch is a hard error).  Isolated
    vertices mutate to themselves.  Moves whose result would not be gentle,
    or would change the component or cycle structure, raise
    :class:`MoveRejected`.
    """

    return _mutate(q, mut, minus=False)


def tilting_mutation_minus(q: QuiverWithRelations, mut: int) -> QuiverWithRelations:
    """Reverse the arrows out of ``mut``: the plus rewrite done in the
    opposite quiver, refused where that one is, with its result turned back."""

    return _mutate(q, mut, minus=True)


def _mutate(q: QuiverWithRelations, mut: int, minus: bool) -> QuiverWithRelations:
    """The plus rewrite in the move's frame (``q``, or its opposite for a
    minus move), then every check once, on ``q`` and the result.  None of
    them sees orientation: ``cartan_matrix(opposite(p))`` is the transpose
    of ``cartan_matrix(p)``, and ``happel_hom_dims`` reads degrees only by
    their parity, so the frame's complex predicts the result's Cartan
    matrix from ``q``'s own, the state's memoised one."""

    if not 0 <= mut < q.vertex_count:
        raise AlgebraError(f"vertex {mut} out of range")
    frame = opposite(q) if minus else q
    ins, outs = frame.in_arrows[mut], frame.out_arrows[mut]
    if len(ins) > 2 or len(outs) > 2:
        raise AlgebraError("mutation context requires a gentle vertex")
    if not ins and not outs:
        return q
    # An out-arrow that composes to zero with every in-arrow has no shortcut
    # to take its place.  The refusal names it as it stands in q, where a
    # minus move's out-arrow of the frame is an in-arrow.
    lone = [o for o in outs if ins and all((i.id, o.id) in frame.relations for i in ins)]
    if lone:
        o = lone[0]
        if minus:
            raise MoveRejected(
                f"in-arrow {o.target}->{o.source} composes to zero with every out-arrow"
            )
        raise MoveRejected(
            f"out-arrow {o.source}->{o.target} composes to zero with every in-arrow"
        )
    if not ins:
        # A source's zero-chains follow the relation runs.  Read as q's own:
        # opposite(q).runs raises exactly where q.runs does, and the refusal
        # names the arrow and its role as they stand in q.
        try:
            q.runs
        except AlgebraError as exc:
            raise MoveRejected(
                f"zero-chain from the mutation vertex wraps a cycle or branches: {exc}"
            ) from exc
    b = _regular_plus(frame, mut) if ins else _source_plus(frame, mut)
    try:
        new = b.build(flip=minus)
    except AlgebraError as exc:
        raise MoveRejected(f"local shape not supported: {exc}") from exc

    gentle = is_gentle(new)
    if not gentle.ok:
        raise MoveRejected(f"result not gentle: {gentle.problem}")
    if new.component_count != q.component_count:
        raise MoveRejected("move changes the number of components")
    if new.full_cycle_count != q.full_cycle_count:
        raise MoveRejected("move changes the number of full-relation cycles")

    if cartan_matrix(new) != happel_hom_dims(
        cartan_matrix(q), mut, mutation_complex(frame, mut)
    ):
        raise MutationError(
            f"mutation at {mut} disagrees with the alternating-sum prediction"
        )
    return new


def _zero_before(q: QuiverWithRelations, a: Arrow) -> Arrow | None:
    """The arrow whose composition with ``a`` is a relation, if any."""
    return next((b for b in q.in_arrows[a.source] if (b.id, a.id) in q.relations), None)


def _zero_after(q: QuiverWithRelations, a: Arrow) -> Arrow | None:
    """The arrow that composes to zero after ``a``, if any."""
    return next((b for b in q.out_arrows[a.target] if (a.id, b.id) in q.relations), None)


def _regular_plus(q: QuiverWithRelations, mut: int) -> _Builder:
    """Reverse every arrow into ``mut`` and replace each nonzero path i·o
    through it by a shortcut arrow; the reversed i composes to zero with the
    shortcut, and the shortcut with the arrow that composed to zero after o.
    An arrow that composed to zero into an in-arrow now ends at ``mut`` and
    composes to zero with the other in-arrow reversed.  ``_mutate`` has
    refused any out-arrow with no nonzero partner, so every arrow at ``mut``
    is replaced."""

    ins, outs = q.in_arrows[mut], q.out_arrows[mut]
    partner: dict[Arrow, Arrow] = {}
    for i in ins:
        nonzero = [o for o in outs if (i.id, o.id) not in q.relations]
        if len(nonzero) > 1:
            raise AlgebraError("two nonzero continuations; not gentle")
        if nonzero:
            partner[i] = nonzero[0]
    before = {i: _zero_before(q, i) for i in ins}
    after = {o: _zero_after(q, o) for o in outs}
    if any(a in ins or a in outs for a in (*before.values(), *after.values())):
        raise MoveRejected(
            "a neighboring zero-composition arrow is attached to the "
            "mutation vertex itself"
        )

    b = _Builder(q)
    for a in ins + outs:
        b.delete(a.id)
    reversed_in: dict[Arrow, int] = {}
    for i in ins:
        if before[i] is not None:
            b.retarget(before[i].id, mut)
        reversed_in[i] = b.add(mut, i.source)
    for i, o in partner.items():
        comp = b.add(i.source, o.target)
        b.relations.add((reversed_in[i], comp))
        if after[o] is not None:
            b.relations.add((comp, after[o].id))
    for i, pre in before.items():
        if pre is not None:
            b.relations.update((pre.id, reversed_in[j]) for j in ins if j != i)
    return b


def _source_plus(q: QuiverWithRelations, mut: int) -> _Builder:
    """Reattach each out-arrow of the source ``mut`` at the far end of its
    zero-chain, pointing back; the last arrow of a chain of two or more
    composes to zero with it.  Chains of unequal length are refused: no
    one-complex tilt is known there."""

    chains = {o: _chase_zero_chain(q, o) for o in q.out_arrows[mut]}
    lengths = sorted({len(chain) for chain in chains.values()})
    if len(lengths) > 1:
        raise MoveRejected(f"zero-chains of {lengths[0]} and {lengths[1]} arrows: no one-complex tilt")
    b = _Builder(q)
    for o, chain in chains.items():
        b.delete(o.id)
        new_arrow = b.add(chain[-1].target, mut)
        if len(chain) > 1:
            b.relations.add((chain[-1].id, new_arrow))
    return b


def preserves_invariant(t: Dissection, d: Diagonal, k: int) -> bool:
    """Whether moving ``d`` keeps the component partition (with the moved
    diagonal identified with its image) and the full-relation cycle count.

    Both are local to cells: two diagonals are joined iff they are
    consecutive sides of one cell, and a full cycle is a cell whose sides
    are all diagonals.  The move only trades the two cells on ``d`` for the
    two cells on its image, inside the same 2(m+1)-gon.  The cells form a
    tree, so two distinct sides of that gon never connect outside it: the
    partition is kept iff the gon's diagonal sides and the chord, joined
    within the two cells, fall into the same classes before and after, and
    the count is kept iff the two cells hold as many all-diagonal cells as
    the two cells after.  Raises ``GeometryError`` for a ``d`` outside
    ``t`` and for a ``k`` other than +1 or -1.
    """

    cycle = rotation_cycle(t, d, k)
    N, size = t.params.N, len(cycle)
    half = size // 2
    # Node i < size is the gon's side from cycle[i] to cycle[i+1]; node
    # `size` is the chord, d before the move and its image after.
    diagonal_side = [(cycle[(i + 1) % size] - cycle[i]) % N != 1 for i in range(size)]
    diagonal_side.append(True)

    def profile(shift: int) -> tuple[tuple[int, ...], int]:
        # Each node is labelled by the smallest node of its class.
        label = list(range(size + 1))
        full = 0
        for start in (shift, shift + half):
            cell = [size] + [(start + i) % size for i in range(half)]
            full += all(diagonal_side[x] for x in cell)
            for x, y in zip(cell, cell[1:] + cell[:1]):
                if diagonal_side[x] and diagonal_side[y] and label[x] != label[y]:
                    old, new = max(label[x], label[y]), min(label[x], label[y])
                    label = [new if c == old else c for c in label]
        return tuple(label), full

    return profile(0) == profile(k % size)


def remove_relation_chain(
    q: QuiverWithRelations, chain: Sequence[int]
) -> QuiverWithRelations:
    """Replace a separating run of zero-relations by a reversed arrow chain.

    ``chain`` lists the vertices v_0, ..., v_q of a directed path whose
    every consecutive arrow pair is a relation and whose interior vertices
    carry no other arrows.  The two ends must lie in different components
    once the chain arrows are removed.  The output reverses the first q-1
    arrows, keeps a forward arrow into v_q, re-attaches any relation that
    continued past v_q, and drops the chain relations; the Smith normal
    form of the Cartan matrix and the component count are unchanged (a
    violation is a hard error, not a rejection).
    """

    verts = list(chain)
    if len(verts) < 3:
        raise MoveRejected("chain needs at least two arrows")
    if len(set(verts)) != len(verts):
        raise MoveRejected("chain revisits a vertex")
    by_ends = {(a.source, a.target): a for a in q.arrows}
    try:
        arrows = [by_ends[(verts[r], verts[r + 1])] for r in range(len(verts) - 1)]
    except KeyError as exc:
        raise MoveRejected(f"chain edge {exc} is not an arrow") from exc
    for a, b in zip(arrows, arrows[1:]):
        if (a.id, b.id) not in q.relations:
            raise MoveRejected(
                f"consecutive arrows through {a.target} do not compose to zero"
            )
    if any(second == arrows[0].id for _, second in q.relations):
        raise MoveRejected(
            f"relation run extends backwards past vertex {verts[0]}; "
            "the chain is not maximal"
        )
    for v in verts[1:-1]:
        incident = set(q.in_arrows[v]) | set(q.out_arrows[v])
        if incident - set(arrows):
            raise MoveRejected(f"interior vertex {v} has arrows off the chain")

    chain_ids = {a.id for a in arrows}
    roots = _component_roots(q.vertex_count, [a for a in q.arrows if a.id not in chain_ids])
    if roots[verts[0]] == roots[verts[-1]]:
        raise MoveRejected("chain ends stay connected without the chain")

    continuation = [
        second for first, second in q.relations if first == arrows[-1].id
    ]
    b = _Builder(q)
    for aid in chain_ids:
        b.delete(aid)
    for r in range(1, len(verts) - 1):
        b.add(verts[r], verts[r - 1])
    last = b.add(verts[-2], verts[-1])
    for aid in continuation:
        b.relations.add((last, aid))
    try:
        new = b.build()
    except AlgebraError as exc:
        raise MoveRejected(f"chain surgery not supported here: {exc}") from exc

    gentle = is_gentle(new)
    if not gentle.ok:
        raise MoveRejected(f"result not gentle: {gentle.problem}")
    if new.component_count != q.component_count:
        raise MutationError("chain removal changed the component count")
    if snf_diagonal(cartan_matrix(new)) != snf_diagonal(cartan_matrix(q)):
        raise MutationError("chain removal changed the Cartan class")
    return new


def apply_mutation(
    q: QuiverWithRelations, kind: str, site: Sequence[int]
) -> QuiverWithRelations:
    """Dispatch a recorded move: kind is plus, minus, or rel_rem."""

    if kind == "plus":
        return tilting_mutation_plus(q, site[0])
    if kind == "minus":
        return tilting_mutation_minus(q, site[0])
    if kind == "rel_rem":
        return remove_relation_chain(q, site)
    raise MutationError(f"unknown move kind {kind!r}")


MOVE_KINDS = ("plus", "minus", "rel_rem")


class MoveRecord(
    NamedTuple(
        "MoveRecord",
        [
            ("kind", str),
            ("site", tuple[int, ...]),
            ("invariant_before", DerivedInvariant),
            ("invariant_after", DerivedInvariant),
        ],
    )
):
    """Audit entry for one accepted move, whose derived invariants before
    and after must be equal as values, parity counts included."""

    __slots__ = ()

    def __new__(cls, kind, site, invariant_before, invariant_after):
        if kind not in MOVE_KINDS:
            raise MutationError(f"unknown move kind {kind!r}")
        before, after = invariant_before, invariant_after
        if before != after:
            raise MutationError(
                f"accepted {kind} move at {site} changed the "
                f"invariant: {before} -> {after}"
            )
        return tuple.__new__(cls, (kind, site, before, after))


def record_move(
    kind: str,
    site: Sequence[int],
    before: QuiverWithRelations,
    after: QuiverWithRelations,
) -> MoveRecord:
    return MoveRecord(
        kind, tuple(site), derived_invariant(before), derived_invariant(after)
    )


def rotation_move(
    q: QuiverWithRelations, v: int, k: int
) -> tuple[tuple[MoveRecord, ...], QuiverWithRelations]:
    """The algebra move of rotating the diagonal at vertex ``v`` by ``k``,
    as the records of the moves taken and their result: the matching move
    (plus for k = +1, minus for k = -1), or where that is refused m moves
    of the other kind, since in the rotation's 2(m+1)-gon one step one way
    is m steps the other.  The records, ``apply_mutation``'s moves, replay
    to the result; where both kinds are refused, both refusals are named."""

    if k not in (1, -1):
        raise AlgebraError(f"rotation step k must be +1 or -1, got {k}")
    match, other = ("plus", "minus") if k == 1 else ("minus", "plus")
    try:
        kind, states = match, [q, apply_mutation(q, match, (v,))]
    except MoveRejected as refused:
        kind, states = other, [q]
        for i in range(1, q.m + 1):
            try:
                states.append(apply_mutation(states[-1], other, (v,)))
            except MoveRejected as exc:
                why = f"{match} refused: {refused}; {other} {i} of {q.m} refused: {exc}"
                raise MoveRejected(why) from exc
    records = (record_move(kind, (v,), *pair) for pair in zip(states, states[1:]))
    return tuple(records), states[-1]


def rotate(
    t: Dissection, d: Diagonal, k: int, q: QuiverWithRelations
) -> tuple[Dissection, QuiverWithRelations, tuple[MoveRecord, ...]]:
    """Rotate ``d`` by ``k`` in the geometry, and by ``rotation_move`` on
    ``q``, which is ``quiver_of(t)``; returns the moved dissection, its
    quiver and the move records.  The two results must agree label for
    label: vertex i of the algebra's carries t's i-th diagonal, and the
    vertex of ``d`` its image.  A refusal or a difference raises
    ``MutationError`` naming t, d, k and the refusal or the first arrow or
    relation that differs."""

    moved = apply_move(t, d, k)
    geo = quiver_of(moved)
    where = f"{t!r}: rotating {d!r} by {k:+d}"
    try:
        records, result = rotation_move(q, t.diagonals.index(d), k)
    except MoveRejected as exc:
        raise MutationError(f"{where}: {exc}") from exc
    (image,) = set(moved.diagonals) - set(t.diagonals)
    labels = tuple(image if x == d else x for x in t.diagonals)
    for what, got, want in zip(
        ("arrow", "relation"), result.named(labels), geo.named(moved.diagonals)
    ):
        if got != want:
            first = min(got ^ want)
            side = "algebra move" if first in got else "geometry"
            named = "->".join(map(repr, first))
            raise MutationError(f"{where}: {what} {named} only in the {side}")
    return moved, geo, records


class RealizabilityReport(NamedTuple):
    """Outcome of the structural screen for dissection-derived quivers."""

    ok: bool
    problems: tuple[str, ...]


def realizability_report(q: QuiverWithRelations) -> RealizabilityReport:
    """Screen q against the class of components of dissection quivers.

    Gentle; every closed relation run is a simple cycle of length m + 2;
    every open run has at most m - 1 relations; and the underlying graph's
    cycle rank, |arrows| - vertices + components, equals the number of
    closed runs.  Closed runs are edge-disjoint, so when they are as many
    as the rank they span the cycle space, and every cycle of the
    underlying graph is one of them.  Everything is read off the relation
    runs, so the screen is linear.  A quiver failing a check cannot come
    from a dissection, though it may still be derived equivalent to one.

    That the checks also suffice is the description of these quivers in
    G. Murphy, "Derived equivalence classification of m-cluster tilted
    algebras of type A_n", J. Algebra (2010), arXiv:0807.3840 (for m = 1,
    Buan and Vatne, arXiv:math/0701612).  The tests confirm it on every
    connected gentle quiver with at most four vertices, for m = 1, 2, 3.
    """

    problems: list[str] = []
    gentle = is_gentle(q)
    if not gentle.ok:
        problems.append(f"not gentle: {gentle.problem}")
    try:
        cycles = full_relation_cycles(q)
    except AlgebraError as exc:
        problems.append(str(exc))
        return RealizabilityReport(False, tuple(problems))
    for run in cycles:
        vertices = tuple(q.arrows[a].source for a in run)
        if len(set(vertices)) != len(vertices):
            problems.append(f"closed relation run through {vertices} repeats a vertex")
        elif len(run) != q.m + 2:
            problems.append(
                f"cycle through {vertices} has length {len(run)}, expected {q.m + 2}"
            )
    longest = max_relation_chain(q)
    if longest > q.m - 1:
        problems.append(f"relation chain of length {longest} exceeds bound {q.m - 1}")
    rank = len(q.arrows) - q.vertex_count + q.component_count
    if rank != len(cycles):
        problems.append(
            f"underlying graph has cycle rank {rank}, "
            f"but {len(cycles)} full-relation cycles"
        )
    return RealizabilityReport(not problems, tuple(problems))
