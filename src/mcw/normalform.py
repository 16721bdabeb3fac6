"""Normal forms and the reduction of components onto them.

A connected component with s vertices and r full-relation (m+2)-cycles is
derived equivalent to exactly one normal form: r cycles chained through
single connector vertices followed by a linearly oriented relation-free
tail.  ``build_normal_form`` constructs that quiver, ``reduce_component``
moves a component onto it, and ``derived_equivalent`` compares two
components by their (s, r) data.

The reduction follows the classification proof (Murphy, arXiv:0807.3840,
generalizing Buan & Vatne, arXiv:math/0701612) in three phases.  Each step
is one accepted move whose site is read off the current quiver; nothing
searches over states, and no state of one reduction steers the next.  The
value-keyed memos of ``cartan_matrix``, ``snf_diagonal`` and
``canonical_form`` may hit across calls, and return what a cold call would.

1. ``relations``: off-cycle relations are cleared leaf-inward.  A run whose
   interior vertices carry no other arrow goes whole by ``rel_rem``; any
   other run is drained at an end whose far side holds no further run,
   which hands its last relation outward until it leaves at a leaf
   (``drop_relation``).
2. ``chain``: rooted at a cycle with at most one cycle-bearing side, the
   cycles slide along the single arrows between them until neighbours share
   a vertex, the tree of cycles is compacted into a chain, the remaining
   arrows are moved onto one side of the root, and the connectors are
   turned to the positions ``connector_position`` names.  Each step reads
   the tree of cycles off one walk, ``_tree``, and moves through ``turn``.
3. ``tail``: the tail is oriented away from the last connector
   (``orient``); with r = 0 the whole tree is a path, oriented from one of
   its leaves.

The steps are planned in the cell picture described above ``_Shape``,
built once per state.  Each step is the one move its plan names, taken
through ``apply_mutation`` and ``record_move``, so it passes the
acceptance, Happel and Smith-form checks of its move kind; a refused move
or a failed check ends the reduction with its cause, and no other move is
tried in its place.  The final quiver must be isomorphic to
``build_normal_form``.  The step bound is ``step_cap``, or a smaller
``cap``; it is checked before each step and raises ``CapExceeded``.  The
moves need not be the shortest script.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import (
    QuiverWithRelations,
    canonical_key,
    components,
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
    realizability_report,
    record_move,
)


class NormalFormError(ValueError):
    """Infeasible normal-form parameters or an impossible reduction request."""

    exit_code = 1


class NormalFormSpec(NamedTuple("NormalFormSpec", [("s", int), ("r", int), ("m", int)])):
    """Parameters (s, r, m) of a normal form.

    Chaining r cycles through shared connectors uses r*(m+1) + 1 vertices,
    so s must cover at least that many (one vertex suffices when r = 0).
    """

    __slots__ = ()

    def __new__(cls, s: int, r: int, m: int) -> NormalFormSpec:
        if m < 1:
            raise NormalFormError(f"level m must be positive, got {m}")
        if r < 0 or s < 1:
            raise NormalFormError(f"need r >= 0 and s >= 1, got (s={s}, r={r})")
        if r > 0 and s < r * (m + 1) + 1:
            raise NormalFormError(
                f"{r} chained {m + 2}-cycles need at least "
                f"{r * (m + 1) + 1} vertices, got {s}"
            )
        return tuple.__new__(cls, (s, r, m))

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


PHASES = ("relations", "chain", "tail")


class ReductionTrace(
    NamedTuple(
        "ReductionTrace",
        [
            ("steps", tuple[MoveRecord, ...]),
            ("final", QuiverWithRelations),
            ("iso_witness", tuple[int, ...]),
            ("phases", tuple[str, ...]),
        ],
    )
):
    """An accepted move sequence ending at the normal form.

    ``phases[i]`` names the proof phase that took ``steps[i]``;
    ``iso_witness[v]`` is the normal-form vertex corresponding to vertex v
    of ``final``.
    """

    __slots__ = ()

    def __new__(cls, steps, final, iso_witness, phases):
        if len(phases) != len(steps):
            raise NormalFormError(f"{len(steps)} steps but {len(phases)} phase labels")
        unknown = set(phases) - set(PHASES)
        if unknown:
            raise NormalFormError(f"unknown phase labels {sorted(unknown)}")
        return tuple.__new__(cls, (steps, final, iso_witness, phases))


def step_cap(s: int, m: int) -> int:
    """Hard bound on reduction length; exceeding it signals a bug."""
    return 50 * s * (m + 2)


# --- the cell picture ----------------------------------------------------------
#
# A realizable component is a tree of blocks: its arrows split into
# full-relation (m+2)-cycles and maximal runs of consecutive relations, and
# every vertex lies in at most two blocks.  Read each block as a cell of a
# dissection, an (m+2)-gon whose sides are the block's vertices in arrow
# order followed by boundary sides; a vertex in one block borders a cell of
# boundary sides only.  A plus or minus move at v then turns v one step
# inside the union of its two cells: each cell hands the side next to v to
# the other, which takes it on the far side of v.  Turning forward (+1)
# hands over the side after v in arrow order, turning back (-1) the side
# before it.  Where v joins a cycle to a single arrow v - f, the turn that
# hands the arrow's f to the cycle slides the cycle one vertex along the
# arrows, and the cycle's neighbour of v moves out onto the arrow.  The
# phases plan their steps in this picture.

_Cell = tuple[bool, tuple[int, ...]]


class _Shape:
    """The cells of one quiver and the vertices on their sides: ``q.runs``
    as cells, ``(True, cycle)`` per closed run, vertices in arrow order from
    the smallest, and ``(False, run)`` per open run, vertices in arrow
    order."""

    def __init__(self, q: QuiverWithRelations):
        arrows = q.arrows
        self.cells: list[_Cell] = []
        for closed, run in q.runs:
            if closed:
                cyc = [arrows[x].source for x in run]
                low = cyc.index(min(cyc))
                self.cells.append((True, tuple(cyc[low:] + cyc[:low])))
            else:
                self.cells.append(
                    (False, (arrows[run[0]].source,) + tuple(arrows[x].target for x in run))
                )
        self.where: dict[int, list[int]] = {v: [] for v in range(q.vertex_count)}
        for i, (_, vs) in enumerate(self.cells):
            for v in vs:
                self.where[v].append(i)

    def other(self, v: int, cell: int | None) -> int | None:
        """The cell across v from ``cell``; None when that side is boundary."""
        return next((j for j in self.where[v] if j != cell), None)

    def cycle(self, v: int, avoid: int | None = None) -> int | None:
        """A full cell with side v other than ``avoid``."""
        return next(
            (j for j in self.where[v] if j != avoid and self.cells[j][0]), None
        )

    def slot(self, cell: int, entry: int, p: int) -> int:
        """The vertex p places after ``entry`` around a full cell."""
        vs = self.cells[cell][1]
        return vs[(vs.index(entry) + p) % len(vs)]

    def beyond(self, cell: int | None, v: int) -> tuple[list[int], int | None]:
        """The single-arrow path from side v of ``cell`` outward, and the full
        cell it reaches (None when it ends at a leaf)."""
        path, c = [v], cell
        while True:
            j = self.other(path[-1], c)
            if j is None:
                return path, None
            full, vs = self.cells[j]
            if full:
                return path, j
            path.append(vs[0] if vs[1] == path[-1] else vs[1])
            c = j


class _Reduction:
    """A reduction in progress: the current quiver and its cells, the
    accepted steps with the phase that took each, and the step bound,
    checked before each step.

    ``anchor`` is the side of the root cycle that carries the tail; a turn
    that hands it over passes the role to the turned vertex."""

    def __init__(self, q: QuiverWithRelations, limit: int):
        self.state = q
        self.shape = _Shape(q)
        self.limit = limit
        self.steps: list[MoveRecord] = []
        self.phases: list[str] = []
        self.anchor = -1

    def _take(self, kind: str, site: Sequence[int], phase: str) -> None:
        if len(self.steps) >= self.limit:
            raise CapExceeded(
                f"reduction needs more than the cap of {self.limit} steps"
            )
        try:
            moved = apply_mutation(self.state, kind, site)
        except (MoveRejected, MutationError) as exc:
            raise NormalFormError(
                f"{phase} phase: {kind} at {tuple(site)} refused: {exc}"
            ) from exc
        self.steps.append(record_move(kind, site, self.state, moved))
        self.phases.append(phase)
        self.state = moved
        self.shape = _Shape(moved)

    def turn(self, v: int, d: int, phase: str) -> None:
        """Turn v one step in direction d: minus turns it forward and plus
        back.  That move is the only one taken; a refusal or a failed check
        ends the reduction through ``_take``."""
        shape = self.shape
        handed = [shape.slot(i, v, d) for i in shape.where[v] if shape.cells[i][0]]
        self._take("minus" if d == 1 else "plus", (v,), phase)
        if self.anchor in handed:
            self.anchor = v

    # --- phase 1: relations off the cycles --------------------------------

    def clear_relations(self) -> None:
        """Remove every off-cycle relation, leaf-inward: a run whose interior
        vertices carry nothing else goes whole by rel_rem, and any other run
        is drained toward a leaf."""
        while True:
            q = self.state
            runs = [vs for full, vs in self.shape.cells if not full and len(vs) > 2]
            if not runs:
                return
            bare = [
                vs
                for vs in runs
                if all(len(q.in_arrows[v]) + len(q.out_arrows[v]) == 2 for v in vs[1:-1])
            ]
            if bare:
                # Arrow ids follow (source, target), so this is the run
                # with the smallest first arrow.
                self._take("rel_rem", min(bare), "relations")
            else:
                self.drop_relation()

    def drop_relation(self) -> None:
        """Drain runs until one relation has left the quiver.

        Each step turns the end of a run whose far side holds no other run,
        handing its last relation outward; the relation leaves when it
        reaches a leaf."""
        want = len(self.state.relations) - 1
        while len(self.state.relations) > want:
            run, end = self._drain_site()
            self.turn(end, -1 if end == run[-1] else 1, "relations")

    def _drain_site(self) -> tuple[tuple[int, ...], int]:
        shape = self.shape
        runs = [
            (i, vs) for i, (full, vs) in enumerate(shape.cells) if not full and len(vs) > 2
        ]
        for i, vs in runs:
            for end in (vs[-1], vs[0]):
                stack, seen, clear = [(shape.other(end, i), end)], set(), True
                while stack and clear:
                    c, via = stack.pop()
                    if c is None or c in seen:
                        continue
                    seen.add(c)
                    full, cvs = shape.cells[c]
                    clear = full or len(cvs) < 3
                    stack += [(shape.other(v, c), v) for v in cvs if v != via]
                if clear:
                    return vs, end
        raise NormalFormError("no relation run has a run-free side")

    # --- phase 2: the chain of cycles --------------------------------------

    def build_chain(self) -> None:
        self._choose_root()
        self._close_bridges()
        self._compact()
        self._gather_arrows()
        self._place_connectors()

    def _choose_root(self) -> None:
        """Root at a cycle with one cycle-bearing side at most; its side with
        the longest pendant path is the anchor, where the tail will grow."""
        shape = self.shape
        best = None
        for i, (full, vs) in enumerate(shape.cells):
            if not full:
                continue
            ends = [(shape.beyond(i, v), v) for v in vs]
            if sum(far is not None for (_, far), _ in ends) > 1:
                continue
            for (path, far), v in ends:
                if far is None and (best is None or len(path) > best[0]):
                    best = (len(path), v)
        self.anchor = best[1]

    def _tree(self) -> list[tuple[int, int, int, list[int]]]:
        """(cell, entry side, depth, bridge path) per cycle, from the root,
        entered at the anchor, outward; the bridge path runs from the
        parent's side to the entry, one vertex where the two share it."""
        shape = self.shape
        tree = [(shape.cycle(self.anchor), self.anchor, 0, [self.anchor])]
        for c, entry, depth, _ in tree:
            for v in shape.cells[c][1]:
                if v != entry:
                    path, far = shape.beyond(c, v)
                    if far is not None:
                        tree.append((far, path[-1], depth + 1, path))
        return tree

    def _chain(self) -> list[tuple[int, int]]:
        """(cell, entry side) along the chain from the root."""
        return [(c, entry) for c, entry, _, _ in self._tree()]

    def _slide(self, v: int, cell: int) -> bool:
        """Slide cycle ``cell`` one vertex along the single arrow across its
        side v, which passes to the cycle's far side; False, with no step,
        where a cycle lies across v."""
        full, link = self.shape.cells[self.shape.other(v, cell)]
        if full:
            return False
        self.turn(v, 1 if link[0] == v else -1, "chain")
        return True

    def _close_bridges(self) -> None:
        """Slide each cycle along the arrows between it and its parent, the
        first such cycle from the root outward each time, until the two
        share a vertex."""
        while bridged := next((t for t in self._tree() if len(t[3]) > 1), None):
            self._slide(bridged[1], bridged[0])

    def _compact(self) -> None:
        """Make the tree of cycles a chain: each cycle keeps its one child
        on the side right after its entry.  The deepest cycle out of shape
        turns its last child back one side at a time; the side handed over
        (a sibling, a pendant path or a leaf) moves into the child."""
        while True:
            shape = self.shape
            todo = None
            for c, entry, depth, _ in self._tree():
                kids = [
                    p
                    for p in range(1, self.state.m + 2)
                    if shape.cycle(shape.slot(c, entry, p), avoid=c) is not None
                ]
                if kids and kids != [1] and (todo is None or depth >= todo[0]):
                    todo = (depth, shape.slot(c, entry, kids[-1]))
            if todo is None:
                return
            self.turn(todo[1], -1, "chain")

    def _gather_arrows(self) -> None:
        """Move every single arrow off the chain onto the root's anchor side,
        deepest cycle first: each cycle's pendant paths slide round to the
        side before its entry and then through it, and the parent cycle pulls
        them off the bridge this makes."""
        n = len(self._chain())
        for i in range(n - 1, -1, -1):
            for p in range(1 if i == n - 1 else 2, self.state.m + 2):
                self._shift_pendant(i, p)
            while i:
                c, entry = self._chain()[i - 1]
                if not self._slide(self.shape.slot(c, entry, 1), c):
                    break

    def _shift_pendant(self, i: int, p: int) -> None:
        """Slide the pendant path on side p of chain cycle i to side p + 1."""
        shape = self.shape
        c, entry = self._chain()[i]
        x = shape.slot(c, entry, p)
        path, far = shape.beyond(c, x)
        if far is not None or len(path) == 1:
            return
        self.orient(x, shape.cells[c], "chain")
        for _ in path[1:]:
            c, entry = self._chain()[i]
            if not self._slide(self.shape.slot(c, entry, p), c):
                raise NormalFormError(f"chain phase: a cycle lies across side {p} of cycle {c}")

    def _place_connectors(self) -> None:
        """Turn each connector until every cycle's exit (toward the root, or
        the tail on the root) sits ``connector_position`` places after its
        entry (the connector on the deeper side).  Fixed from the
        root outward; a turn blocked by the next cycle's own connectors first
        makes room one cycle deeper."""
        m = self.state.m
        conn = connector_position(m)
        shape = self.shape
        n = len(self._chain())
        has_tail = len(shape.beyond(shape.cycle(self.anchor), self.anchor)[0]) > 1

        def gap(i: int) -> tuple[int, int]:
            """How far cycle i's exit lies past its prescribed connector, and
            the connector to its deeper neighbour."""
            chain = self._chain()
            (c, exit_), entry = chain[i], chain[i + 1][1]
            vs = self.shape.cells[c][1]
            return (vs.index(exit_) - vs.index(entry)) % len(vs) - conn, entry

        def shift(i: int, d: int) -> None:
            # Turning the next connector must not carry it onto the next
            # cycle's own deeper connector: that one moves first.
            if i + 2 < n and gap(i + 1)[0] + conn == (m + 1 if d == 1 else 1):
                shift(i + 1, d)
            self.turn(gap(i)[1], d, "chain")

        for i in range(0 if has_tail else 1, n - 1):
            while (off := gap(i)[0]) != 0:
                shift(i, 1 if off > 0 else -1)

    # --- phase 3: the tail -------------------------------------------------

    def orient(
        self, x: int, near: _Cell | None, phase: str, either: bool = False
    ) -> None:
        """Point the pendant path at x (beyond cell ``near``) away from x, or
        with ``either`` make it a directed path one way or the other.

        From the far end inward, a stretch that disagrees with the arrow
        before it is reversed whole; ahead of the first arrow (j = -1) stands
        one away from x, or with ``either`` one that agrees.  A linear path
        [x, u1, ..., uk] toward x reverses by minus at u1, ..., uk in turn,
        away from x by plus; u1, ..., uk lie on no cycle, so the anchor stays."""
        path = self._pendant(x, near)
        for j in range(len(path) - 3, -2, -1):
            sub = self._away(path[j + 1], path[j + 2])
            before = self._away(path[j], path[j + 1]) if j >= 0 else sub or not either
            if sub != before:
                for v in path[j + 2 :]:
                    self.turn(v, -1 if sub else 1, phase)
                path = self._pendant(x, near)
        ways = {self._away(a, b) for a, b in zip(path, path[1:])}
        if len(ways) > 1 or ways == {False} and not either:
            raise NormalFormError(f"{phase} phase: path at {x} did not orient")

    def _pendant(self, x: int, near: _Cell | None) -> list[int]:
        cell = self.shape.cells.index(near) if near is not None else None
        return self.shape.beyond(cell, x)[0]

    def _away(self, a: int, b: int) -> bool:
        return any(arrow.target == b for arrow in self.state.out_arrows[a])

    def orient_tree(self) -> None:
        """r = 0: the relation-free tree is a path; make it a directed path
        from whichever end needs fewer moves."""
        shape = self.shape
        leaves = [v for v, cells in shape.where.items() if len(cells) == 1]
        if leaves:
            start = min(leaves, key=lambda v: self._cost(shape.beyond(None, v)[0]))
            self.orient(start, None, "tail", either=True)

    def _cost(self, path: list[int]) -> int:
        """Moves ``orient`` spends reversing stretches of ``path``."""
        ways = [self._away(a, b) for a, b in zip(path, path[1:])]
        return sum(len(ways) - j - 1 for j in range(len(ways) - 1) if ways[j] != ways[j + 1])


def _screen(q: QuiverWithRelations) -> None:
    report = realizability_report(q)
    if report.problems:
        raise NormalFormError(f"component is not realizable: {report.problems[0]}")


def reduce_component(q: QuiverWithRelations, cap: int | None = None) -> ReductionTrace:
    """Reduce one connected component to its normal form.

    The input must pass ``realizability_report``, which is checked before
    any canonical labeling.  A component already isomorphic to its normal
    form takes no step.  Otherwise the three phases run (see the module
    docstring); ``cap`` bounds the number of steps on top of ``step_cap``
    and is checked before each step (``CapExceeded``).  Every step is
    wrapped in a MoveRecord, which enforces that the whole derived invariant
    is preserved; the final state is iso-matched to build_normal_form.
    """

    _screen(q)
    if q.component_count != 1:
        raise NormalFormError(f"expected one component, got {q.component_count}")
    inv = derived_invariant(q)
    target = build_normal_form(NormalFormSpec(inv.s, inv.r, q.m))
    limit = step_cap(inv.s, q.m) if cap is None else min(cap, step_cap(inv.s, q.m))
    red = _Reduction(q, limit)
    if canonical_key(q) != canonical_key(target):
        red.clear_relations()
        if inv.r:
            red.build_chain()
            red.orient(red.anchor, red.shape.cells[red.shape.cycle(red.anchor)], "tail")
        else:
            red.orient_tree()
    witness = iso_quivers(red.state, target)
    if witness is None:
        raise NormalFormError("reduction terminated off the normal form")
    return ReductionTrace(tuple(red.steps), red.state, witness, tuple(red.phases))


def reduce(t: Dissection, component: int = 0) -> ReductionTrace:
    """Reduce one component of a dissection's quiver to its normal form."""

    comps = components(quiver_of(t))
    if not 0 <= component < len(comps):
        raise NormalFormError(
            f"component {component} out of range; quiver has {len(comps)}"
        )
    return reduce_component(comps[component].quiver)


def derived_equivalent(a: QuiverWithRelations, b: QuiverWithRelations) -> bool:
    """Whether two components are derived equivalent: equal (s, r).

    Both must pass ``realizability_report``, since (s, r) decides the class
    only for components of dissection quivers.  The Cartan Smith form is
    determined by that data, so a disagreement while (s, r) match is a hard
    error rather than a verdict.
    """

    if a.m != b.m:
        raise NormalFormError(f"levels differ: {a.m} vs {b.m}")
    _screen(a)
    _screen(b)
    ia, ib = derived_invariant(a), derived_invariant(b)
    if (ia.s, ia.r) != (ib.s, ib.r):
        return False
    if ia.snf != ib.snf:
        raise NormalFormError(
            f"(s, r) = ({ia.s}, {ia.r}) on both sides but Smith forms differ: "
            f"{ia.snf} vs {ib.snf}"
        )
    return True
