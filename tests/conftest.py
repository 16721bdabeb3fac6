from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mcw.algebra import GentleReport, QuiverWithRelations, quiver
from mcw.geometry import Diagonal, Dissection, PolygonParams, apply_move, enumerate_dissections


@lru_cache(maxsize=None)
def all_dissections(n: int, m: int):
    """Cached list of all maximal dissections for a parameter pair."""
    return list(enumerate_dissections(PolygonParams(n, m)))


def in_moved_order(
    q: QuiverWithRelations, t: Dissection, d: Diagonal, k: int
) -> QuiverWithRelations:
    """An algebra result ``q`` of rotating ``d`` of ``t`` by ``k``, renumbered
    into the moved dissection's vertex order: vertex i of ``q`` carries t's
    i-th diagonal, and the vertex of ``d`` its image.  It equals the moved
    dissection's quiver exactly when the two agree label for label."""
    moved = apply_move(t, d, k)
    (image,) = set(moved.diagonals) - set(t.diagonals)
    perm = [moved.diagonals.index(image if x == d else x) for x in t.diagonals]
    arrows = [(perm[a.source], perm[a.target]) for a in q.arrows]
    return quiver(q.m, q.vertex_count, arrows, q.relations)


def small_range(n_plus_one_max: int, m_max: int):
    """All (n, m) with n+1 <= n_plus_one_max and m <= m_max."""
    return [
        (n, m)
        for n in range(1, n_plus_one_max)
        for m in range(1, m_max + 1)
    ]


@dataclass(frozen=True)
class Cycle:
    arrows: tuple[int, ...]
    vertices: tuple[int, ...]
    full_relations: bool

    def __len__(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class CycleReport:
    cycles: tuple[Cycle, ...]

    @property
    def full_count(self) -> int:
        return sum(1 for c in self.cycles if c.full_relations)


def oriented_cycles(q: QuiverWithRelations) -> CycleReport:
    """All oriented simple cycles, each rooted at its smallest vertex, with a
    flag marking those whose every length-two subpath is a relation.

    An exhaustive search, exponential in the worst case: the oracle for
    ``QuiverWithRelations.runs`` and ``full_relation_cycles``."""
    found: list[Cycle] = []

    def dfs(root: int, v: int, path_vertices: list[int], path_arrows: list[int]) -> None:
        for a in q.out_arrows[v]:
            w = a.target
            if w == root and path_arrows:
                cyc_arrows = tuple(path_arrows + [a.id])
                pairs = [
                    (cyc_arrows[i], cyc_arrows[(i + 1) % len(cyc_arrows)])
                    for i in range(len(cyc_arrows))
                ]
                full = all(p in q.relations for p in pairs)
                found.append(Cycle(cyc_arrows, tuple(path_vertices), full))
            elif w > root and w not in path_vertices:
                dfs(root, w, path_vertices + [w], path_arrows + [a.id])

    for root in range(q.vertex_count):
        dfs(root, root, [root], [])
    found.sort(key=lambda c: c.vertices)
    return CycleReport(tuple(found))


def gentle_by_lists(q: QuiverWithRelations) -> GentleReport:
    """``is_gentle`` as first written: per arrow, the lists of its zero and
    free continuations on each side, found by a relation lookup per
    neighbouring arrow.  The oracle for ``is_gentle``."""
    for v in range(q.vertex_count):
        if len(q.out_arrows[v]) > 2:
            return GentleReport(False, f"vertex {v} has more than two out-arrows")
        if len(q.in_arrows[v]) > 2:
            return GentleReport(False, f"vertex {v} has more than two in-arrows")
    for a in q.arrows:
        zero_next = [b for b in q.out_arrows[a.target] if (a.id, b.id) in q.relations]
        free_next = [b for b in q.out_arrows[a.target] if (a.id, b.id) not in q.relations]
        if len(zero_next) > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two zero continuations")
        if len(free_next) > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two nonzero continuations")
        zero_prev = [b for b in q.in_arrows[a.source] if (b.id, a.id) in q.relations]
        free_prev = [b for b in q.in_arrows[a.source] if (b.id, a.id) not in q.relations]
        if len(zero_prev) > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two zero predecessors")
        if len(free_prev) > 1:
            return GentleReport(False, f"arrow {a.source}->{a.target} has two nonzero predecessors")
    return GentleReport(True)
