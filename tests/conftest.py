from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mcw.algebra import QuiverWithRelations
from mcw.geometry import PolygonParams, enumerate_dissections


@lru_cache(maxsize=None)
def all_dissections(n: int, m: int):
    """Cached list of all maximal dissections for a parameter pair."""
    return list(enumerate_dissections(PolygonParams(n, m), cap=None))


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
