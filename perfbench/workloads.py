"""The benchmark's workloads: the mcw command lines each one runs, the
inputs it generates from the seed, and the output checks.

The checks rest only on closed forms computed here (Fuss-Catalan counts,
component sizes from the benchmark's own dissection generator), never on
mcw itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

# An op that runs longer than this is killed, counted as failed and charged
# this many seconds in every timing metric.
OP_LIMIT_S = 60.0


@dataclass(frozen=True)
class Op:
    """One mcw process: its arguments, the number of dissections (or, for
    reduce, components) it decides, and a check of its standard output that
    returns a problem description or None."""

    args: tuple[str, ...]
    items: int
    check: Callable[[str], str | None]


def fuss_catalan(n: int, m: int) -> int:
    """Maximal dissections with n diagonals of the (m(n+1)+2)-gon: the
    Fuss-Catalan number (1/(mk+1)) C((m+1)k, k) of its k = n+1 cells."""
    k = n + 1
    return comb((m + 1) * k, k) // (m * k + 1)


def _check_enumerate(n: int, m: int, out: str) -> str | None:
    lines = out.splitlines()
    want = fuss_catalan(n, m)
    if len(lines) != want:
        return f"enumerate {n}/{m}: {len(lines)} lines, expected {want}"
    if len(set(lines)) != len(lines):
        return f"enumerate {n}/{m}: duplicate lines"
    return None


def _check_census(n: int, m: int, out: str) -> str | None:
    # Every diagonal is a vertex of exactly one component, so the component
    # sizes summed over all dissections are n times their number.
    rows = [json.loads(line) for line in out.splitlines()]
    total = sum(row["s"] * row["count"] for row in rows)
    want = n * fuss_catalan(n, m)
    if total != want:
        return f"census {n}/{m}: sum of s*count is {total}, expected {want}"
    return None


def _check_check(out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return "check: last line is not 'all checks passed'"
    return None


def _check_reduce(size: int, out: str) -> str | None:
    got = json.loads(out)["final"]["vertices"]
    if got != size:
        return f"reduce: final quiver has {got} vertices, input component {size}"
    return None


def random_dissection(
    rng: random.Random, n: int, m: int
) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """A random maximal dissection of the (m(n+1)+2)-gon into (m+2)-gons,
    as (sorted diagonals, cells).  Each step picks the cell on the closing
    side of a sub-polygon: its m+1 gaps are 1 mod m and sum to the arc."""
    size = m * (n + 1) + 2
    diagonals: list[tuple[int, int]] = []
    cells: list[tuple[int, ...]] = []
    stack = [tuple(range(size))]
    while stack:
        poly = stack.pop()
        spare = (len(poly) - m - 2) // m
        cuts = sorted(rng.randint(0, spare) for _ in range(m))
        corners = [0]
        for lo, hi in zip([0] + cuts, cuts + [spare]):
            corners.append(corners[-1] + 1 + m * (hi - lo))
        cells.append(tuple(poly[i] for i in corners))
        for i, j in zip(corners, corners[1:]):
            if j - i >= 2:
                diagonals.append((poly[i], poly[j]))
                stack.append(poly[i : j + 1])
    return sorted(diagonals), cells


def largest_component(
    diagonals: list[tuple[int, int]], cells: list[tuple[int, ...]]
) -> tuple[int, int]:
    """(index, size) of the largest quiver component, first on ties.

    Vertices are the sorted diagonals; two are joined when they are
    consecutive sides of one cell; components are numbered by their
    smallest vertex, as the mcw CLI numbers them."""
    index = {d: i for i, d in enumerate(diagonals)}
    parent = list(range(len(diagonals)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for cell in cells:
        sides = [
            index.get(tuple(sorted((cell[i], cell[(i + 1) % len(cell)]))))
            for i in range(len(cell))
        ]
        for a, b in zip(sides, sides[1:] + sides[:1]):
            if a is not None and b is not None:
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    sizes: dict[int, int] = {}
    for v in range(len(diagonals)):
        root = find(v)
        sizes[root] = sizes.get(root, 0) + 1
    ranked = sorted(sizes)
    best = max(range(len(ranked)), key=lambda i: (sizes[ranked[i]], -i))
    return best, sizes[ranked[best]]


def _write(workdir: Path, name: str, n: int, m: int, diagonals) -> str:
    path = workdir / name
    doc = {"n": n, "m": m, "diagonals": [list(d) for d in diagonals]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def census_ops(seed: int, workdir: Path) -> list[Op]:
    """Exhaustive, so the seed is unused."""
    return [
        Op(
            ("census", "--n", str(n), "--m", str(m)),
            fuss_catalan(n, m),
            lambda out, n=n, m=m: _check_census(n, m, out),
        )
        for n, m in ((7, 1), (5, 2))
    ]


def check_ops(seed: int, workdir: Path) -> list[Op]:
    n, m = 4, 2
    cells = sum(fuss_catalan(nn, mm) for mm in range(1, m + 1) for nn in range(1, n + 1))
    return [
        Op(("check", "--n", str(n), "--m", str(m), "--seed", str(seed)), cells, _check_check)
    ]


# The fan reduces to itself, but its path-like quiver has a large class of
# vertices with equal signatures, so canonical_form does almost all the work.
# Larger fans are left out: s=15 takes about 9 s in one op, and mcw exits 2
# on s=16 and up ("canonical form search too large"); README.md records it.
FAN_SIZE = 14
# Reduction cost varies by more than a factor of ten between components of
# one size, so a seeded draw of heavy components would make the run time
# depend on the seed more than on the code.  The heavy components are a
# fixed panel, drawn once from PANEL_SEED; the run seed draws light ones.
PANEL_SEED = 0
PANEL = ((7, 1, 3, 6), (6, 2, 4, 5))  # (n, m, count, smallest size)
SEEDED = ((5, 1, 6, 4), (5, 2, 6, 4))


def _draw_ops(rng: random.Random, plan, tag: str, workdir: Path) -> list[Op]:
    ops = []
    for n, m, count, smallest in plan:
        for i in range(count):
            while True:
                diagonals, cells = random_dissection(rng, n, m)
                comp, size = largest_component(diagonals, cells)
                if size >= smallest:
                    break
            path = _write(workdir, f"{tag}-{n}-{m}-{i}.json", n, m, diagonals)
            ops.append(
                Op(("reduce", "--in", path, "--component", str(comp)), 1,
                   lambda out, size=size: _check_reduce(size, out))
            )
    return ops


def reduce_ops(seed: int, workdir: Path) -> list[Op]:
    s = FAN_SIZE
    fan = _write(workdir, f"fan{s}.json", s, 1, [(0, j) for j in range(2, s + 2)])
    return [
        Op(("reduce", "--in", fan, "--component", "0"), 1, lambda out: _check_reduce(s, out)),
        *_draw_ops(random.Random(PANEL_SEED), PANEL, "panel", workdir),
        *_draw_ops(random.Random(seed), SEEDED, "draw", workdir),
    ]


def enumerate_ops(seed: int, workdir: Path) -> list[Op]:
    """Exhaustive, so the seed is unused."""
    n, m = 10, 1
    return [
        Op(("enumerate", "--n", str(n), "--m", str(m)), fuss_catalan(n, m),
           lambda out: _check_enumerate(n, m, out))
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "census": census_ops,
    "check": check_ops,
    "reduce": reduce_ops,
    "enumerate": enumerate_ops,
}
