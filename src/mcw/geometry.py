"""Polygon model: the regular (n+1)m+2-gon, m-allowable diagonals, dissections,
faces, and the elementary rotation move on diagonals.

Vertices of the polygon are labelled 0..N-1 anti-clockwise, so "clockwise"
always means decreasing labels.  Diagonals are stored with endpoints
normalized a < b.  Cyclic symmetry is not quotiented: dissections differing
by a polygon rotation are distinct objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterator


class GeometryError(ValueError):
    """Invalid geometric input (bad chord, missing diagonal, ...)."""


class CapExceeded(RuntimeError):
    """An enumeration or reduction exceeded its configured cap."""


class Diagonal(tuple):
    """A chord d(a, b) of the N-gon, endpoints normalized so a < b.

    A Diagonal is the tuple (a, b): ordering, equality and hashing are the
    tuple's, so it compares equal to, and hashes like, the plain (a, b).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> Diagonal:
        if a == b:
            raise GeometryError(f"degenerate chord d({a},{b})")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    a = property(itemgetter(0), doc="The smaller endpoint.")
    b = property(itemgetter(1), doc="The larger endpoint.")

    def __repr__(self) -> str:  # d(0,3) reads like the domain notation
        return f"d({self[0]},{self[1]})"


def diagonal(a: int, b: int) -> Diagonal:
    """Build a normalized Diagonal from endpoints in either order."""
    return Diagonal(a, b)


@dataclass(frozen=True)
class PolygonParams:
    """Rank n, level m; the polygon has N = (n+1)*m + 2 vertices."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise GeometryError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")

    @property
    def N(self) -> int:
        return (self.n + 1) * self.m + 2


def _out_of_range(d: Diagonal, N: int) -> GeometryError:
    return GeometryError(f"{d} out of range for a {N}-gon")


def _check_chord(d: Diagonal, p: PolygonParams) -> None:
    N = p.N
    if not (0 <= d.a < d.b < N):
        raise _out_of_range(d, N)
    if d.b - d.a < 2 or (d.a + N) - d.b < 2:
        raise GeometryError(f"{d} joins adjacent vertices of the {N}-gon")


def is_allowable(d: Diagonal, p: PolygonParams) -> bool:
    """True iff both sub-polygons cut off by d have vertex count ≡ 2 (mod m).

    Equivalently (b - a) ≡ 1 (mod m); the equivalence is property-tested
    against a recursive dissectability oracle in the test suite.
    """
    _check_chord(d, p)
    return (d.b - d.a) % p.m == 1 % p.m


def crosses(d1: Diagonal, d2: Diagonal) -> bool:
    """True iff the chords cross in the interior (shared endpoints do not)."""
    if {d1.a, d1.b} & {d2.a, d2.b}:
        return False
    inside_a = d1.a < d2.a < d1.b
    inside_b = d1.a < d2.b < d1.b
    return inside_a != inside_b


@dataclass(frozen=True)
class Dissection:
    """A set of pairwise non-crossing m-allowable diagonals.

    Maximal dissections (|diagonals| = n) are the main objects; partial sets
    are representable so that cell/component computations can be exercised on
    them, and validate_dissection reports maximality separately.  Construction
    refuses a diagonal with an endpoint outside 0..N-1, on which the cell walk
    would never end; crossing and allowability are validate_dissection's.
    """

    params: PolygonParams
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self) -> None:
        diags = tuple(sorted(set(self.diagonals)))
        N = self.params.N
        # Sorted, so diags[0] has the smallest first endpoint.
        if diags and (diags[0][0] < 0 or max(map(itemgetter(1), diags)) >= N):
            raise _out_of_range(next(d for d in diags if d[0] < 0 or d[1] >= N), N)
        object.__setattr__(self, "diagonals", diags)

    @cached_property
    def _neighbors(self) -> dict[int, tuple[int, ...]]:
        """Per-vertex chord neighbors, used by the cell walk."""
        nbrs: dict[int, list[int]] = {}
        for a, b in self.diagonals:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        return {v: tuple(ws) for v, ws in nbrs.items()}

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.diagonals))
        return f"Dissection(n={self.params.n}, m={self.params.m}, {{{inner}}})"


def dissection(n: int, m: int, chords: list[tuple[int, int]] | list[Diagonal]) -> Dissection:
    """Convenience constructor from (a, b) pairs."""
    diags = tuple(c if isinstance(c, Diagonal) else diagonal(*c) for c in chords)
    return Dissection(PolygonParams(n, m), diags)


Side = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One cell of the dissection.

    corners: cell vertices starting from the smallest label, then proceeding
    clockwise (decreasing labels), per the fixed storage convention.
    sides[i] joins corners[i] to corners[i+1] (cyclically); each side is
    tagged with the index of the diagonal it lies on, or None for a boundary
    edge of the polygon.
    """

    corners: tuple[int, ...]
    sides: tuple[Side, ...] = field(compare=False)
    side_diagonals: tuple[int | None, ...] = field(compare=False)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    problem: str | None = None
    detail: str | None = None


def _cell_corners(t: Dissection, start: int, end: int) -> tuple[int, ...]:
    """Corners of the cell adjacent to chord (start, end) on the anti-clockwise
    arc from start to end, listed in increasing arc position (start first)."""
    N = t.params.N
    nbrs = t._neighbors
    span = (end - start) % N
    corners = [start]
    x = start
    while x != end:
        pos_x = (x - start) % N
        best = x + 1 if x + 1 < N else 0  # boundary edge successor
        best_pos = pos_x + 1
        for y in nbrs.get(x, ()):
            pos_y = (y - start) % N
            if pos_x < pos_y <= span and pos_y > best_pos:
                if x == start and y == end:
                    continue  # the chord itself is not a side of this cell
                best, best_pos = y, pos_y
        x = best
        corners.append(x)
    return tuple(corners)


def _cells(t: Dissection) -> list[tuple[int, ...]]:
    """All cells of the dissection, each as an anti-clockwise corner tuple
    starting at its smallest label.  Works for partial dissections too."""
    N = t.params.N
    seen: set[frozenset[int]] = set()
    cells: list[tuple[int, ...]] = []

    def record(corners: tuple[int, ...]) -> None:
        key = frozenset(corners)
        if key not in seen:
            seen.add(key)
            i = corners.index(min(corners))
            cells.append(corners[i:] + corners[:i])

    # Every cell either borders a chord or is the whole polygon, so walking
    # both sides of every chord plus the cell behind edge (N-1, 0) covers all.
    record(_cell_corners(t, 0, N - 1))
    for a, b in t.diagonals:
        record(_cell_corners(t, a, b))
        record(_cell_corners(t, b, a))
    cells.sort()
    return cells


def faces(t: Dissection) -> list[Face]:
    """The cells of t as Face values (corner convention: smallest label first,
    then clockwise).  For a valid maximal dissection these are n+1 cells,
    each an (m+2)-gon, and every diagonal borders exactly two of them."""
    index = {d: i for i, d in enumerate(t.diagonals)}
    out: list[Face] = []
    for anti in _cells(t):
        corners = (anti[0],) + tuple(reversed(anti[1:]))
        sides: list[Side] = []
        tags: list[int | None] = []
        for i, u in enumerate(corners):
            v = corners[(i + 1) % len(corners)]
            sides.append((u, v))
            # A Diagonal hashes and compares as its plain (a, b) tuple.
            tags.append(index.get((u, v) if u < v else (v, u)))
        out.append(Face(corners, tuple(sides), tuple(tags)))
    return out


def validate_dissection(t: Dissection) -> ValidationResult:
    """Check the maximal-dissection invariants, reporting the first failure
    in the order allowability, crossing, cardinality, face shape."""
    p = t.params
    for d in t.diagonals:
        try:
            ok = is_allowable(d, p)
        except GeometryError as e:
            return ValidationResult(False, "allowability", str(e))
        if not ok:
            return ValidationResult(False, "allowability", f"{d} is not {p.m}-allowable")
    ds = t.diagonals
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1 :]:
            if crosses(d1, d2):
                return ValidationResult(False, "crossing", f"{d1} crosses {d2}")
    if len(ds) != p.n:
        return ValidationResult(
            False, "cardinality", f"{len(ds)} diagonals, maximality needs n={p.n}"
        )
    for f in faces(t):
        if len(f.corners) != p.m + 2:
            return ValidationResult(
                False, "face-shape", f"cell {f.corners} has {len(f.corners)} sides"
            )
    return ValidationResult(True)


def fuss_catalan(n: int, m: int) -> int:
    """Number of maximal dissections: (1/(n+1)) * C((m+1)(n+1), n)."""
    return math.comb((m + 1) * (n + 1), n) // (n + 1)


def enumerate_dissections(p: PolygonParams, cap: int | None = 10**6) -> Iterator[Dissection]:
    """Yield every maximal dissection exactly once, in lexicographic order on
    the sorted diagonal tuple.

    Refuses parameter ranges whose Fuss-Catalan count exceeds `cap`
    (pass cap=None to disable the guard).
    """
    total = fuss_catalan(p.n, p.m)
    if cap is not None and total > cap:
        raise CapExceeded(f"{total} dissections exceed the cap of {cap}")
    N, m = p.N, p.m

    def regions(lo: int, hi: int) -> Iterator[tuple[Diagonal, ...]]:
        # Subdivisions of the polygon bounded by the arc lo..hi plus the
        # closing chord (lo, hi); the chord itself is the caller's side.
        if hi - lo == 1:
            yield ()
            return
        for ws in corner_choices(lo, hi):
            arcs = list(zip((lo,) + ws, ws + (hi,)))
            inner = tuple(Diagonal(x, y) for x, y in arcs if y - x >= 2)
            for parts in sub_products(arcs, 0):
                yield inner + parts

    def corner_choices(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        # The m interior corners of the cell containing side (lo, hi); every
        # gap between consecutive corners must be ≡ 1 (mod m).
        def rec(prev: int, left: int) -> Iterator[tuple[int, ...]]:
            if left == 0:
                yield ()
                return
            w = prev + 1
            while w + left - 1 < hi:
                if (w - prev) % m == 1 % m:
                    for rest in rec(w, left - 1):
                        yield (w,) + rest
                w += 1

        yield from rec(lo, m)

    arcs_cache: dict[tuple[int, int], list[tuple[Diagonal, ...]]] = {}

    def region_list(lo: int, hi: int) -> list[tuple[Diagonal, ...]]:
        key = (lo, hi)
        if key not in arcs_cache:
            arcs_cache[key] = list(regions(lo, hi))
        return arcs_cache[key]

    def sub_products(arcs: list[tuple[int, int]], i: int) -> Iterator[tuple[Diagonal, ...]]:
        if i == len(arcs):
            yield ()
            return
        lo, hi = arcs[i]
        for head in region_list(lo, hi):
            for tail in sub_products(arcs, i + 1):
                yield head + tail

    # One sort of the plain diagonal tuples; the dissections are built lazily.
    for diags in sorted(tuple(sorted(ds)) for ds in regions(0, N - 1)):
        yield Dissection(p, diags)


def _union_cycle(t: Dissection, d: Diagonal) -> tuple[int, ...]:
    """Boundary cycle (anti-clockwise) of the 2(m+1)-gon formed by the two
    cells adjacent to d; d's endpoints sit at positions 0 and m+1."""
    side1 = _cell_corners(t, d.a, d.b)
    side2 = _cell_corners(t, d.b, d.a)
    return side1[:-1] + side2[:-1]


def apply_move(t: Dissection, d: Diagonal, k: int) -> Dissection:
    """Replace d by its k-th rotation inside the union of its two adjacent
    cells (k = +1 anti-clockwise, k = -1 clockwise); returns a new Dissection.

    The rotation shifts both endpoints of d by k steps along the union
    boundary, keeping them antipodal; composite powers go via iteration.
    """
    if d not in t.diagonals:
        raise GeometryError(f"{d} is not in the dissection")
    if k not in (-1, +1):
        raise GeometryError(f"step k must be +1 or -1, got {k}")
    cycle = _union_cycle(t, d)
    size = len(cycle)
    half = size // 2
    a = cycle[k % size]
    b = cycle[(half + k) % size]
    new_d = diagonal(a, b)
    diags = tuple(new_d if x == d else x for x in t.diagonals)
    return Dissection(t.params, diags)
