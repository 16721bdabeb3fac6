"""Geometry-layer tests.

The dissectability oracle here is the ground truth for allowability: a chord
is good iff both pieces it cuts off can be brute-force subdivided into
(m+2)-gons.  The production code uses the closed congruence (b-a) ≡ 1 (mod m),
which these tests pin against the oracle.
"""

from __future__ import annotations

import pickle
import random
import re
import tracemalloc
from bisect import bisect_left
from collections import Counter, deque
from functools import lru_cache
from itertools import chain, combinations, islice, pairwise, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_dissections, small_range
from mcw import geometry
from mcw.algebra import components, quiver_of
from mcw.geometry import (
    ENUMERATION_CAP,
    CapExceeded,
    Diagonal,
    Dissection,
    GeometryError,
    PolygonParams,
    ValidationResult,
    apply_move,
    census_counts,
    check_chords,
    crosses,
    diagonal,
    dissection,
    dissection_tuples,
    enumerate_dissections,
    faces,
    fuss_catalan,
    is_allowable,
)
from mcw.homology import derived_invariant


@lru_cache(maxsize=None)
def subdividable(size: int, m: int) -> bool:
    """Brute force: can a convex polygon with `size` vertices be cut into
    (m+2)-gons?  Tries every possible cell containing the side (0, size-1)."""
    if size == m + 2:
        return True
    if size < m + 2:
        return False
    for corners in combinations(range(1, size - 1), m):
        arcs = list(zip((0,) + corners, corners + (size - 1,)))
        if all(hi - lo == 1 or subdividable(hi - lo + 1, m) for lo, hi in arcs):
            return True
    return False


def brute_force_dissections(p: PolygonParams) -> list[tuple[Diagonal, ...]]:
    """Independent enumeration: all n-subsets of pairwise non-crossing
    allowable chords, by direct backtracking over the sorted chord list."""
    chords = [
        Diagonal(a, b)
        for a in range(p.N)
        for b in range(a + 2, p.N)
        if (a, b) != (0, p.N - 1) and is_allowable(Diagonal(a, b), p)
    ]
    out: list[tuple[Diagonal, ...]] = []
    chosen: list[Diagonal] = []

    def extend(start: int) -> None:
        if len(chosen) == p.n:
            out.append(tuple(chosen))
            return
        for i in range(start, len(chords)):
            d = chords[i]
            if all(not crosses(d, c) for c in chosen):
                chosen.append(d)
                extend(i + 1)
                chosen.pop()

    extend(0)
    return out


def block_sort_tuples(p: PolygonParams) -> list[tuple[Diagonal, ...]]:
    """Independent enumeration in lexicographic order: every dissection's
    sorted tuple built from sorted blocks, one per arc, then all of them
    sorted at once.

    The region below each chord (lo, hi) is a list of sorted blocks, one
    per cell on the chord: the product of the blocks of the arcs the cell
    cuts off, with the chord placed after the first arc's diagonals at lo.
    Blocks of consecutive arcs concatenate in sorted order.
    """
    N, m = p.N, p.m

    def corner_choices(lo: int, hi: int) -> list[tuple[int, ...]]:
        # The m interior corners of the cell on side (lo, hi); every gap
        # between consecutive corners is 1 (mod m).
        return [
            ws
            for ws in combinations(range(lo + 1, hi), m)
            if all((y - x) % m == 1 % m for x, y in zip((lo,) + ws, ws + (hi,)))
        ]

    @lru_cache(maxsize=None)
    def blocks(lo: int, hi: int) -> list[tuple[Diagonal, ...]]:
        if hi - lo == 1:
            return [()]
        out = []
        for parts in products(lo, hi):
            k = bisect_left(parts[0], (lo + 1,))
            head = parts[0][:k] + (Diagonal(lo, hi),) + parts[0][k:]
            out.append(sum(parts[1:], head))
        return out

    def products(lo: int, hi: int):
        return chain.from_iterable(
            product(*[blocks(x, y) for x, y in zip((lo,) + ws, ws + (hi,))])
            for ws in corner_choices(lo, hi)
        )

    return sorted(sum(parts, ()) for parts in products(0, N - 1))


# ---------------------------------------------------------------- allowability


def test_allowability_matches_dissectability_oracle_up_to_20_gon():
    for N in range(5, 21):
        for m in range(1, N):
            if (N - 2) % m != 0 or (N - 2) // m < 2:
                continue  # no valid (n >= 1) polygon at this level
            p = PolygonParams((N - 2) // m - 1, m)
            assert p.N == N
            for a in range(N):
                for b in range(a + 2, N):
                    if (a, b) == (0, N - 1):
                        continue
                    d = Diagonal(a, b)
                    expected = subdividable(b - a + 1, m) and subdividable(
                        N - (b - a) + 1, m
                    )
                    assert is_allowable(d, p) == expected, (N, m, d)


def test_allowability_spec_values():
    octagon = PolygonParams(2, 2)
    assert is_allowable(Diagonal(0, 3), octagon) is True
    assert is_allowable(Diagonal(0, 2), octagon) is False


def test_m1_every_chord_allowable():
    p = PolygonParams(4, 1)
    for a in range(p.N):
        for b in range(a + 2, p.N):
            if (a, b) == (0, p.N - 1):
                continue
            assert is_allowable(Diagonal(a, b), p)


def test_invalid_chords_rejected():
    p = PolygonParams(2, 2)
    with pytest.raises(GeometryError):
        is_allowable(Diagonal(0, 1), p)  # adjacent
    with pytest.raises(GeometryError):
        is_allowable(Diagonal(0, 7), p)  # adjacent around the wrap
    with pytest.raises(GeometryError):
        Diagonal(3, 3)
    with pytest.raises(GeometryError):
        is_allowable(Diagonal(0, 9), p)  # out of range


def test_diagonal_normalizes_endpoints():
    assert diagonal(5, 2) == Diagonal(2, 5)
    assert Diagonal(5, 2) == Diagonal(2, 5)


def test_diagonal_is_its_endpoint_tuple():
    d = Diagonal(5, 2)
    assert (d.a, d.b) == (2, 5)
    assert repr(d) == str(d) == "d(2,5)"
    assert d == (2, 5) and hash(d) == hash((2, 5))
    assert {(2, 5): "chord"}[d] == "chord"


def test_diagonal_order_is_endpoint_order():
    chords = [Diagonal(b, a) for a, b in combinations(range(14), 2)]
    for x in chords:
        for y in chords:
            assert (x < y) == ((x.a, x.b) < (y.a, y.b))
            assert (x == y) == ((x.a, x.b) == (y.a, y.b))


def test_diagonal_is_immutable_and_pickles():
    d = Diagonal(7, 3)
    with pytest.raises(GeometryError, match=r"degenerate chord d\(4,4\)"):
        Diagonal(4, 4)
    with pytest.raises(AttributeError):
        d.a = 0
    with pytest.raises(AttributeError):
        d.label = "x"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(d, protocol))
        assert type(back) is Diagonal and back == d and repr(back) == "d(3,7)"


# ------------------------------------------------------------------- crossing


@pytest.mark.parametrize(
    "d1,d2,expected",
    [
        ((0, 3), (1, 5), True),
        ((0, 3), (3, 6), False),
        ((0, 3), (4, 7), False),
        ((1, 5), (0, 3), True),
        ((2, 6), (0, 4), True),
        ((0, 4), (1, 3), False),  # nested
    ],
)
def test_crossing_cases(d1, d2, expected):
    assert crosses(diagonal(*d1), diagonal(*d2)) is expected


def test_crossing_agrees_with_segment_intersection():
    """On every ordered pair of chords of an N-gon, N <= 14: put vertex i at
    (i, i*i), a convex position in label order, and ask whether the two
    segments meet at a point interior to both (exact integer orientation
    tests; a shared endpoint is not a crossing)."""

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def meet(d1, d2):
        p, q, r, s = ((v, v * v) for v in (*d1, *d2))
        return (
            orient(p, q, r) * orient(p, q, s) < 0
            and orient(r, s, p) * orient(r, s, q) < 0
        )

    for N in range(3, 15):
        chords = [diagonal(a, b) for a, b in combinations(range(N), 2)]
        for d1 in chords:
            for d2 in chords:
                assert crosses(d1, d2) is meet(d1, d2), (d1, d2)


@given(st.lists(st.integers(min_value=0, max_value=19), min_size=4, max_size=4))
def test_crossing_symmetric(vs):
    a, b, c, d = vs
    if a == b or c == d:
        return
    d1, d2 = diagonal(a, b), diagonal(c, d)
    assert crosses(d1, d2) == crosses(d2, d1)


# ------------------------------------------------------------------ validation


def validate_dissection(t: Dissection) -> ValidationResult:
    """The maximality oracle: check the maximal-dissection invariants,
    reporting the first failure in the order allowability, crossing,
    cardinality, face shape."""
    p = t.params
    chords = check_chords(t)
    if not chords.ok:
        return chords
    if len(t.diagonals) != p.n:
        return ValidationResult(
            False, "cardinality", f"{len(t.diagonals)} diagonals, maximality needs n={p.n}"
        )
    for f in faces(t):
        if len(f.corners) != p.m + 2:
            return ValidationResult(
                False, "face-shape", f"cell {f.corners} has {len(f.corners)} sides"
            )
    return ValidationResult(True)


def test_validate_spec_examples():
    ok = dissection(2, 2, [(0, 3), (0, 5)])
    assert validate_dissection(ok).ok

    short = Dissection(PolygonParams(2, 2), (Diagonal(0, 3),))
    res = validate_dissection(short)
    assert not res.ok and res.problem == "cardinality"

    crossing = Dissection(PolygonParams(2, 2), (Diagonal(0, 3), Diagonal(1, 4)))
    res = validate_dissection(crossing)
    assert not res.ok and res.problem == "crossing"

    bad_chord = Dissection(PolygonParams(2, 2), (Diagonal(0, 2), Diagonal(0, 5)))
    res = validate_dissection(bad_chord)
    assert not res.ok and res.problem == "allowability"


def pairwise_chords(t: Dissection) -> ValidationResult:
    """The oracle for check_chords: allowability, then every pair of the
    sorted tuple tested with crosses, reporting the first crossing pair."""
    p = t.params
    for d in t.diagonals:
        try:
            ok = is_allowable(d, p)
        except GeometryError as e:
            return ValidationResult(False, "allowability", str(e))
        if not ok:
            return ValidationResult(False, "allowability", f"{d} is not {p.m}-allowable")
    for d1, d2 in combinations(t.diagonals, 2):
        if crosses(d1, d2):
            return ValidationResult(False, "crossing", f"{d1} crosses {d2}")
    return ValidationResult(True)


def test_bracket_pass_agrees_with_the_pairwise_scan():
    # Every dissection with N <= 12.  For N <= 10 also each sub-dissection
    # missing one diagonal, and each dissection with one more allowable
    # chord, drawn from a seeded generator; a dissection is maximal, so the
    # added chord crosses one of its diagonals.  Then seeded sets of
    # allowable chords of polygons with up to 30 vertices.  Verdict, problem
    # and message must all agree.
    rng = random.Random(15)
    seen = Counter()

    def agree(p: PolygonParams, ds) -> None:
        t = Dissection(p, tuple(ds))
        got = check_chords(t)
        assert got == pairwise_chords(t), t
        seen[got.problem] += 1

    def allowable(p: PolygonParams) -> list[Diagonal]:
        return [
            Diagonal(a, b)
            for a, b in combinations(range(p.N), 2)
            if 2 <= b - a <= p.N - 2 and (b - a) % p.m == 1 % p.m
        ]

    for m in range(1, 11):
        for n in range(1, 11):
            p = PolygonParams(n, m)
            if p.N > 12:
                continue
            chords = allowable(p)
            for diags in dissection_tuples(p):
                agree(p, diags)
                if p.N <= 10:
                    for i in range(n):
                        agree(p, diags[:i] + diags[i + 1 :])
                    agree(p, diags + (rng.choice([d for d in chords if d not in diags]),))
    for _ in range(3000):
        p = PolygonParams(rng.randint(1, 14), rng.randint(1, 4))
        if p.N > 30:
            continue
        chords = allowable(p)
        agree(p, rng.sample(chords, min(len(chords), rng.randint(2, p.n + 2))))
    assert seen == {None: 38_012, "crossing": 4_060}


def test_dissection_refuses_chords_outside_the_polygon(monkeypatch):
    # The cell walk would take such a chord's end for a corner, so
    # construction must refuse it before any face is computed.
    def unreachable(*args):
        raise AssertionError("faces reached")

    monkeypatch.setattr(geometry, "faces", unreachable)
    monkeypatch.setattr(geometry, "_arc_cell", unreachable)
    with pytest.raises(GeometryError, match=r"^d\(7,10\) out of range for a 10-gon$"):
        dissection(3, 2, [(0, 3), (3, 6), (7, 10)])
    with pytest.raises(GeometryError, match=r"d\(-1,3\) out of range"):
        dissection(3, 2, [(3, -1)])
    assert len(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]).diagonals) == 3


# ---------------------------------------------------------------------- faces


def test_faces_pentagon_fan():
    t = dissection(2, 1, [(0, 2), (0, 3)])
    fs = faces(t)
    assert [f.corners for f in fs] == [(0, 2, 1), (0, 3, 2), (0, 4, 3)]


def test_faces_octagon_example():
    t = dissection(2, 2, [(0, 3), (0, 5)])
    fs = faces(t)
    assert [f.corners for f in fs] == [(0, 3, 2, 1), (0, 5, 4, 3), (0, 7, 6, 5)]
    # every diagonal borders exactly two faces, every boundary edge one
    diag_uses = [0] * len(t.diagonals)
    edge_uses = 0
    for f in fs:
        for tag in f.side_diagonals:
            if tag is None:
                edge_uses += 1
            else:
                diag_uses[tag] += 1
    assert diag_uses == [2, 2]
    assert edge_uses == t.params.N


def test_faces_partition_property():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:40]:
            fs = faces(t)
            assert len(fs) == n + 1
            assert all(len(f.corners) == m + 2 for f in fs)
            total_sides = sum(len(f.corners) for f in fs)
            assert total_sides == t.params.N + 2 * n


def scanning_walk(t: Dissection, start: int, end: int) -> tuple[int, ...]:
    """The cell walk as first written: at each corner, scan every chord
    neighbour for the one farthest along the arc from start to end.  The
    oracle for ``geometry._arc_cell`` and for the parent's side of each
    chord in ``geometry.rotation_cycle``."""
    N = t.params.N
    nbrs: dict[int, list[int]] = {}
    for a, b in t.diagonals:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
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


def scanning_walks(t: Dissection) -> dict[tuple[int, int], tuple[int, ...]]:
    """The scanning walk on both sides of every chord and behind edge
    (N-1, 0), keyed by (start, end): every cell was found this way."""
    ends = [(0, t.params.N - 1)] + [e for a, b in t.diagonals for e in ((a, b), (b, a))]
    return {e: scanning_walk(t, *e) for e in ends}


def scanning_cells(walks) -> list[tuple[int, ...]]:
    """The cells those walks found, each once, from its smallest label, in
    sorted order.  The oracle for the cells of ``faces``, read
    anti-clockwise from the smallest label."""
    cells = {frozenset(w): w for w in walks}.values()
    return sorted(w[w.index(min(w)):] + w[: w.index(min(w))] for w in cells)


def test_cell_walk_matches_the_scanning_oracle():
    # Every dissection of every cell with N <= 11, and for N <= 10 each of
    # its sub-dissections missing one diagonal.  Both sides of each chord
    # are compared: _arc_cell walks the arc a..b, and rotation_cycle adds
    # the other side, b back round to a, from the arc of d's parent.
    checked = 0
    for m in range(1, 6):
        for n in range(1, 10):
            p = PolygonParams(n, m)
            if p.N > 11:
                continue
            for diags in dissection_tuples(p):
                subs = [diags]
                if p.N <= 10:
                    subs += [diags[:i] + diags[i + 1 :] for i in range(n)]
                for sub in subs:
                    t = Dissection(p, sub)
                    walks = scanning_walks(t)
                    for d in t.diagonals:
                        a, b = d
                        side, other = walks[a, b], walks[b, a]
                        assert geometry._arc_cell(t.diagonals, a, b)[0] == side, (sub, d)
                        cycle = geometry.rotation_cycle(t, d, 1)
                        assert cycle == side[:-1] + other[:-1], (sub, d)
                    cells = [(f.corners[0],) + f.corners[:0:-1] for f in faces(t)]
                    assert cells == scanning_cells(walks.values()), sub
                    checked += 1
    assert checked == 7_017 + 13_667  # dissections, then partial ones


def test_fan_dissection_faces_contain_apex():
    t = dissection(3, 2, [(0, 3), (0, 5), (0, 7)])
    assert all(0 in f.corners for f in faces(t))


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "n,m,count",
    [(2, 1, 5), (2, 2, 12), (3, 2, 55), (2, 3, 22), (3, 1, 14), (4, 1, 42)],
)
def test_enumeration_counts_frozen(n, m, count):
    ts = all_dissections(n, m)
    assert len(ts) == count
    assert fuss_catalan(n, m) == count


def test_enumeration_matches_brute_force_sets():
    for n, m in small_range(5, 3):
        p = PolygonParams(n, m)
        mine = {t.diagonals for t in all_dissections(n, m)}
        brute = {tuple(sorted(ds)) for ds in brute_force_dissections(p)}
        assert mine == brute, (n, m)


def test_enumeration_is_sorted_and_valid():
    ts = all_dissections(3, 2)
    assert ts == sorted(ts, key=lambda t: t.diagonals)
    assert all(validate_dissection(t).ok for t in ts)


@pytest.mark.parametrize(
    "n,m",
    [(n, m) for m in range(1, 7) for n in range(1, 12) if (n + 1) * m + 2 <= 14],
)
def test_enumeration_streams_in_strict_order(n, m):
    count = 0
    stream = enumerate_dissections(PolygonParams(n, m))
    for x, y in pairwise(stream):
        assert x.diagonals < y.diagonals
        count += 1
    assert count + 1 == fuss_catalan(n, m)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_dissections(PolygonParams(3, 2), cap=10))


@pytest.mark.parametrize("n,m", [(n, m) for n, m in small_range(10, 4) if (n + 1) * m + 2 <= 12])
def test_dissection_tuples_come_sorted(n, m):
    # The fan and its sub-chains concatenate in sorted order, so no tuple
    # is sorted again: each is strictly increasing, made of Diagonals, and
    # equal to the Dissection's own normalized tuple.
    p = PolygonParams(n, m)
    tuples = list(dissection_tuples(p))
    for ds in tuples:
        assert all(type(d) is Diagonal for d in ds)
        assert all(x < y for x, y in pairwise(ds))
    assert tuples == [Dissection(p, ds).diagonals for ds in tuples]
    assert len(tuples) == fuss_catalan(n, m)


# Every cell with N <= 14, and 12/1 (742,900 dissections).
LEX_CELLS = [
    (n, m) for m in range(1, 7) for n in range(1, 12) if (n + 1) * m + 2 <= 14
] + [(12, 1)]


@pytest.mark.parametrize("n,m", LEX_CELLS)
def test_dissection_tuples_match_the_block_sort_oracle(n, m):
    p = PolygonParams(n, m)
    stream = dissection_tuples(p)
    for got, want in zip_longest(stream, block_sort_tuples(p), fillvalue=None):
        assert got == want


def test_enumeration_matches_the_block_sort_oracle_on_small_cells():
    for n, m in small_range(5, 3):
        p = PolygonParams(n, m)
        assert block_sort_tuples(p) == sorted(brute_force_dissections(p))


@pytest.mark.parametrize("n,m,bound_mb", [(10, 1, 4), (12, 1, 10)])
def test_dissection_tuples_drain_without_a_sorted_list(n, m, bound_mb):
    # Holding every tuple and sorting them once at the end peaked at 8.2 MB
    # at 10/1 and 111 MB at 12/1 (Python 3.11.7).  The lex-order generator
    # holds only the memoized sub-chain lists: 1.1 and 8.7 MB, and 12.1 MB
    # at 12/1 if no list were dropped after its last use.
    tracemalloc.start()
    try:
        deque(dissection_tuples(PolygonParams(n, m)), maxlen=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < bound_mb


def walked_list_uses(root, fans_of) -> Counter:
    """The requests for each chain's list, counted by replaying the
    generator's calls: a streamed chain is walked each time it streams, a
    listed one on its first request only."""
    uses: Counter = Counter()

    def walk(key):
        for _, parts in fans_of(key):
            if len(parts) == 1:
                walk(parts[0])
            else:
                for part in parts:
                    uses[part] += 1
                    if uses[part] == 1:
                        walk(part)

    walk(root)
    return uses


@pytest.mark.parametrize(
    "n,m", [(n, m) for m in range(1, 5) for n in range(1, 13) if (n + 1) * m + 2 <= 14]
)
def test_list_uses_match_the_walk_and_every_list_is_dropped(monkeypatch, n, m):
    counted = []
    count = geometry._list_uses

    def checked(root, fans_of):
        uses = count(root, fans_of)
        assert uses == walked_list_uses(root, fans_of)
        counted.append(uses)
        return uses

    monkeypatch.setattr(geometry, "_list_uses", checked)
    # Values are plain ints, so the drain costs little but the walk itself.
    stream = geometry.lex_dissections(PolygonParams(n, m), lambda a, b: 1, sum)
    assert sum(islice(stream, fuss_catalan(n, m))) == n * fuss_catalan(n, m)
    # Suspended after its last value: each list was requested exactly as
    # often as counted, so each was dropped on its last request.
    assert stream.gi_frame.f_locals["lists"] == {}
    (uses,) = counted
    assert set(uses.values()) <= {0}
    assert next(stream, None) is None


@pytest.mark.parametrize(
    "n,m",
    [(n, m) for m in range(1, 7) for n in range(1, 9) if fuss_catalan(n, m) <= ENUMERATION_CAP],
)
def test_the_first_tuple_is_the_fan_at_zero(n, m):
    # mcw enumerate checks its first line against the fan's encoding.
    fan = tuple(Diagonal(0, k * m + 1) for k in range(1, n + 1))
    assert next(dissection_tuples(PolygonParams(n, m))) == fan


def test_dissection_tuples_check_the_cap_on_the_first_pull():
    stream = dissection_tuples(PolygonParams(3, 2), cap=10)
    with pytest.raises(CapExceeded, match="55 dissections exceed the cap of 10"):
        next(stream)


@pytest.mark.parametrize("n,m", LEX_CELLS)
def test_first_pull_refuses_exactly_past_the_cap(monkeypatch, n, m):
    total = fuss_catalan(n, m)
    counted = []

    def counting(n, m):
        counted.append((n, m))
        return fuss_catalan(n, m)

    monkeypatch.setattr(geometry, "fuss_catalan", counting)
    for cap in (0, 1, total - 1, total):
        counted.clear()
        stream = dissection_tuples(PolygonParams(n, m), cap)
        if total > cap:
            with pytest.raises(CapExceeded, match=f"exceed the cap of {cap}$"):
                next(stream)
        else:
            assert len(next(stream)) == n
        # FC(n, m) >= 2^n, so a large n is refused before the count.
        assert counted == ([] if n >= cap.bit_length() else [(n, m)])


# --------------------------------------------------------------------- census


def enumerated_census(n: int, m: int) -> dict[tuple[int, int], int]:
    """The census by enumeration: the derived invariant of every component
    of every dissection's quiver."""
    tally: Counter[tuple[int, int]] = Counter()
    for t in enumerate_dissections(PolygonParams(n, m)):
        for comp in components(quiver_of(t)):
            inv = derived_invariant(comp.quiver)
            tally[(inv.s, inv.r)] += 1
    return dict(tally)


# Every cell with N <= 14 but 10/1 and 11/1 (58,786 and 208,012 dissections).
CENSUS_CELLS = [
    (n, m)
    for m in range(1, 7)
    for n in range(1, 12)
    if (n + 1) * m + 2 <= 14 and (n, m) not in {(10, 1), (11, 1)}
]


@pytest.mark.parametrize("n,m", CENSUS_CELLS)
def test_census_counts_match_enumeration(n, m):
    got = census_counts(PolygonParams(n, m))
    assert got == enumerated_census(n, m)
    assert list(got) == sorted(got)


@pytest.mark.parametrize("n,m", [(40, 1), (20, 2), (10, 4)])
def test_census_counts_identities_beyond_enumeration(monkeypatch, n, m):
    consulted = []

    def spy(nn: int, mm: int) -> int:
        consulted.append((nn, mm))
        return fuss_catalan(nn, mm)

    monkeypatch.setattr(geometry, "fuss_catalan", spy)
    got = census_counts(PolygonParams(n, m))
    # It returned, so the dissections it counted are the ones consulted.
    assert consulted == [(n, m)]
    total = fuss_catalan(n, m)
    assert sum(s * count for (s, _), count in got.items()) == n * total
    if m == 1:
        # A triangulation's quiver is connected, and the triangulations of
        # the N-gon without an inner triangle number N * 2^(N-5).
        N = n + 3
        assert sum(got.values()) == total
        assert got[(n, 0)] == N * 2 ** (N - 5)


# ---------------------------------------------------------------------- moves


def rotation_targets(t: Dissection, d: Diagonal) -> list[Diagonal]:
    """The m distinct rotations d_1 ... d_m of d inside its union 2(m+1)-gon.

    A test oracle by candidate generation and validation: every chord of the
    union region is tried as a substitute for d and kept iff the
    substitution validates; the survivors are returned in rotation-orbit
    order.  apply_move's closed-form shift is tested against it.
    """
    if d not in t.diagonals:
        raise GeometryError(f"{d} is not in the dissection")
    cycle = geometry.rotation_cycle(t, d, 1)
    size = len(cycle)
    rest = tuple(x for x in t.diagonals if x != d)
    valid: dict[Diagonal, int] = {}
    for i in range(size):
        for j in range(i + 1, size):
            cand = diagonal(cycle[i], cycle[j])
            if cand == d or cand in valid:
                continue
            try:
                trial = Dissection(t.params, rest + (cand,))
            except GeometryError:
                continue
            if len(trial.diagonals) != len(t.diagonals):
                continue
            if validate_dissection(trial).ok:
                valid[cand] = 0
    half = size // 2
    ordered: list[Diagonal] = []
    for k in range(1, half):
        target = diagonal(cycle[k % size], cycle[(half + k) % size])
        if target in valid:
            ordered.append(target)
    if len(ordered) != len(valid) or len(ordered) != t.params.m:
        raise GeometryError(
            f"rotation orbit of {d} is malformed: {sorted(valid)} vs {ordered}"
        )
    return ordered



def test_pentagon_flip_spec_example():
    t = dissection(2, 1, [(0, 2), (0, 3)])
    t2 = apply_move(t, Diagonal(0, 2), +1)
    assert t2.diagonals == (Diagonal(0, 3), Diagonal(1, 3))
    assert rotation_targets(t, Diagonal(0, 2)) == [Diagonal(1, 3)]


def test_octagon_rotation_targets_spec_example():
    t = dissection(2, 2, [(0, 3), (3, 6)])
    targets = rotation_targets(t, Diagonal(3, 6))
    assert targets == [Diagonal(4, 7), Diagonal(0, 5)]


def test_move_requires_member_diagonal():
    t = dissection(2, 1, [(0, 2), (0, 3)])
    with pytest.raises(GeometryError):
        apply_move(t, Diagonal(1, 3), +1)
    with pytest.raises(GeometryError):
        apply_move(t, Diagonal(0, 2), +2)


def test_rotation_cycle_refuses_a_walk_that_misses_an_endpoint():
    # The constructor accepts crossing chords; check_chords refuses them.
    # A walk around d(0,2) or d(1,3), which cross, misses an endpoint of
    # each, and the move paths refuse it by name.  d(0,4) crosses neither
    # chord, so its walk holds both its endpoints and is returned; its 5
    # corners, not 2(m+1) = 4, come from the crossing it does not see.
    t = dissection(3, 1, [(0, 2), (1, 3), (0, 4)])
    for d, gon in ((Diagonal(0, 2), "(0, 1, 3, 4)"), (Diagonal(1, 3), "(0, 2, 3, 4)")):
        message = re.escape(f"{t!r} crosses at {d!r}: the walk around it gave {gon}")
        with pytest.raises(GeometryError, match=message):
            geometry.rotation_cycle(t, d, 1)
        with pytest.raises(GeometryError, match=message):
            apply_move(t, d, -1)
    assert geometry.rotation_cycle(t, Diagonal(0, 4), 1) == (0, 2, 3, 4, 5)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (1, 4)])
def test_move_group_laws_small(n, m):
    for t in all_dissections(n, m):
        for d in t.diagonals:
            # mu^(m+1) = identity on the orbit
            cur, cur_d = t, d
            for _ in range(m + 1):
                nxt = apply_move(cur, cur_d, +1)
                (cur_d,) = set(nxt.diagonals) - set(cur.diagonals) or {cur_d}
                cur = nxt
            assert cur == t
            # mu then mu^{-1} is the identity
            fwd = apply_move(t, d, +1)
            (fwd_d,) = set(fwd.diagonals) - set(t.diagonals) or {d}
            assert apply_move(fwd, fwd_d, -1) == t


def test_apply_move_agrees_with_rotation_targets():
    for n, m in small_range(4, 3):
        for t in all_dissections(n, m)[:25]:
            for d in t.diagonals:
                targets = rotation_targets(t, d)
                cur, cur_d = t, d
                stepped = []
                for _ in range(m):
                    nxt = apply_move(cur, cur_d, +1)
                    (cur_d,) = set(nxt.diagonals) - set(cur.diagonals) or {cur_d}
                    stepped.append(cur_d)
                    cur = nxt
                assert stepped == targets, (t, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moves_preserve_validity(data):
    n, m = data.draw(st.sampled_from(small_range(5, 3)))
    ts = all_dissections(n, m)
    t = data.draw(st.sampled_from(ts))
    d = data.draw(st.sampled_from(t.diagonals))
    k = data.draw(st.sampled_from([-1, +1]))
    moved = apply_move(t, d, k)
    assert len(moved.diagonals) == len(t.diagonals)
    assert validate_dissection(moved).ok
