"""Polygon model: the regular (n+1)m+2-gon, m-allowable diagonals, dissections,
faces, and the elementary rotation move on diagonals.

Vertices of the polygon are labelled 0..N-1 anti-clockwise, so "clockwise"
always means decreasing labels.  Diagonals are stored with endpoints
normalized a < b.  Cyclic symmetry is not quotiented: dissections differing
by a polygon rotation are distinct objects.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar


_V = TypeVar("_V")


class GeometryError(ValueError):
    """Invalid geometric input (bad chord, missing diagonal, ...)."""

    exit_code = 2


class CapExceeded(RuntimeError):
    """An enumeration or reduction exceeded its configured cap."""

    exit_code = 3


class CensusError(RuntimeError):
    """A census failed one of its counting identities."""

    exit_code = 1


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


# The value types are tuples: a typing.NamedTuple where no field needs
# checking, and a subclass of one whose __new__ checks and normalizes where
# a field does.  _replace and _make skip __new__, so nothing calls them.
class PolygonParams(NamedTuple("PolygonParams", [("n", int), ("m", int)])):
    """Rank n, level m; the polygon has N = (n+1)*m + 2 vertices."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> PolygonParams:
        if n < 1 or m < 1:
            raise GeometryError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        return tuple.__new__(cls, (n, m))

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
    """True iff the chords cross in the interior (shared endpoints do not):
    exactly one endpoint of each lies strictly between the other's."""
    a, b = d1
    c, d = d2
    return a < c < b < d or c < a < d < b


class Dissection(
    NamedTuple("Dissection", [("params", PolygonParams), ("diagonals", tuple[Diagonal, ...])])
):
    """A set of pairwise non-crossing m-allowable diagonals.

    Maximal dissections (|diagonals| = n) are the main objects; partial sets
    are representable so that cell/component computations can be exercised on
    them.  Callers that need maximality check it themselves: ``mcw mutate``
    counts the diagonals, and the other commands screen each component of
    the quiver with ``realizability_report``.  Construction refuses a
    diagonal with an endpoint outside 0..N-1, which the cell walk would
    take for a corner; crossing and allowability are check_chords'.  The
    diagonals are stored sorted, each once, and the cell walk bisects them.
    A Dissection holds nothing but its tuple: it has no instance
    ``__dict__`` and caches nothing.
    """

    __slots__ = ()

    def __new__(cls, params: PolygonParams, diagonals: Iterable[Diagonal]) -> Dissection:
        diags = tuple(sorted(set(diagonals)))
        N = params.N
        # Sorted, so diags[0] has the smallest first endpoint.
        if diags and (diags[0][0] < 0 or max(map(itemgetter(1), diags)) >= N):
            raise _out_of_range(next(d for d in diags if d[0] < 0 or d[1] >= N), N)
        return tuple.__new__(cls, (params, diags))

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.diagonals))
        return f"Dissection(n={self.params.n}, m={self.params.m}, {{{inner}}})"


def dissection(n: int, m: int, chords: list[tuple[int, int]] | list[Diagonal]) -> Dissection:
    """Convenience constructor from (a, b) pairs."""
    diags = tuple(c if isinstance(c, Diagonal) else diagonal(*c) for c in chords)
    return Dissection(PolygonParams(n, m), diags)


class Face(NamedTuple):
    """One cell of the dissection.

    corners: cell vertices starting from the smallest label, then proceeding
    clockwise (decreasing labels), per the fixed storage convention.
    side_diagonals[i] is the index of the diagonal joining corners[i] to
    corners[i+1] (cyclically), or None for a boundary edge of the polygon.
    """

    corners: tuple[int, ...]
    side_diagonals: tuple[int | None, ...]


class ValidationResult(NamedTuple):
    ok: bool
    problem: str | None = None
    detail: str | None = None


def _arc_cell(
    diags: tuple[Diagonal, ...], lo: int, hi: int
) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """The cell on the arc lo..hi (lo < hi) of the chord or boundary edge
    (lo, hi): its corners from lo up to hi (anti-clockwise), and the side
    after each corner but hi, as an index into diags or None for an edge.

    From each corner x the next is the end of the longest chord (x, y) with
    y <= hi other than (lo, hi), found by bisecting the sorted diags, or
    else x + 1.  A chord that crosses none stays inside the arc it starts
    in, so the walk never wraps past N-1."""
    corners = [lo]
    sides: list[int | None] = []
    x, key = lo, (lo, hi)
    while x != hi:
        i = bisect_left(diags, key) - 1
        if i >= 0 and diags[i][0] == x:
            x = diags[i][1]
            sides.append(i)
        else:
            x += 1
            sides.append(None)
        corners.append(x)
        key = (x, hi + 1)
    return tuple(corners), tuple(sides)


def faces(t: Dissection) -> list[Face]:
    """The cells of t as Face values (corner convention: smallest label first,
    then clockwise), sorted by their anti-clockwise corners.  For a valid
    maximal dissection these are n+1 cells, each an (m+2)-gon, and every
    diagonal borders exactly two of them.  Works for partial dissections.

    A cell's corners c0 < ... < ck lie in this order anti-clockwise, so its
    side (c0, ck) is a chord or the boundary edge (0, N-1), and the cell lies
    on that side's arc from c0 to ck.  Each chord and that edge so close
    exactly one cell, which _arc_cell walks with all its sides named."""
    diags = t.diagonals
    walks = [_arc_cell(diags, a, b) + (i,) for i, (a, b) in enumerate(diags)]
    walks.append(_arc_cell(diags, 0, t.params.N - 1) + (None,))
    walks.sort(key=itemgetter(0))
    return [Face((c[0],) + c[:0:-1], (close,) + sides[::-1]) for c, sides, close in walks]


def check_chords(t: Dissection) -> ValidationResult:
    """Check that every diagonal is allowable and no two cross, reporting
    the first failure in that order; partial dissections pass."""
    p = t.params
    for d in t.diagonals:
        try:
            ok = is_allowable(d, p)
        except GeometryError as e:
            return ValidationResult(False, "allowability", str(e))
        if not ok:
            return ValidationResult(False, "allowability", f"{d} is not {p.m}-allowable")
    # Taken by first endpoint, longest first, non-crossing chords nest like
    # brackets: each must end inside the innermost chord still open at its
    # start.  Only a crossing pays for the pairwise scan, which names the
    # first crossing pair of the sorted tuple.
    N = p.N
    ends: list[int] = []
    for a, b in sorted(t.diagonals, key=lambda d: d[0] * N - d[1]):
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and b > ends[-1]:
            d1, d2 = next(pair for pair in combinations(t.diagonals, 2) if crosses(*pair))
            return ValidationResult(False, "crossing", f"{d1} crosses {d2}")
        ends.append(b)
    return ValidationResult(True)


def fuss_catalan(n: int, m: int) -> int:
    """Number of maximal dissections: (1/(n+1)) * C((m+1)(n+1), n)."""
    return math.comb((m + 1) * (n + 1), n) // (n + 1)


# The default cap on the number of dissections an enumeration may yield.
ENUMERATION_CAP = 10**6

# A chain (x, y, g) of lex_dissections: the arc x..y split into g gaps.
_Chain = tuple[int, int, int]


def _list_uses(
    root: _Chain, fans_of: Callable[[_Chain], Iterable[tuple[object, tuple[_Chain, ...]]]]
) -> Counter[_Chain]:
    """How many times lex_dissections requests each chain's list of values,
    counted in one pass over the distinct chains reachable from root,
    longest arc first.

    A chain's values are generated runs(c) = streams(c) + (uses(c) > 0)
    times: once each time it is streamed, and once to fill its list if any
    fan requests that.  Every run goes through all of the chain's fans: a
    fan with one sub-chain streams it, and a fan with several requests each
    sub-chain's list.  A sub-chain's arc is shorter than its chain's, so
    each count is final before it is passed on.  The chains are kept by
    arc length, one set for each length that occurs, dropped once walked:
    at n = 1 the polygon has about 2m arc lengths, and a set for every one
    of them was most of this pass's memory."""
    streams: Counter[_Chain] = Counter({root: 1})
    uses: Counter[_Chain] = Counter()
    by_arc: dict[int, set[_Chain]] = {root[1] - root[0]: {root}}
    for arc in range(root[1] - root[0], 0, -1):
        for key in by_arc.pop(arc, ()):
            runs = streams[key] + (uses[key] > 0)
            for _, parts in fans_of(key):
                tally = streams if len(parts) == 1 else uses
                for part in parts:
                    tally[part] += runs
                    by_arc.setdefault(part[1] - part[0], set()).add(part)
    return uses


def lex_dissections(
    p: PolygonParams,
    unit: Callable[[int, int], _V],
    join: Callable[[Iterable[_V]], _V],
    cap: int = ENUMERATION_CAP,
) -> Iterator[_V]:
    """Yield one value per maximal dissection exactly once, in lexicographic
    order on its sorted diagonal tuple, generated in that order: no list of
    all dissections is held and none is sorted.

    A dissection's value is the concatenation, in sorted order, of
    unit(a, b) over its diagonals (a, b).  Values are concatenated with +
    and join, which takes an iterable of values; join(()) is the empty
    value.  With 1-tuples of Diagonal the value is the sorted diagonal
    tuple (dissection_tuples); with text fragments it is the text of the
    diagonal list (serialize.dissection_lines).  unit is called once per
    fan diagonal of a chain, not once per dissection.

    A chain (x, y, g) is the arc x..y split into g gaps, each gap a
    boundary edge or a diagonal over the region below it; every gap spans
    1 (mod m) edges.  A chain's sorted tuples begin with its fan at x, the
    diagonals (x, h_1) < ... < (x, h_j), which leaves the sub-chains
    (x+1, h_1, m), (h_1, h_2, m), ..., (h_j, y, g-1): the cell on (x, h_i)
    is x followed by the m gaps from h_(i-1) to h_i, and the first gap of
    each cell is the next fan diagonal in or the edge (x, x+1).  Each
    sub-chain keeps to its own range of labels, so for a fixed fan the
    product of the sub-chains' sorted lists concatenates in lexicographic
    order.  Fans compare as sequences padded with +infinity: a fan that
    stops sorts after every fan that continues it, since the next diagonal
    of its tuple no longer starts at x.  The root is the chain
    (0, N-1, m+1) on the boundary edge (N-1, 0).

    A fan left with one sub-chain streams it; a fan with several takes the
    sub-chains' lists of values from a memo, and each list is dropped once
    the last fan that uses it has taken it; _list_uses counts those fans
    before the first value.

    Refuses parameter ranges whose Fuss-Catalan count exceeds `cap`; the
    check runs on the first pull.  FC(n, m) >= FC(n, 1) = Catalan(n+1) >=
    2^n, so an n of at least cap.bit_length() is refused without computing
    the count, which has tens of thousands of digits at n = 10^5.
    """
    if p.n >= cap.bit_length():
        raise CapExceeded(f"at least 2^{p.n} dissections exceed the cap of {cap}")
    total = fuss_catalan(p.n, p.m)
    if total > cap:
        raise CapExceeded(f"{total} dissections exceed the cap of {cap}")
    N, m = p.N, p.m
    empty = join(())
    fans: dict[_Chain, list[tuple[_V, tuple[_Chain, ...]]]] = {}

    def fans_of(key: _Chain) -> list[tuple[_V, tuple[_Chain, ...]]]:
        # The fans at x in output order, each with the sub-chains it leaves;
        # a sub-chain of boundary edges only (y - x == g) has one empty
        # value and is left out.
        out = fans.get(key)
        if out is None:
            x, y, g = key
            out = fans[key] = []

            def grow(prev: int, fan: _V, parts: tuple[_Chain, ...]) -> None:
                for h in range(prev + m, y - g + 2, m):
                    sub = parts if h - prev == m else parts + ((prev, h, m),)
                    grow(h, fan + unit(x, h), sub)
                if g > 1 or prev == y:
                    rest = parts if y - prev == g - 1 else parts + ((prev, y, g - 1),)
                    out.append((fan, rest))

            grow(x + 1, empty, ())
        return out

    root = (0, N - 1, m + 1)
    uses = _list_uses(root, fans_of)
    lists: dict[_Chain, list[_V]] = {}

    def chain_list(key: _Chain) -> list[_V]:
        out = lists.get(key)
        if out is None:
            out = lists[key] = list(chain_values(key))
        uses[key] -= 1
        if not uses[key]:
            del lists[key]
        return out

    def chain_values(key: _Chain) -> Iterator[_V]:
        # A fan with one sub-chain streams it through a stack of the fans
        # taken so far, not a generator per level: at n = 1 the chain is
        # about m levels deep, past the interpreter's recursion limit.
        stack = [(empty, iter(fans_of(key)))]
        while stack:
            head, it = stack[-1]
            for fan, parts in it:
                fan = head + fan
                if not parts:
                    yield fan
                elif len(parts) == 1:
                    stack.append((fan, iter(fans_of(parts[0]))))
                    break
                else:
                    for combo in product((fan,), *map(chain_list, parts)):
                        yield join(combo)
            else:
                stack.pop()

    yield from chain_values(root)


def dissection_tuples(
    p: PolygonParams, cap: int = ENUMERATION_CAP
) -> Iterator[tuple[Diagonal, ...]]:
    """Yield the sorted diagonal tuple of every maximal dissection exactly
    once, in lexicographic order; see lex_dissections for the order and
    the cap."""
    return lex_dissections(p, lambda a, b: (Diagonal(a, b),), lambda parts: sum(parts, ()), cap)


def enumerate_dissections(p: PolygonParams, cap: int = ENUMERATION_CAP) -> Iterator[Dissection]:
    """Yield every maximal dissection exactly once, in lexicographic order on
    the sorted diagonal tuple; see dissection_tuples for the cap."""
    for diags in dissection_tuples(p, cap):
        yield Dissection(p, diags)


class _Runs:
    """Partial cells in one state of the fold (leading, middle or trailing),
    summed over the sub-dissections below their diagonal sides.

    ``count`` is how many there are.  The other fields map a component key
    s*K + r to how often it occurs among them: ``lead`` for the merged
    leading run of diagonal sides, ``run`` for the run being built, and
    ``closed`` for the components that can grow no further.
    """

    __slots__ = ("count", "lead", "run", "closed")

    def __init__(self) -> None:
        self.count = 0
        self.lead: dict[int, int] = {}
        self.run: dict[int, int] = {}
        self.closed: dict[int, int] = {}


def _add(dst: dict[int, int], src: dict[int, int], k: int = 1, shift: int = 0) -> None:
    for key, v in src.items():
        key += shift
        dst[key] = dst.get(key, 0) + k * v


def _convolve(dst: dict[int, int], x: dict[int, int], y: dict[int, int]) -> None:
    """Add to dst every sum of a key of x and a key of y, weighted by the
    product of their counts: the component that merges the two."""
    get = dst.get
    for kx, vx in x.items():
        for ky, vy in y.items():
            key = kx + ky
            dst[key] = get(key, 0) + vx * vy


# The program's one size limit: a polygon of more vertices is refused by
# census_counts before any table is built, and a dissection or quiver file
# past it is refused on loading.  census_counts keeps a fold per arc length,
# about 2 KB per polygon vertex (95 MB at 3/10000, N = 40,002; 815 MB at
# 3/100000).  A dissection of the largest polygon allowed has fewer
# diagonals, hence quiver vertices, than the limit.
MAX_VERTICES = 100_000
# Its time goes to the convolution terms, about 0.4 us each, and their count
# grows about as n^3.6 at m = 1; past this budget a census is refused.
CENSUS_MAX_TERMS = 10**7


def census_counts(p: PolygonParams) -> dict[tuple[int, int], int]:
    """Components of each class (s, r) summed over every maximal dissection,
    counted without building one, as {(s, r): count} in increasing (s, r)
    order: s is the vertex count, r the number of full (m+2)-cycles.

    Both are local to cells.  Two diagonals are joined iff they are
    consecutive sides of one cell, and a full cycle is a cell whose m+2
    sides are all diagonals.  The recursion is dissection_tuples': the
    region below a diagonal over an arc of length L (L = 1 mod m) is the
    cell on that diagonal, whose other m+1 sides split L into gaps, each a
    boundary edge or the diagonal of a smaller region.  The count of a
    region depends on L alone.  For each L the DP keeps the number of
    sub-dissections, the (s, r) of the component that stays open across
    the diagonal (the diagonal counted), and the components already closed,
    summed over the sub-dissections.  A cell is folded over its sides left
    to right: a run of consecutive diagonal sides merges its regions' open
    components; a run that touches the closing diagonal stays open, any
    other closes; a cell of diagonals only adds a full cycle.  The root
    cell lies on the boundary edge (N-1, 0), so all its runs close.

    The work grows polynomially in N, not with FC(n, m), so no cap on FC
    bounds it.  Two budgets raise CapExceeded instead: a polygon of more
    than MAX_VERTICES vertices is refused before any table is built,
    and a convolution that would take the census past CENSUS_MAX_TERMS
    (10^7) terms before it runs; n = 174 is the largest census at m = 1
    (9.9 million terms).  Raises CensusError unless the dissections counted
    are fuss_catalan(n, m) and the component sizes sum to n times that,
    every diagonal being a vertex of exactly one component.
    """
    N, m = p.N, p.m
    if N > MAX_VERTICES:
        raise CapExceeded(
            f"a census of the {N}-gon (n={p.n}, m={m}) exceeds the cap of "
            f"{MAX_VERTICES} polygon vertices"
        )
    K = p.n + 1  # (s, r) is keyed s*K + r, as r <= s <= n < K
    # region[L] = (count, open, closed) below a diagonal over an arc of length L
    region: dict[int, tuple[int, dict[int, int], dict[int, int]]] = {}
    start = _Runs()
    start.count, start.lead = 1, {0: 1}
    # prefix[i][length]: the (leading, middle, trailing) folds over the first
    # i gaps of a cell, spanning that length of arc.  Leading: every side so
    # far a diagonal.  Middle: a boundary edge seen, the run being built
    # closes at the next one.  Trailing: the run being built is the last,
    # merged with the leading run through the closing diagonal.
    prefix: list[dict[int, tuple[_Runs, _Runs, _Runs]]] = [{0: (start, _Runs(), _Runs())}]
    prefix += [{} for _ in range(m)]
    terms = 0

    def convolve(dst: dict[int, int], x: dict[int, int], y: dict[int, int]) -> None:
        nonlocal terms
        terms += len(x) * len(y)
        if terms > CENSUS_MAX_TERMS:
            raise CapExceeded(
                f"a census of the {N}-gon (n={p.n}, m={m}) exceeds the budget of "
                f"{CENSUS_MAX_TERMS} convolution terms"
            )
        _convolve(dst, x, y)

    def fold(i: int, length: int) -> tuple[_Runs, _Runs, _Runs]:
        lead, mid, trail = _Runs(), _Runs(), _Runs()
        src = prefix[i - 1]
        # Gap i is a boundary edge: the run being built closes, and a middle
        # or the trailing run starts.  A trailing run takes no boundary edge.
        if (x := src.get(length - 1)) is not None:
            for y in x[:2]:
                if y.count:
                    mid.count += y.count
                    trail.count += y.count
                    _add(mid.lead, y.lead)
                    _add(trail.run, y.lead)
                    mid.run[0] = mid.run.get(0, 0) + y.count
                    for acc in (mid.closed, trail.closed):
                        _add(acc, y.closed)
                        _add(acc, y.run)
        # Gap i is the diagonal of a region over g: it joins the run.
        for g in range(m + 1, length - i + 2, m):
            if (x := src.get(length - g)) is None:
                continue
            cc, co, ct = region[g]
            for y, acc in zip(x, (lead, mid, trail)):
                if not y.count:
                    continue
                acc.count += y.count * cc
                if acc is lead:
                    convolve(acc.lead, y.lead, co)
                else:
                    _add(acc.lead, y.lead, cc)
                    convolve(acc.run, y.run, co)
                _add(acc.closed, y.closed, cc)
                _add(acc.closed, ct, y.count)
        for acc in (lead, mid, trail):
            acc.closed.pop(0, None)  # an empty run closes no component
        return lead, mid, trail

    for length in range(1, N - 1):
        if length > 1 and (length - 1) % m == 0:
            lead, _, trail = fold(m + 1, length)
            opened: dict[int, int] = {}
            # The closing diagonal joins the open component; when every side
            # of the cell is a diagonal, the cell is also one more full cycle.
            _add(opened, lead.lead, shift=K + 1)
            _add(opened, trail.run, shift=K)
            closed = dict(lead.closed)
            _add(closed, trail.closed)
            region[length] = (lead.count + trail.count, opened, closed)
        # Every gap spans 1 mod m, so i gaps span i mod m: one slot fits.
        i = (length - 1) % m + 1
        prefix[i][length] = fold(i, length)

    # The root cell: its last side is the boundary edge (N-1, 0), so the
    # leading run closes too, apart from the trailing one.
    lead, mid, _ = fold(m + 1, N - 1)
    count = lead.count + mid.count
    tally: dict[int, int] = {}
    for acc in (lead, mid):
        for part in (acc.lead, acc.run, acc.closed):
            _add(tally, part)
    tally.pop(0, None)
    total = fuss_catalan(p.n, m)
    if count != total:
        raise CensusError(f"counted {count} dissections of the {N}-gon, expected {total}")
    vertices = sum(key // K * c for key, c in tally.items())
    if vertices != p.n * total:
        raise CensusError(
            f"components of the {N}-gon's dissections hold {vertices} vertices, "
            f"expected n*FC = {p.n * total}"
        )
    return {divmod(key, K): c for key, c in sorted(tally.items())}


def rotation_cycle(t: Dissection, d: Diagonal, k: int) -> tuple[int, ...]:
    """Boundary cycle (anti-clockwise) of the 2(m+1)-gon formed by the two
    cells adjacent to d, in which d rotates by k; d's endpoints sit at
    positions 0 and m+1.  Refuses a d outside t and a k other than +1, -1.

    Without d, the two cells are one, on the arc of d's parent: the
    innermost chord enclosing d, or else the edge (0, N-1).  It is the next
    chord if that starts at a; otherwise, scanning back from d to the first
    chord that ends at b or beyond, the chord of that start that ends
    nearest b.  One walk on that arc, rotated to start at a, is the cycle.
    On a crossing t, which the constructor accepts, a walk that misses an
    endpoint of d raises GeometryError; a crossing that leaves both on the
    walk goes unseen."""
    diags, N = t.diagonals, t.params.N
    i = bisect_left(diags, d)
    if i == len(diags) or diags[i] != d:
        raise GeometryError(f"{d} is not in the dissection")
    if k not in (-1, +1):
        raise GeometryError(f"step k must be +1 or -1, got {k}")
    a, b = d
    if i + 1 < len(diags) and diags[i + 1][0] == a:
        parent = diags[i + 1]
    else:
        j = i - 1
        while j >= 0 and diags[j][1] < b:
            j -= 1
        parent = diags[bisect_left(diags, (diags[j][0], b), 0, j)] if j >= 0 else (0, N - 1)
    gon, _ = _arc_cell(diags[:i] + diags[i + 1 :], *parent)
    if a not in gon or b not in gon:
        raise GeometryError(f"{t!r} crosses at {d}: the walk around it gave {gon}")
    at = gon.index(a)
    return gon[at:] + gon[:at]


def apply_move(t: Dissection, d: Diagonal, k: int) -> Dissection:
    """Replace d by its k-th rotation inside the union of its two adjacent
    cells (k = +1 anti-clockwise, k = -1 clockwise); returns a new Dissection.

    The rotation shifts both endpoints of d by k steps along the union
    boundary, keeping them antipodal; composite powers go via iteration.
    """
    cycle = rotation_cycle(t, d, k)
    size = len(cycle)
    half = size // 2
    a = cycle[k % size]
    b = cycle[(half + k) % size]
    i = t.diagonals.index(d)
    return Dissection(t.params, t.diagonals[:i] + (diagonal(a, b),) + t.diagonals[i + 1 :])
