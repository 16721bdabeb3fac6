"""Cartan matrices and their invariants.

The Cartan matrix of a bound quiver counts relation-free paths between
vertices.  Its Smith normal form, together with the vertex count and the
number of fully-relational cycles, is what the rest of the package uses to
recognise derived equivalence.  The normal form is computed over the
integers with explicit unimodular transforms, and every computation checks
``u @ m @ v == d`` before it returns: ``smith_normal_form`` hands the
transforms to the caller, and ``snf_diagonal`` keeps only its diagonal.
Both run the one audited core, ``_smith``.  ``snf_diagonal`` memoizes its
result in a bounded ``functools.lru_cache`` keyed by the immutable matrix,
so a matrix met again while it is cached is not recomputed or re-audited.
``cartan_matrix`` has a small memo of its own, keyed by the quiver value,
so consecutive reduction steps, which share a state, count its paths once.
``happel_hom_dims`` predicts the Cartan matrix after a tilting move from the
one complex that replaces the moved vertex's stalk.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .algebra import QuiverWithRelations


class HomologyError(ValueError):
    """Raised for malformed matrices or quivers outside the supported shape."""

    exit_code = 1


class IntMatrix(NamedTuple("IntMatrix", [("rows", tuple[tuple[int, ...], ...])])):
    """A square integer matrix stored as a tuple of row tuples.  ``m[i, j]``
    reads one entry."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        if type(rows) is not tuple or any(type(row) is not tuple for row in rows):
            rows = tuple(map(tuple, rows))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise HomologyError("matrix must be square")
        if set(map(type, chain.from_iterable(rows))) - {int}:
            bad = next(x for row in rows for x in row if type(x) is not int)
            raise HomologyError(
                f"matrix entries must be int, got {bad!r} ({type(bad).__name__})"
            )
        return tuple.__new__(cls, (rows,))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]


def _product(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """Plain list product of two square integer matrices of one size."""

    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def determinant(m: IntMatrix) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination.

    After step k every entry of the trailing block is a (k+1)-minor of
    ``m``, so the division by the previous pivot is exact (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968).
    """

    n = m.size
    a = [list(row) for row in m.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


# A reduction step reads the matrices of its state and of the move's result
# in the move's Happel check and again in its MoveRecord, and the state
# after one step is the state before the next: on the s = 40 reduction in
# tests/data, 1,371 of 1,829 calls hit, one miss per state.
@lru_cache(maxsize=8)
def cartan_matrix(q: QuiverWithRelations) -> IntMatrix:
    """Count relation-free paths between vertices.

    Entry (i, j) is the number of paths from vertex i to vertex j that do
    not pass through any relation, including the length-zero path when
    i == j.  Quivers with a relation-free cycle have no finite count and
    are reported as an error; the depth guard is one more than the number
    of arrows, which no repetition-free path can exceed.  Memoized per
    quiver value.
    """

    n = q.vertex_count
    cap = len(q.arrows) + 1
    forbidden = q.relations
    counts = [[0] * n for _ in range(n)]
    for start in range(n):
        row = counts[start]
        # (vertex, last arrow, depth) per path still to extend, depth-first
        # on an explicit stack: a path may be as long as the quiver.
        stack: list[tuple[int, int | None, int]] = [(start, None, 0)]
        while stack:
            vertex, last_arrow, depth = stack.pop()
            if depth > cap:
                raise HomologyError(
                    "relation-free cycle detected while counting paths"
                )
            row[vertex] += 1
            for a in q.out_arrows[vertex]:
                if last_arrow is None or (last_arrow, a.id) not in forbidden:
                    stack.append((a.target, a.id, depth + 1))
    return IntMatrix(tuple(tuple(row) for row in counts))


class SmithNormalForm(NamedTuple):
    """Diagonal form ``d`` with unimodular ``u``, ``v`` so u @ m @ v == d."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.rows[i][i] for i in range(self.d.size))


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Audited Smith normal form of a square matrix given as rows: (d, u, v).

    Classic elimination in one loop: move the smallest nonzero entry of the
    working block to the pivot (the scan stops at the first unit, which is
    as small as an entry gets) and clear its row and column with integer
    row and column operations.  The pivot is final once no remainder is
    left and it divides every entry of the rest of the block, which a unit
    always does; otherwise the smallest remainder becomes the next pivot,
    or a row holding an entry it does not divide is added to the pivot's
    row.  So d[t] | d[t+1] holds as the pivots are fixed.

    The work is one 2n-row array: row i < n is row i of the matrix followed
    by row i of ``u``, and rows n..2n-1 are ``v``, both starting as the
    identity.  A row operation acts on rows below n, so it carries ``u``
    along; a column operation acts on columns below n of every row, so it
    carries ``v``.  The searches and tests read columns below n only.  d, u
    and v are read off the array, and ``u @ m @ v == d`` is checked before
    returning.
    """

    n = len(rows)
    w = [list(row) + e for row, e in zip(rows, _identity(n))] + _identity(n)

    def add_row(dst: int, src: int, k: int) -> None:
        w[dst] = [x + k * y for x, y in zip(w[dst], w[src])]

    def smallest(t: int) -> tuple[int, int] | None:
        """Position of the first entry of least absolute value in the block."""

        best = None
        best_abs = 0
        for i in range(t, n):
            row = w[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        return best
        return best

    for t in range(n):
        while (pivot := smallest(t)) is not None:
            i, j = pivot
            w[t], w[i] = w[i], w[t]
            for row in w:
                row[t], row[j] = row[j], row[t]
            p = w[t][t]
            for i in range(t + 1, n):
                if w[i][t]:
                    add_row(i, t, -(w[i][t] // p))
            for j in range(t + 1, n):
                if w[t][j]:
                    k = -(w[t][j] // p)
                    for row in w:
                        row[j] += k * row[t]
            if any(w[i][t] for i in range(t + 1, n)) or any(w[t][t + 1 : n]):
                continue
            if abs(p) == 1:
                break
            bad = next(
                (i for i in range(t + 1, n) if any(x % p for x in w[i][t + 1 : n])),
                None,
            )
            if bad is None:
                break
            add_row(t, bad, 1)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

    d = [row[:n] for row in w[:n]]
    u = [row[n:] for row in w[:n]]
    v = w[n:]
    if _product(_product(u, rows), v) != d:
        raise HomologyError("transform bookkeeping broke: u @ m @ v != d")
    return d, u, v


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Smith normal form over the integers, with its audited transforms."""

    d, u, v = _smith(m.rows)
    return SmithNormalForm(
        d=IntMatrix(tuple(map(tuple, d))),
        u=IntMatrix(tuple(map(tuple, u))),
        v=IntMatrix(tuple(map(tuple, v))),
    )


# A reduction step's MoveRecord reads the Smith form before and after the
# move, and the state after one step is the state before the next: 457 of
# 915 calls hit on the s = 40 reduction in tests/data, and 646 of 794 on
# `mcw check --n 4 --m 2 --seed 1`, whose 148 distinct matrices all fit.
@lru_cache(maxsize=256)
def snf_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the audited Smith normal form.

    Memoized per distinct matrix: ``IntMatrix`` is immutable and the result
    is a tuple, so every caller of one matrix shares one audited answer.
    A miss goes through ``smith_normal_form``, so per-layer timings see one
    Smith computation per audit.
    """

    return smith_normal_form(m).diagonal


def cycle_parity_counts(q: QuiverWithRelations) -> tuple[int, int]:
    """(odd, even) counts of fully-relational cycle lengths, read off the
    closed relation runs."""

    odd = sum(len(run) % 2 for closed, run in q.runs if closed)
    return odd, q.full_cycle_count - odd


def bh_diagonal(q: QuiverWithRelations) -> tuple[int, ...]:
    """The Smith diagonal that the cycle parities of a gentle quiver predict
    (Bessenrodt–Holm): 1 in the slots no cycle takes, then one 2 per odd
    fully-relational cycle and one 0 per even one.  The Cartan matrix's
    Smith normal form must equal it.
    """

    odd, even = cycle_parity_counts(q)
    rest = q.vertex_count - odd - even
    if rest < 0:
        raise HomologyError("more cycles than vertices")
    return (1,) * rest + (2,) * odd + (0,) * even


class DerivedInvariant(NamedTuple):
    """Vertex count and cycle count, with corroborating Cartan data.

    Like every value type it compares as its tuple.  The Smith normal form
    and the parity counts are determined by (s, r) for the algebras this
    package produces; carrying them as data lets the consistency be
    asserted rather than assumed, and ``derived_equivalent`` is the one
    rule that decides a class by (s, r).
    """

    s: int
    r: int
    snf: tuple[int, ...]
    cycle_parity_counts: tuple[int, int] = (0, 0)


def derived_invariant(q: QuiverWithRelations) -> DerivedInvariant:
    odd, even = cycle_parity_counts(q)
    return DerivedInvariant(
        s=q.vertex_count,
        r=odd + even,
        snf=snf_diagonal(cartan_matrix(q)),
        cycle_parity_counts=(odd, even),
    )


Complex = Mapping[int, Sequence[int]]


def happel_hom_dims(cartan: IntMatrix, mut: int, complex_: Complex) -> IntMatrix:
    """Happel's prediction for the Cartan matrix after a one-vertex tilt.

    The tilting complex is the stalk ``{0: [v]}`` at every vertex v other
    than ``mut``, and ``complex_`` at ``mut``: a map from cohomological
    degree to the multiset of vertices whose projectives appear there.  Its
    class is the signed sum of the vertices of ``complex_``, each (-1)^degree,
    which is row ``mut`` of the class matrix X; the prediction is X·C·Xᵀ
    (Happel, "Triangulated categories in the representation theory of
    finite-dimensional algebras", 1988).  Between two stalks that is the
    entry of ``cartan`` itself, so only row and column ``mut`` are summed.
    """

    rows = cartan.rows
    signed = [(-1 if r % 2 else 1, u) for r, us in complex_.items() for u in us]
    out = [list(row) for row in rows]
    for v, row in enumerate(rows):
        out[mut][v] = sum(sign * rows[u][v] for sign, u in signed)
        out[v][mut] = sum(sign * row[u] for sign, u in signed)
    out[mut][mut] = sum(
        si * sj * rows[ui][uj] for si, ui in signed for sj, uj in signed
    )
    return IntMatrix(tuple(map(tuple, out)))
