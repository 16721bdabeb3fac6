"""Cartan matrix, Smith normal form, and derived invariant tests."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import pairwise
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcw.homology
from conftest import all_dissections, small_range
from mcw.algebra import canonical_key, components, quiver, quiver_of
from mcw.geometry import Dissection, PolygonParams, dissection, dissection_tuples
from mcw.homology import (
    DerivedInvariant,
    HomologyError,
    IntMatrix,
    bh_diagonal,
    cartan_matrix,
    cycle_parity_counts,
    derived_invariant,
    determinant,
    happel_hom_dims,
    smith_normal_form,
    snf_diagonal,
)
from mcw.normalform import derived_equivalent
from mcw.serialize import quiver_from_json

DATA = Path(__file__).parent / "data"


def brute_force_cartan(q):
    """Count relation-free paths by plain breadth-first enumeration."""

    n = q.vertex_count
    counts = [[0] * n for _ in range(n)]
    for start in range(n):
        frontier = [(start, None)]
        while frontier:
            nxt = []
            for vertex, last in frontier:
                counts[start][vertex] += 1
                for a in q.arrows:
                    if a.source != vertex:
                        continue
                    if last is not None and (last, a.id) in q.relations:
                        continue
                    nxt.append((a.target, a.id))
            if len(nxt) > 4 * len(q.arrows) * n + 4:
                raise AssertionError("unbounded path count")
            frontier = nxt
    return IntMatrix(tuple(tuple(row) for row in counts))


def test_cartan_a2():
    q = quiver_of(dissection(2, 1, [(0, 2), (0, 3)]))
    assert cartan_matrix(q).rows == ((1, 1), (0, 1))


def test_cartan_chain_with_relation():
    q = quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)])
    assert cartan_matrix(q).rows == ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def test_cartan_chain_without_relation():
    q = quiver(2, 3, [(0, 1), (1, 2)])
    assert cartan_matrix(q).rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_cartan_triangle_cycle():
    q = quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)]))
    c = cartan_matrix(q)
    assert all(c[i, i] == 1 for i in range(3))
    assert determinant(c) == 2
    assert snf_diagonal(c) == (1, 1, 2)


def test_cartan_four_cycle():
    q = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    c = cartan_matrix(q)
    assert determinant(c) == 0
    assert snf_diagonal(c) == (1, 1, 1, 0)


def test_cartan_rejects_relation_free_cycle():
    loop = quiver(1, 3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(HomologyError):
        cartan_matrix(loop)


def test_cartan_walks_paths_longer_than_the_recursion_limit():
    # A relation-free path of 1,199 arrows counts every path; closing it
    # into a cycle trips the depth guard, not the interpreter's limit.
    n = 1200
    assert sys.getrecursionlimit() < n
    c = cartan_matrix(quiver(1, n, [(i, i + 1) for i in range(n - 1)]))
    assert c.rows == tuple(tuple(int(j >= i) for j in range(n)) for i in range(n))
    loop = quiver(1, n, [(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(HomologyError, match="relation-free cycle"):
        cartan_matrix(loop)


def test_cartan_matches_brute_force_on_range():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:25]:
            q = quiver_of(t)
            assert cartan_matrix(q) == brute_force_cartan(q)


def test_cartan_entries_are_zero_or_one_on_range():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:25]:
            c = cartan_matrix(quiver_of(t))
            assert all(x in (0, 1) for row in c.rows for x in row)


square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=120, deadline=None)
@given(square)
def test_snf_transforms_and_divisibility(rows):
    sympy = pytest.importorskip("sympy")
    m = IntMatrix(tuple(tuple(r) for r in rows))
    res = smith_normal_form(m)
    # The product is sympy's, not the audit's own.
    u, v, d = (sympy.Matrix(x.rows) for x in (res.u, res.v, res.d))
    assert u * sympy.Matrix(rows) * v == d
    assert abs(determinant(res.u)) == 1
    assert abs(determinant(res.v)) == 1
    diag = res.diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal must vanish
    assert all(
        res.d[i, j] == 0
        for i in range(m.size)
        for j in range(m.size)
        if i != j
    )


@settings(max_examples=80, deadline=None)
@given(square)
def test_snf_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = IntMatrix(tuple(tuple(r) for r in rows))
    ours = sorted(abs(x) for x in snf_diagonal(m))
    theirs = sympy_snf(sympy.Matrix(rows))
    reference = sorted(abs(int(theirs[i, i])) for i in range(theirs.rows))
    assert ours == reference


def test_determinant_small_cases():
    assert determinant(IntMatrix(((2,),))) == 2
    assert determinant(IntMatrix(((1, 2), (3, 4)))) == -2
    assert determinant(IntMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))) == 1
    assert determinant(IntMatrix(((3, 0, 0), (0, 0, 0), (0, 0, 5)))) == 0


def test_bh_diagonal_examples():
    triangle = quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)]))
    assert cycle_parity_counts(triangle) == (1, 0)
    assert bh_diagonal(triangle) == (1, 1, 2)

    square_cycle = quiver_of(dissection(4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]))
    assert cycle_parity_counts(square_cycle) == (0, 1)
    assert bh_diagonal(square_cycle) == (1, 1, 1, 0)


def test_bh_matches_cartan_on_range():
    for n, m in small_range(5, 3):
        for t in all_dissections(n, m)[:20]:
            q = quiver_of(t)
            assert snf_diagonal(cartan_matrix(q)) == bh_diagonal(q)


def test_derived_invariant_equality_is_the_tuple():
    # Equal (s, r) with other Smith forms is a different value; deciding
    # the derived class by (s, r) is derived_equivalent's rule alone.
    a = DerivedInvariant(s=3, r=1, snf=(1, 1, 2), cycle_parity_counts=(1, 0))
    b = DerivedInvariant(s=3, r=1, snf=(1, 1, 0), cycle_parity_counts=(0, 1))
    c = DerivedInvariant(s=3, r=0, snf=(1, 1, 1))
    assert a != b and a != c
    assert a == DerivedInvariant(3, 1, (1, 1, 2), (1, 0)) and hash(a) == hash(tuple(a))
    assert a != "not an invariant"


def test_derived_invariant_of_quivers():
    inv = derived_invariant(quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)])))
    assert (inv.s, inv.r) == (3, 1)
    assert inv.snf == (1, 1, 2)
    assert inv.cycle_parity_counts == (1, 0)

    lin = derived_invariant(quiver(2, 3, [(0, 1), (1, 2)], [(0, 1)]))
    assert (lin.s, lin.r) == (3, 0)
    assert lin.snf == (1, 1, 1)


@pytest.mark.parametrize(
    "rows, diagonal",
    [
        (((2, 0), (0, 3)), (1, 6)),
        (((4, 0), (0, 6)), (2, 12)),
        (((0, 0), (0, 5)), (5, 0)),
        (((-2, 0), (0, 0)), (2, 0)),
    ],
)
def test_snf_mends_divisibility_and_order_on_diagonal_input(rows, diagonal):
    # Diagonal input whose entries do not divide each other, or whose zero
    # or negative entry comes first: the pivot's divisibility test must
    # fold, reorder and sign them into the chain.
    sympy = pytest.importorskip("sympy")
    res = smith_normal_form(IntMatrix(rows))
    assert res.diagonal == diagonal
    assert res.d == IntMatrix(((diagonal[0], 0), (0, diagonal[1])))
    u, v = sympy.Matrix(res.u.rows), sympy.Matrix(res.v.rows)
    assert u * sympy.Matrix(rows) * v == sympy.Matrix(res.d.rows)
    assert abs(determinant(res.u)) == abs(determinant(res.v)) == 1
    snf_diagonal.cache_clear()
    assert snf_diagonal(IntMatrix(rows)) == diagonal


def test_happel_stalk_complexes_reproduce_cartan():
    q = quiver_of(dissection(3, 2, [(0, 3), (3, 6), (6, 9)]))
    c = cartan_matrix(q)
    for v in range(q.vertex_count):
        assert happel_hom_dims(c, v, {0: [v]}) == c


def test_happel_two_term_complex_a2():
    c = IntMatrix(((1, 1), (0, 1)))
    assert happel_hom_dims(c, 1, {0: [0], 1: [1]}).rows == ((1, 0), (1, 1))


def test_intmatrix_rejects_ragged():
    with pytest.raises(HomologyError):
        IntMatrix(((1, 2), (3,)))


@pytest.mark.parametrize("entry", [1.9, 2.0, True])
def test_intmatrix_refuses_entries_that_are_not_int(entry):
    # A float used to be truncated by int() and a bool read as 0 or 1.
    with pytest.raises(HomologyError, match="must be int"):
        IntMatrix(((1, 0), (0, entry)))


def test_intmatrix_keeps_int_rows_as_given():
    rows = ((1, 2), (3, 4))
    assert IntMatrix(rows).rows is rows
    assert IntMatrix([[1, 2], [3, 4]]).rows == rows


def _with_dependent_last_row(rows):
    return rows[:-1] + [[x - 3 * y for x, y in zip(rows[0], rows[1])]]


_sized = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)
# Random (mostly non-Cartan, with negative entries), singular by a dependent
# row, and zero matrices, up to size 8.
up_to_eight = st.one_of(
    _sized,
    _sized.filter(lambda rows: len(rows) >= 2).map(_with_dependent_last_row),
    st.integers(1, 8).map(lambda n: [[0] * n for _ in range(n)]),
)


@settings(max_examples=150, deadline=None)
@given(up_to_eight)
def test_snf_up_to_size_eight_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    theirs = sympy_snf(sympy.Matrix(rows))
    reference = sorted(abs(int(theirs[i, i])) for i in range(theirs.rows))
    m = IntMatrix(tuple(tuple(r) for r in rows))
    assert sorted(abs(x) for x in smith_normal_form(m).diagonal) == reference
    assert sorted(abs(x) for x in snf_diagonal(m)) == reference


@settings(max_examples=150, deadline=None)
@given(up_to_eight)
def test_bareiss_determinant_agrees_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = IntMatrix(tuple(tuple(r) for r in rows))
    assert determinant(m) == int(sympy.Matrix(rows).det())


@pytest.mark.parametrize("compute", [smith_normal_form, snf_diagonal])
def test_snf_audit_catches_corrupted_transforms(monkeypatch, compute):
    real = mcw.homology._identity
    calls = []

    def corrupt_first(n):
        # The core builds u first, then v: only u starts off.
        eye = real(n)
        if not calls:
            eye[0][0] = -1
        calls.append(n)
        return eye

    monkeypatch.setattr(mcw.homology, "_identity", corrupt_first)
    snf_diagonal.cache_clear()
    with pytest.raises(HomologyError, match="u @ m @ v != d"):
        compute(IntMatrix(((1, 1), (0, 1))))
    assert calls == [2, 2]


def test_snf_memo_hit_returns_the_cold_value():
    rows = ((2, 4, 4), (-6, 6, 12), (10, -4, -16))
    snf_diagonal.cache_clear()
    cold = snf_diagonal(IntMatrix(rows))
    hits = snf_diagonal.cache_info().hits
    warm = snf_diagonal(IntMatrix(rows))
    assert snf_diagonal.cache_info().hits == hits + 1
    assert warm == cold == smith_normal_form(IntMatrix(rows)).diagonal == (2, 6, 12)


def generic_hom_dims(complexes, cartan):
    """The alternating sum of the Euler form, term by term, in every entry."""

    n = len(complexes)
    return IntMatrix(
        tuple(
            tuple(
                sum(
                    (-1 if (r - s) % 2 else 1) * cartan[u, v]
                    for r, us in complexes[i].items()
                    for s, vs in complexes[j].items()
                    for u in us
                    for v in vs
                )
                for j in range(n)
            )
            for i in range(n)
        )
    )


@st.composite
def one_vertex_tilts(draw):
    """A square integer matrix, a vertex, and a complex to put there: a
    stalk at its own or another vertex, a two-term complex, or a complex
    spread over several degrees and vertices."""

    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    shapes = [
        st.builds(lambda v: {0: [v]}, vertex),
        st.builds(lambda us, v: {0: us, 1: [v]}, st.lists(vertex, min_size=1, max_size=2), vertex),
        st.dictionaries(
            st.integers(-2, 3), st.lists(vertex, min_size=1, max_size=3), min_size=1, max_size=4
        ),
    ]
    return IntMatrix(tuple(map(tuple, rows))), draw(vertex), draw(st.one_of(shapes))


@settings(max_examples=200, deadline=None)
@given(one_vertex_tilts())
def test_happel_row_wise_prediction_matches_the_generic_sum(tilt):
    # The reference sums every entry over the full family: stalks at every
    # other vertex, the drawn complex at the moved one.
    cartan, mut, complex_ = tilt
    family = [complex_ if v == mut else {0: [v]} for v in range(cartan.size)]
    assert happel_hom_dims(cartan, mut, complex_) == generic_hom_dims(family, cartan)


def test_cartan_memo_ignores_labels_and_returns_the_cold_value():
    # Two triangles cut by different diagonals, and a quiver cut by none,
    # are one quiver value, so the memo keyed by it serves all three.
    labelled = quiver_of(dissection(3, 1, [(0, 2), (2, 4), (0, 4)]))
    turned = quiver_of(dissection(3, 1, [(1, 3), (3, 5), (1, 5)]))
    bare = quiver(1, 3, [(a.source, a.target) for a in labelled.arrows], labelled.relations)
    assert bare == labelled == turned
    cartan_matrix.cache_clear()
    cold = cartan_matrix(bare)
    assert cartan_matrix(labelled) is cold and cartan_matrix(turned) is cold
    assert cartan_matrix.cache_info().hits == 2
    assert cold == brute_force_cartan(labelled)


# ------------------------------------------------------ Coxeter polynomial


def coxeter_polynomial(c: IntMatrix) -> tuple[Fraction, ...]:
    """Coefficients, constant term first, of the characteristic polynomial
    of the Coxeter matrix -C^(-T) C of an invertible C, in exact arithmetic.

    det(x I + C^(-T) C) = det(x C^T + C) / det C.  The numerator has degree
    s, so its integer values at x = 0..s fix it: Newton's forward
    differences turn them into coefficients.  A derived equivalence gives
    C' = P C P^T with P unimodular, so the polynomial is a derived invariant.
    """
    s, rows = c.size, c.rows
    diffs = [
        determinant(IntMatrix([[x * rows[j][i] + rows[i][j] for j in range(s)]
                               for i in range(s)]))
        for x in range(s + 1)
    ]
    det = diffs[0]
    coeffs = [Fraction(0)] * (s + 1)
    falling = [1]  # x (x - 1) ... (x - k + 1), constant term first
    for k in range(s + 1):
        weight = Fraction(diffs[0], factorial(k) * det)
        for i, f in enumerate(falling):
            coeffs[i] += weight * f
        falling = [lo - k * hi for lo, hi in zip([0] + falling, falling + [0])]
        diffs = [b - a for a, b in pairwise(diffs)]
    return tuple(coeffs)


def _found(name):
    return quiver_from_json(json.loads((DATA / f"{name}.json").read_text()))


def test_coxeter_polynomial_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    samples = [_found("found_affine_a3"), _found("found_square_m2")]
    samples += [quiver_of(t) for n, m in small_range(5, 3) for t in all_dissections(n, m)[:6]]
    checked = 0
    for q in samples:
        c = cartan_matrix(q)
        if determinant(c) == 0:
            continue
        mat = sympy.Matrix(c.rows)
        theirs = (-(mat.inv().T) * mat).charpoly(x).all_coeffs()[::-1]
        assert coxeter_polynomial(c) == tuple(Fraction(str(a)) for a in theirs), q
        checked += 1
    assert checked > 40


def test_coxeter_polynomial_separates_the_found_inputs_from_a4():
    a4 = coxeter_polynomial(cartan_matrix(quiver(1, 4, [(0, 1), (1, 2), (2, 3)])))
    assert a4 == (1, 1, 1, 1, 1)
    # (x - 1)^2 (x + 1)^2 and (x + 1)^2 (x^2 - x + 1)
    for name, poly in (("found_affine_a3", (1, 0, -2, 0, 1)), ("found_square_m2", (1, 1, 0, 1, 1))):
        c = cartan_matrix(_found(name))
        assert determinant(c) != 0
        assert coxeter_polynomial(c) == poly != a4, name


def test_equivalent_components_share_the_coxeter_polynomial():
    # Every component of every cell with N <= 11, one per isomorphism class
    # and level.  Components with det C = 0 (an even full cycle) have no
    # Coxeter matrix and are skipped.
    values = set()
    for m in range(1, 10):
        for n in range(1, 10):
            p = PolygonParams(n, m)
            if p.N > 11:
                continue
            for diags in dissection_tuples(p):
                values.update(c.quiver for c in components(quiver_of(Dissection(p, diags))))
    classes = {(q.m, canonical_key(q)): q for q in values}
    groups: dict[tuple[int, int, int], tuple] = {}
    for q in classes.values():
        c = cartan_matrix(q)
        if determinant(c) == 0:
            continue
        inv, poly = derived_invariant(q), coxeter_polynomial(c)
        rep, rep_poly = groups.setdefault((q.m, inv.s, inv.r), (q, poly))
        assert derived_equivalent(rep, q)
        assert poly == rep_poly, (rep, q)
    assert len(groups) == 26
