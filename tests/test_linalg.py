from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jla.linalg import (
    Matrix,
    _rational_roots,
    NotSplitError,
    Subspace,
    charpoly,
    complement_within,
    format_rational,
    kernel,
    parse_rational,
    rational_eigen,
    rref,
    solve,
    span_intersection,
    span_sum,
    vec_scale,
)

F = Fraction


def M(rows, cols=None):
    return Matrix.from_rows(rows, cols)


def span(n, rows):
    return Subspace.span(n, rows)


# --- rationals -------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("3") == F(3)
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("+2/4") == F(1, 2)


@pytest.mark.parametrize("bad", ["1/0", "0/0", "1.5", "a", "1 / 2", "", "2/-3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    for value in (F(0), F(7), F(-3, 4), F(22, 7)):
        assert parse_rational(format_rational(value)) == value


# --- rref / kernel ----------------------------------------------------------


def test_rref_identity():
    reduced, pivots = rref(Matrix.identity(2))
    assert reduced == Matrix.identity(2)
    assert pivots == (0, 1)


def test_rref_rank_one():
    reduced, pivots = rref(M([[2, 4], [1, 2]]))
    assert reduced == M([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_zero():
    m = Matrix.zeros(2, 3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == ()


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)) == Subspace.zero(3)


def test_kernel_zero_is_full():
    assert kernel(Matrix.zeros(3, 3)) == Subspace.full(3)


def test_kernel_single_equation():
    assert kernel(M([[1, 1]])) == span(2, [[1, -1]])


def test_solve_unique():
    m = M([[1, 1], [0, 1]])
    assert solve(m, (F(3), F(1))) == (F(2), F(1))
    assert solve(M([[1, 0], [1, 0]]), (F(1), F(2))) is None


# --- subspace operations ----------------------------------------------------


def test_span_sum_of_axes():
    a = span(3, [[1, 0, 0]])
    b = span(3, [[0, 1, 0]])
    assert span_sum(a, b) == span(3, [[1, 0, 0], [0, 1, 0]])


def test_intersection_of_planes():
    a = span(3, [[1, 0, 0], [0, 1, 0]])
    b = span(3, [[0, 1, 0], [0, 0, 1]])
    assert span_intersection(a, b) == span(3, [[0, 1, 0]])


def test_membership_and_coordinates():
    s = span(3, [[1, 0, 1], [0, 1, 0]])
    assert s.contains((F(2), F(3), F(2)))
    assert s.coordinates((F(2), F(3), F(2))) == (F(2), F(3))
    assert not s.contains((F(1), F(0), F(0)))
    assert s.coordinates((F(1), F(0), F(0))) is None


def test_complement_within_plane():
    inner = span(2, [[1, 0]])
    assert complement_within(inner, Subspace.full(2)) == span(2, [[0, 1]])


def test_complement_within_rejects_outsiders():
    with pytest.raises(ValueError):
        complement_within(span(2, [[1, 0]]), span(2, [[0, 1]]))


def test_subspace_equality_is_canonical():
    assert span(2, [[2, 2]]) == span(2, [[1, 1]])
    assert span(3, [[1, 1, 0], [0, 1, 1]]) == span(3, [[1, 0, -1], [0, 1, 1]])


# --- rational eigendecomposition ---------------------------------------------


def test_eigen_diagonal():
    m = M([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    pairs = rational_eigen(m)
    assert [lam for lam, _ in pairs] == [F(-2), F(0), F(2)]
    assert pairs[0][1] == span(3, [[0, 0, 1]])
    assert pairs[1][1] == span(3, [[0, 1, 0]])
    assert pairs[2][1] == span(3, [[1, 0, 0]])


def test_eigen_nilpotent_block_is_not_split():
    with pytest.raises(NotSplitError):
        rational_eigen(M([[0, 1], [0, 0]]))


def test_eigen_swap_matrix():
    pairs = rational_eigen(M([[0, 1], [1, 0]]))
    assert [lam for lam, _ in pairs] == [F(-1), F(1)]
    assert pairs[0][1] == span(2, [[1, -1]])
    assert pairs[1][1] == span(2, [[1, 1]])


def test_charpoly_of_swap_matrix():
    assert charpoly(M([[0, 1], [1, 0]])) == (F(1), F(0), F(-1))


def test_charpoly_small_and_degenerate_cases():
    assert charpoly(Matrix.zeros(0, 0)) == (F(1),)
    assert charpoly(M([["3/2"]])) == (F(1), F(-3, 2))
    assert charpoly(Matrix.zeros(3, 3)) == (F(1), F(0), F(0), F(0))
    jordan = M([[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)])
    assert charpoly(jordan) == (F(1), F(0), F(0), F(0), F(0))


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly(M([[1, 2]]))


def test_eigen_fractional_eigenvalue():
    pairs = rational_eigen(M([["1/2", 0], [0, "1/3"]]))
    assert [lam for lam, _ in pairs] == [F(1, 3), F(1, 2)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-(2**64), 2**64),
            st.integers(1, 2**64),
            st.integers(1, 3),
        ),
        max_size=6,
    ),
    st.lists(st.integers(1, 2**64), max_size=2),
    st.integers(1, 2**16).flatmap(lambda c: st.sampled_from([c, -c])),
)
def test_rational_roots_finds_exactly_the_linear_factors(factors, no_root, lead):
    """lead * prod (q x - p)^m * prod (x^2 + k): the rational roots are the
    p/q, whatever their size and multiplicity."""
    poly = [lead]
    for p, q, multiplicity in factors:
        for _ in range(multiplicity):
            poly = _poly_mul(poly, [q, -p])
    for k in no_root:
        poly = _poly_mul(poly, [1, 0, k])
    assert _rational_roots(poly) == {F(p, q) for p, q, _ in factors}


def test_rational_roots_of_constants_and_monomials():
    assert _rational_roots([5]) == set()
    assert _rational_roots([3, 0, 0]) == {F(0)}
    assert _rational_roots([1, 0, -2]) == set()
    assert _rational_roots([4, -4, 1]) == {F(1, 2)}


# --- properties ---------------------------------------------------------------

fractions_ = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(fractions_, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(lambda rows: Matrix.from_rows(rows, m))
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    _, pivots = rref(m)
    assert len(pivots) + kernel(m).dim == m.cols


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eigen_reconstructs_conjugated_diagonal(data):
    """Conjugating an integer diagonal matrix must split with the same
    eigenvalues and exact eigen-equations."""
    n = data.draw(st.integers(1, 3))
    eigenvalues = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    p_rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).filter(lambda rows: len(rref(Matrix.from_rows(rows, n))[1]) == n)
    )
    p = Matrix.from_rows(p_rows, n)
    p_inv = _invert(p)
    d = Matrix.from_rows(
        [[eigenvalues[i] if i == j else 0 for j in range(n)] for i in range(n)], n
    )
    m = _product(_product(p, d), p_inv)
    pairs = rational_eigen(m)
    assert {lam for lam, _ in pairs} == {F(v) for v in eigenvalues}
    assert sum(space.dim for _, space in pairs) == n
    for lam, space in pairs:
        for v in space.basis:
            assert m.apply(v) == vec_scale(v, lam)


def _det(rows):
    """Determinant by Fraction elimination with row swaps."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _square(n, elements):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_charpoly_matches_determinant_reference(data):
    """p(t) = det(tI - m) at t = 0..n, on dense and sparse matrices; zeroed
    subdiagonal entries force both the skipped-column and the pivot-swap
    paths of the Hessenberg reduction."""
    n = data.draw(st.integers(0, 7))
    rows = data.draw(_square(n, fractions_))
    if data.draw(st.booleans()):
        keep = data.draw(_square(n, st.booleans()))
        rows = [[x if k else F(0) for x, k in zip(r, ks)] for r, ks in zip(rows, keep)]
    if n >= 2:
        for c in data.draw(st.lists(st.integers(0, n - 2))):
            rows[c + 1][c] = F(0)
    p = charpoly(Matrix.from_rows(rows, n))
    assert len(p) == n + 1 and p[0] == 1
    for t in range(n + 1):
        value = F(0)
        for c in p:
            value = value * t + c
        shifted = [[-x for x in row] for row in rows]
        for i in range(n):
            shifted[i][i] += t
        assert value == _det(shifted)


def _product(a, b):
    cols = list(zip(*b.entries))
    return Matrix.from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries],
        b.cols,
    )


def _invert(p):
    n = p.nrows
    augmented = Matrix.from_rows(
        [tuple(p.entries[i]) + tuple(Matrix.identity(n).entries[i]) for i in range(n)],
        2 * n,
    )
    reduced, pivots = rref(augmented)
    assert pivots == tuple(range(n))
    return Matrix.from_rows([row[n:] for row in reduced.entries], n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complement_within_is_a_true_complement(data):
    n = data.draw(st.integers(1, 4))
    outer = Subspace.span(
        n,
        data.draw(
            st.lists(
                st.lists(fractions_, min_size=n, max_size=n), min_size=1, max_size=4
            )
        ),
    )
    if outer.is_zero():
        return
    take = data.draw(st.integers(0, outer.dim))
    inner = Subspace.span(n, outer.basis[:take])
    result = complement_within(inner, outer)
    assert inner.dim + result.dim == outer.dim
    assert span_sum(inner, result) == outer
