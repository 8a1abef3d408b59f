"""Exact linear algebra over the rationals.

Every value in this module is built from ``fractions.Fraction``; there is
no floating point and no tolerance anywhere.  Subspaces are stored in a
canonical reduced-row-echelon basis, so subspace equality is plain value
equality and all reports built on top of them are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


class NotSplitError(Exception):
    """Raised when a matrix has no full rational eigenbasis."""


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p"`` or ``"p/q"`` literal into a reduced Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` with positive q."""
    return str(value)


def vector(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(u: Vector, c: Fraction) -> Vector:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def vec_dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix of Fractions.

    ``cols`` is stored explicitly so matrices with zero rows keep a width.
    """

    entries: tuple[Vector, ...]
    cols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> Matrix:
        rows = tuple(vector(r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(rows[0])
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(tuple(basis_vector(n, i) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls(tuple(zero_vector(ncols) for _ in range(nrows)), ncols)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def transpose(self) -> Matrix:
        return Matrix(
            tuple(
                tuple(self.entries[i][j] for i in range(self.nrows))
                for j in range(self.cols)
            ),
            self.nrows,
        )

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(vec_dot(row, v) for row in self.entries)

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self.entries)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns.

    The result is the unique RREF of ``m``; zero rows end up at the
    bottom and rank equals the number of pivots.
    """
    rows = [list(r) for r in m.entries]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(tuple(tuple(row) for row in rows), m.cols), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held as a canonical RREF basis, zero rows removed.

    Two subspaces are equal exactly when they are the same subspace, so
    instances can be hashed, compared and embedded in golden output.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors_) -> Subspace:
        rows = tuple(vector(v) for v in vectors_)
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not rows:
            return cls(ambient_dim, ())
        reduced, pivots = rref(Matrix(rows, ambient_dim))
        return cls(ambient_dim, reduced.entries[: len(pivots)])

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Vector) -> tuple[Fraction, ...] | None:
        """Coefficients of ``v`` on the canonical basis, or None if outside.

        Because the basis is in RREF with unit pivot columns, the
        coefficient of basis row j is just the entry of ``v`` at that
        row's pivot; the expansion is then verified exactly.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        coords = tuple(v[p] for p in self.pivots)
        residual = list(v)
        for coeff, row in zip(coords, self.basis):
            if coeff != 0:
                residual = [a - coeff * b for a, b in zip(residual, row)]
        if any(x != 0 for x in residual):
            return None
        return coords

    def is_subspace_of(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(other.contains(row) for row in self.basis)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the right null space {v : m v = 0}."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][f]
        basis.append(tuple(v))
    return Subspace.span(m.cols, basis)


def solve(m: Matrix, b: Vector) -> Vector | None:
    """One exact solution of m x = b (free coordinates 0), or None."""
    if len(b) != m.nrows:
        raise ValueError("shape mismatch")
    augmented = Matrix(
        tuple(row + (b[i],) for i, row in enumerate(m.entries)), m.cols + 1
    )
    reduced, pivots = rref(augmented)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][m.cols]
    return tuple(x)


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(a.ambient_dim, a.basis + b.basis)


def span_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient constraints.

    x lies in both row spaces iff x = u A = w B for coefficient vectors
    (u, w); those pairs form the kernel of the n x (k+l) matrix whose
    columns are the rows of A and the negated rows of B.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.is_zero() or b.is_zero():
        return Subspace.zero(a.ambient_dim)
    k = a.dim
    stacked = Matrix(
        tuple(
            tuple(a.basis[j][i] for j in range(k))
            + tuple(-b.basis[j][i] for j in range(b.dim))
            for i in range(a.ambient_dim)
        ),
        k + b.dim,
    )
    coeffs = kernel(stacked)
    vectors_ = []
    for w in coeffs.basis:
        x = zero_vector(a.ambient_dim)
        for j in range(k):
            x = vec_add(x, vec_scale(a.basis[j], w[j]))
        vectors_.append(x)
    return Subspace.span(a.ambient_dim, vectors_)


def complement_within(inner: Subspace, outer: Subspace) -> Subspace:
    """Deterministic complement of ``inner`` inside ``outer``.

    The basis rows of ``inner`` are rewritten in the coordinates of
    ``outer``'s canonical basis; the coordinate directions not used as
    pivots there are returned.  This pivot-extension rule is canonical:
    dim(inner) + dim(result) = dim(outer) and inner + result = outer.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coords = []
    for row in inner.basis:
        c = outer.coordinates(row)
        if c is None:
            raise ValueError("inner subspace is not contained in the outer one")
        coords.append(c)
    if not coords:
        return outer
    _, pivots = rref(Matrix(tuple(coords), outer.dim))
    pivot_set = set(pivots)
    missing = [outer.basis[j] for j in range(outer.dim) if j not in pivot_set]
    return Subspace.span(outer.ambient_dim, missing)


def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial det(xI - m), leading coefficient first.

    Exact over Q in O(n^3) Fraction operations: ``m`` is brought to upper
    Hessenberg form H by elementary similarity transforms (Gaussian
    elimination below the subdiagonal, swapping in a nonzero pivot when
    the subdiagonal entry is zero), then det(xI - H) is expanded by the
    recurrence on its leading principal minors (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9).  Zero entries are
    skipped, so a diagonal matrix such as ad(h) on a root basis costs
    O(n^2).
    """
    if m.nrows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    h = [list(row) for row in m.entries]
    for c in range(n - 2):
        p = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
        if p is None:
            continue
        if p != c + 1:
            h[p], h[c + 1] = h[c + 1], h[p]
            for row in h:
                row[p], row[c + 1] = row[c + 1], row[p]
        pivot_row = h[c + 1]
        pivot = pivot_row[c]
        for i in range(c + 2, n):
            if h[i][c] == 0:
                continue
            # Row i -= u * row c+1, then column c+1 += u * column i: the
            # similarity by the elementary matrix and its inverse.
            u = h[i][c] / pivot
            row = h[i]
            for j in range(c, n):
                if pivot_row[j] != 0:
                    row[j] -= u * pivot_row[j]
            for r in h:
                if r[i] != 0:
                    r[c + 1] += u * r[i]
    # polys[k] = det(xI - H[:k, :k]), lowest degree first.
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[k]
        poly = [Fraction(0)] + prev
        if h[k][k] != 0:
            for d, a in enumerate(prev):
                poly[d] -= h[k][k] * a
        t = Fraction(1)
        for i in range(k - 1, -1, -1):
            t *= h[i + 1][i]
            if t == 0:
                break
            f = t * h[i][k]
            if f != 0:
                for d, a in enumerate(polys[i]):
                    poly[d] -= f * a
        polys.append(poly)
    return tuple(reversed(polys[n]))


def _poly_eval(coeffs: list[int], x: int, m: int) -> int:
    """Value at x of the integer polynomial (leading coefficient first), mod m."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % m
    return acc


def _derivative(coeffs: list[int]) -> list[int]:
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])]


def _primitive(coeffs: list[int]) -> list[int]:
    """Divide out the content and make the leading coefficient positive."""
    g = gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return [c // g for c in coeffs]


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive integer polynomial f of positive degree.

    The gcd comes from the primitive remainder sequence (pseudo-division,
    content removed at each step), so every coefficient stays an integer
    of bounded size; the gcd is primitive, so by Gauss's lemma the exact
    quotient is integral.
    """
    a, b = f, _primitive(_derivative(f))
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            lead = r[0]
            r = [b[0] * c for c in r[1:]]
            for i in range(1, len(b)):
                r[i - 1] -= lead * b[i]
            while r and r[0] == 0:
                r.pop(0)
        if not r:
            break
        a, b = b, _primitive(r)
    if len(b) == 1:
        return f
    quotient, r = [], list(f)
    while len(r) >= len(b):
        lead = r[0] // b[0]
        quotient.append(lead)
        for i in range(1, len(b)):
            r[i] -= lead * b[i]
        r.pop(0)
    return quotient


def _rational_roots(int_coeffs: list[int]) -> set[Fraction]:
    """All rational roots of an integer polynomial (leading coeff first).

    p-adic method (R. Loos, SIAM J. Comput. 1983; von zur Gathen and
    Gerhard, Modern Computer Algebra, on Hensel lifting): strip the x^k
    factor, take the squarefree part f / gcd(f, f') of the primitive
    polynomial, and substitute y = a x for its leading coefficient a, which
    gives a monic integer F whose integer roots are the a x.  Every integer
    root of F reduces to a root of F mod p; for the first prime p at which
    every root of F mod p is simple, Newton's iteration lifts each one
    uniquely and quadratically to a root mod p^(2^k).  Once the modulus
    exceeds 2B, with B = 1 + max |F_i| the Cauchy bound on |y|, the
    symmetric residue is the integer root itself if there is one, and an
    exact evaluation decides.  The cost is polynomial in the degree and in
    the bit size of the coefficients.
    """
    coeffs = list(int_coeffs)
    roots: set[Fraction] = set()
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        roots.add(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    f = _squarefree_part(_primitive(coeffs))
    a = f[0]
    big_f = [c * a ** (i - 1) if i else 1 for i, c in enumerate(f)]
    big_df = _derivative(big_f)
    bound = 2 * (1 + max(abs(c) for c in big_f))
    p = 1
    while True:
        p += 1
        if any(p % t == 0 for t in range(2, isqrt(p) + 1)):
            continue
        residues = [r for r in range(p) if _poly_eval(big_f, r, p) == 0]
        if all(_poly_eval(big_df, r, p) for r in residues):
            break
    for y in residues:
        m = p
        while m <= bound:
            m *= m
            y -= _poly_eval(big_f, y, m) * pow(_poly_eval(big_df, y, m), -1, m)
            y %= m
        if y > m // 2:
            y -= m
        if reduce(lambda acc, c: acc * y + c, big_f, 0) == 0:
            roots.add(Fraction(y, a))
    return roots


def rational_eigen(m: Matrix) -> list[tuple[Fraction, Subspace]]:
    """Rational eigenvalues with their eigenspaces, sorted by eigenvalue.

    Eigenvalues are the rational roots of the integer-scaled characteristic
    polynomial, found p-adically by ``_rational_roots``.  Succeeds exactly
    when the eigenspace dimensions add up to the full dimension, i.e. when
    ``m`` is diagonalizable over Q; otherwise raises NotSplitError.

    Cost: one O(n^3) ``charpoly``, one O(n^3) ``kernel`` of m - lambda I
    per distinct eigenvalue, and a root search polynomial in n and in the
    bit size of the charpoly's coefficients: an integer gcd of degree n,
    trial evaluation mod small primes, and O(log(bits)) Newton steps per
    root.
    """
    if m.nrows != m.cols:
        raise ValueError("eigendecomposition of a non-square matrix")
    n = m.nrows
    coeffs = charpoly(m)
    scale = lcm(*(c.denominator for c in coeffs))
    int_coeffs = [int(c * scale) for c in coeffs]
    pairs = []
    total = 0
    for lam in sorted(_rational_roots(int_coeffs)):
        shifted = tuple(
            row[:i] + (row[i] - lam,) + row[i + 1 :] for i, row in enumerate(m.entries)
        )
        space = kernel(Matrix(shifted, n))
        pairs.append((lam, space))
        total += space.dim
    if total != n:
        raise NotSplitError(
            f"matrix is not diagonalizable over Q: rational eigenspaces cover "
            f"{total} of {n} dimensions"
        )
    return pairs
