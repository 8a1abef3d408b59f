"""Structure-constant algebras with a delta-twisted bracket.

A table stores the nonzero coefficients of each product [b_i, b_j] in a
fixed basis together with the sign delta in {+1, -1}.  Validity of the
bracket axioms

    (1)  [x, y] = -delta [y, x]
    (2)  [x, [y, z]] = delta [[x, y], z] + delta [y, [x, z]]

is a checked predicate, not a construction invariant, so broken tables can
be loaded and diagnosed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    basis_vector,
    kernel,
    vec_add,
    vec_scale,
    vector,
)

DEFAULT_ORACLE_CAP = 12


class OracleCapExceeded(ValueError):
    """The brute-force ideal search was asked to run above its size cap."""


@dataclass(frozen=True)
class StructureTable:
    """Bilinear product on Q^dim given by structure constants.

    ``products`` maps a pair (i, j) of basis indices to the nonzero terms
    ((k, c), ...) of [b_i, b_j] = sum c b_k; unlisted pairs multiply to
    zero.  It is a read-only view, and no stored coefficient is zero.
    With delta = -1 the product may be symmetric and [x, x] nonzero, so
    no symmetry completion is ever applied.
    """

    dim: int
    delta: int
    products: Mapping[tuple[int, int], tuple[tuple[int, Fraction], ...]]
    basis_names: tuple[str, ...]

    def __post_init__(self):
        if self.delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")
        indices = range(self.dim)
        for (i, j), terms in self.products.items():
            if i not in indices or j not in indices:
                raise ValueError(f"basis pair ({i}, {j}) is out of range")
            for k, coeff in terms:
                if k not in indices:
                    raise ValueError(f"result index {k} of ({i}, {j}) is out of range")
                if coeff == 0:
                    raise ValueError(f"zero coefficient stored for ({i}, {j})")
        object.__setattr__(self, "products", MappingProxyType(dict(self.products)))
        if len(self.basis_names) != self.dim:
            raise ValueError("need one basis name per dimension")
        if len(set(self.basis_names)) != self.dim:
            raise ValueError("basis names must be unique")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        delta: int,
        brackets: dict[tuple[int, int], dict[int, Fraction]],
        basis_names=None,
    ) -> StructureTable:
        """Build a table from sparse {(i, j): {k: coeff}} bracket data.

        Zero coefficients and empty results are dropped; pairs and terms
        are stored in ascending order.
        """
        products = {}
        for pair in sorted(brackets):
            result = {k: Fraction(coeff) for k, coeff in brackets[pair].items()}
            terms = tuple((k, c) for k, c in sorted(result.items()) if c != 0)
            if terms:
                products[pair] = terms
        if basis_names is None:
            basis_names = tuple(f"b{i}" for i in range(dim))
        return cls(dim, delta, products, tuple(basis_names))

    def basis_element(self, i: int) -> Vector:
        return basis_vector(self.dim, i)


def bracket(table: StructureTable, x: Vector, y: Vector) -> Vector:
    """Bilinear product of two coordinate vectors, exact.

    The only routine that reads the structure constants: it sums over the
    nonzero coordinates of x and y and the stored terms of each pair.
    """
    n = table.dim
    if len(x) != n or len(y) != n:
        raise ValueError("element dimension does not match the algebra")
    products = table.products
    y_support = [(j, yj) for j, yj in enumerate(y) if yj != 0]
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in y_support:
            terms = products.get((i, j))
            if terms:
                f = xi * yj
                for k, c in terms:
                    out[k] += f * c
    return tuple(out)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the two bracket axioms on all basis tuples.

    Bilinearity makes the basis checks sufficient.  Violations carry the
    exact nonzero residual vector so a broken constant is localized.
    """

    dim: int
    delta: int
    antisymmetry_violations: tuple[tuple[int, int, Vector], ...]
    jacobi_violations: tuple[tuple[int, int, int, Vector], ...]

    @property
    def passed(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations


def check_axioms(table: StructureTable) -> AxiomReport:
    """Check both axioms on every basis pair and triple.

    The n^2 basis products are computed once with ``bracket`` and kept as
    their nonzero terms, cleared to integers over one common denominator
    D.  Each residual is summed over Python ints from those terms by
    bilinearity, [b_i, sum c_l b_l] = sum c_l [b_i, b_l], so a pair or
    triple whose products vanish costs next to nothing: an antisymmetry
    residual is the sum over D and a Jacobi residual the sum over D^2.  A
    dense Fraction residual vector is built only for a violation.
    Violations are listed in lexicographic index order.
    """
    n, d = table.dim, table.delta
    basis = [table.basis_element(i) for i in range(n)]
    prod = [[bracket(table, bi, bj) for bj in basis] for bi in basis]
    denom = lcm(*(c.denominator for row in prod for p in row for c in p))
    terms = [
        [
            [(l, c.numerator * (denom // c.denominator)) for l, c in enumerate(p) if c]
            for p in row
        ]
        for row in prod
    ]
    dterms = [[[(l, d * c) for l, c in t] for t in row] for row in terms]
    anti = []
    for i in range(n):
        for j in range(n):
            # [b_i, b_j] + d [b_j, b_i]
            acc = dict(terms[i][j])
            for l, c in dterms[j][i]:
                acc[l] = acc.get(l, 0) + c
            if any(acc.values()):
                anti.append((i, j, _dense(n, acc, denom)))
    jacobi = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # [b_i, [b_j, b_k]] - d [[b_i, b_j], b_k] - d [b_j, [b_i, b_k]]
                acc = {}
                for l, c in terms[j][k]:
                    for m, e in terms[i][l]:
                        acc[m] = acc.get(m, 0) + c * e
                for l, c in dterms[i][j]:
                    for m, e in terms[l][k]:
                        acc[m] = acc.get(m, 0) - c * e
                for l, c in dterms[i][k]:
                    for m, e in terms[j][l]:
                        acc[m] = acc.get(m, 0) - c * e
                if any(acc.values()):
                    jacobi.append((i, j, k, _dense(n, acc, denom * denom)))
    return AxiomReport(n, d, tuple(anti), tuple(jacobi))


def _dense(n: int, terms: dict[int, int], denom: int) -> Vector:
    out = [Fraction(0)] * n
    for k, c in terms.items():
        out[k] = Fraction(c, denom)
    return tuple(out)


def ad_matrix(table: StructureTable, x: Vector) -> Matrix:
    """Matrix of y -> delta [x, y] in the table's basis."""
    n = table.dim
    cols = [
        vec_scale(bracket(table, x, table.basis_element(j)), Fraction(table.delta))
        for j in range(n)
    ]
    return Matrix(tuple(tuple(cols[j][k] for j in range(n)) for k in range(n)), n)


def center(table: StructureTable) -> Subspace:
    """{v : [v, b_j] = 0 for all j}, via one stacked kernel computation."""
    n = table.dim
    basis = [table.basis_element(i) for i in range(n)]
    rows = []
    for bj in basis:
        col = [bracket(table, bi, bj) for bi in basis]
        rows.extend(tuple(col[i][k] for i in range(n)) for k in range(n))
    return kernel(Matrix(tuple(rows), n))


def derived(table: StructureTable) -> Subspace:
    """Canonical span of all products of basis vectors."""
    basis = [table.basis_element(i) for i in range(table.dim)]
    return Subspace.span(
        table.dim, [bracket(table, bi, bj) for bi in basis for bj in basis]
    )


def ideal_closure(table: StructureTable, seed: Subspace) -> Subspace:
    """Smallest subspace containing ``seed`` closed under both-sided products.

    Worklist closure: the span is kept as a fully reduced echelon basis,
    one row per pivot, and every vector adjoined to it is queued.  A queued
    vector is bracketed once with each b_j on both sides; each product is
    reduced against the basis and adjoined when a nonzero remainder is
    left.  The queued vectors span the current subspace, so by bilinearity
    the span is closed once the queue is empty; it stops early when the
    dimension reaches the algebra's.  Cost: at most 2 n^2 products and
    reductions of O(n^2) Fraction operations each, and no full RREF.  The
    rows sorted by pivot are the canonical RREF basis.
    """
    if seed.ambient_dim != table.dim:
        raise ValueError("seed ambient dimension does not match the algebra")
    n = table.dim
    rows: dict[int, list[Fraction]] = {}
    queue: list[Vector] = []

    def adjoin(v: Vector) -> None:
        v = list(v)
        for p, row in rows.items():
            c = v[p]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        q = next((j for j, a in enumerate(v) if a != 0), None)
        if q is None:
            return
        inv = v[q]
        v = [a / inv for a in v]
        for p, row in rows.items():
            c = row[q]
            if c != 0:
                rows[p] = [a - c * b for a, b in zip(row, v)]
        rows[q] = v
        queue.append(tuple(v))

    for s in seed.basis:
        adjoin(s)
    basis = [table.basis_element(j) for j in range(n)]
    while queue and len(rows) < n:
        s = queue.pop()
        for bj in basis:
            adjoin(bracket(table, s, bj))
            adjoin(bracket(table, bj, s))
            if len(rows) == n:
                break
    return Subspace(n, tuple(tuple(rows[p]) for p in sorted(rows)))


def is_ideal(table: StructureTable, subspace: Subspace) -> bool:
    """True iff the subspace absorbs basis products on both sides."""
    if subspace.ambient_dim != table.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    basis = [table.basis_element(j) for j in range(table.dim)]
    for s in subspace.basis:
        for bj in basis:
            if not subspace.contains(bracket(table, s, bj)):
                return False
            if not subspace.contains(bracket(table, bj, s)):
                return False
    return True


def minimal_ideals_oracle(
    table: StructureTable, cap: int = DEFAULT_ORACLE_CAP
) -> list[Subspace]:
    """Brute-force enumeration of minimal nonzero ideals.

    Takes the ideal closure of every basis line and of every line spanned
    by a pairwise sum of basis vectors, then keeps the inclusion-minimal
    nonzero closures.  This seed set is a documented heuristic: it is
    complete for the bundled test algebras (checked against their known
    ideal lattices) but is not a general minimal-ideal decision procedure,
    since the rational lines of a space cannot be exhausted.
    """
    if table.dim > cap:
        raise OracleCapExceeded(
            f"algebra dimension {table.dim} exceeds the oracle cap {cap}"
        )
    seeds = [basis_vector(table.dim, i) for i in range(table.dim)]
    for i in range(table.dim):
        for j in range(i + 1, table.dim):
            seeds.append(
                vec_add(basis_vector(table.dim, i), basis_vector(table.dim, j))
            )
    closures = set()
    for seed in seeds:
        closure = ideal_closure(table, Subspace.span(table.dim, [seed]))
        if closure.dim > 0:
            closures.add(closure)
    minimal = [
        ideal
        for ideal in closures
        if not any(
            other.dim < ideal.dim and other.is_subspace_of(ideal)
            for other in closures
        )
    ]
    return sorted(minimal, key=lambda s: (s.dim, s.basis))


def random_element(table: StructureTable, rng, bound: int = 5) -> Vector:
    """Random rational coordinate vector, for randomized exact testing."""
    return vector(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(table.dim)
    )
