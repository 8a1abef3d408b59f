"""Splitting-Cartan verification and root decompositions.

A candidate Cartan subspace H is verified against five independent
checks; when the decomposition checks pass, the algebra splits as
L = H + (sum of root spaces L_a) where each nonzero functional a on the
ordered Cartan basis satisfies [h, v] = a(h) v exactly on L_a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import StructureTable, ad_matrix, bracket
from .errors import PreconditionError
from .linalg import (
    Matrix,
    NotSplitError,
    Subspace,
    Vector,
    kernel,
    rational_eigen,
    span_intersection,
    vec_add,
    vec_is_zero,
    vector,
)

# A root functional is keyed by its exact values on the ordered Cartan
# basis; tuples of Fractions compare lexicographically, which fixes the
# report order everywhere.
RootFunctional = tuple[Fraction, ...]

MAXIMAL = "maximal"
NOT_MAXIMAL = "not_maximal"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CartanCandidate:
    """A candidate Cartan subspace with its canonical ordered basis."""

    subspace: Subspace

    @classmethod
    def from_elements(cls, ambient_dim: int, elements) -> CartanCandidate:
        return cls(Subspace.span(ambient_dim, [vector(e) for e in elements]))

    @property
    def ordered_basis(self) -> tuple[Vector, ...]:
        return self.subspace.basis

    @property
    def dim(self) -> int:
        return self.subspace.dim


def centralizer(table: StructureTable, cartan: CartanCandidate) -> Subspace:
    """{x : [x, h] = 0 and [h, x] = 0 for every Cartan basis element h}."""
    n = table.dim
    basis = [table.basis_element(i) for i in range(n)]
    rows = []
    for h in cartan.ordered_basis:
        right = [bracket(table, e, h) for e in basis]
        left = [bracket(table, h, e) for e in basis]
        for k in range(n):
            # rows of x -> [x, h]_k and x -> [h, x]_k
            rows.append(tuple(right[i][k] for i in range(n)))
            rows.append(tuple(left[i][k] for i in range(n)))
    if not rows:
        return Subspace.full(n)
    return kernel(Matrix(tuple(rows), n))


@dataclass(frozen=True)
class CartanReport:
    """Per-check outcome of the splitting-Cartan verification.

    The five checks are reported independently:
      (a) the candidate is abelian (including [h, h] when delta = -1),
      (b) each ad(h_i) is diagonalizable over Q,
      (c) the joint eigenspaces span the whole algebra,
      (d) the joint 0-eigenspace equals the candidate exactly,
      (e) maximality among abelian subalgebras.

    (d) is what the displayed decomposition actually needs; it is not
    implied by (a)+(b) when delta = -1.  Maximality is three-valued for
    delta = -1 because disproving it needs a centralizer element x
    outside H with [x, x] = 0, which is only searched heuristically.

    ``decomposition`` is the root decomposition built from the same
    eigenspaces, set exactly when (a)-(d) hold, so one check yields both:

        report = verify_splitting_cartan(table, cartan)
        decomp = report.decomposition  # None unless decomposition_ok
    """

    abelian_ok: bool
    abelian_violations: tuple[tuple[int, int], ...]
    diagonalizable_ok: bool
    nondiagonalizable_indices: tuple[int, ...]
    spans_ok: bool
    zero_space_is_cartan: bool
    centralizer_space: Subspace
    maximality: str
    maximality_witness: Vector | None
    decomposition: RootDecomposition | None = field(repr=False)

    @property
    def decomposition_ok(self) -> bool:
        return (
            self.abelian_ok
            and self.diagonalizable_ok
            and self.spans_ok
            and self.zero_space_is_cartan
        )

    @property
    def passed(self) -> bool:
        return self.decomposition_ok and self.maximality == MAXIMAL


def verify_splitting_cartan(
    table: StructureTable, cartan: CartanCandidate
) -> CartanReport:
    """Run the five splitting-Cartan checks; assumes the axioms hold.

    The eigenvalue tuple (l_1, ..., l_m) of the ad maps on a joint
    eigenspace gives the root functional values a(h_i) = delta * l_i,
    since ad(h) v = delta [h, v].
    """
    n = table.dim
    basis = cartan.ordered_basis

    abelian_violations = tuple(
        (i, j)
        for i in range(len(basis))
        for j in range(len(basis))
        if not vec_is_zero(bracket(table, basis[i], basis[j]))
    )
    abelian_ok = not abelian_violations

    eigens = []
    bad_indices = []
    for i, h in enumerate(basis):
        try:
            eigens.append(rational_eigen(ad_matrix(table, h)))
        except NotSplitError:
            bad_indices.append(i)
    diagonalizable_ok = not bad_indices

    spans_ok = zero_space_is_cartan = False
    decomposition = None
    if diagonalizable_ok:
        # Refine the eigenspaces of the ad maps across the Cartan basis;
        # rational_eigen only returns eigenvalues with a nonzero kernel.
        joint = [((), Subspace.full(n))]
        for eigen in eigens:
            refined = []
            for tup, space in joint:
                for lam, eigenspace in eigen:
                    meet = span_intersection(space, eigenspace)
                    if not meet.is_zero():
                        refined.append((tup + (lam,), meet))
            joint = refined
        spans_ok = sum(space.dim for _, space in joint) == n
        zero_tuple = (Fraction(0),) * len(basis)
        zero_space = next(
            (space for tup, space in joint if tup == zero_tuple),
            Subspace.zero(n),
        )
        zero_space_is_cartan = zero_space == cartan.subspace
        if abelian_ok and spans_ok and zero_space_is_cartan:
            delta = Fraction(table.delta)
            pairs = [
                (tuple(delta * lam for lam in tup), space)
                for tup, space in joint
                if tup != zero_tuple
            ]
            decomposition = RootDecomposition(
                algebra=table,
                cartan=cartan,
                root_spaces=tuple(sorted(pairs, key=lambda p: p[0])),
                zero_space=zero_space,
            )

    cz = centralizer(table, cartan)
    witness = None
    if cz == cartan.subspace:
        maximality = MAXIMAL
    elif table.delta == 1:
        # In characteristic zero any centralizer element outside H
        # extends H to a larger abelian subalgebra.
        maximality = NOT_MAXIMAL
        witness = next(
            row for row in cz.basis if not cartan.subspace.contains(row)
        )
    else:
        candidates = list(cz.basis)
        for i in range(cz.dim):
            for j in range(i + 1, cz.dim):
                candidates.append(vec_add(cz.basis[i], cz.basis[j]))
        for x in candidates:
            if not cartan.subspace.contains(x) and vec_is_zero(
                bracket(table, x, x)
            ):
                witness = x
                break
        maximality = NOT_MAXIMAL if witness is not None else UNDETERMINED

    return CartanReport(
        abelian_ok=abelian_ok,
        abelian_violations=abelian_violations,
        diagonalizable_ok=diagonalizable_ok,
        nondiagonalizable_indices=tuple(bad_indices),
        spans_ok=spans_ok,
        zero_space_is_cartan=zero_space_is_cartan,
        centralizer_space=cz,
        maximality=maximality,
        maximality_witness=witness,
        decomposition=decomposition,
    )


@dataclass(frozen=True)
class RootDecomposition:
    """L = H + (sum of L_a) with root functionals in lexicographic order."""

    algebra: StructureTable
    cartan: CartanCandidate
    root_spaces: tuple[tuple[RootFunctional, Subspace], ...]
    zero_space: Subspace

    @property
    def roots(self) -> tuple[RootFunctional, ...]:
        return tuple(alpha for alpha, _ in self.root_spaces)

    @property
    def root_set(self) -> frozenset[RootFunctional]:
        return frozenset(self.roots)

    def space_of(self, alpha: RootFunctional) -> Subspace:
        for root, space in self.root_spaces:
            if root == alpha:
                return space
        raise KeyError(f"not a root of this decomposition: {alpha}")


def root_decomposition(
    table: StructureTable, cartan: CartanCandidate
) -> RootDecomposition:
    """Verify the candidate and return its root decomposition.

    Raises PreconditionError naming every failed check among (a)-(d) of
    verify_splitting_cartan.
    """
    report = verify_splitting_cartan(table, cartan)
    if report.decomposition is None:
        failed = [
            name
            for name, ok in (
                ("abelian", report.abelian_ok),
                ("diagonalizable", report.diagonalizable_ok),
                ("spanning", report.spans_ok),
                ("zero-eigenspace-equals-cartan", report.zero_space_is_cartan),
            )
            if not ok
        ]
        raise PreconditionError(
            f"candidate is not a splitting Cartan subalgebra; failed checks: "
            f"{', '.join(failed)}"
        )
    return report.decomposition


def is_symmetric(decomp: RootDecomposition) -> bool:
    """True iff the root system is closed under negation."""
    roots = decomp.root_set
    return all(tuple(-v for v in alpha) in roots for alpha in roots)


@dataclass(frozen=True)
class GradingReport:
    """Exact check that products of root spaces respect the grading.

    For every pair (a, b) over the roots and the zero functional (the
    Cartan part), every product of basis vectors must be zero or lie in
    the space graded by delta * (a + b).
    """

    checked_pairs: int
    violations: tuple[tuple[RootFunctional, RootFunctional, Vector], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_bracket_grading(decomp: RootDecomposition) -> GradingReport:
    table = decomp.algebra
    delta = Fraction(table.delta)
    zero_tuple = (Fraction(0),) * decomp.cartan.dim
    graded: dict[RootFunctional, Subspace] = {zero_tuple: decomp.cartan.subspace}
    for alpha, space in decomp.root_spaces:
        graded[alpha] = space

    labels = sorted(graded)
    violations = []
    for a in labels:
        for b in labels:
            target = tuple(delta * (x + y) for x, y in zip(a, b))
            target_space = graded.get(target)
            for u in graded[a].basis:
                for w in graded[b].basis:
                    product = bracket(table, u, w)
                    if vec_is_zero(product):
                        continue
                    if target_space is None or not target_space.contains(product):
                        violations.append((a, b, product))
    return GradingReport(len(labels) ** 2, tuple(violations))
