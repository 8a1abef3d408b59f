"""Connections between roots, their equivalence classes, and the
decomposition of the algebra into the ideals attached to those classes.

Two nonzero roots are connected when a finite chain of roots, combined
through the twisted partial sum s -> delta (s + g), leads from one to the
other up to sign while every intermediate sum stays a root.  Reachability
under that single move therefore decides connectedness; no chains need to
be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import StructureTable, bracket, center, derived, is_ideal
from .errors import PreconditionError, VerificationError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    complement_within,
    kernel,
    solve,
    span_intersection,
    span_sum,
    vec_is_zero,
)
from .roots import RootDecomposition, RootFunctional, is_symmetric


class ProportionalRootsError(ValueError):
    """The two roots are rational multiples of each other."""


@dataclass(frozen=True)
class ConnectionClass:
    """An equivalence class of connected roots.

    ``members`` is lexicographically sorted and closed under negation;
    the representative is the smallest member.
    """

    representative: RootFunctional
    members: tuple[RootFunctional, ...]


def _negate(alpha: RootFunctional) -> RootFunctional:
    return tuple(-v for v in alpha)


def _require_symmetric(decomp: RootDecomposition) -> None:
    if not is_symmetric(decomp):
        raise PreconditionError(
            "the root system is not symmetric; connections are only defined "
            "for symmetric root systems"
        )


def connected_set(
    decomp: RootDecomposition, alpha: RootFunctional
) -> ConnectionClass:
    """All roots connected to ``alpha``.

    Breadth-first closure of {alpha} under the move s -> delta (s + g)
    over all roots g, keeping only moves that land on a root, followed by
    symmetrization: the one-element chain already connects alpha to
    -alpha, and chains ending at -b count as reaching b.
    """
    _require_symmetric(decomp)
    roots = decomp.root_set
    if alpha not in roots:
        raise PreconditionError(f"not a nonzero root: {alpha}")
    delta = Fraction(decomp.algebra.delta)
    reached = {alpha}
    frontier = [alpha]
    while frontier:
        current = frontier.pop()
        for gamma in roots:
            step = tuple(delta * (s + g) for s, g in zip(current, gamma))
            if step in roots and step not in reached:
                reached.add(step)
                frontier.append(step)
    members = tuple(sorted(reached | {_negate(beta) for beta in reached}))
    return ConnectionClass(representative=members[0], members=members)


def connection_classes(decomp: RootDecomposition) -> list[ConnectionClass]:
    """Partition of the root system into connection classes.

    Representatives are visited in lexicographic order, so the classes
    come out in a canonical order.  The partition property is asserted
    exactly: the classes must be pairwise disjoint, symmetric, and cover
    every root.
    """
    _require_symmetric(decomp)
    classes: list[ConnectionClass] = []
    covered: set[RootFunctional] = set()
    for alpha in sorted(decomp.root_set):
        if alpha in covered:
            continue
        cls = connected_set(decomp, alpha)
        if covered & set(cls.members):
            raise VerificationError(
                "connection classes are not disjoint; the relation failed to "
                "be an equivalence"
            )
        covered |= set(cls.members)
        classes.append(cls)
    if covered != decomp.root_set:
        raise VerificationError("connection classes do not cover the root system")
    for cls in classes:
        if set(cls.members) != {_negate(m) for m in cls.members}:
            raise VerificationError("a connection class is not symmetric")
    return classes


def is_root_subsystem(decomp: RootDecomposition, subset) -> bool:
    """Symmetric and closed under (a, b) -> delta (a + b) whenever that
    twisted sum is a root."""
    subset = frozenset(subset)
    roots = decomp.root_set
    if not subset <= roots:
        raise PreconditionError("subset contains functionals that are not roots")
    delta = Fraction(decomp.algebra.delta)
    for alpha in subset:
        if _negate(alpha) not in subset:
            return False
    for alpha in subset:
        for beta in subset:
            combo = tuple(delta * (a + b) for a, b in zip(alpha, beta))
            if combo in roots and combo not in subset:
                return False
    return True


@dataclass(frozen=True)
class SubsystemSubalgebra:
    """Cartan-side and root-side parts of the subalgebra attached to a
    root subsystem, plus their sum."""

    h_part: Subspace
    v_part: Subspace
    total: Subspace


@dataclass(frozen=True)
class IdealComponent:
    """The ideal attached to a connection class."""

    connection_class: ConnectionClass
    h_part: Subspace
    v_part: Subspace
    total: Subspace


def subsystem_subalgebra(decomp: RootDecomposition, subset) -> SubsystemSubalgebra:
    """Build span{[L_a, L_-a]} + (sum of L_a over the subsystem) and verify
    it is closed under the product."""
    subset = frozenset(subset)
    if not is_root_subsystem(decomp, subset):
        raise PreconditionError("the given set of roots is not a root subsystem")
    table = decomp.algebra
    n = table.dim
    h_rows = []
    v_part = Subspace.zero(n)
    for alpha in sorted(subset):
        space = decomp.space_of(alpha)
        opposite = decomp.space_of(_negate(alpha))
        for u in space.basis:
            for w in opposite.basis:
                h_rows.append(bracket(table, u, w))
        v_part = span_sum(v_part, space)
    h_part = Subspace.span(n, h_rows)
    total = span_sum(h_part, v_part)
    for u in total.basis:
        for w in total.basis:
            if not total.contains(bracket(table, u, w)):
                raise VerificationError(
                    "subsystem subalgebra is not closed under the product"
                )
    return SubsystemSubalgebra(h_part=h_part, v_part=v_part, total=total)


def ideal_component(
    decomp: RootDecomposition, cls: ConnectionClass
) -> IdealComponent:
    """Build the ideal attached to a connection class and verify it.

    Verifies exactly, raising on failure since all of it is guaranteed
    for valid inputs: the total is an ideal, the two parts meet trivially,
    products with root spaces outside the class vanish, and roots outside
    the class vanish on span{[L_b, L_-b]} for b inside.
    """
    table = decomp.algebra
    parts = subsystem_subalgebra(decomp, cls.members)
    if not span_intersection(parts.h_part, parts.v_part).is_zero():
        raise VerificationError("Cartan part and root part overlap")
    if not is_ideal(table, parts.total):
        raise VerificationError("connection-class subalgebra is not an ideal")

    member_set = set(cls.members)
    outside = [alpha for alpha in decomp.roots if alpha not in member_set]
    for beta in cls.members:
        beta_space = decomp.space_of(beta)
        opposite = decomp.space_of(_negate(beta))
        pair_products = [
            bracket(table, u, w)
            for u in beta_space.basis
            for w in opposite.basis
        ]
        for gamma in outside:
            gamma_space = decomp.space_of(gamma)
            for u in beta_space.basis:
                for w in gamma_space.basis:
                    if not vec_is_zero(bracket(table, u, w)) or not vec_is_zero(
                        bracket(table, w, u)
                    ):
                        raise VerificationError(
                            "nonzero product between root spaces of different "
                            "connection classes"
                        )
            for z in pair_products:
                if _evaluate_on_cartan(decomp, gamma, z) != 0:
                    raise VerificationError(
                        "a root outside the class does not vanish on the "
                        "class's Cartan part"
                    )
    return IdealComponent(
        connection_class=cls,
        h_part=parts.h_part,
        v_part=parts.v_part,
        total=parts.total,
    )


def _evaluate_on_cartan(
    decomp: RootDecomposition, alpha: RootFunctional, z: Vector
) -> Fraction:
    """Value of the functional on an element of the Cartan subspace."""
    coords = decomp.cartan.subspace.coordinates(z)
    if coords is None:
        raise VerificationError(
            "expected an element of the Cartan subspace; the grading failed"
        )
    return sum((c * a for c, a in zip(coords, alpha)), Fraction(0))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of decomposing the algebra along its connection classes.

    L = U + (sum of the class ideals) always holds (``spans_l``); the sum
    is reported direct only when the component dimensions add up and the
    complement U is zero.  ``center_zero`` and ``derived_full`` record the
    hypotheses under which the direct-sum conclusion is guaranteed.
    """

    complement_u: Subspace
    components: tuple[IdealComponent, ...]
    orthogonality_ok: bool
    spans_l: bool
    center_zero: bool
    derived_full: bool
    direct_sum: bool


def decompose(
    table: StructureTable, decomp: RootDecomposition
) -> DecompositionReport:
    _require_symmetric(decomp)
    n = table.dim
    h_rows = []
    for alpha in decomp.roots:
        space = decomp.space_of(alpha)
        opposite = decomp.space_of(_negate(alpha))
        for u in space.basis:
            for w in opposite.basis:
                h_rows.append(bracket(table, u, w))
    h_span = Subspace.span(n, h_rows)
    if not h_span.is_subspace_of(decomp.cartan.subspace):
        raise VerificationError(
            "products [L_a, L_-a] escaped the Cartan subspace"
        )
    u_complement = complement_within(h_span, decomp.cartan.subspace)

    components = tuple(
        ideal_component(decomp, cls) for cls in connection_classes(decomp)
    )

    component_sum = Subspace.zero(n)
    for component in components:
        component_sum = span_sum(component_sum, component.total)
    spans_l = span_sum(u_complement, component_sum) == Subspace.full(n)

    orthogonality_ok = True
    for i, first in enumerate(components):
        for second in components[i + 1 :]:
            for u in first.total.basis:
                for w in second.total.basis:
                    if not vec_is_zero(bracket(table, u, w)) or not vec_is_zero(
                        bracket(table, w, u)
                    ):
                        orthogonality_ok = False

    sum_direct = component_sum.dim == sum(c.total.dim for c in components)

    return DecompositionReport(
        complement_u=u_complement,
        components=components,
        orthogonality_ok=orthogonality_ok,
        spans_l=spans_l,
        center_zero=center(table).is_zero(),
        derived_full=derived(table) == Subspace.full(n),
        direct_sum=sum_direct and u_complement.is_zero(),
    )


def _proportional(alpha: RootFunctional, beta: RootFunctional) -> bool:
    pivot = next((i for i, b in enumerate(beta) if b != 0), None)
    if pivot is None:
        return all(a == 0 for a in alpha)
    k = alpha[pivot] / beta[pivot]
    return all(a == k * b for a, b in zip(alpha, beta))


def separating_element(
    decomp: RootDecomposition, alpha: RootFunctional, beta: RootFunctional
) -> Vector:
    """An element h of the Cartan subspace with alpha(h) != 0, beta(h) = 0.

    Exists whenever the two roots are not proportional: the kernel of
    beta inside the Cartan coordinates has codimension one, and alpha
    vanishes on all of it only when alpha is a multiple of beta.
    """
    roots = decomp.root_set
    if alpha not in roots or beta not in roots:
        raise PreconditionError("both functionals must be nonzero roots")
    if _proportional(alpha, beta):
        raise ProportionalRootsError(
            f"roots are proportional: {alpha} and {beta}"
        )
    coeff_kernel = kernel(Matrix((tuple(beta),), len(beta)))
    cartan_rows = decomp.cartan.ordered_basis
    for coords in coeff_kernel.basis:
        value = sum((c * a for c, a in zip(coords, alpha)), Fraction(0))
        if value != 0:
            h = (Fraction(0),) * decomp.algebra.dim
            for c, row in zip(coords, cartan_rows):
                h = tuple(x + c * y for x, y in zip(h, row))
            return h
    raise VerificationError(
        "no separating element found for non-proportional roots"
    )


def extract_root_components(
    decomp: RootDecomposition, ideal: Subspace, x: Vector
) -> list[Vector]:
    """Root-space components of an ideal element.

    Splits x = h_0 + (sum of components in the root spaces) along the
    decomposition and returns the nonzero root-space components, checking
    exactly that each one lies back in the ideal.
    """
    table = decomp.algebra
    if not is_ideal(table, ideal):
        raise PreconditionError("the given subspace is not an ideal")
    if not ideal.contains(x):
        raise PreconditionError("the element does not belong to the ideal")

    blocks: list[tuple[RootFunctional | None, tuple[Vector, ...]]] = [
        (None, decomp.cartan.ordered_basis)
    ]
    for alpha, space in decomp.root_spaces:
        blocks.append((alpha, space.basis))
    all_rows = [row for _, rows in blocks for row in rows]
    columns = Matrix.from_rows(all_rows, table.dim).transpose()
    coeffs = solve(columns, x)
    if coeffs is None:
        raise VerificationError(
            "the decomposition does not span the algebra; cannot project"
        )
    components = []
    offset = 0
    for alpha, rows in blocks:
        part = (Fraction(0),) * table.dim
        for row in rows:
            part = tuple(p + coeffs[offset] * r for p, r in zip(part, row))
            offset += 1
        if alpha is not None and not vec_is_zero(part):
            if not ideal.contains(part):
                raise VerificationError(
                    "a root-space component of an ideal element escaped the "
                    "ideal"
                )
            components.append(part)
    return components
