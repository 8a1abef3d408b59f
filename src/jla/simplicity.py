"""Simplicity criterion and decomposition into simple minimal ideals.

The criterion is an if-and-only-if statement only under five hypotheses
(root-multiplicative product, trivial center, perfect algebra,
one-dimensional root spaces, symmetric roots).  Outside them the verdict
is "hypotheses_unmet": the criterion is silent there and the library
refuses to guess.  Decided verdicts are cross-checked against the
brute-force minimal-ideal enumeration whenever the dimension allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    DEFAULT_ORACLE_CAP,
    StructureTable,
    bracket,
    center,
    check_axioms,
    derived,
    is_ideal,
    minimal_ideals_oracle,
)
from .connections import (
    DecompositionReport,
    IdealComponent,
    connection_classes,
    decompose,
)
from .errors import PreconditionError, VerificationError
from .linalg import (
    Subspace,
    Vector,
    span_intersection,
    span_sum,
    vec_is_zero,
    vector,
)
from .roots import (
    CartanCandidate,
    RootDecomposition,
    RootFunctional,
    is_symmetric,
    root_decomposition,
)

SIMPLE = "simple"
NOT_SIMPLE = "not_simple"
HYPOTHESES_UNMET = "hypotheses_unmet"


def qualifying_pairs(
    decomp: RootDecomposition,
) -> list[tuple[RootFunctional, RootFunctional]]:
    """Ordered root pairs (a, b) whose plain sum a + b is again a root."""
    roots = decomp.root_set
    return [
        (alpha, beta)
        for alpha in sorted(roots)
        for beta in sorted(roots)
        if tuple(x + y for x, y in zip(alpha, beta)) in roots
    ]


def is_root_multiplicative(decomp: RootDecomposition) -> bool:
    """True iff every qualifying pair has a nonzero product of root spaces.

    The qualifying condition uses the plain sum a + b, not the twisted
    sum; for delta = +1 the two agree and for delta = -1 the question is
    vacuous because such algebras have no roots at all.
    """
    table = decomp.algebra
    for alpha, beta in qualifying_pairs(decomp):
        a_space = decomp.space_of(alpha)
        b_space = decomp.space_of(beta)
        if all(
            vec_is_zero(bracket(table, u, w))
            for u in a_space.basis
            for w in b_space.basis
        ):
            return False
    return True


def no_ideal_in_cartan_check(
    table: StructureTable,
    decomp: RootDecomposition,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """Verify that no nonzero ideal fits inside the Cartan subspace.

    Requires a trivial center.  Checks the mechanism that forces the
    conclusion, that H meets the sum of the root spaces trivially, plus
    every minimal ideal found by the brute-force enumeration against
    containment in H.
    """
    if not center(table).is_zero():
        raise PreconditionError("the check requires a trivial center")
    n = table.dim
    v_sum = Subspace.zero(n)
    for _, space in decomp.root_spaces:
        v_sum = span_sum(v_sum, space)
    if not span_intersection(decomp.cartan.subspace, v_sum).is_zero():
        return False
    return not any(
        ideal.is_subspace_of(decomp.cartan.subspace)
        for ideal in minimal_ideals_oracle(table, cap)
    )


@dataclass(frozen=True)
class SimplicityHypotheses:
    root_multiplicative: bool
    center_zero: bool
    derived_full: bool
    all_root_spaces_1dim: bool
    roots_symmetric: bool

    @property
    def all_met(self) -> bool:
        return (
            self.root_multiplicative
            and self.center_zero
            and self.derived_full
            and self.all_root_spaces_1dim
            and self.roots_symmetric
        )


@dataclass(frozen=True)
class SimplicityVerdict:
    """Three-valued outcome of the simplicity criterion.

    ``simple`` and ``not_simple`` are only claimed when all hypotheses
    hold; ``all_connected`` is None when the root system is not symmetric
    and connection classes are undefined.  ``oracle_ideals`` holds the
    brute-force minimal ideals the verdict was cross-checked against, or
    None when the oracle did not run.
    """

    hypotheses: SimplicityHypotheses
    all_connected: bool | None
    class_count: int | None
    verdict: str
    oracle_ideals: tuple[Subspace, ...] | None

    @property
    def oracle_checked(self) -> bool:
        return self.oracle_ideals is not None


def simplicity_criterion(
    table: StructureTable,
    decomp: RootDecomposition,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SimplicityVerdict:
    hypotheses = SimplicityHypotheses(
        root_multiplicative=is_root_multiplicative(decomp),
        center_zero=center(table).is_zero(),
        derived_full=derived(table) == Subspace.full(table.dim),
        all_root_spaces_1dim=all(
            space.dim == 1 for _, space in decomp.root_spaces
        ),
        roots_symmetric=is_symmetric(decomp),
    )
    if hypotheses.roots_symmetric:
        class_count = len(connection_classes(decomp))
        all_connected = class_count == 1
    else:
        class_count = None
        all_connected = None

    if hypotheses.all_met:
        verdict = SIMPLE if all_connected else NOT_SIMPLE
    else:
        verdict = HYPOTHESES_UNMET

    ideals = None
    if verdict in (SIMPLE, NOT_SIMPLE) and table.dim <= oracle_cap:
        ideals = tuple(minimal_ideals_oracle(table, oracle_cap))
        oracle_simple = ideals == (Subspace.full(table.dim),)
        if oracle_simple != (verdict == SIMPLE):
            raise VerificationError(
                f"simplicity verdict {verdict!r} disagrees with the "
                f"brute-force ideal search, which found "
                f"{[ideal.basis for ideal in ideals]!r}"
            )
    return SimplicityVerdict(
        hypotheses=hypotheses,
        all_connected=all_connected,
        class_count=class_count,
        verdict=verdict,
        oracle_ideals=ideals,
    )


@dataclass(frozen=True)
class ComponentReport:
    """One minimal ideal re-verified as a standalone algebra."""

    component: IdealComponent
    table: StructureTable
    cartan: CartanCandidate
    roots: tuple[RootFunctional, ...]
    verdict: SimplicityVerdict


@dataclass(frozen=True)
class StructureReport:
    decomposition: DecompositionReport
    components: tuple[ComponentReport, ...]
    sum_direct: bool
    oracle_checked: bool
    oracle_agrees: bool | None


def restrict_to_component(
    table: StructureTable, component_space: Subspace
) -> StructureTable:
    """Re-express the product on a component in its canonical basis.

    The component must be closed under the product; every basis product
    is rewritten in the component's own coordinates, giving a
    self-contained table of the same delta.
    """
    rows = component_space.basis
    d = len(rows)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(d):
        for j in range(d):
            product = bracket(table, rows[i], rows[j])
            coords = component_space.coordinates(product)
            if coords is None:
                raise VerificationError(
                    "component is not closed under the product; cannot "
                    "restrict the table"
                )
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                brackets[(i, j)] = entry
    return StructureTable.from_brackets(d, table.delta, brackets)


def embed_from_component(component_space: Subspace, coords: Vector) -> Vector:
    """Map component coordinates back to ambient coordinates."""
    out = (Fraction(0),) * component_space.ambient_dim
    for c, row in zip(coords, component_space.basis, strict=True):
        out = tuple(x + c * y for x, y in zip(out, row))
    return out


def structure_theorem(
    table: StructureTable,
    decomp: RootDecomposition,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> StructureReport:
    """Decompose into minimal ideals and re-verify each one is simple.

    Requires all five simplicity hypotheses.  Every proper component is
    restricted to a standalone table, its Cartan re-derived as the
    intersection with the ambient Cartan, and its own root decomposition
    and verdict recomputed; a component equal to the whole algebra reuses
    the ambient table, decomposition and verdict, which restricting to
    the identity basis would reproduce.  The components are cross-checked
    against the oracle ideals of the overall verdict.  Any failed
    guarantee raises.
    """
    overall = simplicity_criterion(table, decomp, oracle_cap)
    if not overall.hypotheses.all_met:
        unmet = [
            name
            for name, ok in (
                ("root_multiplicative", overall.hypotheses.root_multiplicative),
                ("center_zero", overall.hypotheses.center_zero),
                ("derived_full", overall.hypotheses.derived_full),
                ("all_root_spaces_1dim", overall.hypotheses.all_root_spaces_1dim),
                ("roots_symmetric", overall.hypotheses.roots_symmetric),
            )
            if not ok
        ]
        raise PreconditionError(
            f"structure decomposition requires all simplicity hypotheses; "
            f"unmet: {', '.join(unmet)}"
        )

    report = decompose(table, decomp)
    if not (report.spans_l and report.direct_sum and report.orthogonality_ok):
        raise VerificationError(
            "decomposition into class ideals is not a direct sum although "
            "all hypotheses hold"
        )

    components = []
    for component in report.components:
        if component.total == Subspace.full(table.dim):
            sub_table, sub_decomp, verdict = table, decomp, overall
        else:
            sub_table = restrict_to_component(table, component.total)
            if not check_axioms(sub_table).passed:
                raise VerificationError(
                    "a restricted component fails the bracket axioms"
                )
            h_meet = span_intersection(decomp.cartan.subspace, component.total)
            cartan_coords = [
                component.total.coordinates(row) for row in h_meet.basis
            ]
            sub_cartan = CartanCandidate.from_elements(
                sub_table.dim, [vector(c) for c in cartan_coords]
            )
            sub_decomp = root_decomposition(sub_table, sub_cartan)
            verdict = simplicity_criterion(sub_table, sub_decomp, oracle_cap)
        if verdict.verdict != SIMPLE:
            raise VerificationError(
                f"a component failed to re-verify as simple: {verdict.verdict}"
            )
        if not is_ideal(table, component.total):
            raise VerificationError("a component is not an ideal")
        components.append(
            ComponentReport(
                component=component,
                table=sub_table,
                cartan=sub_decomp.cartan,
                roots=sub_decomp.roots,
                verdict=verdict,
            )
        )

    oracle_agrees: bool | None = None
    if overall.oracle_checked:
        component_totals = {component.total for component in report.components}
        oracle_agrees = set(overall.oracle_ideals) == component_totals
        if not oracle_agrees:
            raise VerificationError(
                "component ideals disagree with the brute-force minimal "
                "ideal enumeration"
            )
    return StructureReport(
        decomposition=report,
        components=tuple(components),
        sum_direct=report.direct_sum,
        oracle_checked=overall.oracle_checked,
        oracle_agrees=oracle_agrees,
    )
