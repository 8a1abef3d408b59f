from fractions import Fraction

import pytest

from jla import samples
from jla.algebra import StructureTable, bracket, check_axioms, minimal_ideals_oracle
from jla.connections import connection_classes
from jla.errors import PreconditionError, VerificationError
from jla.linalg import Subspace
from jla.roots import is_symmetric, root_decomposition
from jla.simplicity import (
    HYPOTHESES_UNMET,
    NOT_SIMPLE,
    SIMPLE,
    embed_from_component,
    is_root_multiplicative,
    no_ideal_in_cartan_check,
    qualifying_pairs,
    restrict_to_component,
    simplicity_criterion,
    structure_theorem,
)

F = Fraction


# --- root multiplicativity ---------------------------------------------------


def test_sl2_is_vacuously_root_multiplicative(decomps):
    decomp = decomps["sl2"]
    assert qualifying_pairs(decomp) == []
    assert is_root_multiplicative(decomp)


def test_sl3_is_root_multiplicative_non_vacuously(decomps):
    decomp = decomps["sl3"]
    pairs = qualifying_pairs(decomp)
    assert len(pairs) >= 6
    assert is_root_multiplicative(decomp)


def _sl3_with_zeroed_product():
    """sl3 with the product of the two simple-root vectors erased.

    The ad action of the Cartan elements is untouched, so the root
    decomposition is the same; only the multiplicativity check changes.
    """
    table, cartan = samples.sl3()
    brackets = {pair: dict(terms) for pair, terms in table.products.items()}
    # basis order (e12, e13, e23, h1, h2, e21, e31, e32): kill [e12, e23]
    brackets.pop((0, 2))
    broken = StructureTable.from_brackets(8, 1, brackets, table.basis_names)
    return broken, cartan


def test_broken_sl3_fails_root_multiplicativity():
    table, cartan = _sl3_with_zeroed_product()
    decomp = root_decomposition(table, cartan)
    assert not is_root_multiplicative(decomp)


# --- no ideal inside the Cartan -------------------------------------------------


def test_no_ideal_in_cartan_for_sl2_and_sl2x2(decomps):
    for name in ("sl2", "sl2x2"):
        decomp = decomps[name]
        assert no_ideal_in_cartan_check(decomp.algebra, decomp)


def test_no_ideal_in_cartan_requires_trivial_center(decomps):
    decomp = decomps["gl2"]
    with pytest.raises(PreconditionError):
        no_ideal_in_cartan_check(decomp.algebra, decomp)


# --- the criterion ---------------------------------------------------------------


def test_sl2_is_simple(decomps):
    verdict = simplicity_criterion(decomps["sl2"].algebra, decomps["sl2"])
    assert verdict.verdict == SIMPLE
    assert verdict.hypotheses.all_met
    assert verdict.all_connected is True
    assert verdict.class_count == 1
    assert verdict.oracle_checked


def test_sl2x2_is_not_simple(decomps):
    verdict = simplicity_criterion(decomps["sl2x2"].algebra, decomps["sl2x2"])
    assert verdict.verdict == NOT_SIMPLE
    assert verdict.class_count == 2
    assert verdict.oracle_checked


def test_sl3_is_simple(decomps):
    verdict = simplicity_criterion(decomps["sl3"].algebra, decomps["sl3"])
    assert verdict.verdict == SIMPLE


def test_gl2_hypotheses_unmet(decomps):
    verdict = simplicity_criterion(decomps["gl2"].algebra, decomps["gl2"])
    assert verdict.verdict == HYPOTHESES_UNMET
    assert not verdict.hypotheses.center_zero
    assert not verdict.hypotheses.derived_full
    assert not verdict.oracle_checked


def test_nonsymmetric_system_is_undecided(decomps):
    decomp = decomps["nonsymmetric_dim2"]
    verdict = simplicity_criterion(decomp.algebra, decomp)
    assert verdict.verdict == HYPOTHESES_UNMET
    assert not verdict.hypotheses.roots_symmetric
    assert verdict.all_connected is None
    assert verdict.class_count is None


def test_verdict_agrees_with_oracle_everywhere(decomps):
    for name in ("sl2", "sl2x2", "sl3"):
        decomp = decomps[name]
        verdict = simplicity_criterion(decomp.algebra, decomp)
        oracle = minimal_ideals_oracle(decomp.algebra)
        simple = oracle == [Subspace.full(decomp.algebra.dim)]
        assert (verdict.verdict == SIMPLE) == simple


# --- component restriction --------------------------------------------------------


def test_restriction_fidelity(decomps):
    decomp = decomps["sl2x2"]
    table = decomp.algebra
    first = Subspace.span(
        6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    )
    sub = restrict_to_component(table, first)
    assert check_axioms(sub).passed
    assert sub.delta == table.delta
    for i in range(sub.dim):
        for j in range(sub.dim):
            inner = bracket(sub, sub.basis_element(i), sub.basis_element(j))
            outer = bracket(table, first.basis[i], first.basis[j])
            assert embed_from_component(first, inner) == outer


def test_restriction_rejects_unclosed_subspaces(decomps):
    table = decomps["sl2"].algebra
    plane = Subspace.span(3, [[1, 0, 0], [0, 0, 1]])  # [e, f] = h escapes
    with pytest.raises(VerificationError):
        restrict_to_component(table, plane)


# --- the structure decomposition ----------------------------------------------------


def test_structure_of_sl2x2(decomps):
    decomp = decomps["sl2x2"]
    report = structure_theorem(decomp.algebra, decomp)
    assert report.sum_direct
    assert report.oracle_checked and report.oracle_agrees
    assert len(report.components) == 2
    for comp in report.components:
        assert comp.table.dim == 3
        assert comp.verdict.verdict == SIMPLE
        assert comp.verdict.hypotheses.all_met
        assert len(comp.roots) == 2
        assert check_axioms(comp.table).passed
        assert comp.table.delta == decomp.algebra.delta


def test_structure_of_simple_algebras_is_one_component(decomps):
    for name in ("sl2", "sl3"):
        decomp = decomps[name]
        report = structure_theorem(decomp.algebra, decomp)
        assert len(report.components) == 1
        assert report.components[0].component.total == Subspace.full(
            decomp.algebra.dim
        )


def test_structure_refuses_gl2(decomps):
    decomp = decomps["gl2"]
    with pytest.raises(PreconditionError):
        structure_theorem(decomp.algebra, decomp)


def test_class_count_equals_minimal_ideal_count(decomps):
    for name in ("sl2", "sl2x2", "sl3"):
        decomp = decomps[name]
        classes = connection_classes(decomp)
        ideals = minimal_ideals_oracle(decomp.algebra)
        assert len(classes) == len(ideals)


def test_components_have_symmetric_connected_roots(decomps):
    decomp = decomps["sl2x2"]
    report = structure_theorem(decomp.algebra, decomp)
    for comp in report.components:
        sub_decomp = root_decomposition(comp.table, comp.cartan)
        assert is_symmetric(sub_decomp)
        assert len(connection_classes(sub_decomp)) == 1
