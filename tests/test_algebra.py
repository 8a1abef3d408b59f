import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jla import algebra, samples
from jla.algebra import (
    AxiomReport,
    OracleCapExceeded,
    StructureTable,
    ad_matrix,
    bracket,
    center,
    check_axioms,
    derived,
    ideal_closure,
    is_ideal,
    minimal_ideals_oracle,
    random_element,
)
from jla.algfile import loads
from jla.linalg import Matrix, Subspace, vec_add, vec_is_zero, vec_scale, vector

from conftest import rebased

F = Fraction


def span(n, rows):
    return Subspace.span(n, rows)


E = (F(1), F(0), F(0))
H = (F(0), F(1), F(0))
FV = (F(0), F(0), F(1))


# --- table construction ------------------------------------------------------


@pytest.mark.parametrize(
    "brackets",
    [
        {(-1, 0): {0: F(1)}},
        {(0, -1): {0: F(1)}},
        {(0, 0): {-2: F(1)}},
        {(2, 0): {0: F(1)}},
        {(0, 2): {0: F(1)}},
        {(0, 0): {2: F(1)}},
    ],
)
def test_from_brackets_rejects_indices_outside_the_basis(brackets):
    with pytest.raises(ValueError, match="out of range"):
        StructureTable.from_brackets(2, 1, brackets)


def test_from_brackets_drops_zero_terms_and_empty_results():
    table = StructureTable.from_brackets(
        2, 1, {(1, 1): {0: F(0)}, (0, 1): {1: F(3), 0: F(0)}, (1, 0): {}}
    )
    assert dict(table.products) == {(0, 1): ((1, F(3)),)}


def test_stored_zero_coefficient_is_rejected():
    with pytest.raises(ValueError, match="zero coefficient"):
        StructureTable(2, 1, {(0, 1): ((1, F(0)),)}, ("a", "b"))


def test_structure_table_is_read_only():
    table, _ = samples.sl2()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.products = {}
    with pytest.raises(TypeError):
        table.products[(0, 0)] = ((0, F(1)),)


# --- bracket -----------------------------------------------------------------


def test_sl2_bracket_e_f_is_h():
    table, _ = samples.sl2()
    assert bracket(table, E, FV) == H


def test_bracket_of_zero_is_zero():
    table, _ = samples.sl2()
    zero = (F(0),) * 3
    assert bracket(table, zero, H) == zero


def test_bracket_dimension_mismatch():
    table, _ = samples.sl2()
    with pytest.raises(ValueError):
        bracket(table, (F(1),), H)


def test_bracket_bilinearity_random():
    table, _ = samples.sl3()
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(table, rng)
        y = random_element(table, rng)
        z = random_element(table, rng)
        c = F(rng.randint(-4, 4), rng.randint(1, 4))
        left = bracket(table, vec_add(x, vec_scale(y, c)), z)
        right = vec_add(bracket(table, x, z), vec_scale(bracket(table, y, z), c))
        assert left == right


def test_alternating_for_plus_delta_tables():
    rng = random.Random(11)
    for name in ("sl2", "sl2x2", "sl3", "gl2", "nonsymmetric_dim2"):
        table, _ = samples.corpus()[name]
        assert check_axioms(table).passed
        for _ in range(10):
            x = random_element(table, rng)
            assert vec_is_zero(bracket(table, x, x))


# --- axioms -------------------------------------------------------------------


def test_sl2_axioms_pass():
    table, _ = samples.sl2()
    report = check_axioms(table)
    assert report.passed
    assert report.antisymmetry_violations == ()
    assert report.jacobi_violations == ()


def test_sl2_with_flipped_delta_fails_antisymmetry():
    table, _ = samples.sl2()
    flipped = StructureTable(table.dim, -1, table.products, table.basis_names)
    report = check_axioms(flipped)
    assert not report.passed
    violations = {(i, j): r for i, j, r in report.antisymmetry_violations}
    # residual at (e, f) is [e,f] + (-1)[f,e] = h + h = 2h
    assert violations[(0, 2)] == (F(0), F(2), F(0))


def test_delta_minus_square_table_passes():
    table, _ = samples.delta_minus_dim2()
    assert check_axioms(table).passed
    a = (F(1), F(0))
    assert bracket(table, a, a) == (F(0), F(1))


def test_broken_sl2_fails_with_localized_residual():
    table, _ = samples.sl2_broken()
    report = check_axioms(table)
    assert not report.passed
    anti = {(i, j) for i, j, _ in report.antisymmetry_violations}
    assert anti == {(0, 2), (2, 0)}


def _dense_axioms(table):
    """Reference: both axioms by ``bracket`` on every basis pair and triple."""
    n, d = table.dim, table.delta
    basis = [table.basis_element(i) for i in range(n)]
    anti, jacobi = [], []
    for i in range(n):
        for j in range(n):
            r = vec_add(
                bracket(table, basis[i], basis[j]),
                vec_scale(bracket(table, basis[j], basis[i]), F(d)),
            )
            if not vec_is_zero(r):
                anti.append((i, j, r))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bracket(table, basis[i], bracket(table, basis[j], basis[k]))
                rhs = vec_add(
                    bracket(table, bracket(table, basis[i], basis[j]), basis[k]),
                    bracket(table, basis[j], bracket(table, basis[i], basis[k])),
                )
                r = vector(a - d * b for a, b in zip(lhs, rhs))
                if not vec_is_zero(r):
                    jacobi.append((i, j, k, r))
    return AxiomReport(n, d, tuple(anti), tuple(jacobi))


def _sl2_dense():
    """sl2 in a rational basis where every product is nonzero off the
    diagonal and no stored coefficient is an integer."""
    table, _ = rebased(*samples.sl2(), random.Random(1))
    assert all((i, j) in table.products for i in range(3) for j in range(3) if i != j)
    assert all(c.denominator > 1 for terms in table.products.values() for _, c in terms)
    return table, None


REFERENCE_TABLES = {
    "sl3": samples.sl3,
    "delta_minus_dim2": samples.delta_minus_dim2,
    "sl2_dense": _sl2_dense,
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCE_TABLES)),
    st.sampled_from(["change", "add", "remove"]),
    st.data(),
)
def test_check_axioms_matches_dense_reference(name, edit, data):
    """One structure constant changed, added or removed: the sparse check
    reports the same violations, in the same order, with the same residuals
    as bracketing every triple."""
    table, _ = REFERENCE_TABLES[name]()
    brackets = {pair: dict(terms) for pair, terms in table.products.items()}
    if edit == "add":
        index = st.integers(0, table.dim - 1)
        i, j, k = data.draw(st.tuples(index, index, index))
    else:
        pair = data.draw(st.sampled_from(sorted(brackets)))
        i, j = pair
        k = data.draw(st.sampled_from(sorted(brackets[pair])))
    if edit == "remove":
        del brackets[(i, j)][k]
    else:
        coeff = data.draw(
            st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
        )
        brackets.setdefault((i, j), {})[k] = coeff
    edited = StructureTable.from_brackets(
        table.dim, table.delta, brackets, table.basis_names
    )
    assert check_axioms(edited) == _dense_axioms(edited)


# --- ad matrices ---------------------------------------------------------------


def test_ad_h_is_diagonal_on_sl2():
    table, _ = samples.sl2()
    assert ad_matrix(table, H) == Matrix.from_rows(
        [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
    )


def test_ad_of_zero_is_zero():
    table, _ = samples.sl2()
    assert ad_matrix(table, (F(0),) * 3).is_zero()


def test_ad_of_central_element_in_delta_minus_table():
    table, _ = samples.delta_minus_dim2()
    assert ad_matrix(table, (F(0), F(1))).is_zero()


def test_ad_linearity():
    table, _ = samples.sl3()
    rng = random.Random(3)
    for _ in range(10):
        x = random_element(table, rng)
        y = random_element(table, rng)
        ax, ay = ad_matrix(table, x), ad_matrix(table, y)
        assert ad_matrix(table, vec_add(x, y)).entries == tuple(
            vec_add(r, s) for r, s in zip(ax.entries, ay.entries)
        )


def test_ad_composition_residual_restates_second_axiom():
    # (ad x . ad y - delta ad y . ad x) applied to each basis vector must
    # equal ad([x, y]) applied to it, computed as residuals, not operators.
    rng = random.Random(5)
    for name in ("sl2", "sl3", "gl2", "delta_minus_dim2"):
        table, _ = samples.corpus()[name]
        d = F(table.delta)
        for _ in range(5):
            x = random_element(table, rng, bound=3)
            y = random_element(table, rng, bound=3)
            adx, ady = ad_matrix(table, x), ad_matrix(table, y)
            adxy = ad_matrix(table, bracket(table, x, y))
            for k in range(table.dim):
                z = table.basis_element(k)
                lhs = vec_add(
                    adx.apply(ady.apply(z)),
                    vec_scale(ady.apply(adx.apply(z)), -d),
                )
                assert lhs == adxy.apply(z)


# --- center / derived -----------------------------------------------------------


def test_center_of_sl2_is_zero():
    table, _ = samples.sl2()
    assert center(table).is_zero()


def test_center_of_abelian_is_everything():
    table, _ = samples.abelian(3)
    assert center(table) == Subspace.full(3)


def test_center_of_gl2_is_the_scalar_line():
    table, _ = samples.gl2()
    assert center(table) == span(4, [[0, 0, 0, 1]])


def test_center_brackets_to_zero():
    for table, _ in samples.corpus().values():
        z = center(table)
        for v in z.basis:
            for j in range(table.dim):
                assert vec_is_zero(bracket(table, v, table.basis_element(j)))


def test_derived_subalgebras():
    table, _ = samples.sl2()
    assert derived(table) == Subspace.full(3)
    table, _ = samples.abelian(2)
    assert derived(table).is_zero()
    table, _ = samples.gl2()
    assert derived(table) == span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


# --- ideals ----------------------------------------------------------------------


def test_ideal_closure_of_e_in_sl2_is_everything():
    table, _ = samples.sl2()
    assert ideal_closure(table, span(3, [E])) == Subspace.full(3)


def test_ideal_closure_of_zero_is_zero():
    table, _ = samples.sl2()
    assert ideal_closure(table, Subspace.zero(3)).is_zero()


def test_ideal_closure_stays_in_summand():
    table, _ = samples.sl2x2()
    first = span(6, [[1, 0, 0, 0, 0, 0]])
    closure = ideal_closure(table, first)
    assert closure == span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])


def test_ideal_closure_monotone_idempotent():
    table, _ = samples.sl3()
    rng = random.Random(13)
    for _ in range(5):
        seed = span(8, [random_element(table, rng)])
        closure = ideal_closure(table, seed)
        assert seed.is_subspace_of(closure)
        assert ideal_closure(table, closure) == closure
        assert is_ideal(table, closure)


def _fixed_point_closure(table, seed):
    """Reference: re-bracket the whole basis every round until the span
    stops growing (the closure before the worklist)."""
    basis = [table.basis_element(j) for j in range(table.dim)]
    current = seed
    while True:
        rows = list(current.basis)
        for s in current.basis:
            for bj in basis:
                rows.append(bracket(table, s, bj))
                rows.append(bracket(table, bj, s))
        grown = Subspace.span(table.dim, rows)
        if grown.dim == current.dim:
            return grown
        current = grown


CLOSURE_TABLES = {
    **{name: table for name, (table, _) in samples.corpus().items()},
    "sl2_dense": _sl2_dense()[0],
    # [b0, b1] = b2 and [b1, b0] = 0: a left product leaves span(b1), a
    # right one does not.
    "one_sided": StructureTable.from_brackets(3, 1, {(0, 1): {2: F(1)}}),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_TABLES) + ["gl3"])
def test_worklist_closure_matches_fixed_point_reference(classical, name, monkeypatch):
    """Random seeds of dimension 0-3, and the oracle's own list, on every
    corpus table (both delta = -1 ones included), a dense basis, a
    one-sided product and a generated gl3."""
    if name == "gl3":
        table, _ = loads(classical.alg_text(classical.gl(3)))
    else:
        table = CLOSURE_TABLES[name]
    rng = random.Random(name)
    for _ in range(12):
        seed = span(
            table.dim,
            [random_element(table, rng) for _ in range(rng.randint(0, 3))],
        )
        assert ideal_closure(table, seed) == _fixed_point_closure(table, seed)
    expected = minimal_ideals_oracle(table)
    monkeypatch.setattr(algebra, "ideal_closure", _fixed_point_closure)
    assert minimal_ideals_oracle(table) == expected


def test_is_ideal_examples():
    table, _ = samples.sl2()
    assert is_ideal(table, Subspace.full(3))
    assert not is_ideal(table, span(3, [E]))
    gl2_table, _ = samples.gl2()
    assert is_ideal(gl2_table, span(4, [[0, 0, 0, 1]]))


# --- oracle -----------------------------------------------------------------------


def test_oracle_sl2_finds_only_the_whole_algebra():
    table, _ = samples.sl2()
    assert minimal_ideals_oracle(table) == [Subspace.full(3)]


def test_oracle_sl2x2_finds_the_two_summands():
    table, _ = samples.sl2x2()
    ideals = minimal_ideals_oracle(table)
    first = span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    second = span(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    assert set(ideals) == {first, second}


def test_oracle_abelian_returns_seed_lines():
    table, _ = samples.abelian(2)
    assert set(minimal_ideals_oracle(table)) == {
        span(2, [[1, 0]]),
        span(2, [[0, 1]]),
        span(2, [[1, 1]]),
    }


def test_oracle_gl2():
    table, _ = samples.gl2()
    ideals = minimal_ideals_oracle(table)
    assert set(ideals) == {
        span(4, [[0, 0, 0, 1]]),
        span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
    }


def test_oracle_cap():
    table, _ = samples.sl3()
    with pytest.raises(OracleCapExceeded):
        minimal_ideals_oracle(table, cap=4)
