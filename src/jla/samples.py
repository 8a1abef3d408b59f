"""Bundled example algebras used by the test corpus and the docs.

Each builder returns a (table, cartan) pair.  The 3x3 trace-zero algebra
is generated from matrix units rather than typed in by hand, so its 64
basis products cannot silently drift.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import StructureTable, bracket
from .linalg import Subspace
from .roots import CartanCandidate

F0, F1 = Fraction(0), Fraction(1)


def sl2() -> tuple[StructureTable, CartanCandidate]:
    """Trace-zero 2x2 matrices; basis (e, h, f), Cartan span{h}."""
    table = StructureTable.from_brackets(
        3,
        1,
        {
            (1, 0): {0: Fraction(2)},
            (0, 1): {0: Fraction(-2)},
            (1, 2): {2: Fraction(-2)},
            (2, 1): {2: Fraction(2)},
            (0, 2): {1: F1},
            (2, 0): {1: -F1},
        },
        basis_names=("e", "h", "f"),
    )
    cartan = CartanCandidate.from_elements(3, [(F0, F1, F0)])
    return table, cartan


def sl2_broken() -> tuple[StructureTable, CartanCandidate]:
    """sl2 with the coefficient of h in [e, f] doubled; fails the axioms."""
    table, cartan = sl2()
    brackets = {
        (1, 0): {0: Fraction(2)},
        (0, 1): {0: Fraction(-2)},
        (1, 2): {2: Fraction(-2)},
        (2, 1): {2: Fraction(2)},
        (0, 2): {1: Fraction(2)},
        (2, 0): {1: -F1},
    }
    broken = StructureTable.from_brackets(3, 1, brackets, table.basis_names)
    return broken, cartan


def gl2() -> tuple[StructureTable, CartanCandidate]:
    """All 2x2 matrices; basis (e, h, f, i) with i central, Cartan span{h, i}."""
    table = StructureTable.from_brackets(
        4,
        1,
        {
            (1, 0): {0: Fraction(2)},
            (0, 1): {0: Fraction(-2)},
            (1, 2): {2: Fraction(-2)},
            (2, 1): {2: Fraction(2)},
            (0, 2): {1: F1},
            (2, 0): {1: -F1},
        },
        basis_names=("e", "h", "f", "i"),
    )
    cartan = CartanCandidate.from_elements(
        4, [(F0, F1, F0, F0), (F0, F0, F0, F1)]
    )
    return table, cartan


def direct_sum(
    first: StructureTable, second: StructureTable, suffixes=("1", "2")
) -> StructureTable:
    """Block direct sum of two tables with the same delta."""
    if first.delta != second.delta:
        raise ValueError("direct summands must share the same delta")
    n1, n2 = first.dim, second.dim
    dim = n1 + n2
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for offset, summand in ((0, first), (n1, second)):
        basis = [summand.basis_element(i) for i in range(summand.dim)]
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                product = bracket(summand, bi, bj)
                brackets[(offset + i, offset + j)] = {
                    offset + k: c for k, c in enumerate(product)
                }
    names = tuple(f"{name}{suffixes[0]}" for name in first.basis_names) + tuple(
        f"{name}{suffixes[1]}" for name in second.basis_names
    )
    return StructureTable.from_brackets(dim, first.delta, brackets, names)


def sl2x2() -> tuple[StructureTable, CartanCandidate]:
    """Two commuting copies of sl2; Cartan span{h1, h2}."""
    one, _ = sl2()
    table = direct_sum(one, one)
    cartan = CartanCandidate.from_elements(
        6,
        [
            (F0, F1, F0, F0, F0, F0),
            (F0, F0, F0, F0, F1, F0),
        ],
    )
    return table, cartan


def _mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _mat_unit(i: int, j: int):
    return _mat([[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)])


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _commutator(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def sl3() -> tuple[StructureTable, CartanCandidate]:
    """Trace-zero 3x3 matrices, dim 8, generated from matrix units.

    Basis order (e12, e13, e23, h1, h2, e21, e31, e32) with
    h1 = E11 - E22 and h2 = E22 - E33; Cartan span{h1, h2}.
    """
    basis_mats = [
        _mat_unit(0, 1),
        _mat_unit(0, 2),
        _mat_unit(1, 2),
        _mat_sub(_mat_unit(0, 0), _mat_unit(1, 1)),
        _mat_sub(_mat_unit(1, 1), _mat_unit(2, 2)),
        _mat_unit(1, 0),
        _mat_unit(2, 0),
        _mat_unit(2, 1),
    ]
    names = ("e12", "e13", "e23", "h1", "h2", "e21", "e31", "e32")
    off_diag = {(0, 1): 0, (0, 2): 1, (1, 2): 2, (1, 0): 5, (2, 0): 6, (2, 1): 7}

    def coords(m) -> tuple[Fraction, ...]:
        d1, d2, d3 = m[0][0], m[1][1], m[2][2]
        if d1 + d2 + d3 != 0:
            raise ValueError("matrix is not trace-zero")
        out = [F0] * 8
        for (r, c), idx in off_diag.items():
            out[idx] = m[r][c]
        out[3] = d1
        out[4] = -d3
        return tuple(out)

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(8):
        for j in range(8):
            entry = {
                k: c
                for k, c in enumerate(coords(_commutator(basis_mats[i], basis_mats[j])))
                if c != 0
            }
            if entry:
                brackets[(i, j)] = entry
    table = StructureTable.from_brackets(8, 1, brackets, names)
    cartan = CartanCandidate.from_elements(
        8,
        [
            (F0, F0, F0, F1, F0, F0, F0, F0),
            (F0, F0, F0, F0, F1, F0, F0, F0),
        ],
    )
    return table, cartan


def abelian(dim: int, delta: int = 1) -> tuple[StructureTable, CartanCandidate]:
    """Zero product; the whole space is its own Cartan subalgebra."""
    table = StructureTable.from_brackets(dim, delta, {})
    cartan = CartanCandidate(subspace=Subspace.full(dim))
    return table, cartan


def delta_minus_dim2() -> tuple[StructureTable, CartanCandidate]:
    """delta = -1 table with [a, a] = b; candidate Cartan span{b}.

    Passes the axioms, but the joint 0-eigenspace of the candidate is the
    whole space, so the candidate fails the decomposition requirement.
    """
    table = StructureTable.from_brackets(
        2, -1, {(0, 0): {1: F1}}, basis_names=("a", "b")
    )
    cartan = CartanCandidate.from_elements(2, [(F0, F1)])
    return table, cartan


def delta_minus_abelian2() -> tuple[StructureTable, CartanCandidate]:
    """Two-dimensional zero product with delta = -1; Cartan is everything."""
    return abelian(2, delta=-1)


def nonsymmetric_dim2() -> tuple[StructureTable, CartanCandidate]:
    """[h, e] = e on basis (h, e); its only root has no negative."""
    table = StructureTable.from_brackets(
        2,
        1,
        {(0, 1): {1: F1}, (1, 0): {1: -F1}},
        basis_names=("h", "e"),
    )
    cartan = CartanCandidate.from_elements(2, [(F1, F0)])
    return table, cartan


def corpus() -> dict[str, tuple[StructureTable, CartanCandidate]]:
    """All bundled algebras keyed by their corpus name."""
    return {
        "sl2": sl2(),
        "sl2x2": sl2x2(),
        "sl3": sl3(),
        "gl2": gl2(),
        "delta_minus_dim2": delta_minus_dim2(),
        "delta_minus_abelian2": delta_minus_abelian2(),
        "nonsymmetric_dim2": nonsymmetric_dim2(),
        "sl2_broken": sl2_broken(),
    }
