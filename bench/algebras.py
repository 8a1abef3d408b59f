"""Benchmark inputs: classical Lie algebras built from matrix units.

Every generator returns an ``Algebra``: named basis matrices, which of them
span the Cartan subalgebra, and the closed-form facts the CLI reports must
show for it.  The structure constants are the commutators of the basis
matrices read back in basis coordinates, and every read-back is verified by
reconstructing the matrix, so the tables satisfy the Lie axioms by
construction.  ``signed``, ``rescaled`` and ``mixed`` rewrite a table in a
seeded new basis; the facts are invariant under them.

This module uses no part of ``jla``: the program under test only ever sees
the ``.alg`` text that ``alg_text`` writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

SIMPLE = "simple"
NOT_SIMPLE = "not_simple"
HYPOTHESES_UNMET = "hypotheses_unmet"

# A sparse matrix: {(row, col): nonzero Fraction}.
SparseMatrix = dict


@dataclass(frozen=True)
class Facts:
    """What the reports must say, from the classification of the algebra.

    ``component_dims`` are the dimensions of the simple summands, which are
    also the connection-class ideals; ``center_dim`` is 0 for semisimple
    algebras and 1 for gl_n.
    """

    dim: int
    root_count: int
    component_dims: tuple[int, ...]
    center_dim: int

    @property
    def class_count(self) -> int:
        return len(self.component_dims)

    @property
    def verdict(self) -> str:
        if self.center_dim:
            return HYPOTHESES_UNMET
        return SIMPLE if self.class_count == 1 else NOT_SIMPLE


@dataclass(frozen=True)
class Algebra:
    """A Lie algebra given by structure constants, plus its expected facts.

    ``brackets`` maps (i, j) to the nonzero coordinates {k: c} of
    [b_i, b_j]; ``cartan`` lists coordinate rows spanning the Cartan
    candidate.
    """

    name: str
    basis_names: tuple[str, ...]
    brackets: dict
    cartan: tuple[tuple[Fraction, ...], ...]
    facts: Facts

    @property
    def dim(self) -> int:
        return len(self.basis_names)


# --- sparse matrices -------------------------------------------------------


def _unit(i: int, j: int) -> SparseMatrix:
    return {(i, j): Fraction(1)}


def _combine(*terms) -> SparseMatrix:
    """Sum of coefficient * matrix terms, zero entries dropped."""
    out: SparseMatrix = {}
    for coeff, m in terms:
        for pos, x in m.items():
            out[pos] = out.get(pos, 0) + coeff * x
    return {pos: x for pos, x in out.items() if x != 0}


def _mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    by_row: dict[int, list] = {}
    for (k, j), y in b.items():
        by_row.setdefault(k, []).append((j, y))
    out: SparseMatrix = {}
    for (i, k), x in a.items():
        for j, y in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + x * y
    return {pos: x for pos, x in out.items() if x != 0}


def _commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    return _combine((1, _mul(a, b)), (-1, _mul(b, a)))


def _solve(columns, target):
    """Exact solution c of sum_j c_j columns[j] = target, or None."""
    rows = [list(col_entries) + [t] for col_entries, t in zip(zip(*columns), target)]
    width = len(columns)
    pivots = []
    r = 0
    for c in range(width):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None
    out = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        out[c] = rows[i][-1]
    return out


def _inverse(m):
    """Exact inverse of a square matrix given as a list of rows."""
    n = len(m)
    columns = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    inv_cols = []
    for k in range(n):
        col = _solve(columns, [Fraction(int(i == k)) for i in range(n)])
        if col is None:
            raise ValueError("matrix is singular")
        inv_cols.append(col)
    return [[inv_cols[j][i] for j in range(n)] for i in range(n)]


# --- matrix Lie algebras ---------------------------------------------------


@dataclass(frozen=True)
class _MatrixAlgebra:
    """Basis matrices; each off-diagonal one owns a position no other touches."""

    size: int
    names: tuple[str, ...]
    mats: tuple[SparseMatrix, ...]
    cartan: tuple[int, ...]

    def shifted(self, by: int, suffix: str) -> _MatrixAlgebra:
        return _MatrixAlgebra(
            self.size,
            tuple(f"{name}{suffix}" for name in self.names),
            tuple({(r + by, c + by): x for (r, c), x in m.items()} for m in self.mats),
            self.cartan,
        )


def _sl_basis(n: int, with_center: bool) -> _MatrixAlgebra:
    names, mats = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                names.append(f"e{i + 1}{j + 1}")
                mats.append(_unit(i, j))
    cartan = []
    for i in range(n - 1):
        cartan.append(len(mats))
        names.append(f"h{i + 1}")
        mats.append(_combine((1, _unit(i, i)), (-1, _unit(i + 1, i + 1))))
    if with_center:
        cartan.append(len(mats))
        names.append("z")
        mats.append({(i, i): Fraction(1) for i in range(n)})
    return _MatrixAlgebra(n, tuple(names), tuple(mats), tuple(cartan))


def _form_basis(size: int, symplectic: bool) -> _MatrixAlgebra:
    """{X : X^T J + J X = 0} for the antidiagonal form J of the given type.

    J[i][size-1-i] = s_i with s_i = 1 (orthogonal) or s_i = +1 / -1 for
    the first / second half (symplectic).  The condition pairs entry (i, j)
    with entry (j', i'), where i' = size-1-i, as X[i][j] = sign * X[j'][i']
    with sign = -s_{j'} s_{i'}; each orbit gives one basis element, and a
    self-paired entry survives only when its sign is +1.
    """
    half = size // 2

    def s(i):
        return -1 if symplectic and i >= half else 1

    names, mats, cartan, seen = [], [], [], set()
    for i in range(size):
        for j in range(size):
            if (i, j) in seen:
                continue
            partner = (size - 1 - j, size - 1 - i)
            sign = -s(partner[0]) * s(partner[1])
            seen.update({(i, j), partner})
            if partner == (i, j):
                if sign != 1:
                    continue
                mat = _unit(i, j)
            else:
                mat = _combine((1, _unit(i, j)), (sign, _unit(*partner)))
            if i == j:
                cartan.append(len(mats))
                names.append(f"h{i + 1}")
            else:
                names.append(f"x{i + 1}_{j + 1}")
            mats.append(mat)
    return _MatrixAlgebra(size, tuple(names), tuple(mats), tuple(cartan))


def _direct_sum(parts) -> _MatrixAlgebra:
    names, mats, cartan, offset = [], [], [], 0
    for k, part in enumerate(parts):
        moved = part.shifted(offset, f"_{k + 1}")
        cartan.extend(len(mats) + c for c in part.cartan)
        names.extend(moved.names)
        mats.extend(moved.mats)
        offset += part.size
    return _MatrixAlgebra(offset, tuple(names), tuple(mats), tuple(cartan))


def _coordinates(alg: _MatrixAlgebra, owned: dict, m: SparseMatrix) -> dict:
    """Coordinates {k: c} of ``m`` on the basis, verified by reconstruction.

    An off-diagonal basis matrix is read off at a position it alone
    touches (``owned``); the diagonal part is solved on the Cartan matrices.
    """
    coords = {owned[pos]: x / alg.mats[owned[pos]][pos] for pos, x in m.items() if pos in owned}
    diag_target = [m.get((i, i), Fraction(0)) for i in range(alg.size)]
    if any(diag_target):
        columns = [
            tuple(alg.mats[k].get((i, i), Fraction(0)) for i in range(alg.size))
            for k in alg.cartan
        ]
        solution = _solve(columns, diag_target)
        if solution is None:
            raise ValueError("diagonal part is outside the span of the Cartan")
        coords.update((k, c) for k, c in zip(alg.cartan, solution) if c != 0)
    if _combine(*((c, alg.mats[k]) for k, c in coords.items())) != m:
        raise ValueError("commutator is outside the span of the basis")
    return coords


def _build(name: str, alg: _MatrixAlgebra, facts: Facts) -> Algebra:
    """Structure constants of ``alg``, checked against the closed-form facts.

    The roots are read from the matrices too: every non-Cartan basis matrix
    must be a joint eigenvector of the Cartan matrices, and the distinct
    nonzero weights must number ``facts.root_count``.
    """
    if len(alg.names) != facts.dim:
        raise ValueError(f"{name}: dimension {len(alg.names)}, expected {facts.dim}")
    owned = {}
    for k, m in enumerate(alg.mats):
        if k not in alg.cartan:
            owned[min(m)] = k
    brackets = {}
    for i, a in enumerate(alg.mats):
        for j, b in enumerate(alg.mats):
            coords = _coordinates(alg, owned, _commutator(a, b))
            if coords:
                brackets[(i, j)] = coords
    weights = set()
    for k in owned.values():
        weight = []
        for h in alg.cartan:
            coords = brackets.get((h, k), {})
            if set(coords) - {k}:
                raise ValueError(f"{name}: {alg.names[k]} is not a weight vector")
            weight.append(coords.get(k, Fraction(0)))
        weights.add(tuple(weight))
    if len(weights) != len(owned) or facts.root_count != len(owned) or not all(
        any(w) for w in weights
    ):
        raise ValueError(
            f"{name}: {len(weights)} distinct roots on {len(owned)} root "
            f"vectors, expected {facts.root_count}"
        )
    cartan = tuple(
        tuple(Fraction(int(k == h)) for k in range(len(alg.names))) for h in alg.cartan
    )
    return Algebra(name, alg.names, brackets, cartan, facts)


def _simple(kind: str, size: int) -> tuple[_MatrixAlgebra, Facts]:
    """A split simple algebra of ``size`` x ``size`` matrices.

    Closed forms: sl_n = A_{n-1} has n(n-1) roots; so_{2n+1} = B_n and
    sp_{2n} = C_n have 2n^2; so_{2n} = D_n has 2n(n-1).
    """
    n = size // 2
    if kind == "sl":
        dim, roots, basis = size * size - 1, size * (size - 1), _sl_basis(size, False)
    elif kind == "so":
        dim = size * (size - 1) // 2
        roots = 2 * n * n if size % 2 else 2 * n * (n - 1)
        basis = _form_basis(size, False)
    elif kind == "sp" and size % 2 == 0:
        dim, roots, basis = n * (2 * n + 1), 2 * n * n, _form_basis(size, True)
    else:
        raise ValueError(f"no split simple algebra {kind}{size}")
    return basis, Facts(dim, roots, (dim,), 0)


def simple(kind: str, size: int) -> Algebra:
    """sl_n, so_n or sp_n in its standard matrix-unit basis."""
    return _build(f"{kind}{size}", *_simple(kind, size))


def gl(n: int) -> Algebra:
    """gl_n: the sl_n basis plus the identity ``z``, which spans the center."""
    return _build(f"gl{n}", _sl_basis(n, True), Facts(n * n, n * (n - 1), (n * n - 1,), 1))


def direct_sum(*parts: tuple[str, int]) -> Algebra:
    """Block-diagonal sum of simple algebras, e.g. direct_sum(("sl", 2), ("sl", 3))."""
    bases, facts = zip(*(_simple(kind, size) for kind, size in parts))
    total = Facts(
        sum(f.dim for f in facts),
        sum(f.root_count for f in facts),
        tuple(sorted(f.dim for f in facts)),
        0,
    )
    name = "_".join(f"{kind}{size}" for kind, size in parts)
    return _build(name, _direct_sum(bases), total)


def alg_text(alg: Algebra) -> str:
    """The algebra as a ``.alg`` file, records in basis order."""
    names = alg.basis_names
    records = [
        {
            "left": names[i],
            "right": names[j],
            "result": [
                {"name": names[k], "coeff": str(c)} for k, c in sorted(entry.items())
            ],
        }
        for (i, j), entry in sorted(alg.brackets.items())
    ]
    data = {
        "dim": alg.dim,
        "delta": 1,
        "basis": list(names),
        "brackets": records,
        "cartan": [
            {names[k]: str(c) for k, c in enumerate(row) if c != 0} for row in alg.cartan
        ],
    }
    return json.dumps(data, indent=2) + "\n"


# --- seeded changes of basis -----------------------------------------------


def signed(alg: Algebra, rng) -> Algebra:
    """New basis e_i b_i with seeded signs e_i.

    Every coefficient keeps its magnitude, so the program does the same
    arithmetic on every seed while reading different bytes and reporting
    differently signed roots.
    """
    e = [rng.choice((1, -1)) for _ in alg.basis_names]
    brackets = {
        (i, j): {k: c * e[i] * e[j] * e[k] for k, c in entry.items()}
        for (i, j), entry in alg.brackets.items()
    }
    cartan = tuple(tuple(x * e[k] for k, x in enumerate(row)) for row in alg.cartan)
    return replace(alg, brackets=brackets, cartan=cartan)


def rescaled(alg: Algebra, rng, bits: int) -> Algebra:
    """Cartan basis vectors h multiplied by seeded factors s near 2^bits.

    [h', x] = s alpha(h) x, so the table stays as sparse as before while the
    eigenvalues of each ad(h') grow by its factor s.  A factor is 2^bits
    plus a seeded offset below 2^(bits/2): its factorisation varies with the
    seed, its size, and so the work, does not.  Needs unit Cartan rows.
    """
    cartan = [next(k for k, x in enumerate(row) if x) for row in alg.cartan]
    if any(alg.cartan[n][k] != 1 for n, k in enumerate(cartan)):
        raise ValueError("rescaling needs Cartan rows that are basis vectors")
    s = {h: (1 << bits) + rng.randrange(1 << (bits // 2)) for h in cartan}
    brackets = {
        (i, j): {
            k: c * s.get(i, 1) * s.get(j, 1) / s.get(k, 1) for k, c in entry.items()
        }
        for (i, j), entry in alg.brackets.items()
    }
    return replace(alg, name=f"{alg.name}_bits{bits}", brackets=brackets)


def mixed(alg: Algebra, rng) -> Algebra:
    """New basis b'_i = sum_j P_ij b_j with P = L U dense and unimodular.

    L and U are unit triangular with random signs off the diagonal, so P and
    its inverse are integer matrices; root values stay as they were while the
    table becomes dense and elimination meets growing fractions.  Pass a
    fixed-seed ``rng`` to make the same arithmetic on every run.
    """
    n = alg.dim

    def unit_triangular(below: bool):
        return [
            [1 if i == j else rng.choice((-1, 1)) if (j < i) == below else 0 for j in range(n)]
            for i in range(n)
        ]

    lower, upper = unit_triangular(True), unit_triangular(False)
    p = [
        [Fraction(sum(lower[i][t] * upper[t][j] for t in range(n))) for j in range(n)]
        for i in range(n)
    ]
    p_inv = _inverse(p)

    def to_new(x):
        return [sum(x[a] * p_inv[a][k] for a in range(n) if x[a]) for k in range(n)]

    brackets = {}
    for i in range(n):
        for j in range(n):
            old = [Fraction(0)] * n
            for (a, b), entry in alg.brackets.items():
                f = p[i][a] * p[j][b]
                if f:
                    for k, c in entry.items():
                        old[k] += f * c
            new = {k: c for k, c in enumerate(to_new(old)) if c != 0}
            if new:
                brackets[(i, j)] = new
    cartan = tuple(tuple(to_new(list(row))) for row in alg.cartan)
    return replace(alg, name=f"{alg.name}_mixed", brackets=brackets, cartan=cartan)
