import contextlib
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jla import samples
from jla.algebra import StructureTable, bracket
from jla.cli import main as cli_main
from jla.linalg import Matrix, Subspace, rref
from jla.roots import CartanCandidate, root_decomposition

_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): one acceptance criterion"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call":
        marker = item.get_closest_marker("acceptance")
        if marker:
            num, title = marker.args
            _acceptance_results[num] = (title, report.passed)
    return report


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_results):
        title, ok = _acceptance_results[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {status} - {title}")

DATA_DIR = Path(__file__).parent / "data"
BENCH_DIR = Path(__file__).parent.parent / "bench"
GOLDEN_DIR = Path(__file__).parent / "golden"

# Algebras whose bundled Cartan candidate yields a valid decomposition.
DECOMPOSABLE = ("sl2", "sl2x2", "sl3", "gl2", "delta_minus_abelian2")


@pytest.fixture(scope="session")
def corpus():
    return samples.corpus()


@pytest.fixture(scope="session")
def decomps(corpus):
    out = {}
    for name in DECOMPOSABLE + ("nonsymmetric_dim2",):
        table, cartan = corpus[name]
        out[name] = root_decomposition(table, cartan)
    return out


def run_cli(*argv):
    """Run the CLI in-process, returning (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="session")
def classical():
    """bench/algebras.py: generated classical algebras and seeded basis changes."""
    spec = importlib.util.spec_from_file_location(
        "bench_algebras", BENCH_DIR / "algebras.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def rebased(table, cartan, rng):
    """The same algebra and Cartan candidate in a random rational basis.

    The new basis is b'_i = sum_j p_ij b_j for P = L D U, with unit
    triangular L and U and diagonal D drawn as small signed fractions.
    """
    n = table.dim

    def small():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    lower = [[Fraction(i == j) if j >= i else small() for j in range(n)] for i in range(n)]
    upper = [[Fraction(i == j) if j <= i else small() for j in range(n)] for i in range(n)]
    diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
    p = [
        [sum(lower[i][t] * diag[t] * upper[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    augmented = [row + [Fraction(i == j) for j in range(n)] for i, row in enumerate(p)]
    p_inv = [row[n:] for row in rref(Matrix.from_rows(augmented))[0].entries]

    def to_new(x):
        return tuple(sum(x[a] * p_inv[a][k] for a in range(n)) for k in range(n))

    brackets = {
        (i, j): dict(enumerate(to_new(bracket(table, tuple(p[i]), tuple(p[j])))))
        for i in range(n)
        for j in range(n)
    }
    new_table = StructureTable.from_brackets(n, table.delta, brackets, table.basis_names)
    if cartan is None:
        return new_table, None
    rows = [to_new(h) for h in cartan.ordered_basis]
    return new_table, CartanCandidate(Subspace.span(n, rows))
