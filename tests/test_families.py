"""Closed-form and change-of-basis checks on whole families of algebras.

The generators in bench/algebras.py build split classical Lie algebras from
matrix units, so their root counts, connection classes and verdicts are
known in closed form.  A rational change of basis must leave every verdict
as it was; rescaled and dense bases must do so without an eigenvalue search
that grows with the size of the coefficients.
"""

import json
import random

import pytest

import jla.linalg
from jla import samples
from jla.algfile import dumps

from conftest import rebased, run_cli

COMMANDS = ("check-axioms", "roots", "classes", "decompose", "simplicity")


def _write(tmp_path, name, text):
    path = tmp_path / f"{name}.alg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _report(path, command, *options):
    code, out = run_cli(command, path, *options)
    return code, json.loads(out)


def _summary(command, code, report):
    """The facts of a report that a change of basis must not change."""
    out = {"code": code, "status": report["status"]}
    result = report.get("result", {})
    if "failed_stage" in result:
        out["failed_stage"] = result["failed_stage"]
        return out
    if command == "check-axioms":
        out["passed"] = result["passed"]
    elif command == "roots":
        out["root_count"] = result["roots"]["root_count"]
        out["symmetric"] = result["roots"]["symmetric"]
    elif command == "classes":
        out["class_count"] = result["classes"]["count"]
    elif command == "decompose":
        parts = result["decomposition"]
        out["component_dims"] = sorted(c["total"]["dim"] for c in parts["components"])
    elif command == "simplicity":
        out["verdict"] = result["simplicity"]["verdict"]
        out["class_count"] = result["simplicity"]["class_count"]
    return out


def _summaries(path, *options):
    return {
        command: _summary(command, *_report(path, command, *options))
        for command in COMMANDS
    }


# --- closed forms ------------------------------------------------------------------


def _classical_root_count(family, rank):
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    return 2 * rank * (rank - 1)


# Every split simple algebra of dimension 15 or less, by Cartan type and rank,
# as the matrix algebra that realises it.
CLASSICAL = [
    ("A", 1, "sl", 2),
    ("A", 2, "sl", 3),
    ("A", 3, "sl", 4),
    ("B", 1, "so", 3),
    ("B", 2, "so", 5),
    ("C", 1, "sp", 2),
    ("C", 2, "sp", 4),
    ("D", 2, "so", 4),
    ("D", 3, "so", 6),
]


@pytest.mark.parametrize("family, rank, kind, size", CLASSICAL)
def test_classical_root_counts(classical, tmp_path, family, rank, kind, size):
    alg = classical.simple(kind, size)
    assert alg.dim <= 15
    code, report = _report(_write(tmp_path, alg.name, classical.alg_text(alg)), "roots")
    assert code == 0
    assert report["result"]["roots"]["root_count"] == _classical_root_count(family, rank)
    assert report["result"]["roots"]["symmetric"] is True


@pytest.mark.parametrize("a, b", [(2, 2), (2, 3)])
def test_direct_sum_of_two_sl_has_two_classes(classical, tmp_path, a, b):
    alg = classical.direct_sum(("sl", a), ("sl", b))
    path = _write(tmp_path, alg.name, classical.alg_text(alg))
    summaries = _summaries(path)
    assert summaries["classes"]["class_count"] == 2
    assert summaries["decompose"]["component_dims"] == sorted([a * a - 1, b * b - 1])
    assert summaries["simplicity"]["verdict"] == "not_simple"


@pytest.mark.parametrize("n", [2, 3])
def test_gl_misses_the_simplicity_hypotheses(classical, tmp_path, n):
    alg = classical.gl(n)
    path = _write(tmp_path, alg.name, classical.alg_text(alg))
    summary = _summary("simplicity", *_report(path, "simplicity"))
    assert summary["verdict"] == "hypotheses_unmet"


# --- rational change of basis ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(samples.corpus()))
def test_rational_change_of_basis_keeps_every_verdict(tmp_path, name):
    """The oracle is off: its seeds are basis lines, so it is not
    basis-independent, while every exact stage must be."""
    table, cartan = samples.corpus()[name]
    rng = random.Random(name)
    original = _summaries(_write(tmp_path, name, dumps(table, cartan)), "--oracle-cap", "0")
    for attempt in range(2):
        path = _write(
            tmp_path, f"{name}_rebased{attempt}", dumps(*rebased(table, cartan, rng))
        )
        assert _summaries(path, "--oracle-cap", "0") == original


# --- coefficient size ----------------------------------------------------------------


def _counting_evaluations(monkeypatch):
    counter = {"evaluations": 0}
    original = jla.linalg._poly_eval

    def counted(coeffs, x, m):
        counter["evaluations"] += 1
        return original(coeffs, x, m)

    monkeypatch.setattr(jla.linalg, "_poly_eval", counted)
    return counter


# Modular evaluations in one ``roots`` command, about three times the 152
# and 1,006 measured.  A divisor search would try on the order of 2^32
# candidates on the 64-bit sl3, and a Newton lift that gains one p-adic
# digit per step instead of doubling them needs more than the bound.
@pytest.mark.parametrize("variant, bound", [("sl3_bits64", 500), ("sl4_mixed", 3_000)])
def test_large_coefficients_keep_the_roots_summary(
    classical, tmp_path, monkeypatch, variant, bound
):
    if variant == "sl3_bits64":
        plain = classical.simple("sl", 3)
        changed = classical.rescaled(plain, random.Random(7), 64)
    else:
        plain = classical.simple("sl", 4)
        changed = classical.mixed(plain, random.Random(1))
    plain_path = _write(tmp_path, plain.name, classical.alg_text(plain))
    changed_path = _write(tmp_path, changed.name, classical.alg_text(changed))
    expected = _summary("roots", *_report(plain_path, "roots"))
    counter = _counting_evaluations(monkeypatch)
    got = _summary("roots", *_report(changed_path, "roots"))
    assert got == expected
    assert got["root_count"] == plain.facts.root_count
    assert 0 < counter["evaluations"] <= bound
