"""Command-line front end producing deterministic machine-readable reports.

Every command loads an algebra definition file, runs its pipeline stage
(implying all prerequisite stages, failing fast on the first violated
one) and writes one report to standard output.  Exit codes: 0 when all
checks passed, 1 when a check failed or a verdict came out negative, 2 on
input errors.  Reports are byte-identical across runs for identical
input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .algebra import (
    DEFAULT_ORACLE_CAP,
    OracleCapExceeded,
    check_axioms,
    minimal_ideals_oracle,
)
from .algfile import AlgebraFileError, loads as load_algebra_text
from .connections import connection_classes, decompose
from .errors import PreconditionError, VerificationError
from .linalg import format_rational
from .roots import is_symmetric, verify_splitting_cartan
from .simplicity import SIMPLE, simplicity_criterion, structure_theorem

SCHEMA_VERSION = "1"

COMMANDS = (
    "check-axioms",
    "verify-cartan",
    "roots",
    "classes",
    "decompose",
    "simplicity",
    "structure",
    "oracle",
)

ORACLE_NOTE = (
    "heuristic enumeration: ideal closures of basis lines and pairwise-sum "
    "lines; complete for the bundled corpus, not a general decision procedure"
)


class _StageFailure(Exception):
    """A prerequisite stage failed; carries the partial report payload."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("failed_stage", "stage failure"))
        self.payload = payload


def _vec(v) -> list[str]:
    return [format_rational(x) for x in v]


def _subspace(s) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [_vec(row) for row in s.basis],
    }


def _axioms_payload(report, table) -> dict:
    names = table.basis_names
    return {
        "passed": report.passed,
        "dim": report.dim,
        "delta": report.delta,
        "antisymmetry_violations": [
            {"left": names[i], "right": names[j], "residual": _vec(r)}
            for i, j, r in report.antisymmetry_violations
        ],
        "jacobi_violations": [
            {"x": names[i], "y": names[j], "z": names[k], "residual": _vec(r)}
            for i, j, k, r in report.jacobi_violations
        ],
    }


def _cartan_payload(report) -> dict:
    return {
        "abelian_ok": report.abelian_ok,
        "abelian_violations": [list(pair) for pair in report.abelian_violations],
        "diagonalizable_ok": report.diagonalizable_ok,
        "nondiagonalizable_indices": list(report.nondiagonalizable_indices),
        "spans_ok": report.spans_ok,
        "zero_eigenspace_is_cartan": report.zero_space_is_cartan,
        "centralizer": _subspace(report.centralizer_space),
        "maximality": report.maximality,
        "maximality_witness": (
            None
            if report.maximality_witness is None
            else _vec(report.maximality_witness)
        ),
        "decomposition_ok": report.decomposition_ok,
        "passed": report.passed,
    }


def _roots_payload(decomp) -> dict:
    return {
        "cartan_dim": decomp.cartan.dim,
        "root_count": len(decomp.root_spaces),
        "symmetric": is_symmetric(decomp),
        "roots": [
            {"root": _vec(alpha), "space": _subspace(space)}
            for alpha, space in decomp.root_spaces
        ],
        "zero_space": _subspace(decomp.zero_space),
    }


def _classes_payload(classes) -> dict:
    return {
        "count": len(classes),
        "classes": [
            {
                "representative": _vec(cls.representative),
                "members": [_vec(m) for m in cls.members],
            }
            for cls in classes
        ],
    }


def _decompose_payload(report) -> dict:
    return {
        "complement_u": _subspace(report.complement_u),
        "components": [
            {
                "representative": _vec(c.connection_class.representative),
                "h_part": _subspace(c.h_part),
                "v_part": _subspace(c.v_part),
                "total": _subspace(c.total),
            }
            for c in report.components
        ],
        "orthogonality_ok": report.orthogonality_ok,
        "spans_l": report.spans_l,
        "center_zero": report.center_zero,
        "derived_full": report.derived_full,
        "direct_sum": report.direct_sum,
    }


def _verdict_payload(verdict) -> dict:
    return {
        "hypotheses": {
            "root_multiplicative": verdict.hypotheses.root_multiplicative,
            "center_zero": verdict.hypotheses.center_zero,
            "derived_full": verdict.hypotheses.derived_full,
            "all_root_spaces_1dim": verdict.hypotheses.all_root_spaces_1dim,
            "roots_symmetric": verdict.hypotheses.roots_symmetric,
        },
        "all_connected": verdict.all_connected,
        "class_count": verdict.class_count,
        "verdict": verdict.verdict,
        "oracle_checked": verdict.oracle_checked,
    }


def _structure_payload(report) -> dict:
    return {
        "decomposition": _decompose_payload(report.decomposition),
        "components": [
            {
                "total": _subspace(c.component.total),
                "dim": c.table.dim,
                "roots": [_vec(alpha) for alpha in c.roots],
                "verdict": _verdict_payload(c.verdict),
            }
            for c in report.components
        ],
        "sum_direct": report.sum_direct,
        "oracle_checked": report.oracle_checked,
        "oracle_agrees": report.oracle_agrees,
    }


def _require_axioms(table):
    report = check_axioms(table)
    if not report.passed:
        raise _StageFailure(
            {"failed_stage": "axioms", "axioms": _axioms_payload(report, table)}
        )
    return report


def _require_cartan(cartan):
    if cartan is None:
        raise AlgebraFileError(
            "algebra.cartan: this command needs a candidate Cartan subspace"
        )
    return cartan


def _require_decomposition(table, cartan):
    report = verify_splitting_cartan(table, cartan)
    if report.decomposition is None:
        raise _StageFailure(
            {"failed_stage": "cartan", "cartan": _cartan_payload(report)}
        )
    return report.decomposition


def _require_symmetric(decomp):
    if not is_symmetric(decomp):
        raise _StageFailure(
            {
                "failed_stage": "symmetry",
                "roots": _roots_payload(decomp),
            }
        )
    return decomp


def _run_command(command, table, cartan, oracle_cap):
    """Return (payload, exit_code) for one command."""
    if command == "check-axioms":
        report = check_axioms(table)
        return _axioms_payload(report, table), 0 if report.passed else 1

    if command == "oracle":
        ideals = minimal_ideals_oracle(table, oracle_cap)
        payload = {
            "cap": oracle_cap,
            "count": len(ideals),
            "minimal_ideals": [_subspace(s) for s in ideals],
            "method": ORACLE_NOTE,
        }
        return payload, 0

    _require_axioms(table)
    cartan = _require_cartan(cartan)

    if command == "verify-cartan":
        report = verify_splitting_cartan(table, cartan)
        return {"cartan": _cartan_payload(report)}, 0 if report.passed else 1

    decomp = _require_decomposition(table, cartan)

    if command == "roots":
        return {"roots": _roots_payload(decomp)}, 0

    _require_symmetric(decomp)

    if command == "classes":
        classes = connection_classes(decomp)
        return {"classes": _classes_payload(classes)}, 0

    if command == "decompose":
        report = decompose(table, decomp)
        payload = {"decomposition": _decompose_payload(report)}
        ok = report.spans_l and report.orthogonality_ok
        return payload, 0 if ok else 1

    if command == "simplicity":
        verdict = simplicity_criterion(table, decomp, oracle_cap)
        payload = {"simplicity": _verdict_payload(verdict)}
        return payload, 0 if verdict.verdict == SIMPLE else 1

    if command == "structure":
        report = structure_theorem(table, decomp, oracle_cap)
        return {"structure": _structure_payload(report)}, 0

    raise ValueError(f"unknown command: {command}")


def _flatten(value, prefix, lines):
    if isinstance(value, dict):
        if not value:
            lines.append(f"{prefix}: (empty)")
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else key, lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}: (none)")
        elif all(isinstance(x, str) for x in value):
            lines.append(f"{prefix}: {' '.join(value)}")
        else:
            for i, item in enumerate(value):
                _flatten(item, f"{prefix}[{i}]", lines)
    elif isinstance(value, bool):
        lines.append(f"{prefix}: {'true' if value else 'false'}")
    elif value is None:
        lines.append(f"{prefix}: null")
    else:
        lines.append(f"{prefix}: {value}")


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines: list[str] = []
    _flatten(report, "", lines)
    return "\n".join(lines) + "\n"


def _oracle_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jla",
        description=(
            "Exact root decompositions, connection classes and simplicity "
            "checks for algebras given by structure constants"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("path", help="algebra definition file (JSON)")
        cmd.add_argument(
            "--format", choices=("json", "text"), default="json", dest="fmt"
        )
        cmd.add_argument(
            "--oracle-cap",
            type=_oracle_cap,
            default=DEFAULT_ORACLE_CAP,
            help="dimension cap for the brute-force ideal enumeration",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
    }
    code = 0
    try:
        try:
            raw = Path(args.path).read_bytes()
        except OSError as exc:
            raise AlgebraFileError(f"cannot read {args.path}: {exc.strerror}") from None
        report["input_sha256"] = hashlib.sha256(raw).hexdigest()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise AlgebraFileError(f"{args.path} is not valid UTF-8") from None
        table, cartan = load_algebra_text(text)
        payload, code = _run_command(args.command, table, cartan, args.oracle_cap)
        report["status"] = "pass" if code == 0 else "fail"
        report["result"] = payload
    except _StageFailure as failure:
        report["status"] = "fail"
        report["result"] = failure.payload
        code = 1
    except (PreconditionError, VerificationError) as exc:
        report["status"] = "fail"
        report["result"] = {"error": str(exc)}
        code = 1
    except (AlgebraFileError, OracleCapExceeded) as exc:
        report["status"] = "error"
        report["result"] = {"error": str(exc)}
        report.setdefault("input_sha256", None)
        code = 2
    sys.stdout.write(render(report, getattr(args, "fmt", "json")))
    return code


if __name__ == "__main__":
    sys.exit(main())
