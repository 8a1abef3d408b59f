"""Loading and saving algebra definition files.

The on-disk format is plain JSON carrying exact rationals as strings:

    {
      "dim": 3,
      "delta": 1,
      "basis": ["e", "h", "f"],
      "brackets": [
        {"left": "h", "right": "e", "result": [{"name": "e", "coeff": "2"}]},
        ...
      ],
      "cartan": [{"h": "1"}]
    }

The file lists the FULL product table: no antisymmetry completion is ever
applied, because with delta = -1 the product is symmetric and diagonal
entries like [a, a] can be nonzero.  Unlisted pairs are zero, and zero
terms and empty results are dropped on load.  "cartan"
is optional and names a spanning set for the candidate Cartan subspace.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .algebra import StructureTable, bracket
from .linalg import format_rational, parse_rational, zero_vector
from .roots import CartanCandidate


class AlgebraFileError(ValueError):
    """A definition file failed to parse or validate; message says where."""


def _fail(where: str, message: str) -> None:
    raise AlgebraFileError(f"{where}: {message}")


def _require(obj, key, kind, where):
    if key not in obj:
        _fail(where, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        _fail(f"{where}.{key}", f"expected {kind.__name__}")
    return value


def _parse_coeff(text, where) -> Fraction:
    if not isinstance(text, str):
        _fail(where, "coefficients must be rational strings like \"-3/2\"")
    try:
        return parse_rational(text)
    except ValueError as exc:
        _fail(where, str(exc))


def load_dict(data, where: str = "algebra") -> tuple[StructureTable, CartanCandidate | None]:
    """Validate a parsed JSON object and build the table and Cartan."""
    if not isinstance(data, dict):
        _fail(where, "top level must be a JSON object")
    allowed = {"dim", "delta", "basis", "brackets", "cartan"}
    for key in data:
        if key not in allowed:
            _fail(where, f"unknown field {key!r}")

    dim = _require(data, "dim", int, where)
    if dim < 1:
        _fail(f"{where}.dim", "must be a positive integer")
    delta = _require(data, "delta", int, where)
    if delta not in (1, -1):
        _fail(f"{where}.delta", "must be 1 or -1")
    basis = _require(data, "basis", list, where)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        _fail(f"{where}.basis", f"must list {dim} basis names")
    if len(set(basis)) != dim:
        _fail(f"{where}.basis", "basis names must be unique")
    index = {name: i for i, name in enumerate(basis)}

    records = _require(data, "brackets", list, where)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for r, record in enumerate(records):
        spot = f"{where}.brackets[{r}]"
        if not isinstance(record, dict):
            _fail(spot, "each bracket record must be an object")
        for key in record:
            if key not in {"left", "right", "result"}:
                _fail(spot, f"unknown field {key!r}")
        left = _require(record, "left", str, spot)
        right = _require(record, "right", str, spot)
        for name in (left, right):
            if name not in index:
                _fail(spot, f"unknown basis name {name!r}")
        pair = (index[left], index[right])
        if pair in brackets:
            _fail(spot, f"duplicate bracket record for ({left!r}, {right!r})")
        result = _require(record, "result", list, spot)
        entry: dict[int, Fraction] = {}
        for t, term in enumerate(result):
            term_spot = f"{spot}.result[{t}]"
            if not isinstance(term, dict):
                _fail(term_spot, "each result term must be an object")
            for key in term:
                if key not in {"name", "coeff"}:
                    _fail(term_spot, f"unknown field {key!r}")
            name = _require(term, "name", str, term_spot)
            if name not in index:
                _fail(term_spot, f"unknown basis name {name!r}")
            if index[name] in entry:
                _fail(term_spot, f"duplicate result term for {name!r}")
            entry[index[name]] = _parse_coeff(term.get("coeff"), f"{term_spot}.coeff")
        brackets[pair] = entry

    table = StructureTable.from_brackets(dim, delta, brackets, tuple(basis))

    cartan = None
    if "cartan" in data:
        specs = _require(data, "cartan", list, where)
        elements = []
        for s, spec in enumerate(specs):
            spot = f"{where}.cartan[{s}]"
            if not isinstance(spec, dict):
                _fail(spot, "each Cartan element must map basis names to rationals")
            coords = list(zero_vector(dim))
            for name, coeff in spec.items():
                if name not in index:
                    _fail(spot, f"unknown basis name {name!r}")
                coords[index[name]] = _parse_coeff(coeff, f"{spot}.{name}")
            elements.append(tuple(coords))
        cartan = CartanCandidate.from_elements(dim, elements)
    return table, cartan


def loads(text: str) -> tuple[StructureTable, CartanCandidate | None]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return load_dict(data)


def load(path) -> tuple[StructureTable, CartanCandidate | None]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise AlgebraFileError(f"{path} is not valid UTF-8") from None
    return loads(text)


def to_dict(table: StructureTable, cartan: CartanCandidate | None = None) -> dict:
    """Canonical file dictionary: nonzero records in basis order."""
    records = []
    basis = [table.basis_element(i) for i in range(table.dim)]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            result = [
                {"name": table.basis_names[k], "coeff": format_rational(c)}
                for k, c in enumerate(bracket(table, bi, bj))
                if c != 0
            ]
            if result:
                records.append(
                    {
                        "left": table.basis_names[i],
                        "right": table.basis_names[j],
                        "result": result,
                    }
                )
    data = {
        "dim": table.dim,
        "delta": table.delta,
        "basis": list(table.basis_names),
        "brackets": records,
    }
    if cartan is not None:
        data["cartan"] = [
            {
                table.basis_names[k]: format_rational(c)
                for k, c in enumerate(row)
                if c != 0
            }
            for row in cartan.ordered_basis
        ]
    return data


def dumps(table: StructureTable, cartan: CartanCandidate | None = None) -> str:
    return json.dumps(to_dict(table, cartan), indent=2) + "\n"


def dump(path, table: StructureTable, cartan: CartanCandidate | None = None) -> None:
    Path(path).write_text(dumps(table, cartan), encoding="utf-8")
