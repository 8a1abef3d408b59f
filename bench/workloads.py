"""The benchmark's workloads: which CLI commands run on which inputs, and the
check every report must pass.

Inputs are made from the workload seed at set-up; the program sees only the
``.alg`` files written here.  The seed flips basis signs (and picks the
low bits of the rescaling factors), which changes every input file and
report but none of the magnitudes, so each seed asks for the same
arithmetic and the run-to-run spread measures the program, not the draw.

Checks, any failure counting in ``mismatch_count``:
  - corpus reports equal ``tests/golden/<name>__<command>.json`` byte for byte;
  - generated reports show the closed-form facts of their algebra;
  - a report on a changed basis keeps the exit code, root count, class
    count, verdict and component dimensions of the report on the untransformed
    original, run earlier in the same pass;
  - each report has the same sha256 in every pass (checked by the runner).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import algebras

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
BITSIZE_COMMANDS = ("verify-cartan", "roots", "simplicity")
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2}
# The dense mix is drawn once from this fixed seed so every run does the
# same elimination work; the workload seed then flips basis signs.
MIX_SEED = 1


@dataclass(frozen=True)
class Case:
    """One CLI command on one input.

    Exactly one of ``golden`` (expected report text) and ``expected``
    (expected report summary) is set; ``reference`` names the case on the
    untransformed original whose summary this one must repeat.
    """

    key: str
    argv: tuple[str, ...]
    rung: str
    size: float | None
    cartan_dim: int
    golden: str | None = None
    expected: dict | None = None
    reference: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def expected_code(self) -> int:
        if self.golden is not None:
            return EXIT_CODES[json.loads(self.golden)["status"]]
        return EXIT_CODES[self.expected["status"]]


@dataclass(frozen=True)
class Workload:
    """The ordered command list of one pass.

    ``top_rung`` is the largest input; ``size`` of a case is its rung's
    position on the workload's size axis (dimension, or coefficient bits on
    ``bitsize``), None for inputs left out of the size fit.
    """

    name: str
    cases: tuple[Case, ...]
    top_rung: str
    size_axis: str


def summary(command: str, report: dict) -> dict:
    """The facts of a report that a change of basis must not change."""
    out = {"status": report["status"]}
    result = report["result"]
    if out["status"] != "pass" and command != "simplicity":
        return out
    if command == "check-axioms":
        out["passed"] = result["passed"]
    elif command == "verify-cartan":
        out["passed"] = result["cartan"]["passed"]
    elif command == "roots":
        out["root_count"] = result["roots"]["root_count"]
        out["symmetric"] = result["roots"]["symmetric"]
    elif command == "classes":
        out["class_count"] = result["classes"]["count"]
    elif command == "decompose":
        parts = result["decomposition"]
        out["component_dims"] = sorted(c["total"]["dim"] for c in parts["components"])
        out["direct_sum"] = parts["direct_sum"]
    elif command == "simplicity":
        out["verdict"] = result["simplicity"]["verdict"]
        out["class_count"] = result["simplicity"]["class_count"]
    elif command == "structure":
        out["component_dims"] = sorted(c["dim"] for c in result["structure"]["components"])
    elif command == "oracle":
        out["ideal_dims"] = sorted(i["dim"] for i in result["minimal_ideals"])
    return out


def expected_summary(command: str, facts: algebras.Facts) -> dict:
    """``summary`` of the report on an algebra with these closed-form facts."""
    semisimple = facts.center_dim == 0
    dims = sorted(facts.component_dims)
    if command in ("check-axioms", "verify-cartan"):
        return {"status": "pass", "passed": True}
    if command == "roots":
        return {"status": "pass", "root_count": facts.root_count, "symmetric": True}
    if command == "classes":
        return {"status": "pass", "class_count": facts.class_count}
    if command == "decompose":
        return {"status": "pass", "component_dims": dims, "direct_sum": semisimple}
    if command == "simplicity":
        return {
            "status": "pass" if facts.verdict == algebras.SIMPLE else "fail",
            "verdict": facts.verdict,
            "class_count": facts.class_count,
        }
    if command == "structure":
        return {"status": "pass", "component_dims": dims} if semisimple else {"status": "fail"}
    if command == "oracle":
        return {"status": "pass", "ideal_dims": sorted(dims + [1] * facts.center_dim)}
    raise ValueError(f"unknown command {command!r}")


def check(case: Case, text: str, reports: dict) -> str | None:
    """Why the report ``text`` of ``case`` is wrong, or None when it is right.

    ``reports`` maps the keys of the cases run earlier in this pass to their
    report texts.
    """
    if case.golden is not None:
        return None if text == case.golden else "differs from its golden report"
    try:
        got = summary(case.command, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if got != case.expected:
        return f"report shows {got}, closed form says {case.expected}"
    if case.reference is not None:
        original = reports.get(case.reference)
        if original is None:
            return f"no report on the original {case.reference}"
        if got != summary(case.command, json.loads(original)):
            return f"report differs from the one on the original {case.reference}"
    return None


class _Inputs:
    """Writes generated algebras and validates each with jla at set-up."""

    def __init__(self, directory: Path):
        from jla.algebra import check_axioms
        from jla.algfile import loads

        self.directory = directory
        self._check_axioms = check_axioms
        self._loads = loads

    def cases(
        self,
        alg: algebras.Algebra,
        commands,
        size=None,
        options=(),
        reference: str | None = None,
    ) -> list[Case]:
        text = algebras.alg_text(alg)
        table, _ = self._loads(text)
        if not self._check_axioms(table).passed:
            raise ValueError(f"generated {alg.name} fails the Lie axioms")
        path = self.directory / f"{alg.name}.alg"
        path.write_text(text, encoding="utf-8")
        return [
            Case(
                key=f"{alg.name}__{command}",
                argv=(command, str(path), *options),
                rung=alg.name,
                size=size,
                cartan_dim=len(alg.cartan),
                expected=expected_summary(command, alg.facts),
                reference=None if reference is None else f"{reference}__{command}",
            )
            for command in commands
        ]


def ladder(rng: random.Random, inputs: _Inputs, repo: Path) -> Workload:
    """Split classical algebras of rising dimension through ``simplicity``.

    ``--oracle-cap 0`` keeps the ideal oracle off at every rung, as at
    dimensions above the default cap, so only the dimension-bound kernels
    (axioms, charpoly, eigenspaces, classes) run.  sl2 + sl3 is the
    two-class ``not_simple`` rung.
    """
    rungs = [
        algebras.simple("sl", 3),
        algebras.simple("sp", 4),
        algebras.simple("so", 5),
        algebras.direct_sum(("sl", 2), ("sl", 3)),
        algebras.simple("sl", 4),
    ]
    cases = []
    for alg in rungs:
        alg = algebras.signed(alg, rng)
        cases += inputs.cases(alg, ["simplicity"], alg.dim, ("--oracle-cap", "0"))
    return Workload("ladder", tuple(cases), rungs[-1].name, "dimension")


def small(rng: random.Random, inputs: _Inputs, repo: Path) -> Workload:
    """The bundled corpus and a generated gl3, every algebra through all 8 commands.

    The corpus holds the broken, bad-Cartan, nonsymmetric and delta = -1
    negative controls; at these dimensions the brute-force ideal oracle runs
    on every ``simplicity``, ``structure`` and ``oracle`` call.
    """
    cases = []
    for path in sorted((repo / "tests" / "data").glob("*.alg")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for command in COMMANDS:
            golden = repo / "tests" / "golden" / f"{path.stem}__{command}.json"
            cases.append(
                Case(
                    key=f"{path.stem}__{command}",
                    argv=(command, str(path)),
                    rung=path.stem,
                    size=data["dim"],
                    cartan_dim=len(data.get("cartan", ())),
                    golden=golden.read_text(encoding="utf-8"),
                )
            )
    gl3 = algebras.signed(algebras.gl(3), rng)
    cases += inputs.cases(gl3, COMMANDS, gl3.dim)
    return Workload("small", tuple(cases), gl3.name, "dimension")


BITSIZE_BITS = (15, 18, 21)
SL3_BITS = (4, 5)


def bitsize(rng: random.Random, inputs: _Inputs, repo: Path) -> Workload:
    """sl2 and sl3 with Cartan elements rescaled by factors near 2^bits, and
    sl3 in a dense unimodular basis, each after its untransformed original.

    Rescaling grows only the eigenvalues, whose divisors the eigenvalue
    search enumerates: on sl2 the enumeration is the whole cost and the
    sl2 rungs give the size fit; on sl3 it joins the elimination work.  The
    dense mix keeps eigenvalues small and grows the fractions inside
    elimination.
    """
    sl2, sl3 = algebras.simple("sl", 2), algebras.simple("sl", 3)
    cases = inputs.cases(algebras.signed(sl2, rng), BITSIZE_COMMANDS)
    for bits in BITSIZE_BITS:
        alg = algebras.signed(algebras.rescaled(sl2, rng, bits), rng)
        cases += inputs.cases(alg, BITSIZE_COMMANDS, bits, reference=sl2.name)
    cases += inputs.cases(algebras.signed(sl3, rng), BITSIZE_COMMANDS)
    for bits in SL3_BITS:
        alg = algebras.signed(algebras.rescaled(sl3, rng, bits), rng)
        cases += inputs.cases(alg, BITSIZE_COMMANDS, reference=sl3.name)
    mixed = algebras.signed(algebras.mixed(sl3, random.Random(MIX_SEED)), rng)
    cases += inputs.cases(mixed, BITSIZE_COMMANDS, reference=sl3.name)
    return Workload("bitsize", tuple(cases), f"sl2_bits{BITSIZE_BITS[-1]}", "bits")


def defects(rng: random.Random, inputs: _Inputs, repo: Path) -> Workload:
    """Known defect, run by hand only: ``roots`` on sl4 in the dense mixed
    basis spends minutes enumerating eigenvalue divisors, so today it fails
    at the per-command deadline."""
    sl4 = algebras.simple("sl", 4)
    mixed = algebras.signed(algebras.mixed(sl4, random.Random(MIX_SEED)), rng)
    cases = inputs.cases(mixed, ["roots"], mixed.dim)
    return Workload("defects", tuple(cases), mixed.name, "dimension")


WORKLOADS = {"ladder": ladder, "small": small, "bitsize": bitsize, "defects": defects}


def build(name: str, seed: int, directory: Path, repo: Path) -> Workload:
    """Generate the inputs of workload ``name`` into ``directory``."""
    return WORKLOADS[name](random.Random(seed), _Inputs(directory), repo)
