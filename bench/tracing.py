"""Traced run: spans around calls into the public functions of each jla module.

``Tracer.install`` replaces every listed function, in every loaded ``jla``
module namespace where the same function object is bound, with a wrapper
that records a span.  Matching by identity catches aliases such as
``cli.load_algebra_text`` (``algfile.loads``) and module-level
``from .linalg import rref`` bindings.  ``uninstall`` puts the originals
back, so only the traced pass pays for the wrappers.

A span is (name, start, end, parent span, command id), kept in memory and
written out by ``write_spans`` when the run ends.  Self time is a span's
duration minus the time its direct children cover.  The benchmark is one
client on one thread with no queue, so no layer ever waits: the layer
metrics are call counts and busy (self) time only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The public functions whose calls are traced, by module.
TRACED = {
    "linalg": (
        "rref",
        "kernel",
        "charpoly",
        "rational_eigen",
        "span_intersection",
        "solve",
        "complement_within",
    ),
    "algebra": (
        "bracket",
        "ad_matrix",
        "check_axioms",
        "center",
        "derived",
        "ideal_closure",
        "is_ideal",
        "minimal_ideals_oracle",
    ),
    "roots": ("centralizer", "verify_splitting_cartan", "root_decomposition"),
    "connections": ("connection_classes", "decompose", "ideal_component"),
    "simplicity": (
        "simplicity_criterion",
        "no_ideal_in_cartan_check",
        "structure_theorem",
    ),
    "algfile": ("loads",),
    "cli": ("render",),
}

# Span name of the benchmark's own call to jla.cli.main, one per command;
# its self time is the CLI's work outside every traced function.
COMMAND_SPAN = "cli.main"


def traced_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


def _max_bits(values) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
        default=0,
    )


def _returned_bits(name: str, result) -> int | None:
    """Largest numerator or denominator bit length in a kernel's result."""
    if name == "linalg.rref":
        return _max_bits(x for row in result[0].entries for x in row)
    if name == "linalg.charpoly":
        return _max_bits(result)
    return None


class Tracer:
    """Spans and per-function totals of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command]
        self.calls = {name: 0 for name in traced_names() + [COMMAND_SPAN]}
        self.self_s = {name: 0.0 for name in self.calls}
        self.max_bits = {"linalg.rref": 0, "linalg.charpoly": 0}
        self.ideals_returned = 0
        self.command = None
        self._open: list[int] = []  # indices of the spans on the call stack
        self._child_s: list[float] = []  # time covered by their children
        self._patched: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.command]
        self.spans.append(record)
        self._open.append(index)
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            child = self._child_s.pop()
            record[1], record[2] = start, end
            self.calls[name] += 1
            self.self_s[name] += end - start - child
            if self._child_s:
                self._child_s[-1] += end - start
        bits = _returned_bits(name, result)
        if bits is not None:
            self.max_bits[name] = max(self.max_bits[name], bits)
        elif name == "algebra.minimal_ideals_oracle":
            self.ideals_returned += len(result)
        return result

    def install(self) -> None:
        originals = {}
        for module, fns in TRACED.items():
            namespace = sys.modules[f"jla.{module}"]
            for fn in fns:
                original = getattr(namespace, fn)
                originals[id(original)] = (f"{module}.{fn}", original)
        for modname, namespace in list(sys.modules.items()):
            if modname != "jla" and not modname.startswith("jla."):
                continue
            for attr, value in list(vars(namespace).items()):
                if id(value) in originals:
                    name, original = originals[id(value)]
                    setattr(namespace, attr, self._wrap(name, original))
                    self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in self._patched:
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def calls_per_command(self, name: str) -> dict:
        """{command id: calls of ``name``} over commands that called it."""
        out: dict = {}
        for span in self.spans:
            if span[0] == name:
                out[span[4]] = out.get(span[4], 0) + 1
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, command in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                            "command": command,
                        }
                    )
                    + "\n"
                )
