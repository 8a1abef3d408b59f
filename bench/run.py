"""Benchmark of the jla command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``ladder``, ``small`` and ``bitsize``, plus
``defects``, a known-defect case that is run by hand only.

One client on one thread, in a closed loop: each command is a call to
``jla.cli.main(argv)`` in this process, and the next starts only when the
previous one has returned.  A pass runs the workload's command list once;
passes repeat for ``--seconds`` (at least two).  Every report is checked (see
``workloads.check``) and must hash the same in every pass.  A command that
runs past ``COMMAND_DEADLINE_S`` is interrupted, not waited on, and counts
as failed.  End-to-end times are corrected for the drifting speed of a
shared CPU (speed.py).

With ``--trace 1`` one more pass runs with the public functions of each jla
module wrapped in spans (tracing.py), and the layer metrics are printed
instead of the end-to-end ones; the spans go to
``.bench_work/spans-<workload>-<seed>.jsonl``.

Every metric is printed as ``name value unit`` and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
# About six times the slowest command of any declared workload today.
COMMAND_DEADLINE_S = 30.0
# After this, every remaining command fails at once, so a run that meets
# hanging commands still ends well within three minutes.
RUN_LIMIT_S = 150.0
TAIL_BEYOND = 10


class DeadlineExceeded(Exception):
    """Raised by the alarm when a command runs past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _import_cli():
    """Import jla afresh from the checkout's sources; return ``cli.main``."""
    for name in [m for m in sys.modules if m == "jla" or m.startswith("jla.")]:
        del sys.modules[name]
    import jla.cli

    return jla.cli.main


def _setup(name: str, seed: int, work: Path):
    """((start, end), cli main, workload) of one set-up."""
    start = time.perf_counter()
    main = _import_cli()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, work, REPO)
    return (start, time.perf_counter()), main, workload


class Runner:
    """Runs commands under the deadline and keeps the run's tallies."""

    def __init__(self, main, started: float):
        self.main = main
        self.stop_at = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[tuple[str, str]] = []
        self.digests: dict[str, str] = {}

    def _command(self, main, argv):
        """(exit code or None, report text) of one CLI call."""
        deadline = min(COMMAND_DEADLINE_S, self.stop_at - time.perf_counter())
        if deadline <= 0:
            return None, ""
        out = io.StringIO()
        code = None
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            print(f"deadline: {' '.join(argv)} ran past {deadline:.0f} s", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, out.getvalue()

    def run_pass(self, workload, tracer=None):
        """Run every case once; return the wall-clock (start, end) of the
        pass and {case key: (start, end)}."""
        main = self.main
        if tracer is not None:

            def main(argv):
                return tracer.call(tracing.COMMAND_SPAN, self.main, argv)

        reports: dict[str, str] = {}
        intervals: dict[str, tuple[float, float]] = {}
        start = time.perf_counter()
        for case in workload.cases:
            if tracer is not None:
                tracer.command = case.key
            case_start = time.perf_counter()
            code, text = self._command(main, case.argv)
            intervals[case.key] = (case_start, time.perf_counter())
            self.attempted += 1
            if code != case.expected_code:
                self.failed += 1
            if code is None:
                continue
            problem = workloads.check(case, text, reports)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(case.key, digest) != digest:
                problem = problem or "report differs from an earlier pass"
            if problem:
                self.mismatches.append((case.key, problem))
            reports[case.key] = text
        return (start, time.perf_counter()), intervals


def _percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _slope(points) -> float:
    """Least-squares slope of log time against log size; 0 without two sizes."""
    if len({size for size, _ in points}) < 2:
        return 0.0
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def end_to_end(workload, setups, passes, corrected) -> tuple[dict, list[str]]:
    """The end-to-end metrics, in speed-corrected seconds, and their notes."""
    pass_s = [corrected(*interval) for interval, _ in passes]
    latency = [
        {key: corrected(*interval) for key, interval in intervals.items()}
        for _, intervals in passes
    ]
    samples = [s for per_case in latency for s in per_case.values()]
    rung_s: dict[str, list[float]] = {}
    for per_case in latency:
        per_rung: dict[str, float] = {}
        for case in workload.cases:
            per_rung[case.rung] = per_rung.get(case.rung, 0.0) + per_case[case.key]
        for rung, seconds in per_rung.items():
            rung_s.setdefault(rung, []).append(seconds)
    sizes = {case.rung: case.size for case in workload.cases if case.size is not None}
    points = [(size, statistics.median(rung_s[rung])) for rung, size in sizes.items()]

    # The percentile is fixed by the guaranteed sample count, so it does
    # not change with the number of passes a run happens to make.
    guaranteed = MIN_PASSES * len(workload.cases)
    tail_q = 100 * (1 - TAIL_BEYOND / guaranteed)
    if tail_q >= 50:
        tail = _percentile(samples, tail_q)
        rank = max(1, math.ceil(tail_q / 100 * len(samples)))
        tail_note = f"p{tail_q:.1f} of {len(samples)} commands, {len(samples) - rank} beyond it"
    else:
        tail = max(samples)
        tail_note = (
            f"maximum of {len(samples)} commands: {guaranteed} guaranteed samples "
            f"leave no percentile with {TAIL_BEYOND} beyond it"
        )
    raw_s = statistics.median(end - start for (start, end), _ in passes)
    metrics = {
        "setup_s": (statistics.median(corrected(*interval) for interval in setups), "s"),
        "wall_s": (statistics.median(pass_s), "s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "top_rung_s": (statistics.median(rung_s[workload.top_rung]), "s"),
        "size_exponent": (_slope(points), "1"),
    }
    notes = [
        "times are wall-clock seconds corrected for CPU speed drift (speed.py); "
        f"uncorrected median wall_s {raw_s:.3f} s",
        f"setup_s: median of {len(setups)} set-ups (import, input generation, references)",
        f"wall_s: median of {len(passes)} passes of {len(workload.cases)} commands",
        f"cmd_tail_s: {tail_note}",
        f"top_rung_s: all commands on {workload.top_rung}, median over passes",
        f"size_exponent: log-log slope of rung time against {workload.size_axis} "
        f"over {len(points)} rungs",
    ]
    return metrics, notes


def layers(workload, tracer, traced_s: float, untraced_s: float) -> tuple[dict, list[str]]:
    """The per-layer metrics of the traced pass, and the module shares.

    Times here are uncorrected wall-clock seconds: the speed probe is off
    during the traced pass, so that no span holds probe time.
    """
    metrics = {}
    for name in tracing.traced_names():
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    metrics[f"{tracing.COMMAND_SPAN}.self_s"] = (tracer.self_s[tracing.COMMAND_SPAN], "s")

    def per_command(name):
        counts = tracer.calls_per_command(name)
        return sum(counts.values()) / len(counts) if counts else 0.0

    cartan_dim = {case.key: case.cartan_dim for case in workload.cases}
    eigen = tracer.calls_per_command("linalg.rational_eigen")
    elements = sum(cartan_dim[key] for key in eigen)
    closures = tracer.calls["algebra.ideal_closure"]
    metrics.update(
        {
            "roots.verify_splitting_cartan.per_cmd": (
                per_command("roots.verify_splitting_cartan"),
                "1/cmd",
            ),
            "linalg.rational_eigen.per_cartan_elem": (
                sum(eigen.values()) / elements if elements else 0.0,
                "1/elem",
            ),
            "algebra.minimal_ideals_oracle.per_cmd": (
                per_command("algebra.minimal_ideals_oracle"),
                "1/cmd",
            ),
            "algebra.minimal_ideals_oracle.useful_ratio": (
                tracer.ideals_returned / closures if closures else 0.0,
                "1",
            ),
            "linalg.charpoly.max_bits": (tracer.max_bits["linalg.charpoly"], "bits"),
            "linalg.rref.max_bits": (tracer.max_bits["linalg.rref"], "bits"),
            "trace_overhead_ratio": (traced_s / untraced_s, "1"),
        }
    )
    shares: dict[str, float] = {}
    for name, seconds in tracer.self_s.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds
    notes = [
        f"share of the traced pass ({traced_s:.3f} s) in {module}: {seconds / traced_s:.3f}"
        for module, seconds in sorted(shares.items(), key=lambda kv: -kv[1])
    ]
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:5]
    notes += [f"self time of {name}: {seconds / traced_s:.3f} of the pass" for name, seconds in top]
    notes.append(
        "one client on one thread with no queue: no layer waits, so there is "
        "no waiting time to report"
    )
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "jla" / "cli.py").is_file() or not (REPO / "tests" / "golden").is_dir():
        print(f"no jla sources and golden reports under {REPO}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    work_root = REPO / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        probe = speed.SpeedProbe()
        probe.start()
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                interval, cli_main, workload = _setup(args.workload, args.seed, work)
                setups.append(interval)
            runner = Runner(cli_main, started)
            passes = []
            measure_start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - measure_start < args.seconds:
                if time.perf_counter() >= runner.stop_at:
                    break
                gc.collect()
                passes.append(runner.run_pass(workload))
        finally:
            probe.stop()
        metrics, notes = end_to_end(workload, setups, passes, probe.corrector())
        if args.trace:
            tracer = tracing.Tracer()
            gc.collect()
            tracer.install()
            try:
                (start, end), _ = runner.run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(work_root / f"spans-{args.workload}-{args.seed}.jsonl")
            untraced_s = statistics.median(e - s for (s, e), _ in passes)
            metrics, notes = layers(workload, tracer, end - start, untraced_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, problem in runner.mismatches[:20]:
        print(f"mismatch: {key}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {runner.failed / runner.attempted} 1 ({runner.failed} of {runner.attempted} commands)")
    print(f"mismatch_count {len(runner.mismatches)} count")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
