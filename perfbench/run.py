"""Seeded benchmark of the gammavar CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a list of real ``gammavar`` commands.  Every command runs in
a fresh interpreter (perfbench/child.py), the way a CLI user pays for it, with
BLAS pinned to one thread before numpy loads.  One repetition runs every
command at ``--threads 1`` and then at ``--threads 2``, one process at a time.
Repetitions continue while another one fits in ``--seconds``; how each
metric reduces them is documented in ``end_to_end``.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
each repetition runs the commands untraced at one thread, then traced at one
and at two threads (perfbench/tracing.py wraps the package from outside), and
the run prints the per-layer metrics.  Every command's report passes through
the correctness gate (``Gate``) in both modes.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
THREAD_COUNTS = (1, 2)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
# A run must end within 180 s; no repetition starts after this many seconds.
HARD_STOP_S = 120.0
SEARCH_ATOMS = 8
REFERENCE_TOL = 1e-9

# Checks whose verdict is exact arithmetic; any other failing check is a
# z-tested Monte Carlo verdict (or cor-2-6's floor, red by design) and is
# reported as information, never as a failure.
EXACT_CHECK_PREFIXES = (
    "hilbert-isometry",
    "total-variation-n",
    "randomized-exact-n",
    "domination-l2-",
)


@dataclass
class Command:
    """One CLI invocation: argv without --threads/--report, plus what the
    child needs to time config resolution the way cli.main performs it."""

    label: str
    argv: list[str]
    document: dict | None
    suite_name: str | None
    seed: int
    reference: dict | None = None  # check name -> expected "norm" value


# --- workloads -------------------------------------------------------------------
#
# Suites are shortened from their defaults so that a run holds several
# repetitions; the instances that remain keep their default shapes, and with
# them the layer shares.  perfbench/NOTES.md lists every cut.


def _command(
    label: str, argv: list[str], document: dict, seed: int, tmp: Path,
    suite_name: str | None = None, reference: dict | None = None,
) -> Command:
    path = tmp / f"{label}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = argv + ["--config", str(path), "--seed", str(seed)]
    return Command(label, argv, document, suite_name, seed, reference)


def _verify(suite: str, seed: int, tmp: Path, suite_params: dict) -> Command:
    return _command(suite, ["verify", suite], {"suite": suite_params}, seed, tmp, suite)


def arrays(seed: int, tmp: Path) -> list[Command]:
    return [
        # finest-partition: NormedSpace reductions over (1e5, 2) arrays and
        # the shared-draw matmul; 202 groupings per instance as at default
        _verify("finest-partition", seed, tmp, {"measures": 1}),
        # the brownian sign-enumeration sweep: 877 covering groupings of 7
        # atoms per density, one density per default norm, 1500 paths
        _verify("randomisation", seed, tmp, {"measures": 3, "n_atoms": 7, "max_blocks": 7}),
    ]


def search_measure(seed: int) -> dict:
    """A seeded random l1 measure on SEARCH_ATOMS atoms in R^2."""
    rng = np.random.default_rng([seed, 8])
    weights = rng.dirichlet(np.ones(SEARCH_ATOMS))
    weights = weights / weights.sum()
    return {
        "partition": {"weights": weights.tolist()},
        "space": {"dim": 2, "norm": "l1"},
        "input": {"measure": rng.standard_normal((SEARCH_ATOMS, 2)).tolist()},
    }


def search_reference(document: dict) -> dict:
    """Brute-force total and randomized variation from tests/_reference.py."""
    sys.path.insert(0, str(Path.cwd() / "tests"))
    try:
        import _reference
    finally:
        sys.path.pop(0)
    values = document["input"]["measure"]
    return {
        "total-variation": sum(_reference.lp_norm_reference(v, 1.0) for v in values),
        "randomized-variation": _reference.randomized_variation_reference(values, 1.0),
    }


def search(seed: int, tmp: Path) -> list[Command]:
    # exhaustive randomized search: one Python-level evaluation per grouping
    # on tiny arrays, Bell(9) - 1 = 21146 groupings
    document = search_measure(seed)
    reference = search_reference(document)
    return [_command("norms", ["norms"], document, seed, tmp, reference=reference)]


INTEGRATE_DOCUMENT = {
    "partition": {"uniform": 4},
    "space": {"dim": 2, "norm": "l2"},
    "input": {"density": [[3.0, 4.0], [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]},
}


def monte_carlo(seed: int, tmp: Path) -> list[Command]:
    # many small Gaussian Monte Carlo instances, embeddings and ensembles;
    # integrate runs the CLI's default density, passed as a config
    commands = [
        _verify("thm-2-3", seed, tmp, {"instances": 28}),
        _verify("thm-3-3", seed, tmp, {"instances": 3}),
        _verify("cor-2-5", seed, tmp, {"isometry_trials": 250, "survey_trials": 50}),
        _verify("cor-2-6", seed, tmp, {"trials": 125}),
        _verify("example-3-4", seed, tmp, {"n_grid": [4, 16, 100, 10_000]}),
    ]
    commands.append(_command("integrate", ["integrate"], INTEGRATE_DOCUMENT, seed, tmp))
    return commands


WORKLOADS = {
    "arrays": arrays,
    "search": search,
    "monte-carlo": monte_carlo,
}


# --- correctness gate ------------------------------------------------------------


@dataclass
class Verdict:
    failure: str | None
    z_failures: int = 0


class Gate:
    """Judges each command execution.

    An execution fails when it crashes or exits with a code other than 0 or
    2, when its report differs by a byte from the first report of the same
    command (other thread count or other repetition, same seed), when an
    exact check fails, or when a value misses its brute-force reference.
    """

    def __init__(self):
        self._first: dict[str, bytes] = {}

    def judge(self, command: Command, returncode: int | None, report: bytes | None) -> Verdict:
        if returncode is None:
            return Verdict("crashed before returning")
        if returncode not in (0, 2):
            return Verdict(f"exit code {returncode}")
        if report is None:
            return Verdict("no report written")
        first = self._first.setdefault(command.label, report)
        if report != first:
            return Verdict("report bytes differ from the first run of this command")
        try:
            document = json.loads(report)
        except ValueError as exc:
            return Verdict(f"report is not JSON: {exc}")
        z_failures = 0
        for check in document["checks"]:
            if check["verdict"] != "fail":
                continue
            if check["name"].startswith(EXACT_CHECK_PREFIXES):
                return Verdict(f"exact check {check['name']} failed")
            z_failures += 1
        for name, expected in (command.reference or {}).items():
            found = [c["values"]["norm"] for c in document["checks"] if c["name"] == name]
            if len(found) != 1 or not abs(found[0] - expected) <= REFERENCE_TOL:
                return Verdict(f"{name} is {found}, reference {expected!r}")
        return Verdict(None, z_failures)


def fail_frac(verdicts) -> float:
    """Failed executions over executions attempted."""
    verdicts = list(verdicts)
    return sum(1 for v in verdicts if v.failure) / len(verdicts)


# --- running commands ------------------------------------------------------------


@dataclass
class Execution:
    command: Command
    threads: int
    traced: bool
    verdict: Verdict
    result: dict  # child.py's result; empty when the child died first


def child_environment() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARIABLES:
        env[var] = "1"
    return env


def execute(
    command: Command, threads: int, traced: bool, tmp: Path, gate: Gate, timeout: float
) -> Execution:
    report_path = tmp / f"report-{command.label}.json"
    spec_path = tmp / "spec.json"
    result_path = tmp / "result.json"
    for stale in (report_path, result_path):
        stale.unlink(missing_ok=True)
    spec = {
        "src": str(Path.cwd() / "src"),
        "argv": command.argv + ["--threads", str(threads), "--report", str(report_path)],
        "resolve": {
            "document": command.document,
            "suite_name": command.suite_name,
            "overrides": {"seed": command.seed},
        },
        "trace": traced,
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
            env=child_environment(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(timeout, 1.0),
        )
        stderr = proc.stderr.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:
        stderr = f"timed out after {timeout:.0f} s"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    report = report_path.read_bytes() if report_path.exists() else None
    verdict = gate.judge(command, result.get("returncode"), report)
    if verdict.failure and not result:
        verdict.failure += ": " + stderr.strip()[-400:]
    return Execution(command, threads, traced, verdict, result)


def run_pass(commands, threads, traced, tmp, gate, started) -> list[Execution]:
    return [
        execute(c, threads, traced, tmp, gate, 170.0 - (time.perf_counter() - started))
        for c in commands
    ]


# --- metrics ---------------------------------------------------------------------


def end_to_end(reps: list[list[Execution]], commands: list[Command]) -> dict[str, float]:
    """Each metric is a per-command statistic over the run's repetitions,
    summed (times) or maximised (memory) over the workload's commands.

    Run times take the median repetition.  On a shared machine the same
    command's time drifts by 30 % or more over minutes, and fast repetitions
    are rare in some phases, so the fastest one moves between runs about
    twice as much as the median does (NOTES.md).
    Set-up takes the median over all of a command's processes.  Peak memory
    takes the median over repetitions of the --threads 1 process, whose
    allocations do not depend on how two workers happen to overlap.
    """

    def values(command, key, threads=None):
        return [
            e.result[key]
            for rep in reps
            for e in rep
            if e.command is command and threads in (None, e.threads)
        ]

    return {
        "run_s": sum(statistics.median(values(c, "run_s", 1)) for c in commands),
        "run_s_t2": sum(statistics.median(values(c, "run_s", 2)) for c in commands),
        "setup_s": sum(statistics.median(values(c, "setup_s")) for c in commands),
        "peak_rss_mb": max(statistics.median(values(c, "peak_rss_mb", 1)) for c in commands),
    }


def layers_of_repetition(rep: list[Execution]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see tracing.py)."""
    untraced = [e.result for e in rep if not e.traced]
    traced_t1 = [e.result["trace"] for e in rep if e.traced and e.threads == 1]
    traced_t2 = [e.result["trace"] for e in rep if e.traced and e.threads == 2]
    totals: dict[str, float] = {}
    for trace in traced_t1:
        covered = sum(trace[name] for name in tracing.SELF_TIME_METRICS)
        if abs(covered - trace["cli.main_s"]) > 1e-6:
            raise RuntimeError(
                f"layer self times sum to {covered} s, cli.main took {trace['cli.main_s']} s"
            )
        for name, value in trace.items():
            totals[name] = totals.get(name, 0) + value
    candidates = totals["norms.candidates"]
    covering = totals.pop("norms.covering_candidates")
    totals["norms.covering_frac"] = covering / candidates if candidates else 0.0
    untraced_run_s = sum(r["run_s"] for r in untraced)
    totals["cli.trace_overhead_frac"] = (totals["cli.main_s"] - untraced_run_s) / untraced_run_s
    wall = sum(t["suites.run_wall_s"] for t in traced_t2)
    totals["suites.pool_busy_frac"] = (
        sum(t["suites.worker_busy_s"] for t in traced_t2) / (2 * wall) if wall else 0.0
    )
    for name in ("suites.run_wall_s", "suites.worker_busy_s"):
        totals.pop(name)
    return totals


def per_layer(reps: list[list[Execution]]) -> dict[str, float]:
    """Medians over the run's traced repetitions."""
    samples = [layers_of_repetition(rep) for rep in reps]
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


# --- entry point -----------------------------------------------------------------


def machine_facts() -> str:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas}"
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through subprocess.run, which kills and reaps its child, and
    # through main's cleanup of the temporary directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    for needed in ("src/gammavar/cli.py", "tests/_reference.py"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 1
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }

    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        commands = WORKLOADS[args.workload](args.seed, tmp)
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"machine: {machine_facts()}")
        gate = Gate()
        reps: list[list[Execution]] = []
        rep_seconds: list[float] = []
        measuring = time.perf_counter()
        deadline = measuring + args.seconds
        while True:
            rep_started = time.perf_counter()
            if args.trace:
                rep = (
                    run_pass(commands, 1, False, tmp, gate, started)
                    + run_pass(commands, 1, True, tmp, gate, started)
                    + run_pass(commands, 2, True, tmp, gate, started)
                )
            else:
                rep = [
                    e
                    for threads in THREAD_COUNTS
                    for e in run_pass(commands, threads, False, tmp, gate, started)
                ]
            reps.append(rep)
            now = time.perf_counter()
            rep_seconds.append(now - rep_started)
            if now + statistics.median(rep_seconds) > deadline or now - started > HARD_STOP_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    executions = [e for rep in reps for e in rep]
    failures = [e for e in executions if e.verdict.failure]
    z_failures = sum(e.verdict.z_failures for e in executions)
    print(f"repetitions={len(reps)} measured={time.perf_counter() - measuring:.1f}s "
          f"commands={len(commands)}")
    for e in failures:
        print(f"FAILED {e.command.label} threads={e.threads} traced={e.traced}: "
              f"{e.verdict.failure}")
    print(f"fail_frac {fail_frac(e.verdict for e in executions):.4g} ratio "
          f"({len(failures)} of {len(executions)} executions)")
    print(f"z_fail_checks {z_failures} count (z-tested verdicts; information only)")

    metrics: dict = {}
    if all("run_s" in e.result for e in executions):
        values = per_layer(reps) if args.trace else end_to_end(reps, commands)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        label = " (computed from call arguments)" if name in tracing.COMPUTED_COUNTS else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{label}")
    if not args.trace:
        for threads in THREAD_COUNTS:
            per_rep = [
                sum(e.result.get("run_s", 0.0) for e in rep if e.threads == threads)
                for rep in reps
            ]
            print(f"--threads {threads} seconds per repetition: "
                  + " ".join(f"{s:.3f}" for s in per_rep))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(executions),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
