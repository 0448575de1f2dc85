"""Self-tests of the benchmark's own logic: span arithmetic, the tracer's
patching, and the correctness gate.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


class ScriptedClock:
    """Returns the given instants in call order, whichever thread asks."""

    def __init__(self, *instants):
        self._instants = iter(instants)
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return next(self._instants)


def test_self_time_subtracts_directly_nested_spans():
    tracer = tracing.Tracer(clock=ScriptedClock(0.0, 1.0, 1.5, 2.5, 3.0, 3.0, 4.0, 10.0))
    outer = tracer.enter("a")
    middle = tracer.enter("b")
    tracer.exit(tracer.enter("c"))
    tracer.exit(middle)
    tracer.exit(tracer.enter("c"))
    tracer.exit(outer)
    summary = tracer.summary()
    # spans: a [0, 10), b [1, 3) inside a, c [1.5, 2.5) inside b, c [3, 4) inside a
    assert summary["total"] == {"a": 10.0, "b": 2.0, "c": 2.0}
    assert summary["self"] == {"a": 7.0, "b": 1.0, "c": 2.0}
    assert sum(summary["self"].values()) == summary["total"]["a"]
    assert summary["worker_seconds"] == 0.0


def test_spans_on_two_threads_nest_separately():
    # main opens m at 0; a worker opens w at 1 and x at 2, closes x at 4 and
    # w at 7; main closes m at 10.  The worker's spans are not m's children.
    tracer = tracing.Tracer(clock=ScriptedClock(0.0, 1.0, 2.0, 4.0, 7.0, 10.0))
    main_span = tracer.enter("m")

    def work():
        outer = tracer.enter("w")
        tracer.exit(tracer.enter("x"))
        tracer.exit(outer)

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.exit(main_span)
    summary = tracer.summary()
    assert summary["self"] == {"m": 10.0, "w": 4.0, "x": 2.0}
    assert summary["worker_seconds"] == 6.0


def test_out_of_order_exit_is_refused():
    tracer = tracing.Tracer(clock=ScriptedClock(0.0, 1.0, 2.0))
    outer = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_install_patches_every_caller_and_restores():
    import gammavar.norms
    import gammavar.random_sums
    from gammavar.spaces import NormedSpace

    original = gammavar.random_sums.rademacher_sum_sq
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert gammavar.norms.rademacher_sum_sq is not original
        values = [[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0]]
        gammavar.norms.randomized_variation_norm(values, NormedSpace.l1(2))
    finally:
        patches.restore()
    assert gammavar.norms.rademacher_sum_sq is original
    assert gammavar.random_sums.rademacher_sum_sq is original
    metrics = tracing.layer_metrics(tracer.summary())
    # every grouping of 3 atoms (Bell(4) - 1), of which Bell(3) cover them
    assert metrics["norms.candidates"] == 14
    assert metrics["norms.covering_candidates"] == 5
    assert metrics["groupings.yielded"] == 14
    # 7 one-block, 6 two-block and 1 three-block groupings, 2^(k-1) patterns each
    assert metrics["random_sums.sign_terms"] == 7 * 1 + 6 * 2 + 1 * 4
    assert metrics["spaces.norm_calls"] == 14
    assert metrics["norms.randomized_s"] > 0.0


def _report(*checks) -> bytes:
    document = {
        "suite": "test",
        "checks": [
            {"name": name, "verdict": verdict, "values": {"norm": 1.0}}
            for name, verdict in checks
        ],
    }
    return json.dumps(document, sort_keys=True).encode()


def _command(reference=None):
    return run.Command("cmd", ["verify", "cmd"], None, "cmd", 0, reference)


def test_flipped_report_byte_counts_as_failed():
    gate = run.Gate()
    command = _command()
    good = _report(("duality-000", "pass"))
    flipped = bytearray(good)
    flipped[good.index(b"pass")] ^= 1
    verdicts = [gate.judge(command, 0, good), gate.judge(command, 0, bytes(flipped))]
    assert verdicts[0].failure is None
    assert verdicts[1].failure is not None
    assert run.fail_frac(verdicts) == 0.5


def test_failing_exact_check_counts_as_failed():
    gate = run.Gate()
    verdict = gate.judge(_command(), 2, _report(("domination-l2-00", "fail")))
    assert verdict.failure is not None
    assert run.fail_frac([verdict]) == 1.0


def test_failing_z_test_is_information_only():
    gate = run.Gate()
    report = _report(("identity-00-variation-vs-integral", "fail"), ("lower-bound-l1", "fail"))
    verdicts = [gate.judge(_command(), 2, report) for _ in range(3)]
    assert [v.failure for v in verdicts] == [None, None, None]
    assert verdicts[0].z_failures == 2
    assert run.fail_frac(verdicts) == 0.0


def test_crash_and_unexpected_exit_code_count_as_failed():
    gate = run.Gate()
    report = _report(("duality-000", "pass"))
    assert gate.judge(_command(), None, None).failure is not None
    assert gate.judge(_command(), 1, report).failure is not None


def test_reference_mismatch_counts_as_failed():
    report = _report(("total-variation", "info"))
    assert run.Gate().judge(_command({"total-variation": 1.0}), 0, report).failure is None
    verdict = run.Gate().judge(_command({"total-variation": 1.0 + 1e-6}), 0, report)
    assert verdict.failure is not None
