"""Span tracer that wraps gammavar's public functions from outside the package.

A span is opened around each call into a layer (a module of ``gammavar``).
Spans nest on a per-thread stack, so a span's self time is its duration minus
the durations of the spans it directly encloses on the same thread.  Root
spans opened on threads other than the one that created the tracer are
summed as worker busy time; they are never subtracted from spans on another
thread.  Only per-name aggregates are kept, so memory stays flat however many
calls a run makes.

``install`` replaces each wrapped function under every name a loaded
``gammavar`` module binds it to: callers do ``from .norms import ...`` at
import time, so patching only the defining module would miss them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames: [name, start, child_seconds]
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_seconds = 0.0


class Tracer:
    """Aggregates span self time, total time and counters per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[int, _ThreadState]] = []
        self._owner = threading.get_ident()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append((threading.get_ident(), state))
        return state

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._state().stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        state = self._state()
        if not state.stack or state.stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        state.stack.pop()
        duration = end - frame[1]
        state.self_time[frame[0]] += duration - frame[2]
        state.total_time[frame[0]] += duration
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.root_seconds += duration

    def parent(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    def summary(self) -> dict:
        """Merged aggregates: self and total seconds per span name, counters,
        and the root-span seconds of threads other than the creating one."""
        self_time: dict[str, float] = defaultdict(float)
        total_time: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        worker_seconds = 0.0
        with self._lock:
            states = list(self._states)
        for ident, state in states:
            if state.stack:
                raise RuntimeError(f"spans still open: {[f[0] for f in state.stack]}")
            for key, value in state.self_time.items():
                self_time[key] += value
            for key, value in state.total_time.items():
                total_time[key] += value
            for key, value in state.counts.items():
                counts[key] += value
            if ident != self._owner:
                worker_seconds += state.root_seconds
        return {
            "self": dict(self_time),
            "total": dict(total_time),
            "counts": dict(counts),
            "worker_seconds": worker_seconds,
        }


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def span_function(tracer: Tracer, name: str, fn, on_call=None):
    """Wrap fn in a span; on_call(args, kwargs) records counts just before it
    opens, so tracer.parent() there names the calling span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def span_generator(tracer: Tracer, name: str, fn, on_item):
    """Wrap a generator function so that each advance is one span.

    on_item(item, parent) sees every yielded item and the span that was
    innermost when the consumer asked for it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            parent = tracer.parent()
            frame = tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            on_item(item, parent)
            yield item

    return wrapper


class Patches:
    """Name replacements across loaded gammavar modules, undone by restore()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every module-level name that refers to original."""
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "gammavar" or module_name.startswith("gammavar.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)
                    replaced += 1
        if replaced == 0:
            raise RuntimeError(f"{original!r} is bound in no gammavar module")

    def replace_attribute(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _vectors(values) -> int:
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=float)
    return arr.size // arr.shape[-1] if arr.ndim else 1


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of each gammavar layer; returns the undo log."""
    from gammavar import brownian, cli, embeddings, groupings, norms, random_sums
    from gammavar import reports, spaces, suites

    patches = Patches()

    def wrap(module, attr, name, on_call=None):
        original = getattr(module, attr)
        patches.replace_everywhere(original, span_function(tracer, name, original, on_call))

    def wrap_method(cls, attr, name, on_call=None):
        original = vars(cls)[attr]
        patches.replace_attribute(cls, attr, span_function(tracer, name, original, on_call))

    # spaces: norm_sq calls norm for p != 2, so count only outermost calls
    def on_norm(args, kwargs):
        if tracer.parent() != "spaces.norm":
            tracer.count("spaces.norm_calls")
            tracer.count("spaces.norm_vectors", _vectors(_arg(args, kwargs, 1, "values")))

    wrap_method(spaces.NormedSpace, "norm", "spaces.norm", on_norm)
    wrap_method(spaces.NormedSpace, "norm_sq", "spaces.norm", on_norm)

    # random_sums: counts computed from the arguments (coefficient count k
    # and whether the space takes the exact Hilbert route), not observed
    def coefficients(args, kwargs):
        return len(_arg(args, kwargs, 0, "values")), _arg(args, kwargs, 1, "space").is_hilbert

    def on_gaussian(args, kwargs):
        k, hilbert = coefficients(args, kwargs)
        if not hilbert:
            tracer.count("random_sums.gaussian_draws", _arg(args, kwargs, 3, "samples", 0) * k)

    def on_rademacher(args, kwargs):
        k, hilbert = coefficients(args, kwargs)
        if not hilbert and k <= random_sums.ENUMERATION_LIMIT:
            tracer.count("random_sums.sign_terms", 1 << (k - 1))

    wrap(random_sums, "gaussian_sum_sq", "random_sums.gaussian", on_gaussian)
    wrap(random_sums, "rademacher_sum_sq", "random_sums.rademacher", on_rademacher)

    # groupings: time spent producing each grouping, and which ones a
    # randomized search receives
    def on_grouping(grouping, parent):
        tracer.count("groupings.yielded")
        if parent == "norms.randomized":
            tracer.count("norms.candidates")
            if sum(len(b) for b in grouping.blocks) == grouping.n_atoms:
                tracer.count("norms.covering_candidates")

    original = groupings.enumerate_groupings
    patches.replace_everywhere(
        original, span_generator(tracer, "groupings.enumerate", original, on_grouping)
    )

    # norms
    def on_shared_init(args, kwargs):
        measure = _arg(args, kwargs, 1, "measure")
        samples = _arg(args, kwargs, 3, "samples", 0)
        if not measure.space.is_hilbert:
            tracer.count("norms.shared_draw_bytes", samples * measure.n_atoms * 8)

    wrap_method(norms.SharedDrawMoments, "__init__", "norms.shared_moment", on_shared_init)
    wrap_method(
        norms.SharedDrawMoments,
        "moment",
        "norms.shared_moment",
        lambda args, kwargs: tracer.count("norms.shared_moment_calls"),
    )
    wrap(norms, "randomized_variation_norm", "norms.randomized")
    wrap(norms, "verify_duality", "norms.duality")

    # brownian; every caller of the sweep passes a list of groupings
    def on_sweep(args, kwargs):
        swept = _arg(args, kwargs, 1, "groupings")
        tracer.count("brownian.sweep_groupings", len(swept))
        tracer.count("brownian.sweep_sign_terms", sum(1 << (g.n_blocks - 1) for g in swept))

    wrap(brownian, "randomisation_identity_sweep", "brownian.sweep", on_sweep)

    def on_sample(args, kwargs):
        partition = _arg(args, kwargs, 0, "partition")
        tracer.count("brownian.increments", _arg(args, kwargs, 1, "n_paths") * partition.n_atoms)

    wrap(brownian, "sample_brownian", "brownian.sample", on_sample)
    wrap(brownian, "verify_integral_identity", "brownian.identity")

    # embeddings
    wrap(
        embeddings,
        "run_embedding_trials",
        "embeddings.trials",
        lambda args, kwargs: tracer.count("embeddings.trials", _arg(args, kwargs, 3, "trials")),
    )

    # reports: rendered size is counted from the result
    for attr in ("render_json", "render_csv", "render_line_chart"):
        original_render = getattr(reports, attr)

        def counted(*args, _render=original_render, **kwargs):
            text = _render(*args, **kwargs)
            tracer.count("reports.bytes", len(text.encode("utf-8")))
            return text

        patches.replace_everywhere(
            original_render,
            span_function(tracer, "reports.render", functools.wraps(original_render)(counted)),
        )

    # suites: config resolution, suite bodies, and each pooled instance
    wrap(suites, "resolve_config", "suites.resolve")
    for attr in ("run_suite", "run_norms", "run_integrate"):
        wrap(suites, attr, "suites.run")
    ordered_map = suites._ordered_map

    def traced_map(fn, items, threads):
        return ordered_map(span_function(tracer, "suites.task", fn), items, threads)

    patches.replace_everywhere(ordered_map, traced_map)

    wrap(cli, "main", "cli.main")
    return patches


# Per-layer self-time metrics and the span names each one sums.  Together
# with cli.self_s they partition cli.main_s on a single-threaded run.
SELF_TIME_METRICS = {
    "spaces.norm_s": ("spaces.norm",),
    "random_sums.gaussian_s": ("random_sums.gaussian",),
    "random_sums.rademacher_s": ("random_sums.rademacher",),
    "groupings.enumerate_s": ("groupings.enumerate",),
    "norms.shared_moment_s": ("norms.shared_moment",),
    "norms.randomized_s": ("norms.randomized",),
    "norms.duality_s": ("norms.duality",),
    "brownian.sweep_s": ("brownian.sweep",),
    "brownian.sample_s": ("brownian.sample",),
    "brownian.identity_s": ("brownian.identity",),
    "embeddings.trials_s": ("embeddings.trials",),
    "reports.render_s": ("reports.render",),
    "suites.resolve_s": ("suites.resolve",),
    "suites.self_s": ("suites.run", "suites.task"),
    "cli.self_s": ("cli.main",),
}

COUNT_METRICS = (
    "spaces.norm_calls",
    "spaces.norm_vectors",
    "random_sums.gaussian_draws",
    "random_sums.sign_terms",
    "groupings.yielded",
    "norms.shared_moment_calls",
    "norms.shared_draw_bytes",
    "norms.candidates",
    "norms.covering_candidates",
    "brownian.sweep_groupings",
    "brownian.sweep_sign_terms",
    "brownian.increments",
    "embeddings.trials",
    "reports.bytes",
)

# Counts derived from call arguments (sizes, samples, block counts) rather
# than observed; the others count calls, yielded items or rendered bytes.
COMPUTED_COUNTS = frozenset(
    {
        "spaces.norm_vectors",
        "random_sums.gaussian_draws",
        "random_sums.sign_terms",
        "norms.shared_draw_bytes",
        "brownian.sweep_groupings",
        "brownian.sweep_sign_terms",
        "brownian.increments",
        "embeddings.trials",
    }
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced command from a Tracer summary."""
    self_time = summary["self"]
    metrics = {
        name: sum(self_time.get(span, 0.0) for span in spans)
        for name, spans in SELF_TIME_METRICS.items()
    }
    counts = summary["counts"]
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics["cli.main_s"] = summary["total"].get("cli.main", 0.0)
    metrics["suites.run_wall_s"] = summary["total"].get("suites.run", 0.0)
    metrics["suites.worker_busy_s"] = summary["worker_seconds"]
    return metrics
