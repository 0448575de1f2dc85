"""Variation norms of atomic vector measures and the dual operator norm.

For a measure F on weighted atoms, the gamma-variation squared moment of a
grouping {B_1..B_k} is E || sum_m g_m F(B_m)/sqrt(mu(B_m)) ||^2 with standard
Gaussian coefficients; the norm is the supremum over groupings, which the
finest grouping attains.  That is the second moment of a centred Gaussian
vector with covariance Sigma_G = sum_m F(B_m) F(B_m)^T / mu(B_m), so the
norm and the per-grouping moments (SharedDrawMoments) are exact in Hilbert
spaces, in l1 and in the plane's linf, through one kernel (_gaussian_moment)
that the finest-partition suite's scan and the norm share.  Elsewhere the
norm samples and SharedDrawMoments shares one set of Gaussian draws across
groupings.  The dual view is the Gaussian-summing norm of the operator with
columns F(A_n)/sqrt(mu(A_n)), whose squared moment is E || T g ||^2 over the
full normalized-indicator basis, exact in the same spaces.

The randomized variation drops the 1/sqrt(mu) normalization and uses
Rademacher signs, so its supremum genuinely depends on the grouping and is
located by search.  The total variation is the exact sum of atom-value norms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .groupings import (
    Grouping,
    block_sums,
    enumerate_groupings,
    grouping_from_labels,
    grouping_labels,
)
from .measures import DiscreteOperator, VectorMeasure, operator_from_measure
from .random_sums import (
    Comparison,
    RandomStream,
    SumEstimate,
    METHOD_EXACT_COVARIANCE,
    _check_values,
    _coefficient_batches,
    _ensemble_chunk,
    _ensemble_decide,
    _ensemble_screen,
    _estimate_from_moments,
    _path_spans,
    _table_rounding_bound,
    _table_size,
    compare_estimates,
    covariance_moment,
    gaussian_sum_sq,
    has_covariance_moment,
    rademacher_sum_sq,
)
from .spaces import EmpiricalL2Space, NormedSpace

RANDOMIZED_MODES = ("auto", "exhaustive", "contiguous", "greedy")
# Cap on the bytes of a chunk of label rows: the int8 labels and masks, and
# the temporaries of grouping_labels and of the screen, about 64 bytes a row
_LABEL_CHUNK_BYTES = 1 << 23


@dataclass(frozen=True)
class NormReport:
    """A norm value with its squared-moment estimate and attaining grouping."""

    norm: float
    moment: SumEstimate
    grouping: Grouping
    mode: str

    def to_document(self) -> dict:
        return {
            "norm": self.norm,
            "moment": self.moment.to_document(),
            "grouping": self.grouping.to_lists(),
            "mode": self.mode,
        }


@dataclass(frozen=True)
class DualityReport:
    """Measure-side and operator-side norms with their consistency verdict."""

    measure_report: NormReport
    operator_report: NormReport
    comparison: Comparison

    @property
    def consistent(self) -> bool:
        return self.comparison.consistent

    def to_document(self) -> dict:
        return {
            "measure": self.measure_report.to_document(),
            "operator": self.operator_report.to_document(),
            "comparison": self.comparison.to_document(),
        }


def _normalized_vectors(measure: VectorMeasure) -> np.ndarray:
    return measure.values / np.sqrt(measure.partition.weights)[:, None]


def _grouping_matrix(measure: VectorMeasure, grouping: Grouping) -> np.ndarray:
    """Atom-coefficient matrix realizing a grouping's Gaussian sum from the
    finest one.

    Row n is sqrt(w_n) F(B)/mu(B) for the block B containing atom n (zero for
    uncovered atoms), so right-multiplying a standard Gaussian matrix yields
    sum_m g_m F(B_m)/sqrt(mu(B_m)) in distribution, with draws shared across
    groupings for paired comparisons.
    """
    weights = measure.partition.weights
    scaled = block_sums(measure.values, grouping) / block_sums(weights, grouping)[:, None]
    mat = np.zeros_like(measure.values)
    for block, row in zip(grouping.blocks, scaled):
        mat[list(block)] = row
    return np.sqrt(weights)[:, None] * mat


def _gaussian_moment(
    rows: np.ndarray,
    space: NormedSpace,
    stream: RandomStream | None = None,
    samples: int = 0,
) -> SumEstimate:
    """E || sum_n g_n x_n ||^2 of the rows x_n with standard Gaussian g_n.

    Hilbert spaces take gaussian_sum_sq's closed form; l1 and the plane's
    linf take covariance_moment of Sigma = sum_n x_n x_n^T, which needs no
    stream; every other space takes gaussian_sum_sq's Monte Carlo."""
    if not space.is_hilbert and has_covariance_moment(space):
        value = covariance_moment(rows.T @ rows, space)
        return SumEstimate(value, 0.0, 0, METHOD_EXACT_COVARIANCE)
    return gaussian_sum_sq(rows, space, stream, samples)


class SharedDrawMoments:
    """Squared-moment values of many groupings of one measure.

    Exact where _gaussian_moment is, in Hilbert spaces, l1 in any dimension
    and linf in the plane: the rows F(B)/sqrt(mu(B)) of a grouping's blocks
    give its covariance Sigma_G = sum_B F(B) F(B)^T / mu(B), and the finest
    grouping's moment is gamma_variation_norm's bit for bit; these need no
    stream.  Other spaces share one set of Gaussian draws across all
    groupings (paired estimates) and need a stream and samples."""

    def __init__(
        self,
        measure: VectorMeasure,
        stream: RandomStream | None = None,
        samples: int = 0,
    ):
        self.measure = measure
        space = measure.space
        self._exact = space.is_hilbert or has_covariance_moment(space)
        if self._exact:
            # mu(A_n) next to F(A_n), so one block_sums call gives mu(B), F(B)
            self._masses_values = np.column_stack((measure.partition.weights, measure.values))
        else:
            batches = _coefficient_batches(stream, samples, measure.n_atoms, "gaussian")
            self._draws = np.concatenate(list(batches), axis=0)

    def moment(self, grouping: Grouping) -> SumEstimate:
        if self._exact:
            # rows F(B)/sqrt(mu(B)), so Sigma_G = sum_B F(B) F(B)^T / mu(B)
            sums = block_sums(self._masses_values, grouping)
            return _gaussian_moment(sums[:, 1:] / np.sqrt(sums[:, :1]), self.measure.space)
        stats = self.measure.space.norm_sq(self._draws @ _grouping_matrix(self.measure, grouping))
        return _estimate_from_moments([stats])


def _beats(value: float, grouping: Grouping, best_value: float, best: Grouping) -> bool:
    """Search order: the higher value wins; ties go to fewer blocks, then to the
    lexicographically smallest block structure."""
    return value > best_value or (
        value == best_value and grouping.sort_key() < best.sort_key()
    )


def _search_best(
    candidates: Iterable[Grouping], evaluate
) -> tuple[Grouping, SumEstimate]:
    """Maximize the estimate over candidates, in the order of _beats."""
    best = None
    for grouping in candidates:
        estimate = evaluate(grouping)
        if best is None or _beats(estimate.value, grouping, best[1].value, best[0]):
            best = (grouping, estimate)
    if best is None:
        raise ValueError("no candidate groupings to search")
    return best


def gamma_variation_norm(
    measure: VectorMeasure,
    stream: RandomStream | None = None,
    samples: int = 0,
) -> NormReport:
    """Gamma-variation norm of a measure: the moment of the finest covering
    grouping, which attains the supremum (every grouping's covariance
    Sigma_G lies below the finest one's in Loewner order, so Anderson's
    inequality rules the others out; the finest-partition suite verifies
    this with SharedDrawMoments).
    Exact in Hilbert spaces, l1 and the plane's linf, where the stream and
    samples go unused; in all three it equals SharedDrawMoments' finest
    moment bit for bit.  Monte Carlo elsewhere.
    """
    moment = _gaussian_moment(_normalized_vectors(measure), measure.space, stream, samples)
    grouping = Grouping.finest(measure.n_atoms)
    return NormReport(float(np.sqrt(moment.value)), moment, grouping, "fast_path")


def gamma_summing_norm(
    operator: DiscreteOperator,
    stream: RandomStream | None = None,
    samples: int = 0,
) -> NormReport:
    """Gaussian-summing norm of an operator: sqrt(E || T g ||^2) over the full
    normalized-indicator basis (finite rank makes this the supremum over all
    orthonormal systems).  Exact from the covariance T T^* in Hilbert
    spaces, l1 and the plane's linf; Monte Carlo elsewhere."""
    moment = _gaussian_moment(operator.columns, operator.space, stream, samples)
    grouping = Grouping.finest(operator.n_atoms)
    return NormReport(float(np.sqrt(moment.value)), moment, grouping, "fast_path")


def verify_duality(
    measure: VectorMeasure,
    stream: RandomStream,
    samples: int = 0,
    z: float = 3.0,
) -> DualityReport:
    """Check that the measure norm matches the dual operator norm.

    The two sides use independent substreams.  Hilbert spaces, l1 and the
    plane's linf compute both sides exactly and compare them to a rounding
    tolerance (compare_estimates); other spaces run a z-test.
    """
    measure_report = gamma_variation_norm(measure, stream.substream(0), samples)
    operator_report = gamma_summing_norm(
        operator_from_measure(measure), stream.substream(1), samples
    )
    comparison = compare_estimates(measure_report.moment, operator_report.moment, z=z)
    return DualityReport(measure_report, operator_report, comparison)


def total_variation_norm(measure: VectorMeasure) -> float:
    """Exact total variation: the atom-value norms summed (the finest
    partition attains the supremum by the triangle inequality)."""
    return float(np.sum(measure.space.norm(measure.values)))


# --- randomized variation ------------------------------------------------------


def _greedy_trajectory(n_atoms: int, evaluate) -> Iterator[Grouping]:
    """Groupings visited by greedy merging from the finest covering grouping.

    Each round merges the pair of blocks whose merge most increases the
    objective; stops when no merge improves it.
    """
    current = Grouping.finest(n_atoms)
    yield current
    current_value = evaluate(current).value
    while current.n_blocks > 1:
        best = None
        for i, j in itertools.combinations(range(current.n_blocks), 2):
            merged_blocks = [
                b for m, b in enumerate(current.blocks) if m not in (i, j)
            ]
            merged_blocks.append(current.blocks[i] + current.blocks[j])
            candidate = Grouping(merged_blocks, n_atoms)
            value = evaluate(candidate).value
            if best is None or _beats(value, candidate, best[1], best[0]):
                best = (candidate, value)
        if best is None or best[1] <= current_value:
            return
        current, current_value = best
        yield current


def _exhaustive_label_search(
    n_atoms: int, screen, bound: float, decide
) -> tuple[Grouping, SumEstimate]:
    """The winner of the exhaustive search over the set partitions of
    n_atoms atoms, with its estimate, in the order of _beats.

    Set partitions come as label rows with block masks
    (groupings.grouping_labels), in chunks of _LABEL_CHUNK_BYTES, and each
    chunk is screened in one batch: screen(masks) gives (values, errors)
    whose values lie within bound of the estimates that decide(groupings)
    gives, so the winner lies within 2 bound of the top screen value, and
    only rows that near the running top keep their values and labels.
    They are made Groupings and decided a block count at a time, in
    sort_key order.  A candidate wins only above the best value so far, so
    one whose screen value plus bound does not pass that is never
    decided."""
    mask_bytes = np.min_scalar_type((1 << n_atoms) - 1).itemsize
    rows = max(1, _LABEL_CHUNK_BYTES // (2 * n_atoms * (1 + mask_bytes) + 64))
    top, kept = -np.inf, []
    for labels, masks in grouping_labels(n_atoms, rows):
        values, _ = screen(masks)
        top = max(top, float(np.max(values)))
        near = ~(values < top - 2.0 * bound)
        kept.append((values[near], labels[near]))
    values, labels = (np.concatenate(part) for part in zip(*kept))
    n_blocks = labels.max(axis=1) + 1
    near = ~(values < np.max(values) - 2.0 * bound)
    best = None
    for k in np.flatnonzero(np.bincount(n_blocks[near])).tolist():
        rows = np.flatnonzero(near & (n_blocks == k))
        if best is not None:
            rows = rows[~(values[rows] + bound <= best[1].value)]
        candidates = sorted(
            (grouping_from_labels(labels[i].tolist()) for i in rows.tolist()),
            key=Grouping.sort_key,
        )
        for grouping, estimate in zip(candidates, decide(candidates)):
            if best is None or _beats(estimate.value, grouping, best[1].value, best[0]):
                best = (grouping, estimate)
    return best


def _ensemble_label_search(
    screen_chunks, chunks, base, n_atoms: int, n_paths: int
) -> tuple[Grouping, SumEstimate]:
    """_exhaustive_label_search over an ensemble: one pass over
    screen_chunks() screens (random_sums._ensemble_screen), and the
    partitions near the top are decided over chunks()
    (random_sums._ensemble_decide); both yield the ensemble's (N, paths, d)
    values in chunks."""
    screen, bound = _ensemble_screen(screen_chunks, base, n_atoms)
    decide = _ensemble_decide(chunks, base, n_paths)
    return _exhaustive_label_search(n_atoms, screen, bound, decide)


def _resolve_mode(mode: str, n_atoms: int) -> str:
    """The search mode that mode names: "auto" is exhaustive up to 12
    atoms and contiguous-plus-greedy beyond."""
    if mode not in RANDOMIZED_MODES:
        raise ValueError(f"mode must be one of {RANDOMIZED_MODES}, got {mode!r}")
    if mode == "auto":
        return "exhaustive" if n_atoms <= 12 else "contiguous+greedy"
    return mode


def randomized_variation_norm(
    values,
    space,
    mode: str = "auto",
    stream: RandomStream | None = None,
    samples: int = 0,
) -> NormReport:
    """Randomized variation norm: sup over groupings of
    sqrt(E || sum_m r_m G(B_m) ||^2) with Rademacher signs and no weight
    normalization.

    values is atom-indexed on axis 0: shape (N, d) with a NormedSpace, or
    (N, paths, d) with an EmpiricalL2Space.  The supremum location depends on
    the input (merging aligned blocks can win), so the default search is
    exhaustive for N <= 12 and contiguous-plus-greedy-merge beyond that.
    Objectives are exact sign enumerations up to 20 blocks; the stream and
    samples are only consulted past that.

    Every search sees covering groupings only, which reach the supremum over
    all groupings.  The winner has the highest objective, then the smallest
    sort_key.  The exhaustive search (_exhaustive_label_search) finds the
    grouping and moment that one rademacher_sum_sq call per grouping would,
    for (N, d) values and ensembles alike, from label rows screened in
    chunks; only rows near the top become Groupings.  An ensemble's tables
    are built over chunk views of its paths.  The contiguous and greedy
    modes evaluate one grouping at a time.
    """
    arr = np.asarray(values, dtype=float)
    n_atoms = arr.shape[0]
    mode_used = _resolve_mode(mode, n_atoms)

    if mode_used == "exhaustive":
        arr = _check_values(arr, space)
        if isinstance(space, EmpiricalL2Space):
            # the screen takes the paths in chunk views, the decision all of
            # them at once
            n_paths, dim = arr.shape[1:]
            chunk = _ensemble_chunk(n_atoms, dim, _table_size(n_atoms, space.is_hilbert))
            spans = list(_path_spans(n_paths, chunk))
            grouping, moment = _ensemble_label_search(
                lambda: (arr[:, s] for s in spans), lambda: [arr], space.base, n_atoms, n_paths
            )
        else:
            screen, _ = _ensemble_screen(lambda: [arr[:, None]], space, n_atoms)

            def decide(groupings):
                return [rademacher_sum_sq(block_sums(arr, g), space) for g in groupings]

            bound = _table_rounding_bound(arr, space)
            grouping, moment = _exhaustive_label_search(n_atoms, screen, bound, decide)
        return NormReport(float(np.sqrt(moment.value)), moment, grouping, mode_used)

    cache: dict[Grouping, SumEstimate] = {}
    counter = itertools.count()

    def evaluate(grouping: Grouping) -> SumEstimate:
        found = cache.get(grouping)
        if found is None:
            sub = stream.substream(next(counter)) if stream is not None else None
            found = rademacher_sum_sq(
                block_sums(arr, grouping), space, sub, samples
            )
            cache[grouping] = found
        return found

    if mode_used == "contiguous":
        candidates: Iterable[Grouping] = enumerate_groupings(n_atoms, "contiguous")
    elif mode_used == "greedy":
        candidates = _greedy_trajectory(n_atoms, evaluate)
    else:  # contiguous+greedy
        def chain() -> Iterator[Grouping]:
            if n_atoms <= 20:
                yield from enumerate_groupings(n_atoms, "contiguous")
            yield from _greedy_trajectory(n_atoms, evaluate)

        candidates = chain()

    grouping, moment = _search_best(candidates, evaluate)
    return NormReport(float(np.sqrt(moment.value)), moment, grouping, mode_used)
