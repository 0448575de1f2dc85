"""Variation norms of atomic vector measures and the dual operator norm.

For a measure F on weighted atoms, the gamma-variation squared moment of a
grouping {B_1..B_k} is E || sum_m g_m F(B_m)/sqrt(mu(B_m)) ||^2 with standard
Gaussian coefficients; the norm is the supremum over groupings, which the
finest grouping attains.  That is the second moment of a centred Gaussian
vector with covariance Sigma_G = sum_m F(B_m) F(B_m)^T / mu(B_m), so the
norm and the per-grouping moments (SharedDrawMoments) are exact in Hilbert
spaces, in l1 and in the plane's linf, through one closed form in Sigma_G
(random_sums.covariance_moment) or the Hilbert sum of squared row norms.
The norm takes it on one matrix; the finest-partition suite's scan takes
every set partition's Sigma_G in batches of label rows, gathered from one
table of every block's mass and value, with the same bits.  Elsewhere the
norm samples and SharedDrawMoments shares one set of Gaussian draws across
groupings, one grouping at a time.  The dual view is the Gaussian-summing norm of the operator with
columns F(A_n)/sqrt(mu(A_n)), whose squared moment is E || T g ||^2 over the
full normalized-indicator basis, exact in the same spaces.

The randomized variation drops the 1/sqrt(mu) normalization and uses
Rademacher signs, so its supremum genuinely depends on the grouping and is
located by search.  The total variation is the exact sum of atom-value norms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .groupings import (
    MAX_ATOMS_CONTIGUOUS,
    Grouping,
    _block_sum,
    _mask_atoms,
    block_sums,
    check_enumeration_size,
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
    METHOD_EXACT_HILBERT,
    METHOD_MONTE_CARLO,
    _block_counts,
    _check_values,
    _coefficient_batches,
    _estimate_from_moments,
    _subset_sums,
    _table_screen,
    compare_estimates,
    covariance_moment,
    gaussian_sum_sq,
    has_covariance_moment,
    rademacher_sum_sq,
)
from .spaces import NormedSpace

RANDOMIZED_MODES = ("auto", "exhaustive", "contiguous", "greedy")
# Cap on the bytes of a chunk of label rows: the int8 labels and masks, and
# the temporaries of grouping_labels and of the screen, about 64 bytes a row
# (the finest-partition scan gathers a few hundred bytes a row, one block
# count at a time)
_LABEL_CHUNK_BYTES = 1 << 23


@dataclass(frozen=True)
class NormReport:
    """A norm value with its squared-moment estimate and attaining grouping."""

    norm: float
    moment: SumEstimate
    grouping: Grouping
    mode: str


@dataclass(frozen=True)
class DualityReport:
    """Measure-side and operator-side norms with their consistency verdict."""

    measure_report: NormReport
    operator_report: NormReport
    comparison: Comparison

    @property
    def consistent(self) -> bool:
        return self.comparison.consistent


def _normalized_vectors(measure: VectorMeasure) -> np.ndarray:
    return measure.values / np.sqrt(measure.partition.weights)[:, None]


def _grouping_matrix(measure: VectorMeasure, blocks: list[list[int]]) -> np.ndarray:
    """Atom-coefficient matrix realizing the Gaussian sum of a grouping, given
    as its blocks' atom lists, from the finest one.

    Row n is sqrt(w_n) F(B)/mu(B) for the block B containing atom n (zero for
    uncovered atoms), so right-multiplying a standard Gaussian matrix yields
    sum_m g_m F(B_m)/sqrt(mu(B_m)) in distribution, with draws shared across
    groupings for paired comparisons.
    """
    weights = measure.partition.weights
    mat = np.zeros_like(measure.values)
    for atoms in blocks:
        mat[atoms] = _block_sum(measure.values, atoms) / _block_sum(weights, atoms)
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
    """Squared-moment values of many groupings of one measure, given as rows
    of block masks (moments) or one Grouping at a time (moment).

    Exact where _gaussian_moment is, in Hilbert spaces, l1 in any dimension
    and linf in the plane, and then capped at MAX_ATOMS_ALL atoms: one
    table holds mu(B) and F(B) of every block B (random_sums._subset_sums,
    with _block_sum's bits), a grouping's rows F(B)/sqrt(mu(B)) give its
    covariance Sigma_G = sum_B F(B) F(B)^T / mu(B), and the rows of each
    block count are taken in one batch, through covariance_moment's stacked
    kernel or the Hilbert sum of squared row norms.  So a grouping's value
    is that of _gaussian_moment on its rows, bit for bit, and the finest
    grouping's is gamma_variation_norm's; these need no stream.  Other
    spaces share one set of Gaussian draws across all groupings (paired
    estimates), take them one grouping at a time, and need a stream and
    samples."""

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
            check_enumeration_size(measure.n_atoms, "all")
            weights = measure.partition.weights
            # mu(B) next to F(B), row mask B
            self._blocks = _subset_sums(np.column_stack((weights, measure.values)))
            self._method = METHOD_EXACT_HILBERT if space.is_hilbert else METHOD_EXACT_COVARIANCE
            self._samples = 0
        else:
            # the batches fill one array in turn, each freed before the next
            # is drawn: the peak is the draws and one batch
            self._draws, start = np.empty((samples, measure.n_atoms)), 0
            for (batch,) in _coefficient_batches([stream], samples, measure.n_atoms, "gaussian"):
                self._draws[start : start + len(batch)] = batch
                start += len(batch)
                del batch
            self._method, self._samples = METHOD_MONTE_CARLO, self._draws.shape[0]

    def moments(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values and std errors of the groupings whose blocks' atom
        bitmasks the rows of masks hold, block m in column m and 0 past the
        last, as groupings.grouping_labels lays them out."""
        space = self.measure.space
        n_blocks = _block_counts(masks)
        values, errors = np.empty(masks.shape[0]), np.zeros(masks.shape[0])
        for k in np.flatnonzero(np.bincount(n_blocks)).tolist():
            members = np.flatnonzero(n_blocks == k)
            if self._exact:
                sums = self._blocks[masks[members, :k]]
                # rows F(B)/sqrt(mu(B)), so Sigma_G = sum_B F(B) F(B)^T / mu(B)
                rows = sums[..., 1:] / np.sqrt(sums[..., :1])
                if space.is_hilbert:
                    values[members] = np.sum(space.norm_sq(rows), axis=-1)
                else:
                    values[members] = covariance_moment(rows.transpose(0, 2, 1) @ rows, space)
                continue
            for i in members.tolist():
                blocks = [_mask_atoms(m) for m in masks[i, :k].tolist()]
                draws = self._draws @ _grouping_matrix(self.measure, blocks)
                values[i], errors[i], _ = _estimate_from_moments([space.norm_sq(draws)])
        return values, errors

    def moment(self, grouping: Grouping) -> SumEstimate:
        """One grouping's estimate: moments of its one mask row."""
        row = [sum(1 << a for a in block) for block in grouping.blocks]
        (value,), (error,) = self.moments(np.array([row]))
        return SumEstimate(float(value), float(error), self._samples, self._method)


def _beats(value: float, grouping: Grouping, best_value: float, best: Grouping) -> bool:
    """Search order: the higher value wins; ties go to fewer blocks, then to the
    lexicographically smallest block structure."""
    return value > best_value or (
        value == best_value and grouping.sort_key() < best.sort_key()
    )


def _best(groupings: list[Grouping], estimates) -> tuple[Grouping, SumEstimate]:
    """The grouping with the highest estimate, in the order of _beats."""
    best = None
    for grouping, estimate in zip(groupings, estimates):
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


def _label_chunks(n_atoms: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The label rows and block masks of groupings.grouping_labels, in
    chunks of about _LABEL_CHUNK_BYTES."""
    mask_bytes = np.min_scalar_type((1 << n_atoms) - 1).itemsize
    rows = max(1, _LABEL_CHUNK_BYTES // (2 * n_atoms * (1 + mask_bytes) + 64))
    return grouping_labels(n_atoms, rows)


def _exhaustive_label_search(
    n_atoms: int, screen, bound: float, decide
) -> tuple[Grouping, SumEstimate]:
    """The winner of the exhaustive search over the set partitions of
    n_atoms atoms, with its estimate, in the order of _beats.

    Set partitions come as label rows with block masks, in chunks
    (_label_chunks), and each chunk is screened in one batch:
    screen(masks) gives (values, errors) whose values lie within bound of
    the estimates that decide(groupings) gives, so the winner lies within
    2 bound of the top screen value, and only rows that near the running
    top keep their values and labels.
    They are made Groupings and decided a block count at a time, in
    sort_key order.  A candidate wins only above the best value so far, so
    one whose screen value plus bound does not pass that is never
    decided."""
    top, kept = -np.inf, []
    for labels, masks in _label_chunks(n_atoms):
        values, _ = screen(masks)
        top = max(top, float(np.max(values)))
        near = ~(values < top - 2.0 * bound)
        kept.append((values[near], labels[near]))
    values, labels = (np.concatenate(part) for part in zip(*kept))
    n_blocks = labels.max(axis=1) + 1
    near = ~(values < np.max(values) - 2.0 * bound)
    groupings, estimates = [], []
    for k in np.flatnonzero(np.bincount(n_blocks[near])).tolist():
        rows = np.flatnonzero(near & (n_blocks == k))
        if groupings:
            rows = rows[~(values[rows] + bound <= _best(groupings, estimates)[1].value)]
        candidates = sorted(
            (grouping_from_labels(labels[i].tolist()) for i in rows.tolist()),
            key=Grouping.sort_key,
        )
        groupings += candidates
        estimates += decide(candidates)
    return _best(groupings, estimates)


def _resolve_mode(mode: str, n_atoms: int) -> str:
    """The search mode that mode names: "auto" is exhaustive up to 12
    atoms and contiguous-plus-greedy beyond."""
    if mode not in RANDOMIZED_MODES:
        raise ValueError(f"mode must be one of {RANDOMIZED_MODES}, got {mode!r}")
    if mode == "auto":
        return "exhaustive" if n_atoms <= 12 else "contiguous+greedy"
    return mode


def _search(n_atoms: int, mode, decide, screen) -> tuple[Grouping, SumEstimate]:
    """The winner of a randomized-variation search over the covering
    groupings of n_atoms atoms, with its estimate, in the order of _beats.

    mode is a resolved mode (_resolve_mode) or a list of the groupings to
    search.  decide(groupings) gives their estimates in one batch, and
    each grouping is decided once.  An exhaustive search screens every set
    partition with the (moments, bound) that screen() gives
    (_exhaustive_label_search).  A greedy search starts from the finest
    grouping and merges the pair of blocks whose merge most raises the
    estimate, each round's merges decided in one batch (the first round's
    with the finest grouping), until no merge raises it.
    contiguous+greedy searches the contiguous groupings, up to
    MAX_ATOMS_CONTIGUOUS atoms, and then greedily."""
    if mode == "exhaustive":
        return _exhaustive_label_search(n_atoms, *screen(), decide)
    found: dict[Grouping, SumEstimate] = {}

    def visit(groupings: list[Grouping]) -> list[SumEstimate]:
        new = [g for g in groupings if g not in found]
        found.update(zip(new, decide(new)))
        return [found[g] for g in groupings]

    if not isinstance(mode, str):
        return _best(mode, visit(mode))
    visited = []
    if mode == "contiguous" or (mode == "contiguous+greedy" and n_atoms <= MAX_ATOMS_CONTIGUOUS):
        visited = list(enumerate_groupings(n_atoms, "contiguous"))
        visit(visited)
    if mode != "contiguous":
        current = Grouping.finest(n_atoms)
        visited.append(current)
        while True:
            blocks = current.blocks
            merges = [
                Grouping(
                    [b for m, b in enumerate(blocks) if m not in (i, j)] + [blocks[i] + blocks[j]],
                    n_atoms,
                )
                for i, j in itertools.combinations(range(len(blocks)), 2)
            ]
            estimate, *estimates = visit([current, *merges])
            merged = _best(merges, estimates) if merges else None
            if merged is None or merged[1].value <= estimate.value:
                break
            current = merged[0]
            visited.append(current)
    return _best(visited, [found[g] for g in visited])


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

    values is atom-indexed on axis 0, shape (N, d).  The supremum location
    depends on the input (merging aligned blocks can win), so the default
    search is exhaustive for N <= 12 and contiguous-plus-greedy-merge
    beyond that.  Objectives are exact sign enumerations up to 20 blocks;
    the stream and samples are only consulted past that.

    Every search (_search) sees covering groupings only, which reach the
    supremum over all groupings.  The winner has the highest objective,
    then the smallest sort_key.  Each grouping is decided by one
    rademacher_sum_sq call, on the stream's substreams numbered in the
    order of the calls.  The exhaustive search screens label rows in
    chunks against one table, the values taken as one path; only rows
    near the top become Groupings and are decided.
    """
    arr = np.asarray(values, dtype=float)
    n_atoms = arr.shape[0]
    mode_used = _resolve_mode(mode, n_atoms)
    arr = _check_values(arr, space)
    streams = (stream.substream(k) if stream is not None else None for k in itertools.count())

    def decide(groupings):
        return [
            rademacher_sum_sq(block_sums(arr, g), space, next(streams), samples) for g in groupings
        ]

    grouping, moment = _search(n_atoms, mode_used, decide, lambda: _table_screen(arr, space))
    return NormReport(float(np.sqrt(moment.value)), moment, grouping, mode_used)
