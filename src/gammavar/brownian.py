"""Set-indexed Brownian ensembles and empirical stochastic integrals.

A Brownian ensemble holds M independent paths of atom increments, each entry
distributed N(0, mu(A_n)) and independent across atoms.  Pairing a step
density phi with an ensemble induces the empirical measure
G(A) = sum_{n in A} phi_n * dW_n, whose values live in L2(paths; X).  The
identities verified here: the gamma-variation norm of the density's measure,
the randomized variation norm of G, and the root second moment of the full
integral all estimate the same number, and block sign flips leave the
integral's second moment unchanged.  Both checks stream their paths: the
increments come in chunks of paths (_increment_blocks), each turned into its
contributions phi_n dW_n, so no (N, paths, d) array of G is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .groupings import Grouping, PartitionMasks, _block_sum
from .measures import StepFunction, measure_from_density
from .norms import NormReport, _resolve_mode, _search, gamma_variation_norm
from .random_sums import (
    _ENSEMBLE_CHUNK_FLOATS,
    Comparison,
    RandomStream,
    SumEstimate,
    _ensemble_chunk,
    _ensemble_decide,
    _ensemble_moments,
    _ensemble_screen,
    _estimate_from_path_stats,
    _path_spans,
    _table_size,
    compare_estimates,
)
from .spaces import AtomPartition

MIN_PATHS = 2


class BrownianEnsemble:
    """M sampled paths of independent atom increments, entry n ~ N(0, mu(A_n)).

    The ensemble keeps a read-only copy of the caller's paths, so changing
    them afterwards does not change the ensemble."""

    def __init__(self, partition: AtomPartition, paths):
        self._adopt(partition, np.array(paths, dtype=float))

    def _adopt(self, partition: AtomPartition, arr: np.ndarray) -> None:
        """Take arr itself as the paths, read-only; no one else may hold it."""
        if arr.ndim != 2 or arr.shape[1] != partition.n_atoms:
            raise ValueError(
                f"paths must have shape (n_paths, {partition.n_atoms}), got {arr.shape}"
            )
        if arr.shape[0] < MIN_PATHS:
            raise ValueError(
                f"an ensemble needs at least {MIN_PATHS} paths, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        self.partition = partition
        self.paths = arr


def _increment_blocks(
    partition: AtomPartition, n_paths: int, rng: np.random.Generator, chunk: int, threads: int = 1
) -> Iterator[tuple[slice, np.ndarray]]:
    """The next n_paths sampled paths from rng, those of sample_brownian
    from a stream's generator, as (span, block) pairs over the spans of
    random_sums._path_spans, of chunk paths each, a one-path remainder
    joining the last: block is a fresh (paths in span, n_atoms) array,
    scaled in place.  standard_normal consumes the generator in order, so
    the blocks stacked are sample_brownian's paths bit for bit at any chunk
    size, and a pass that ends leaves the generator at the path after its
    last.  With threads >= 2 and chunks of half _ENSEMBLE_CHUNK_FLOATS
    draws or more (drawn ahead, the randomisation sweep's smaller chunks ran
    slower), a helper thread, the generator's only user, draws each block
    while the caller works on the one before; closing the pass joins it."""
    scale = np.sqrt(partition.weights)[None, :]
    spans = list(_path_spans(n_paths, chunk))

    def draw(span: slice) -> np.ndarray:
        block = rng.standard_normal((span.stop - span.start, partition.n_atoms))
        block *= scale
        return block

    if threads < 2 or len(spans) < 2 or 2 * chunk * partition.n_atoms < _ENSEMBLE_CHUNK_FLOATS:
        yield from zip(spans, map(draw, spans))
        return
    # imported here: imported before suites compiles, it raised each run's peak RSS by 0.6 MB
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(draw, spans[0])
        for span, after in zip(spans, spans[1:] + [None]):
            block, ahead = ahead.result(), after and helper.submit(draw, after)
            yield span, block


def _check_paths(n_paths: int, minimum: int = MIN_PATHS) -> None:
    if n_paths < minimum:
        raise ValueError(
            f"sampling an ensemble requires at least {minimum} paths, got {n_paths}"
        )


def sample_brownian(
    partition: AtomPartition, n_paths: int, stream: RandomStream
) -> BrownianEnsemble:
    """Draw an ensemble of independent scaled-Gaussian atom increments, as
    one block of _increment_blocks.  The draws are scaled in place and
    become the ensemble's paths uncopied."""
    _check_paths(n_paths)
    ((_, paths),) = _increment_blocks(partition, n_paths, stream.generator(), n_paths)
    ensemble = BrownianEnsemble.__new__(BrownianEnsemble)
    ensemble._adopt(partition, paths)
    return ensemble


def stochastic_integral(density: StepFunction, ensemble: BrownianEnsemble) -> np.ndarray:
    """Per-path integral of the step density against the ensemble; returns
    shape (n_paths, dim)."""
    ours, theirs = density.partition, ensemble.partition
    if ours is not theirs and not np.array_equal(ours.weights, theirs.weights):
        raise ValueError("density and ensemble must share the same partition")
    # the paths as they stand, C-ordered as ensemble_search's chunks
    return ensemble.paths @ density.values


def integral_moment(density: StepFunction, ensemble: BrownianEnsemble) -> SumEstimate:
    """Empirical second moment of the full-space integral, std error over paths."""
    integral = stochastic_integral(density, ensemble)
    return _estimate_from_path_stats(density.space.norm_sq(integral))


# --- identity checks -----------------------------------------------------------


@dataclass(frozen=True)
class IntegralIdentityReport:
    """Three routes to the same number, with pairwise consistency verdicts.

    variation: gamma-variation norm of the measure with density phi (exact for
    Hilbert targets, l1 and linf up to R^3).  randomized: randomized
    variation norm of the induced empirical measure, the held-out moment of
    the grouping that the search selects (ensemble_search).  integral: root
    second moment of the full integral.  The two empirical legs share one
    path ensemble: the randomized moment is taken on its second half, the
    integral on all of it."""

    variation: NormReport
    randomized: NormReport
    integral: SumEstimate
    comparisons: dict[str, Comparison]

    @property
    def consistent(self) -> bool:
        return all(c.consistent for c in self.comparisons.values())


def ensemble_search(
    density: StepFunction,
    n_paths: int,
    stream: RandomStream,
    mode="exhaustive",
    threads: int = 1,
) -> tuple[Grouping, SumEstimate, SumEstimate]:
    """The randomized variation of the empirical measure that density
    induces on sample_brownian(density.partition, n_paths, stream), and the
    integral's moment on the same paths, with no paths-sized array but a
    few (paths,) rows per grouping decided at once: the winner of the
    search in a resolved mode (norms._resolve_mode), or among a list of
    groupings, its held-out moment, and the integral moment.

    The search selects on the first n_paths // 2 paths, and the winner's
    moment comes from one pass over the rest (sample splitting, Cox 1975):
    the largest of many noisy estimates of one number is biased upward, an
    estimate on paths it was not chosen on is not.  Each half takes at
    least MIN_PATHS paths.  The paths come in chunks of _increment_blocks,
    each turned into its contributions phi_n dW_n.  The selection draws its
    paths again for every pass, and its first pass fills the integral's
    per-path statistic on them and saves the generator's state, from which
    the held-out pass draws the rest and fills their statistic.  An
    exhaustive search screens every set partition in one pass
    (random_sums._ensemble_screen); every search (norms._search) decides
    its groupings in batches of one pass each (random_sums._ensemble_decide).
    Every statistic is elementwise over paths, so the estimates keep the
    bits of their halves' ensembles, as far as the products keep theirs at
    every chunk size (_ensemble_chunk): the integral's are integral_moment's
    on sample_brownian's ensemble."""
    _check_paths(n_paths, 2 * MIN_PATHS)
    partition, space, values = density.partition, density.space, density.values
    n_atoms, dim = values.shape
    rows = _table_size(n_atoms, space.is_hilbert) if mode == "exhaustive" else n_atoms
    chunk = _ensemble_chunk(n_atoms, dim, rows)
    selected, integral, state = n_paths // 2, np.empty(n_paths), None
    carry = np.empty((0, n_atoms))

    def blocks(rng, start, count):
        nonlocal carry
        fill = state is None or start > 0
        for span, block in _increment_blocks(partition, count, rng, chunk, threads):
            if fill:
                # the integral's products start at multiples of 8 paths, as
                # the whole ensemble's groups do, and the last one ends it;
                # the paths past the last multiple wait for the next block
                paths, at = np.concatenate((carry, block)), start + span.start - len(carry)
                end = len(paths) if at + len(paths) == n_paths else len(paths) // 8 * 8
                integral[at : at + end] = space.norm_sq(paths[:end] @ values)
                carry = paths[end:]
            yield np.einsum("mn,nd->nmd", block, values)

    def chunks():
        nonlocal state
        rng = stream.generator()
        yield from blocks(rng, 0, selected)
        state = state or rng.bit_generator.state

    decide = _ensemble_decide(chunks, space, n_atoms, selected)
    grouping, _ = _search(
        n_atoms, mode, decide, lambda: _ensemble_screen(chunks, space, n_atoms)
    )
    rng = stream.generator()
    rng.bit_generator.state = state
    rest = n_paths - selected
    held_out = _ensemble_decide(lambda: blocks(rng, selected, rest), space, n_atoms, rest)
    (moment,) = held_out([grouping])
    return grouping, moment, _estimate_from_path_stats(integral)


def verify_integral_identity(
    density: StepFunction,
    n_paths: int,
    stream: RandomStream,
    samples: int = 0,
    search_mode: str = "auto",
    z: float = 3.0,
    threads: int = 1,
) -> IntegralIdentityReport:
    """Check the triple identity between the variation norm of the density's
    measure, the randomized variation of the induced empirical measure, and
    the integral's root second moment.  The search in every mode streams
    its paths, and the randomized moment is the selected grouping's on the
    paths held out of the selection (ensemble_search)."""
    measure = measure_from_density(density)
    variation = gamma_variation_norm(measure, stream.substream(0), samples)
    mode = _resolve_mode(search_mode, density.n_atoms)
    grouping, moment, integral = ensemble_search(
        density, n_paths, stream.substream(1), mode, threads
    )
    randomized = NormReport(float(np.sqrt(moment.value)), moment, grouping, mode)
    comparisons = {
        "variation_vs_randomized": compare_estimates(
            variation.moment, randomized.moment, z=z
        ),
        "variation_vs_integral": compare_estimates(variation.moment, integral, z=z),
        "randomized_vs_integral": compare_estimates(randomized.moment, integral, z=z),
    }
    return IntegralIdentityReport(variation, randomized, integral, comparisons)


@dataclass(frozen=True)
class RandomisationSweep:
    """The randomisation identity over many set partitions, as arrays
    indexed like their block masks (groupings), with the z-test gap <=
    tolerance = z * hypot(signed error, plain error) of compare_estimates
    on Monte Carlo estimates."""

    groupings: PartitionMasks
    signed_value: np.ndarray
    signed_error: np.ndarray
    plain: SumEstimate
    gap: np.ndarray
    tolerance: np.ndarray
    consistent: np.ndarray


def randomisation_identity_sweep(
    density: StepFunction,
    groupings: PartitionMasks,
    n_paths: int,
    stream: RandomStream,
    z: float = 3.0,
    threads: int = 1,
) -> RandomisationSweep:
    """The sign-averaged moment of each set partition's block sum against
    the plain moment of the same sum, paired on the paths of
    sample_brownian(density.partition, n_paths, stream) and the empirical
    measure G that density induces on them.  Independence and symmetry of
    the true block values make every sign pattern equidistributed, so the
    two agree in expectation.

    The partitions come as block masks of the density's atoms
    (ValueError for another atom count), so the plain side is one
    estimate: all atoms summed in ascending order.  The signed side is
    random_sums._ensemble_moments on the masks: the atom-sign table's path
    mean and covariance, or in a Hilbert base the per-path closed form
    sum_m ||G(B_m)||^2.  A partition of more than ENUMERATION_LIMIT blocks
    outside a Hilbert base raises ValueError before any path is drawn.
    The paths come in the chunks of _increment_blocks that the kernel asks
    for, each turned into its contributions phi_n dW_n; the first pass
    fills the plain side's per-path statistic."""
    masks, n_atoms = groupings.masks, density.n_atoms
    if masks.shape[1] != n_atoms:
        raise ValueError(f"groupings must be set partitions of the {n_atoms} atoms")
    _check_paths(n_paths)
    space, plain, first = density.space, np.empty(n_paths), True

    def chunks(size):
        nonlocal first
        fill, first = first, False
        rng = stream.generator()
        for span, block in _increment_blocks(density.partition, n_paths, rng, size, threads):
            contributions = np.einsum("mn,nd->nmd", block, density.values)
            if fill:
                plain[span] = space.norm_sq(_block_sum(contributions, list(range(n_atoms))))
            yield contributions

    value, error = _ensemble_moments(chunks, masks, space, n_paths)
    if first:  # no partition took a pass over the paths
        for _ in chunks(n_paths):
            pass
    plain = _estimate_from_path_stats(plain)
    gap = np.abs(value - plain.value)
    tolerance = z * np.hypot(error, plain.std_error)
    return RandomisationSweep(groupings, value, error, plain, gap, tolerance, gap <= tolerance)
