"""Set-indexed Brownian ensembles and empirical stochastic integrals.

A Brownian ensemble holds M independent paths of atom increments, each entry
distributed N(0, mu(A_n)) and independent across atoms.  Pairing a step
density phi with an ensemble induces the empirical measure
G(A) = sum_{n in A} phi_n * dW_n, whose values live in the empirical
L2(paths; X) space.  The identities verified here: the gamma-variation norm of
the density's measure, the randomized variation norm of G, and the root second
moment of the full integral all estimate the same number, and block sign flips
leave the integral's second moment unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .groupings import Grouping, PartitionMasks, _block_sum
from .measures import StepFunction, measure_from_density
from .norms import NormReport, _resolve_mode, _search, gamma_variation_norm
from .random_sums import (
    METHOD_MONTE_CARLO,
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
from .spaces import AtomPartition, EmpiricalL2Space, NormedSpace

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

    @property
    def n_paths(self) -> int:
        return int(self.paths.shape[0])

    @property
    def n_atoms(self) -> int:
        return self.partition.n_atoms


def _increment_blocks(
    partition: AtomPartition, n_paths: int, stream: RandomStream, chunk: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """The n_paths sampled paths of sample_brownian, as (span, block) pairs
    over the spans of random_sums._path_spans, of chunk paths each, a
    one-path remainder joining the last: block is a fresh (paths in span,
    n_atoms) array, scaled in place.  Every block is drawn from the
    one generator of the stream, which standard_normal consumes in order,
    so the blocks stacked are sample_brownian's paths bit for bit at any
    chunk size."""
    rng = stream.generator()
    scale = np.sqrt(partition.weights)[None, :]
    for span in _path_spans(n_paths, chunk):
        block = rng.standard_normal((span.stop - span.start, partition.n_atoms))
        block *= scale
        yield span, block


def sample_brownian(
    partition: AtomPartition, n_paths: int, stream: RandomStream
) -> BrownianEnsemble:
    """Draw an ensemble of independent scaled-Gaussian atom increments, as
    one block of _increment_blocks.  The draws are scaled in place and
    become the ensemble's paths uncopied."""
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"sampling an ensemble requires at least {MIN_PATHS} paths, got {n_paths}"
        )
    ((_, paths),) = _increment_blocks(partition, n_paths, stream, n_paths)
    ensemble = BrownianEnsemble.__new__(BrownianEnsemble)
    ensemble._adopt(partition, paths)
    return ensemble


class EmpiricalVectorMeasure:
    """Per-atom, per-path vector contributions phi_n * dW_n.

    contributions has shape (n_atoms, n_paths, dim); the value of a union of
    atoms is the contribution sum, an (n_paths, dim) sample of the true
    measure's value in L2(paths; X)."""

    def __init__(self, partition: AtomPartition, space: NormedSpace, contributions):
        arr = np.asarray(contributions, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != partition.n_atoms or arr.shape[2] != space.dim:
            raise ValueError(
                f"contributions must have shape (n_atoms, n_paths, dim) = "
                f"({partition.n_atoms}, *, {space.dim}), got {arr.shape}"
            )
        if arr.shape[1] < MIN_PATHS:
            raise ValueError(f"need at least {MIN_PATHS} paths, got {arr.shape[1]}")
        self.partition = partition
        self.space = space
        self.contributions = arr

    @property
    def n_atoms(self) -> int:
        return self.partition.n_atoms

    @property
    def n_paths(self) -> int:
        return int(self.contributions.shape[1])

    @property
    def empirical_space(self) -> EmpiricalL2Space:
        return EmpiricalL2Space(self.space)


def _check_same_partition(a: AtomPartition, b: AtomPartition) -> None:
    if a is not b and not np.array_equal(a.weights, b.weights):
        raise ValueError("density and ensemble must share the same partition")


def stochastic_integral(
    density: StepFunction, ensemble: BrownianEnsemble, atoms=None
) -> np.ndarray:
    """Per-path integral of the step density against the ensemble over a union
    of atoms (all atoms when unspecified); returns shape (n_paths, dim)."""
    _check_same_partition(density.partition, ensemble.partition)
    if atoms is None:
        # the paths as they stand, C-ordered as ensemble_search's chunks
        return ensemble.paths @ density.values
    idx = density.partition._indices(atoms)
    return ensemble.paths[:, idx] @ density.values[idx]


def induced_randomized_measure(
    density: StepFunction, ensemble: BrownianEnsemble
) -> EmpiricalVectorMeasure:
    """The empirical measure G(A_n) = phi_n * dW_n induced by density and ensemble."""
    _check_same_partition(density.partition, ensemble.partition)
    contributions = np.einsum("mn,nd->nmd", ensemble.paths, density.values)
    return EmpiricalVectorMeasure(density.partition, density.space, contributions)


def integral_moment(density: StepFunction, ensemble: BrownianEnsemble) -> SumEstimate:
    """Empirical second moment of the full-space integral, std error over paths."""
    integral = stochastic_integral(density, ensemble)
    return _estimate_from_path_stats(density.space.norm_sq(integral))


# --- identity checks -----------------------------------------------------------


@dataclass(frozen=True)
class IntegralIdentityReport:
    """Three routes to the same number, with pairwise consistency verdicts.

    variation: gamma-variation norm of the measure with density phi (exact for
    Hilbert targets).  randomized: randomized variation norm of the induced
    empirical measure.  integral: root second moment of the full integral.
    The two empirical legs share one path ensemble (paired comparison)."""

    variation: NormReport
    randomized: NormReport
    integral: SumEstimate
    comparisons: dict[str, Comparison]

    @property
    def consistent(self) -> bool:
        return all(c.consistent for c in self.comparisons.values())

    def to_document(self) -> dict:
        return {
            "variation": self.variation.to_document(),
            "randomized": self.randomized.to_document(),
            "integral": self.integral.to_document(),
            "comparisons": {k: c.to_document() for k, c in self.comparisons.items()},
        }


def ensemble_search(
    density: StepFunction,
    n_paths: int,
    stream: RandomStream,
    mode="exhaustive",
) -> tuple[Grouping, SumEstimate, SumEstimate]:
    """The randomized variation of the empirical measure that density
    induces on sample_brownian(density.partition, n_paths, stream), and the
    integral's moment on the same paths, with no paths-sized array but a
    few (paths,) rows per grouping decided at once: the winner of the
    search in a resolved mode (norms._resolve_mode), or among a list of
    groupings, its moment, and the integral moment.

    The paths come in chunks of _increment_blocks, each turned into its
    contributions phi_n dW_n, and are drawn again for every pass, each of
    which keeps the integral's per-path statistic.  An exhaustive search
    screens every set partition in one pass (random_sums._ensemble_screen);
    every search (norms._search) decides its groupings in batches of one
    pass each (random_sums._ensemble_decide).  Every statistic is
    elementwise over paths, so the estimates keep the bits of
    randomized_variation_norm and integral_moment on the whole ensemble,
    as far as the products keep theirs at every chunk size
    (_ensemble_chunk)."""
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"sampling an ensemble requires at least {MIN_PATHS} paths, got {n_paths}"
        )
    partition, space, values = density.partition, density.space, density.values
    n_atoms, dim = values.shape
    rows = _table_size(n_atoms, space.is_hilbert) if mode == "exhaustive" else n_atoms
    chunk = _ensemble_chunk(n_atoms, dim, rows)
    integral = np.empty(n_paths)

    def chunks():
        for span, block in _increment_blocks(partition, n_paths, stream, chunk):
            integral[span] = space.norm_sq(block @ values)
            yield np.einsum("mn,nd->nmd", block, values)

    decide = _ensemble_decide(chunks, space, n_atoms, n_paths)
    grouping, moment = _search(
        n_atoms, mode, decide, lambda: _ensemble_screen(chunks, space, n_atoms)
    )
    return grouping, moment, _estimate_from_path_stats(integral)


def verify_integral_identity(
    density: StepFunction,
    n_paths: int,
    stream: RandomStream,
    samples: int = 0,
    search_mode: str = "auto",
    z: float = 3.0,
) -> IntegralIdentityReport:
    """Check the triple identity between the variation norm of the density's
    measure, the randomized variation of the induced empirical measure, and
    the integral's root second moment.  The search in every mode streams
    its paths (ensemble_search)."""
    measure = measure_from_density(density)
    variation = gamma_variation_norm(measure, stream.substream(0), samples)
    mode = _resolve_mode(search_mode, density.n_atoms)
    grouping, moment, integral = ensemble_search(density, n_paths, stream.substream(1), mode)
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
class RandomisationCheck:
    """Sign-averaged vs plain second moment of a grouping's block sum."""

    grouping: Grouping
    signed: SumEstimate
    plain: SumEstimate
    comparison: Comparison

    def to_document(self) -> dict:
        return {
            "grouping": self.grouping.to_lists(),
            "signed": self.signed.to_document(),
            "plain": self.plain.to_document(),
            "comparison": self.comparison.to_document(),
        }


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
    z: float

    def check(self, i: int) -> RandomisationCheck:
        """Partition i's check, the one whose Grouping it makes; both sides
        are means over the same paths."""
        value, error = float(self.signed_value[i]), float(self.signed_error[i])
        signed = SumEstimate(value, error, self.plain.samples, METHOD_MONTE_CARLO)
        gap, tolerance = float(self.gap[i]), float(self.tolerance[i])
        comparison = Comparison(bool(self.consistent[i]), gap, tolerance, self.z)
        return RandomisationCheck(self.groupings[i], signed, self.plain, comparison)


def randomisation_identity_sweep(
    measure: EmpiricalVectorMeasure,
    groupings: PartitionMasks,
    z: float = 3.0,
) -> RandomisationSweep:
    """The sign-averaged moment of each set partition's block sum against
    the plain moment of the same sum, paired on the measure's path
    ensemble.  Independence and symmetry of the true block values make
    every sign pattern equidistributed, so the two agree in expectation.

    The partitions come as block masks of the measure's atoms
    (ValueError for another atom count), so the plain side is one
    estimate: all atoms summed in ascending order.  The signed side is the
    randomized variation norm's ensemble kernel
    (random_sums._ensemble_moments) on the masks: the atom-sign table's
    path mean and covariance, within random_sums._table_rounding_bound of
    one sign enumeration per partition, or in a Hilbert base the per-path
    closed form sum_m ||G(B_m)||^2."""
    masks, n_atoms = groupings.masks, measure.n_atoms
    if masks.shape[1] != n_atoms:
        raise ValueError(f"groupings must be set partitions of the {n_atoms} atoms")
    value, error = _ensemble_moments(measure.contributions, masks, measure.empirical_space)
    total = _block_sum(measure.contributions, list(range(n_atoms)))
    plain = _estimate_from_path_stats(measure.space.norm_sq(total))
    gap = np.abs(value - plain.value)
    tolerance = z * np.hypot(error, plain.std_error)
    return RandomisationSweep(groupings, value, error, plain, gap, tolerance, gap <= tolerance, z)
