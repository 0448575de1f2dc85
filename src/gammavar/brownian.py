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

from .groupings import Grouping, _block_sum
from .measures import StepFunction, measure_from_density
from .norms import (
    NormReport,
    _ensemble_label_search,
    _resolve_mode,
    _search_best,
    gamma_variation_norm,
    randomized_variation_norm,
)
from .random_sums import (
    METHOD_MONTE_CARLO,
    Comparison,
    RandomStream,
    SumEstimate,
    _ensemble_chunk,
    _ensemble_decide,
    _ensemble_moments,
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
        idx = np.arange(density.n_atoms)
    else:
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
    groupings: list[Grouping] | None = None,
) -> tuple[Grouping, SumEstimate, SumEstimate]:
    """The randomized variation of the empirical measure that density
    induces on sample_brownian(density.partition, n_paths, stream), and the
    integral's moment on the same paths, with no paths-sized array but a
    few (paths,) rows: the winning grouping among every set partition, or
    among groupings when given, its moment, and the integral moment.

    The paths come in chunks of _increment_blocks, each turned into its
    contributions phi_n dW_n.  A search takes two passes over the chunks,
    drawn again for the second: the first screens every set partition
    (random_sums._ensemble_screen) and keeps the integral's per-path
    statistic, the second takes per-path statistics of the partitions near
    the top only (norms._ensemble_label_search).  Given groupings, one
    pass decides them all.  Every statistic is elementwise over paths, so
    the estimates keep the bits of randomized_variation_norm and
    integral_moment on the whole ensemble, as far as the products keep
    theirs at every chunk size (_ensemble_chunk)."""
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"sampling an ensemble requires at least {MIN_PATHS} paths, got {n_paths}"
        )
    partition, space = density.partition, density.space
    # laid out as integral_moment's gathered copy
    values = np.ascontiguousarray(density.values)
    n_atoms, dim = values.shape
    rows = n_atoms if groupings is not None else _table_size(n_atoms, space.is_hilbert)
    chunk = _ensemble_chunk(n_atoms, dim, rows)
    integral = np.empty(n_paths)

    def chunks():
        for span, block in _increment_blocks(partition, n_paths, stream, chunk):
            integral[span] = space.norm_sq(block @ values)
            yield np.einsum("mn,nd->nmd", block, values)

    if groupings is None:
        grouping, moment = _ensemble_label_search(chunks, chunks, space, n_atoms, n_paths)
    else:
        found = dict(zip(groupings, _ensemble_decide(chunks, space, n_paths)(groupings)))
        grouping, moment = _search_best(groupings, found.__getitem__)
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
    the integral's root second moment.  An exhaustive search streams its
    paths (ensemble_search); the other modes search the sampled ensemble."""
    measure = measure_from_density(density)
    variation = gamma_variation_norm(measure, stream.substream(0), samples)
    mode = _resolve_mode(search_mode, density.n_atoms)
    if mode == "exhaustive":
        grouping, moment, integral = ensemble_search(density, n_paths, stream.substream(1))
        randomized = NormReport(float(np.sqrt(moment.value)), moment, grouping, mode)
    else:
        ensemble = sample_brownian(density.partition, n_paths, stream.substream(1))
        empirical = induced_randomized_measure(density, ensemble)
        randomized = randomized_variation_norm(
            empirical.contributions,
            empirical.empirical_space,
            mode=search_mode,
            stream=stream.substream(2),
            samples=samples,
        )
        integral = integral_moment(density, ensemble)
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
    """The randomisation identity over many groupings, as arrays indexed
    like groupings, with the z-test gap <= tolerance = z * hypot(signed
    error, plain error) of compare_estimates on Monte Carlo estimates."""

    groupings: list[Grouping]
    signed_value: np.ndarray
    signed_error: np.ndarray
    plain: SumEstimate
    gap: np.ndarray
    tolerance: np.ndarray
    consistent: np.ndarray
    z: float

    def check(self, i: int) -> RandomisationCheck:
        """Grouping i's check; both sides are means over the same paths."""
        value, error = float(self.signed_value[i]), float(self.signed_error[i])
        signed = SumEstimate(value, error, self.plain.samples, METHOD_MONTE_CARLO)
        gap, tolerance = float(self.gap[i]), float(self.tolerance[i])
        comparison = Comparison(bool(self.consistent[i]), gap, tolerance, self.z)
        return RandomisationCheck(self.groupings[i], signed, self.plain, comparison)


def randomisation_identity_sweep(
    measure: EmpiricalVectorMeasure,
    groupings,
    z: float = 3.0,
) -> RandomisationSweep:
    """The sign-averaged moment of each grouping's block sum against the
    plain moment of the same sum, paired on the measure's path ensemble.
    Independence and symmetry of the true block values make every sign
    pattern equidistributed, so the two agree in expectation.

    Every grouping must be a set partition of the measure's atoms
    (ValueError otherwise), so the plain side is one estimate: all atoms
    summed in ascending order.  The signed side is the randomized variation
    norm's ensemble kernel (random_sums._ensemble_moments) on the groupings'
    block masks, made once per call: the atom-sign table's path mean and
    covariance, within random_sums._table_rounding_bound of one sign
    enumeration per grouping, or in a Hilbert base the per-path closed form
    sum_m ||G(B_m)||^2.  Past 64 atoms the masks are Python ints in an
    object array, which the kernel takes as it takes integer masks."""
    groupings = list(groupings)
    n_atoms = measure.n_atoms
    rows = []
    for g in groupings:
        if g.n_atoms != n_atoms or sum(map(len, g.blocks)) != n_atoms:
            raise ValueError(f"groupings must be set partitions of the {n_atoms} atoms, got {g!r}")
        rows.append([sum(1 << a for a in b) for b in g.blocks] + [0] * (n_atoms - g.n_blocks))
    masks = np.array(rows, dtype=np.min_scalar_type((1 << n_atoms) - 1)).reshape(-1, n_atoms)
    value, error = _ensemble_moments(measure.contributions, masks, measure.empirical_space)
    total = _block_sum(measure.contributions, list(range(n_atoms)))
    plain = _estimate_from_path_stats(measure.space.norm_sq(total))
    gap = np.abs(value - plain.value)
    tolerance = z * np.hypot(error, plain.std_error)
    return RandomisationSweep(groupings, value, error, plain, gap, tolerance, gap <= tolerance, z)
