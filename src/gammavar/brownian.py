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

import struct
from dataclasses import dataclass

import numpy as np

from .groupings import Grouping, _distinct_sums
from .measures import StepFunction, measure_from_density
from .norms import NormReport, gamma_variation_norm, randomized_variation_norm
from .random_sums import (
    ENUMERATION_LIMIT,
    METHOD_MONTE_CARLO,
    Comparison,
    RandomStream,
    SumEstimate,
    _estimate_from_path_stats,
    _path_moments,
    _path_norm_sq,
    compare_estimates,
    ensemble_rademacher_moments,
)
from .spaces import AtomPartition, EmpiricalL2Space, NormedSpace

MIN_PATHS = 2

BINARY_MAGIC = b"GVLB"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, n_paths, n_atoms


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


def sample_brownian(
    partition: AtomPartition, n_paths: int, stream: RandomStream
) -> BrownianEnsemble:
    """Draw an ensemble of independent scaled-Gaussian atom increments.  The
    draws are scaled in place and become the ensemble's paths uncopied."""
    if n_paths < MIN_PATHS:
        raise ValueError(
            f"sampling an ensemble requires at least {MIN_PATHS} paths, got {n_paths}"
        )
    rng = stream.generator()
    paths = rng.standard_normal((n_paths, partition.n_atoms))
    paths *= np.sqrt(partition.weights)[None, :]
    ensemble = BrownianEnsemble.__new__(BrownianEnsemble)
    ensemble._adopt(partition, paths)
    return ensemble


def dump_ensemble(ensemble: BrownianEnsemble, file_path) -> None:
    """Write paths as a flat binary dump: 16-byte header (magic GVLB, version,
    n_paths, n_atoms as little-endian u32) then row-major little-endian doubles."""
    with open(file_path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                BINARY_MAGIC, BINARY_VERSION, ensemble.n_paths, ensemble.n_atoms
            )
        )
        fh.write(np.ascontiguousarray(ensemble.paths, dtype="<f8").tobytes())


def load_ensemble_paths(file_path) -> np.ndarray:
    """Read a binary dump back into an (n_paths, n_atoms) array."""
    with open(file_path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated ensemble dump header")
        magic, version, n_paths, n_atoms = _HEADER.unpack(header)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        if version != BINARY_VERSION:
            raise ValueError(f"unsupported dump version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n_paths * n_atoms:
        raise ValueError("ensemble dump payload does not match header shape")
    return data.reshape(n_paths, n_atoms).astype(float)


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
    the integral's root second moment."""
    measure = measure_from_density(density)
    variation = gamma_variation_norm(measure, stream.substream(0), samples)
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

    @property
    def consistent(self) -> bool:
        return self.comparison.consistent

    def to_document(self) -> dict:
        return {
            "grouping": self.grouping.to_lists(),
            "signed": self.signed.to_document(),
            "plain": self.plain.to_document(),
            "comparison": self.comparison.to_document(),
        }


def randomisation_identity_sweep(
    measure: EmpiricalVectorMeasure,
    groupings,
    z: float = 3.0,
) -> list[RandomisationCheck]:
    """check_randomisation_identity over many groupings, batched.

    Independence and symmetry of the true block values make every sign pattern
    equidistributed, so the sign-enumerated average and the plain moment agree
    in expectation; both sides here share the measure's path ensemble.

    The signed side is random_sums.ensemble_rademacher_moments, the kernel
    of the randomized variation norm over ensembles: exact sign enumeration,
    or in a Hilbert base the per-path closed form sum_m ||G(B_m)||^2, which
    the parallelogram law makes the sign average.  The plain side sums each
    distinct covered atom set once, in ascending atom order as block_sums
    sums it.
    """
    groupings = list(groupings)
    for grouping in groupings:
        if grouping.n_blocks > ENUMERATION_LIMIT:
            raise ValueError(
                f"sign enumeration is capped at {ENUMERATION_LIMIT} blocks, "
                f"got {grouping.n_blocks}"
            )
    n_paths, dim = measure.n_paths, measure.space.dim
    signed = ensemble_rademacher_moments(
        measure.contributions, groupings, measure.empirical_space
    )
    flat = measure.contributions.reshape(measure.n_atoms, n_paths * dim)
    covered, covered_rows = _distinct_sums(flat, [g.covered for g in groupings])
    path_norm_sq = _path_norm_sq(measure.space, n_paths, dim)
    plain_value, plain_error = _path_moments(path_norm_sq(covered))
    plains = [
        SumEstimate(value, error, n_paths, METHOD_MONTE_CARLO)
        for value, error in zip(plain_value.tolist(), plain_error.tolist())
    ]
    return [
        RandomisationCheck(grouping, sign, plains[row], compare_estimates(sign, plains[row], z=z))
        for grouping, sign, row in zip(groupings, signed, covered_rows.tolist())
    ]


def check_randomisation_identity(
    measure: EmpiricalVectorMeasure, grouping: Grouping, z: float = 3.0
) -> RandomisationCheck:
    """The sign-averaged moment of the grouping's block sum against the plain
    empirical moment of the same block sum, paired on one path ensemble."""
    return randomisation_identity_sweep(measure, [grouping], z=z)[0]
