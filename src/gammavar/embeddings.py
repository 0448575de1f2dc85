"""Embedding constants between a density's L2 norm and its measure's variation norm.

The map phi -> F with dF = phi dmu sends the Bochner space L2(mu; X) into the
measures of finite gamma-variation.  For Hilbert X it is an isometry.  For X
of type 2 the variation norm is bounded by a constant times the L2 norm, and
for cotype 2 the reverse bound holds up to the target's Gaussian cotype-2
constant C: the ratio ||F||_variation / ||phi||_L2 is at least 1/C, which is
below 1 off Hilbert space.  This module measures that ratio on seeded random
inputs and on canonical witnesses and supplies a proven lower bound on 1/C
for l_p targets; it records worst-case constants, leaving any assertion about
them to the verification suites.  A run of trials draws the atoms of one
block of trials at a time and takes their Gaussian moments, one stacked
product per coefficient batch, each trial keeping the bits of a run of its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import StepFunction
from .random_sums import RandomStream, _draw_blocks, _monte_carlo_moments
from .spaces import AtomPartition, NormedSpace

DIRECTIONS = ("type2", "cotype2")


def _random_atoms(
    stream: RandomStream, n_atoms: int, dim: int
) -> tuple[AtomPartition, np.ndarray]:
    """A partition of flat Dirichlet weights and one standard normal vector
    per atom, drawn from the stream's substream 0."""
    rng = stream.substream(0).generator()
    weights = rng.dirichlet(np.ones(n_atoms))
    weights = np.maximum(weights, 1e-9)  # guard against underflow
    return AtomPartition(weights / weights.sum()), rng.standard_normal((n_atoms, dim))


def l2_bochner_norm(density: StepFunction) -> float:
    """The L2(mu; X) norm sqrt(sum_n mu(A_n) ||phi_n||^2) of a step density."""
    weights = density.partition.weights
    return float(np.sqrt(np.sum(weights * density.space.norm_sq(density.values))))


def _embedding_ratios(
    weights: np.ndarray, values: np.ndarray, space: NormedSpace, streams: list, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """embedding_ratio of each nonvanishing step density with a row of
    weights and (N, d) values: the Hilbert closed form, or density t's
    moment drawn from streams[t] (random_sums._monte_carlo_moments)."""
    denominators = np.sqrt(np.sum(weights * space.norm_sq(values), axis=-1))
    rows = np.sqrt(weights)[..., None] * values
    if space.is_hilbert:
        return np.sqrt(np.sum(space.norm_sq(rows), axis=-1)) / denominators, np.zeros(len(rows))
    moments, errors, _ = _monte_carlo_moments(rows, space, streams, samples, "gaussian")
    roots = np.sqrt(moments)
    # delta method: se(sqrt(m)/b) = se(m) / (2 sqrt(m) b)
    return roots / denominators, errors / (2.0 * roots * denominators)


def embedding_ratio(
    density: StepFunction, stream: RandomStream | None = None, samples: int = 0
) -> tuple[float, float]:
    """Ratio of the density's measure variation norm to its L2 norm, with the
    Monte Carlo standard error of the ratio (0 when the moment is exact).

    The variation norm is evaluated at the finest covering grouping, which
    attains the supremum; a shared stream makes the ratio exactly invariant
    under rescaling the density."""
    if l2_bochner_norm(density) == 0.0:
        raise ValueError("a vanishing density has no embedding ratio")
    (ratio,), (error,) = _embedding_ratios(
        density.partition.weights[None], density.values[None], density.space, [stream], samples
    )
    return float(ratio), float(error)


@dataclass(frozen=True)
class EmbeddingReport:
    """Worst observed embedding ratio over seeded random trials.

    direction type2 looks for the largest ratio (upper constant), cotype2 for
    the smallest (lower constant).  ratios and std_errors are per-trial."""

    direction: str
    trials: int
    ratios: np.ndarray
    std_errors: np.ndarray

    @property
    def worst_index(self) -> int:
        if self.direction == "type2":
            return int(np.argmax(self.ratios))
        return int(np.argmin(self.ratios))

    @property
    def worst_ratio(self) -> float:
        return float(self.ratios[self.worst_index])

    @property
    def worst_std_error(self) -> float:
        return float(self.std_errors[self.worst_index])


def _validate_direction(direction: str, space: NormedSpace) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if direction == "type2" and not space.p >= 2:
        raise ValueError(f"the type-2 direction needs p >= 2, got p = {space.p}")
    if direction == "cotype2" and not space.p <= 2:
        raise ValueError(f"the cotype-2 direction needs p <= 2, got p = {space.p}")


def cotype2_floor(space: NormedSpace) -> float:
    """A proven lower bound on 1/C, C the Gaussian cotype-2 constant of an l_p
    target with 1 <= p <= 2: every embedding ratio in the space is at least it.

    Write Y = sum_n g_n x_n with x_n = sqrt(mu(A_n)) phi_n, so the squared
    ratio is E||Y||^2 / sum_n ||x_n||^2.

    Any dimension: gamma_p = (E|g|^p)^(1/p) = (2^(p/2) G((p+1)/2) / sqrt(pi))^(1/p),
    G the Gamma function.  Jensen with 2/p >= 1 gives
    E||Y||_p^2 >= (E||Y||_p^p)^(2/p) = gamma_p^2 ||(sigma_i)_i||_p^2, sigma_i
    the standard deviation of coordinate i.  For p <= 2, l_p(l_2) dominates
    l_2(l_p) (Minkowski), so ||(sigma_i)_i||_p^2 >= sum_n ||x_n||_p^2.  At
    p = 2 the bound is 1, the Hilbert case.  For 1 < p < 2 it is proven but
    not sharp: planar searches at p = 1.5 find no ratio below about 0.955.

    l1 in the plane: sqrt(1/2 + 1/pi), exact.  ||x||_1 = max(|x1+x2|, |x1-x2|),
    so l1(2) is isometric to linf(2), where max(a^2, b^2) = (a^2+b^2)/2 + |uv|/2
    with u = a-b and v = a+b.  Nabeya's formula gives
    E|UV| >= (2/pi) sigma_u sigma_v, and Cauchy-Schwarz gives
    sum_n |u_n v_n| <= sigma_u sigma_v.  The trace T of the covariance of
    (a, b) satisfies 2T = sigma_u^2 + sigma_v^2 >= 2 sigma_u sigma_v, and the
    squared ratio is at least (T/2 + sigma_u sigma_v/pi) /
    (T/2 + sigma_u sigma_v/2), which increases with T, so it is at least
    1/2 + 1/pi.  The density ((1, 1), (1, -1)) with uniform masses attains it:
    its moment is 2 + 4/pi against ||phi||^2 = 4.
    """
    _validate_direction("cotype2", space)
    if space.is_hilbert:
        return 1.0
    p = space.p
    if p == 1.0 and space.dim == 2:
        return math.sqrt(0.5 + 1.0 / math.pi)
    abs_moment = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    return abs_moment ** (1.0 / p)


def run_embedding_trials(
    direction: str,
    space: NormedSpace,
    n_atoms: int,
    trials: int,
    stream: RandomStream,
    samples: int = 0,
) -> EmbeddingReport:
    """Draw seeded random densities and report the worst embedding ratio.

    Trial t uses substream t: weights from a flat Dirichlet, density values
    with i.i.d. standard Gaussian coordinates, and an independent coefficient
    stream for the moment estimate, so the report is reproducible and each
    trial is unaffected by the total trial count.  Each block of trials
    (random_sums._draw_blocks) is drawn when its moments are taken."""
    _validate_direction(direction, space)
    if trials < 1:
        raise ValueError("need at least one trial")
    ratios, errors = np.empty(trials), np.empty(trials)
    for block in _draw_blocks(trials, samples, n_atoms):
        numbers = range(trials)[block]
        atoms = [_random_atoms(stream.substream(t), n_atoms, space.dim) for t in numbers]
        weights, values = np.array([p.weights for p, _ in atoms]), np.array([v for _, v in atoms])
        streams = [stream.substream(t).substream(1) for t in numbers]
        ratios[block], errors[block] = _embedding_ratios(weights, values, space, streams, samples)
    return EmbeddingReport(direction, trials, ratios, errors)


def sup_norm_witness() -> StepFunction:
    """Two-atom density in sup-norm R^2 whose embedding ratio is sqrt(1 + 2/pi).

    With uniform weights and values (1, 1), (1, -1), the normalized Gaussian
    sum has independent standard coordinates, so the variation moment is
    E max(g1^2, g2^2) = 1 + 2/pi while the density's L2 norm is 1."""
    partition = AtomPartition([0.5, 0.5])
    space = NormedSpace(2, np.inf)
    return StepFunction(partition, space, [[1.0, 1.0], [1.0, -1.0]])
