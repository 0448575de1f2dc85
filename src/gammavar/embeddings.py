"""Embedding constants between a density's L2 norm and its measure's variation norm.

The map phi -> F with dF = phi dmu sends the Bochner space L2(mu; X) into the
measures of finite gamma-variation.  For Hilbert X it is an isometry.  For X
of type 2 the variation norm is bounded by a constant times the L2 norm, and
for cotype 2 the reverse bound holds up to the target's Gaussian cotype-2
constant C: the ratio ||F||_variation / ||phi||_L2 is at least 1/C, which is
below 1 off Hilbert space.  This module measures that ratio on seeded random
inputs and on canonical witnesses and supplies a proven lower bound on 1/C
for l_p targets; it records worst-case constants, leaving any assertion about
them to the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import StepFunction
from .random_sums import RandomStream, gaussian_sum_sq
from .spaces import AtomPartition, NormedSpace

DIRECTIONS = ("type2", "cotype2")


def l2_bochner_norm(density: StepFunction) -> float:
    """The L2(mu; X) norm sqrt(sum_n mu(A_n) ||phi_n||^2) of a step density."""
    weights = density.partition.weights
    return float(np.sqrt(np.sum(weights * density.space.norm_sq(density.values))))


def embedding_ratio(
    density: StepFunction, stream: RandomStream | None = None, samples: int = 0
) -> tuple[float, float]:
    """Ratio of the density's measure variation norm to its L2 norm, with the
    Monte Carlo standard error of the ratio (0 when the moment is exact).

    The variation norm is evaluated at the finest covering grouping, which
    attains the supremum; a shared stream makes the ratio exactly invariant
    under rescaling the density."""
    denominator = l2_bochner_norm(density)
    if denominator == 0.0:
        raise ValueError("a vanishing density has no embedding ratio")
    rows = np.sqrt(density.partition.weights)[:, None] * density.values
    moment = gaussian_sum_sq(rows, density.space, stream=stream, samples=samples)
    ratio = float(np.sqrt(moment.value)) / denominator
    if moment.is_exact:
        return ratio, 0.0
    # delta method: se(sqrt(m)/b) = se(m) / (2 sqrt(m) b)
    return ratio, float(moment.std_error / (2.0 * np.sqrt(moment.value) * denominator))


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
    trial is unaffected by the total trial count."""
    _validate_direction(direction, space)
    if trials < 1:
        raise ValueError("need at least one trial")
    ratios = np.empty(trials)
    std_errors = np.empty(trials)
    for t in range(trials):
        trial_stream = stream.substream(t)
        rng = trial_stream.substream(0).generator()
        weights = rng.dirichlet(np.ones(n_atoms))
        weights = np.maximum(weights, 1e-9)  # guard against underflow
        weights = weights / weights.sum()
        values = rng.standard_normal((n_atoms, space.dim))
        density = StepFunction(AtomPartition(weights), space, values)
        ratios[t], std_errors[t] = embedding_ratio(
            density, stream=trial_stream.substream(1), samples=samples
        )
    return EmbeddingReport(direction, trials, ratios, std_errors)


def sup_norm_witness() -> StepFunction:
    """Two-atom density in sup-norm R^2 whose embedding ratio is sqrt(1 + 2/pi).

    With uniform weights and values (1, 1), (1, -1), the normalized Gaussian
    sum has independent standard coordinates, so the variation moment is
    E max(g1^2, g2^2) = 1 + 2/pi while the density's L2 norm is 1."""
    partition = AtomPartition([0.5, 0.5])
    space = NormedSpace(2, np.inf)
    return StepFunction(partition, space, [[1.0, 1.0], [1.0, -1.0]])
