"""Variation norms of vector measures on weighted atoms.

The model: a finite partition of the unit interval into atoms of positive
mass, vector measures into a finite-dimensional l_p space, and the Gaussian
and Rademacher variation norms that link them to discrete operators and
stochastic integrals against independent-increment ensembles.  Everything an
experiment reports is reproducible from (seed, config).
"""

import os

# single-threaded BLAS keeps report bytes independent of machine load; this
# must run before numpy loads, so before any submodule import (a value the
# user set still wins)
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from ._version import __version__  # noqa: E402
from .spaces import AtomPartition, EmpiricalL2Space, NormedSpace
from .groupings import Grouping, PartitionMasks, SizeLimitError, enumerate_groupings
from .measures import (
    DiscreteOperator,
    StepFunction,
    VectorMeasure,
    measure_from_density,
    operator_from_measure,
)
from .random_sums import (
    Comparison,
    RandomStream,
    SumEstimate,
    compare_estimates,
    gaussian_sum_sq,
    rademacher_sum_sq,
)
from .norms import (
    DualityReport,
    NormReport,
    gamma_summing_norm,
    gamma_variation_norm,
    randomized_variation_norm,
    total_variation_norm,
    verify_duality,
)
from .brownian import (
    BrownianEnsemble,
    EmpiricalVectorMeasure,
    IntegralIdentityReport,
    induced_randomized_measure,
    integral_moment,
    randomisation_identity_sweep,
    sample_brownian,
    stochastic_integral,
    verify_integral_identity,
)
from .embeddings import (
    EmbeddingReport,
    embedding_ratio,
    run_embedding_trials,
    sup_norm_witness,
)
from .reports import CheckRecord, SuiteReport, render_csv, render_json, render_line_chart
from .suites import (
    ConfigError,
    ExperimentConfig,
    SUITE_NAMES,
    resolve_config,
    run_integrate,
    run_norms,
    run_suite,
)

__all__ = [
    "__version__",
    "AtomPartition",
    "BrownianEnsemble",
    "CheckRecord",
    "Comparison",
    "ConfigError",
    "DiscreteOperator",
    "DualityReport",
    "EmbeddingReport",
    "EmpiricalL2Space",
    "EmpiricalVectorMeasure",
    "ExperimentConfig",
    "Grouping",
    "IntegralIdentityReport",
    "NormReport",
    "NormedSpace",
    "PartitionMasks",
    "RandomStream",
    "SizeLimitError",
    "StepFunction",
    "SuiteReport",
    "SumEstimate",
    "SUITE_NAMES",
    "VectorMeasure",
    "compare_estimates",
    "embedding_ratio",
    "enumerate_groupings",
    "gamma_summing_norm",
    "gamma_variation_norm",
    "gaussian_sum_sq",
    "induced_randomized_measure",
    "integral_moment",
    "measure_from_density",
    "operator_from_measure",
    "rademacher_sum_sq",
    "randomisation_identity_sweep",
    "randomized_variation_norm",
    "render_csv",
    "render_json",
    "render_line_chart",
    "resolve_config",
    "run_embedding_trials",
    "run_integrate",
    "run_norms",
    "run_suite",
    "sample_brownian",
    "stochastic_integral",
    "sup_norm_witness",
    "total_variation_norm",
    "verify_duality",
    "verify_integral_identity",
]
