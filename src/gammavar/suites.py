"""Config resolution and the named verification suites behind the CLI.

Every suite derives all randomness from (seed, suite namespace, instance
index), so reports are reproducible and invariant to the thread count used to
run the instances.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._version import __version__
from .brownian import (
    MIN_PATHS,
    ensemble_search,
    randomisation_identity_sweep,
    verify_integral_identity,
)
from .embeddings import (
    _random_atoms,
    cotype2_floor,
    embedding_ratio,
    run_embedding_trials,
    sup_norm_witness,
)
from .groupings import (
    Grouping,
    PartitionMasks,
    SizeLimitError,
    _partition_count,
    bell_number,
    block_sums,
    check_enumeration_size,
    grouping_from_labels,
)
from .measures import (
    StepFunction,
    VectorMeasure,
    measure_from_density,
    operator_from_measure,
)
from .norms import (
    DualityReport,
    NormReport,
    SharedDrawMoments,
    _label_chunks,
    _resolve_mode,
    gamma_summing_norm,
    gamma_variation_norm,
    randomized_variation_norm,
    total_variation_norm,
    verify_duality,
)
from .random_sums import (
    ENUMERATION_LIMIT,
    MIN_SAMPLES,
    N_BATCHES,
    Comparison,
    RandomStream,
    SumEstimate,
    METHOD_EXACT_HILBERT,
    compare_estimates,
    has_covariance_moment,
    rademacher_sum_sq,
)
from .reports import CheckRecord, SuiteReport
from .spaces import AtomPartition, NormedSpace

SUITE_NAMES = (
    "thm-2-3",
    "thm-3-3",
    "cor-2-5",
    "cor-2-6",
    "example-3-4",
    "finest-partition",
    "randomisation",
)

# substream namespaces; one per entry point, never reused
_NAMESPACES = {
    "thm-2-3": 1,
    "thm-3-3": 2,
    "cor-2-5": 3,
    "cor-2-6": 4,
    "example-3-4": 5,
    "finest-partition": 6,
    "randomisation": 7,
    "norms": 8,
    "integrate": 9,
}

ENGINE_DEFAULTS = {
    "seed": 0,
    "samples": 100_000,
    "paths": 100_000,
    "z": 3.0,
    "mode": "auto",
}

SUITE_DEFAULTS: dict[str, dict] = {
    "thm-2-3": {
        "instances": 100,
        "norms": ["l1", "linf"],
        "dims": [2, 3],
        "min_atoms": 2,
        "max_atoms": 8,
    },
    "thm-3-3": {
        "instances": 20,
        "norms": ["l2", "l1", "linf"],
        "dims": [2, 3],
        "n_atoms": 4,
    },
    "cor-2-5": {
        "isometry_trials": 1000,
        "isometry_atoms": 4,
        "isometry_dim": 2,
        "witness_samples": 100_000,
        "survey_trials": 200,
        "survey_samples": 10_000,
    },
    "cor-2-6": {
        "trials": 1000,
        "n_atoms": 2,
        "dim": 2,
        "norms": ["l1", {"lp": 1.5}],
        "trial_samples": 10_000,
    },
    "example-3-4": {
        "n_grid": [4, 16, 64, 100, 10_000],
        "empirical_limit": 100,
        "exhaustive_limit": 12,
        "dense_limit": 256,
    },
    "finest-partition": {
        "measures": 10,
        "n_atoms": 6,
        "dim": 2,
        "norms": ["l1", "l2", "linf"],
    },
    "randomisation": {
        "measures": 10,
        "n_atoms": 8,
        "dim": 2,
        "norms": ["l1", "l2", "linf"],
        "max_blocks": 8,
    },
}

# A randomisation sweep may take at most this many groupings times paths,
# counting as groupings the N increments and N d contributions it forms a
# path: the default sweep takes (4140 + 24) x 1500 per measure.
MAX_GROUPING_PATHS = 1 << 27
# An exhaustive ensemble search builds a table of 2^N rows over every path
# and holds a few (paths,) rows: at most this many rows times paths, plus
# its Bell(N) screened partitions.  example-3-4's search at 4 atoms on 100k
# paths takes 1.8e6, one at 12 atoms would take 4.1e8.  A search that
# decides its groupings in batches counts its batch's rows the same way.
MAX_TABLE_PATHS = 1 << 28
# A Monte Carlo leg may hold at most this many coefficient draws at once
# (512 MB): finest-partition's shared draws take 1e5 x 6 at the default
# shape in an lp space.
MAX_DRAW_FLOATS = 1 << 26

_ENGINE_OVERRIDES: dict[str, dict] = {
    "thm-3-3": {"paths": 30_000},
    "cor-2-6": {"samples": 10_000},
    "randomisation": {"paths": 1500},
}


class ConfigError(ValueError):
    """A config document failed validation; the message names the field."""


@dataclass
class ExperimentConfig:
    """A fully resolved experiment configuration.

    Thread count and output paths are deliberately absent: they may not
    influence any reported numeric.
    """

    seed: int
    samples: int
    paths: int
    z: float
    mode: str
    partition: AtomPartition | None = None
    space: NormedSpace | None = None
    measure_values: list | None = None
    density_values: list | None = None
    suite: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The config document a rerun needs to reproduce this report."""
        doc: dict = {
            "engine": {
                "seed": self.seed,
                "samples": self.samples,
                "paths": self.paths,
                "z": self.z,
                "mode": self.mode,
            }
        }
        if self.partition is not None:
            if self.partition.boundaries is not None:
                doc["partition"] = {
                    "boundaries": [float(b) for b in self.partition.boundaries]
                }
            else:
                doc["partition"] = {
                    "weights": [float(w) for w in self.partition.weights]
                }
        if self.space is not None:
            doc["space"] = {"dim": self.space.dim, "norm": self.space.norm_tag()}
        if self.measure_values is not None:
            doc["input"] = {"measure": self.measure_values}
        elif self.density_values is not None:
            doc["input"] = {"density": self.density_values}
        if self.suite:
            doc["suite"] = self.suite
        return doc

    @property
    def search_mode(self) -> str:
        """engine.mode as the randomized search's mode: "fast_path" is a
        synonym of "auto".  The gamma-variation norm has one route and
        ignores engine.mode."""
        return "auto" if self.mode == "fast_path" else self.mode

    def root_stream(self, entry: str) -> RandomStream:
        return RandomStream(self.seed, (_NAMESPACES[entry],))

    def measure(self) -> VectorMeasure:
        if self.partition is None or self.space is None:
            raise ConfigError("this command needs partition and space sections")
        if self.measure_values is not None:
            return VectorMeasure(self.partition, self.space, self.measure_values)
        if self.density_values is not None:
            return measure_from_density(self.density())
        raise ConfigError("input: needs measure or density values")

    def density(self) -> StepFunction:
        if self.partition is None or self.space is None:
            raise ConfigError("this command needs partition and space sections")
        if self.density_values is None:
            raise ConfigError("input: needs density values")
        return StepFunction(self.partition, self.space, self.density_values)


def _expect_mapping(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _positive_int(value, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        expected = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ConfigError(f"{name}: expected {expected}, got {value!r}")
    return value


def _parse_partition(doc) -> AtomPartition:
    doc = _expect_mapping(doc, "partition")
    keys = set(doc)
    if len(keys & {"uniform", "weights", "boundaries"}) != 1 or keys - {
        "uniform",
        "weights",
        "boundaries",
    }:
        raise ConfigError(
            "partition: give exactly one of 'uniform', 'weights', 'boundaries'"
        )
    try:
        if "uniform" in doc:
            return AtomPartition.uniform(_positive_int(doc["uniform"], "partition.uniform"))
        if "weights" in doc:
            return AtomPartition(doc["weights"])
        return AtomPartition.from_boundaries(doc["boundaries"])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"partition: {exc}") from exc


def _parse_space(doc) -> NormedSpace:
    doc = _expect_mapping(doc, "space")
    if set(doc) - {"dim", "norm"}:
        raise ConfigError(f"space: unknown keys {sorted(set(doc) - {'dim', 'norm'})}")
    dim = _positive_int(doc.get("dim", 0), "space.dim")
    return _space_from_tag(doc.get("norm", "l2"), dim, "space.norm")


def _space_from_tag(tag, dim: int, name: str) -> NormedSpace:
    try:
        return NormedSpace.from_tag(dim, tag)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _check_suite(params: dict, suite_name: str) -> None:
    """Validate each field of a merged suite section once, so that the
    suites read it as it stands: norms is a nonempty list of norm tags,
    dims and n_grid nonempty lists of positive integers, limits >= 0, sample
    counts >= MIN_SAMPLES, max_atoms >= min_atoms and the rest positive."""
    minimums = dict.fromkeys(("witness_samples", "survey_samples", "trial_samples"), MIN_SAMPLES)
    minimums["max_atoms"] = params.get("min_atoms")  # checked first, as it comes first
    for key, value in params.items():
        name = f"suite.{key}"
        if key not in ("norms", "dims", "n_grid"):
            _positive_int(value, name, minimums.get(key, 0 if key.endswith("_limit") else 1))
        elif not isinstance(value, list) or not value:
            raise ConfigError(f"{name}: expected a nonempty list, got {value!r}")
        elif key != "norms":
            for item in value:
                _positive_int(item, name)
        else:
            # no tag's validity depends on the dimension
            for space in [_space_from_tag(tag, 1, name) for tag in value]:
                if suite_name == "cor-2-6":
                    try:
                        cotype2_floor(space)  # the cotype-2 direction takes p <= 2
                    except ValueError as exc:
                        raise ConfigError(f"{name}: {exc}") from exc


def resolve_config(
    document: dict | None,
    suite_name: str | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Merge defaults, a config document, and CLI overrides, then validate.

    Precedence: per-suite defaults < config file < CLI flags.
    """
    document = _expect_mapping(document or {}, "config")
    unknown = set(document) - {"partition", "space", "input", "engine", "suite", "output"}
    if unknown:
        raise ConfigError(f"config: unknown sections {sorted(unknown)}")

    engine = dict(ENGINE_DEFAULTS)
    if suite_name is not None:
        engine.update(_ENGINE_OVERRIDES.get(suite_name, {}))
    engine_doc = _expect_mapping(document.get("engine", {}), "engine")
    unknown = set(engine_doc) - set(ENGINE_DEFAULTS)
    if unknown:
        raise ConfigError(f"engine: unknown keys {sorted(unknown)}")
    engine.update(engine_doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            engine[key] = value

    seed = engine["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"engine.seed: expected a nonnegative integer, got {seed!r}")
    samples = _positive_int(engine["samples"], "engine.samples", MIN_SAMPLES)
    paths = _positive_int(engine["paths"], "engine.paths", MIN_PATHS)
    z = engine["z"]
    if not isinstance(z, (int, float)) or isinstance(z, bool) or not z > 0:
        raise ConfigError(f"engine.z: expected a positive number, got {z!r}")
    mode = engine["mode"]
    if mode not in ("auto", "fast_path", "exhaustive", "contiguous", "greedy"):
        raise ConfigError(f"engine.mode: unknown mode {mode!r}")

    suite_params: dict = {}
    if suite_name is not None:
        suite_params = dict(SUITE_DEFAULTS.get(suite_name, {}))
        suite_doc = _expect_mapping(document.get("suite", {}), "suite")
        unknown = set(suite_doc) - set(suite_params)
        if unknown:
            raise ConfigError(
                f"suite: unknown parameters {sorted(unknown)} for {suite_name}"
            )
        suite_params.update(suite_doc)
        _check_suite(suite_params, suite_name)
    elif "suite" in document:
        raise ConfigError("suite: section only applies to 'verify' runs")

    partition = space = None
    if "partition" in document:
        partition = _parse_partition(document["partition"])
    if "space" in document:
        space = _parse_space(document["space"])

    measure_values = density_values = None
    if "input" in document:
        input_doc = _expect_mapping(document["input"], "input")
        if len(input_doc) != 1 or set(input_doc) - {"measure", "density"}:
            raise ConfigError("input: give exactly one of 'measure', 'density'")
        measure_values = input_doc.get("measure")
        density_values = input_doc.get("density")

    outputs = {}
    if "output" in document:
        output_doc = _expect_mapping(document["output"], "output")
        unknown = set(output_doc) - {"report", "csv", "svg"}
        if unknown:
            raise ConfigError(f"output: unknown keys {sorted(unknown)}")
        for key, path in output_doc.items():
            if not isinstance(path, str):
                raise ConfigError(f"output.{key}: expected a path string, got {path!r}")
        outputs = dict(output_doc)

    config = ExperimentConfig(
        seed=int(seed),
        samples=samples,
        paths=paths,
        z=float(z),
        mode=str(mode),
        partition=partition,
        space=space,
        measure_values=measure_values,
        density_values=density_values,
        suite=suite_params,
        outputs=outputs,
    )
    if measure_values is not None or density_values is not None:
        config.measure()  # validate shapes and finiteness up front
    _check_size_caps(config, suite_name)
    return config


def _check_size_caps(config: ExperimentConfig, suite_name: str | None) -> None:
    """Raise SizeLimitError before any work starts when the run would
    enumerate groupings past a cap, sweep past MAX_GROUPING_PATHS
    groupings times paths, search an ensemble past MAX_TABLE_PATHS
    (_check_search), enumerate the signs of more than ENUMERATION_LIMIT
    blocks of an ensemble (_check_search_batch) or hold more than
    MAX_DRAW_FLOATS Monte Carlo draws (_draw_legs); the message starts
    with the field that asked for the work."""
    params = config.suite
    has_input = config.measure_values is not None or config.density_values is not None
    if suite_name in ("finest-partition", "randomisation"):
        # both suites enumerate every covering grouping
        if suite_name == "finest-partition" and has_input:
            check_enumeration_size(config.partition.n_atoms, "all", "partition")
        else:
            check_enumeration_size(params["n_atoms"], "all", "suite.n_atoms")
    if suite_name == "randomisation":
        # a sweep takes its groupings on every path, and draws and forms a
        # path's N increments and N contributions in R^d, which it holds a
        # chunk of paths at a time but makes for every path
        groupings = _partition_count(params["n_atoms"], params["max_blocks"])
        floats = params["n_atoms"] * (params["dim"] + 1)
        what = (
            f"each sweep takes {groupings} groupings on {config.paths} paths and draws "
            f"and forms {floats} ensemble floats a path"
        )
        estimate = (groupings + floats) * config.paths
        _budget("suite.n_atoms", what, estimate, MAX_GROUPING_PATHS, "grouping-paths")
    if suite_name == "example-3-4":
        # grid points within both limits run an exhaustive search, over an
        # ensemble too up to empirical_limit: beyond exhaustive_limit, over
        # the fixed family, of one-dimensional increments
        for n in params["n_grid"]:
            if n > params["dense_limit"]:
                continue
            exhaustive = n <= params["exhaustive_limit"]
            if exhaustive:
                check_enumeration_size(n, "all", "suite.exhaustive_limit")
            if n <= params["empirical_limit"]:
                field = "suite.exhaustive_limit" if exhaustive else "engine.paths"
                _check_search(exhaustive, n, 1, config.paths, field, f"the search at n = {n}")
    # norms, integrate and thm-3-3 search in engine.mode; thm-3-3 searches
    # ensembles of a configured density or of its own instances.  A config
    # without a suite may run norms, which searches no ensemble, so
    # run_integrate checks its own search's batch
    n_atoms = None
    if suite_name == "thm-3-3" and config.density_values is None:
        n_atoms = params["n_atoms"]
    elif has_input and suite_name in (None, "thm-3-3"):
        n_atoms = config.partition.n_atoms
    if n_atoms is not None and config.mode in ("exhaustive", "contiguous"):
        enumeration = "all" if config.mode == "exhaustive" else "contiguous"
        check_enumeration_size(n_atoms, enumeration, "engine.mode")
    if n_atoms is not None and suite_name == "thm-3-3":
        _check_search_batch(config, n_atoms)
    for field, rows, atoms in _draw_legs(config, suite_name, has_input):
        what = f"a Monte Carlo leg holds {rows} draws of {atoms} coefficients at once"
        _budget(field, what, rows * atoms, MAX_DRAW_FLOATS, "floats")


def _budget(field: str, what: str, estimate: int, limit: int, unit: str) -> None:
    """Raise SizeLimitError, the message starting with field, when the
    estimate of a run's work, counted in units as what says, exceeds
    limit, a power of two."""
    if estimate > limit:
        raise SizeLimitError(
            f"{field}: {what}, an estimated {estimate:.3g} {unit}; "
            f"the limit is {limit} (2^{limit.bit_length() - 1})"
        )


def _check_search(
    exhaustive: bool, n_atoms: int, dim: int, paths: int, field: str, what: str
) -> None:
    """Raise SizeLimitError when a brownian.ensemble_search over an
    ensemble of n_atoms atoms in R^dim takes more than MAX_TABLE_PATHS.
    An exhaustive search builds 2^N table rows (every block's norms, or
    half as many sign patterns) and two (paths,) rows, the integral's and
    a decided partition's, times the paths, plus Bell(N) screened
    partitions.  Any other, greedy, contiguous or over a fixed family,
    decides its groupings in batches of up to N (d + 1) rows
    (random_sums._ensemble_decide) besides the integral's row.  Its
    arrays are bounded by a chunk of paths; its time grows with this."""
    if exhaustive:
        rows, partitions = (1 << n_atoms) + 2, bell_number(n_atoms)
        what += f" builds {rows} table rows on {paths} paths and screens {partitions} partitions"
        estimate = rows * paths + partitions
    else:
        rows = n_atoms * (dim + 1)
        what += (
            f" decides batches of up to {rows} groupings on {paths} paths besides the "
            "integral's row"
        )
        estimate = (rows + 1) * paths
    _budget(field, what, estimate, MAX_TABLE_PATHS, "table-paths")


def _check_search_batch(config: ExperimentConfig, n_atoms: int) -> None:
    """_check_search of a randomized search over an ensemble of n_atoms
    atoms in engine.mode, as thm-3-3 and integrate run it.  A greedy
    search there decides the finest grouping by enumerating its signs, so
    past ENUMERATION_LIMIT atoms it is refused outside a Hilbert base: in
    suite.n_atoms for thm-3-3's own instances, else in partition."""
    field, spaces = "partition", [config.space]
    if config.density_values is None:
        field, spaces = "suite.n_atoms", _identity_spaces(config.suite)
    exhaustive = _resolve_mode(config.search_mode, n_atoms) == "exhaustive"
    dim = max(space.dim for space in spaces)
    _check_search(exhaustive, n_atoms, dim, config.paths, "engine.paths", "each ensemble's search")
    if n_atoms > ENUMERATION_LIMIT and config.search_mode in ("auto", "greedy"):
        if not all(space.is_hilbert for space in spaces):
            raise SizeLimitError(
                f"{field}: a greedy search over an ensemble enumerates the signs of "
                f"the finest grouping, capped at {ENUMERATION_LIMIT} atoms outside a "
                f"Hilbert base; got {n_atoms}"
            )


def _draw_legs(config: ExperimentConfig, suite_name: str | None, has_input: bool) -> list:
    """(samples field, draws held at once, the most atoms a sampled cell
    takes, or 0) of each Monte Carlo leg of a run: samples x N for the
    draws that SharedDrawMoments shares (finest-partition), else
    ceil(samples / N_BATCHES) x N, a batch of
    random_sums._coefficient_batches.  Only legs that sample count:
    Gaussian moments outside Hilbert bases, l1 and the plane's linf
    (norms._gaussian_moment), the embedding ratios outside Hilbert bases,
    and for norms a greedy search's Rademacher moments past
    ENUMERATION_LIMIT blocks outside a Hilbert base."""
    params, shared = config.suite, suite_name == "finest-partition"

    def sampled(space: NormedSpace) -> bool:
        return not (space.is_hilbert or has_covariance_moment(space))

    if suite_name == "cor-2-5":
        # the witness and the survey take two atoms in the plane's linf
        legs = [(f"suite.{key}", params[key], [2]) for key in ("witness_samples", "survey_samples")]
    elif suite_name == "cor-2-6":
        spaces = [NormedSpace.from_tag(params["dim"], tag) for tag in params["norms"]]
        atoms = [params["n_atoms"] for space in spaces if not space.is_hilbert]
        legs = [("suite.trial_samples", params["trial_samples"], atoms)]
    elif suite_name == "thm-2-3" and not has_input:
        atoms = [n_atoms for space, n_atoms in _duality_cells(params) if sampled(space)]
        legs = [("engine.samples", config.samples, atoms)]
    elif suite_name == "thm-3-3" and config.density_values is None:
        atoms = [params["n_atoms"] for space in _identity_spaces(params) if sampled(space)]
        legs = [("engine.samples", config.samples, atoms)]
    elif shared:
        if has_input:
            n_atoms, dim = config.partition.n_atoms, config.space.dim
        else:
            n_atoms, dim = params["n_atoms"], params["dim"]
        spaces = [NormedSpace.from_tag(dim, tag) for tag in params["norms"]]
        legs = [("engine.samples", config.samples, [n_atoms for s in spaces if sampled(s)])]
    elif has_input and suite_name in (None, "thm-2-3", "thm-3-3"):
        space, n_atoms = config.space, config.partition.n_atoms
        searches = suite_name is None and not space.is_hilbert and n_atoms > ENUMERATION_LIMIT
        legs = [("engine.samples", config.samples, [n_atoms] if sampled(space) or searches else [])]
    else:
        return []
    batches = 1 if shared else N_BATCHES
    return [(key, -(-samples // batches), max(atoms, default=0)) for key, samples, atoms in legs]


def _ordered_map(fn: Callable, items: list, threads: int) -> list:
    """Map preserving order; results are independent of the thread count."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _comparison_record(
    name: str,
    estimates: dict[str, SumEstimate],
    comparison: Comparison,
    detail: str = "",
) -> CheckRecord:
    """The two compared estimates with their gap, tolerance and verdict."""
    return CheckRecord(
        name=name,
        values={
            **{key: estimate.value for key, estimate in estimates.items()},
            "gap": comparison.gap,
            "tolerance": comparison.tolerance,
        },
        std_errors={key: estimate.std_error for key, estimate in estimates.items()},
        verdict="pass" if comparison.consistent else "fail",
        detail=detail,
    )


def _duality_record(name: str, result: DualityReport, detail: str = "") -> CheckRecord:
    estimates = {
        "variation_moment": result.measure_report.moment,
        "summing_moment": result.operator_report.moment,
    }
    return _comparison_record(name, estimates, result.comparison, detail)


def _summary_record(name: str, checks: list[CheckRecord], instances: int) -> CheckRecord:
    failures = sum(1 for c in checks if c.verdict == "fail")
    return CheckRecord(
        name=name,
        values={"instances": instances, "failures": failures},
        verdict="pass" if failures == 0 else "fail",
    )


def _norm_record(name: str, report: NormReport) -> CheckRecord:
    return CheckRecord(
        name=name,
        values={"norm": report.norm, "moment": report.moment.value},
        std_errors={"moment": report.moment.std_error},
        verdict="info",
        detail=f"mode={report.mode} grouping={report.grouping.to_lists()}",
    )


def _report(suite: str, config: ExperimentConfig, checks: list[CheckRecord]) -> SuiteReport:
    return SuiteReport(
        suite=suite, config=config.echo(), checks=checks, version=__version__
    )


# --- thm-2-3: measure norm vs dual operator norm ---------------------------------


def _duality_instance(
    index: int,
    space: NormedSpace,
    n_atoms: int,
    stream: RandomStream,
    samples: int,
    z: float,
) -> CheckRecord:
    partition, values = _random_atoms(stream, n_atoms, space.dim)
    measure = VectorMeasure(partition, space, values)
    result = verify_duality(measure, stream.substream(1), samples, z=z)
    detail = f"norm={space.norm_tag()} dim={space.dim} atoms={n_atoms}"
    return _duality_record(f"duality-{index:03d}", result, detail)


def _duality_cells(params: dict) -> list[tuple[NormedSpace, int]]:
    """The (space, atom count) cells of thm-2-3's own instances, instance
    i taking cell i % len(cells): the first suite.instances cells of the
    (norm, dim, atoms) grid."""
    grid = [
        (norm_tag, dim, n)
        for norm_tag in params["norms"]
        for dim in params["dims"]
        for n in range(params["min_atoms"], params["max_atoms"] + 1)
    ]
    return [(NormedSpace.from_tag(dim, tag), n) for tag, dim, n in grid[: params["instances"]]]


def _run_duality_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("thm-2-3")
    if config.measure_values is not None or config.density_values is not None:
        measure = config.measure()
        result = verify_duality(measure, root.substream(0), config.samples, z=config.z)
        record = _duality_record("duality-explicit", result, "configured input")
        return _report("thm-2-3", config, [record])

    cells = _duality_cells(params)
    count = params["instances"]

    def run_instance(i: int) -> CheckRecord:
        space, n_atoms = cells[i % len(cells)]
        return _duality_instance(i, space, n_atoms, root.substream(i), config.samples, config.z)

    checks = _ordered_map(run_instance, list(range(count)), threads)
    summary = _summary_record("duality-summary", checks, count)
    return _report("thm-2-3", config, checks + [summary])


# --- thm-3-3: variation norm = randomized variation = integral moment ------------


def _identity_spaces(params: dict) -> list[NormedSpace]:
    """The spaces of thm-3-3's own instances: instance i runs
    norms[i % len(norms)] in dims[(i // len(norms)) % len(dims)]."""
    cells = [NormedSpace.from_tag(dim, tag) for dim in params["dims"] for tag in params["norms"]]
    return cells[: params["instances"]]


def _identity_checks(
    config: ExperimentConfig,
    density: StepFunction,
    stream: RandomStream,
    index: int,
    label: str,
    threads: int = 1,
) -> list[CheckRecord]:
    """The pairwise records of the triple identity for one density, its
    randomized variation searched in engine.mode."""
    report = verify_integral_identity(
        density,
        config.paths,
        stream,
        config.samples,
        search_mode=config.search_mode,
        z=config.z,
        threads=threads,
    )
    estimates = {
        "variation_moment": report.variation.moment,
        "randomized_moment": report.randomized.moment,
        "integral_moment": report.integral,
    }
    records = []
    for pair, comparison in report.comparisons.items():
        left, right = (f"{side}_moment" for side in pair.split("_vs_"))
        records.append(
            _comparison_record(
                f"identity-{index:02d}-{pair.replace('_', '-')}",
                {left: estimates[left], right: estimates[right]},
                comparison,
                label,
            )
        )
    return records


def _identity_instance(
    index: int,
    space: NormedSpace,
    n_atoms: int,
    stream: RandomStream,
    config: ExperimentConfig,
    threads: int,
) -> list[CheckRecord]:
    partition, values = _random_atoms(stream, n_atoms, space.dim)
    density = StepFunction(partition, space, values)
    label = f"norm={space.norm_tag()} dim={space.dim} atoms={n_atoms}"
    return _identity_checks(config, density, stream.substream(1), index, label, threads)


def _run_identity_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("thm-3-3")
    if config.density_values is not None:
        density = config.density()
        checks = _identity_checks(config, density, root.substream(0), 0, "configured input", threads)
        return _report("thm-3-3", config, checks)

    count, n_atoms = params["instances"], params["n_atoms"]
    spaces = _identity_spaces(params)

    def run_instance(i: int) -> list[CheckRecord]:
        space = spaces[i % len(spaces)]
        return _identity_instance(i, space, n_atoms, root.substream(i), config, threads)

    nested = _ordered_map(run_instance, list(range(count)), threads)
    checks = [record for group in nested for record in group]
    summary = _summary_record("identity-summary", checks, count)
    return _report("thm-3-3", config, checks + [summary])


# --- cor-2-5: upper embedding constant (type-2 side) ------------------------------


def _run_upper_embedding_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("cor-2-5")
    checks: list[CheckRecord] = []

    isometry = run_embedding_trials(
        "type2",
        NormedSpace.l2(params["isometry_dim"]),
        params["isometry_atoms"],
        params["isometry_trials"],
        root.substream(0),
        samples=0,
    )
    deviation = float(np.max(np.abs(isometry.ratios - 1.0)))
    checks.append(
        CheckRecord(
            name="hilbert-isometry",
            values={
                "max_abs_deviation": deviation,
                "trials": isometry.trials,
                "worst_ratio": isometry.worst_ratio,
            },
            verdict="pass" if deviation <= 1e-9 else "fail",
            detail="every trial ratio must equal 1 to 1e-9",
        )
    )

    target = math.sqrt(1.0 + 2.0 / math.pi)
    ratio, se = embedding_ratio(sup_norm_witness(), root.substream(1), params["witness_samples"])
    gap = abs(ratio - target)
    tolerance = config.z * se
    checks.append(
        CheckRecord(
            name="sup-norm-witness",
            values={"ratio": ratio, "target": target, "gap": gap, "tolerance": tolerance},
            std_errors={"ratio": se},
            verdict="pass" if gap <= tolerance else "fail",
            detail="canonical two-atom witness in sup-norm R^2",
        )
    )

    survey = run_embedding_trials(
        "type2",
        NormedSpace.linf(2),
        2,
        params["survey_trials"],
        root.substream(2),
        samples=params["survey_samples"],
    )
    checks.append(
        CheckRecord(
            name="sup-norm-survey",
            values={
                "largest_ratio": survey.worst_ratio,
                "mean_ratio": float(np.mean(survey.ratios)),
                "trials": survey.trials,
            },
            std_errors={"largest_ratio": survey.worst_std_error},
            verdict="info",
            detail="upper constant is reported, not asserted",
        )
    )
    return _report("cor-2-5", config, checks)


# --- cor-2-6: lower embedding constant (cotype-2 side) ----------------------------


def _run_lower_embedding_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("cor-2-6")
    trials, samples, norms = params["trials"], params["trial_samples"], params["norms"]
    spaces = [NormedSpace.from_tag(params["dim"], tag) for tag in norms]

    def run_space(j: int) -> CheckRecord:
        space = spaces[j]
        report = run_embedding_trials(
            "cotype2", space, params["n_atoms"], trials, root.substream(j), samples=samples
        )
        floor = cotype2_floor(space)
        threshold = floor - config.z * report.worst_std_error
        passed = report.worst_ratio >= threshold
        detail = (
            f"smallest ratio over {trials} trials at trial {report.worst_index}; "
            f"the cotype-2 floor {floor!r} less {config.z!r} standard errors "
            f"requires at least {threshold!r}"
        )
        return CheckRecord(
            name=f"lower-bound-{_norm_label(norms[j])}",
            values={
                "min_ratio": report.worst_ratio,
                "floor": floor,
                "threshold": threshold,
                "mean_ratio": float(np.mean(report.ratios)),
                "trials_below_one": int(np.sum(report.ratios < 1.0)),
            },
            std_errors={"min_ratio": report.worst_std_error},
            verdict="pass" if passed else "fail",
            detail=detail,
        )

    checks = _ordered_map(run_space, list(range(len(spaces))), threads)
    return _report("cor-2-6", config, checks)


def _norm_label(tag) -> str:
    if isinstance(tag, dict):
        return f"lp{tag.get('lp')}"
    return str(tag)


# --- example-3-4: bounded gamma-variation, unbounded total variation --------------


def _orthogonal_increments_measure(partition: AtomPartition) -> VectorMeasure:
    """Exact model of orthogonal atom increments: atom n maps to
    sqrt(mu(A_n)) e_n in R^N with the Euclidean norm."""
    n = partition.n_atoms
    values = np.zeros((n, n))
    np.fill_diagonal(values, np.sqrt(partition.weights))
    return VectorMeasure(partition, NormedSpace.l2(n), values)


def _scalar_magnitude_measure(partition: AtomPartition) -> VectorMeasure:
    """One-dimensional stand-in with the same atom norms; total variation
    depends on nothing else, so this avoids an N x N dense matrix."""
    values = np.sqrt(partition.weights)[:, None]
    return VectorMeasure(partition, NormedSpace.l2(1), values)


def _fixed_grouping_family(n_atoms: int) -> list[Grouping]:
    family = [Grouping.finest(n_atoms)]
    if n_atoms >= 2:
        half = n_atoms // 2
        family.append(
            Grouping([list(range(half)), list(range(half, n_atoms))], n_atoms)
        )
        family.append(Grouping([list(range(n_atoms))], n_atoms))
    return family


def _divergence_point(
    n: int, params: dict, stream: RandomStream, paths: int, z: float, threads: int = 1
) -> list[CheckRecord]:
    """The checks of one grid point of n uniform atoms: the total variation
    sqrt(n), the exact randomized variation 1 and, up to empirical_limit,
    its estimate on a path ensemble of one-dimensional increments.

    The ensemble estimate is brownian.ensemble_search's on the measure
    that a density of ones induces, whose contributions are the
    increments themselves: exhaustive up to exhaustive_limit, over the
    fixed family beyond it."""
    partition = AtomPartition.uniform(n)
    expected_tv = math.sqrt(n)
    dense = n <= params["dense_limit"]
    measure = (
        _orthogonal_increments_measure(partition)
        if dense
        else _scalar_magnitude_measure(partition)
    )
    tv = total_variation_norm(measure)
    checks = [
        CheckRecord(
            name=f"total-variation-n{n}",
            values={"n": n, "total_variation": tv, "expected": expected_tv},
            verdict="pass" if abs(tv - expected_tv) <= 1e-9 else "fail",
            detail="exact sum of atom increment norms"
            + ("" if dense else " (scalar-magnitude model)"),
        )
    ]
    if not dense:
        return checks

    # exact randomized variation: orthogonality makes every covering grouping 1
    if n <= params["exhaustive_limit"]:
        exact = randomized_variation_norm(measure.values, measure.space, mode="exhaustive")
        exact_value, exact_detail = exact.norm, "exhaustive grouping search, exact"
    else:
        moments = [
            rademacher_sum_sq(block_sums(measure.values, g), measure.space)
            for g in _fixed_grouping_family(n)
        ]
        exact_value = math.sqrt(max(m.value for m in moments))
        exact_detail = "fixed covering groupings, exact"
    checks.append(
        CheckRecord(
            name=f"randomized-exact-n{n}",
            values={"n": n, "randomized_variation": exact_value, "expected": 1.0},
            verdict="pass" if abs(exact_value - 1.0) <= 1e-12 else "fail",
            detail=exact_detail,
        )
    )

    if n <= params["empirical_limit"]:
        ones = StepFunction(partition, NormedSpace.l2(1), np.ones((n, 1)))
        mode = "exhaustive" if n <= params["exhaustive_limit"] else _fixed_grouping_family(n)
        _, estimate, _ = ensemble_search(ones, paths, stream, mode, threads)
        reference = SumEstimate(1.0, 0.0, 0, METHOD_EXACT_HILBERT)
        comparison = compare_estimates(reference, estimate, z=z)
        checks.append(
            CheckRecord(
                name=f"randomized-empirical-n{n}",
                values={
                    "n": n,
                    "randomized_moment": estimate.value,
                    "expected": 1.0,
                    "gap": comparison.gap,
                    "tolerance": comparison.tolerance,
                },
                std_errors={"randomized_moment": estimate.std_error},
                verdict="pass" if comparison.consistent else "fail",
                detail=f"path ensemble of {paths} draws",
            )
        )
    return checks


def _run_divergence_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("example-3-4")
    grid = params["n_grid"]

    def run_point(i: int) -> list[CheckRecord]:
        return _divergence_point(grid[i], params, root.substream(i), config.paths, config.z, threads)

    nested = _ordered_map(run_point, list(range(len(grid))), threads)
    return _report("example-3-4", config, [record for group in nested for record in group])


# --- finest-partition: coarsenings never beat the finest covering grouping --------


def _domination_instance(
    label: str, measure: VectorMeasure, stream: RandomStream, samples: int, z: float
) -> CheckRecord:
    """Every coarsening's moment against the finest grouping's, the set
    partitions taken in label chunks (SharedDrawMoments.moments).  The
    worst, the first largest gap in label order, is the one row made a
    Grouping."""
    shared = SharedDrawMoments(measure, stream, samples)
    n_atoms = measure.n_atoms
    finest_grouping = Grouping.finest(n_atoms)
    finest = shared.moment(finest_grouping)
    worst_gap, worst, failures = -math.inf, None, 0
    for labels, masks in _label_chunks(n_atoms):
        values, errors = shared.moments(masks)
        gaps = values - finest.value
        if finest.is_exact:
            # a rounding bound: the moments' rounding error grows with them
            tolerance = 1e-12 * max(1.0, abs(finest.value))
        else:
            tolerance = z * np.hypot(errors, finest.std_error)
        # the finest row alone has n_atoms blocks
        coarser = labels.max(axis=1) < n_atoms - 1
        failures += int(np.count_nonzero(coarser & (gaps > tolerance)))
        ranked = np.where(coarser & ~np.isnan(gaps), gaps, -math.inf)
        first = int(np.argmax(ranked))
        if ranked[first] > worst_gap:
            worst_gap, worst = float(ranked[first]), labels[first].tolist()
    count = bell_number(n_atoms) - 1
    worst_grouping = finest_grouping if worst is None else grouping_from_labels(worst)
    return CheckRecord(
        name=f"domination-{label}",
        values={
            "finest_moment": finest.value,
            "worst_excess": worst_gap if count else 0.0,
            "groupings": count,
            "failures": failures,
        },
        std_errors={"finest_moment": finest.std_error},
        verdict="pass" if failures == 0 else "fail",
        detail=f"worst grouping {worst_grouping.to_lists()}",
    )


def _run_domination_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("finest-partition")
    if config.measure_values is not None or config.density_values is not None:
        base = config.measure()
        inputs = [("explicit", base.partition, base.values)]
    else:
        inputs = [
            (f"{i:02d}", *_random_atoms(root.substream(i), params["n_atoms"], params["dim"]))
            for i in range(params["measures"])
        ]
    norms = params["norms"]
    value_dim = inputs[0][2].shape[1]
    spaces = [NormedSpace.from_tag(value_dim, tag) for tag in norms]

    def run_instance(k: int) -> CheckRecord:
        # norm j of input i is instance j * len(inputs) + i
        j, i = divmod(k, len(inputs))
        label, partition, values = inputs[i]
        measure = VectorMeasure(partition, spaces[j], values)
        stream = root.substream(1000 + k)
        return _domination_instance(
            f"{_norm_label(norms[j])}-{label}", measure, stream, config.samples, config.z
        )

    checks = _ordered_map(run_instance, list(range(len(spaces) * len(inputs))), threads)
    return _report("finest-partition", config, checks)


# --- randomisation: sign-averaged block moments match plain ones -------------------


def _randomisation_instance(
    index: int,
    space: NormedSpace,
    n_atoms: int,
    max_blocks: int,
    stream: RandomStream,
    paths: int,
    z: float,
    threads: int = 1,
) -> CheckRecord:
    partition, values = _random_atoms(stream, n_atoms, space.dim)
    density = StepFunction(partition, space, values)
    # the set partitions of at most max_blocks blocks, in label order
    rows = [masks[labels.max(axis=1) < max_blocks] for labels, masks in _label_chunks(n_atoms)]
    masks = PartitionMasks(np.concatenate(rows))
    sweep = randomisation_identity_sweep(density, masks, paths, stream.substream(1), z, threads)
    failures = np.flatnonzero(~sweep.consistent)
    # the first largest gap / tolerance, taken as 0 where the tolerance is 0
    ratio = np.divide(
        sweep.gap, sweep.tolerance, out=np.zeros_like(sweep.gap), where=sweep.tolerance > 0
    )
    worst = sweep.check(int(np.argmax(ratio)))
    detail = f"norm={space.norm_tag()} worst grouping {worst.grouping.to_lists()}"
    if failures.size:
        detail += f"; first failure {sweep.groupings[failures[0]].to_lists()}"
    return CheckRecord(
        name=f"signs-{index:02d}",
        values={
            "groupings": len(sweep.groupings),
            "failures": int(failures.size),
            "worst_signed": worst.signed.value,
            "worst_plain": worst.plain.value,
            "worst_tolerance": worst.comparison.tolerance,
        },
        std_errors={
            "worst_signed": worst.signed.std_error,
            "worst_plain": worst.plain.std_error,
        },
        verdict="fail" if failures.size else "pass",
        detail=detail,
    )


def _run_randomisation_suite(config: ExperimentConfig, threads: int) -> SuiteReport:
    params = config.suite
    root = config.root_stream("randomisation")
    count, n_atoms, max_blocks = params["measures"], params["n_atoms"], params["max_blocks"]
    spaces = [NormedSpace.from_tag(params["dim"], tag) for tag in params["norms"]]

    def run_instance(i: int) -> CheckRecord:
        space = spaces[i % len(spaces)]
        return _randomisation_instance(
            i, space, n_atoms, max_blocks, root.substream(i), config.paths, config.z, threads
        )

    checks = _ordered_map(run_instance, list(range(count)), threads)
    return _report("randomisation", config, checks)


# --- entry points ------------------------------------------------------------------


_SUITE_RUNNERS = {
    "thm-2-3": _run_duality_suite,
    "thm-3-3": _run_identity_suite,
    "cor-2-5": _run_upper_embedding_suite,
    "cor-2-6": _run_lower_embedding_suite,
    "example-3-4": _run_divergence_suite,
    "finest-partition": _run_domination_suite,
    "randomisation": _run_randomisation_suite,
}


def run_suite(name: str, config: ExperimentConfig, threads: int = 1) -> SuiteReport:
    if name not in _SUITE_RUNNERS:
        raise ConfigError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    return _SUITE_RUNNERS[name](config, threads)


def run_norms(config: ExperimentConfig, threads: int = 1) -> SuiteReport:
    """All norms of the configured measure or density, with the duality check."""
    measure = config.measure()
    root = config.root_stream("norms")
    needs_mc = not measure.space.is_hilbert
    stream = root.substream(0) if needs_mc else None
    samples = config.samples if needs_mc else 0

    variation = gamma_variation_norm(measure, stream, samples)
    duality = verify_duality(measure, root.substream(1), samples, z=config.z)
    tv = total_variation_norm(measure)
    randomized = randomized_variation_norm(
        measure.values,
        measure.space,
        mode=config.search_mode,
        stream=root.substream(2),
        samples=config.samples,
    )

    checks = [
        _norm_record("gamma-variation", variation),
        _duality_record("duality", duality),
        CheckRecord(name="total-variation", values={"norm": tv}, verdict="info"),
        _norm_record("randomized-variation", randomized),
    ]
    return _report("norms", config, checks)


def run_integrate(config: ExperimentConfig, threads: int = 1) -> SuiteReport:
    """Ensemble statistics of the stochastic integral of the configured density."""
    if config.density_values is None:
        raise ConfigError("input: the integrate command needs density values")
    _check_search_batch(config, config.partition.n_atoms)
    density = config.density()
    root = config.root_stream("integrate")
    checks = _identity_checks(config, density, root.substream(0), 0, "configured density", threads)
    operator_moment = gamma_summing_norm(
        operator_from_measure(measure_from_density(density)),
        root.substream(1),
        0 if density.space.is_hilbert else config.samples,
    )
    checks.append(
        CheckRecord(
            name="summing-moment",
            values={"moment": operator_moment.moment.value, "norm": operator_moment.norm},
            std_errors={"moment": operator_moment.moment.std_error},
            verdict="info",
            detail="dual operator of the density's measure",
        )
    )
    return _report("integrate", config, checks)
