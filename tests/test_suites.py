import math
import sys
import time
import tracemalloc

import _reference as ref
import numpy as np
import pytest

from gammavar import (
    AtomPartition,
    ConfigError,
    Grouping,
    PartitionMasks,
    SUITE_NAMES,
    SizeLimitError,
    StepFunction,
    __version__,
    enumerate_groupings,
    randomisation_identity_sweep,
    render_json,
    resolve_config,
    run_integrate,
    run_norms,
    run_suite,
    sample_brownian,
)
from gammavar import brownian, groupings, random_sums, suites
from gammavar.groupings import block_sums
from gammavar.norms import SharedDrawMoments, randomized_variation_norm
from gammavar.random_sums import RandomStream
from gammavar.spaces import NormedSpace


def _names(report):
    return [check.name for check in report.checks]


def _by_name(report, name):
    return next(check for check in report.checks if check.name == name)


def _constant_density_input(norm, scale):
    """A measure with constant density scale * (3, -4): every grouping's
    gamma-variation moment equals the finest one."""
    weights = [0.1, 0.15, 0.2, 0.25, 0.3]
    return {
        "partition": {"weights": weights},
        "space": {"dim": 2, "norm": norm},
        "input": {"measure": [[scale * w * 3.0, scale * w * -4.0] for w in weights]},
        "suite": {"norms": [norm]},
    }


# thm-2-3 and thm-3-3 cells in lp3, whose Gaussian moments are sampled
_LP3_CELLS = {"norms": ["l1", {"lp": 3}]}


def _sized_input(n_atoms, kind, mode):
    return {
        "partition": {"uniform": n_atoms},
        "space": {"dim": 2, "norm": "l1"},
        "input": {kind: [[1.0, -0.5]] * n_atoms},
        "engine": {"mode": mode},
    }


class TestConfigResolution:
    def test_suite_defaults_apply(self):
        config = resolve_config(None, "thm-2-3")
        assert config.seed == 0
        assert config.samples == 100_000
        assert config.z == 3.0
        assert config.suite["instances"] == 100
        assert config.suite["norms"] == ["l1", "linf"]

    def test_per_suite_engine_overrides(self):
        assert resolve_config(None, "cor-2-6").samples == 10_000
        assert resolve_config(None, "thm-3-3").paths == 30_000
        assert resolve_config(None, "randomisation").paths == 1500
        assert resolve_config(None, "thm-2-3").samples == 100_000

    def test_precedence_defaults_then_file_then_flags(self):
        document = {"engine": {"samples": 7777, "seed": 5}}
        config = resolve_config(document, "thm-2-3")
        assert (config.samples, config.seed) == (7777, 5)
        config = resolve_config(document, "thm-2-3", {"samples": 1234, "seed": None})
        assert (config.samples, config.seed) == (1234, 5)

    def test_unknown_sections_and_keys(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            resolve_config({"engines": {}})
        with pytest.raises(ConfigError, match="engine"):
            resolve_config({"engine": {"sample": 5}})
        with pytest.raises(ConfigError, match="thm-2-3"):
            resolve_config({"suite": {"measures": 2}}, "thm-2-3")
        with pytest.raises(ConfigError, match="verify"):
            resolve_config({"suite": {"instances": 2}})

    @pytest.mark.parametrize(
        "engine",
        [
            {"seed": True},
            {"seed": -1},
            {"samples": 0},
            {"paths": "many"},
            {"paths": 3},
            {"z": 0.0},
            {"mode": "sideways"},
        ],
    )
    def test_engine_field_validation(self, engine):
        with pytest.raises(ConfigError):
            resolve_config({"engine": engine})

    def test_an_ensemble_takes_min_paths_on_each_side_of_its_split(self):
        with pytest.raises(ConfigError, match=r"engine.paths: expected an integer >= 4, got 3"):
            resolve_config({"engine": {"paths": 3}}, "thm-3-3")
        assert resolve_config({"engine": {"paths": 4}}, "thm-3-3").paths == 4

    def test_a_huge_atom_range_resolves_without_building_its_grid(self):
        # only the first suite.instances cells of the grid are built
        start = time.perf_counter()
        config = resolve_config({"suite": {"max_atoms": 10**9}}, "thm-2-3")
        assert time.perf_counter() - start < 0.1
        assert len(suites._duality_cells(config.suite)) == 100

    @pytest.mark.parametrize(
        "document, suite_name, field",
        [
            ({"suite": {"n_atoms": 13}}, "finest-partition", "suite.n_atoms"),
            ({"suite": {"n_atoms": 13}}, "randomisation", "suite.n_atoms"),
            (_sized_input(13, "measure", "exhaustive"), "finest-partition", "partition"),
            (_sized_input(13, "measure", "exhaustive"), None, "engine.mode"),
            (_sized_input(21, "density", "contiguous"), None, "engine.mode"),
            (_sized_input(13, "density", "exhaustive"), "thm-3-3", "engine.mode"),
            (
                {"suite": {"n_grid": [4, 13], "exhaustive_limit": 13}},
                "example-3-4",
                "suite.exhaustive_limit",
            ),
            (
                {"engine": {"mode": "contiguous"}, "suite": {"n_atoms": 21}},
                "thm-3-3",
                "engine.mode",
            ),
            # a greedy search over an ensemble enumerates the signs of the
            # finest grouping's 21 blocks
            ({"engine": {"mode": "greedy"}, "suite": {"n_atoms": 21}}, "thm-3-3", "suite.n_atoms"),
            ({"suite": {"n_atoms": 21, "norms": ["l2", "l1"]}}, "thm-3-3", "suite.n_atoms"),
            (_sized_input(21, "density", "greedy"), "thm-3-3", "partition"),
            (_sized_input(21, "density", "auto"), "thm-3-3", "partition"),
        ],
    )
    def test_enumeration_caps_are_checked_before_any_run(self, document, suite_name, field):
        with pytest.raises(SizeLimitError) as exc:
            resolve_config(document, suite_name)
        assert str(exc.value).startswith(f"{field}: ")
        assert "got " in str(exc.value)

    @pytest.mark.parametrize(
        "document, suite_name",
        [
            ({"suite": {"n_atoms": 12}}, "finest-partition"),
            ({"suite": {"n_grid": [4, 13], "exhaustive_limit": 12}}, "example-3-4"),
            (_sized_input(13, "measure", "greedy"), None),
            (_sized_input(13, "measure", "auto"), None),
            (_sized_input(20, "density", "contiguous"), None),
            ({"engine": {"mode": "exhaustive"}, "suite": {"n_atoms": 13}}, "cor-2-6"),
            # greedy searches in a Hilbert base, or over 20 atoms, or of
            # instances that visit only Hilbert bases
            (_sized_input(21, "density", "greedy") | {"space": {"dim": 2, "norm": "l2"}}, "thm-3-3"),
            (
                _sized_input(21, "density", "greedy")
                | {"space": {"dim": 1, "norm": "l1"}, "input": {"density": [[1.0]] * 21}},
                "thm-3-3",
            ),
            (_sized_input(20, "density", "greedy"), "thm-3-3"),
            ({"suite": {"n_atoms": 21, "norms": ["l2", "l1"], "instances": 1}}, "thm-3-3"),
            ({"engine": {"mode": "greedy"}, "suite": {"n_atoms": 21, "dims": [1]}}, "thm-3-3"),
        ],
    )
    def test_runs_within_the_caps_resolve(self, document, suite_name):
        resolve_config(document, suite_name)

    @pytest.mark.parametrize(
        "document, suite_name, field, estimate, limit",
        [
            # 2^12 + 2 table rows at 100k paths, plus Bell(12) partitions;
            # Bell(12) x 1e5 groupings once held 2.1 GB
            ({"suite": {"n_grid": [4, 12]}}, "example-3-4", "suite.exhaustive_limit", "4.14e+08", "table-paths"),
            ({"suite": {"n_atoms": 12, "max_blocks": 4}}, "randomisation", "suite.n_atoms", "1.05e+09", "grouping-paths"),
            ({"engine": {"paths": 32_233}}, "randomisation", "suite.n_atoms", "1.34e+08", "grouping-paths"),
            # one grouping, but an ensemble of 12 atoms in R^2 on 1e8 paths
            # would form 3.6e9 floats
            (
                {"suite": {"n_atoms": 12, "max_blocks": 1}, "engine": {"paths": 100_000_000}},
                "randomisation",
                "suite.n_atoms",
                "3.7e+09",
                "grouping-paths",
            ),
            ({"suite": {"n_atoms": 12}, "engine": {"paths": 100_000}}, "thm-3-3", "engine.paths", "4.14e+08", "table-paths"),
            (_sized_input(12, "density", "auto") | {"engine": {"paths": 66_000}}, "thm-3-3", "engine.paths", "2.75e+08", "table-paths"),
        ],
    )
    def test_oversized_ensemble_batches_are_refused_before_any_run(
        self, document, suite_name, field, estimate, limit
    ):
        # sweeps count groupings, plus N (d + 1) ensemble floats a path,
        # times paths: (700075 + 36) x 1500 (at most 4 blocks of 12
        # atoms), (4140 + 24) x 32233 and (1 + 36) x 1e8; searches count
        # table rows times paths plus their partitions: 4098 x 1e5 +
        # Bell(12) and 4098 x 66000 + Bell(12)
        with pytest.raises(SizeLimitError) as exc:
            resolve_config(document, suite_name)
        message = str(exc.value)
        assert message.startswith(f"{field}: ")
        assert f"an estimated {estimate} {limit}" in message
        cap = suites.MAX_TABLE_PATHS if limit == "table-paths" else suites.MAX_GROUPING_PATHS
        assert str(cap) in message

    @pytest.mark.parametrize(
        "document, suite_name",
        [
            # (4140 + 24) x 32232 lies just within the limit
            ({"engine": {"paths": 32_232}}, "randomisation"),
            # 88574 x 1500, at most 3 blocks of 12 atoms
            ({"suite": {"n_atoms": 12, "max_blocks": 3}}, "randomisation"),
            ({"suite": {"n_grid": [12], "empirical_limit": 4}}, "example-3-4"),
            ({"suite": {"n_atoms": 10}, "engine": {"mode": "greedy"}}, "thm-3-3"),
            (_sized_input(9, "density", "contiguous"), None),
            (_sized_input(12, "measure", "exhaustive"), None),
            # norms turns a density into an (N, d) measure and searches no
            # ensemble
            (_sized_input(9, "density", "exhaustive"), None),
            # searches that counted Bell(N) x paths were refused here:
            # 115975 x 30000 and 21147 x 30000; their tables take 1026 x
            # 30000 and 514 x 30000
            ({"suite": {"n_atoms": 10}}, "thm-3-3"),
            (_sized_input(9, "density", "auto"), "thm-3-3"),
            # 4098 x 64000 + Bell(12) lies just within the limit
            (_sized_input(12, "density", "auto") | {"engine": {"paths": 64_000}}, "thm-3-3"),
        ]
        + [(None, name) for name in SUITE_NAMES],
    )
    def test_ensemble_batches_within_the_limit_resolve(self, document, suite_name):
        resolve_config(document, suite_name)

    @pytest.mark.parametrize(
        "document, suite_name, estimate",
        [
            # (16 + 1) x 1e12: 4 atoms in R^3 make batches of 16 groupings
            ({"engine": {"paths": 10**12, "mode": "greedy"}}, "thm-3-3", "1.7e+13"),
            ({"engine": {"paths": 10**12, "mode": "contiguous"}}, "thm-3-3", "1.7e+13"),
            # auto past 12 atoms searches contiguous and greedy: (13 x 4 + 1)
            # x 1e7 in R^3, (13 x 3 + 1) x 1e7 in R^2
            ({"engine": {"paths": 10**7}, "suite": {"n_atoms": 13}}, "thm-3-3", "5.3e+08"),
            (_sized_input(13, "density", "auto") | {"engine": {"paths": 10**7}}, "thm-3-3", "4e+08"),
            # the fixed-family leg of 16 one-dimensional atoms: (16 x 2 + 1) x 1e12
            ({"engine": {"paths": 10**12}, "suite": {"n_grid": [16]}}, "example-3-4", "3.3e+13"),
            ({"engine": {"paths": 8_134_408}, "suite": {"n_grid": [16]}}, "example-3-4", "2.68e+08"),
        ],
    )
    def test_oversized_decided_batches_are_refused_before_any_run(
        self, document, suite_name, estimate
    ):
        with pytest.raises(SizeLimitError) as exc:
            resolve_config(document, suite_name)
        message = str(exc.value)
        assert message.startswith("engine.paths: ")
        assert f"an estimated {estimate} table-paths" in message
        assert str(suites.MAX_TABLE_PATHS) in message

    @pytest.mark.parametrize(
        "document, suite_name",
        [
            # 33 x 8134407 lies just within the limit
            ({"engine": {"paths": 8_134_407}, "suite": {"n_grid": [16]}}, "example-3-4"),
            # past empirical_limit or dense_limit no ensemble is searched
            ({"engine": {"paths": 10**12}, "suite": {"n_grid": [200]}}, "example-3-4"),
            ({"engine": {"paths": 10**12}, "suite": {"n_grid": [300], "empirical_limit": 300}}, "example-3-4"),
        ],
    )
    def test_decided_batches_within_the_limit_resolve(self, document, suite_name):
        resolve_config(document, suite_name)

    @pytest.mark.parametrize(
        "document, suite_name, field, estimate",
        [
            # a batch of ceil(samples / 8) draws of 8 atoms (max_atoms) in
            # lp3, which samples
            ({"engine": {"samples": 10**12}, "suite": _LP3_CELLS}, "thm-2-3", "engine.samples", "1e+12"),
            ({"engine": {"samples": 2**26 + 1}, "suite": _LP3_CELLS}, "thm-2-3", "engine.samples", "6.71e+07"),
            # lp3 samples, of 4 atoms
            ({"engine": {"samples": 10**12}, "suite": _LP3_CELLS}, "thm-3-3", "engine.samples", "5e+11"),
            # the shared draws: samples x 6 atoms at once
            (
                {"engine": {"samples": 10**12}, "suite": {"norms": ["l1", {"lp": 1.5}]}},
                "finest-partition",
                "engine.samples",
                "6e+12",
            ),
            (
                {"engine": {"samples": 11_184_811}, "suite": {"norms": [{"lp": 3}]}},
                "finest-partition",
                "engine.samples",
                "6.71e+07",
            ),
            ({"suite": {"witness_samples": 10**12}}, "cor-2-5", "suite.witness_samples", "2.5e+11"),
            ({"suite": {"survey_samples": 10**12}}, "cor-2-5", "suite.survey_samples", "2.5e+11"),
            ({"suite": {"trial_samples": 10**12}}, "cor-2-6", "suite.trial_samples", "2.5e+11"),
            # an explicit input's Gaussian legs, lp in R^2 with 13 atoms
            (
                _sized_input(13, "measure", "auto")
                | {"space": {"dim": 2, "norm": {"lp": 3}}, "engine": {"samples": 10**12}},
                None,
                "engine.samples",
                "1.62e+12",
            ),
            (
                _sized_input(13, "density", "auto")
                | {"space": {"dim": 2, "norm": {"lp": 3}}, "engine": {"samples": 10**12}},
                "thm-2-3",
                "engine.samples",
                "1.62e+12",
            ),
            # norms' greedy search over 21 l1 atoms samples Rademacher signs
            (_sized_input(21, "measure", "auto") | {"engine": {"samples": 10**9}}, None, "engine.samples", "2.62e+09"),
            # an example-3-4 grid point holds 5 floats an atom, or n (2n + 5)
            # in the dense model
            ({"suite": {"n_grid": [4, 10**9]}}, "example-3-4", "suite.n_grid", "5e+09"),
            (
                {"suite": {"n_grid": [6000], "dense_limit": 6000, "empirical_limit": 0}},
                "example-3-4",
                "suite.n_grid",
                "7.2e+07",
            ),
        ],
    )
    def test_oversized_draws_are_refused_before_any_run(
        self, document, suite_name, field, estimate
    ):
        with pytest.raises(SizeLimitError) as exc:
            resolve_config(document, suite_name)
        message = str(exc.value)
        assert message.startswith(f"{field}: ")
        assert f"an estimated {estimate} floats" in message
        assert str(suites.MAX_DRAW_FLOATS) in message

    @pytest.mark.parametrize(
        "document, suite_name",
        [
            # 2^23 draws of 8 atoms lie just within the limit
            ({"engine": {"samples": 2**26}, "suite": _LP3_CELLS}, "thm-2-3"),
            ({"engine": {"samples": 11_184_810}, "suite": {"norms": [{"lp": 3}]}}, "finest-partition"),
            # exact legs draw nothing: Hilbert bases, l1 and linf up to R^3
            ({"engine": {"samples": 10**12}, "suite": {"norms": ["l1", "linf"], "dims": [2]}}, "thm-2-3"),
            ({"engine": {"samples": 10**12}}, "thm-2-3"),
            ({"engine": {"samples": 10**12}}, "thm-3-3"),
            ({"engine": {"samples": 10**12}}, "finest-partition"),
            ({"engine": {"samples": 10**12}, "suite": {"norms": ["linf"], "dim": 3}}, "finest-partition"),
            ({"engine": {"samples": 10**12}, "suite": {"norms": ["l2", "l1"]}}, "thm-3-3"),
            (_sized_input(13, "measure", "auto") | {"engine": {"samples": 10**12}}, None),
            # the embedding suites sample every non-Hilbert ratio, and no
            # Hilbert one
            ({"suite": {"trial_samples": 10**12, "norms": ["l2"]}}, "cor-2-6"),
            # suites that take no Gaussian draws, and the largest grid
            # points of example-3-4's two models
            ({"engine": {"samples": 10**12}}, "example-3-4"),
            ({"suite": {"n_grid": [suites.MAX_DRAW_FLOATS // 5]}}, "example-3-4"),
            ({"suite": {"n_grid": [5000], "dense_limit": 5000, "empirical_limit": 0}}, "example-3-4"),
            ({"engine": {"samples": 10**12}}, "randomisation"),
            ({"engine": {"samples": 10**12}}, "cor-2-5"),
        ],
    )
    def test_draws_within_the_limit_resolve(self, document, suite_name):
        resolve_config(document, suite_name)

    @pytest.mark.parametrize(
        "document, suite_name, message",
        [
            (
                {"suite": {"n_grid": [4, 12]}},
                "example-3-4",
                "suite.exhaustive_limit: the search at n = 12 builds 4098 table rows on 100000 "
                "paths and screens 4213597 partitions, an estimated 4.14e+08 table-paths; the "
                "limit is 268435456 (2^28)",
            ),
            (
                {"engine": {"paths": 10**12, "mode": "greedy"}},
                "thm-3-3",
                "engine.paths: each ensemble's search decides batches of up to 16 groupings on "
                "1000000000000 paths besides the integral's row, an estimated 1.7e+13 "
                "table-paths; the limit is 268435456 (2^28)",
            ),
            (
                {"engine": {"paths": 32_233}},
                "randomisation",
                "suite.n_atoms: each sweep takes 4140 groupings on 32233 paths and draws and "
                "forms 24 ensemble floats a path, an estimated 1.34e+08 grouping-paths; the "
                "limit is 134217728 (2^27)",
            ),
            (
                {"engine": {"samples": 10**12}, "suite": _LP3_CELLS},
                "thm-2-3",
                "engine.samples: a Monte Carlo leg holds 125000000000 draws of 8 coefficients at "
                "once, an estimated 1e+12 floats; the limit is 67108864 (2^26)",
            ),
            (
                {"suite": {"n_grid": [10**9]}},
                "example-3-4",
                "suite.n_grid: the grid point n = 1000000000 holds its uniform partition and "
                "measure model, an estimated 5e+09 floats; the limit is 67108864 (2^26)",
            ),
        ],
        ids=[
            "exhaustive-table-paths", "decided-batch-table-paths", "grouping-paths", "floats",
            "grid-floats",
        ],
    )
    def test_each_budget_refuses_with_its_full_message(self, document, suite_name, message):
        with pytest.raises(SizeLimitError) as exc:
            resolve_config(document, suite_name)
        assert str(exc.value) == message

    def test_output_paths_must_be_strings(self):
        for key, path in (("report", None), ("csv", 5), ("svg", ["a.svg"])):
            with pytest.raises(ConfigError, match=f"^output.{key}: expected a path string"):
                resolve_config({"output": {key: path}}, "thm-2-3")

    def test_an_oversized_integrate_search_is_refused_before_it_starts(self, monkeypatch):
        def refused(*args, **kwargs):
            pytest.fail("started an oversized run")

        monkeypatch.setattr(suites, "_identity_checks", refused)
        monkeypatch.setattr(suites, "gamma_summing_norm", refused)
        with pytest.raises(SizeLimitError) as exc:
            run_integrate(resolve_config(_sized_input(12, "density", "exhaustive")))
        message = str(exc.value)
        # 4098 x 1e5 + Bell(12)
        assert message.startswith("engine.paths: each ensemble's search builds 4098 ")
        assert "an estimated 4.14e+08 table-paths" in message

    def test_the_sweep_estimate_counts_its_groupings(self):
        for n in range(1, 7):
            blocks = [g.n_blocks for g in enumerate_groupings(n, "all")]
            for k in range(1, n + 2):
                assert groupings._partition_count(n, k) == sum(b <= k for b in blocks)

    def test_partition_requires_exactly_one_form(self):
        for bad in ({}, {"uniform": 2, "weights": [0.5, 0.5]}, {"atoms": 3}):
            with pytest.raises(ConfigError, match="partition"):
                resolve_config({"partition": bad})
        with pytest.raises(ConfigError, match="partition"):
            resolve_config({"partition": {"weights": [0.5, 0.6]}})
        config = resolve_config({"partition": {"boundaries": [0.0, 0.25, 1.0]}})
        assert config.partition.n_atoms == 2

    def test_space_validation(self):
        with pytest.raises(ConfigError, match="space"):
            resolve_config({"space": {"dim": 2, "shape": "round"}})
        with pytest.raises(ConfigError, match="space.norm"):
            resolve_config({"space": {"dim": 2, "norm": "l3"}})
        config = resolve_config({"space": {"dim": 3, "norm": {"lp": 1.5}}})
        assert config.space.p == 1.5

    def test_input_requires_exactly_one_kind(self):
        partition = {"partition": {"uniform": 2}, "space": {"dim": 1}}
        with pytest.raises(ConfigError, match="input"):
            resolve_config({**partition, "input": {}})
        with pytest.raises(ConfigError, match="input"):
            resolve_config(
                {**partition, "input": {"measure": [[1.0]], "density": [[1.0]]}}
            )

    def test_input_shapes_are_validated_up_front(self):
        document = {
            "partition": {"uniform": 2},
            "space": {"dim": 2},
            "input": {"measure": [[1.0, 2.0]]},
        }
        with pytest.raises(ValueError):
            resolve_config(document)

    def test_output_keys(self):
        with pytest.raises(ConfigError, match="output"):
            resolve_config({"output": {"pdf": "x"}})
        config = resolve_config({"output": {"report": "r.json", "csv": "r.csv"}})
        assert config.outputs == {"report": "r.json", "csv": "r.csv"}

    def test_echo_is_a_fixed_point_and_drops_outputs(self):
        document = {
            "engine": {"seed": 3, "samples": 500},
            "partition": {"weights": [0.25, 0.75]},
            "space": {"dim": 2, "norm": "l1"},
            "input": {"measure": [[1.0, 0.0], [0.0, 1.0]]},
            "output": {"report": "out.json"},
        }
        config = resolve_config(document)
        echoed = config.echo()
        assert "output" not in echoed
        assert echoed["engine"]["samples"] == 500
        assert resolve_config(echoed).echo() == echoed

    def test_echo_keeps_boundaries_when_given(self):
        config = resolve_config({"partition": {"boundaries": [0.0, 0.5, 1.0]}})
        assert config.echo()["partition"] == {"boundaries": [0.0, 0.5, 1.0]}

    def test_stream_namespaces_differ_between_entry_points(self):
        config = resolve_config(None, "thm-2-3")
        assert config.root_stream("thm-2-3") != config.root_stream("thm-3-3")

    def test_commands_report_missing_sections(self):
        config = resolve_config(None)
        with pytest.raises(ConfigError, match="partition and space"):
            config.measure()


class TestNormsCommand:
    def _document(self, values, norm="l2", dim=2):
        return {
            "partition": {"weights": [1.0 / len(values)] * len(values)},
            "space": {"dim": dim, "norm": norm},
            "input": {"measure": values},
        }

    def test_single_atom_euclidean_measure(self):
        report = run_norms(resolve_config(self._document([[3.0, 4.0]])))
        assert report.suite == "norms"
        assert report.version == __version__
        assert _names(report) == [
            "gamma-variation",
            "duality",
            "total-variation",
            "randomized-variation",
        ]
        assert abs(_by_name(report, "gamma-variation").values["norm"] - 5.0) <= 1e-12
        assert abs(_by_name(report, "total-variation").values["norm"] - 5.0) <= 1e-12
        assert (
            abs(_by_name(report, "randomized-variation").values["norm"] - 5.0) <= 1e-12
        )
        assert _by_name(report, "duality").verdict == "pass"
        assert report.overall_pass

    def test_zero_measure_has_zero_norms(self):
        report = run_norms(resolve_config(self._document([[0.0, 0.0], [0.0, 0.0]])))
        for name in ("gamma-variation", "total-variation", "randomized-variation"):
            assert _by_name(report, name).values["norm"] == 0.0

    def test_exhaustive_mode_propagates_the_size_cap(self):
        document = {
            "partition": {"uniform": 13},
            "space": {"dim": 1},
            "input": {"measure": [[1.0]] * 13},
            "engine": {"mode": "exhaustive"},
        }
        with pytest.raises(SizeLimitError, match="27644437"):
            run_norms(resolve_config(document))

    @pytest.mark.parametrize(
        "norm, kinds",
        [("l1", ["rademacher"]), ({"lp": 1.5}, ["gaussian"] * 3 + ["rademacher"])],
    )
    def test_only_sampled_legs_draw_coefficients(self, monkeypatch, norm, kinds):
        # l1 takes its variation and both duality moments from the covariance;
        # with the sign enumeration capped at 4 blocks, the greedy search's
        # 5-block start samples its Rademacher moment
        drawn = []
        draw = random_sums._coefficient_batches

        def counting(stream, samples, k, kind):
            drawn.append(kind)
            return draw(stream, samples, k, kind)

        monkeypatch.setattr(random_sums, "_coefficient_batches", counting)
        monkeypatch.setattr(random_sums, "ENUMERATION_LIMIT", 4)
        values = [[1.0, 2.0], [0.5, -1.0], [-0.3, 0.2], [2.0, 0.1], [0.0, -1.5]]
        document = self._document(values, norm)
        document["engine"] = {"mode": "greedy", "samples": 2000}
        report = run_norms(resolve_config(document))
        assert drawn == kinds
        assert report.overall_pass

    def test_needs_an_input(self):
        with pytest.raises(ConfigError):
            run_norms(resolve_config({"partition": {"uniform": 2}, "space": {"dim": 1}}))


class TestIntegrateCommand:
    def test_scalar_density_identity(self):
        document = {
            "partition": {"weights": [0.5, 0.5]},
            "space": {"dim": 1},
            "input": {"density": [[1.0], [2.0]]},
            "engine": {"paths": 20_000, "samples": 2000},
        }
        report = run_integrate(resolve_config(document))
        assert report.suite == "integrate"
        assert _names(report) == [
            "identity-00-variation-vs-randomized",
            "identity-00-variation-vs-integral",
            "identity-00-randomized-vs-integral",
            "summing-moment",
        ]
        assert report.overall_pass
        moment = _by_name(report, "identity-00-variation-vs-integral")
        assert abs(moment.values["variation_moment"] - 2.5) <= 1e-12
        summing = _by_name(report, "summing-moment")
        assert summing.verdict == "info"
        assert abs(summing.values["moment"] - 2.5) <= 1e-12

    def test_requires_a_density(self):
        document = {
            "partition": {"uniform": 2},
            "space": {"dim": 1},
            "input": {"measure": [[1.0], [1.0]]},
        }
        with pytest.raises(ConfigError, match="density"):
            run_integrate(resolve_config(document))


class TestVerifySuites:
    def test_unknown_suite_names_the_known_ones(self):
        with pytest.raises(ConfigError, match="thm-2-3"):
            run_suite("thm-9-9", resolve_config(None))

    def test_duality_suite_with_an_explicit_measure(self):
        document = {
            "partition": {"weights": [0.5, 0.5]},
            "space": {"dim": 2, "norm": "l1"},
            "input": {"measure": [[1.0, 0.0], [0.0, 1.0]]},
            "engine": {"samples": 20_000},
        }
        report = run_suite("thm-2-3", resolve_config(document, "thm-2-3"))
        assert _names(report) == ["duality-explicit"]
        assert report.overall_pass

    def test_every_duality_record_carries_its_gap_and_tolerance(self):
        document = {
            "partition": {"weights": [0.5, 0.5]},
            "space": {"dim": 2, "norm": "l1"},
            "input": {"measure": [[1.0, 0.0], [0.0, 1.0]]},
        }
        records = [
            run_suite("thm-2-3", resolve_config(document, "thm-2-3")).checks[0],
            run_suite("thm-2-3", resolve_config({"suite": {"instances": 1}}, "thm-2-3")).checks[0],
            _by_name(run_norms(resolve_config(document)), "duality"),
        ]
        for record in records:
            assert sorted(record.values) == ["gap", "summing_moment", "tolerance", "variation_moment"]
            assert sorted(record.std_errors) == ["summing_moment", "variation_moment"]

    @pytest.mark.parametrize(
        "suite_name, params, field",
        [
            ("thm-2-3", {"norms": ["l1", "l9"], "dims": [2], "max_atoms": 2}, "suite.norms"),
            ("thm-3-3", {"norms": ["l1", "l9"], "instances": 2}, "suite.norms"),
            ("cor-2-5", {"witness_samples": 0}, "suite.witness_samples"),
            ("cor-2-6", {"norms": ["l1", "l9"]}, "suite.norms"),
            ("finest-partition", {"norms": ["l1", "l9"], "measures": 1}, "suite.norms"),
            ("randomisation", {"norms": ["l1", "l9"], "measures": 2}, "suite.norms"),
            ("thm-2-3", {"min_atoms": "a"}, "suite.min_atoms"),
            ("thm-2-3", {"min_atoms": 0, "max_atoms": 1}, "suite.min_atoms"),
            ("thm-3-3", {"n_atoms": 0, "instances": 1}, "suite.n_atoms"),
            ("example-3-4", {"empirical_limit": "x", "n_grid": [4]}, "suite.empirical_limit"),
            ("cor-2-5", {"isometry_dim": 0, "isometry_trials": 2}, "suite.isometry_dim"),
            ("cor-2-5", {"isometry_atoms": "x"}, "suite.isometry_atoms"),
            ("thm-2-3", {"dims": [0], "max_atoms": 2}, "suite.dims"),
            ("thm-2-3", {"dims": 3}, "suite.dims"),
            ("thm-2-3", {"dims": [2.5]}, "suite.dims"),
            ("thm-2-3", {"dims": [2, True]}, "suite.dims"),
            ("thm-3-3", {"dims": [0], "instances": 2}, "suite.dims"),
            ("thm-3-3", {"dims": 3}, "suite.dims"),
            ("thm-3-3", {"dims": [2.5]}, "suite.dims"),
            ("thm-3-3", {"dims": []}, "suite.dims"),
            # a norm outside the cotype-2 direction, before any l1 trial runs
            ("cor-2-6", {"norms": ["l1", {"lp": 3}]}, "suite.norms"),
        ]
        + [
            (suite_name, {"norms": norms}, "suite.norms")
            for suite_name in ("thm-2-3", "thm-3-3", "cor-2-6", "finest-partition", "randomisation")
            for norms in (5, [])
        ]
        + [
            # an empty atom range, also next to an explicit input
            ("thm-2-3", {"min_atoms": 3, "max_atoms": 2}, "suite.max_atoms"),
            ("cor-2-5", {"witness_samples": 1}, "suite.witness_samples"),
            ("cor-2-5", {"survey_samples": 1}, "suite.survey_samples"),
            ("cor-2-6", {"trial_samples": 1}, "suite.trial_samples"),
        ],
    )
    def test_suite_fields_are_validated_before_any_instance_starts(
        self, suite_name, params, field
    ):
        # a config refused while it resolves cannot start an instance
        with pytest.raises(ConfigError, match=f"^{field}: "):
            resolve_config({"suite": params}, suite_name)

    def test_an_empty_atom_range_is_refused_next_to_an_input(self):
        document = {
            "partition": {"uniform": 2},
            "space": {"dim": 2, "norm": "l1"},
            "input": {"measure": [[1.0, 0.0], [0.0, 1.0]]},
            "suite": {"min_atoms": 3, "max_atoms": 2},
        }
        with pytest.raises(ConfigError, match=r"^suite\.max_atoms: expected an integer >= 3, got 2"):
            resolve_config(document, "thm-2-3")
        document["suite"]["max_atoms"] = 3
        assert resolve_config(document, "thm-2-3").suite["max_atoms"] == 3

    def test_duality_suite_random_instances(self):
        config = resolve_config(
            {"engine": {"samples": 4000}, "suite": {"instances": 6, "max_atoms": 4}},
            "thm-2-3",
        )
        report = run_suite("thm-2-3", config)
        names = _names(report)
        assert names[:2] == ["duality-000", "duality-001"]
        assert names[-1] == "duality-summary"
        summary = _by_name(report, "duality-summary")
        assert summary.values["instances"] == 6
        assert report.overall_pass

    def test_identity_suite_with_an_explicit_density(self):
        document = {
            "partition": {"uniform": 4},
            "space": {"dim": 2},
            "input": {"density": [[3.0, 4.0]] * 4},
            "engine": {"paths": 20_000, "samples": 2000},
        }
        report = run_suite("thm-3-3", resolve_config(document, "thm-3-3"))
        assert len(report.checks) == 3
        assert report.overall_pass
        first = report.checks[0]
        assert abs(first.values["variation_moment"] - 25.0) <= 1e-12

    def test_divergence_suite_tracks_the_grid(self):
        config = resolve_config(
            {
                "engine": {"paths": 2000, "samples": 2000},
                "suite": {"n_grid": [4, 16], "empirical_limit": 16},
            },
            "example-3-4",
        )
        report = run_suite("example-3-4", config)
        assert _names(report) == [
            "total-variation-n4",
            "randomized-exact-n4",
            "randomized-empirical-n4",
            "total-variation-n16",
            "randomized-exact-n16",
            "randomized-empirical-n16",
        ]
        assert report.overall_pass
        tv4 = _by_name(report, "total-variation-n4")
        assert abs(tv4.values["total_variation"] - 2.0) <= 1e-9
        tv16 = _by_name(report, "total-variation-n16")
        assert abs(tv16.values["total_variation"] - 4.0) <= 1e-9
        exact = _by_name(report, "randomized-exact-n4")
        assert abs(exact.values["randomized_variation"] - 1.0) <= 1e-12

    def test_an_empirical_divergence_point_streams_its_paths(self):
        # 100 atoms, 100k paths, as at default: the paths in chunks of 1310,
        # each chunk's block table and the (3, paths) statistics of the
        # fixed family, but never the 80 MB paths x atoms array.  Holding the
        # sampled paths, their transpose and the finest grouping's table
        # peaked at 156 MB.
        params = dict(suites.SUITE_DEFAULTS["example-3-4"])
        tracemalloc.start()
        try:
            checks = suites._divergence_point(100, params, RandomStream(0, (5, 3)), 100_000, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.verdict for c in checks] == ["pass"] * 3
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "n, chunk, paths",
        [
            (4, None, 3001),
            (4, 2, 3001),
            (4, 7, 3001),
            (16, None, 3001),
            (16, 3, 3001),
            (16, 2, 5),
            (100, None, 3001),
            (100, 2, 5),
        ],
    )
    def test_streamed_estimates_equal_the_kernel_on_the_whole_ensemble(
        self, n, chunk, paths, monkeypatch
    ):
        # the search selects on the first paths // 2 paths and holds out the
        # rest: 1501 = 2 x 750 + 1 and 7 x 214 + 3, and 3 = 2 + 1, so chunks
        # of 2 would leave one path alone, whose atoms numpy would sum
        # pairwise; it joins the chunk before it
        if chunk is not None:
            monkeypatch.setattr(brownian, "_ensemble_chunk", lambda *args: chunk)
        params = dict(suites.SUITE_DEFAULTS["example-3-4"])
        stream = RandomStream(86, (n,))
        record = suites._divergence_point(n, params, stream, paths, 3.0)[-1]
        partition = AtomPartition.uniform(n)
        sampled = sample_brownian(partition, paths, stream).paths
        contributions = np.ascontiguousarray(sampled.T)[:, :, None]
        candidates = ref.set_partitions_reference(range(n))
        if n > params["exhaustive_limit"]:
            candidates = [g.blocks for g in suites._fixed_grouping_family(n)]
        base = NormedSpace.l2(1)
        half = paths // 2
        winner = ref.ensemble_randomized_search_reference(
            contributions[:, :half], base.norm_sq, True, candidates=candidates
        )["grouping"]
        expected = ref.ensemble_randomized_search_reference(
            contributions[:, half:], base.norm_sq, True, candidates=[winner]
        )["moment"]
        assert record.name == f"randomized-empirical-n{n}"
        assert record.values["randomized_moment"] == expected["value"]
        assert record.std_errors["randomized_moment"] == expected["std_error"]

    def test_domination_suite_small_run(self):
        config = resolve_config(
            {"suite": {"measures": 2, "n_atoms": 4, "norms": ["l2"]}},
            "finest-partition",
        )
        report = run_suite("finest-partition", config)
        assert report.overall_pass
        assert all(name.startswith("domination-l2-") for name in _names(report))

    @pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
    @pytest.mark.parametrize("scale", [100.0, 1000.0, 1e6])
    def test_domination_ties_pass_at_any_scale(self, norm, scale):
        # every coarsening ties with the finest grouping; rounding error in
        # the moments grows with their size and must not read as an excess
        config = resolve_config(_constant_density_input(norm, scale), "finest-partition")
        report = run_suite("finest-partition", config)
        (check,) = report.checks
        assert check.name == f"domination-{norm}-explicit"
        assert check.std_errors == {"finest_moment": 0.0}
        assert check.values["groupings"] == 51
        assert check.values["failures"] == 0
        assert report.overall_pass

    @pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
    def test_domination_flags_a_relative_excess_above_rounding(self, norm, monkeypatch):
        # the batched scan's entry point inflates the target's mask row
        target = Grouping([[0, 1], [2], [3], [4]], 5)
        row = ref.block_masks_reference([target.blocks], 5)[0]
        exact = SharedDrawMoments.moments

        def inflated(self, masks):
            values, errors = exact(self, masks)
            (finest,), _ = exact(self, ref.block_masks_reference([Grouping.finest(5).blocks], 5))
            hit = np.all(masks == row[: masks.shape[1]], axis=1)
            return np.where(hit, values + 1e-9 * finest, values), errors

        monkeypatch.setattr(SharedDrawMoments, "moments", inflated)
        config = resolve_config(_constant_density_input(norm, 1e6), "finest-partition")
        (check,) = run_suite("finest-partition", config).checks
        assert check.verdict == "fail"
        assert check.values["failures"] == 1
        assert check.detail == f"worst grouping {target.to_lists()}"

    def test_randomisation_suite_small_run(self):
        config = resolve_config(
            {
                "engine": {"paths": 500},
                "suite": {"measures": 2, "n_atoms": 4, "max_blocks": 4, "norms": ["l2"]},
            },
            "randomisation",
        )
        report = run_suite("randomisation", config)
        assert _names(report) == ["signs-00", "signs-01"]
        assert report.overall_pass

    def test_upper_embedding_suite_small_run(self):
        config = resolve_config(
            {
                "suite": {
                    "isometry_trials": 20,
                    "witness_samples": 20_000,
                    "survey_trials": 5,
                    "survey_samples": 2000,
                }
            },
            "cor-2-5",
        )
        report = run_suite("cor-2-5", config)
        assert _names(report) == [
            "hilbert-isometry",
            "sup-norm-witness",
            "sup-norm-survey",
        ]
        assert report.overall_pass
        assert _by_name(report, "sup-norm-survey").verdict == "info"
        witness = _by_name(report, "sup-norm-witness")
        assert abs(witness.values["ratio"] - math.sqrt(1.0 + 2.0 / math.pi)) <= 0.05

    def test_lower_embedding_suite_structure(self):
        config = resolve_config(
            {"suite": {"trials": 20, "trial_samples": 2000}}, "cor-2-6"
        )
        report = run_suite("cor-2-6", config)
        assert _names(report) == ["lower-bound-l1", "lower-bound-lp1.5"]
        for check in report.checks:
            assert check.verdict in ("pass", "fail")
            assert set(check.values) >= {
                "min_ratio",
                "floor",
                "threshold",
                "trials_below_one",
            }

    def test_reports_are_deterministic_and_thread_invariant(self):
        config = resolve_config(
            {"engine": {"samples": 2000}, "suite": {"instances": 6, "max_atoms": 4}},
            "thm-2-3",
        )
        single = run_suite("thm-2-3", config, threads=1)
        again = run_suite("thm-2-3", config, threads=1)
        threaded = run_suite("thm-2-3", config, threads=4)
        assert render_json(single.to_document()) == render_json(again.to_document())
        assert render_json(single.to_document()) == render_json(threaded.to_document())

    def test_every_declared_suite_is_runnable(self):
        assert set(SUITE_NAMES) == {
            "thm-2-3",
            "thm-3-3",
            "cor-2-5",
            "cor-2-6",
            "example-3-4",
            "finest-partition",
            "randomisation",
        }


def _label_order(n_atoms):
    """The reference's set partitions of n_atoms atoms, blocks ascending and
    ordered by their smallest atom, in lexicographic order of their
    restricted-growth label strings (atom a labelled with its block)."""

    def labels(blocks):
        row = [0] * n_atoms
        for m, block in enumerate(blocks):
            for atom in block:
                row[atom] = m
        return row

    partitions = [sorted(map(sorted, p)) for p in ref.set_partitions_reference(range(n_atoms))]
    return sorted(partitions, key=labels)


# atoms 0, 2 and 4 are zero: every grouping that only merges them ties
_ZERO_HEAVY = [[0.0, 0.0], [1.0, -2.0], [0.0, 0.0], [2.0, 1.0], [0.0, 0.0]]


class TestTiesFollowTheLabelOrder:
    """On exact ties the worst-grouping details name the first tied
    grouping in the enumeration order, the lexicographic order of label
    rows."""

    @pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
    def test_finest_partition_names_the_first_tied_coarsening(self, norm):
        document = {
            "partition": {"uniform": 5},
            "space": {"dim": 2, "norm": norm},
            "input": {"measure": _ZERO_HEAVY},
            "suite": {"norms": [norm]},
        }
        config = resolve_config(document, "finest-partition")
        (check,) = run_suite("finest-partition", config).checks
        assert check.detail == "worst grouping [[0, 2, 4], [1], [3]]"
        assert (check.values["worst_excess"], check.values["failures"]) == (0.0, 0)
        shared = SharedDrawMoments(config.measure())
        finest = shared.moment(Grouping.finest(5)).value
        tied = [
            blocks
            for blocks in _label_order(5)[:-1]  # the finest comes last
            if shared.moment(Grouping(blocks, 5)).value - finest == 0.0
        ]
        assert len(tied) == 4 and tied[0] == [[0, 2, 4], [1], [3]]

    @pytest.mark.parametrize(
        "norm, worst",
        [
            ("l2", [[0, 1, 2, 3], [4]]),
            ("l1", [[0, 1, 2], [3], [4]]),
            ("linf", [[0, 1, 2, 4], [3]]),
        ],
    )
    def test_the_sweep_names_the_first_tied_grouping(self, norm, worst, monkeypatch):
        # atom 4 repeats atom 1, and small integers keep many sums exact
        values = np.array(_ZERO_HEAVY)
        values[4] = values[1]
        partition = AtomPartition.uniform(5)
        monkeypatch.setattr(suites, "_random_atoms", lambda stream, n, dim: (partition, values))
        space = NormedSpace.from_tag(2, norm)
        stream = RandomStream(5, (0,))
        record = suites._randomisation_instance(0, space, 5, 5, stream, 40, 3.0)
        assert record.detail == f"norm={norm} worst grouping {worst}"
        assert (record.values["groupings"], record.values["failures"]) == (52, 0)
        # the same sweep over the reference's partitions in label order
        order = _label_order(5)
        sweep = randomisation_identity_sweep(
            StepFunction(partition, space, values),
            PartitionMasks(ref.block_masks_reference(order, 5)),
            40,
            stream.substream(1),
        )
        ratio = sweep.gap / sweep.tolerance
        assert order[int(np.argmax(ratio))] == worst
        assert np.count_nonzero(ratio == np.max(ratio)) > 1


@pytest.fixture
def made_groupings(monkeypatch):
    """Counts the Groupings made through Grouping.__init__ and
    grouping_from_labels, wherever a gammavar module binds it."""
    made = []
    init, from_labels = Grouping.__init__, groupings.grouping_from_labels

    def counted_init(self, *args, **kwargs):
        made.append("init")
        init(self, *args, **kwargs)

    def counted_from_labels(labels):
        made.append("labels")
        return from_labels(labels)

    monkeypatch.setattr(Grouping, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("gammavar") and getattr(module, "grouping_from_labels", None) is from_labels:
            monkeypatch.setattr(module, "grouping_from_labels", counted_from_labels)
    return made


class TestBatchedPartitionScans:
    """Both suites that scan every set partition take label rows in
    batches and make a Grouping only for a partition their report names."""

    def test_a_finest_partition_run_at_8_atoms_makes_few_groupings(self, made_groupings):
        config = resolve_config({"suite": {"measures": 1, "n_atoms": 8}}, "finest-partition")
        report = run_suite("finest-partition", config)
        assert report.overall_pass
        assert [check.values["groupings"] for check in report.checks] == [4139] * 3
        assert len(made_groupings) < 10

    def test_a_randomisation_sweep_at_7_atoms_makes_few_groupings(self, made_groupings):
        document = {"engine": {"paths": 40}, "suite": {"measures": 1, "n_atoms": 7, "max_blocks": 7}}
        report = run_suite("randomisation", resolve_config(document, "randomisation"))
        assert report.checks[0].values["groupings"] == 877
        assert len(made_groupings) < 10

    @pytest.mark.parametrize(
        "suite_name, document",
        [
            (
                "finest-partition",
                {
                    "engine": {"samples": 500},
                    "suite": {"measures": 2, "n_atoms": 5, "norms": ["l1", "l2", "linf", {"lp": 1.5}]},
                },
            ),
            ("randomisation", {"engine": {"paths": 40}, "suite": {"measures": 3, "n_atoms": 5}}),
        ],
    )
    def test_the_report_does_not_depend_on_the_label_chunks(self, suite_name, document, monkeypatch):
        config = resolve_config(document, suite_name)
        whole = render_json(run_suite(suite_name, config).to_document())
        # a label row of 5 atoms counts 84 bytes: chunks of 1 and of 3 rows
        for size in (84, 3 * 84):
            monkeypatch.setattr(groupings, "_LABEL_CHUNK_BYTES", size)
            assert render_json(run_suite(suite_name, config).to_document()) == whole

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf", {"lp": 1.5}])
    def test_one_atom_has_no_coarsening(self, norm):
        document = {"engine": {"samples": 100}, "suite": {"measures": 1, "n_atoms": 1, "norms": [norm]}}
        (check,) = run_suite("finest-partition", resolve_config(document, "finest-partition")).checks
        assert check.values["groupings"] == check.values["failures"] == 0
        assert check.values["worst_excess"] == 0.0
        assert check.detail == "worst grouping [[0]]"
