import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gammavar import __version__, cli, suites
from gammavar.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_PASS, main


def _write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def _norms_config(tmp_path, **extra):
    document = {
        "partition": {"weights": [0.5, 0.5]},
        "space": {"dim": 2, "norm": "l2"},
        "input": {"measure": [[1.0, 0.0], [0.0, 1.0]]},
        **extra,
    }
    return _write_config(tmp_path, document)


class TestNormsCommand:
    def test_requires_a_config(self, capsys):
        assert main(["norms"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_writes_a_sorted_json_report_to_stdout(self, tmp_path, capsys):
        code = main(["norms", "--config", _norms_config(tmp_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_PASS
        document = json.loads(out)
        assert document["suite"] == "norms"
        assert document["overall_pass"] is True
        ordered = json.loads(out, object_pairs_hook=lambda pairs: [k for k, _ in pairs])
        assert ordered == sorted(ordered)
        # stderr carries the human summary, stdout only the document
        assert "norms: pass" in err
        assert out.endswith("}\n")

    def test_report_flag_redirects_stdout(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(
            ["norms", "--config", _norms_config(tmp_path), "--report", str(target)]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_PASS
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["suite"] == "norms"
        assert f"report written to {target}" in err

    def test_csv_flag_writes_crlf_rows(self, tmp_path):
        target = tmp_path / "out.csv"
        main(["norms", "--config", _norms_config(tmp_path), "--csv", str(target)])
        raw = target.read_bytes()
        assert raw.startswith(b"suite,check,verdict,quantity,value,std_error\r\n")

    def test_svg_is_skipped_when_nothing_is_chartable(self, tmp_path, capsys):
        target = tmp_path / "out.svg"
        code = main(["norms", "--config", _norms_config(tmp_path), "--svg", str(target)])
        assert code == EXIT_PASS
        assert not target.exists()
        assert "svg skipped" in capsys.readouterr().err

    def test_config_output_paths_apply_when_flags_are_absent(self, tmp_path, capsys):
        target = tmp_path / "from-config.json"
        path = _norms_config(tmp_path, output={"report": str(target)})
        assert main(["norms", "--config", path]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert target.exists()

    def test_flags_beat_config_output_paths(self, tmp_path, capsys):
        ignored, target = tmp_path / "from-config.json", tmp_path / "from-flag.json"
        path = _norms_config(tmp_path, output={"report": str(ignored)})
        assert main(["norms", "--config", path, "--report", str(target)]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert target.exists() and not ignored.exists()

    @pytest.mark.parametrize("command", [["norms"], ["verify", "thm-2-3"]])
    def test_a_null_output_path_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # the config's output section is read once, validated: a null path
        # once printed the report to stdout
        def refused(*args, **kwargs):
            pytest.fail("started a run with a bad output path")

        monkeypatch.setattr(cli, "run_suite", refused)
        monkeypatch.setattr(cli, "run_norms", refused)
        path = _norms_config(tmp_path, output={"report": None})
        assert main(command + ["--config", path]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: output.report: expected a path string, got None")

    def test_size_cap_surfaces_as_a_config_error(self, tmp_path, capsys):
        document = {
            "partition": {"uniform": 13},
            "space": {"dim": 1},
            "input": {"measure": [[1.0]] * 13},
            "engine": {"mode": "exhaustive"},
        }
        code = main(["norms", "--config", _write_config(tmp_path, document)])
        assert code == EXIT_ERROR
        assert "27644437" in capsys.readouterr().err


    def test_a_density_at_the_defaults_searches_no_ensemble(self, tmp_path, capsys):
        # a density of 8 atoms at the default 100k paths: norms turns it into
        # an (N, d) measure and searches no ensemble, whatever integrate's
        # preflight would say of its ensemble search
        document = {
            "partition": {"uniform": 8},
            "space": {"dim": 2, "norm": "l1"},
            "input": {"density": [[1.0, -0.5], [0.25, 2.0], [-1.5, 0.75], [0.5, 0.5]] * 2},
        }
        path = _write_config(tmp_path, document)
        code = main(["norms", "--config", path])
        checks = json.loads(capsys.readouterr().out)["checks"]
        details = {check["name"]: check.get("detail", "") for check in checks}
        assert code == EXIT_PASS
        assert details["randomized-variation"].startswith("mode=exhaustive ")

    def test_a_count_below_two_names_its_field(self, tmp_path, capsys):
        path = _norms_config(tmp_path, space={"dim": 2, "norm": "l1"})
        assert main(["norms", "--config", path, "--samples", "1"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: engine.samples: ")
        assert main(["integrate", "--paths", "1"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: engine.paths: ")
        # a Euclidean norms run draws no samples, yet one sample is refused
        hilbert = _norms_config(tmp_path, engine={"samples": 1})
        assert main(["norms", "--config", hilbert]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: engine.samples: ")

    def test_greedy_mode_runs_the_variation_fast_path(self, tmp_path, capsys):
        # the variation norm has one route; only the randomized search merges
        # greedily
        path = _norms_config(tmp_path, engine={"mode": "greedy"})
        code = main(["norms", "--config", path])
        checks = json.loads(capsys.readouterr().out)["checks"]
        details = {check["name"]: check.get("detail", "") for check in checks}
        assert code == EXIT_PASS
        assert details["gamma-variation"].startswith("mode=fast_path ")
        assert details["randomized-variation"].startswith("mode=greedy ")

    def test_exhaustive_searches_cover_a_zero_atom(self, tmp_path, capsys):
        # atom 2 is zero: leaving it out ties exactly, and the randomized
        # search reports the tied set partition with the fewest blocks; the
        # variation norm reports the finest grouping under every engine.mode
        document = {
            "partition": {"uniform": 3},
            "space": {"dim": 2, "norm": "l2"},
            "input": {"measure": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
            "engine": {"mode": "exhaustive"},
        }
        code = main(["norms", "--config", _write_config(tmp_path, document)])
        checks = json.loads(capsys.readouterr().out)["checks"]
        details = {check["name"]: check.get("detail", "") for check in checks}
        assert code == EXIT_PASS
        assert details["gamma-variation"] == "mode=fast_path grouping=[[0], [1], [2]]"
        assert details["randomized-variation"] == "mode=exhaustive grouping=[[0, 1, 2]]"


class TestVerifyCommand:
    def test_small_divergence_suite_with_chart(self, tmp_path, capsys):
        document = {
            "engine": {"paths": 1000, "samples": 1000},
            "suite": {"n_grid": [4, 16], "empirical_limit": 4},
        }
        svg = tmp_path / "chart.svg"
        code = main(
            [
                "verify",
                "example-3-4",
                "--config",
                _write_config(tmp_path, document),
                "--svg",
                str(svg),
            ]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_PASS
        assert svg.read_text(encoding="utf-8").startswith("<svg")
        assert f"svg written to {svg}" in err
        assert json.loads(out)["suite"] == "example-3-4"

    def test_failing_checks_exit_with_two(self, tmp_path, capsys):
        # an off-euclidean duality instance with a microscopic tolerance: the
        # two monte carlo legs cannot agree to within z = 1e-6 standard errors
        # (lp 1.5 has no covariance closed form, so both legs sample)
        document = {
            "partition": {"weights": [0.5, 0.5]},
            "space": {"dim": 2, "norm": {"lp": 1.5}},
            "input": {"measure": [[1.0, 2.0], [0.5, -1.0]]},
            "engine": {"samples": 2000, "z": 1e-6},
        }
        code = main(["verify", "thm-2-3", "--config", _write_config(tmp_path, document)])
        out, err = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["overall_pass"] is False
        assert "FAIL" in err

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert main(["verify", "thm-9-9"]) == EXIT_ERROR
        capsys.readouterr()

    def test_flag_overrides_reach_the_report_config(self, tmp_path, capsys):
        document = {"suite": {"instances": 2, "max_atoms": 3}}
        code = main(
            [
                "verify",
                "thm-2-3",
                "--config",
                _write_config(tmp_path, document),
                "--seed",
                "9",
                "--samples",
                "2000",
            ]
        )
        out, _ = capsys.readouterr()
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED)
        engine = json.loads(out)["config"]["engine"]
        assert engine["seed"] == 9
        assert engine["samples"] == 2000

    def test_the_seed_flag_takes_any_nonnegative_integer(self, tmp_path, capsys):
        assert main(["verify", "--help"]) == EXIT_PASS
        assert "--seed SEED" in " ".join(capsys.readouterr().out.split())
        config = _write_config(tmp_path, {"suite": {"instances": 2, "max_atoms": 3}})
        # seeds past 64 bits are SeedSequence entropy of several words
        seed = 2**64 + 3
        code = main(["verify", "thm-2-3", "--config", config, "--seed", str(seed)])
        out, _ = capsys.readouterr()
        assert code in (EXIT_PASS, EXIT_CHECK_FAILED)
        assert json.loads(out)["config"]["engine"]["seed"] == seed
        assert main(["verify", "thm-2-3", "--config", config, "--seed", "-1"]) == EXIT_ERROR
        assert "engine.seed: expected a nonnegative integer" in capsys.readouterr().err


class TestIntegrateCommand:
    def test_runs_with_a_built_in_demo_config(self, capsys):
        code = main(["integrate", "--samples", "1000", "--paths", "1000"])
        out, err = capsys.readouterr()
        assert code == EXIT_PASS
        document = json.loads(out)
        assert document["suite"] == "integrate"
        assert "integrate: pass" in err


class TestErrorHandling:
    def test_missing_config_file(self, capsys):
        assert main(["norms", "--config", "/nonexistent/conf.json"]) == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["norms", "--config", str(path)]) == EXIT_ERROR
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_top_level(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["norms", "--config", str(path)]) == EXIT_ERROR
        assert "object" in capsys.readouterr().err

    @pytest.mark.parametrize("norm", ["l1", {"lp": 1.5}], ids=["l1", "lp1.5"])
    def test_overflowing_moments_exit_with_an_error(self, tmp_path, capsys, norm):
        # squares of values near 1e160 overflow; the infinite moments cannot
        # enter the report, and that surfaces as an error, not a traceback
        path = _norms_config(
            tmp_path,
            space={"dim": 2, "norm": norm},
            input={"measure": [[1e160, 0.0], [0.0, 1e160]]},
            output={"report": str(tmp_path / "out.json")},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["norms", "--config", path]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: non-finite value")
        assert not (tmp_path / "out.json").exists()

    def test_overflowing_ensembles_exit_with_an_error(self, tmp_path, capsys):
        # linf(4) samples the variation and takes path moments of the
        # ensemble, which overflow to inf near 1e160, never to nan
        path = _norms_config(
            tmp_path,
            engine={"samples": 1000, "paths": 200},
            partition={"uniform": 4},
            space={"dim": 4, "norm": "linf"},
            input={"density": (1e160 * np.eye(4)).tolist()},
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["integrate", "--config", path]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: non-finite value inf")

    def test_an_oversized_ensemble_batch_exits_before_it_starts(
        self, tmp_path, capsys, monkeypatch
    ):
        # 2^12 + 2 table rows at 100k paths: the estimate alone refuses it
        def refused(*args, **kwargs):
            pytest.fail("started an oversized run")

        monkeypatch.setattr(cli, "run_suite", refused)
        path = _write_config(tmp_path, {"suite": {"n_grid": [12]}})
        assert main(["verify", "example-3-4", "--config", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: suite.exhaustive_limit: ")
        assert "4098 table rows on 100000 paths and screens 4213597 partitions" in err

    @pytest.mark.parametrize(
        "command, document, field",
        [
            (
                ["verify", "thm-2-3"],
                {"engine": {"samples": 10**12}, "suite": {"norms": ["l1", {"lp": 3}]}},
                "engine.samples",
            ),
            (["verify", "cor-2-6"], {"suite": {"trial_samples": 10**12}}, "suite.trial_samples"),
            (["verify", "thm-3-3"], {"engine": {"paths": 10**12, "mode": "greedy"}}, "engine.paths"),
            (
                ["integrate"],
                {
                    "partition": {"uniform": 4},
                    "space": {"dim": 2, "norm": "l2"},
                    "input": {"density": [[1.0, 2.0]] * 4},
                    "engine": {"paths": 10**12, "mode": "greedy"},
                },
                "engine.paths",
            ),
        ],
    )
    def test_oversized_draws_and_batches_exit_before_they_start(
        self, tmp_path, capsys, monkeypatch, command, document, field
    ):
        def refused(*args, **kwargs):
            pytest.fail("started an oversized run")

        for name in ("verify_duality", "run_embedding_trials", "verify_integral_identity"):
            monkeypatch.setattr(suites, name, refused)
        path = _write_config(tmp_path, document)
        assert main(command + ["--config", path]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "suite, params, field",
        [
            ("cor-2-5", {"witness_samples": 1}, "suite.witness_samples"),
            ("cor-2-5", {"survey_samples": 1}, "suite.survey_samples"),
            ("cor-2-6", {"trial_samples": 1}, "suite.trial_samples"),
            ("thm-2-3", {"min_atoms": 3, "max_atoms": 2}, "suite.max_atoms"),
        ],
    )
    def test_a_bad_count_exits_before_any_trial(
        self, tmp_path, capsys, monkeypatch, suite, params, field
    ):
        def refused(*args, **kwargs):
            pytest.fail("started a refused run")

        for name in ("verify_duality", "run_embedding_trials", "embedding_ratio"):
            monkeypatch.setattr(suites, name, refused)
        path = _write_config(tmp_path, {"suite": params})
        assert main(["verify", suite, "--config", path]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_an_empty_norm_list_exits_before_any_trial(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"suite": {"norms": []}})
        assert main(["verify", "cor-2-6", "--config", path]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: suite.norms: ")

    def test_a_greedy_integrate_past_the_sign_cap_exits_before_it_starts(
        self, tmp_path, capsys, monkeypatch
    ):
        # the finest grouping of 21 atoms in l1 has 2^20 sign patterns
        def refused(*args, **kwargs):
            pytest.fail("started a search past the sign enumeration cap")

        monkeypatch.setattr(suites, "verify_integral_identity", refused)
        document = {
            "partition": {"uniform": 21},
            "space": {"dim": 3, "norm": "l1"},
            "input": {"density": [[1.0, -0.5, 2.0]] * 21},
            "engine": {"mode": "greedy", "paths": 40, "samples": 200},
        }
        path = _write_config(tmp_path, document)
        assert main(["integrate", "--config", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: partition: ")
        assert "capped at 20 atoms outside a Hilbert base; got 21" in err

    def test_version_flag_exits_cleanly(self, capsys):
        assert main(["--version"]) == EXIT_PASS
        assert __version__ in capsys.readouterr().out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "gammavar", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout


# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported.
_BLAS_PIN_PROBE = """
import os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import gammavar
print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
"""


class TestBlasThreadPin:
    def _probe(self, **blas_env):
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env.update(blas_env)
        result = subprocess.run(
            [sys.executable, "-c", _BLAS_PIN_PROBE],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    def test_import_pins_blas_before_numpy_loads(self):
        # covers both entry points: `python -m gammavar` and the `gammavar`
        # script (gammavar.cli:main) import the package first
        assert self._probe() == ["1", "1"]

    def test_a_value_the_user_set_wins(self):
        assert self._probe(OPENBLAS_NUM_THREADS="2") == ["2", "2"]


# The benchmark's set-up region, then a stream's first draw.
_SET_UP_PROBE = """
import sys

import gammavar.cli
from gammavar.suites import SUITE_DEFAULTS, resolve_config

for suite in SUITE_DEFAULTS:
    resolve_config(None, suite_name=suite)
resolve_config(gammavar.cli._DEFAULT_INTEGRATE_CONFIG)
loaded = "numpy.random" in sys.modules
gammavar.RandomStream(0).generator()
print(loaded, "numpy.random" in sys.modules)
"""


def test_set_up_leaves_numpy_random_to_the_first_draw():
    # numpy.random loads in about 8 ms: imported at set-up, that time
    # would only move out of the run
    result = subprocess.run(
        [sys.executable, "-c", _SET_UP_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
