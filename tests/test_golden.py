"""Report bytes of `norms` and reduced `verify` suites against golden files.

Each tests/golden/<name>.config.json holds a config, and <name>.report.json
holds the report that

    python -m gammavar norms --config tests/golden/<name>.config.json

printed for a norms-<...> name, or

    python -m gammavar verify <suite> --config tests/golden/<name>.config.json

for a verify-<...> name (VERIFY_SUITES names the suite), or

    python -m gammavar integrate --config tests/golden/<name>.config.json

for an integrate-<...> name.  Byte-identical
reports are an invariant across changes: a change that alters them on
purpose regenerates these files and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gammavar.cli import EXIT_PASS, main

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(path.name[: -len(".config.json")] for path in GOLDEN.glob("*.config.json"))
NORMS_NAMES = [name for name in NAMES if name.startswith("norms-")]
INTEGRATE_NAMES = [name for name in NAMES if name.startswith("integrate-")]
VERIFY_SUITES = {
    "verify-example-3-4": "example-3-4",
    "verify-finest-partition-l2": "finest-partition",
    "verify-finest-partition-mixed": "finest-partition",
    "verify-randomisation": "randomisation",
    "verify-randomisation-lp-d3": "randomisation",
    "verify-thm-2-3": "thm-2-3",
    "verify-thm-3-3": "thm-3-3",
}


def test_the_golden_set_is_present():
    assert NORMS_NAMES == ["norms-l1-d2-n8", "norms-linf-d3-n7", "norms-lp1.5-d2-n7"]
    assert INTEGRATE_NAMES == ["integrate-l1-d3-n5"]
    assert sorted(VERIFY_SUITES) == [
        "verify-example-3-4",
        "verify-finest-partition-l2",
        "verify-finest-partition-mixed",
        "verify-randomisation",
        "verify-randomisation-lp-d3",
        "verify-thm-2-3",
        "verify-thm-3-3",
    ]
    assert NAMES == sorted(NORMS_NAMES + INTEGRATE_NAMES + list(VERIFY_SUITES))


def _assert_golden(name, argv, capsys, config=None):
    code = main(argv + ["--config", str(config or GOLDEN / f"{name}.config.json")])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.report.json").read_bytes()


@pytest.mark.parametrize("name", NORMS_NAMES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_norms_report_is_byte_identical(name, threads, capsys):
    _assert_golden(name, ["norms", "--threads", threads], capsys)


@pytest.mark.parametrize("name", INTEGRATE_NAMES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_integrate_report_is_byte_identical(name, threads, capsys):
    _assert_golden(name, ["integrate", "--threads", threads], capsys)


@pytest.mark.parametrize("name", sorted(VERIFY_SUITES))
@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_report_is_byte_identical(name, threads, capsys):
    _assert_golden(name, ["verify", VERIFY_SUITES[name], "--threads", threads], capsys)


@pytest.mark.parametrize("name", NAMES)
def test_the_embedded_config_reruns_verbatim(name, tmp_path, capsys):
    # a report embeds its resolved config, so feeding that config back
    # through the same command reproduces the report
    embedded = json.loads((GOLDEN / f"{name}.report.json").read_bytes())["config"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(embedded), encoding="utf-8")
    command = ["verify", VERIFY_SUITES[name]] if name in VERIFY_SUITES else [name.split("-")[0]]
    _assert_golden(name, command, capsys, config)


def _module_entry_point_report(name):
    # a fresh interpreter through `python -m gammavar`, which pins BLAS on
    # import, at two threads
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "gammavar",
            "verify",
            VERIFY_SUITES[name],
            "--threads",
            "2",
            "--config",
            str(GOLDEN / f"{name}.config.json"),
        ],
        capture_output=True,
    )
    assert result.returncode == EXIT_PASS, result.stderr.decode()
    return result.stdout


def test_the_module_entry_point_prints_the_golden_bytes():
    name = "verify-randomisation"
    assert _module_entry_point_report(name) == (GOLDEN / f"{name}.report.json").read_bytes()


def test_the_module_entry_point_prints_the_ensemble_search_golden_bytes():
    # thm-3-3 runs the exhaustive ensemble search in l2, l1 and linf
    name = "verify-thm-3-3"
    assert _module_entry_point_report(name) == (GOLDEN / f"{name}.report.json").read_bytes()


def test_the_module_entry_point_prints_the_example_golden_bytes():
    # example-3-4 streams its 5000 paths in chunks of 1310 at n = 100, and
    # ends on a partial chunk of 1070
    name = "verify-example-3-4"
    assert _module_entry_point_report(name) == (GOLDEN / f"{name}.report.json").read_bytes()
