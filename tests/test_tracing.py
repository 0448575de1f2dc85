"""The benchmark's traced mode (perfbench/tracing.py) wraps the package's
functions by name from outside.  Installing and undoing it here proves that
every name it wraps still exists, so `perfbench/run.py --trace 1` keeps
running after the package changes."""

import importlib.util
import json
import sys
from pathlib import Path

# the modules the tracer imports, so that importing adds no names
from gammavar import brownian, cli, embeddings, groupings, norms, random_sums  # noqa: F401
from gammavar import reports, spaces, suites  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every module-level name of the package, and NormedSpace's methods."""
    names = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "gammavar" or name.startswith("gammavar.")
    }
    names["NormedSpace"] = dict(vars(spaces.NormedSpace))
    return names


def test_the_benchmark_tracer_installs_and_restores():
    tracing = _load_tracing()
    before = _bindings()
    # install raises if a name it wraps is bound in no module
    patches = tracing.install(tracing.Tracer())
    try:
        # a wrapped function is rebound where it is defined and where it is used
        wrapped = before["gammavar.norms"]["randomized_variation_norm"]
        assert norms.randomized_variation_norm is not wrapped
        assert suites.randomized_variation_norm is not wrapped
    finally:
        patches.restore()
    assert _bindings() == before


def test_a_traced_randomisation_run_records_the_sweep(tmp_path, capsys):
    # the traced benchmark wraps the sweep and reads its arguments; a tiny
    # run through the CLI must still exit 0 with the sweep on record
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "engine": {"paths": 40},
                "suite": {"measures": 2, "n_atoms": 4, "norms": ["l1", "l2"]},
            }
        ),
        encoding="utf-8",
    )
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        code = cli.main(["verify", "randomisation", "--config", str(config)])
    finally:
        patches.restore()
    assert code == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["overall_pass"]
    summary = tracer.summary()
    # two measures of Bell(4) = 15 set partitions each
    assert summary["counts"]["brownian.sweep_groupings"] == 30
    assert summary["total"]["brownian.sweep"] > 0.0


def test_a_traced_integrate_run_passes(tmp_path, capsys):
    # the traced benchmark runs integrate, whose exhaustive search streams
    # its ensemble inside verify_integral_identity (brownian.ensemble_search)
    # and walks label rows, not the wrapped enumeration
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "partition": {"uniform": 4},
                "space": {"dim": 2, "norm": "l2"},
                "input": {"density": [[3.0, 4.0]] * 4},
                "engine": {"paths": 200},
            }
        ),
        encoding="utf-8",
    )
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        code = cli.main(["integrate", "--config", str(config)])
    finally:
        patches.restore()
    assert code == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["overall_pass"]
    assert tracer.summary()["total"]["brownian.identity"] > 0.0
