"""Report bytes of `norms` against golden files.

Each tests/golden/<name>.config.json holds a seeded measure, and
<name>.report.json holds the report that

    python -m gammavar norms --config tests/golden/<name>.config.json

printed for it.  Byte-identical reports are an invariant across changes: a
change that alters them on purpose regenerates these files and says why.
"""

from pathlib import Path

import pytest

from gammavar.cli import EXIT_PASS, main

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(path.name[: -len(".config.json")] for path in GOLDEN.glob("*.config.json"))


def test_the_golden_set_is_present():
    assert NAMES == ["norms-l1-d2-n8", "norms-linf-d3-n7", "norms-lp1.5-d2-n7"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_norms_report_is_byte_identical(name, threads, capsys):
    config = GOLDEN / f"{name}.config.json"
    code = main(["norms", "--config", str(config), "--threads", threads])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.report.json").read_bytes()
