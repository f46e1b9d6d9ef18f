"""The ``repro lint`` subcommand: formats, exit codes, baseline flags."""

import json

import pytest

from repro.cli import main

CLEAN = """\
import numpy as np


def draw(seed):
    rng = np.random.default_rng(seed)
    return rng.random()
"""

DIRTY = """\
import random


def jitter():
    return random.random()
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY)
    return path


def test_clean_file_exits_zero(clean_file, capsys):
    code = main(["lint", str(clean_file)])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_location(dirty_file, capsys):
    code = main(["lint", str(dirty_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert "rng-stdlib-random" in out
    assert "dirty.py:5" in out


def test_json_format(dirty_file, capsys):
    code = main(["lint", str(dirty_file), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    [record] = payload["findings"]
    assert record["rule"] == "rng-stdlib-random"
    assert record["line"] == 5


def test_missing_path_exits_two(tmp_path, capsys):
    code = main(["lint", str(tmp_path / "nope")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_missing_explicit_baseline_exits_two(clean_file, tmp_path, capsys):
    code = main([
        "lint", str(clean_file), "--baseline", str(tmp_path / "nope.json"),
    ])
    assert code == 2
    assert "baseline not found" in capsys.readouterr().err


def test_update_baseline_then_clean(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = main([
        "lint", str(dirty_file),
        "--baseline", str(baseline), "--update-baseline",
    ])
    assert code == 0
    assert baseline.exists()
    capsys.readouterr()

    # With the grandfathered baseline the same tree is clean...
    code = main(["lint", str(dirty_file), "--baseline", str(baseline)])
    assert code == 0
    assert "1 baselined" in capsys.readouterr().out

    # ...but a *new* violation of the same rule still fails.
    dirty = dirty_file.read_text()
    dirty_file.write_text(
        dirty + "\n\ndef more():\n    return random.choice([1, 2])\n"
    )
    code = main(["lint", str(dirty_file), "--baseline", str(baseline)])
    assert code == 1
    out = capsys.readouterr().out
    assert "rng-stdlib-random" in out


def test_verbose_lists_baselined(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    main([
        "lint", str(dirty_file),
        "--baseline", str(baseline), "--update-baseline",
    ])
    capsys.readouterr()
    code = main([
        "lint", str(dirty_file), "--baseline", str(baseline), "--verbose",
    ])
    assert code == 0
    assert "[baselined]" in capsys.readouterr().out


def test_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    assert code == 0
    out = capsys.readouterr().out
    for rule_id in (
        "rng-stdlib-random", "rng-numpy-global", "rng-unseeded-default-rng",
        "sim-wallclock", "fork-unsafe-task", "iter-order", "mutable-default",
    ):
        assert rule_id in out


def test_syntax_error_reported_as_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    code = main(["lint", str(path)])
    assert code == 1
    assert "parse-error" in capsys.readouterr().out
