"""Self-check: the shipped tree satisfies its own invariants.

This is the acceptance gate: ``repro lint`` over ``src/`` must report
nothing beyond the committed ``lint_baseline.json``, and deliberately
seeding one violation into a real module must fail with the right rule
id and line.
"""

import shutil
from pathlib import Path

from repro.lint import Baseline, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_committed_baseline():
    path = REPO_ROOT / "lint_baseline.json"
    assert path.exists(), "lint_baseline.json must be committed at the root"
    return Baseline.load(path)


def test_src_tree_is_clean_against_committed_baseline():
    report = lint_paths(
        [REPO_ROOT / "src"],
        baseline=load_committed_baseline(),
        root=REPO_ROOT,
    )
    assert report.files_checked > 100
    assert report.clean, "new lint findings:\n" + "\n".join(
        f"{f.location}: {f.rule_id}: {f.message}" for f in report.findings
    )


def test_committed_baseline_is_empty():
    # The tree was fixed rather than grandfathered; keep it that way.
    assert load_committed_baseline().entries == {}


def test_seeded_violation_is_caught_with_rule_and_line(tmp_path):
    """Injecting one bare random.random() into kmeans.py fails the lint."""
    victim = REPO_ROOT / "src" / "repro" / "clustering" / "kmeans.py"
    copy_root = tmp_path / "src" / "repro" / "clustering"
    copy_root.mkdir(parents=True)
    target = copy_root / "kmeans.py"
    shutil.copy(victim, target)

    text = target.read_text()
    target.write_text(
        text
        + "\n\ndef _jitter():\n    import random\n    return random.random()\n"
    )
    # The file ends with a newline, so "\n\n" opens two blank lines and
    # the injected call lands five lines past the original last line.
    injected_line = len(text.splitlines()) + 5

    report = lint_paths(
        [tmp_path / "src"],
        baseline=load_committed_baseline(),
        root=tmp_path,
    )
    assert not report.clean
    [finding] = report.findings
    assert finding.rule_id == "rng-stdlib-random"
    assert finding.line == injected_line
    assert finding.path == "src/repro/clustering/kmeans.py"


def test_seeded_transitive_wallclock_chain_is_caught(tmp_path):
    """A helper-behind-helper clock read fails with the full call chain.

    The sink lives in a fresh ``utils/`` module (outside the per-file
    sim-wallclock directories), called through one more helper from a
    function appended to the real engine — only the cross-module pass
    can see it.
    """
    victim = REPO_ROOT / "src" / "repro" / "simulator" / "engine.py"
    sim_dir = tmp_path / "src" / "repro" / "simulator"
    utils_dir = tmp_path / "src" / "repro" / "utils"
    sim_dir.mkdir(parents=True)
    utils_dir.mkdir(parents=True)

    text = victim.read_text()
    (sim_dir / "engine.py").write_text(
        text
        + "\n\ndef _drift_probe():\n"
          "    from repro.utils.hostinfo import snapshot\n"
          "    return snapshot()\n"
    )
    (utils_dir / "hostinfo.py").write_text(
        "import time\n\n\n"
        "def snapshot():\n"
        "    return _read_clock()\n\n\n"
        "def _read_clock():\n"
        "    return time.time()\n"
    )
    anchor_line = len(text.splitlines()) + 3  # the injected def line

    report = lint_paths(
        [tmp_path / "src"],
        baseline=load_committed_baseline(),
        root=tmp_path,
    )
    assert not report.clean
    [finding] = report.findings
    assert finding.rule_id == "transitive-wallclock"
    assert finding.path == "src/repro/simulator/engine.py"
    assert finding.line == anchor_line
    assert (
        "_drift_probe -> repro.utils.hostinfo:snapshot -> _read_clock "
        "-> time.time" in finding.message
    )


def test_effects_dump_over_src_is_deterministic(monkeypatch, capsys):
    """``repro lint effects --format json`` is byte-stable (CI artifact)."""
    from repro.cli import main

    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "effects", "src", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["lint", "effects", "src", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second

    import json

    payload = json.loads(first)
    # The real tree is clean: every effect rule is satisfied (or the
    # site carries an audited pragma/merge-back), so the gate above
    # stays green with an *empty* committed baseline.
    assert payload["findings"] == []
    # The known entry points of the experiment suite must be visible,
    # or the four rules are running against an empty universe.
    tasks = {t["function"] for t in payload["entry_points"]["tasks"]}
    # Each entry is listed once, however many figures dispatch it.
    assert len(tasks) == len(payload["entry_points"]["tasks"])
    assert "repro.experiments.base:gicost_unit" in tasks
    assert "repro.experiments.base:latency_unit" in tasks
    handlers = payload["entry_points"]["event_handlers"]
    assert "repro.simulator.engine:SimulationEngine._handle_request" in (
        handlers
    )
    globals_by_key = {g["global"]: g for g in payload["globals"]}
    counter = globals_by_key["repro.simulator.engine:_EVENTS_TOTAL"]
    assert counter["merge_back"] is not None


def test_seeded_shared_global_write_in_task_is_caught(tmp_path):
    """An unmerged module-global write under map_tasks fails the lint.

    The walkthrough in docs/static-analysis.md: append a module-level
    counter bump to the shared GICost work unit and the effect pass
    reports the full chain from the pool entry to the write.  fig6 is
    copied along because its ``map_tasks(gicost_unit, ...)`` call is
    what makes the unit a fork task.
    """
    experiments = REPO_ROOT / "src" / "repro" / "experiments"
    copy_root = tmp_path / "src" / "repro" / "experiments"
    copy_root.mkdir(parents=True)
    shutil.copy(experiments / "fig6_num_landmarks.py", copy_root)
    target = copy_root / "base.py"
    text = (experiments / "base.py").read_text()
    target.write_text(
        text
        + "\n\n_UNITS_DONE = {}\n\n\n"
          "def _tally(point):\n"
          "    _UNITS_DONE[point] = True\n"
    )
    (copy_root / "__init__.py").touch()

    report = lint_paths([tmp_path / "src"], root=tmp_path)
    effect_findings = [
        f for f in report.findings
        if f.rule_id == "shared-mutable-global"
    ]
    # _tally is defined but never dispatched: defining shared state is
    # not the violation — *reaching* it from a fork task is.
    assert effect_findings == []

    target.write_text(
        target.read_text().replace(
            "def gicost_unit(", "def gicost_unit_orig(", 1
        )
        + "\n\ndef gicost_unit(*args):\n"
          "    _tally(args)\n"
          "    return gicost_unit_orig(*args)\n"
    )
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    effect_findings = [
        f for f in report.findings
        if f.rule_id == "shared-mutable-global"
    ]
    assert effect_findings, "the seeded task-reachable write must fire"
    assert any(
        "_UNITS_DONE" in f.message and "_tally" in f.message
        for f in effect_findings
    )


def test_units_dump_over_src_is_deterministic(monkeypatch, capsys):
    """``repro lint units --format json`` is byte-stable (CI artifact)."""
    from repro.cli import main

    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "units", "src", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["lint", "units", "src", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second

    import json

    payload = json.loads(first)
    # The real tree is dimensionally clean: every ms<->s flow is
    # converted through repro.types and the clocks never mix, so the
    # gate stays green with an *empty* committed baseline.
    assert payload["findings"] == []
    # Every function in the model carries a unit summary row.
    rows = {row["function"]: row for row in payload["functions"]}
    assert len(rows) > 1000
    # Known anchors resolve to the expected lattice points.
    assert rows["repro.obs.profiling:perf_seconds"]["returns"] == (
        "host-s timestamp"
    )
    flush = rows["repro.obs.sampler:MetricsSampler.flush"]
    assert flush["params"]["tick_ms"] == "ms"
    backoff = rows["repro.faults.model:FaultModel.backoff_ms"]
    assert backoff["returns"] == "ms duration"


def test_seeded_unit_mismatch_in_figure_runner_is_caught(tmp_path):
    """A seconds slot fed milliseconds inside a real runner fails lint.

    The walkthrough in docs/static-analysis.md: append a helper pair to
    fig6 where a ``*_ms`` budget flows into a ``*_s`` window parameter —
    only the interprocedural binding check can see it.
    """
    victim = REPO_ROOT / "src" / "repro" / "experiments" / (
        "fig6_num_landmarks.py"
    )
    copy_root = tmp_path / "src" / "repro" / "experiments"
    copy_root.mkdir(parents=True)
    target = copy_root / "fig6_num_landmarks.py"
    text = victim.read_text()
    target.write_text(
        text
        + "\n\ndef _units_probe(budget_ms):\n"
          "    return _units_consume(budget_ms)\n\n\n"
          "def _units_consume(window_s):\n"
          "    return window_s * 2\n"
    )
    # The file ends with a newline, so the mismatched binding (the
    # `_units_consume(budget_ms)` call) is four lines past the end.
    injected_line = len(text.splitlines()) + 4

    report = lint_paths([tmp_path / "src"], root=tmp_path)
    seeded = [
        (f.rule_id, f.line) for f in report.findings
        if f.rule_id in ("unit-mismatch", "time-domain-mixing",
                         "magic-unit-conversion",
                         "unitless-duration-boundary")
    ]
    assert seeded == [("unit-mismatch", injected_line)]


def test_wallclock_injection_into_engine_is_caught(tmp_path):
    victim = REPO_ROOT / "src" / "repro" / "simulator" / "engine.py"
    copy_root = tmp_path / "src" / "repro" / "simulator"
    copy_root.mkdir(parents=True)
    target = copy_root / "engine.py"
    text = victim.read_text()
    target.write_text(
        text + "\n\ndef _host_now():\n    import time\n    return time.time()\n"
    )
    injected_line = len(text.splitlines()) + 5

    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [
        (f.rule_id, f.line) for f in report.findings
    ] == [("sim-wallclock", injected_line)]
