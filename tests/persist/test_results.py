"""Tests for experiment-result persistence."""

import json

import pytest

from repro.analysis.report import ExperimentResult, SeriesResult
from repro.errors import ReproError
from repro.persist import load_result, save_result


def make_result():
    return ExperimentResult(
        experiment_id="fig4",
        x_label="num_caches",
        x_values=(60, 100),
        series=(
            SeriesResult("sl_ms", (5.5, 4.25)),
            SeriesResult("random_ms", (6.0, 5.0)),
        ),
        notes={"gain": 8.5},
    )


class TestResultRoundTrip:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        save_result(make_result(), path)
        loaded = load_result(path)
        assert loaded.experiment_id == "fig4"
        assert loaded.x_values == (60, 100)
        assert loaded.series_named("sl_ms").values == (5.5, 4.25)
        assert loaded.notes == {"gain": 8.5}

    def test_render_equivalent(self, tmp_path):
        path = tmp_path / "r.json"
        original = make_result()
        save_result(original, path)
        assert load_result(path).render() == original.render()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("][")
        with pytest.raises(ReproError):
            load_result(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 3}))
        with pytest.raises(ReproError):
            load_result(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ReproError):
            load_result(path)


class TestManifestRoundTrip:
    def make_manifest(self):
        from repro.obs import (
            MetricsSampler,
            Observer,
            PhaseRegistry,
            TraceCollector,
            build_manifest,
        )

        observer = Observer(
            trace=TraceCollector(), sampler=MetricsSampler(100.0)
        )
        observer.sampler.observe_request("local_hit", 4.0, counted=True)
        observer.sampler.flush(100.0)
        registry = PhaseRegistry()
        registry.merge_totals({"landmarks": 0.2})
        return build_manifest(
            "unit", seed=11, registry=registry, observer=observer,
            totals={"requests": 1.0},
        )

    def test_save_load_round_trip(self, tmp_path):
        from repro.persist import load_manifest, save_manifest

        path = tmp_path / "run.json"
        save_manifest(self.make_manifest(), path)
        loaded = load_manifest(path)
        assert loaded.label == "unit"
        assert loaded.seed == 11
        assert loaded.phase_timings_s == {"landmarks": 0.2}
        assert loaded.totals == {"requests": 1.0}
        assert len(loaded.timeseries) == 1

    def test_on_disk_payload_is_versioned(self, tmp_path):
        from repro.persist import save_manifest

        path = tmp_path / "run.json"
        save_manifest(self.make_manifest(), path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "run_manifest"
        assert payload["format_version"] == 1

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.persist import load_manifest

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "other"}))
        with pytest.raises(ReproError):
            load_manifest(path)

    def test_wrong_version_rejected(self, tmp_path):
        from repro.persist import load_manifest

        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"format_version": 99, "kind": "run_manifest"})
        )
        with pytest.raises(ReproError):
            load_manifest(path)

    def test_every_manifest_view_writes_the_same_bytes(
        self, tmp_path, capsys
    ):
        """save_manifest, the registry archive and report JSON agree."""
        import numpy as np

        from repro.cli import main
        from repro.obs.registry import RunRegistry
        from repro.persist import save_manifest

        manifest = self.make_manifest()
        # A numpy scalar exercises the one shared JSON fallback.
        manifest.config["jobs"] = np.int64(2)
        path = tmp_path / "run.json"
        save_manifest(manifest, path)
        appended = RunRegistry(tmp_path / "runs").append(manifest)
        saved = path.read_bytes()
        assert json.loads(saved)["config"]["jobs"] == 2
        assert appended.manifest_path.read_bytes() == saved
        capsys.readouterr()
        assert main(["report", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == saved
