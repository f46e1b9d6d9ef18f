"""Save/load experiment results and run manifests as JSON.

Lets benchmark runs be archived and compared across machines/commits —
the ``repro experiment`` CLI writes these next to its printed tables,
and instrumented runs leave a :class:`repro.obs.RunManifest` alongside
their outputs (read back by ``repro report``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from repro.analysis.report import ExperimentResult, SeriesResult
from repro.errors import ReproError
from repro.obs.manifest import RunManifest

PathLike = Union[str, Path]

_FORMAT_VERSION = 1
_MANIFEST_FORMAT_VERSION = 1


def save_result(result: ExperimentResult, path: PathLike) -> None:
    """Write an experiment result to ``path`` as JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "series": [
            {"name": s.name, "values": list(s.values)}
            for s in result.series
        ],
        "notes": dict(result.notes),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_result(path: PathLike) -> ExperimentResult:
    """Read an experiment result written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ReproError(
            f"{path} has format version {payload.get('format_version')}, "
            f"expected {_FORMAT_VERSION}"
        )
    try:
        return ExperimentResult(
            experiment_id=payload["experiment_id"],
            x_label=payload["x_label"],
            x_values=tuple(payload["x_values"]),
            series=tuple(
                SeriesResult(name=s["name"], values=tuple(s["values"]))
                for s in payload["series"]
            ),
            notes={k: float(v) for k, v in payload["notes"].items()},
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"{path}: malformed result payload") from exc


def _plain(value: Any) -> Any:
    """JSON fallback for numpy scalars living in manifests and payloads."""
    for attr in ("item", "tolist"):
        converter = getattr(value, attr, None)
        if callable(converter):
            return converter()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def manifest_payload(manifest: RunManifest) -> dict:
    """The versioned JSON payload a manifest is persisted as."""
    return {
        "format_version": _MANIFEST_FORMAT_VERSION,
        "kind": "run_manifest",
        **manifest.to_dict(),
    }


def manifest_json(manifest: RunManifest) -> str:
    """The JSON text of a persisted manifest.

    The one encoder behind :func:`save_manifest`, the run registry's
    archived manifests and ``repro report --format json``, so every
    machine-readable view of a run has the same bytes.
    """
    return json.dumps(
        manifest_payload(manifest), indent=2, sort_keys=True, default=_plain
    ) + "\n"


def save_manifest(manifest: RunManifest, path: PathLike) -> None:
    """Write a run manifest to ``path`` as JSON."""
    Path(path).write_text(manifest_json(manifest), encoding="utf-8")


def load_manifest(path: PathLike) -> RunManifest:
    """Read a run manifest written by :func:`save_manifest`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if payload.get("kind") != "run_manifest":
        raise ReproError(f"{path} is not a run manifest")
    if payload.get("format_version") != _MANIFEST_FORMAT_VERSION:
        raise ReproError(
            f"{path} has manifest format version "
            f"{payload.get('format_version')}, "
            f"expected {_MANIFEST_FORMAT_VERSION}"
        )
    payload = {
        k: v for k, v in payload.items()
        if k not in ("format_version", "kind")
    }
    return RunManifest.from_dict(payload)
