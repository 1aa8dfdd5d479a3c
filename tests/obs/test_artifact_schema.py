"""Artifact observability sidecars, and the one readable schema."""

import json

import pytest

from repro.chaos.artifact import (
    SCHEMA_VERSION,
    attach_observability,
    load_artifact,
    save_artifact,
)

ARTIFACT = "tests/chaos/artifacts/fischer_n3_violation.json"


class TestSchemaTolerance:
    def test_committed_artifact_is_current_schema_without_sidecars(self):
        raw = json.load(open(ARTIFACT))
        assert raw["schema"] == SCHEMA_VERSION
        artifact = load_artifact(ARTIFACT)
        assert artifact.net_stats is None and artifact.timeliness is None

    @pytest.mark.parametrize("schema", [1, 2])
    def test_older_schemas_are_rejected(self, tmp_path, schema):
        raw = json.load(open(ARTIFACT))
        raw["schema"] = schema
        path = tmp_path / "old.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(path)

    def test_unknown_schema_is_rejected(self, tmp_path):
        raw = json.load(open(ARTIFACT))
        raw["schema"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(path)


class TestAttachObservability:
    def test_sim_artifact_gains_a_timeliness_sidecar(self, tmp_path):
        enriched = attach_observability(load_artifact(ARTIFACT))
        assert enriched.timeliness is not None
        assert enriched.timeliness["substrate"] == "steps"
        assert enriched.timeliness["links"]["p0"]["starved"]

        # Round trip: sidecar survives saving and reloading,
        # and identity (campaign/payload/violation) is unchanged.
        path = tmp_path / "enriched.json"
        save_artifact(enriched, path)
        raw = json.loads(path.read_text())
        assert raw["schema"] == SCHEMA_VERSION
        reloaded = load_artifact(path)
        assert reloaded == load_artifact(ARTIFACT)  # sidecars never compare
        assert reloaded.timeliness == enriched.timeliness

    def test_attachment_is_deterministic(self):
        artifact = load_artifact(ARTIFACT)
        first = attach_observability(artifact).timeliness
        second = attach_observability(artifact).timeliness
        assert first == second
