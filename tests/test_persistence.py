"""Tests for model persistence (save/load round trips)."""

import numpy as np
import pytest

from repro.core.marioh import MARIOH
from repro.datasets import load
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from repro.ml.mlp import MLPClassifier
from tests.conftest import random_hypergraph


class TestMLPPersistence:
    def _fitted(self):
        rng = np.random.default_rng(0)
        x = np.vstack(
            [rng.normal(-2, 0.5, (40, 3)), rng.normal(2, 0.5, (40, 3))]
        )
        y = np.concatenate([np.zeros(40, dtype=int), np.ones(40, dtype=int)])
        return MLPClassifier(hidden_sizes=(8,), max_epochs=30, seed=0).fit(x, y), x

    def test_round_trip_scores_identical(self):
        model, x = self._fitted()
        clone = MLPClassifier.from_dict(model.to_dict())
        np.testing.assert_allclose(
            clone.predict_score(x), model.predict_score(x)
        )

    def test_round_trip_predictions_identical(self):
        model, x = self._fitted()
        clone = MLPClassifier.from_dict(model.to_dict())
        np.testing.assert_array_equal(clone.predict(x), model.predict(x))

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().to_dict()

    def test_dict_is_json_safe(self):
        import json

        model, _ = self._fitted()
        json.dumps(model.to_dict())  # must not raise


class TestMariohPersistence:
    def test_save_load_reconstructs_identically(self, tmp_path):
        hypergraph = random_hypergraph(seed=0, n_nodes=18, n_edges=30)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)

        original = MARIOH(seed=0, max_epochs=30).fit(source)
        path = tmp_path / "model.json"
        original.save(path)
        loaded = MARIOH.load(path)

        assert loaded.reconstruct(graph) == original.reconstruct(graph)

    def test_hyperparameters_survive(self, tmp_path):
        hypergraph = random_hypergraph(seed=1, n_nodes=14, n_edges=20)
        model = MARIOH(
            theta_init=0.7, r=40.0, alpha=1 / 10, seed=3, max_epochs=15
        ).fit(hypergraph)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = MARIOH.load(path)
        assert loaded.theta_init == 0.7
        assert loaded.r == 40.0
        assert loaded.alpha == pytest.approx(1 / 10)
        assert loaded.seed == 3

    def test_transfer_workflow(self, tmp_path):
        """Train on dblp analogue, save, load, reconstruct mag analogue."""
        from repro.metrics.jaccard import jaccard_similarity

        source_bundle = load("dblp", seed=0)
        model = MARIOH(seed=0)
        model.fit(source_bundle.source_hypergraph.reduce_multiplicity())
        path = tmp_path / "dblp-model.json"
        model.save(path)

        target_bundle = load("mag-topcs", seed=0)
        loaded = MARIOH.load(path)
        reconstruction = loaded.reconstruct(target_bundle.target_graph_reduced)
        score = jaccard_similarity(
            target_bundle.target_hypergraph_reduced, reconstruction
        )
        assert score > 0.5

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            MARIOH(seed=0).save(tmp_path / "nope.json")

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            MARIOH.load(path)


class TestPersistenceVersioning:
    def test_v2_payload_preserves_classifier_hyperparameters(self, tmp_path):
        import json

        hypergraph = random_hypergraph(seed=2, n_nodes=14, n_edges=22)
        model = MARIOH(
            hidden_sizes=(16, 8), negative_ratio=3.5, max_epochs=21, seed=0
        ).fit(hypergraph)
        path = tmp_path / "model.json"
        model.save(path)

        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        loaded = MARIOH.load(path)
        assert loaded.hidden_sizes == (16, 8)
        assert loaded.negative_ratio == 3.5
        assert loaded.max_epochs == 21
        assert loaded.classifier.negative_ratio == 3.5
        assert loaded.classifier._mlp.max_epochs == 21

    def test_version_1_files_still_load(self, tmp_path):
        """Old files (no classifier hyperparameters) must keep loading,
        falling back to constructor defaults for the missing fields."""
        import json

        hypergraph = random_hypergraph(seed=4, n_nodes=14, n_edges=22)
        model = MARIOH(seed=0, max_epochs=20).fit(hypergraph)
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        for key in ("hidden_sizes", "negative_ratio", "max_epochs"):
            del payload[key]
        payload["version"] = 1
        path.write_text(json.dumps(payload))

        loaded = MARIOH.load(path)
        defaults = MARIOH(seed=0)
        assert loaded.hidden_sizes == defaults.hidden_sizes
        assert loaded.negative_ratio == defaults.negative_ratio
        assert loaded.max_epochs == defaults.max_epochs
        # The trained weights still round-trip regardless of version.
        graph = project(hypergraph)
        assert loaded.reconstruct(graph) == model.reconstruct(graph)

    @pytest.mark.parametrize("engine", ["rescan", "incremental", None])
    def test_engine_key_is_accepted_and_ignored(self, engine):
        """Payloads name the engine they were saved under.  Any value,
        or none at all (a v1 payload), loads and reconstructs
        byte-identically to the default, and re-saves as "incremental"."""
        import json

        from repro.sharding.stitch import hypergraph_digest

        hypergraph = random_hypergraph(seed=5, n_nodes=16, n_edges=26)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)
        model = MARIOH(seed=0, max_epochs=20).fit(source)
        payload = json.loads(model.payload_bytes())
        assert payload["engine"] == "incremental"
        if engine is None:
            for key in ("engine", "hidden_sizes", "negative_ratio", "max_epochs"):
                del payload[key]
            payload["version"] = 1
        else:
            payload["engine"] = engine
        loaded = MARIOH.loads(json.dumps(payload).encode("utf-8"))
        assert hypergraph_digest(loaded.reconstruct(graph)) == hypergraph_digest(
            model.reconstruct(graph)
        )
        assert json.loads(loaded.payload_bytes())["engine"] == "incremental"

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "repro-marioh", "version": 99}))
        with pytest.raises(ValueError, match="unsupported version"):
            MARIOH.load(path)
