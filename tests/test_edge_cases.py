"""Cross-cutting edge-case and failure-injection tests.

Scenarios that cut across modules: degenerate inputs, interactions
between optional features (pool + provenance), CLI report command, and
GCN-enabled link prediction.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.classifier import CliqueClassifier
from repro.core.marioh import MARIOH
from repro.core.pool import CliqueCandidatePool
from repro.datasets import load
from repro.downstream.linkpred import link_prediction_auc
from repro.hypergraph.cliques import maximal_cliques_list
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from tests.conftest import random_hypergraph


class TestDegenerateInputs:
    def test_marioh_on_single_edge_target(self):
        source = Hypergraph()
        for i in range(0, 12, 2):
            source.add([i, i + 1])
        target_graph = WeightedGraph()
        target_graph.add_edge(100, 101)
        model = MARIOH(seed=0, max_epochs=20).fit(source)
        reconstruction = model.reconstruct(target_graph)
        assert set(reconstruction.edges()) == {frozenset({100, 101})}

    def test_marioh_on_empty_target(self):
        source = Hypergraph(edges=[[0, 1], [2, 3]])
        target_graph = WeightedGraph(nodes=[7, 8])
        model = MARIOH(seed=0, max_epochs=10).fit(source)
        reconstruction = model.reconstruct(target_graph)
        assert reconstruction.num_unique_edges == 0
        assert reconstruction.nodes == frozenset({7, 8})

    def test_marioh_source_with_single_hyperedge(self):
        source = Hypergraph(edges=[[0, 1, 2]])
        target_graph = project(Hypergraph(edges=[[5, 6, 7]]))
        model = MARIOH(seed=0, max_epochs=10).fit(source)
        reconstruction = model.reconstruct(target_graph)
        assert project(reconstruction) == target_graph

    def test_classifier_on_graph_with_huge_weights(self):
        hypergraph = Hypergraph()
        hypergraph.add([0, 1], multiplicity=10_000)
        hypergraph.add([0, 1, 2])
        hypergraph.add([3, 4])
        graph = project(hypergraph)
        classifier = CliqueClassifier(seed=0, max_epochs=10)
        classifier.fit(graph, hypergraph)
        scores = classifier.score([frozenset({0, 1})], graph)
        assert np.isfinite(scores).all()

    def test_string_like_int_node_ids(self):
        """Node ids are ints throughout; numpy ints must interoperate."""
        hypergraph = Hypergraph()
        hypergraph.add([np.int64(0), np.int64(1), np.int64(2)])
        assert [0, 1, 2] in hypergraph


class TestFeatureInteractions:
    def test_incremental_engine_with_provenance(self):
        hypergraph = random_hypergraph(seed=2, n_nodes=16, n_edges=28)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)
        model = MARIOH(seed=0, max_epochs=25, record_provenance=True)
        reconstruction = model.fit_reconstruct(source, graph)
        total = sum(record.multiplicity for record in model.provenance_)
        assert total == reconstruction.num_edges_with_multiplicity
        assert project(reconstruction) == graph

    def test_incremental_engine_all_variants(self):
        hypergraph = random_hypergraph(seed=3, n_nodes=14, n_edges=22)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)
        for variant in ("no_multiplicity", "no_filtering", "no_bidirectional"):
            model = MARIOH(seed=0, max_epochs=20, variant=variant)
            reconstruction = model.fit_reconstruct(source, graph)
            assert project(reconstruction) == graph, variant

    def test_pool_survives_filtering_style_removals(self):
        """Removing many edges at once (as filtering does) must keep the
        pool exact."""
        hypergraph = random_hypergraph(seed=4, n_nodes=14, n_edges=25)
        graph = project(hypergraph)
        pool = CliqueCandidatePool(graph)
        for u, v in list(graph.edges())[::2]:
            graph.set_weight(u, v, 0)
        assert pool.current() == maximal_cliques_list(graph)


class TestLinkPredictionWithGCN:
    def test_gcn_path_runs_and_scores_sanely(self):
        bundle = load("hosts", seed=0)
        auc = link_prediction_auc(
            bundle.target_graph_reduced,
            bundle.target_hypergraph_reduced,
            seed=0,
            use_gcn=True,
        )
        assert 0.5 <= auc <= 1.0


class TestCLIReport:
    def test_report_quick(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# MARIOH reproduction report" in out
        assert "Summary" in out

    def test_report_writes_file(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        assert main(["report", "--output", str(output)]) == 0
        assert output.exists()
        assert "# MARIOH reproduction report" in output.read_text()


class TestTimestampTies:
    def test_split_breaks_timestamp_ties_deterministically(self):
        hypergraph = Hypergraph(edges=[[0, 1], [1, 2], [2, 3], [3, 4]])
        timestamps = {edge: 0 for edge in hypergraph.edges()}
        first = split_source_target(hypergraph, timestamps=timestamps)
        second = split_source_target(hypergraph, timestamps=timestamps)
        assert first[0] == second[0]
        assert first[1] == second[1]
