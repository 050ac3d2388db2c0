"""Tests for incremental clique maintenance and engine equivalence.

The rescan enumeration is the exact oracle: after any sequence of edge
removals, the pool must equal a fresh Bron-Kerbosch run.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marioh import MARIOH
from repro.core.pool import CliqueCandidatePool
from repro.hypergraph.cliques import maximal_cliques
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from tests.conftest import random_hypergraph


def remove_edges(graph, pairs):
    """Remove edges entirely and return the pairs actually removed."""
    removed = []
    for u, v in pairs:
        if graph.has_edge(u, v):
            graph.set_weight(u, v, 0)
            removed.append((u, v))
    return removed


class TestCliqueCandidatePool:
    def test_initial_state_matches_rescan(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        assert pool.matches_rescan()
        assert set(pool.current()) == set(maximal_cliques(paper_figure3_graph))

    def test_current_is_sorted_deterministically(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        sizes = [len(c) for c in pool.current()]
        assert sizes == sorted(sizes)

    def test_break_triangle_exposes_edges(self, triangle_graph):
        pool = CliqueCandidatePool(triangle_graph)
        removed = remove_edges(triangle_graph, [(0, 1)])
        pool.notify_edges_removed(removed)
        assert pool.matches_rescan()
        assert set(pool.current()) == {frozenset({0, 2}), frozenset({1, 2})}

    def test_unrelated_cliques_untouched(self):
        graph = WeightedGraph()
        for u, v in combinations(range(3), 2):
            graph.add_edge(u, v)
        for u, v in combinations(range(10, 14), 2):
            graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        removed = remove_edges(graph, [(0, 1)])
        pool.notify_edges_removed(removed)
        assert frozenset(range(10, 14)) in set(pool.current())
        assert pool.matches_rescan()

    def test_subclique_promoted_with_outside_extension(self):
        """Removing (a, b) from K3 {a,b,c} with an extra node d ~ a, c:
        the new maximal clique {a, c, d} must be discovered."""
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]:
            graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        removed = remove_edges(graph, [(0, 1)])
        pool.notify_edges_removed(removed)
        assert frozenset({0, 2, 3}) in set(pool.current())
        assert pool.matches_rescan()

    def test_empty_notification_is_noop(self, triangle_graph):
        pool = CliqueCandidatePool(triangle_graph)
        before = pool.current()
        pool.notify_edges_removed([])
        assert pool.current() == before

    @pytest.mark.parametrize("seed", range(5))
    def test_random_removal_sequences_match_rescan(self, seed):
        hypergraph = random_hypergraph(seed=seed, n_nodes=15, n_edges=30)
        graph = project(hypergraph)
        pool = CliqueCandidatePool(graph)
        rng = np.random.default_rng(seed)
        edges = list(graph.edges())
        rng.shuffle(edges)
        for start in range(0, len(edges), 4):
            batch = edges[start : start + 4]
            removed = remove_edges(graph, batch)
            pool.notify_edges_removed(removed)
            assert pool.matches_rescan(), f"diverged after batch {start // 4}"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs_and_removals(self, seed):
        rng = np.random.default_rng(seed)
        graph = WeightedGraph()
        n = 12
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.4:
                graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        edges = list(graph.edges())
        rng.shuffle(edges)
        removed = remove_edges(graph, edges[: len(edges) // 2])
        pool.notify_edges_removed(removed)
        assert pool.matches_rescan()


    def test_endpoints_all_at_degree_zero_skip_reenumeration(self, monkeypatch):
        graph = WeightedGraph()
        for u, v in combinations(range(3), 2):
            graph.add_edge(u, v)
        for u, v in combinations(range(10, 13), 2):
            graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        vanished = graph.decrement_clique([0, 1, 2])
        assert all(graph.degree(u) == 0 for u in range(3))

        def no_subgraph(nodes):
            raise AssertionError("re-enumerated around degree-0 endpoints")

        monkeypatch.setattr(graph, "subgraph", no_subgraph)
        pool.notify_edges_removed(vanished)
        assert pool.current() == [frozenset(range(10, 13))]
        assert pool.matches_rescan()
        assert pool.check_invariants() is None


class TestPoolParityAtScale:
    """Engine parity on a dblp-regime HyperCL graph of ~2k edges."""

    def test_incremental_matches_rescan(self, monkeypatch):
        from repro import datasets
        from repro.datasets.hypercl import hypercl_like
        from repro.sharding.stitch import hypergraph_digest

        reference = datasets.load("dblp", seed=0, store=False).hypergraph
        source = hypercl_like(reference, scale=0.5, seed=3)
        target = project(hypercl_like(reference, scale=1.7, seed=7))
        assert 1500 <= target.num_edges <= 2500

        notify = CliqueCandidatePool.notify_edges_removed
        audits = []

        def audited(self, pairs):
            notify(self, pairs)
            # Raise at once: a stale pool can stall the loop forever.
            assert self.matches_rescan(), "pool diverged from a rescan"
            audits.append(pairs)

        monkeypatch.setattr(CliqueCandidatePool, "notify_edges_removed", audited)
        for scope in ("global", "component"):
            digests = {}
            for engine in ("incremental", "rescan"):
                audits.clear()
                model = MARIOH(
                    seed=0,
                    engine=engine,
                    phase2_scope=scope,
                    strict_invariants=True,
                ).fit(source, store=False)
                digests[engine] = hypergraph_digest(model.reconstruct(target))
                if engine == "incremental":
                    assert len(audits) == model.n_iterations_ > 1
            assert digests["incremental"] == digests["rescan"], scope


class TestEngineEquivalence:
    """engine='incremental' must reproduce engine='rescan' exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_reconstructions(self, seed):
        hypergraph = random_hypergraph(seed=seed, n_nodes=18, n_edges=32)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        rescan = MARIOH(seed=seed, max_epochs=30, engine="rescan")
        incremental = MARIOH(seed=seed, max_epochs=30, engine="incremental")
        result_rescan = rescan.fit_reconstruct(source, target_graph)
        result_incremental = incremental.fit_reconstruct(source, target_graph)
        assert result_rescan == result_incremental
        assert rescan.n_iterations_ == incremental.n_iterations_

    def test_incremental_on_dataset(self):
        from repro.datasets import load
        from repro.metrics.jaccard import jaccard_similarity

        bundle = load("crime", seed=0)
        model = MARIOH(seed=0, engine="incremental")
        reconstruction = model.fit_reconstruct(
            bundle.source_hypergraph.reduce_multiplicity(),
            bundle.target_graph_reduced,
        )
        assert (
            jaccard_similarity(
                bundle.target_hypergraph_reduced, reconstruction
            )
            == 1.0
        )

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            MARIOH(engine="warp")


class TestSortedViewCache:
    def test_current_is_cached_until_change(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        first = pool.current()
        assert pool.current() is first  # no re-sort while unchanged
        pool.notify_edges_removed([])
        assert pool.current() is first  # empty notification keeps cache

    def test_cache_invalidated_by_removal(self, triangle_graph):
        pool = CliqueCandidatePool(triangle_graph)
        stale = pool.current()
        removed = remove_edges(triangle_graph, [(0, 1)])
        pool.notify_edges_removed(removed)
        fresh = pool.current()
        assert fresh is not stale
        assert set(fresh) == {frozenset({0, 2}), frozenset({1, 2})}
        # And the refreshed view is cached again.
        assert pool.current() is fresh

    def test_order_matches_rescan_listing(self, paper_figure3_graph):
        from repro.hypergraph.cliques import maximal_cliques_list

        pool = CliqueCandidatePool(paper_figure3_graph)
        assert pool.current() == maximal_cliques_list(paper_figure3_graph)
        removed = remove_edges(paper_figure3_graph, [(2, 3), (5, 6)])
        pool.notify_edges_removed(removed)
        assert pool.current() == maximal_cliques_list(paper_figure3_graph)
