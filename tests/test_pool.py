"""Tests for the structure-versioned maximal-clique listing.

A fresh Bron-Kerbosch listing is the exact oracle: after any sequence
of mutations, the pool must equal ``maximal_cliques_list`` of the live
graph, and a reconstruction must equal one that lists every iteration.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marioh import MARIOH
from repro.core.pool import CliqueCandidatePool
from repro.hypergraph.cliques import maximal_cliques, maximal_cliques_list
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from tests.conftest import random_hypergraph, relist_every_iteration


def remove_edges(graph, pairs):
    """Remove the present edges among ``pairs`` entirely."""
    for u, v in pairs:
        if graph.has_edge(u, v):
            graph.set_weight(u, v, 0)


class TestCliqueCandidatePool:
    def test_initial_state_matches_rescan(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        assert pool.current() == maximal_cliques_list(paper_figure3_graph)
        assert set(pool.current()) == set(maximal_cliques(paper_figure3_graph))

    def test_current_is_sorted_deterministically(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        sizes = [len(c) for c in pool.current()]
        assert sizes == sorted(sizes)

    def test_break_triangle_exposes_edges(self, triangle_graph):
        pool = CliqueCandidatePool(triangle_graph)
        remove_edges(triangle_graph, [(0, 1)])
        assert pool.current() == maximal_cliques_list(triangle_graph)
        assert set(pool.current()) == {frozenset({0, 2}), frozenset({1, 2})}

    def test_unrelated_cliques_untouched(self):
        graph = WeightedGraph()
        for u, v in combinations(range(3), 2):
            graph.add_edge(u, v)
        for u, v in combinations(range(10, 14), 2):
            graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        remove_edges(graph, [(0, 1)])
        assert frozenset(range(10, 14)) in set(pool.current())
        assert pool.current() == maximal_cliques_list(graph)

    def test_subclique_promoted_with_outside_extension(self):
        """Removing (a, b) from K3 {a,b,c} with an extra node d ~ a, c:
        the new maximal clique {a, c, d} must be discovered."""
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]:
            graph.add_edge(u, v)
        pool = CliqueCandidatePool(graph)
        remove_edges(graph, [(0, 1)])
        assert frozenset({0, 2, 3}) in set(pool.current())
        assert pool.current() == maximal_cliques_list(graph)

    def test_weight_only_decrement_reuses_listing(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        pool = CliqueCandidatePool(graph)
        first = pool.current()
        assert first == [frozenset({0, 1, 2})]
        graph.convert_cliques([[0, 1]])  # weight 2 -> 1: structure kept
        assert pool.current() is first
        graph.convert_cliques([[1, 2]])  # the edge vanishes
        relisted = pool.current()
        assert relisted is not first
        assert relisted == [frozenset({0, 1}), frozenset({0, 2})]
        assert relisted == maximal_cliques_list(graph)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_removal_sequences_match_rescan(self, seed):
        hypergraph = random_hypergraph(seed=seed, n_nodes=15, n_edges=30)
        graph = project(hypergraph)
        pool = CliqueCandidatePool(graph)
        rng = np.random.default_rng(seed)
        edges = list(graph.edges())
        rng.shuffle(edges)
        for start in range(0, len(edges), 4):
            remove_edges(graph, edges[start : start + 4])
            assert pool.current() == maximal_cliques_list(graph), (
                f"diverged after batch {start // 4}"
            )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_graphs_and_removals(self, seed):
        rng = np.random.default_rng(seed)
        graph = WeightedGraph()
        n = 12
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.4:
                graph.add_edge(u, v, int(rng.choice([1, 2])))
        pool = CliqueCandidatePool(graph)
        # Convert the listed cliques: weight-2 edges survive, the
        # weight-1 ones vanish.
        graph.convert_cliques([sorted(c) for c in pool.current()[::2]])
        assert pool.current() == maximal_cliques_list(graph)
        edges = list(graph.edges())
        rng.shuffle(edges)
        remove_edges(graph, edges[: len(edges) // 2])
        assert pool.current() == maximal_cliques_list(graph)


class TestPoolParityAtScale:
    """The memo against a per-iteration listing on a dblp-regime
    HyperCL graph of ~2k edges."""

    def test_incremental_matches_rescan(self, monkeypatch):
        from repro import datasets
        from repro.core import marioh as marioh_module
        from repro.datasets.hypercl import hypercl_like
        from repro.sharding.stitch import hypergraph_digest

        reference = datasets.load("dblp", seed=0, store=False).hypergraph
        source = hypercl_like(reference, scale=0.5, seed=3)
        target = project(hypercl_like(reference, scale=1.7, seed=7))
        assert 1500 <= target.num_edges <= 2500

        search = marioh_module.bidirectional_search
        audits = []

        def audited(graph, *args, pool, **kwargs):
            result = search(graph, *args, pool=pool, **kwargs)
            # Raise at once: a stale listing can stall the loop forever.
            assert pool.current() == maximal_cliques_list(graph), (
                "pool diverged from a fresh listing"
            )
            audits.append(graph.structure_version)
            return result

        monkeypatch.setattr(marioh_module, "bidirectional_search", audited)
        for scope in ("global", "component"):
            model = MARIOH(seed=0, phase2_scope=scope).fit(source, store=False)
            audits.clear()
            memo = hypergraph_digest(model.reconstruct(target))
            assert len(audits) == model.n_iterations_ > 1
            with monkeypatch.context() as patch:
                relist_every_iteration(patch)
                relisted = hypergraph_digest(model.reconstruct(target))
            assert memo == relisted, scope


class TestEngineEquivalence:
    """The memoized listing must reproduce a per-iteration listing."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_reconstructions(self, seed, monkeypatch):
        hypergraph = random_hypergraph(seed=seed, n_nodes=18, n_edges=32)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        model = MARIOH(seed=seed, max_epochs=30).fit(source)
        memo = model.reconstruct(target_graph)
        iterations = model.n_iterations_
        relist_every_iteration(monkeypatch)
        assert model.reconstruct(target_graph) == memo
        assert model.n_iterations_ == iterations

    def test_incremental_on_dataset(self):
        from repro.datasets import load
        from repro.metrics.jaccard import jaccard_similarity

        bundle = load("crime", seed=0)
        model = MARIOH(seed=0)
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


class TestSortedViewCache:
    def test_current_is_cached_until_change(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        first = pool.current()
        assert pool.current() is first  # no re-listing while unchanged

    def test_cache_invalidated_by_removal(self, triangle_graph):
        pool = CliqueCandidatePool(triangle_graph)
        stale = pool.current()
        remove_edges(triangle_graph, [(0, 1)])
        fresh = pool.current()
        assert fresh is not stale
        assert set(fresh) == {frozenset({0, 2}), frozenset({1, 2})}
        # And the refreshed view is cached again.
        assert pool.current() is fresh

    def test_order_matches_rescan_listing(self, paper_figure3_graph):
        pool = CliqueCandidatePool(paper_figure3_graph)
        assert pool.current() == maximal_cliques_list(paper_figure3_graph)
        remove_edges(paper_figure3_graph, [(2, 3), (5, 6)])
        assert pool.current() == maximal_cliques_list(paper_figure3_graph)
        for clique in pool.current():
            assert pool.sorted_members(clique) == sorted(clique)
