"""Shared fixtures and graph/hypergraph builders for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project


# Markers (seed_matrix, faults, soak) are registered centrally in the
# root conftest.py so the benchmarks/ suite shares the registry.


def pytest_generate_tests(metafunc):
    """Parametrize ``matrix_seed`` over the ``--seed-matrix`` sweep.

    Locally the sweep defaults to one seed, keeping tier-1 fast; the CI
    determinism job widens it to three so every seed_matrix-marked test
    reruns per seed.
    """
    if "matrix_seed" in metafunc.fixturenames:
        raw = metafunc.config.getoption("--seed-matrix", "0")
        seeds = [int(token) for token in str(raw).split(",") if token != ""]
        metafunc.parametrize("matrix_seed", seeds or [0])


@pytest.fixture
def triangle_graph() -> WeightedGraph:
    """A single unweighted triangle on nodes 0, 1, 2."""
    graph = WeightedGraph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    return graph


@pytest.fixture
def small_hypergraph() -> Hypergraph:
    """Five hyperedges over 7 nodes incl. one duplicated hyperedge."""
    hypergraph = Hypergraph()
    hypergraph.add([0, 1, 2])
    hypergraph.add([2, 3])
    hypergraph.add([3, 4, 5])
    hypergraph.add([3, 4, 5])  # multiplicity 2
    hypergraph.add([5, 6])
    return hypergraph


@pytest.fixture
def paper_figure3_graph() -> WeightedGraph:
    """A graph mimicking the style of Fig. 3: overlapping cliques.

    Contains the triangle {5, 6, 7}, the 4-clique {2, 3, 5, 6}, and the
    path-ish region {6, 10, 11} where only {6, 11} is a hyperedge.
    """
    hypergraph = Hypergraph()
    hypergraph.add([5, 6, 7])
    hypergraph.add([2, 3, 5, 6])
    hypergraph.add([6, 11])
    hypergraph.add([1, 2, 3])
    hypergraph.add([8, 9])
    hypergraph.add([6, 10])
    hypergraph.add([10, 11])
    return project(hypergraph)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_hypergraph(
    seed: int, n_nodes: int = 25, n_edges: int = 40, max_size: int = 5
) -> Hypergraph:
    """Helper used by several test modules (not a fixture by design)."""
    generator = np.random.default_rng(seed)
    hypergraph = Hypergraph(nodes=range(n_nodes))
    for _ in range(n_edges):
        size = int(generator.integers(2, max_size + 1))
        members = generator.choice(n_nodes, size=size, replace=False)
        hypergraph.add(int(m) for m in members)
    return hypergraph


def two_clique_graph(
    clique_size: int = 4, bridge: bool = True, weight: int = 1
) -> WeightedGraph:
    """Two disjoint k-cliques, optionally joined by one bridge edge.

    Shared builder for the community/embedding/GCN tests: community
    detection should separate the cliques, spectral embeddings should
    place them far apart, and the bridge is the single inter-community
    edge.  Nodes are ``0..k-1`` and ``k..2k-1``; the bridge connects
    ``k-1`` to ``k``.
    """
    graph = WeightedGraph()
    for u, v in combinations(range(clique_size), 2):
        graph.add_edge(u, v, weight)
    for u, v in combinations(range(clique_size, 2 * clique_size), 2):
        graph.add_edge(u, v, weight)
    if bridge:
        graph.add_edge(clique_size - 1, clique_size, weight)
    return graph


def relist_every_iteration(monkeypatch) -> None:
    """Make ``CliqueCandidatePool.current()`` list the live graph on
    every call: the paper's per-iteration rescan, the memo's oracle."""
    from repro.core.pool import CliqueCandidatePool
    from repro.hypergraph.cliques import maximal_cliques_list

    monkeypatch.setattr(
        CliqueCandidatePool, "current", lambda self: maximal_cliques_list(self._graph)
    )


def structured_triangles_hypergraph(
    seed: int = 0,
    n_groups: int = 12,
    pair_per_triangle: bool = False,
    n_noise_pairs: int | None = None,
) -> Hypergraph:
    """Recurring tight triangles plus random pair noise - easy to learn.

    Shared builder for the MARIOH and hyperedge-prediction tests: the
    triangles ``{3i, 3i+1, 3i+2}`` are the signal, optional pairs
    ``{3i, 3i+1}`` nest inside them, and ``n_noise_pairs`` random pairs
    (default ``n_groups``) are drawn from a seeded generator.
    """
    rng = np.random.default_rng(seed)
    hypergraph = Hypergraph()
    for base in range(0, n_groups * 3, 3):
        hypergraph.add([base, base + 1, base + 2])
        if pair_per_triangle:
            hypergraph.add([base, base + 1])
    if n_noise_pairs is None:
        n_noise_pairs = n_groups
    for _ in range(n_noise_pairs):
        u, v = rng.choice(n_groups * 3, size=2, replace=False)
        if u != v:
            hypergraph.add([int(u), int(v)])
    return hypergraph


def community_hypergraph(
    n_communities: int = 4, nodes_per_community: int = 8, seed: int = 0
):
    """Hyperedges strictly inside communities: clustering is easy.

    Returns ``(hypergraph, labels)`` where ``labels`` maps each node to
    its community id.  Shared by the downstream-task tests.
    """
    rng = np.random.default_rng(seed)
    hypergraph = Hypergraph()
    labels = {}
    for community in range(n_communities):
        members = list(
            range(
                community * nodes_per_community,
                (community + 1) * nodes_per_community,
            )
        )
        for node in members:
            labels[node] = community
        for _ in range(nodes_per_community * 3):
            k = int(rng.integers(2, 5))
            chosen = rng.choice(members, size=k, replace=False)
            hypergraph.add(int(m) for m in chosen)
    return hypergraph, labels
