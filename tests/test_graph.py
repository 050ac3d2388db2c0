"""Unit tests for the WeightedGraph substrate."""

from itertools import combinations

import numpy as np
import pytest

from repro.hypergraph.cliques import maximal_cliques_list
from repro.hypergraph.graph import WeightedGraph


class TestMutation:
    def test_add_edge_creates_nodes(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 3)
        assert graph.nodes == frozenset({1, 2})
        assert graph.weight(1, 2) == 3

    def test_add_edge_accumulates(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1, 4)
        assert graph.weight(1, 2) == 5

    def test_rejects_self_loop(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_rejects_nonpositive_weight_increment(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 2, 0)

    def test_set_weight_overwrites(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 5)
        graph.set_weight(1, 2, 2)
        assert graph.weight(1, 2) == 2

    def test_set_weight_zero_removes(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.set_weight(1, 2, 0)
        assert not graph.has_edge(1, 2)

    def test_decrement_edge(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 3)
        remaining = graph.decrement_edge(1, 2)
        assert remaining == 2
        assert graph.weight(1, 2) == 2

    def test_decrement_to_zero_removes_edge(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.decrement_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.weight(1, 2) == 0

    def test_decrement_missing_edge_raises(self):
        graph = WeightedGraph()
        with pytest.raises(KeyError):
            graph.decrement_edge(1, 2)

    def test_over_decrement_raises(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 2)
        with pytest.raises(ValueError):
            graph.decrement_edge(1, 2, 3)

    def test_remove_edge_is_idempotent(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        graph.remove_edge(1, 2)
        assert graph.num_edges == 0


class TestInspection:
    def test_counts(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3

    def test_degree_vs_weighted_degree(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 5)
        graph.add_edge(0, 2, 1)
        assert graph.degree(0) == 2
        assert graph.weighted_degree(0) == 6

    def test_edges_yields_each_once(self, triangle_graph):
        assert sorted(triangle_graph.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edges_with_weights(self):
        graph = WeightedGraph()
        graph.add_edge(2, 1, 7)
        assert list(graph.edges_with_weights()) == [(1, 2, 7)]

    def test_total_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        assert graph.total_weight() == 5

    def test_common_neighbors(self, triangle_graph):
        assert triangle_graph.common_neighbors(0, 1) == {2}
        triangle_graph.add_edge(0, 3)
        triangle_graph.add_edge(1, 3)
        assert triangle_graph.common_neighbors(0, 1) == {2, 3}

    def test_is_empty(self):
        graph = WeightedGraph(nodes=[1, 2])
        assert graph.is_empty()
        graph.add_edge(1, 2)
        assert not graph.is_empty()
        graph.decrement_edge(1, 2)
        assert graph.is_empty()

    def test_neighbor_weights_view(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 4)
        assert graph.neighbor_weights(0) == {1: 4}
        assert graph.neighbor_weights(42) == {}


class TestSubgraphCopy:
    def test_subgraph_preserves_weights(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 4)
        sub = graph.subgraph([0, 1, 2])
        assert sub.weight(0, 1) == 2
        assert sub.weight(1, 2) == 3
        assert not sub.has_edge(2, 3)
        assert sub.nodes == frozenset({0, 1, 2})

    def test_subgraph_of_unknown_nodes_is_empty(self, triangle_graph):
        sub = triangle_graph.subgraph([10, 11])
        assert sub.num_nodes == 0

    def test_copy_is_deep_for_adjacency(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.decrement_edge(0, 1)
        assert triangle_graph.weight(0, 1) == 1
        assert clone.weight(0, 1) == 0

    def test_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        other = triangle_graph.copy()
        other.add_edge(0, 1)
        assert triangle_graph != other


class TestIncrementalInvariants:
    """num_edges / total_weight / weighted_degree / is_empty are O(1)
    counters; they must track any mutation sequence exactly."""

    def _assert_invariants(self, graph):
        assert graph.num_edges == sum(
            1 for _ in graph.edges()
        ), "num_edges diverged"
        assert graph.total_weight() == sum(
            w for _, _, w in graph.edges_with_weights()
        ), "total_weight diverged"
        for node in graph.nodes:
            assert graph.weighted_degree(node) == sum(
                graph.neighbor_weights(node).values()
            ), f"weighted_degree diverged for {node}"
        assert graph.is_empty() == (graph.num_edges == 0)

    def test_random_mutation_sequences(self):
        import numpy as np

        rng = np.random.default_rng(0)
        graph = WeightedGraph()
        for step in range(300):
            op = rng.integers(0, 5)
            u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            if u == v:
                continue
            if op == 0:
                graph.add_edge(u, v, int(rng.integers(1, 4)))
            elif op == 1 and graph.has_edge(u, v):
                graph.decrement_edge(
                    u, v, int(rng.integers(1, graph.weight(u, v) + 1))
                )
            elif op == 2:
                graph.set_weight(u, v, int(rng.integers(0, 4)))
            elif op == 3:
                graph.remove_edge(u, v)
            else:
                graph.add_node(u)
            self._assert_invariants(graph)

    def test_copy_and_subgraph_preserve_invariants(self, paper_figure3_graph):
        clone = paper_figure3_graph.copy()
        self._assert_invariants(clone)
        sub = paper_figure3_graph.subgraph([2, 3, 5, 6, 7])
        self._assert_invariants(sub)
        assert sub.num_edges == 8  # 4-clique {2,3,5,6} (6) plus {5,7}, {6,7}


class TestVersionAndCaches:
    def test_version_bumps_on_mutation(self, triangle_graph):
        before = triangle_graph.version
        triangle_graph.decrement_edge(0, 1)
        assert triangle_graph.version > before

    def test_snapshot_cached_between_mutations(self, triangle_graph):
        first = triangle_graph.snapshot()
        assert triangle_graph.snapshot() is first
        triangle_graph.add_edge(0, 3)
        assert triangle_graph.snapshot() is not first

    def test_neighbor_sets_cached_and_invalidated(self, triangle_graph):
        sets = triangle_graph.neighbor_sets()
        assert sets[0] == {1, 2}
        assert triangle_graph.neighbor_sets() is sets
        triangle_graph.remove_edge(0, 1)
        assert triangle_graph.neighbor_sets()[0] == {2}


class TestTouchVersionsAndPatching:
    """Per-node touch stamps + in-place CSR weight patching."""

    def test_touch_bumps_only_incident_nodes(self, triangle_graph):
        before = {u: triangle_graph.touch_version(u) for u in (0, 1, 2)}
        triangle_graph.decrement_edge(0, 1)
        assert triangle_graph.touch_version(0) > before[0]
        assert triangle_graph.touch_version(1) > before[1]
        assert triangle_graph.touch_version(2) == before[2]

    def test_unknown_node_touch_is_zero(self, triangle_graph):
        assert triangle_graph.touch_version(99) == 0

    def test_clique_touch_stamp_is_member_max(self, triangle_graph):
        triangle_graph.decrement_edge(0, 1)
        stamp = triangle_graph.clique_touch_stamp([0, 1, 2])
        assert stamp == max(
            triangle_graph.touch_version(u) for u in (0, 1, 2)
        )
        assert triangle_graph.clique_touch_stamp([]) == 0

    def test_structure_version_ignores_weight_only_mutations(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        structural = graph.structure_version
        graph.decrement_edge(0, 1)  # stays positive
        graph.add_edge(0, 1, 2)  # existing edge
        graph.set_weight(0, 1, 5)  # positive -> positive
        assert graph.structure_version == structural
        assert graph.version > 0
        graph.decrement_edge(0, 1, 5)  # vanishes -> structural
        assert graph.structure_version > structural

    def test_weight_only_mutation_patches_snapshot_in_place(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        graph.decrement_edge(0, 1)
        assert graph.snapshot() is snapshot  # patched, not rebuilt
        assert snapshot.version == graph.version
        a = snapshot.index_of([0, 1])
        b = snapshot.index_of([1, 2])
        np.testing.assert_array_equal(
            snapshot.pair_weights(a, b), [2.0, 2.0]
        )
        np.testing.assert_array_equal(
            snapshot.weighted_degrees, [2.0, 4.0, 2.0, 0.0]
        )

    def test_vanished_edge_tombstones_snapshot_in_place(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        graph.decrement_edge(0, 1)  # hits zero -> edge vanishes
        assert graph.snapshot() is snapshot  # tombstoned, not rebuilt
        assert snapshot.version == graph.version
        assert snapshot.n_tombstones == 2
        assert snapshot.n_live == 2
        a = snapshot.index_of([0, 1])
        b = snapshot.index_of([1, 2])
        np.testing.assert_array_equal(snapshot.pair_weights(a, b), [0.0, 2.0])
        np.testing.assert_array_equal(snapshot.degrees, [0, 1, 1, 0])
        assert graph.snapshot_patch_stats()["structural_hits"] == 1

    def test_new_edge_consumes_reserved_slack_in_place(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        graph.add_edge(0, 2, 5)  # new edge between known nodes
        assert graph.snapshot() is snapshot  # slack-inserted, not rebuilt
        assert snapshot.version == graph.version
        assert snapshot.n_live == 6
        a = snapshot.index_of([0, 0])
        b = snapshot.index_of([2, 1])
        np.testing.assert_array_equal(snapshot.pair_weights(a, b), [5.0, 1.0])
        np.testing.assert_array_equal(snapshot.degrees, [2, 2, 2, 0])
        # keys stay sorted (non-strictly: slack sentinels share keys)
        assert np.all(np.diff(snapshot.keys) >= 0)
        assert graph.snapshot_patch_stats()["structural_hits"] == 1

    def test_new_node_rebuilds_snapshot(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        snapshot = graph.snapshot()
        graph.add_edge(1, 5, 1)  # node 5 is new: row indices shift
        assert graph._snapshot_cache is None
        assert graph.snapshot() is not snapshot
        # no snapshot existed by the time the edge mutation ran (the
        # node insert dropped it), so nothing is counted as a miss
        assert graph.snapshot_patch_stats()["structural_misses"] == 0

    def test_slack_exhaustion_falls_back_to_rebuild(self):
        graph = WeightedGraph(nodes=range(6))
        graph.snapshot_slack_min = 1
        graph.snapshot_slack_fraction = 0.0
        graph.add_edge(0, 1, 1)
        snapshot = graph.snapshot()
        graph.add_edge(0, 2, 1)  # consumes row 0's single slack slot
        assert graph.snapshot() is snapshot
        graph.add_edge(0, 3, 1)  # row 0 slack exhausted -> rebuild
        assert graph._snapshot_cache is None
        stats = graph.snapshot_patch_stats()
        assert stats["structural_hits"] == 1
        assert stats["structural_misses"] == 1
        rebuilt = graph.snapshot()
        assert rebuilt.pair_weights(
            rebuilt.index_of([0]), rebuilt.index_of([3])
        )[0] == 1.0

    def test_tombstone_compaction_threshold_triggers_rebuild(self):
        graph = WeightedGraph()
        for v in range(1, 9):
            graph.add_edge(0, v, 1)
        graph.snapshot_tombstone_min = 3
        graph.snapshot()
        removed = 0
        while graph._snapshot_cache is not None and removed < 8:
            removed += 1
            graph.remove_edge(0, removed)
        assert graph._snapshot_cache is None  # compaction dropped it
        stats = graph.snapshot_patch_stats()
        assert stats["compactions"] == 1
        # tombstones > 3 and > half the used slots when it tripped
        assert stats["structural_hits"] == removed - 1

    def test_weight_only_mutation_keeps_neighbor_sets(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        sets = graph.neighbor_sets()
        graph.decrement_edge(0, 1)
        assert graph.neighbor_sets() is sets  # structure unchanged

    def test_patched_snapshot_matches_rebuild(self):
        """After any mix of patches, the live snapshot must agree with
        a from-scratch rebuild on every array."""
        import numpy as np

        rng = np.random.default_rng(3)
        graph = WeightedGraph()
        from itertools import combinations

        for u, v in combinations(range(8), 2):
            if rng.random() < 0.5:
                graph.add_edge(u, v, int(rng.integers(2, 6)))
        live = graph.snapshot()
        for u, v in list(graph.edges())[::2]:
            graph.decrement_edge(u, v)  # weights stay positive
        assert graph.snapshot() is live
        rebuilt = graph._build_snapshot()
        np.testing.assert_array_equal(live.wts, rebuilt.wts)
        np.testing.assert_array_equal(live.keys, rebuilt.keys)
        np.testing.assert_array_equal(
            live.weighted_degrees, rebuilt.weighted_degrees
        )

    def test_convert_cliques_returns_vanished_pairs(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 2, 1)
        graph.add_edge(1, 2, 3)
        converted, vanished = graph.convert_cliques([[0, 1, 2]])
        assert (converted, vanished) == ([0], [(0, 2)])
        assert graph.weight(0, 1) == 1
        assert graph.weight(1, 2) == 2
        assert not graph.has_edge(0, 2)

    def test_convert_cliques_skip_is_atomic(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 2, 2)
        graph.snapshot()
        before = graph.copy()
        version = graph.version
        touches = {u: graph.touch_version(u) for u in (0, 1, 2)}
        # Pair (1, 2) is missing: the clique is skipped untouched.
        assert graph.convert_cliques([[0, 1, 2]]) == ([], [])
        assert graph == before
        assert graph.weight(0, 1) == graph.weight(0, 2) == 2
        assert graph.version == version
        assert {u: graph.touch_version(u) for u in (0, 1, 2)} == touches
        assert graph.check_snapshot_coherence() is None

    def test_uids_are_unique(self, triangle_graph):
        assert triangle_graph.uid != triangle_graph.copy().uid
        assert WeightedGraph().uid != WeightedGraph().uid


class TestSnapshotKernels:
    def test_pair_weights_lookup(self, triangle_graph):
        import numpy as np

        triangle_graph.add_edge(1, 2, 4)  # weight now 5
        snapshot = triangle_graph.snapshot()
        a = snapshot.index_of([0, 1, 0])
        b = snapshot.index_of([1, 2, 99])  # unknown node maps to phantom
        np.testing.assert_array_equal(
            snapshot.pair_weights(a, b), [1.0, 5.0, 0.0]
        )

    def test_snapshot_rows_sorted(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(5, 1, 2)
        graph.add_edge(5, 3, 7)
        graph.add_edge(1, 3, 1)
        snapshot = graph.snapshot()
        np.testing.assert_array_equal(snapshot.node_ids, [1, 3, 5])
        # live keys strictly ascending; the full array (slack sentinels
        # included) still sorts, non-strictly.
        assert np.all(np.diff(snapshot.keys[snapshot.alive]) > 0)
        assert np.all(np.diff(snapshot.keys) >= 0)
        np.testing.assert_array_equal(snapshot.degrees, [2, 2, 2, 0])
        np.testing.assert_array_equal(
            snapshot.weighted_degrees, [3.0, 8.0, 9.0, 0.0]
        )


def _sequential_convert(graph, member_lists):
    """Reference for :meth:`WeightedGraph.convert_cliques`: one
    :meth:`WeightedGraph.decrement_edge` per pair, clique by clique."""
    converted, vanished = [], []
    for position, members in enumerate(member_lists):
        pairs = list(combinations(members, 2))
        if not all(graph.has_edge(u, v) for u, v in pairs):
            continue
        converted.append(position)
        for u, v in pairs:
            if graph.decrement_edge(u, v) == 0:
                vanished.append((u, v))
    return converted, vanished


class TestConvertCliquesDifferential:
    """The batched conversion pass against per-edge decrements."""

    N_NODES = 14
    UNKNOWN = 99

    def _random_graph(self, rng):
        graph = WeightedGraph(nodes=range(self.N_NODES))
        for u, v in combinations(range(self.N_NODES), 2):
            if rng.random() < 0.45:
                # Many weight-1 edges, so conversions make edges vanish.
                graph.add_edge(u, v, int(rng.choice([1, 1, 2, 3])))
        return graph

    def _random_batch(self, graph, rng):
        """Cliques, sub-cliques, duplicates, non-cliques, unknown nodes."""
        cliques = [sorted(c) for c in maximal_cliques_list(graph)]
        batch = []
        for _ in range(30):
            kind = int(rng.integers(0, 5))
            if kind <= 1 and cliques:
                members = cliques[int(rng.integers(len(cliques)))]
                if kind == 1 and len(members) > 2:
                    size = int(rng.integers(2, len(members)))
                    members = sorted(
                        int(u) for u in rng.choice(members, size, replace=False)
                    )
                batch.append(list(members))
            elif kind == 2 and batch:
                batch.append(list(batch[int(rng.integers(len(batch)))]))
            elif kind == 3:
                size = int(rng.integers(2, 5))
                batch.append(sorted(
                    int(u) for u in rng.choice(self.N_NODES, size, replace=False)
                ))
            else:
                members = sorted(int(u) for u in rng.choice(self.N_NODES, 2, replace=False))
                batch.append(members + [self.UNKNOWN])
        return batch

    def _assert_same(self, batched, reference):
        assert batched == reference  # the adjacency dicts
        for attr in ("version", "structure_version", "num_edges"):
            assert getattr(batched, attr) == getattr(reference, attr), attr
        assert batched.total_weight() == reference.total_weight()
        for u in list(range(self.N_NODES)) + [self.UNKNOWN]:
            assert batched.touch_version(u) == reference.touch_version(u), u
            assert batched.clique_touch_count([u]) == reference.clique_touch_count([u]), u
            assert batched.weighted_degree(u) == reference.weighted_degree(u), u
        assert (batched._snapshot_cache is None) == (reference._snapshot_cache is None)
        assert batched.snapshot_patch_stats() == reference.snapshot_patch_stats()

    def _assert_snapshot_current(self, batched, reference):
        for graph in (batched, reference):
            assert graph.check_snapshot_coherence() is None
        live = batched.snapshot().compacted_arrays()
        reference.snapshot()
        assert batched.snapshot_patch_stats() == reference.snapshot_patch_stats()
        rebuilt = batched._build_snapshot().compacted_arrays()
        for key, value in rebuilt.items():
            np.testing.assert_array_equal(live[key], value, err_msg=key)

    def _run(self, seed, cached, compact):
        # Two graphs built by the same mutation history, so their
        # version counters agree before the first batch.
        batched, reference = (
            self._random_graph(np.random.default_rng(seed)) for _ in range(2)
        )
        if compact:
            # A low threshold, so some batch trips compaction part-way.
            for graph in (batched, reference):
                graph.snapshot_tombstone_min = 2
                graph.snapshot_tombstone_fraction = 0.1
        rng = np.random.default_rng(seed + 1000)
        for _ in range(3):
            if cached:
                for graph in (batched, reference):
                    graph.snapshot()
                    # Queued weight-only patches the batch must supersede.
                    for u, v in list(graph.edges())[:3]:
                        graph.add_edge(u, v, 1)
            batch = self._random_batch(batched, rng)
            got = batched.convert_cliques(batch)
            want = _sequential_convert(reference, batch)
            assert got == want
            self._assert_same(batched, reference)
            if cached:
                self._assert_snapshot_current(batched, reference)
        self._assert_snapshot_current(batched, reference)

    @pytest.mark.parametrize("seed", range(12))
    def test_with_cached_snapshot(self, seed):
        self._run(seed, cached=True, compact=False)

    @pytest.mark.parametrize("seed", range(12))
    def test_without_snapshot(self, seed):
        self._run(seed, cached=False, compact=False)

    @pytest.mark.parametrize("seed", range(12))
    def test_across_compaction_threshold(self, seed):
        self._run(seed, cached=True, compact=True)

    def test_compaction_is_crossed(self):
        graph = self._random_graph(np.random.default_rng(0))
        graph.snapshot_tombstone_min = 2
        graph.snapshot_tombstone_fraction = 0.1
        graph.snapshot()
        graph.convert_cliques([sorted(c) for c in maximal_cliques_list(graph)])
        assert graph.snapshot_patch_stats()["compactions"] == 1
        assert graph._snapshot_cache is None
