"""Reference checks for the plain numpy kernels in :mod:`repro.kernels`.

The snapshot methods must be thin calls into the module functions, and
the fused Adam step must reproduce the textbook per-parameter update.
"""

from itertools import combinations

import numpy as np

from repro import kernels
from repro.hypergraph.graph import WeightedGraph


def _random_graph(seed, n_nodes=24, edge_prob=0.3, max_weight=6):
    rng = np.random.default_rng(seed)
    graph = WeightedGraph()
    for u, v in combinations(range(n_nodes), 2):
        if rng.random() < edge_prob:
            graph.add_edge(u, v, int(rng.integers(1, max_weight)))
    return graph


def _random_pairs(snapshot, seed, n_pairs=200):
    """Row-index pairs covering known nodes and the phantom row."""
    rng = np.random.default_rng(seed)
    high = snapshot.num_nodes + 1  # include the phantom (unknown) row
    a = rng.integers(0, high, size=n_pairs).astype(np.int64)
    b = rng.integers(0, high, size=n_pairs).astype(np.int64)
    return a, b


class TestNumpyBackendContract:
    """The module functions are the pinned reference the snapshot calls;
    a quick direct check that the snapshot and the module agree."""

    def test_snapshot_dispatch_matches_direct_module_call(self):
        graph = _random_graph(0)
        snapshot = graph.snapshot()
        a, b = _random_pairs(snapshot, 1)
        via_snapshot = snapshot.batch_mhh(a, b)
        direct = kernels.batch_mhh(
            snapshot.keys,
            snapshot.nbr,
            snapshot.wts,
            snapshot.alive,
            snapshot.indptr,
            snapshot.degrees,
            a,
            b,
            snapshot.num_nodes + 1,
        )
        np.testing.assert_array_equal(via_snapshot, direct)

    def test_adam_step_matches_textbook_per_parameter_loop(self):
        rng = np.random.default_rng(3)
        n = 40
        params = rng.normal(size=n)
        m = np.zeros(n)
        v = np.zeros(n)
        ref_params = params.copy()
        ref_m = m.copy()
        ref_v = v.copy()
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            grads = rng.normal(size=n)
            kernels.adam_step(
                params, grads, m, v, t, lr, beta1, beta2, eps
            )
            for i in range(n):  # textbook scalar Adam
                g = grads[i]
                ref_m[i] = beta1 * ref_m[i] + (1.0 - beta1) * g
                ref_v[i] = beta2 * ref_v[i] + (1.0 - beta2) * g * g
                m_hat = ref_m[i] / (1.0 - beta1**t)
                v_hat = ref_v[i] / (1.0 - beta2**t)
                ref_params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(params, ref_params, rtol=0, atol=1e-9)
            np.testing.assert_allclose(m, ref_m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, ref_v, rtol=0, atol=1e-12)
