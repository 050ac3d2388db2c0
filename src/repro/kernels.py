"""The three hottest array kernels, as plain numpy functions.

The reconstruction hot loop spends most of its array time in three
operations: the batched MHH intersection sum (Eq. (1) over sorted CSR
neighbor rows), the batched common-neighbor count (same intersection,
unweighted), and the MLP's fused Adam update over the flat parameter
buffer.  :class:`repro.hypergraph.graph.GraphSnapshot` and
:class:`repro.ml.mlp._AdamState` call these functions directly.  Their
float accumulation order is pinned: changing it changes fixed-seed
reconstructions.

All functions operate on the raw CSR arrays of a snapshot (``keys`` /
``nbr`` / ``wts`` / ``alive`` / ``indptr`` / ``degrees``); ``indptr``
spans row *capacities* (live slots + tombstones + reserved slack), and
``alive`` masks out tombstoned and never-used slack slots, so the
kernels stay correct on snapshots that have been structurally patched
in place.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _expand_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated slot positions for ``rows`` (capacity, unmasked)."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    starts = indptr[rows]
    ends = np.cumsum(counts)
    offsets = np.repeat(ends - counts, counts)
    flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(
        starts, counts
    )
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    return flat, owner


def _intersect(
    keys: np.ndarray,
    nbr: np.ndarray,
    wts: np.ndarray,
    alive: np.ndarray,
    indptr: np.ndarray,
    degrees: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    key_base: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common-neighbor expansion for row-index pairs.

    Walks the sparser endpoint's (sorted) neighbor row and binary-
    searches the other endpoint's row via ``keys``.  Returns, for every
    matched *live* common neighbor, the owning pair's position and the
    two incident edge weights, in per-pair slot order (which fixes the
    float accumulation order of the downstream bincount sums).
    """
    empty = np.zeros(0, dtype=np.float64)
    swap = degrees[a] > degrees[b]
    probe = np.where(swap, b, a)
    other = np.where(swap, a, b)
    flat, pair_of = _expand_rows(indptr, probe)
    if len(flat) == 0:
        return np.zeros(0, dtype=np.int64), empty, empty
    keep = alive[flat]
    flat = flat[keep]
    pair_of = pair_of[keep]
    if len(flat) == 0:
        return np.zeros(0, dtype=np.int64), empty, empty
    z = nbr[flat]
    w_probe = wts[flat]
    search = other[pair_of] * key_base + z
    pos = np.searchsorted(keys, search)
    pos = np.minimum(pos, len(keys) - 1)
    found = (keys[pos] == search) & alive[pos]
    return pair_of[found], w_probe[found], wts[pos[found]]


def batch_mhh(
    keys: np.ndarray,
    nbr: np.ndarray,
    wts: np.ndarray,
    alive: np.ndarray,
    indptr: np.ndarray,
    degrees: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    key_base: int,
) -> np.ndarray:
    """Eq. (1) for every row-index pair: sorted-neighbor intersection
    with ``np.minimum`` sums, one vectorized pass for the batch."""
    pair_of, w1, w2 = _intersect(
        keys, nbr, wts, alive, indptr, degrees, a, b, key_base
    )
    counts = np.bincount(
        pair_of, weights=np.minimum(w1, w2), minlength=len(a)
    )
    # bincount returns int64 for empty inputs even with float weights
    return counts.astype(np.float64, copy=False)


def batch_common_neighbor_counts(
    keys: np.ndarray,
    nbr: np.ndarray,
    wts: np.ndarray,
    alive: np.ndarray,
    indptr: np.ndarray,
    degrees: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    key_base: int,
) -> np.ndarray:
    """``|N(a[i]) ∩ N(b[i])|`` for every row-index pair."""
    pair_of, _, _ = _intersect(
        keys, nbr, wts, alive, indptr, degrees, a, b, key_base
    )
    return np.bincount(pair_of, minlength=len(a))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> None:
    """One fused Adam update over the flat parameter buffer, in place."""
    correction1 = 1.0 - beta1**t
    correction2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads * grads
    params -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)
