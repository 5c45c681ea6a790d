"""Variable ordering for the MPS chain from return correlations.

Highly correlated assets are placed near each other: correlations map to
distances via arccos(corr)/pi, a Ward linkage tree is built over the
assets, and the leaves are read off with every cluster kept contiguous,
orienting subtrees greedily to shrink the distances across cluster
boundaries. Problems without correlation structure keep their natural
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def correlation_distance(corr):
    """d = arccos(corr) / pi: 0 at corr 1, 0.5 at corr 0, 1 at corr -1.

    Accepts scalars or arrays; values overshooting [-1, 1] by float error
    are clamped, beyond 1e-9 rejected.
    """
    arr = np.asarray(corr, dtype=np.float64)
    if np.any(np.abs(arr) > 1.0 + 1e-9):
        raise ValueError("correlation outside [-1, 1]")
    clipped = np.clip(arr, -1.0, 1.0)
    result = np.arccos(clipped) / np.pi
    return float(result) if np.isscalar(corr) else result


def correlation_from_covariance(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    scale = np.sqrt(np.diag(sigma))
    if np.any(scale <= 0):
        raise ValueError("covariance has nonpositive diagonal entries")
    return sigma / np.outer(scale, scale)


def distance_matrix(corr) -> np.ndarray:
    """Pairwise arccos-correlation distances with an exactly zero diagonal."""
    d = correlation_distance(np.asarray(corr, dtype=np.float64))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True)
class LinkageTree:
    """Agglomerative binary tree over ``n_leaves`` leaves.

    Nodes 0..N-1 are leaves; node N+k is the cluster formed by merge k.
    Ward linkage guarantees nondecreasing merge heights.
    """

    n_leaves: int
    merges: np.ndarray  # (N-1, 2) child node ids
    heights: np.ndarray  # (N-1,) merge heights
    sizes: np.ndarray  # (N-1,) merged cluster sizes

    def __post_init__(self):
        merges = np.asarray(self.merges, dtype=np.int64)
        heights = np.asarray(self.heights, dtype=np.float64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        n = self.n_leaves
        if merges.shape != (n - 1, 2) or heights.shape != (n - 1,):
            raise ValueError("merge table shape does not match leaf count")
        if np.any(np.diff(heights) < -1e-12):
            raise ValueError("merge heights must be nondecreasing")
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "sizes", sizes)

    def leaves_under(self, node: int) -> list[int]:
        """Leaf ids below a node, in plain left-to-right traversal order."""
        if node < self.n_leaves:
            return [node]
        a, b = self.merges[node - self.n_leaves]
        return self.leaves_under(int(a)) + self.leaves_under(int(b))

    def traversal_order(self) -> np.ndarray:
        """Unoriented left-to-right leaf order."""
        if self.n_leaves == 1:
            return np.array([0])
        return np.asarray(self.leaves_under(self.n_leaves + len(self.merges) - 1))


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(dist).all():
        raise ValueError("distances must be finite")
    if np.abs(dist - dist.T).max() > 1e-9:
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise ValueError("distance matrix must have a zero diagonal")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    return dist


def ward_linkage(dist) -> LinkageTree:
    """Agglomerative Ward clustering via the Lance-Williams recurrence.

    At each step the active pair at minimum distance merges (ties broken
    by the lowest pair of node ids) and distances to the new cluster
    follow d(u, vw)^2 = ((|v|+|u|) d(u,v)^2 + (|w|+|u|) d(u,w)^2
    - |u| d(v,w)^2) / (|u|+|v|+|w|).

    The active slots hold node ids in increasing order: kept slots keep
    their order and the new cluster, whose id is the largest, goes last.
    So the first minimum of the upper triangle in row-major order is the
    lowest pair of ids, and one ``argmin`` applies the tie rule.
    """
    dist = _check_distance_matrix(dist)
    n = dist.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    if n == 1:
        return LinkageTree(1, np.empty((0, 2)), np.empty(0), np.empty(0))

    # working matrix indexed by active slots; ids map slots to tree nodes
    work = dist.copy()
    ids = list(range(n))
    sizes = {i: 1 for i in range(n)}
    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1)
    out_sizes = np.empty(n - 1, dtype=np.int64)

    for step in range(n - 1):
        m = len(ids)
        upper_a, upper_b = np.triu_indices(m, 1)
        k = int(np.argmin(work[upper_a, upper_b]))
        a, b = int(upper_a[k]), int(upper_b[k])
        id_a, id_b = ids[a], ids[b]
        size_a, size_b = sizes[id_a], sizes[id_b]
        new_id = n + step
        merges[step] = (id_a, id_b)
        heights[step] = work[a, b]
        out_sizes[step] = size_a + size_b
        sizes[new_id] = size_a + size_b

        # Lance-Williams update of every remaining cluster against the merge
        keep = [k for k in range(m) if k not in (a, b)]
        if keep:
            keep_arr = np.array(keep)
            sz = np.array([sizes[ids[k]] for k in keep], dtype=np.float64)
            total = sz + size_a + size_b
            d2 = (
                (sz + size_a) * work[keep_arr, a] ** 2
                + (sz + size_b) * work[keep_arr, b] ** 2
                - sz * work[a, b] ** 2
            ) / total
            new_col = np.sqrt(np.maximum(d2, 0.0))
        rows = keep + [a]
        new_work = work[np.ix_(rows, rows)]
        if keep:
            new_work[-1, :-1] = new_col
            new_work[:-1, -1] = new_col
        new_work[-1, -1] = 0.0
        work = new_work
        ids = [ids[k] for k in keep] + [new_id]

    return LinkageTree(n, merges, heights, out_sizes)


def leaf_order(tree: LinkageTree, dist) -> np.ndarray:
    """Permutation placing every cluster in a contiguous block.

    Child blocks are oriented greedily, bottom up: at each internal node
    the four flip choices are scored by the single distance across the
    block boundary and the smallest wins (ties prefer not flipping). If
    the plain traversal order ends up with a smaller total of adjacent
    distances than the greedy result, the traversal order is returned, so
    the output never scores worse than the unoriented tree order.
    """
    dist = _check_distance_matrix(dist)
    n = tree.n_leaves
    if dist.shape[0] != n:
        raise ValueError("distance matrix size does not match leaf count")
    if n == 1:
        return np.array([0])

    orders: dict[int, list[int]] = {leaf: [leaf] for leaf in range(n)}
    for step, (a, b) in enumerate(tree.merges):
        oa, ob = orders.pop(int(a)), orders.pop(int(b))
        options = (
            (oa, ob),
            (oa, ob[::-1]),
            (oa[::-1], ob),
            (oa[::-1], ob[::-1]),
        )
        boundary = [dist[left[-1], right[0]] for left, right in options]
        left, right = options[int(np.argmin(boundary))]
        orders[n + step] = left + right

    greedy = np.asarray(orders[n + len(tree.merges) - 1])
    plain = tree.traversal_order()
    if _adjacent_total(plain, dist) < _adjacent_total(greedy, dist):
        return plain
    return greedy


def _adjacent_total(order: np.ndarray, dist: np.ndarray) -> float:
    return float(dist[order[:-1], order[1:]].sum())


def order_assets(sigma) -> np.ndarray:
    """Covariance matrix -> MPS variable permutation (the full pipeline)."""
    d = distance_matrix(correlation_from_covariance(sigma))
    return leaf_order(ward_linkage(d), d)
