"""Ward clustering and leaf ordering, validated against scipy's linkage and the pairwise-scan oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from ward_oracle import reference_ward_linkage
from tneda.ordering import (
    LinkageTree,
    correlation_distance,
    correlation_from_covariance,
    distance_matrix,
    leaf_order,
    order_assets,
    ward_linkage,
)
from tneda.problems import random_covariance


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


class TestCorrelationDistance:
    def test_endpoints(self):
        assert correlation_distance(1.0) == pytest.approx(0.0)
        assert correlation_distance(0.0) == pytest.approx(0.5)
        assert correlation_distance(-1.0) == pytest.approx(1.0)

    def test_clamps_tiny_overshoot(self):
        assert correlation_distance(1.0 + 1e-12) == 0.0

    def test_rejects_large_overshoot(self):
        with pytest.raises(ValueError):
            correlation_distance(1.1)

    def test_array_input(self):
        d = correlation_distance(np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(d, [0.0, 0.5, 1.0])


class TestWardLinkage:
    def test_two_points(self):
        dist = np.array([[0.0, 0.7], [0.7, 0.0]])
        tree = ward_linkage(dist)
        assert tree.n_leaves == 2
        np.testing.assert_array_equal(tree.merges, [[0, 1]])
        assert tree.heights[0] == pytest.approx(0.7)

    def test_tight_pair_merges_first(self):
        dist = np.array(
            [
                [0.0, 0.05, 0.9],
                [0.05, 0.0, 0.8],
                [0.9, 0.8, 0.0],
            ]
        )
        tree = ward_linkage(dist)
        np.testing.assert_array_equal(tree.merges[0], [0, 1])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_on_six_points(self, seed):
        dist = random_distance_matrix(6, seed)
        tree = ward_linkage(dist)
        z = linkage(squareform(dist, checks=False), method="ward")
        for step in range(5):
            assert set(tree.merges[step]) == {int(z[step, 0]), int(z[step, 1])}
            assert tree.heights[step] == pytest.approx(z[step, 2], rel=1e-10)
            assert tree.sizes[step] == int(z[step, 3])

    def test_heights_nondecreasing(self):
        tree = ward_linkage(random_distance_matrix(12, 9))
        assert np.all(np.diff(tree.heights) >= -1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ward_linkage(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            ward_linkage(np.array([[0.1, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # argmin would pick a NaN as the closest pair.
        dist = random_distance_matrix(4, 0)
        tree = ward_linkage(dist)
        dist[1, 2] = dist[2, 1] = bad
        with pytest.raises(ValueError, match="distances must be finite"):
            ward_linkage(dist)
        with pytest.raises(ValueError, match="distances must be finite"):
            leaf_order(tree, dist)


def tied_distance_matrix(n, seed, kind):
    """Euclidean, quantized (many ties) or all-equal distances over n points."""
    if kind == "euclidean":
        return random_distance_matrix(n, seed)
    if kind == "all_equal":
        return np.full((n, n), 0.25) - 0.25 * np.eye(n)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, 4, size=(n, n)), 1) / 4.0
    return upper + upper.T


class TestWardOracle:
    """The one-argmin scan against the pairwise scan of ``ward_oracle``: exact equality."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["euclidean", "quantized", "all_equal"]))
    def test_same_merges_heights_and_sizes(self, n, seed, kind):
        dist = tied_distance_matrix(n, seed, kind)
        tree = ward_linkage(dist)
        merges, heights, sizes = reference_ward_linkage(dist)
        np.testing.assert_array_equal(tree.merges, merges)
        np.testing.assert_array_equal(tree.heights, heights)
        np.testing.assert_array_equal(tree.sizes, sizes)


def contiguity_holds(tree, order):
    positions = {leaf: pos for pos, leaf in enumerate(order)}
    for node in range(tree.n_leaves, tree.n_leaves + len(tree.merges)):
        spots = sorted(positions[leaf] for leaf in tree.leaves_under(node))
        if spots != list(range(spots[0], spots[0] + len(spots))):
            return False
    return True


class TestLeafOrder:
    def test_two_leaves(self):
        dist = np.array([[0.0, 0.3], [0.3, 0.0]])
        tree = ward_linkage(dist)
        order = leaf_order(tree, dist)
        assert sorted(order.tolist()) == [0, 1]

    def test_perfectly_correlated_assets_adjacent(self):
        rng = np.random.default_rng(5)
        returns = rng.normal(size=(60, 5))
        returns[:, 3] = returns[:, 1]  # assets 1 and 3 identical
        corr = np.corrcoef(returns, rowvar=False)
        dist = distance_matrix(corr)
        order = leaf_order(ward_linkage(dist), dist)
        pos = {leaf: i for i, leaf in enumerate(order)}
        assert abs(pos[1] - pos[3]) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_cluster_contiguity(self, seed):
        dist = random_distance_matrix(8, seed)
        tree = ward_linkage(dist)
        order = leaf_order(tree, dist)
        assert sorted(order.tolist()) == list(range(8))
        assert contiguity_holds(tree, order)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_worse_than_traversal(self, seed):
        dist = random_distance_matrix(8, seed + 100)
        tree = ward_linkage(dist)
        order = leaf_order(tree, dist)
        plain = tree.traversal_order()
        total = dist[order[:-1], order[1:]].sum()
        baseline = dist[plain[:-1], plain[1:]].sum()
        assert total <= baseline + 1e-12

    def test_deterministic(self):
        dist = random_distance_matrix(9, 77)
        tree = ward_linkage(dist)
        np.testing.assert_array_equal(leaf_order(tree, dist), leaf_order(tree, dist))

    def test_single_leaf(self):
        tree = ward_linkage(np.zeros((1, 1)))
        np.testing.assert_array_equal(leaf_order(tree, np.zeros((1, 1))), [0])


class TestPipeline:
    def test_order_assets_is_permutation(self):
        sigma = random_covariance(12, seed=3)
        order = order_assets(sigma)
        assert sorted(order.tolist()) == list(range(12))

    def test_order_assets_on_200_assets(self):
        order = order_assets(random_covariance(200, seed=7))
        assert sorted(order.tolist()) == list(range(200))

    def test_correlation_from_covariance_unit_diagonal(self):
        corr = correlation_from_covariance(random_covariance(6, seed=1))
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        assert np.abs(corr).max() <= 1.0 + 1e-9
