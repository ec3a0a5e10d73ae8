import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporeg.geometry import pairwise_distances
from toporeg.persistence import Bar, Barcode, cloud_barcode, vr_barcode_0d

from oracles import all_spanning_trees, kruskal_bars, prim_mst_weight, single_linkage_heights


class TestBarcode:
    def test_two_points(self):
        bc = vr_barcode_0d(np.array([[0.0, 7.0], [7.0, 0.0]]))
        assert len(bc.bars) == 1
        assert bc.bars[0].length == 7.0

    def test_four_collinear_points(self):
        x = np.array([[0.0], [1.0], [3.0], [7.0]])
        bc = cloud_barcode(x)
        assert sorted(b.length for b in bc.bars) == [1.0, 2.0, 4.0]

    def test_collinear_mst_is_global_minimum_over_all_trees(self):
        # brute force: all 16 labeled trees on 4 vertices
        d = pairwise_distances(np.array([[0.0], [1.0], [3.0], [7.0]]))
        weights = [sum(d[i, j] for i, j in tree) for tree in all_spanning_trees(4)]
        assert len(weights) == 16
        bc = vr_barcode_0d(d)
        assert sum(b.length for b in bc.bars) == pytest.approx(min(weights), abs=1e-12)

    def test_matches_single_linkage_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            r = np.random.default_rng(seed)
            x = r.normal(size=(7, int(r.integers(1, 4))))
            d = pairwise_distances(x)
            got = sorted(vr_barcode_0d(d).lengths())
            want = single_linkage_heights(d)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 33, 64])
    def test_cardinality_is_n_minus_one(self, n):
        rng = np.random.default_rng(n)
        bc = cloud_barcode(rng.normal(size=(n, 3)))
        assert len(bc.bars) == n - 1
        assert bc.n_points == n

    def test_total_length_matches_prim_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 15)), 2))
            d = pairwise_distances(x)
            total = sum(b.length for b in vr_barcode_0d(d).bars)
            assert total == pytest.approx(prim_mst_weight(d), abs=1e-12)

    def test_duplicate_point_adds_one_zero_bar(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 2))
        base = sorted(cloud_barcode(x).lengths())
        dup = np.vstack([x, x[2]])
        got = sorted(cloud_barcode(dup).lengths())
        assert len(got) == len(base) + 1
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], base, atol=1e-12)

    def test_length_multiset_invariant_under_relabeling(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 3))
        base = sorted(cloud_barcode(x).lengths())
        perm = rng.permutation(10)
        got = sorted(cloud_barcode(x[perm]).lengths())
        np.testing.assert_allclose(got, base, atol=1e-12)

    def test_bar_length_equals_matrix_entry_exactly(self):
        rng = np.random.default_rng(4)
        d = pairwise_distances(rng.normal(size=(9, 4)))
        for bar in vr_barcode_0d(d).bars:
            assert bar.length == d[bar.endpoint_a, bar.endpoint_b]
            assert bar.endpoint_a != bar.endpoint_b

    def test_edges_form_spanning_tree(self):
        rng = np.random.default_rng(5)
        bc = cloud_barcode(rng.normal(size=(12, 2)))
        neighbors = {i: set() for i in range(12)}
        for bar in bc.bars:
            neighbors[bar.endpoint_a].add(bar.endpoint_b)
            neighbors[bar.endpoint_b].add(bar.endpoint_a)
        reached, frontier = {0}, [0]
        while frontier:
            for w in neighbors[frontier.pop()] - reached:
                reached.add(w)
                frontier.append(w)
        assert len(reached) == 12  # connected
        assert len(bc.bars) == 11  # connected with N - 1 edges: acyclic

    def test_deterministic_tie_break(self):
        # unit square: four exactly-tied unit edges; lexicographic order wins
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bc = cloud_barcode(square)
        assert [(b.endpoint_a, b.endpoint_b) for b in bc.bars] == [(0, 1), (0, 2), (1, 3)]
        assert all(b.length == 1.0 for b in bc.bars)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            vr_barcode_0d(np.zeros((1, 1)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            vr_barcode_0d(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_distances_rejected(self, bad):
        d = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
        d[0, 2] = d[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            vr_barcode_0d(d)

    def test_barcode_validates_bar_count(self):
        with pytest.raises(ValueError):
            Barcode([1.0, 2.0], [0, 1], [1])
        with pytest.raises(ValueError):
            Barcode([1.0], [0, 1], [1, 2])

    def test_barcode_arrays_are_read_only_and_bars_match_them(self):
        bc = vr_barcode_0d(pairwise_distances(np.array([[0.0], [1.0], [3.0]])))
        assert bc.n_points == 3
        assert bc.bars == [Bar(1.0, 0, 1), Bar(2.0, 1, 2)]
        with pytest.raises(ValueError):
            bc.lengths()[0] = 5.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_cardinality_and_prim_weight(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        x = rng.normal(scale=rng.uniform(0.5, 5.0), size=(n, int(rng.integers(1, 5))))
        d = pairwise_distances(x)
        bc = vr_barcode_0d(d)
        assert len(bc.bars) == n - 1
        assert sum(b.length for b in bc.bars) == pytest.approx(prim_mst_weight(d), abs=1e-12)


def tie_heavy_cloud(rng, n) -> np.ndarray:
    """Points whose distance matrices are full of exact ties."""
    dim = int(rng.integers(1, 4))
    kind = int(rng.integers(0, 4))
    if kind == 0:  # coordinates rounded to 0-2 decimals
        return np.round(rng.normal(size=(n, dim)), int(rng.integers(0, 3)))
    if kind == 1:  # integer lattice points
        return rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    if kind == 2:  # duplicated rows
        x = rng.normal(size=(n, dim))
        return x[rng.integers(0, max(1, n // 2), size=n)]
    return np.full((n, dim), float(rng.normal()))  # all rows equal


def bar_triples(barcode) -> list[tuple[float, int, int]]:
    return [(b.length, b.endpoint_a, b.endpoint_b) for b in barcode.bars]


class TestTieRules:
    """Each hand-built matrix needs one tie rule of the Prim loop to match Kruskal."""

    def test_equal_keys_across_points_take_the_smallest_edge(self):
        # after 3 joins, points 1 and 2 both have key 1: (1, 3) and (0, 2);
        # (0, 2) goes first, and then (1, 2) replaces (1, 3), which closes a
        # cycle of unit edges that Kruskal rejects
        d = np.array(
            [
                [0.0, 1.5, 1.0, 0.5],
                [1.5, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 1.5],
                [0.5, 1.0, 1.5, 0.0],
            ]
        )
        want = [(0.5, 0, 3), (1.0, 0, 2), (1.0, 1, 2)]
        assert kruskal_bars(d) == want
        assert bar_triples(vr_barcode_0d(d)) == want

    def test_equal_length_edge_to_a_smaller_tree_endpoint_wins(self):
        # point 2 first gets key 2 through 3; when 1 joins, its edge (1, 2)
        # is as long and has the smaller tree endpoint, so it replaces (2, 3).
        # No two outside points ever share a key.
        d = np.array(
            [
                [0.0, 1.5, 2.5, 1.0],
                [1.5, 0.0, 2.0, 2.4],
                [2.5, 2.0, 0.0, 2.0],
                [1.0, 2.4, 2.0, 0.0],
            ]
        )
        want = [(1.0, 0, 3), (1.5, 0, 1), (2.0, 1, 2)]
        assert kruskal_bars(d) == want
        assert bar_triples(vr_barcode_0d(d)) == want


class TestKruskalOracle:
    """Bars, endpoints and order equal Kruskal's under the (length, i, j) order."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_clouds(self, seed, n):
        d = pairwise_distances(tie_heavy_cloud(np.random.default_rng(seed), n))
        assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)

    def test_n300(self):
        d = pairwise_distances(np.round(np.random.default_rng(300).normal(size=(300, 2)), 1))
        assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)
