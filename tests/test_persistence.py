import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporeg import persistence
from toporeg.geometry import pairwise_distances
from toporeg.persistence import Bar, vr_barcode_0d

from oracles import all_spanning_trees, kruskal_bars, prim_mst_weight, single_linkage_heights


class TestBarcode:
    def test_two_points(self):
        bc = vr_barcode_0d(np.array([[0.0, 7.0], [7.0, 0.0]]))
        assert bar_triples(bc) == [(7.0, 0, 1)]

    def test_four_collinear_points(self):
        x = np.array([[0.0], [1.0], [3.0], [7.0]])
        bc = vr_barcode_0d(pairwise_distances(x))
        assert sorted(bc.lengths().tolist()) == [1.0, 2.0, 4.0]

    def test_collinear_mst_is_global_minimum_over_all_trees(self):
        # brute force: all 16 labeled trees on 4 vertices
        d = pairwise_distances(np.array([[0.0], [1.0], [3.0], [7.0]]))
        weights = [sum(d[i, j] for i, j in tree) for tree in all_spanning_trees(4)]
        assert len(weights) == 16
        bc = vr_barcode_0d(d)
        assert bc.lengths().sum() == pytest.approx(min(weights), abs=1e-12)

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
        bc = vr_barcode_0d(pairwise_distances(rng.normal(size=(n, 3))))
        assert bc.lengths().size == bc.a.size == bc.b.size == n - 1
        assert bc.n_points == n

    def test_total_length_matches_prim_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 15)), 2))
            d = pairwise_distances(x)
            total = vr_barcode_0d(d).lengths().sum()
            assert total == pytest.approx(prim_mst_weight(d), abs=1e-12)

    def test_duplicate_point_adds_one_zero_bar(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 2))
        base = sorted(vr_barcode_0d(pairwise_distances(x)).lengths())
        dup = np.vstack([x, x[2]])
        got = sorted(vr_barcode_0d(pairwise_distances(dup)).lengths())
        assert len(got) == len(base) + 1
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], base, atol=1e-12)

    def test_length_multiset_invariant_under_relabeling(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 3))
        base = sorted(vr_barcode_0d(pairwise_distances(x)).lengths())
        perm = rng.permutation(10)
        got = sorted(vr_barcode_0d(pairwise_distances(x[perm])).lengths())
        np.testing.assert_allclose(got, base, atol=1e-12)

    def test_bar_length_equals_matrix_entry_exactly(self):
        rng = np.random.default_rng(4)
        d = pairwise_distances(rng.normal(size=(9, 4)))
        bc = vr_barcode_0d(d)
        assert bc.lengths().tobytes() == d[bc.a, bc.b].tobytes()
        assert (bc.a < bc.b).all()

    def test_edges_form_spanning_tree(self):
        rng = np.random.default_rng(5)
        bc = vr_barcode_0d(pairwise_distances(rng.normal(size=(12, 2))))
        neighbors = {i: set() for i in range(12)}
        for i, j in zip(bc.a.tolist(), bc.b.tolist()):
            neighbors[i].add(j)
            neighbors[j].add(i)
        reached, frontier = {0}, [0]
        while frontier:
            for w in neighbors[frontier.pop()] - reached:
                reached.add(w)
                frontier.append(w)
        assert len(reached) == 12  # connected
        assert bc.lengths().size == 11  # connected with N - 1 edges: acyclic

    def test_deterministic_tie_break(self):
        # unit square: four exactly-tied unit edges; lexicographic order wins
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bc = vr_barcode_0d(pairwise_distances(square))
        assert bar_triples(bc) == [(1.0, 0, 1), (1.0, 0, 2), (1.0, 1, 3)]

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            vr_barcode_0d(np.zeros((1, 1)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            vr_barcode_0d(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "d", [np.float64(3.0), np.zeros(3), np.zeros((2, 2, 2)), np.zeros((2, 3))], ids=["0d", "1d", "3d", "2x3"]
    )
    def test_input_that_is_not_a_square_matrix_is_named_by_shape(self, d):
        # a 0-D input has no first dimension to read
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(d)}")):
            vr_barcode_0d(d)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_distances_rejected(self, bad):
        d = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
        d[0, 2] = d[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            vr_barcode_0d(d)

    @pytest.mark.parametrize("where", [(0, 2), (1, 1)], ids=["off_diagonal", "diagonal"])
    def test_negative_distances_rejected(self, where):
        # the Prim loop orders keys on their int64 view, which holds the
        # float order only for nonnegative doubles
        d = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
        d[where] = d[where[::-1]] = -1.0
        with pytest.raises(ValueError, match="negative"):
            vr_barcode_0d(d)

    def test_all_negative_zero_off_diagonal_is_accepted(self):
        d = np.full((4, 4), -0.0)
        np.fill_diagonal(d, 0.0)
        bc = vr_barcode_0d(d)
        assert bar_triples(bc) == [(0.0, 0, 1), (0.0, 0, 2), (0.0, 0, 3)]
        assert np.signbit(bc.lengths()).all()

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
        assert bc.lengths().size == n - 1
        assert bc.lengths().sum() == pytest.approx(prim_mst_weight(d), abs=1e-12)


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
    return list(zip(barcode.lengths().tolist(), barcode.a.tolist(), barcode.b.tolist()))


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

    # The cases below make some point t's row of the matrix hold t's bar
    # length more than once, so the tree endpoints are recovered from the
    # hits masked to points that joined before t.
    @pytest.mark.parametrize(
        "x,want",
        [
            # 2 joins after 1 at distance 1 from it, 1's bar length
            ([[0.0], [1.0], [2.0]], [(1.0, 0, 1), (1.0, 1, 2)]),
            # 3 joins through 2 but is as far from 1, which joins after it
            # with the smaller index: unmasked, 3 and 1 would both claim (1, 3)
            ([[0.0], [3.0], [1.0], [2.0]], [(1.0, 0, 2), (1.0, 1, 3), (1.0, 2, 3)]),
            # zero-length bars: their rows hit the diagonal and the twin
            ([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]],
             [(0.0, 0, 2), (0.0, 1, 3), (0.0, 1, 4), (2.0, 0, 1)]),
        ],
        ids=["later_point_at_bar_length", "later_smaller_index", "duplicated_rows"],
    )
    def test_endpoint_among_several_hits_is_the_earliest_join(self, x, want):
        d = pairwise_distances(np.array(x))
        assert kruskal_bars(d) == want
        assert bar_triples(vr_barcode_0d(d)) == want

    def test_negative_zero_distance_keeps_its_sign(self):
        # a bar is its entry d[a, b] bit for bit, so -0.0 stays -0.0: the
        # key update passes d[t]'s -0.0 through, and argmin on the keys'
        # int64 view takes a -0.0 key first
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, -0.0], [2.0, -0.0, 0.0]])
        barcode = vr_barcode_0d(d)
        assert np.signbit(barcode.lengths()).tolist() == [True, False]
        assert bar_triples(barcode) == [(0.0, 1, 2), (1.0, 0, 1)]

    @pytest.mark.parametrize(
        "d",
        [
            # the key 1 comes from row 0; row 1 holds 2 back
            [[0.0, 1.0], [2.0, 0.0]],
            # point 2 joins at d[1, 2] = 1, which row 2 holds at no point
            [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 2.0, 0.0]],
        ],
        ids=["two_points", "tail_row_misses_its_key"],
    )
    def test_asymmetric_tree_edge_rejected(self, d):
        with pytest.raises(ValueError, match="not symmetric"):
            vr_barcode_0d(np.array(d))

    def test_asymmetric_integer_matrices_raise_or_hold_every_edge_both_ways(self):
        # an accepted asymmetric matrix still gives bars that its entries
        # hold in both directions: no edge has a length the matrix lacks
        rng = np.random.default_rng(2)
        raised = 0
        for _ in range(500):
            n = int(rng.integers(3, 9))
            d = rng.integers(0, 5, size=(n, n)).astype(np.float64)
            np.fill_diagonal(d, 0.0)
            try:
                bc = vr_barcode_0d(d)
            except ValueError as exc:
                assert "not symmetric" in str(exc)
                raised += 1
                continue
            assert bc.lengths().tobytes() == d[bc.a, bc.b].tobytes() == d[bc.b, bc.a].tobytes()
        assert raised > 400

    def test_input_matrix_is_left_untouched(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = pairwise_distances(tie_heavy_cloud(rng, 24))
            before = d.copy()
            vr_barcode_0d(d)
            assert d.tobytes() == before.tobytes()


class TestKruskalOracle:
    """Bars, endpoints and order equal Kruskal's under the (length, i, j) order."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("flip_lower", [False, True], ids=["mirrored", "lower_zero_signs_flipped"])
    def test_every_small_matrix_over_signed_zeros_and_two_lengths(self, n, flip_lower):
        # each bar is its upper-triangle entry bit for bit, whichever signed
        # zero its key came from; a lower triangle whose zeros have the other
        # sign is still symmetric under float ==
        iu = np.triu_indices(n, 1)
        for entries in itertools.product([0.0, -0.0, 1.0, 2.0], repeat=iu[0].size):
            d = np.zeros((n, n))
            d[iu] = entries
            d[iu[::-1]] = entries
            if flip_lower:
                lower = d[iu[::-1]]
                d[iu[::-1]] = np.where(lower == 0.0, -lower, lower)
            bc = vr_barcode_0d(d)
            assert bar_triples(bc) == kruskal_bars(d)
            assert bc.lengths().tobytes() == d[bc.a, bc.b].tobytes()

    @given(data=st.data(), n=st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_entries_from_subnormal_to_near_max(self, data, n):
        # a small pool of values, so that many entries tie
        value = st.floats(min_value=5e-324, max_value=1.7e308) | st.sampled_from([0.0, -0.0])
        pool = data.draw(st.lists(value, min_size=1, max_size=6))
        iu = np.triu_indices(n, 1)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=iu[0].size, max_size=iu[0].size))
        d = np.zeros((n, n))
        d[iu] = d[iu[::-1]] = np.array(pool)[picks]
        bc = vr_barcode_0d(d)
        assert bar_triples(bc) == kruskal_bars(d)
        assert bc.lengths().tobytes() == d[bc.a, bc.b].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_clouds(self, seed, n):
        d = pairwise_distances(tie_heavy_cloud(np.random.default_rng(seed), n))
        assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)

    def test_n300(self):
        d = pairwise_distances(np.round(np.random.default_rng(300).normal(size=(300, 2)), 1))
        assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)


def barcode_or_error(d):
    """The bars of d as (length, a, b) triples, or the ValueError's message."""
    try:
        return bar_triples(vr_barcode_0d(d))
    except ValueError as exc:
        return str(exc)


@pytest.fixture(params=[1, 2, 3], ids=["1_row", "2_rows", "3_rows"])
def block_rows(request, monkeypatch):
    """Sets the pass after the Prim loop to read this many rows of an N x N
    matrix at a time: call with N; call with 0 for the default blocks."""
    default = persistence._CHUNK_VALUES

    def set_for(n):
        monkeypatch.setattr(persistence, "_CHUNK_VALUES", request.param * n if n else default)

    return set_for


class TestRowBlocks:
    """The entry check and the endpoint pass give the same bars and errors
    whatever the number of rows per block; every test matrix below the
    multi-block case fits in one default block."""

    def test_tie_heavy_clouds_match_kruskal(self, block_rows):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(2, 30))
            d = pairwise_distances(tie_heavy_cloud(rng, n))
            block_rows(n)
            assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)

    def test_every_small_matrix_over_signed_zeros_and_two_lengths(self, block_rows):
        # as TestKruskalOracle's, at N = 4: every row's hits, first hits
        # that joined later and a root with hits in its column included
        iu = np.triu_indices(4, 1)
        block_rows(4)
        for entries in itertools.product([0.0, -0.0, 1.0, 2.0], repeat=iu[0].size):
            d = np.zeros((4, 4))
            d[iu] = d[iu[::-1]] = entries
            bc = vr_barcode_0d(d)
            assert bar_triples(bc) == kruskal_bars(d)
            assert bc.lengths().tobytes() == d[bc.a, bc.b].tobytes()

    def test_asymmetric_integer_matrices_match_one_block(self, block_rows):
        # the 500 matrices of test_asymmetric_integer_matrices_raise_or_hold_every_edge_both_ways
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(3, 9))
            d = rng.integers(0, 5, size=(n, n)).astype(np.float64)
            np.fill_diagonal(d, 0.0)
            block_rows(0)
            want = barcode_or_error(d)
            block_rows(n)
            assert barcode_or_error(d) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "minus_one"])
    @pytest.mark.parametrize(
        "where", [(6, 1), (3, 1), (2, 0)], ids=["last_block_only", "below_diagonal_only", "root_column_only"]
    )
    def test_one_bad_entry_is_rejected(self, block_rows, bad, where):
        # one entry, so the matrix is also asymmetric there; the entries
        # error comes first
        d = pairwise_distances(np.random.default_rng(5).normal(size=(7, 2)))
        d[where] = bad
        for n in (0, 7):
            block_rows(n)
            with pytest.raises(ValueError, match="negative or non-finite"):
                vr_barcode_0d(d)

    def test_asymmetric_and_non_finite_raises_the_entries_error(self, block_rows):
        # the tree edge (1, 2) holds its key only in row 1, and the Prim loop
        # never reads the NaN in the last row
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [np.nan, 2.0, 0.0]])
        block_rows(3)
        with pytest.raises(ValueError, match="negative or non-finite"):
            vr_barcode_0d(d)
        d[2, 0] = 3.0
        with pytest.raises(ValueError, match="not symmetric"):
            vr_barcode_0d(d)

    def test_negative_zero_entries_are_accepted(self, block_rows):
        d = np.full((5, 5), -0.0)
        np.fill_diagonal(d, 0.0)
        d[4, 3] = d[3, 4] = 1.0
        block_rows(5)
        bc = vr_barcode_0d(d)
        assert bar_triples(bc) == kruskal_bars(d) == [(0.0, 0, 1), (0.0, 0, 2), (0.0, 0, 3), (0.0, 0, 4)]
        assert np.signbit(bc.lengths()).all()

    @pytest.mark.parametrize("kind", ["rounded", "continuous"])
    def test_n600_spans_several_default_blocks(self, kind):
        n = 600
        assert persistence._CHUNK_VALUES // n < n // 2
        x = np.random.default_rng(600).normal(size=(n, 2))
        d = pairwise_distances(np.round(x, 1) if kind == "rounded" else x)
        assert bar_triples(vr_barcode_0d(d)) == kruskal_bars(d)
        d[n - 1, 7] = np.nan
        with pytest.raises(ValueError, match="negative or non-finite"):
            vr_barcode_0d(d)
