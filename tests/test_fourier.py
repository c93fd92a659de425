"""The empirical Fourier transform of a sample, and the Gram of its wave
basis read from it, against the wave basis formed directly."""

import tracemalloc

import numpy as np
import pytest

from rffdq.fourier import FourierTable, table_reach
from rffdq.kernelmap import TRIG_BLOCK_ENTRIES


def wave_basis(X, freqs):
    """B = [cos <omega_u, x_i> | sin <omega_u, x_i>], formed directly."""
    angles = X @ freqs.T
    return np.hstack([np.cos(angles), np.sin(angles)])


def box_rows(gen, reach, count):
    """Up to ``count`` random distinct integer rows in |omega_j| <= reach_j,
    with the zero frequency and the rows +-reach (at the reach in every
    dimension) among them, in random order."""
    reach = np.asarray(reach)
    grid = np.stack(np.meshgrid(*[np.arange(-r, r + 1) for r in reach], indexing="ij"), -1)
    grid = grid.reshape(-1, reach.size)
    picked = grid[gen.choice(len(grid), min(count, len(grid)) - 3, replace=False)]
    rows = np.unique(np.vstack([np.zeros(reach.size), reach, -reach, picked]), axis=0)
    return rows[gen.permutation(len(rows))].astype(float)


class TestFourierTable:
    """B^T B and B^T Y of the wave basis over integer rows, read from the
    points' empirical Fourier transform."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gram_is_the_wave_basis_gram(self, d):
        gen = np.random.default_rng(d)
        reach = gen.integers(1, 4, d)
        freqs = box_rows(gen, reach, 40)
        assert table_reach(freqs) == tuple(reach)
        X = gen.uniform(0, 2 * np.pi, (150, d))
        Y = gen.normal(size=150)
        G, BtY = FourierTable(X, Y).gram(freqs)
        B = wave_basis(X, freqs)
        scale = np.max(np.abs(B.T @ B))
        assert np.max(np.abs(G - B.T @ B)) <= 1e-13 * scale
        assert np.max(np.abs(BtY - B.T @ Y)) <= 1e-13 * scale
        assert np.array_equal(G, G.T)
        # the zero frequency's sine column is exactly zero
        zero = np.flatnonzero(~freqs.any(axis=1))[0] + freqs.shape[0]
        assert not G[zero].any() and BtY[zero] == 0.0

    def test_shared_and_fresh_tables_give_the_same_bits(self):
        gen = np.random.default_rng(11)
        freqs = box_rows(gen, (3, 2), 30)
        X = gen.uniform(0, 2 * np.pi, (700, 2))
        Y = gen.normal(size=700)
        shared = FourierTable(X, Y)
        shared.gram(freqs[np.abs(freqs).max(axis=1) <= 1])  # a box of another reach first
        for _ in range(2):
            got = shared.gram(freqs)
            want = FourierTable(X.copy(), Y.copy()).gram(freqs)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert sorted(shared.boxes) == [(1, 1), (3, 2)]

    def test_rows_in_any_order_read_the_same_entries(self):
        gen = np.random.default_rng(5)
        freqs = box_rows(gen, (2, 2), 20)
        table = FourierTable(gen.uniform(0, 2 * np.pi, (90, 2)), gen.normal(size=90))
        G, BtY = table.gram(freqs)
        order = gen.permutation(len(freqs))
        G2, BtY2 = table.gram(freqs[order])
        both = np.concatenate([order, order + len(freqs)])
        assert np.array_equal(G2, G[np.ix_(both, both)]) and np.array_equal(BtY2, BtY[both])

    @pytest.mark.parametrize(
        "freqs",
        [
            np.array([[0.0], [0.5], [1.5]]),  # not integers
            np.array([[0.0, 0.0], [1.0, 1e-9]]),
            np.eye(6)[:4] * 2.0,  # d = 6: a box of 9^6 entries for 4 rows
        ],
    )
    def test_the_cost_rule_refuses(self, freqs):
        assert table_reach(freqs) is None
        table = FourierTable(np.ones((3, freqs.shape[1])), np.ones(3))
        assert table.gram(freqs) is None and table.boxes == {}

    def test_the_cost_rule_takes_a_box_of_at_most_two_s_squared(self):
        # reach 2 in d = 2 gives a 9 x 9 box: 81 <= 2 S^2 from S = 7 on
        rows = np.array([[0, 0], [2, 2], [1, 0], [0, 1], [1, 1], [2, -1], [-1, 2]], dtype=float)
        assert table_reach(rows) == (2, 2)
        assert table_reach(rows[:6]) is None

    def test_forming_a_large_table_holds_row_blocks(self):
        gen = np.random.default_rng(2)
        n = 100_000
        table = FourierTable(gen.uniform(0, 2 * np.pi, (n, 2)), gen.normal(size=n))
        tracemalloc.start()
        try:
            box = table.box((6, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block tables, a few temporaries of their size and the box: no
        # array of one complex per point
        assert peak <= 3 * 16 * TRIG_BLOCK_ENTRIES + 4 * box.nbytes
        assert peak < 16 * n

