"""Empirical Fourier transforms of a sample on integer frequencies.

For points x_i with labels y_i, h_X(nu) = sum_i e^{i <nu, x_i>} and
h_Y(nu) = sum_i y_i e^{i <nu, x_i>}.  On the wave basis
B = [cos <omega_u, x_i> | sin <omega_u, x_i>] over integer rows omega_u,
cos a cos b = [cos(a - b) + cos(a + b)]/2 and its sine forms give every
entry of B^T B from h_X at omega_u -+ omega_v, and B^T Y is h_Y at omega_u.
``FourierTable`` keeps those transforms per sample, one per dataset
(``regress.Dataset.table``), so that every Gram of one dataset reads one
table.  The transforms are formed from per-dimension power tables
e^{i k x_j}, in row blocks of at most ``kernelmap.TRIG_BLOCK_ENTRIES``
complex entries.

The module is imported where a fit first needs it, not with the package.
"""

from __future__ import annotations

import math

import numpy as np

from .kernelmap import TRIG_BLOCK_ENTRIES


def table_reach(freqs) -> tuple[int, ...] | None:
    """The reach r of the S rows of ``freqs`` (r_j = max |omega_j|) when a
    ``FourierTable`` serves their Gram, else None.  It serves integer rows
    whose box |nu_j| <= 2 r_j has at most 2 S^2 entries: the cost rule under
    which reading the box beats forming the n x 2S wave basis and its
    Gram."""
    freqs = np.asarray(freqs, dtype=float)
    if not np.array_equal(freqs, np.round(freqs)):
        return None
    reach = tuple(int(r) for r in np.abs(freqs).max(axis=0))
    if math.prod(4 * r + 1 for r in reach) > 2 * freqs.shape[0] ** 2:
        return None
    return reach


def _power_tables(X: np.ndarray, reach) -> list:
    """Per dimension j, the (2 r_j + 1, m) table whose row r_j + k holds
    e^{i k x_j} at the m points ``X``: powers of one cosine and one sine per
    point, and their conjugates."""
    tables = []
    for x, r in zip(X.T, reach):
        P = np.empty((2 * r + 1, x.size), dtype=complex)
        P[r] = 1.0
        if r:
            np.cos(x, out=P[r + 1].real)
            np.sin(x, out=P[r + 1].imag)
            for k in range(r + 2, 2 * r + 1):
                np.multiply(P[k - 1], P[r + 1], out=P[k])
            np.conjugate(P[: r : -1], out=P[:r])
        tables.append(P)
    return tables


def wave_sums(X: np.ndarray, weights, reach) -> np.ndarray:
    """sum_i a_i e^{i <nu, x_i>} over the box |nu_j| <= reach_j, for each
    of the k weight vectors a in ``weights`` (each of real entries, of shape
    ``(n,)``): shape ``(k, 2 reach_1 + 1, ..., 2 reach_d + 1)``, with nu_j
    at index nu_j + reach_j.

    The sums of real weights are Hermitian, h(-nu) = conj h(nu), so only
    nu_1 >= 0 is summed and the rest mirrored; on the plane nu_1 = 0, which
    is its own mirror, each entry is averaged with its mirror's conjugate,
    so that the box is exactly Hermitian.  Per row block, the power tables
    of all but the last dimension are multiplied out into one row per box
    point, and the last dimension's, times each weight, is contracted
    against them by one matrix product over the block's points."""
    (n, d), k = X.shape, len(weights)
    sizes = [2 * r + 1 for r in reach]
    sizes[0] = reach[0] + 1
    inner, last = math.prod(sizes[:-1]), sizes[-1]
    out = np.zeros((inner, k * last), dtype=complex)
    # the block's tables hold at most TRIG_BLOCK_ENTRIES complex entries
    step = max(1, TRIG_BLOCK_ENTRIES // (2 * sum(reach) + d + inner + k * last))
    for r in range(0, n, step):
        rows = slice(r, r + step)
        tables = _power_tables(X[rows], reach)
        block = np.stack([a[rows] for a in weights])
        tables[0] = tables[0][reach[0] :]
        m = tables[0].shape[1]
        left = np.ones((1, m), dtype=complex)
        for P in tables[:-1]:
            left = (left[:, None, :] * P[None, :, :]).reshape(-1, m)
        right = (block[:, None, :] * tables[-1]).reshape(k * last, m)
        out += left @ right.T
    half = np.moveaxis(out.reshape(inner, k, last), 1, 0).reshape(k, *sizes)
    axes = tuple(range(1, d + 1))
    mirror = np.conj(np.flip(half, axis=axes))
    plane = 0.5 * (half[:, :1] + mirror[:, -1:])
    return np.concatenate([mirror[:, :-1], plane, half[:, 1:]], axis=1)


class FourierTable:
    """h_X and h_Y of one sample (points ``X``, labels ``Y``).

    ``gram`` reads B^T B and B^T Y from the box |nu_j| <= 2 r_j, where r is
    the rows' reach (r_j = max_u |omega_uj|).  A box is formed once per
    reach, by ``wave_sums``, and kept: the Grams of one table share it, and a
    fresh table of the same sample forms the same box bit for bit.  The box
    is exactly Hermitian, so B^T B comes out exactly symmetric.
    """

    def __init__(self, X, Y):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.Y = np.asarray(Y, dtype=float).ravel()
        self.boxes: dict[tuple, np.ndarray] = {}

    def box(self, reach) -> np.ndarray:
        """(h_X, h_Y) over |nu_j| <= 2 reach_j, formed by the first call."""
        if reach not in self.boxes:
            weights = [np.broadcast_to(1.0, self.Y.shape), self.Y]
            self.boxes[reach] = wave_sums(self.X, weights, tuple(2 * r for r in reach))
        return self.boxes[reach]

    def gram(self, freqs) -> tuple[np.ndarray, np.ndarray] | None:
        """(B^T B, B^T Y) of the wave basis over the distinct rows of
        ``freqs``, cosines first, read from the box; None where
        ``table_reach`` refuses the rows."""
        freqs = np.asarray(freqs, dtype=float)
        reach = table_reach(freqs)
        if reach is None:
            return None
        hX, hY = self.box(reach)
        S, at = freqs.shape[0], _box_index(freqs, hX.shape)
        minus = hX.ravel()[at[:, None] - at[None, :] + hX.size // 2]
        plus = hX.ravel()[at[:, None] + at[None, :] + hX.size // 2]
        G = np.empty((2 * S, 2 * S))
        np.add(minus.real, plus.real, out=G[:S, :S])
        np.subtract(minus.real, plus.real, out=G[S:, S:])
        np.subtract(plus.imag, minus.imag, out=G[:S, S:])
        G[S:, :S] = G[:S, S:].T
        G *= 0.5
        return G, _basis_entries(freqs, hY)


def _box_index(freqs: np.ndarray, shape) -> np.ndarray:
    """Each row's offset from the centre of a C-ordered box of ``shape``:
    the flat index of nu is ``_box_index(nu) + size // 2``, and the offset is
    linear in nu."""
    strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    return freqs.astype(np.int64) @ strides


def _basis_entries(freqs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """B^T a from the box h of a's sums: the real parts of h at the rows of
    ``freqs``, then the imaginary parts."""
    h = h.ravel()[_box_index(freqs, h.shape) + h.size // 2]
    return np.concatenate([h.real, h.imag])

