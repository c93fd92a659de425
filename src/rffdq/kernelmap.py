"""Re-weighted trigonometric feature maps, kernels, and RKHS norms.

A weight vector w over the canonical half-lattice defines the feature map

    phi_w(x) = (w_0, w_1 cos<w1,x>, w_1 sin<w1,x>, ..., ) / ||w||_2

and the shift-invariant kernel K_w(x,x') = <phi_w(x), phi_w(x')>
= sum_i w_i^2 cos(<omega_i, x-x'>) / ||w||_2^2.  For integer frequency
lattices the trigonometric features are mutually orthogonal in
L^2(uniform), which makes hyperplane representations unique and turns the
RKHS norm into a plain 2-norm of rescaled Fourier coefficients.

``feature_map`` defines the column layout of phi_w, and with it of every
hyperplane v over phi_w: column 0 is the zero frequency, columns 2i - 1 and
2i the cosine and sine of row i of the canonical half.  It gives phi_w as
``WaveFeatures``, the form random features take too, whose design, values
and spectrum serve both kinds, and whose (inverse, a, b) is the C of
``regress.gram_ridge``.  ``rkhs_norm`` maps a spectrum back to the 2-norm
of its v; no other module reads the layout.

A plane wave e^{i <omega, x>} that a polynomial, a feature map, a kernel
or a fitted model takes at sample points comes from ``PlaneWaves``, which
forms it from a product tree over the columns or by one cosine and one sine
per (point, term), by the cost rule in ``_tables_pay`` at every d.  The one
exception is ``fourier``: on integer frequencies it reads a sample's wave
basis Gram, and its products with vectors, from the sample's empirical
Fourier transform and per-dimension power tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, NonIntegerFrequencyError, read, read_field, show
from .freqcore import _INT_TOL, FrequencySet, fold_rows, is_integer_valued

REALNESS_TOL = 1e-10
SUPPORT_TOL = 1e-12
# rows of the uniform-measure Gram that ``mean_square`` forms at a time
_GRAM_BLOCK = 512
# complex entries (16 B each) that all the tables of one row block of
# ``PlaneWaves.blocks`` hold together at most: 512 KB.  At sweep_highdim's
# shapes 96 KB blocks spent as long in numpy's per-call overhead as in work
TRIG_BLOCK_ENTRIES = 1 << 15


def group_rows(ranks, sizes) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of a table given column by
    column as integer ranks (``ranks[j]`` in ``range(sizes[j])``), in the
    lexicographic order of the ranks: ``first[u]`` is the first row equal
    to distinct row u, ``inverse[s]`` the distinct row of row s.  The ranks
    are combined in mixed radix into one integer key; a key that would
    overflow is first replaced by its rank among the distinct keys."""
    key, size = np.asarray(ranks[0], dtype=np.int64), int(sizes[0])
    for rank, k in zip(ranks[1:], sizes[1:]):
        if size * int(k) >= 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            size = int(key.max(initial=0)) + 1
        key = key * int(k) + rank
        size *= int(k)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _group(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``group_rows`` of the rows of ``freqs`` by their column ranks: the
    ``return_index`` and ``return_inverse`` of ``np.unique(freqs, axis=0)``,
    without sorting the rows as structured keys."""
    values, ranks = column_ranks(freqs)
    return group_rows(ranks, [v.size for v in values])


def column_ranks(freqs: np.ndarray) -> tuple[list, list]:
    """Per column of ``freqs``, its distinct values (sorted) and each row's
    rank among them."""
    values, ranks = [], []
    for column in freqs.T:
        v, rank = np.unique(column, return_inverse=True)
        values.append(v)
        ranks.append(rank.ravel())
    return values, ranks


def _tables_pay(trig_calls: int, entries: int, terms: int) -> bool:
    """The shape rule of ``PlaneWaves``: whether its product tree costs less
    than the direct form, one cosine and one sine per (point, term).

    Per point the tree takes ``trig_calls`` trigonometric calls at its
    leaves and forms ``entries`` complex entries: powers, their conjugates,
    and the rows of its inner nodes and root, each the product of two
    gathered rows.  One entry costs about a sixth of a float64 cosine of an
    argument beyond 1 (4-5 ns against 20-27 ns on a 2-vCPU Xeon, AVX-512,
    numpy 2.4).  The tree's overhead per call is priced as 62 per point, the
    least that keeps 8-term targets at d = 2 (34-54) direct, where the forms
    tie at 500 points, so 10 terms take the tree: it pays when
    6 * trig_calls + entries + 62 < 12 * terms.
    """
    return 6 * trig_calls + entries + 62 < 12 * terms


class _Node:
    """A node of the product tree: ``code[s]`` is row s's sub-row among the
    node's ``size`` distinct ones, ``first[u]`` the first row with sub-row u,
    and ``rows[u]`` the table row that holds sub-row u."""

    def __init__(self, code, size, rows=None, left=None, right=None, first=None):
        self.code, self.size, self.rows = code, size, rows
        self.left, self.right, self.first = left, right, first
        self.height = 0 if left is None else 1 + max(left.height, right.height)

    def pairs(self):
        """The table rows of each sub-row's two factors."""
        return (
            self.left.rows[self.left.code[self.first]],
            self.right.rows[self.right.code[self.first]],
        )


def _build(leaves: list, lo: int, hi: int, inner: list) -> _Node:
    """The node over columns ``lo:hi`` of a tree whose root spans all
    ``leaves``; every inner node is appended to ``inner``, children first."""
    if hi - lo == 1:
        return leaves[lo]
    mid = (lo + hi) // 2
    left, right = _build(leaves, lo, mid, inner), _build(leaves, mid, hi, inner)
    if hi - lo == len(leaves):
        first = code = np.arange(left.code.size)
    else:
        first, code = group_rows([left.code, right.code], [left.size, right.size])
    inner.append(_Node(code, first.size, None, left, right, first))
    return inner[-1]


class PlaneWaves:
    """e^{i <omega_s, x>} for the rows omega_s of ``freqs`` (shape
    ``(S, d)``) at any set of points.

    e^{i <omega, x>} = prod_j e^{i omega_j x_j}, so when ``tabled`` (the
    rule in ``_tables_pay``) each row block is formed by a balanced binary
    tree over the columns.  A leaf holds e^{i v x_j} for the distinct
    values v of column j: on an integer column the powers of e^{i x_j},
    formed by complex products and conjugates from one cosine and one sine
    per point, on any other column cos + i sin of v x_j.  An inner node
    holds the distinct sub-rows of its column range, each the product of one
    row of each child, and the root the S rows themselves, so each (point,
    row) costs one complex product.  Otherwise a block takes np.cos and
    np.sin of X Omega^T.  Both agree to a few ulp of |<omega, x>|.

    The tree is built once, from integer codes: a node's sub-rows are its
    children's codes combined by ``group_rows``.  A block's leaves and
    inner nodes live in one table of ``rows`` rows: the integer columns'
    powers first (row e * P + i holds power e of the i-th of the P such
    columns, and row (top + e) * P + i power -e), then the other leaves,
    then the inner nodes by height, so that the nodes of one height are
    formed together.

    ``columns`` is ``column_ranks(freqs)`` when the caller already has it,
    so that the columns are ranked once.
    """

    def __init__(self, freqs, columns=None):
        self.freqs = np.asarray(freqs, dtype=float)
        S, d = self.freqs.shape
        values, ranks = column_ranks(self.freqs) if columns is None else columns
        # an integer column takes powers when its base (12 sixths of a
        # cosine), further powers and conjugates (2 top - 1) cost less than
        # a cosine and a sine per value
        integer = [v.size > 0 and np.isfinite(v).all() and np.array_equal(v, np.round(v)) for v in values]
        tops = [int(np.abs(v).max()) if whole else 0 for v, whole in zip(values, integer)]
        power = [
            whole and (top == 0 or 11 + 2 * top < 12 * v.size)
            for v, top, whole in zip(values, tops, integer)
        ]
        self.power_cols = np.flatnonzero(power)
        trig_cols = np.flatnonzero(np.logical_not(power))
        P = self.power_cols.size
        self.top = max((tops[j] for j in self.power_cols), default=0)
        self.trig_values = np.concatenate([values[j] for j in trig_cols] + [np.zeros(0)])
        self.trig_source = np.repeat(trig_cols, [values[j].size for j in trig_cols])
        leaves = [None] * d
        for i, j in enumerate(self.power_cols):
            e = values[j].astype(np.intp)
            leaves[j] = np.where(e < 0, self.top - e, e) * P + i
        rows = (2 * self.top + 1) * P
        for j in trig_cols:
            leaves[j] = rows + np.arange(values[j].size)
            rows += values[j].size
        self.leaves = [_Node(ranks[j], values[j].size, at) for j, at in enumerate(leaves)]
        self.levels = None
        formed = P * (2 * self.top - 1) if self.top else 0
        trig_calls = (2 * P if self.top else 0) + 2 * self.trig_values.size
        # inner rows only add to the cost: the tree is built when the leaves
        # and the root alone leave room for it, or when a block needs it
        self.tabled = _tables_pay(trig_calls, formed + S, S) and _tables_pay(
            trig_calls, formed + self._plant(), S
        )

    def _plant(self) -> int:
        """Build the inner nodes and the table layout; return the complex
        entries per point that the inner nodes and the root form."""
        S, d = self.freqs.shape
        inner = []
        root = _build(self.leaves, 0, d, inner)
        self.rows = (2 * self.top + 1) * self.power_cols.size + self.trig_values.size
        # (start, stop, left rows, right rows) of each height below the root
        self.levels = []
        for h in sorted({node.height for node in inner[:-1]}):
            start = self.rows
            pairs = []
            for node in inner[:-1]:
                if node.height == h:
                    node.rows = self.rows + np.arange(node.size)
                    self.rows += node.size
                    pairs.append(node.pairs())
            left, right = (np.concatenate(side) for side in zip(*pairs))
            self.levels.append((start, self.rows, left, right))
        self.root = (root.rows[root.code], None) if d == 1 else root.pairs()
        widest = max((stop - start for start, stop, _, _ in self.levels), default=0)
        # complex entries per point: the table, the root, the gathered
        # factors of one height, and the non-integer leaves' angles
        self.scratch = max(S if d > 1 else 0, 2 * widest)
        self.tree_entries = self.rows + S + self.scratch + (self.trig_values.size + 1) // 2
        return sum(stop - start for start, stop, _, _ in self.levels) + S

    def points(self, X) -> np.ndarray:
        """``X`` as an ``(n, d)`` float array (one point may be given as
        shape ``(d,)``); a point of another width is a ValueError naming
        both widths."""
        return _points(X, self.freqs.shape[1])

    def step(self, n: int) -> int:
        """Points per row block for ``n`` points: the block's tables (a
        direct block's S phasors per point) hold at most
        ``TRIG_BLOCK_ENTRIES`` complex entries, and no more bytes than the
        n x S float64 angles of the direct form, so that few points take no
        more memory than they would without the tree."""
        S = self.freqs.shape[0]
        if self.tabled and self.levels is None:
            self._plant()
        if S == 0:
            return max(n, 1)
        per_point = self.tree_entries if self.tabled else S
        return max(1, min(TRIG_BLOCK_ENTRIES, n * S // 2) // per_point)

    def blocks(self, X):
        """Yield ``(rows, waves)`` over row blocks of the points ``X``:
        waves[k, s] = e^{i <omega_s, X[rows][k]>}, a complex array of shape
        ``(len(rows), S)``.  The array may be reused by the next block, so
        read each block before drawing the next."""
        X = self.points(X)
        n, S = X.shape[0], self.freqs.shape[0]
        step = self.step(n)
        if not self.tabled:
            out = np.empty((min(step, n), S), dtype=complex)
            for r in range(0, n, step):
                waves = out[: min(step, n - r)]
                # the angles go to the imaginary parts, then cos and sin in place
                np.matmul(X[r : r + step], self.freqs.T, out=waves.imag)
                np.cos(waves.imag, out=waves.real)
                np.sin(waves.imag, out=waves.imag)
                yield slice(r, r + waves.shape[0]), waves
            return
        P = self.power_cols.size
        m0 = min(step, n)
        # the three buffers live from block to block; a short last block
        # takes views of their heads
        flat = [np.empty(k * m0, dtype=complex) for k in (self.rows, S, self.scratch)]
        views = None
        for r in range(0, n, step):
            m = min(step, n - r)
            if views is None or views[0].shape[1] != m:
                views = self._tree_views(m, *flat)
            table, powers, trig, levels, root, factor = views
            xt = X[r : r + m].T
            top = self.top
            if top:
                base = xt if P == xt.shape[0] else xt[self.power_cols]
                np.cos(base, out=powers[1].real)
                np.sin(base, out=powers[1].imag)
                # one row per call: a broadcast operand or a reversed output
                # would make ufunc temporaries
                for e in range(2, top + 1):
                    np.multiply(powers[e - 1], powers[1], out=powers[e])
                np.conjugate(powers[1 : top + 1], out=powers[top + 1 :])
            if trig is not None:
                np.multiply(self.trig_values[:, None], xt[self.trig_source], out=trig.imag)
                np.cos(trig.imag, out=trig.real)
                np.sin(trig.imag, out=trig.imag)
            # mode="clip" skips take's buffered copy; the rows are in range
            for (_, _, left, right), (a, b, node) in zip(self.levels, levels):
                table.take(left, axis=0, out=a, mode="clip")
                table.take(right, axis=0, out=b, mode="clip")
                np.multiply(a, b, out=node)
            left, right = self.root
            table.take(left, axis=0, out=root, mode="clip")
            if right is not None:
                table.take(right, axis=0, out=factor, mode="clip")
                root *= factor
            yield slice(r, r + m), root.T

    def _tree_views(self, m: int, table, root, scratch):
        """Views of a tabled block of ``m`` points on the heads of the flat
        buffers ``table``, ``root`` and ``scratch``, every table kept
        (rows, points) so that each gather copies whole table rows: the
        table, its powers and non-integer leaves, per height the two
        gathered factors and the node rows, the root, and the root's second
        factor."""
        S, P, top = self.freqs.shape[0], self.power_cols.size, self.top
        table = table[: self.rows * m].reshape(self.rows, m)
        powers = table[: (2 * top + 1) * P].reshape(2 * top + 1, P, m)
        powers[0] = 1.0
        T = self.trig_values.size
        trig = table[(2 * top + 1) * P : (2 * top + 1) * P + T] if T else None
        levels = []
        for start, stop, _, _ in self.levels:
            k = (stop - start) * m
            levels.append((scratch[:k].reshape(-1, m), scratch[k : 2 * k].reshape(-1, m), table[start:stop]))
        factor = scratch[: S * m].reshape(S, m) if self.root[1] is not None else None
        return table, powers, trig, levels, root[: S * m].reshape(S, m), factor


def _points(X, d: int) -> np.ndarray:
    """``X`` as an ``(n, d)`` float array; a point of another width is a
    ValueError naming both widths."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points have width {X.shape[-1]}, but the frequencies have width {d}")
    return X


@dataclass
class WeightVector:
    """Nonnegative re-weighting of the canonical frequencies.

    Index i corresponds to row i of ``FrequencySet.half``; index 0 is the
    zero frequency.  Strictly positive weights leave the realizable function
    set unchanged (only the norm geometry moves); zero entries make the
    corresponding frequency unreachable.
    """

    weights: np.ndarray
    norm2: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        self.weights = w
        self.norm2 = _scaled_norm(w)

    @classmethod
    def _of_checked(cls, w: np.ndarray) -> "WeightVector":
        """A weight vector on ``w``, whose entries the caller has checked to
        be nonnegative.  Only the norm is checked: it is finite exactly when
        every entry is, since nonnegative finite weights below 2^512 cannot
        overflow it."""
        vec = cls.__new__(cls)
        vec.weights, vec.norm2 = w, _scaled_norm(w)
        if not math.isfinite(vec.norm2):
            raise ValueError("weights must be finite")
        return vec

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, size: int) -> "WeightVector":
        return cls(np.ones(size))

    @classmethod
    def from_json(cls, doc: dict, size: int | None = None) -> "WeightVector":
        """The ``weights`` of a weights document, ``size`` of them when given."""
        w = read_field(read(doc, "object", "weights document"), "weights", "number", ndim=1, least=0)
        if size is not None and w.size != size:
            raise ConfigError.at("weights", f"{size} numbers long, one per canonical frequency", str(w.size))
        if not w.any():
            raise ConfigError.at("weights", "an array with a positive entry", show(doc["weights"]))
        return cls(w)

    def to_json(self) -> dict:
        return {"weights": [float(v) for v in self.weights]}


def _scaled_norm(w: np.ndarray) -> float:
    """The 2-norm of ``w``, scaled by the power of two at the largest
    weight, so that squaring neither underflows tiny weights nor overflows
    huge ones; the scaling is exact, so in-range weights get the plain norm
    bit for bit.  A norm <= 0 is a ValueError (NaN is not)."""
    exp = math.frexp(float(w.max()))[1] if w.size else 0
    scaled = np.ldexp(w, -exp)
    n2 = float(np.ldexp(math.sqrt(float(scaled @ scaled)), exp))
    if n2 <= 0:
        raise ValueError("weight vector must have positive 2-norm")
    return n2


def _check_lengths(fs: FrequencySet, w: WeightVector):
    fs.require_materialized()
    if len(w) != fs.size:
        raise ValueError(
            f"weight vector has length {len(w)} but the canonical half has {fs.size} entries"
        )


@dataclass(eq=False)
class TrigPolynomial:
    """Real-valued trigonometric polynomial, stored as complex coefficients
    on the canonical half: row s of ``freqs`` (shape ``(S, d)``) carries
    ``c[s]``, and the mirror coefficient is the conjugate.  Terms keep their
    insertion order, no frequency appears twice, and every operation runs
    once over these arrays.

    A polynomial attached to a lattice (``freq_set``, materialized) also
    keeps ``rows``, each term's row in ``freq_set.half``.  ``freq_set`` is
    ``None`` for standalone polynomials loaded from file without an
    encoding; lattice-dependent operations then refuse to run.
    """

    freq_set: FrequencySet | None
    freqs: np.ndarray
    c: np.ndarray
    rows: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.freqs.shape[1]

    @property
    def coeffs(self) -> Mapping[tuple, complex]:
        """Read-only ``{canonical omega tuple: c_omega}`` view, in term order."""
        return MappingProxyType(dict(zip(map(tuple, self.freqs.tolist()), self.c.tolist())))

    @classmethod
    def on_rows(cls, fs: FrequencySet, rows, c) -> "TrigPolynomial":
        """Coefficient ``c[s]`` at row ``rows[s]`` of ``fs.half`` (distinct
        rows); zero coefficients are dropped."""
        rows = np.asarray(rows, dtype=np.intp)
        c = np.asarray(c, dtype=complex)
        keep = c != 0
        return cls(fs, fs.half[rows[keep]], c[keep], rows[keep])

    @classmethod
    def from_half_arrays(cls, fs: FrequencySet | None, freqs, c) -> "TrigPolynomial":
        """Build from canonical frequency rows ``freqs`` and their
        coefficients ``c``.

        On a lattice every row snaps onto it (within 1e-9) and must then be
        canonical; a standalone row's components within 1e-12 of zero become
        zero and the row must be canonical.  Every coefficient must be
        finite, the zero-frequency coefficient real (within 1e-10), no
        frequency may repeat, and zero coefficients are dropped.
        """
        freqs = np.asarray(freqs, dtype=float)
        c = np.array(c, dtype=complex)
        if not np.isfinite(c).all():
            i = int(np.argmin(np.isfinite(c)))
            raise ValueError(
                f"coefficient {c[i]} of frequency {tuple(freqs[i].tolist())} is not finite"
            )
        if fs is not None:
            fs.require_materialized()
            rows = fs.half_rows(fs.locate(freqs))
            bad = rows < 0
        else:
            folded, bad = fold_rows(freqs)
        if bad.any():
            raise ValueError(f"coefficient key {tuple(freqs[np.argmax(bad)].tolist())} is not canonical")
        points = fs.half[rows] if fs is not None else folded
        zero = ~points.any(axis=1)
        if np.any(np.abs(c.imag[zero]) > REALNESS_TOL):
            raise ValueError(
                f"zero-frequency coefficient must be real, got imag {c.imag[zero][0]}"
            )
        c.imag[zero] = 0.0
        first, _ = _group(points)
        if first.size < c.size:
            repeat = np.ones(c.size, dtype=bool)
            repeat[first] = False
            key = tuple(points[np.argmax(repeat)].tolist())
            raise ValueError(f"duplicate coefficient for frequency {key}")
        if fs is not None:
            return cls.on_rows(fs, rows, c)
        keep = c != 0
        return cls(None, points[keep], c[keep])

    @classmethod
    def from_half_coeffs(cls, fs: FrequencySet | None, mapping: dict) -> "TrigPolynomial":
        """Build from ``{canonical omega tuple: c_omega}``, by
        ``from_half_arrays``."""
        if fs is not None:
            fs.require_materialized()
            d = fs.d
        else:
            if not mapping:
                raise ValueError("standalone polynomial needs at least a dimension hint")
            d = len(next(iter(mapping)))
        bad = next((omega for omega in mapping if np.shape(omega) != (d,)), None)
        if bad is not None:
            raise ValueError(f"frequency {bad} has wrong dimension (expected {d})")
        freqs = np.array(list(mapping), dtype=float).reshape(len(mapping), d)
        return cls.from_half_arrays(fs, freqs, list(mapping.values()))

    @classmethod
    def zero(cls, fs: FrequencySet | None, d: int | None = None) -> "TrigPolynomial":
        if fs is not None:
            fs.require_materialized()
        d = fs.d if fs is not None else int(d)
        rows = None if fs is None else np.zeros(0, dtype=np.intp)
        return cls(fs, np.zeros((0, d)), np.zeros(0, dtype=complex), rows)

    def coeff(self, omega) -> complex:
        """Coefficient at an arbitrary (possibly non-canonical) lattice point."""
        w = np.asarray(omega, dtype=float)[None, :]
        if self.freq_set is not None:
            w = self.freq_set.at(self.freq_set.locate(w))
        folded, flipped = fold_rows(w)
        c = self.c[np.all(self.freqs == folded, axis=1)].sum()  # at most one term
        return complex(np.conj(c) if flipped[0] else c)

    def _zero_mask(self) -> np.ndarray:
        return ~self.freqs.any(axis=1)

    def evaluate(self, X) -> np.ndarray:
        """Pointwise values at rows of ``X`` (shape ``(n, d)`` or ``(d,)``)."""
        zero = self._zero_mask()
        waves = PlaneWaves(self.freqs[~zero])
        X = waves.points(X)
        const = float(self.c.real[zero].sum())
        cs = self.c[~zero]
        vals = np.empty(X.shape[0])
        for rows, phasors in waves.blocks(X):
            vals[rows] = (phasors @ cs).real
        vals *= 2.0
        vals += const
        return vals

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Terms of ``self`` in order, then the new terms of ``other``;
        terms that cancel are dropped.  The result is attached to a lattice
        when both operands are."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        freqs = np.concatenate([self.freqs, other.freqs])
        first, inverse = _group(freqs)
        # each distinct frequency's slot is the order of its first appearance
        order = np.argsort(first)
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        pos = slot[inverse]
        c = np.zeros(order.size, dtype=complex)
        c[pos[: self.c.size]] = self.c
        c[pos[self.c.size :]] -= other.c
        keep = c != 0
        take = first[order][keep]
        if self.freq_set is None or self.freq_set is not other.freq_set:
            return TrigPolynomial(None, freqs[take], c[keep])
        rows = np.concatenate([self.rows, other.rows])[take]
        return TrigPolynomial(self.freq_set, freqs[take], c[keep], rows)

    def to_json(self) -> dict:
        order = np.lexsort(self.freqs.T[::-1])
        terms = [
            {"omega": omega, "re": float(c.real), "im": float(c.imag)}
            for omega, c in zip(self.freqs[order].tolist(), self.c[order].tolist())
        ]
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_json(cls, doc: dict, fs: FrequencySet | None = None) -> "TrigPolynomial":
        """Parse ``{"d": d, "terms": [{"omega": [...], "re": a, "im": b}, ...]}``
        (on ``fs`` when given): each term at a canonical frequency, on the
        lattice when there is one."""
        doc = read(doc, "object", "function")
        d = read_field(doc, "d", "integer", least=1)
        if fs is not None and d != fs.d:
            raise ConfigError.at("d", f"{fs.d}, the lattice's dimension", show(d))
        terms = read_field(doc, "terms", "array")
        if not terms:
            return cls.zero(fs, d)
        freqs, c = np.empty((len(terms), d)), np.empty(len(terms), dtype=complex)
        for i, term in enumerate(terms):
            at = f"terms[{i}]."
            term = read(term, "object", at[:-1])
            freqs[i] = _term_frequency(term, d, fs, at)
            c[i] = complex(read_field(term, "re", "number", at), read_field(term, "im", "number", at))
        # the terms go in as arrays, so a repeated frequency is refused
        return cls.from_half_arrays(fs, freqs, c)


def _term_frequency(term: dict, d: int, fs: FrequencySet | None, at: str) -> np.ndarray:
    """A function term's ``omega``: d numbers at a canonical frequency, on
    the lattice ``fs`` when given."""
    omega = read_field(term, "omega", "number", at, ndim=1)
    if omega.size != d:
        raise ConfigError.at(at + "omega", f"{d} numbers long (d)", show(term["omega"]))
    try:
        flipped = fold_rows(omega[None])[1][0] if fs is None else fs.half_rows(fs.locate(omega[None]))[0] < 0
    except ValueError as exc:  # a component in no lattice dimension
        raise ConfigError.at(at + "omega", "a lattice point", f"{show(term['omega'])} ({exc})") from None
    if flipped:
        raise ConfigError.at(at + "omega", "canonical (first nonzero component > 0)", show(term["omega"]))
    return omega


def _angle_sum(out: np.ndarray, phasors: np.ndarray, inverse: np.ndarray, a, b):
    """out[s, k] = a_k cos t + b_k sin t for phasors[s, inverse_k] = e^{i t},
    in row blocks of 2 ``TRIG_BLOCK_ENTRIES`` float64 entries (512 KB), so no
    second n x K buffer is held; every temporary is gone when it returns."""
    step = max(1, 2 * TRIG_BLOCK_ENTRIES // out.shape[1])
    for r in range(0, out.shape[0], step):
        block = out[r : r + step]
        # mode="clip" skips take's buffered copy; the indices are in range
        np.take(phasors.real[r : r + step], inverse, axis=1, out=block, mode="clip")
        block *= a
        part = np.take(phasors.imag[r : r + step], inverse, axis=1, mode="clip")
        part *= b
        block += part


class WaveFeatures:
    """Features a_k cos <omega_u, x> + b_k sin <omega_u, x>, omega_u =
    ``distinct[u]`` at u = ``inverse[k]``; ``first[u]`` is row u's first
    feature, and ``waves`` the rows' ``PlaneWaves``, built on first use.
    Random features and phi_w both take this form.  A hyperplane ``coef``
    over them is summed per row, z_u = sum_{k at u} coef_k (a_k - i b_k),
    so that <coef, features(x)> = Re sum_u z_u e^{i <omega_u, x>}."""

    def __init__(self, distinct, inverse, a, b, first):
        self.distinct, self.inverse, self.a, self.b, self.first = distinct, inverse, a, b, first

    @cached_property
    def waves(self) -> PlaneWaves:
        return PlaneWaves(self.distinct)

    def design(self, X) -> np.ndarray:
        """The n x K design at the points ``X``, each feature formed from its
        row's wave by angle addition."""
        X = self.waves.points(X)
        F = np.empty((X.shape[0], self.inverse.size))
        for rows, phasors in self.waves.blocks(X):
            _angle_sum(F[rows], phasors, self.inverse, self.a, self.b)
        return F

    def _sums(self, coef) -> np.ndarray:
        """z_u, the per-row sums of a hyperplane ``coef``."""
        coef = np.asarray(coef, dtype=float)
        if coef.shape != self.inverse.shape:
            raise ValueError(f"hyperplane has shape {coef.shape}, expected {self.inverse.shape}")
        U = self.distinct.shape[0]
        z = np.empty(U, dtype=complex)
        z.real = np.bincount(self.inverse, coef * self.a, U)
        z.imag = -np.bincount(self.inverse, coef * self.b, U)
        return z

    def values(self, coef, X) -> np.ndarray:
        """<coef, features(x)> at the points ``X``: one complex
        matrix-vector product per block of waves, and no n x K design."""
        z = self._sums(coef)
        X = self.waves.points(X)
        out = np.empty(X.shape[0])
        for rows, phasors in self.waves.blocks(X):
            out[rows] = (phasors @ z).real
        return out

    def spectrum(self, coef, fs: FrequencySet | None = None) -> TrigPolynomial:
        """Exact spectrum of <coef, features(.)>: z_u / 2 at omega_u, and
        Re z_u at the zero frequency (its own mirror), in order of each
        row's first feature, on the lattice ``fs`` when given."""
        z = self._sums(coef)
        c = np.where(self.distinct.any(axis=1), 0.5 * z, z.real)
        order = np.argsort(self.first)
        # rows that are the lattice's own half are keyed without a lookup,
        # which costs ten times the rest of this method on a small half
        if fs is not None and self.distinct is fs.half:
            return TrigPolynomial.on_rows(fs, order, c[order])
        return TrigPolynomial.from_half_arrays(fs, self.distinct[order], c[order])


def feature_map(fs: FrequencySet, w: WeightVector) -> WaveFeatures:
    """phi_w as wave features over ``fs.half``, in the column layout of every
    hyperplane over it: feature 0 is the zero frequency's (a = w_0 / ||w||),
    features 2i - 1 and 2i the cosine (a = w_i / ||w||, b = 0) and the sine
    (a = 0, b = w_i / ||w||) of row i."""
    _check_lengths(fs, w)
    inverse = np.arange(1, 2 * fs.size) // 2
    a = w.weights[inverse] / w.norm2
    b = np.zeros_like(a)
    b[2::2] = a[2::2]
    a[2::2] = 0.0
    first = np.maximum(2 * np.arange(fs.size) - 1, 0)
    return WaveFeatures(fs.half, inverse, a, b, first)


def feature_matrix(X, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Feature matrix with rows phi_w(x_k); columns in canonical index order."""
    return feature_map(fs, w).design(X)


def hyperplane_spectrum(v, fs: FrequencySet, w: WeightVector) -> TrigPolynomial:
    """Spectrum of <v, phi_w(.)> for a hyperplane ``v`` in the column
    layout of ``feature_map``: c_0 = w_0 v_0 / ||w|| and
    c_i = w_i (v_cos,i - i v_sin,i) / (2 ||w||), in row order."""
    return feature_map(fs, w).spectrum(v, fs)


def kernel_eval(x, xp, fs: FrequencySet, w: WeightVector):
    """K_w(x, x') = sum_i w_i^2 cos(<omega_i, x - x'>) / ||w||_2^2 of one
    pair of points (shape ``(d,)``, a float), or of each pair of rows of
    two ``(n, d)`` arrays (an array)."""
    _check_lengths(fs, w)
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    waves = PlaneWaves(fs.half)
    delta = waves.points(x) - waves.points(xp)
    k = np.empty(delta.shape[0])
    for rows, phasors in waves.blocks(delta):
        k[rows] = phasors.real @ w.weights**2 / w.norm2**2
    return float(k[0]) if max(x.ndim, xp.ndim) == 1 else k


def kernel_matrix(X, Xp, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Gram matrix K[i, j] = K_w(X[i], Xp[j]), assembled via the angle-sum
    identity so the cost is O((n + m) |Omega| + n m |Omega|) in BLAS calls."""
    _check_lengths(fs, w)
    waves = PlaneWaves(fs.half)
    X, Xp = waves.points(X), waves.points(Xp)
    p = w.weights**2 / w.norm2**2
    cos_p, sin_p = np.empty((2, Xp.shape[0], fs.size))
    for rows, phasors in waves.blocks(Xp):
        cos_p[rows], sin_p[rows] = phasors.real, phasors.imag
    K = np.empty((X.shape[0], Xp.shape[0]))
    for rows, phasors in waves.blocks(X):
        K[rows] = (phasors.real * p) @ cos_p.T + (phasors.imag * p) @ sin_p.T
    return K


def distribution_of(w: WeightVector) -> np.ndarray:
    """Frequency probabilities p_i = w_i^2 / ||w||_2^2."""
    return (w.weights / w.norm2) ** 2


def weights_of(p) -> WeightVector:
    """Unit-norm weight vector with w_i = sqrt(p_i).  The probabilities are
    checked once, here, and the weights are not checked again."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("weights must be a 1-d sequence")
    # a NaN passes this check and makes the norm NaN, which is refused
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    return WeightVector._of_checked(np.sqrt(p))


class OperatorNormResult(NamedTuple):
    op_norm: float
    p_max: float


def integral_operator_norm(p, fs: FrequencySet) -> OperatorNormResult:
    """Largest-frequency-probability rule for the kernel integral operator
    under the uniform input distribution: returns (p_max / 2, p_max).

    Requires an integer frequency lattice; the trigonometric features are
    then eigenfunctions of the operator.
    """
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "operator norm rule requires an integer frequency lattice"
        )
    p = np.asarray(p, dtype=float)
    if p.size != fs.size:
        raise ValueError("probability vector length does not match the canonical half")
    p_max = float(np.max(p))
    return OperatorNormResult(p_max / 2.0, p_max)


def rkhs_norm(f: TrigPolynomial, w: WeightVector) -> float:
    """RKHS norm of ``f`` w.r.t. the re-weighted kernel: the 2-norm of the
    unique hyperplane v with f = <v, phi_w(.)>.

    Defined only for integer frequency lattices (hyperplane uniqueness) and
    for functions whose support carries strictly positive weight.  At each
    of f's rows the entries of v are v_0 = c_0 ||w|| / w_0 and
    (v_cos, v_sin) = (2 Re c, -2 Im c) ||w|| / w_i; they are summed in row
    order, so only f's own terms are read.
    """
    fs = f.freq_set
    if fs is None:
        raise ValueError("rkhs_norm needs a lattice-attached polynomial")
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "RKHS norm is only computed for integer frequency lattices"
        )
    _check_lengths(fs, w)
    order = np.argsort(f.rows)
    rows = f.rows[order]
    # (2 Re c, 2 Im c) per row, the cosine entry and the sine entry up to a
    # sign that squaring drops; the zero frequency has no mirror partner,
    # hence no factor 2 (scaling by 2 is exact, so every bit is kept)
    coef = f.c[order].view(np.float64).reshape(-1, 2) * 2.0
    if rows.size and rows[0] == 0:
        coef[0, 0] *= 0.5
    big = np.abs(coef) > SUPPORT_TOL
    support = big[:, 0] | big[:, 1]
    if np.count_nonzero(support) < rows.size:
        rows, coef = rows[support], coef[support]
    wi = w.weights[rows]
    if np.count_nonzero(wi) < wi.size:
        i = int(rows[np.argmax(wi == 0.0)])
        where = "the zero frequency" if i == 0 else f"frequency {tuple(fs.half[i].tolist())}"
        raise ValueError(
            f"function has weight-zero support at {where}; "
            "it lies outside the kernel's function set"
        )
    parts = coef * w.norm2
    parts /= wi[:, None]
    parts *= parts
    return math.sqrt(float((parts[:, 0] + parts[:, 1]).sum()))


def fhat_l2_sq(f: TrigPolynomial) -> float:
    """Squared 2-norm of the full coefficient vector over the mirror lattice."""
    return float(np.sum(_mirror_weight(f) * np.abs(f.c) ** 2))


def coeff_sup_bound(f: TrigPolynomial) -> float:
    """|c_0| + 2 sum |c_w|: a rigorous sup-norm bound for the polynomial."""
    return float(np.sum(_mirror_weight(f) * np.abs(f.c)))


def _mirror_weight(f: TrigPolynomial) -> np.ndarray:
    """Terms per stored coefficient over the full lattice: 1 at the zero
    frequency, 2 (the coefficient and its mirror) elsewhere."""
    return np.where(f._zero_mask(), 1.0, 2.0)


def _uniform_char(t: np.ndarray) -> np.ndarray:
    """kappa(t) = E[e^{i t x}] for x uniform on [0, 2pi), that is
    (e^{2 pi i t} - 1)/(2 pi i t) = e^{i pi t} sinc(t): 1 at t = 0, and
    exactly 0 within ``_INT_TOL`` of every other integer."""
    k = np.exp(1j * np.pi * t) * np.sinc(t)
    nearest = np.round(t)
    k[(np.abs(t - nearest) <= _INT_TOL) & (nearest != 0)] = 0.0
    return k


def mean_square(f: TrigPolynomial) -> float:
    """Exact E|f(x)|^2 for x uniform on [0, 2pi)^d.

    When every frequency is an integer vector the monomials are orthonormal
    and this is ``fhat_l2_sq(f)``.  Otherwise it is Re(c^H G c) over the
    mirror-expanded terms (frequency omega_a, coefficient c_a), with
    G[a, b] = E[e^{i (omega_b - omega_a) . x}] = prod_j kappa(omega_b,j - omega_a,j),
    gathered from one kappa table per dimension over that dimension's
    distinct values and formed ``_GRAM_BLOCK`` rows at a time.
    """
    if is_integer_valued(f.freqs):
        return fhat_l2_sq(f)
    nonzero = ~f._zero_mask()
    freqs = np.concatenate([f.freqs, -f.freqs[nonzero]])
    c = np.concatenate([f.c, np.conj(f.c[nonzero])])
    tables, codes = [], []
    for column in freqs.T:
        values, code = np.unique(column, return_inverse=True)
        tables.append(_uniform_char(values[None, :] - values[:, None]))
        codes.append(code.ravel())
    total = 0.0
    for start in range(0, c.size, _GRAM_BLOCK):
        rows = slice(start, start + _GRAM_BLOCK)
        G = tables[0][codes[0][rows, None], codes[0]]
        for table, code in zip(tables[1:], codes[1:]):
            G *= table[code[rows, None], code]
        total += float(np.real(np.conj(c[rows]) @ (G @ c)))
    return total


def l2_norm_sq(f: TrigPolynomial) -> float:
    """Squared L^2 norm over [0, 2pi)^d with Lebesgue measure:
    (2 pi)^d * ``mean_square(f)``."""
    return (2.0 * math.pi) ** f.d * mean_square(f)
