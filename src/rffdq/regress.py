"""Closed-form ridge fits: explicit-feature, kernel, and random-feature.

All three solve one 2-norm-regularized least-squares problem (kernel ridge
with K_w is ridge on phi_w), with the ``lambda * n`` convention inside the
regularized system, so a given lambda means the same thing across models and
feature counts (the 1/sqrt(M) normalization lives in the random feature
matrix).  ``linear_ridge_fit`` solves it on a design, by the primal D x D
system when D <= n or lambda = 0 and by the dual n x n Gram system when
D > n.  ``gram_ridge`` solves it from the Gram of a wave basis B, on a
design F = B C that is never formed: random features (``RffFeatureSet.ridge``)
where lambda > 0 and 2U < min(n, M), with C their phase rows, and the KRR
oracle on integer lattices, with C phi_w's feature rows.  Other fits form
their design and call ``linear_ridge_fit``.  Every solution is
residual-checked against its design's normal equations, read through B's
Gram and C where the design is not formed.  The KRR oracle's model is its
ridge hyperplane over phi_w, of the one model class of explicit fits.

On integer frequencies a ``fourier.FourierTable`` of the data, one per
dataset (``Dataset.table``), gives B^T B and B^T Y from the points'
empirical Fourier transform, where its cost rule says reading it beats
forming B.  The factored solve then does no work of size n beyond the
table's one box per reach, and the oracle forms no feature matrix: on a
warm table it does no work of size n.

A fitted model's true risk under uniform inputs is computed from its exact
spectrum (``model_spectrum``), never from sample points, on integer and
non-integer lattices alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, read, read_field, show
from .freqcore import EncodingStrategy, FrequencySet, build_frequency_set
from .kernelmap import (
    PlaneWaves,
    TrigPolynomial,
    WeightVector,
    column_ranks,
    feature_matrix,
    feature_rows,
    group_rows,
    hyperplane_spectrum,
    mean_square,
)

if TYPE_CHECKING:
    from .fourier import FourierTable

RESIDUAL_RTOL = 1e-8
_JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)


@dataclass
class Dataset:
    """Training sample: inputs in [0, 2pi)^d, bounded real targets."""

    X: np.ndarray
    Y: np.ndarray
    b_bound: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.size or X.shape[0] < 1:
            raise ValueError("X and Y must have matching, nonzero row counts")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        if np.any(X < 0) or np.any(X >= 2 * np.pi):
            raise ValueError("inputs must lie in [0, 2pi)")
        if not np.all(np.isfinite(Y)):
            raise ValueError("targets must be finite")
        if np.any(np.abs(Y) > self.b_bound + 1e-12):
            raise ValueError("targets exceed the declared bound b")
        self.X, self.Y = X, Y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def table(self) -> FourierTable:
        """The ``fourier.FourierTable`` of these points and labels, formed on
        first use: every fit on the dataset reads its boxes."""
        from .fourier import FourierTable

        return FourierTable(self.X, self.Y)

    @classmethod
    def from_csv(cls, path: str, b_bound: float | None = None) -> "Dataset":
        """Read an ``x_1,...,x_d,y`` file.  A cell that is not a finite
        number, or a row with the wrong column count, is a ``ConfigError``
        naming its line."""
        header, arr = _read_number_rows(path)
        if header is None and arr.size == 0:
            raise ConfigError(f"empty dataset file {path}")
        if header is None or header[-1] != "y" or any(not h.startswith("x_") for h in header[:-1]):
            raise ConfigError("dataset header must be x_1,...,x_d,y")
        if arr.shape[0] == 0:
            raise ConfigError(f"no data rows in {path}")
        X, Y = arr[:, :-1], arr[:, -1]
        if b_bound is None:
            b_bound = float(np.max(np.abs(Y)))
        return cls(X, Y, b_bound)


def _read_number_rows(path: str, width: int | None = None) -> tuple[list[str] | None, np.ndarray]:
    """Comma-separated rows of finite numbers from a text file, blank lines
    skipped.  A first line that is not all numbers is a header, returned as
    its cells (``None`` when there is none).  Every row has ``width`` cells:
    by default the header's count, else the first row's.  A cell that is not
    a number, a row of another width or a non-finite value is a
    ``ConfigError`` naming its line."""
    header, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(c) for c in line.split(",")]
            except ValueError:
                if header is not None or rows:
                    raise ConfigError(f"{path}, line {lineno}: not a number in {line!r}") from None
                header = line.split(",")
                width = width or len(header)
                continue
            width = width or len(row)
            if len(row) != width:
                raise ConfigError(f"{path}, line {lineno}: {len(row)} columns, expected {width}")
            if not all(math.isfinite(v) for v in row):
                raise ConfigError(f"{path}, line {lineno}: non-finite value in {line!r}")
            rows.append(row)
    return header, np.asarray(rows, dtype=float).reshape(len(rows), width or 0)


def _resolve_lambda(lam, n: int) -> float:
    """The ridge lambda for n samples: ``"auto"`` is 1/sqrt(n), anything
    else is read as a float."""
    return 1.0 / math.sqrt(n) if lam == "auto" else float(lam)


def holdout_split(data: Dataset, seed: int):
    """Seeded 80/20 split for file-sourced data with no known target."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(data.n)
    n_test = max(1, int(round(0.2 * data.n)))
    test, train = perm[:n_test], perm[n_test:]
    if train.size == 0:
        raise ValueError("dataset too small to split")
    mk = lambda idx: Dataset(data.X[idx], data.Y[idx], data.b_bound)
    return mk(train), mk(test)


def _solve_spd(A: np.ndarray, B: np.ndarray, allow_jitter: bool) -> np.ndarray:
    """Solve A x = B for a positive semi-definite A, with numpy alone.

    With jitter allowed (lambda > 0), a singular LU factorization escalates
    through trace-scaled jitter.  With jitter disallowed (lambda = 0) the
    Cholesky factor must exist and, since LAPACK can produce a tiny positive
    pivot where the exact pivot is zero, pass the pivot-ratio check.
    """
    if not allow_jitter:
        try:
            pivots = np.abs(np.diag(np.linalg.cholesky(A)))
        except np.linalg.LinAlgError:
            pivots = None
        if pivots is None or float(np.min(pivots)) <= 1e-7 * float(np.max(pivots)):
            raise np.linalg.LinAlgError("normal equations are singular at lambda = 0")
        return np.linalg.solve(A, B)
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        pass
    base = float(np.trace(A)) / A.shape[0]
    if base <= 0:
        base = 1.0
    for factor in _JITTER_LADDER:
        try:
            return np.linalg.solve(A + (factor * base) * np.eye(A.shape[0]), B)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"factorization failed after {len(_JITTER_LADDER)} jitter escalations"
    )


def _ridge_inputs(rows: np.ndarray, Y, lam: float) -> np.ndarray:
    """``Y`` as a float vector, after checking it against ``rows`` (the
    design, or the points it is formed at): one finite target per finite
    row, and a finite lambda >= 0.  Anything else is a ValueError."""
    Y = np.asarray(Y, dtype=float).ravel()
    if Y.size != rows.shape[0]:
        raise ValueError("feature matrix and targets disagree on n")
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(Y))):
        raise ValueError("non-finite inputs to ridge solve")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    return Y


def _check_normal_equations(FtFw: np.ndarray, w: np.ndarray, FtY: np.ndarray, lam_n: float):
    """Raise LinAlgError unless w solves F^T F w + n lambda w = F^T Y to
    ``RESIDUAL_RTOL`` (1 + max |F^T Y|), given F^T F w and F^T Y."""
    resid = FtFw + lam_n * w - FtY
    bound = RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(FtY), initial=0.0)))
    worst = float(np.max(np.abs(resid), initial=0.0))
    # NaN compares false both ways: only a residual within bound passes
    if not worst <= bound:
        raise np.linalg.LinAlgError(f"ridge solution failed the residual check ({worst:.3e})")


def linear_ridge_fit(F: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge weights (F^T F + lambda n I)^{-1} F^T Y.

    Two routes give the same solution (by the push-through identity):
    - primal, for D <= n or lambda = 0: the D x D system;
    - dual, for D > n: the n x n Gram system.
    The returned weights are residual-checked against the normal equations
    of ``F``.  An ``RffDesign`` (as ``design_matrix`` returns it) on which
    ``RffFeatureSet.factors`` holds is solved by its feature set's
    ``factored_ridge`` on a fresh ``FourierTable`` of its points instead,
    the route ``RffFeatureSet.ridge`` takes.
    """
    source, X = (F.feature_set, F.points) if isinstance(F, RffDesign) else (None, None)
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Y = _ridge_inputs(F, Y, lam)
    n, D = F.shape
    if source is not None and source.factors(n, lam):
        from .fourier import FourierTable

        return source.factored_ridge(FourierTable(X, Y), lam)
    FtY = F.T @ Y
    # n lambda goes onto the diagonal in place: no identity, no second sum
    if lam == 0 or D <= n:
        A = F.T @ F
        A.flat[:: D + 1] += lam * n
        w = _solve_spd(A, FtY, allow_jitter=lam > 0)
    else:
        G = F @ F.T
        G.flat[:: n + 1] += lam * n
        w = F.T @ _solve_spd(G, Y, allow_jitter=True)
    _check_normal_equations(F.T @ (F @ w), w, FtY, lam * n)
    return w


# the angle-sum design gathers its cosine and sine terms in row blocks of
# about this many entries, so no second n x M buffer is held
_BLOCK_ENTRIES = 1 << 16


def _angle_sum(out: np.ndarray, phasors: np.ndarray, inverse: np.ndarray, a, b):
    """out[k, i] = a_i cos t - b_i sin t for phasors[k, inverse_i] = e^{i t},
    read from the real and imaginary parts in row blocks of about
    ``_BLOCK_ENTRIES`` entries; every temporary is gone when it returns."""
    step = max(1, _BLOCK_ENTRIES // out.shape[1])
    for r in range(0, out.shape[0], step):
        block = out[r : r + step]
        # mode="clip" skips take's buffered copy; the indices are in range
        np.take(phasors.real[r : r + step], inverse, axis=1, out=block, mode="clip")
        block *= a
        part = np.take(phasors.imag[r : r + step], inverse, axis=1, mode="clip")
        part *= b
        block -= part


class RffDesign(np.ndarray):
    """A random-feature design matrix that records the feature set
    (``feature_set``) and the points (``points``) it was formed from, so
    that ``linear_ridge_fit`` can solve in the span of the distinct
    frequencies.  Views, copies and transposes forget the record,
    arithmetic results and reductions are plain arrays and scalars, and
    ``np.asarray`` returns a plain array."""

    def __array_finalize__(self, obj):
        self.feature_set = self.points = None

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = arr.view(np.ndarray)
        return arr[()] if return_scalar else arr


@dataclass
class RffFeatureSet:
    """Sampled random features: canonical frequencies plus uniform phases.

    Frequencies are drawn from a finite lattice, so one frequency is usually
    drawn many times.  The draws are grouped once, at construction, by one
    1-d ``np.unique`` over the integer codes of ``kernelmap.group_rows``:
    ``distinct`` holds the U distinct frequencies (in the order of
    ``np.unique(axis=0)``), ``first`` the draw at which each first appears,
    ``inverse`` each draw's row in ``distinct``, and ``waves`` their
    ``PlaneWaves``, built from the same column ranks.  Features are built
    from e^{i <w_u, x>} per distinct frequency by angle addition.
    """

    frequencies: np.ndarray
    phases: np.ndarray
    distinct: np.ndarray = field(init=False, repr=False, compare=False)
    first: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    waves: PlaneWaves = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.frequencies = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        self.phases = np.asarray(self.phases, dtype=float).ravel()
        rows = self.frequencies.shape[0]
        if rows != self.phases.size:
            raise ConfigError.at("phases", f"{rows} numbers, one per row of frequencies", str(self.phases.size))
        if self.phases.size == 0:
            raise ValueError("a feature set needs at least one feature")
        if not np.all(np.isfinite(self.frequencies)):
            raise ValueError("frequencies must be finite")
        # NaN fails both comparisons, so it fails the check
        if not np.all((self.phases >= 0) & (self.phases < 2 * np.pi)):
            raise ConfigError.at("phases", "in [0, 2pi)", show(self.phases.tolist()))
        values, ranks = column_ranks(self.frequencies)
        self.first, self.inverse = group_rows(ranks, [v.size for v in values])
        self.distinct = self.frequencies[self.first]
        self.waves = PlaneWaves(self.distinct, (values, [rank[self.first] for rank in ranks]))

    @property
    def M(self) -> int:
        return self.phases.size

    def per_frequency(self, values: np.ndarray) -> np.ndarray:
        """Sum of a complex per-feature quantity over the features of each
        distinct frequency, in draw order, shape (U,)."""
        U = self.distinct.shape[0]
        re = np.bincount(self.inverse, weights=values.real, minlength=U)
        return re + 1j * np.bincount(self.inverse, weights=values.imag, minlength=U)

    def design_matrix(self, X) -> RffDesign:
        """Monte-Carlo-normalized design matrix psi(x, nu_i)/sqrt(M), as an
        ``RffDesign`` that records this set and ``X``, so that
        ``linear_ridge_fit`` on it takes the route ``ridge`` takes."""
        X = self.waves.points(X)
        # sqrt(2) cos(t_u + g_i)/sqrt(M) = a_i cos t_u - b_i sin t_u
        factor = math.sqrt(2.0) / math.sqrt(self.M)
        a = factor * np.cos(self.phases)
        b = factor * np.sin(self.phases)
        F = np.empty((X.shape[0], self.M))
        for rows, phasors in self.waves.blocks(X):
            _angle_sum(F[rows], phasors, self.inverse, a, b)
        F = F.view(RffDesign)
        F.feature_set, F.points = self, X
        return F

    def factors(self, n: int, lam: float) -> bool:
        """Whether ridge on n points at ``lam`` takes the factored route:
        lambda > 0 and the U distinct frequencies give 2U < min(n, M)."""
        return lam > 0 and 2 * self.distinct.shape[0] < min(n, self.M)

    def ridge(self, data: Dataset, lam: float) -> np.ndarray:
        """Ridge weights (F^T F + n lambda I)^{-1} F^T Y on the design F at
        the points of ``data``: by ``factored_ridge`` on the dataset's table
        where ``factors`` holds, so that F is never formed, and otherwise by
        ``linear_ridge_fit`` on the design."""
        if self.factors(data.n, lam):
            return self.factored_ridge(data.table, lam)
        return linear_ridge_fit(np.asarray(self.design_matrix(data.X)), data.Y, lam)

    def _phase_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The two rows of C per feature: sqrt(2/M) (cos g_i, -sin g_i)."""
        scale = math.sqrt(2.0 / self.M)
        return scale * np.cos(self.phases), -scale * np.sin(self.phases)

    def _wave_basis(self, X: np.ndarray) -> np.ndarray:
        """B (n x 2U): cos <w_u, x> of the distinct frequencies, then
        sin <w_u, x>, so that the design at ``X`` is exactly B C."""
        U = self.distinct.shape[0]
        B = np.empty((X.shape[0], 2 * U))
        for rows, phasors in self.waves.blocks(X):
            B[rows, :U] = phasors.real
            B[rows, U:] = phasors.imag
        return B

    def factored_ridge(self, table: FourierTable, lam: float) -> np.ndarray:
        """Ridge weights on the design at the points of ``table`` (a
        ``FourierTable``) for its labels and lambda > 0, by ``gram_ridge``
        on the wave basis B of the U distinct frequencies and C their phase
        rows sqrt(2/M) (cos g_i, -sin g_i): the design is not formed.
        B^T B and B^T Y are read from the table where its cost rule takes
        the distinct frequencies, and come from B itself otherwise."""
        X = self.waves.points(table.X)
        Y = _ridge_inputs(X, table.Y, lam)
        products = table.gram(self.distinct)
        if products is None:
            B = self._wave_basis(X)
            products = B.T @ B, B.T @ Y
        return gram_ridge(*products, self.inverse, *self._phase_rows(), lam * X.shape[0])


def _feature_sums(row: np.ndarray, a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """C^T p for ``gram_ridge``'s C: each feature's two rows of p, gathered."""
    U = p.size // 2
    return a * p[:U][row] + b * p[U:][row]


def _normal_products(G: np.ndarray, BtY: np.ndarray, row, a, b, w: np.ndarray):
    """F^T F w and F^T Y for ``gram_ridge``'s F = B C, read through C:
    C w is two bincounts over the U frequencies."""
    U = G.shape[0] // 2
    Cw = np.concatenate([np.bincount(row, a * w, U), np.bincount(row, b * w, U)])
    return _feature_sums(row, a, b, G @ Cw), _feature_sums(row, a, b, BtY)


def gram_ridge(G: np.ndarray, BtY: np.ndarray, row, a, b, lam_n: float) -> np.ndarray:
    """Ridge weights (F^T F + lam_n I)^{-1} F^T Y on the design F = B C,
    from G = B^T B and B^T Y of its wave basis B = [cos | sin] over U
    frequencies, where column k of F is a_k cos_u + b_k sin_u at
    u = ``row[k]``; F is never formed.

    By push-through, w = C^T z with (lam_n I + G S) z = B^T Y, where
    S = C C^T has one 2 x 2 block per frequency.  That system is solved
    symmetrized: Gram-Schmidt on each frequency's two rows of C gives
    C = L E, with L lower triangular (S = L L^T) and E orthonormal rows, so
    with A = B L and v = L^T z the ridge is (A^T A + lam_n I) v = A^T Y and
    w = E^T v.  Nothing is divided by lam_n, and a singular block of S (a
    frequency with one feature, two phases that nearly coincide, or a zero
    weight of the KRR feature map) gives a zero or small column of A instead
    of a null-space part of z that grows as 1/lam_n.  A^T A = L^T G L is
    formed per 2 x 2 block of frequencies, and the weights are
    residual-checked against F's normal equations read through G and C (not
    L and E).
    """
    U, M = G.shape[0] // 2, row.size
    n1 = np.sqrt(np.bincount(row, a * a, U))
    # a frequency whose cosine row is zero leaves e1 exactly 0, as one
    # drawn once leaves e2 exactly 0 below
    e1 = np.divide(a, n1[row], out=np.zeros(M), where=n1[row] > 0)
    e2, t = b, np.zeros(U)
    # projecting twice keeps e2 orthogonal to e1 when b nearly lies along it
    for _ in range(2):
        s = np.bincount(row, e1 * e2, U)
        e2 = e2 - s[row] * e1
        t += s
    n2 = np.sqrt(np.bincount(row, e2 * e2, U))
    e2 = np.divide(e2, n2[row], out=np.zeros(M), where=n2[row] > 0)
    cc, cs, ss = G[:U, :U], G[:U, U:], G[U:, U:]
    # L = [[diag n1, 0], [diag t, diag n2]]: A's cosine column u is
    # n1_u cos_u + t_u sin_u, and its sine column n2_u sin_u
    H = np.empty_like(G)
    H[:U, :U] = n1[:, None] * (cc * n1 + cs * t) + t[:, None] * (cs.T * n1 + ss * t)
    H[:U, U:] = (n1[:, None] * cs + t[:, None] * ss) * n2
    H[U:, :U] = H[:U, U:].T
    H[U:, U:] = n2[:, None] * ss * n2
    H.flat[:: 2 * U + 1] += lam_n
    v = _solve_spd(H, np.concatenate([n1 * BtY[:U] + t * BtY[U:], n2 * BtY[U:]]), allow_jitter=True)
    w = e1 * v[:U][row] + e2 * v[U:][row]
    FtFw, FtY = _normal_products(G, BtY, row, a, b, w)
    _check_normal_equations(FtFw, w, FtY, lam_n)
    return w


class _Model:
    variant: str = ""
    lam: float = 0.0

    @property
    def d(self) -> int:
        """Input dimension: the width of the model's frequencies."""
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass
class ExplicitLinearModel(_Model):
    """Hyperplane over the re-weighted explicit feature map: an explicit
    ridge fit, or (``variant="krr"``) the kernel ridge oracle for K_w, whose
    predictor is its ridge hyperplane over phi_w."""

    encoding: EncodingStrategy
    weights: WeightVector
    v: np.ndarray
    lam: float
    variant: str = "explicit"
    _fs: FrequencySet | None = field(default=None, repr=False)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        m = self.fs.size
        if len(self.weights) != m:
            raise ConfigError.at("weights", f"{m} numbers long", str(len(self.weights)))
        if self.v.shape != (2 * m - 1,):
            raise ConfigError.at("v", f"{2 * m - 1} numbers long (2 |half| - 1)", f"shape {self.v.shape}")

    @property
    def fs(self) -> FrequencySet:
        if self._fs is None:
            self._fs = build_frequency_set(self.encoding)
        return self._fs

    @property
    def d(self) -> int:
        return self.encoding.d

    def predict(self, X) -> np.ndarray:
        return feature_matrix(X, self.fs, self.weights) @ self.v

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "lambda": float(self.lam),
            "encoding": self.encoding.to_json(),
            "weights": [float(x) for x in self.weights.weights],
            "v": [float(x) for x in self.v],
        }


@dataclass
class RffModel(_Model):
    """Linear model over a sampled random-feature set: one finite weight
    per feature in ``coef`` (checked at construction).  Predictions and the
    spectrum sum the weights per distinct frequency first."""

    feature_set: RffFeatureSet
    coef: np.ndarray
    lam: float
    variant: str = "rff"

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        M = self.feature_set.M
        if coef.shape != (M,):
            raise ConfigError.at("coef", f"{M} numbers long, one per feature", f"shape {coef.shape}")
        if not np.all(np.isfinite(coef)):
            raise ValueError("coef must be finite")
        self.coef = coef

    @property
    def d(self) -> int:
        return self.feature_set.frequencies.shape[1]

    def predict(self, X) -> np.ndarray:
        """sum_i coef_i sqrt(2) cos(<w_i, x> + g_i)/sqrt(M), summed per
        distinct frequency first: Re(z_u e^{i <w_u, x>}) with
        z_u = sqrt(2/M) sum_{i in u} coef_i e^{i g_i}, one complex
        matrix-vector product per block of ``PlaneWaves``."""
        fset = self.feature_set
        z = math.sqrt(2.0 / fset.M) * fset.per_frequency(self.coef * np.exp(1j * fset.phases))
        X = fset.waves.points(X)
        out = np.empty(X.shape[0])
        for rows, phasors in fset.waves.blocks(X):
            out[rows] = (phasors @ z).real
        return out

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "lambda": float(self.lam),
            "frequencies": [[float(v) for v in row] for row in self.feature_set.frequencies],
            "phases": [float(v) for v in self.feature_set.phases],
            "coef": [float(v) for v in self.coef],
        }


def model_from_json(doc: dict) -> _Model:
    """A model from its JSON document.  A malformed field is a
    ``ConfigError`` naming it, and so is an array whose shape does not fit
    the model (checked by the model) or its lattice."""
    doc = read(doc, "object", "model")
    variant = read_field(doc, "variant", "string", choices=("explicit", "krr", "rff"))
    lam = read_field(doc, "lambda", "number", least=0)
    if variant == "rff":
        frequencies = read_field(doc, "frequencies", "number", ndim=2)
        fset = RffFeatureSet(frequencies, read_field(doc, "phases", "number", ndim=1))
        return RffModel(fset, read_field(doc, "coef", "number", ndim=1), lam)
    enc = EncodingStrategy.from_json(read_field(doc, "encoding", "object"))
    fs = build_frequency_set(enc)
    w = WeightVector.from_json(doc, fs.size)
    v = read_field(doc, "v", "number", ndim=1)
    return ExplicitLinearModel(enc, w, v, lam, variant=variant, _fs=fs)


def explicit_ridge_fit(
    data: Dataset, enc: EncodingStrategy, fs: FrequencySet, w: WeightVector, lam: float
) -> ExplicitLinearModel:
    """Ridge regression over the materialized re-weighted feature map."""
    F = feature_matrix(data.X, fs, w)
    v = linear_ridge_fit(F, data.Y, lam)
    return ExplicitLinearModel(enc, w, v, lam, _fs=fs)


def kernel_ridge_fit(
    data: Dataset,
    enc: EncodingStrategy,
    fs: FrequencySet,
    w: WeightVector,
    lam: float,
) -> ExplicitLinearModel:
    """Kernel ridge regression with K_w, solved as ridge on phi_w.

    K_w(X, X) = F F^T for F = feature_matrix(X, fs, w), so the kernel ridge
    predictor is the ridge hyperplane v over phi_w, and the model (variant
    "krr") is that hyperplane: no dual coefficients are formed.

    Where ``_krr_tabled`` holds, v is ``gram_ridge`` on the dataset table's
    Gram with C phi_w's feature rows (``kernelmap.feature_rows``): F is
    never formed, and on a warm table the fit does no work of size n.
    Otherwise v is ``explicit_ridge_fit``'s, on the formed F.
    """
    if lam <= 0:
        raise ValueError("kernel ridge regression needs lambda > 0")
    if _krr_tabled(fs, data.n):
        v = gram_ridge(*data.table.gram(fs.half), *feature_rows(fs, w), lam * data.n)
    else:
        v = explicit_ridge_fit(data, enc, fs, w, lam).v
    return ExplicitLinearModel(enc, w, v, lam, variant="krr", _fs=fs)


def _krr_tabled(fs: FrequencySet, n: int) -> bool:
    """Whether kernel ridge on n points reads its Grams from a Fourier
    table: the primal system is no larger than n (2 |half| - 1 <= n) and
    ``table_reach`` takes the half."""
    from .fourier import table_reach

    return 2 * fs.size - 1 <= n and table_reach(fs.half) is not None


def rff_fit(data: Dataset, dist, M: int, lam, rng) -> RffModel:
    """Random-feature ridge regression.

    Samples M frequencies from ``dist`` and M phases uniformly from
    [0, 2pi), and solves the ridge system on the 1/sqrt(M)-normalized
    design by ``RffFeatureSet.ridge``: in the span of the U distinct
    frequencies, with no n x M design formed, when lambda > 0 and
    2U < min(n, M), where it reads the dataset's ``FourierTable``, and on
    the design otherwise.  ``lam="auto"`` selects 1/sqrt(n).  Deterministic
    given the rng.
    """
    from .freqsample import as_generator

    if M < 1:
        raise ValueError("M must be >= 1")
    lam = _resolve_lambda(lam, data.n)
    gen = as_generator(rng)
    freqs = dist.sample(gen, M)
    phases = gen.uniform(0.0, 2.0 * np.pi, size=M)
    fset = RffFeatureSet(freqs, phases)
    return RffModel(fset, fset.ridge(data, lam), lam)


def empirical_risk(model: _Model, data: Dataset) -> float:
    """Mean squared prediction error on the dataset."""
    resid = model.predict(data.X) - data.Y
    return float(np.mean(resid**2))


class RiskEstimate(NamedTuple):
    value: float
    stderr: float
    method: str


def model_spectrum(model: _Model) -> TrigPolynomial:
    """Exact Fourier coefficients of a fitted model, on the model's own
    frequencies: the lattice of a hyperplane over phi_w (explicit and KRR
    models), the drawn frequencies of a random-feature model."""
    if isinstance(model, RffModel):
        return rff_model_spectrum(model)
    return hyperplane_spectrum(model.v, model.fs, model.weights)


def true_risk_estimate(
    model: _Model,
    target: TrigPolynomial,
    noise_var: float = 0.0,
    mc_points: int = 100_000,
    rng=None,
) -> RiskEstimate:
    """True quadratic risk under uniform inputs:
    ||model - target||^2_{L2(P_X)} + sigma^2, exact on every lattice.

    It is ``mean_square`` of the target minus the model's spectrum: Parseval
    when every frequency is an integer vector, the uniform-measure Gram
    otherwise.  The model is never evaluated at points, so the standard
    error is 0 and the method is "exact".

    ``mc_points`` and ``rng`` are unused.  They stay in the signature only
    because ``perfbench/replay.py`` reads ``mc_points``' default at import
    and passes ``rng=``; they go when that replay is retired.
    """
    return RiskEstimate(mean_square(target - model_spectrum(model)) + noise_var, 0.0, "exact")


def rff_model_spectrum(model: RffModel, fs: FrequencySet | None = None) -> TrigPolynomial:
    """Exact Fourier coefficients of a fitted random-feature model.

    Each feature beta_i sqrt(2) cos(<w_i,x> + g_i)/sqrt(M) contributes
    beta_i e^{i g_i} / (sqrt(2) sqrt(M)) at +w_i and its conjugate at -w_i.
    Coefficients are summed per distinct frequency with the feature set's
    grouping and keyed in order of each frequency's first draw.
    """
    fset = model.feature_set
    scale = 1.0 / (math.sqrt(2.0) * math.sqrt(fset.M))
    coeffs = fset.per_frequency(model.coef * scale * np.exp(1j * fset.phases))
    # the zero frequency is its own mirror: both halves land on one real term
    zero = ~np.any(fset.distinct, axis=1)
    coeffs[zero] = 2.0 * coeffs[zero].real
    order = np.argsort(fset.first)
    return TrigPolynomial.from_half_arrays(fs, fset.distinct[order], coeffs[order])
