"""Closed-form ridge solvers: explicit-feature, kernel, and random-feature.

All three minimize the same 2-norm-regularized empirical quadratic risk and
use the ``lambda * n`` convention inside the regularized system, so a given
lambda means the same thing across solvers and feature counts (the 1/sqrt(M)
normalization lives in the random feature matrix).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .freqcore import EncodingStrategy, FrequencySet, build_frequency_set, is_integer_valued
from .kernelmap import (
    RealFourierForm,
    TrigPolynomial,
    WeightVector,
    distribution_of,
    feature_matrix,
    fhat_l2_sq,
    from_real_form,
    kernel_matrix,
    reweighted_hyperplane,
)

RESIDUAL_RTOL = 1e-8
_JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)


@dataclass
class Dataset:
    """Training sample: inputs in [0, 2pi)^d, bounded real targets."""

    X: np.ndarray
    Y: np.ndarray
    b_bound: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.size or X.shape[0] < 1:
            raise ValueError("X and Y must have matching, nonzero row counts")
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

    def to_csv(self, path: str):
        header = ",".join([f"x_{j+1}" for j in range(self.d)] + ["y"])
        lines = [header]
        for i in range(self.n):
            cells = [repr(float(v)) for v in self.X[i]] + [repr(float(self.Y[i]))]
            lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str, b_bound: float | None = None) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise ConfigError(f"empty dataset file {path}")
        header = lines[0].split(",")
        if header[-1] != "y" or any(not h.startswith("x_") for h in header[:-1]):
            raise ConfigError("dataset header must be x_1,...,x_d,y")
        rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
        arr = np.asarray(rows, dtype=float)
        X, Y = arr[:, :-1], arr[:, -1]
        if b_bound is None:
            b_bound = float(np.max(np.abs(Y))) if Y.size else 0.0
        return cls(X, Y, b_bound, meta={"source": path})


def holdout_split(data: Dataset, seed: int, test_frac: float = 0.2):
    """Seeded 80/20 split for file-sourced data with no known target."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(data.n)
    n_test = max(1, int(round(test_frac * data.n)))
    test, train = perm[:n_test], perm[n_test:]
    if train.size == 0:
        raise ValueError("dataset too small to split")
    mk = lambda idx: Dataset(data.X[idx], data.Y[idx], data.b_bound, dict(data.meta))
    return mk(train), mk(test)


def _solve_spd(A: np.ndarray, B: np.ndarray, allow_jitter: bool) -> np.ndarray:
    """Cholesky solve with trace-scaled jitter escalation.

    With jitter disallowed (the lambda = 0 path) the factor must also be
    numerically nonsingular: LAPACK can produce a tiny positive pivot where
    the exact pivot is zero, so the pivot ratio is checked explicitly.
    """
    try:
        factor = scipy.linalg.cho_factor(A, lower=True)
        if not allow_jitter:
            pivots = np.abs(np.diag(factor[0]))
            if float(np.min(pivots)) <= 1e-7 * float(np.max(pivots)):
                raise np.linalg.LinAlgError(
                    "normal equations are singular at lambda = 0"
                )
        return scipy.linalg.cho_solve(factor, B)
    except scipy.linalg.LinAlgError:
        if not allow_jitter:
            raise np.linalg.LinAlgError(
                "normal equations are singular at lambda = 0"
            ) from None
    base = float(np.trace(A)) / A.shape[0]
    if base <= 0:
        base = 1.0
    for factor in _JITTER_LADDER:
        try:
            Aj = A + (factor * base) * np.eye(A.shape[0])
            return scipy.linalg.cho_solve(scipy.linalg.cho_factor(Aj, lower=True), B)
        except scipy.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        f"factorization failed after {len(_JITTER_LADDER)} jitter escalations"
    )


def linear_ridge_fit(F: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge weights (F^T F + lambda n I)^{-1} F^T Y.

    Solved in the primal for D <= n, and through the dual Gram system for
    D > n (identical solution by the push-through identity).  The returned
    weights are residual-checked against the normal equations.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Y = np.asarray(Y, dtype=float).ravel()
    n, D = F.shape
    if Y.size != n:
        raise ValueError("feature matrix and targets disagree on n")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(Y))):
        raise ValueError("non-finite inputs to ridge solve")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    FtY = F.T @ Y
    if lam == 0 or D <= n:
        A = F.T @ F + lam * n * np.eye(D)
        w = _solve_spd(A, FtY, allow_jitter=lam > 0)
    else:
        G = F @ F.T + lam * n * np.eye(n)
        w = F.T @ _solve_spd(G, Y, allow_jitter=True)
    resid = F.T @ (F @ w) + lam * n * w - FtY
    bound = RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(FtY), initial=0.0)))
    if float(np.max(np.abs(resid), initial=0.0)) > bound:
        raise np.linalg.LinAlgError(
            f"ridge solution failed the residual check ({np.max(np.abs(resid)):.3e})"
        )
    return w


@dataclass
class RffFeatureSet:
    """Sampled random features: canonical frequencies plus uniform phases."""

    frequencies: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.frequencies = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        self.phases = np.asarray(self.phases, dtype=float).ravel()
        if self.frequencies.shape[0] != self.phases.size:
            raise ValueError("frequencies and phases disagree on M")
        if np.any(self.phases < 0) or np.any(self.phases >= 2 * np.pi):
            raise ValueError("phases must lie in [0, 2pi)")

    @property
    def M(self) -> int:
        return self.phases.size

    def raw_features(self, X) -> np.ndarray:
        """Unnormalized features sqrt(2) cos(<w_i, x> + g_i), shape (n, M)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return math.sqrt(2.0) * np.cos(X @ self.frequencies.T + self.phases)

    def design_matrix(self, X) -> np.ndarray:
        """Monte-Carlo-normalized design matrix psi(x, nu_i)/sqrt(M)."""
        return self.raw_features(X) / math.sqrt(self.M)


class _Model:
    variant: str = ""
    lam: float = 0.0

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass
class ExplicitLinearModel(_Model):
    """Hyperplane over the re-weighted explicit feature map."""

    encoding: EncodingStrategy
    weights: WeightVector
    v: np.ndarray
    lam: float
    variant: str = "explicit"
    _fs: FrequencySet | None = field(default=None, repr=False)

    @property
    def fs(self) -> FrequencySet:
        if self._fs is None:
            self._fs = build_frequency_set(self.encoding)
        return self._fs

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
class KrrModel(_Model):
    """Dual-coefficient kernel ridge model for the re-weighted kernel."""

    encoding: EncodingStrategy
    weights: WeightVector
    X_train: np.ndarray
    alpha: np.ndarray
    lam: float
    variant: str = "krr"
    _fs: FrequencySet | None = field(default=None, repr=False)

    @property
    def fs(self) -> FrequencySet:
        if self._fs is None:
            self._fs = build_frequency_set(self.encoding)
        return self._fs

    def predict(self, X) -> np.ndarray:
        return kernel_matrix(X, self.X_train, self.fs, self.weights) @ self.alpha

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "lambda": float(self.lam),
            "encoding": self.encoding.to_json(),
            "weights": [float(x) for x in self.weights.weights],
            "X": [[float(v) for v in row] for row in self.X_train],
            "alpha": [float(x) for x in self.alpha],
        }


@dataclass
class RffModel(_Model):
    """Linear model over a sampled random-feature set."""

    feature_set: RffFeatureSet
    coef: np.ndarray
    lam: float
    variant: str = "rff"

    def predict(self, X) -> np.ndarray:
        return self.feature_set.design_matrix(X) @ self.coef

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "lambda": float(self.lam),
            "frequencies": [[float(v) for v in row] for row in self.feature_set.frequencies],
            "phases": [float(v) for v in self.feature_set.phases],
            "coef": [float(v) for v in self.coef],
        }


def model_from_json(doc: dict) -> _Model:
    variant = doc.get("variant")
    lam = float(doc["lambda"])
    if variant == "explicit":
        return ExplicitLinearModel(
            EncodingStrategy.from_json(doc["encoding"]),
            WeightVector(np.asarray(doc["weights"], dtype=float)),
            np.asarray(doc["v"], dtype=float),
            lam,
        )
    if variant == "krr":
        return KrrModel(
            EncodingStrategy.from_json(doc["encoding"]),
            WeightVector(np.asarray(doc["weights"], dtype=float)),
            np.asarray(doc["X"], dtype=float),
            np.asarray(doc["alpha"], dtype=float),
            lam,
        )
    if variant == "rff":
        return RffModel(
            RffFeatureSet(
                np.asarray(doc["frequencies"], dtype=float),
                np.asarray(doc["phases"], dtype=float),
            ),
            np.asarray(doc["coef"], dtype=float),
            lam,
        )
    raise ConfigError(f"unknown model variant '{variant}'")


def load_model(path: str) -> _Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))


def explicit_ridge_fit(
    data: Dataset, enc: EncodingStrategy, fs: FrequencySet, w: WeightVector, lam: float
) -> ExplicitLinearModel:
    """Ridge regression over the materialized re-weighted feature map."""
    F = feature_matrix(data.X, fs, w)
    v = linear_ridge_fit(F, data.Y, lam)
    return ExplicitLinearModel(enc, w, v, lam, _fs=fs)


def kernel_ridge_fit(
    data: Dataset, enc: EncodingStrategy, fs: FrequencySet, w: WeightVector, lam: float
) -> KrrModel:
    """Kernel ridge regression: alpha = (K + n lambda I)^{-1} Y."""
    if lam <= 0:
        raise ValueError("kernel ridge regression needs lambda > 0")
    K = kernel_matrix(data.X, data.X, fs, w)
    alpha = _solve_spd(K + data.n * lam * np.eye(data.n), data.Y, allow_jitter=True)
    return KrrModel(enc, w, data.X, alpha, lam, _fs=fs)


def rff_fit(data: Dataset, dist, M: int, lam, rng) -> RffModel:
    """Random-feature ridge regression.

    Samples M frequencies from ``dist`` and M phases uniformly from
    [0, 2pi), builds the 1/sqrt(M)-normalized design matrix, and solves the
    ridge system.  ``lam="auto"`` selects 1/sqrt(n).  Deterministic given the
    rng.
    """
    from .freqsample import as_generator

    if M < 1:
        raise ValueError("M must be >= 1")
    if lam == "auto":
        lam = 1.0 / math.sqrt(data.n)
    lam = float(lam)
    gen = as_generator(rng)
    freqs = dist.sample(gen, M)
    phases = gen.uniform(0.0, 2.0 * np.pi, size=M)
    fset = RffFeatureSet(freqs, phases)
    coef = linear_ridge_fit(fset.design_matrix(data.X), data.Y, lam)
    return RffModel(fset, coef, lam)


def rff_kernel_estimate(fset: RffFeatureSet, x, xp) -> float:
    """Monte-Carlo kernel estimate <phi_M(x), phi_M(x')>."""
    fx = fset.design_matrix(np.atleast_2d(np.asarray(x, dtype=float)))
    fy = fset.design_matrix(np.atleast_2d(np.asarray(xp, dtype=float)))
    return float((fx @ fy.T)[0, 0])


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
    frequencies (its lattice for explicit and KRR models)."""
    if isinstance(model, RffModel):
        return rff_model_spectrum(model)
    fs = model.fs
    if isinstance(model, KrrModel):
        # K(x, x_j) = sum_w p(w) cos<w, x - x_j>: the pair at +-w carries
        # p(w)/2 sum_j alpha_j e^{-i<w, x_j>}, the constant p(0) sum_j alpha_j
        p = distribution_of(model.weights)
        c = 0.5 * p * (model.alpha @ np.exp(-1j * (model.X_train @ fs.half.T)))
        c[0] = p[0] * float(np.sum(model.alpha))
        keys = [tuple(row) for row in fs.half]
        return TrigPolynomial(fs, {k: v for k, v in zip(keys, c) if v != 0}, fs.d)
    u = reweighted_hyperplane(model.v, fs, model.weights) / math.sqrt(fs.size)
    return from_real_form(RealFourierForm(fs, float(u[0]), u[1::2], u[2::2]))


def true_risk_estimate(
    model: _Model,
    target: TrigPolynomial,
    noise_var: float = 0.0,
    mc_points: int = 100_000,
    rng=None,
) -> RiskEstimate:
    """True quadratic risk under uniform inputs:
    ||model - target||^2_{L2(P_X)} + sigma^2.

    Exact by Parseval, sum |fhat - ghat|^2 over the mirror lattice, when
    every frequency of the target and of the model is an integer vector (the
    trigonometric monomials are then orthonormal under uniform inputs).
    Otherwise Monte Carlo over ``mc_points`` uniform inputs, with its
    standard error.
    """
    g = model_spectrum(model)
    if is_integer_valued(list(target.coeffs) + list(g.coeffs)):
        return RiskEstimate(float(fhat_l2_sq(target - g)) + noise_var, 0.0, "exact")
    d = target.d
    gen = rng if isinstance(rng, np.random.Generator) else np.random.Generator(
        np.random.Philox(np.random.SeedSequence(0 if rng is None else int(rng)))
    )
    pts = gen.uniform(0.0, 2.0 * np.pi, size=(mc_points, d))
    sq = (model.predict(pts) - target.evaluate(pts)) ** 2
    stderr = float(np.std(sq, ddof=1) / math.sqrt(mc_points))
    return RiskEstimate(float(np.mean(sq)) + noise_var, stderr, "monte-carlo")


def rff_model_spectrum(model: RffModel, fs: FrequencySet | None = None) -> TrigPolynomial:
    """Exact Fourier coefficients of a fitted random-feature model.

    Each feature beta_i sqrt(2) cos(<w_i,x> + g_i)/sqrt(M) contributes
    beta_i e^{i g_i} / (sqrt(2) sqrt(M)) at +w_i and its conjugate at -w_i.
    Coefficients are keyed in order of each frequency's first draw.
    """
    fset = model.feature_set
    freqs, first, inverse = np.unique(
        fset.frequencies, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    scale = 1.0 / (math.sqrt(2.0) * math.sqrt(fset.M))
    amp = model.coef * scale * np.exp(1j * fset.phases)
    # the zero frequency is its own mirror: both halves land on one real term
    amp = np.where(~np.any(freqs, axis=1)[inverse], 2.0 * amp.real, amp)
    coeffs = np.zeros(freqs.shape[0], dtype=complex)
    np.add.at(coeffs, inverse, amp)
    acc = {tuple(freqs[i]): coeffs[i] for i in np.argsort(first) if coeffs[i] != 0}
    return TrigPolynomial.from_half_coeffs(fs, acc) if acc else TrigPolynomial(fs, {}, freqs.shape[1])
