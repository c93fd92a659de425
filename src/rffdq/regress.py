"""Closed-form ridge fits: explicit-feature, kernel, and random-feature.

All three solve one 2-norm-regularized least-squares problem in
``linear_ridge_fit`` (kernel ridge with K_w is ridge on phi_w), with the
``lambda * n`` convention inside the regularized system, so a given lambda
means the same thing across models and feature counts (the 1/sqrt(M)
normalization lives in the random feature matrix).

A fitted model's true risk under uniform inputs is computed from its exact
spectrum (``model_spectrum``), never from sample points, on integer and
non-integer lattices alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .freqcore import EncodingStrategy, FrequencySet, build_frequency_set
from .kernelmap import (
    RealFourierForm,
    TrigPolynomial,
    WeightVector,
    feature_matrix,
    from_real_form,
    mean_square,
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
        """Read an ``x_1,...,x_d,y`` file.  A cell that is not a finite
        number, or a row with the wrong column count, is a ``ConfigError``
        naming its line."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
        if not lines:
            raise ConfigError(f"empty dataset file {path}")
        header = lines[0][1].split(",")
        if header[-1] != "y" or any(not h.startswith("x_") for h in header[:-1]):
            raise ConfigError("dataset header must be x_1,...,x_d,y")
        rows = []
        for lineno, line in lines[1:]:
            try:
                row = [float(c) for c in line.split(",")]
            except ValueError:
                raise ConfigError(f"{path}, line {lineno}: not a number in {line!r}") from None
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}, line {lineno}: {len(row)} columns, expected {len(header)}"
                )
            if not all(math.isfinite(v) for v in row):
                raise ConfigError(f"{path}, line {lineno}: non-finite value in {line!r}")
            rows.append(row)
        if not rows:
            raise ConfigError(f"no data rows in {path}")
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


@dataclass(kw_only=True)
class KrrModel(ExplicitLinearModel):
    """Kernel ridge model for K_w: dual coefficients alpha on the training
    inputs, predicting through its hyperplane v = F(X_train)^T alpha over
    phi_w, since K_w(x, x') = <phi_w(x), phi_w(x')>."""

    X_train: np.ndarray
    alpha: np.ndarray
    variant: str = "krr"

    def to_json(self) -> dict:
        doc = super().to_json()
        del doc["v"]  # model_from_json rebuilds it from X and alpha
        doc["X"] = [[float(v) for v in row] for row in self.X_train]
        doc["alpha"] = [float(x) for x in self.alpha]
        return doc


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
    if variant in ("explicit", "krr"):
        enc = EncodingStrategy.from_json(doc["encoding"])
        w = WeightVector(np.asarray(doc["weights"], dtype=float))
        if variant == "explicit":
            return ExplicitLinearModel(enc, w, np.asarray(doc["v"], dtype=float), lam)
        fs = build_frequency_set(enc)
        X = np.asarray(doc["X"], dtype=float)
        alpha = np.asarray(doc["alpha"], dtype=float)
        v = feature_matrix(X, fs, w).T @ alpha
        return KrrModel(enc, w, v, lam, _fs=fs, X_train=X, alpha=alpha)
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
    """Kernel ridge regression with K_w, solved as ridge on phi_w.

    K_w(X, X) = F F^T for F = feature_matrix(X, fs, w), so the kernel ridge
    predictor is the ridge hyperplane v over phi_w, and ``linear_ridge_fit``
    takes the primal or the dual by shape.  The dual coefficients
    alpha = (K + n lambda I)^{-1} Y follow exactly as (Y - F v)/(n lambda),
    from the normal equations n lambda v = F^T (Y - F v).  The model keeps
    F^T alpha as its hyperplane, the one its JSON document rebuilds.
    """
    if lam <= 0:
        raise ValueError("kernel ridge regression needs lambda > 0")
    F = feature_matrix(data.X, fs, w)
    alpha = (data.Y - F @ linear_ridge_fit(F, data.Y, lam)) / (data.n * lam)
    return KrrModel(enc, w, F.T @ alpha, lam, _fs=fs, X_train=data.X, alpha=alpha)


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
    frequencies: the lattice of a hyperplane over phi_w (explicit and KRR
    models), the drawn frequencies of a random-feature model."""
    if isinstance(model, RffModel):
        return rff_model_spectrum(model)
    fs = model.fs
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
    order = np.argsort(first)
    return TrigPolynomial.from_half_arrays(fs, freqs[order], coeffs[order])
