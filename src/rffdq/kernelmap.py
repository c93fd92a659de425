"""Re-weighted trigonometric feature maps, kernels, and RKHS norms.

A weight vector w over the canonical half-lattice defines the feature map

    phi_w(x) = (w_0, w_1 cos<w1,x>, w_1 sin<w1,x>, ..., ) / ||w||_2

and the shift-invariant kernel K_w(x,x') = <phi_w(x), phi_w(x')>
= sum_i w_i^2 cos(<omega_i, x-x'>) / ||w||_2^2.  For integer frequency
lattices the trigonometric features are mutually orthogonal in
L^2(uniform), which makes hyperplane representations unique and turns the
RKHS norm into a plain 2-norm of rescaled Fourier coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonIntegerFrequencyError
from .freqcore import FrequencySet, canonical_fold

REALNESS_TOL = 1e-10
SUPPORT_TOL = 1e-12


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
        # scaled by the power of two at the largest weight, so that squaring
        # neither underflows tiny weights nor overflows huge ones; the
        # scaling is exact, so in-range weights get the plain norm bit for bit
        exp = np.frexp(np.max(w))[1] if w.size else 0
        n2 = float(np.ldexp(np.linalg.norm(np.ldexp(w, -exp)), exp))
        if n2 <= 0:
            raise ValueError("weight vector must have positive 2-norm")
        self.weights = w
        self.norm2 = n2

    def __len__(self) -> int:
        return self.weights.size

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.weights > 0))

    @classmethod
    def uniform(cls, size: int) -> "WeightVector":
        return cls(np.ones(size))

    @classmethod
    def from_json(cls, doc: dict) -> "WeightVector":
        return cls(np.asarray(doc["weights"], dtype=float))

    def to_json(self) -> dict:
        return {"weights": [float(v) for v in self.weights]}


def _check_lengths(fs: FrequencySet, w: WeightVector):
    fs.require_materialized()
    if len(w) != fs.size:
        raise ValueError(
            f"weight vector has length {len(w)} but the canonical half has {fs.size} entries"
        )


@dataclass
class TrigPolynomial:
    """Real-valued trigonometric polynomial, stored as complex coefficients
    on the canonical half; the mirror coefficient is the conjugate.

    ``freq_set`` may be ``None`` for standalone polynomials loaded from file
    without an encoding; lattice-dependent operations then refuse to run.
    """

    freq_set: FrequencySet | None
    coeffs: dict[tuple, complex]
    d: int

    @classmethod
    def from_half_coeffs(cls, fs: FrequencySet | None, mapping: dict) -> "TrigPolynomial":
        """Build from ``{canonical omega tuple: c_omega}``.

        The zero-frequency coefficient must be real (within 1e-10); keys must
        be canonical, and on the lattice when ``fs`` is given.
        """
        if fs is not None:
            fs.require_materialized()
            d = fs.d
        else:
            if not mapping:
                raise ValueError("standalone polynomial needs at least a dimension hint")
            d = len(next(iter(mapping)))
        coeffs: dict[tuple, complex] = {}
        for omega, c in mapping.items():
            w = np.asarray(omega, dtype=float)
            if w.shape != (d,):
                raise ValueError(f"frequency {omega} has wrong dimension (expected {d})")
            folded, sign = canonical_fold(w)
            if sign < 0:
                raise ValueError(f"coefficient key {omega} is not canonical")
            if fs is not None:
                key = fs.snap(folded)
            else:
                key = tuple(float(v) for v in folded)
            c = complex(c)
            if all(v == 0.0 for v in key):
                if abs(c.imag) > REALNESS_TOL:
                    raise ValueError(
                        f"zero-frequency coefficient must be real, got imag {c.imag}"
                    )
                c = complex(c.real, 0.0)
            if key in coeffs:
                raise ValueError(f"duplicate coefficient for frequency {key}")
            if c != 0:
                coeffs[key] = c
        return cls(fs, coeffs, d)

    @classmethod
    def from_full_coeffs(cls, fs: FrequencySet | None, mapping: dict) -> "TrigPolynomial":
        """Build from coefficients over the full mirror-symmetric lattice,
        enforcing c_{-w} = conj(c_w) within 1e-10."""
        pairs: dict[tuple, dict[int, complex]] = {}
        for omega, c in mapping.items():
            folded, sign = canonical_fold(np.asarray(omega, dtype=float))
            key = tuple(float(v) for v in folded)
            pairs.setdefault(key, {})[sign] = complex(c)
        half: dict[tuple, complex] = {}
        for key, sides in pairs.items():
            cpos = sides.get(1, 0.0)
            cneg = sides.get(-1, None)
            if any(v != 0.0 for v in key):
                if cneg is None:
                    raise ValueError(f"missing mirror coefficient for {key}")
                if abs(np.conj(cneg) - cpos) > REALNESS_TOL:
                    raise ValueError(
                        f"conjugate symmetry violated at {key}: {cpos} vs conj({cneg})"
                    )
            half[key] = complex(cpos)
        return cls.from_half_coeffs(fs, half)

    @classmethod
    def zero(cls, fs: FrequencySet | None, d: int | None = None) -> "TrigPolynomial":
        return cls(fs, {}, fs.d if fs is not None else int(d))

    def coeff(self, omega) -> complex:
        """Coefficient at an arbitrary (possibly non-canonical) lattice point."""
        folded, sign = canonical_fold(np.asarray(omega, dtype=float))
        key = self.freq_set.snap(folded) if self.freq_set is not None else tuple(float(v) for v in folded)
        c = self.coeffs.get(key, 0.0)
        return complex(c) if sign > 0 else complex(np.conj(c))

    def support(self) -> list[tuple]:
        return sorted(self.coeffs.keys())

    def _split(self):
        zero = tuple(0.0 for _ in range(self.d))
        c0 = complex(self.coeffs.get(zero, 0.0)).real
        rest = [(k, v) for k, v in self.coeffs.items() if k != zero]
        if rest:
            omegas = np.array([k for k, _ in rest], dtype=float)
            cs = np.array([v for _, v in rest], dtype=complex)
        else:
            omegas = np.zeros((0, self.d))
            cs = np.zeros(0, dtype=complex)
        return c0, omegas, cs

    def evaluate(self, X) -> np.ndarray:
        """Pointwise values at rows of ``X`` (shape ``(n, d)`` or ``(d,)``)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        c0, omegas, cs = self._split()
        vals = np.full(X.shape[0], c0)
        if omegas.shape[0]:
            ang = X @ omegas.T
            vals = vals + 2.0 * (np.cos(ang) @ cs.real - np.sin(ang) @ cs.imag)
        return vals

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self._combine(other, -1.0)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self._combine(other, 1.0)

    def _combine(self, other: "TrigPolynomial", sign: float) -> "TrigPolynomial":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + sign * v
        out = {k: v for k, v in out.items() if v != 0}
        fs = self.freq_set if self.freq_set is not None else other.freq_set
        return TrigPolynomial(fs, out, self.d)

    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial(
            self.freq_set, {k: factor * v for k, v in self.coeffs.items()}, self.d
        )

    def to_json(self) -> dict:
        terms = [
            {"omega": [float(v) for v in k], "re": float(c.real), "im": float(c.imag)}
            for k, c in sorted(self.coeffs.items())
        ]
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_json(cls, doc: dict, fs: FrequencySet | None = None) -> "TrigPolynomial":
        d = int(doc["d"])
        mapping = {}
        for term in doc["terms"]:
            omega = tuple(float(v) for v in term["omega"])
            if len(omega) != d:
                raise ValueError("term dimension mismatch in function document")
            mapping[omega] = complex(float(term["re"]), float(term["im"]))
        if not mapping:
            return cls(fs, {}, fs.d if fs is not None else d)
        return cls.from_half_coeffs(fs, mapping)


def load_function(path: str, fs: FrequencySet | None = None) -> TrigPolynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return TrigPolynomial.from_json(json.load(fh), fs)


@dataclass
class RealFourierForm:
    """Cosine/sine representation: f = c0 + sum_i a_i cos<w_i,x> + b_i sin<w_i,x>,
    indexed by the nonzero canonical frequencies in lattice order."""

    freq_set: FrequencySet
    c0: float
    a: np.ndarray
    b: np.ndarray

    def evaluate(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ang = X @ self.freq_set.half[1:].T
        return self.c0 + np.cos(ang) @ self.a + np.sin(ang) @ self.b


def to_real_form(f: TrigPolynomial) -> RealFourierForm:
    """Convert complex-pair coefficients to the real cosine/sine form
    (a = c_w + c_{-w}, b = i(c_w - c_{-w}))."""
    fs = f.freq_set
    if fs is None:
        raise ValueError("real form needs a materialized frequency set")
    fs.require_materialized()
    m = fs.size
    a = np.zeros(m - 1)
    b = np.zeros(m - 1)
    zero = tuple(0.0 for _ in range(f.d))
    c0 = 0.0
    for key, c in f.coeffs.items():
        if key == zero:
            c0 = c.real
            continue
        i = fs.position(np.asarray(key))
        a[i - 1] = 2.0 * c.real
        b[i - 1] = -2.0 * c.imag
    return RealFourierForm(fs, c0, a, b)


def from_real_form(form: RealFourierForm) -> TrigPolynomial:
    fs = form.freq_set
    mapping: dict[tuple, complex] = {}
    zero = tuple(0.0 for _ in range(fs.d))
    if form.c0 != 0.0:
        mapping[zero] = complex(form.c0)
    for i in range(1, fs.size):
        aa, bb = form.a[i - 1], form.b[i - 1]
        if aa != 0.0 or bb != 0.0:
            mapping[tuple(fs.half[i])] = complex(aa / 2.0, -bb / 2.0)
    return TrigPolynomial.from_half_coeffs(fs, mapping)


def feature_map_eval(x, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Re-weighted feature vector (w_0, w_i cos, w_i sin, ...)/||w||_2 at one point."""
    return feature_matrix(np.atleast_2d(np.asarray(x, dtype=float)), fs, w)[0]


def feature_matrix(X, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Feature matrix with rows phi_w(x_k); columns in canonical index order."""
    _check_lengths(fs, w)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    m = fs.size
    out = np.empty((n, 2 * m - 1))
    out[:, 0] = w.weights[0]
    if m > 1:
        ang = X @ fs.half[1:].T
        out[:, 1::2] = np.cos(ang) * w.weights[1:]
        out[:, 2::2] = np.sin(ang) * w.weights[1:]
    return out / w.norm2


def kernel_eval(x, xp, fs: FrequencySet, w: WeightVector) -> float:
    """K_w(x, x') = sum_i w_i^2 cos(<omega_i, x - x'>) / ||w||_2^2."""
    _check_lengths(fs, w)
    delta = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    return float(np.dot(w.weights**2, np.cos(fs.half @ delta)) / w.norm2**2)


def kernel_matrix(X, Xp, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Gram matrix K[i, j] = K_w(X[i], Xp[j]), assembled via the angle-sum
    identity so the cost is O((n + m) |Omega| + n m |Omega|) in BLAS calls."""
    _check_lengths(fs, w)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xp = np.atleast_2d(np.asarray(Xp, dtype=float))
    p = w.weights**2 / w.norm2**2
    ax = X @ fs.half.T
    ay = Xp @ fs.half.T
    return (np.cos(ax) * p) @ np.cos(ay).T + (np.sin(ax) * p) @ np.sin(ay).T


def distribution_of(w: WeightVector) -> np.ndarray:
    """Frequency probabilities p_i = w_i^2 / ||w||_2^2."""
    return (w.weights / w.norm2) ** 2


def weights_of(p) -> WeightVector:
    """Unit-norm weight vector with w_i = sqrt(p_i)."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    return WeightVector(np.sqrt(p))


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
    for functions whose support carries strictly positive weight.
    """
    fs = f.freq_set
    if fs is None:
        raise ValueError("rkhs_norm needs a lattice-attached polynomial")
    fs.require_materialized()
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "RKHS norm is only computed for integer frequency lattices"
        )
    _check_lengths(fs, w)
    form = to_real_form(f)
    # index i is row i of the canonical half; the zero frequency has no sine
    cos_coef = np.concatenate([[form.c0], form.a])
    sin_coef = np.concatenate([[0.0], form.b])
    support = (np.abs(cos_coef) > SUPPORT_TOL) | (np.abs(sin_coef) > SUPPORT_TOL)
    unreachable = support & (w.weights == 0.0)
    if unreachable.any():
        i = int(np.argmax(unreachable))
        where = "the zero frequency" if i == 0 else f"frequency {tuple(fs.half[i])}"
        raise ValueError(
            f"function has weight-zero support at {where}; "
            "it lies outside the kernel's function set"
        )
    wi = w.weights[support]
    cos_part = cos_coef[support] * w.norm2 / wi
    sin_part = sin_coef[support] * w.norm2 / wi
    return math.sqrt(float(np.sum(cos_part**2 + sin_part**2)))


def fhat_l2_sq(f: TrigPolynomial) -> float:
    """Squared 2-norm of the full coefficient vector over the mirror lattice."""
    zero = tuple(0.0 for _ in range(f.d))
    total = 0.0
    for key, c in f.coeffs.items():
        mag = abs(c) ** 2
        total += mag if key == zero else 2.0 * mag
    return total


def coeff_sup_bound(f: TrigPolynomial) -> float:
    """|c_0| + 2 sum |c_w|: a rigorous sup-norm bound for the polynomial."""
    zero = tuple(0.0 for _ in range(f.d))
    total = 0.0
    for key, c in f.coeffs.items():
        total += abs(c) if key == zero else 2.0 * abs(c)
    return total


def l2_norm_sq(f: TrigPolynomial) -> float:
    """Squared L^2 norm over [0, 2pi)^d with Lebesgue measure:
    (2 pi)^d * sum |fhat|^2."""
    return (2.0 * math.pi) ** f.d * fhat_l2_sq(f)


def apply_integral_operator(f: TrigPolynomial, p) -> TrigPolynomial:
    """Action of the kernel integral operator (uniform inputs, integer
    lattice): the coefficient pair at +-omega is scaled by p(omega)/2 for
    nonzero omega, and the constant coefficient by p(omega_0).

    The constant eigenfunction carries the full probability p(omega_0): the
    zero frequency has no mirror partner, so its eigenvalue is not halved.
    """
    fs = f.freq_set
    if fs is None:
        raise ValueError("operator action needs a lattice-attached polynomial")
    fs.require_materialized()
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "operator action is only computed for integer frequency lattices"
        )
    p = np.asarray(p, dtype=float)
    if p.size != fs.size:
        raise ValueError("probability vector length does not match the canonical half")
    zero = tuple(0.0 for _ in range(f.d))
    out = {}
    for key, c in f.coeffs.items():
        if key == zero:
            out[key] = c * p[0]
        else:
            out[key] = c * (p[fs.position(np.asarray(key))] / 2.0)
    return TrigPolynomial(fs, {k: v for k, v in out.items() if v != 0}, f.d)


def reweighted_hyperplane(v, fs: FrequencySet, w: WeightVector) -> np.ndarray:
    """Map a hyperplane over phi_w to the equivalent hyperplane over the
    plain (uniform-weight) feature map: v' = diag(sqrt(|Omega|) w / ||w||) v."""
    _check_lengths(fs, w)
    v = np.asarray(v, dtype=float)
    scale = np.empty_like(v)
    scale[0] = w.weights[0]
    scale[1::2] = w.weights[1:]
    scale[2::2] = w.weights[1:]
    return v * scale * math.sqrt(fs.size) / w.norm2
