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
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import NonIntegerFrequencyError
from .freqcore import _INT_TOL, FrequencySet, canonical_fold, fold_rows, is_integer_valued

REALNESS_TOL = 1e-10
SUPPORT_TOL = 1e-12
# rows of the uniform-measure Gram that ``mean_square`` forms at a time
_GRAM_BLOCK = 512


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
        zero and the row must be canonical.  The zero-frequency coefficient
        must be real (within 1e-10), no frequency may repeat, and zero
        coefficients are dropped.
        """
        freqs = np.asarray(freqs, dtype=float)
        c = np.array(c, dtype=complex)
        if fs is not None:
            fs.require_materialized()
            rows = fs.half_rows(fs.locate(freqs))
            bad = rows < 0
        else:
            folded, bad = fold_rows(freqs)
        if bad.any():
            raise ValueError(f"coefficient key {tuple(freqs[np.argmax(bad)])} is not canonical")
        points = fs.half[rows] if fs is not None else folded
        zero = ~points.any(axis=1)
        if np.any(np.abs(c.imag[zero]) > REALNESS_TOL):
            raise ValueError(
                f"zero-frequency coefficient must be real, got imag {c.imag[zero][0]}"
            )
        c.imag[zero] = 0.0
        _, first = np.unique(points, axis=0, return_index=True)
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
    def from_full_coeffs(cls, fs: FrequencySet | None, mapping: dict) -> "TrigPolynomial":
        """Build from coefficients over the full mirror-symmetric lattice,
        enforcing c_{-w} = conj(c_w) within 1e-10.  Keys snap onto ``fs``
        before they are paired."""
        pairs: dict[tuple, dict[int, complex]] = {}
        for omega, c in mapping.items():
            if fs is not None:
                omega = fs.snap(omega)
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
        X = np.atleast_2d(np.asarray(X, dtype=float))
        zero = self._zero_mask()
        vals = np.full(X.shape[0], float(self.c.real[zero].sum()))
        if not zero.all():
            cs = self.c[~zero]
            ang = X @ self.freqs[~zero].T
            vals = vals + 2.0 * (np.cos(ang) @ cs.real - np.sin(ang) @ cs.imag)
        return vals

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self._combine(other, -1.0)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self._combine(other, 1.0)

    def _combine(self, other: "TrigPolynomial", sign: float) -> "TrigPolynomial":
        """Terms of ``self`` in order, then the new terms of ``other``;
        terms that cancel are dropped.  The result is attached to a lattice
        when both operands are."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        freqs = np.concatenate([self.freqs, other.freqs])
        _, first, inverse = np.unique(freqs, axis=0, return_index=True, return_inverse=True)
        # each distinct frequency's slot is the order of its first appearance
        order = np.argsort(first)
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        pos = slot[inverse.ravel()]
        c = np.zeros(order.size, dtype=complex)
        c[pos[: self.c.size]] = self.c
        c[pos[self.c.size :]] += sign * other.c
        keep = c != 0
        take = first[order][keep]
        if self.freq_set is None or self.freq_set is not other.freq_set:
            return TrigPolynomial(None, freqs[take], c[keep])
        rows = np.concatenate([self.rows, other.rows])[take]
        return TrigPolynomial(self.freq_set, freqs[take], c[keep], rows)

    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial(self.freq_set, self.freqs, factor * self.c, self.rows)

    def to_json(self) -> dict:
        order = np.lexsort(self.freqs.T[::-1])
        terms = [
            {"omega": omega, "re": float(c.real), "im": float(c.imag)}
            for omega, c in zip(self.freqs[order].tolist(), self.c[order].tolist())
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
            return cls.zero(fs, d)
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
    a = np.zeros(fs.size - 1)
    b = np.zeros(fs.size - 1)
    zero = f.rows == 0
    a[f.rows[~zero] - 1] = 2.0 * f.c.real[~zero]
    b[f.rows[~zero] - 1] = -2.0 * f.c.imag[~zero]
    return RealFourierForm(fs, float(f.c.real[zero].sum()), a, b)


def from_real_form(form: RealFourierForm) -> TrigPolynomial:
    fs = form.freq_set
    c = np.empty(fs.size, dtype=complex)
    c.real = np.concatenate([[form.c0], form.a / 2.0])
    c.imag = np.concatenate([[0.0], -form.b / 2.0])
    return TrigPolynomial.on_rows(fs, np.arange(fs.size), c)


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
    scale = p[f.rows] / 2.0
    scale[f.rows == 0] = p[0]
    return TrigPolynomial.on_rows(fs, f.rows, f.c * scale)


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
