"""Frequency distributions over the canonical half-lattice and samplers.

Three representations are supported:

* explicit sparse maps (poly-size support),
* product-induced distributions (independent per-dimension draws over the
  mirror-symmetric per-dimension sets, folded onto the canonical half), and
* tensor-train (MPS) induced distributions with nonnegative cores, sampled
  by left-to-right conditional marginalization against cached right
  environments.

Folding rule: p(omega) = ptilde(omega) for omega = 0, and
p(omega) = ptilde(omega) + ptilde(-omega) otherwise, where -omega sits at
the mirrored lattice positions (``FrequencySet``'s mirror identity).  ``pmf``
folds ptilde at the rows it is given (``_tilde``, batched over rows of
per-dimension lattice positions).  ``pmf_vector`` folds a dense ptilde over
the whole materialized lattice in code order (``_tilde_grid``: outer
products for a product distribution, one core contracted at a time for a
tensor train); the half is the codes from ``zero_code`` up and their
mirrors the codes from it down, so the fold is two slices and gathers
nothing.  An explicit distribution fills the vector with its stored
probabilities at its codes instead.  Both routes round alike, so
``pmf(fs.half)`` equals ``pmf_vector()`` bitwise; that is what lets
``bounds.alignment`` read an enumerated vector at a target's rows in place
of ``pmf`` at its terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateDistributionError
from .freqcore import FrequencySet, fold_rows

PROB_TOL = 1e-12

# p_max is exact where the dense ptilde grid of pmf_vector fits in this many bytes
ENUMERATE_BYTES = 1 << 28


@dataclass(frozen=True)
class SeededRng:
    """Counter-based PRNG handle: (seed, stream) pins the draws of a Philox
    generator.

    Streams give every trial or sweep cell its own independent, reproducible
    generator derived from one master seed.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def stream_for(self, index: int) -> "SeededRng":
        """Derived stream for trial/cell ``index`` under the same master seed."""
        return SeededRng(self.seed, self.stream * 1_000_003 + index + 1)


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be a SeededRng or numpy Generator")


class PMax(NamedTuple):
    value: float
    is_exact: bool


class FrequencyDistribution:
    """Common interface for frequency distributions over the canonical half."""

    kind: str = ""
    # set for the two labeled uniform variants produced by uniform_distribution
    uniform_variant: str | None = None
    # widest bond of the dense ptilde grid: a tensor train's, else 1
    bond: int = 1

    def __init__(self, fs: FrequencySet):
        self.fs = fs

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        """ptilde at each row of per-dimension lattice positions."""
        raise NotImplementedError

    def _tilde_grid(self) -> np.ndarray:
        """ptilde over the whole lattice, flat in code order; each entry
        equals ``_tilde`` at that point bitwise."""
        raise NotImplementedError

    def pmf(self, omega):
        """Probability of a canonical frequency (shape ``(d,)``, a float), or
        of each row of an ``(n, d)`` array (an array).  Components snap onto
        the lattice within 1e-9 before the canonical check."""
        omega = np.asarray(omega, dtype=float)
        rows = np.atleast_2d(omega)
        idx = self.fs.locate(rows)
        below = self.fs.half_rows(idx) < 0
        if below.any():
            raise ValueError(f"frequency {tuple(rows[np.argmax(below)].tolist())} is not canonical")
        p = self._folded(idx)
        return float(p[0]) if omega.ndim == 1 else p

    def sample(self, rng, M: int) -> np.ndarray:
        raise NotImplementedError

    def pmf_vector(self) -> np.ndarray:
        """Probabilities over the materialized canonical half, in lattice order."""
        self.fs.require_within_cap()
        g = self._tilde_grid()
        z = self.fs.zero_code
        # the half is the codes from z up; its mirror, the codes from z down
        # (the mirror identity), and the zero frequency is its own mirror
        p = g[z:]
        p[1:] += g[:z][::-1]
        return p

    @property
    def enumerable(self) -> bool:
        """Whether ``pmf_vector`` may run: a materialized lattice whose dense
        ptilde grid, about full_size * bond * 8 B, fits in ENUMERATE_BYTES."""
        return self.fs.materialized and 8 * self.fs.full_size * self.bond <= ENUMERATE_BYTES

    def p_max(self) -> PMax | None:
        """Maximum probability, exact on an enumerable lattice; else None."""
        return PMax(float(np.max(self.pmf_vector())), True) if self.enumerable else None

    def _folded(self, idx: np.ndarray) -> np.ndarray:
        """p at the canonical points at per-dimension positions ``idx``:
        ptilde(w) + ptilde(-w), and ptilde(0) at the zero frequency (the one
        point that is its own mirror)."""
        mirror = self.fs.mirror(idx)
        t = self._tilde(np.concatenate([idx, mirror]))
        pos, neg = t[: idx.shape[0]], t[idx.shape[0]:]
        return np.where(np.all(idx == mirror, axis=1), pos, pos + neg)


class ExplicitDistribution(FrequencyDistribution):
    """Sparse map from canonical frequencies to probabilities."""

    kind = "explicit"

    def __init__(self, fs: FrequencySet, support, probs):
        super().__init__(fs)
        support = np.atleast_2d(np.asarray(support, dtype=float))
        probs = np.asarray(probs, dtype=float)
        if support.shape[0] != probs.size:
            raise ConfigError("support and probs must have matching lengths")
        _check_probabilities(probs)
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL * max(1, probs.size):
            raise ConfigError(f"probabilities sum to {total}, expected 1")
        try:
            idx = fs.locate(support)
        except ValueError as exc:
            raise ConfigError(f"explicit support: {exc}") from exc
        self.support = fs.at(idx)
        codes = fs.code(idx)
        below = codes < fs.zero_code
        if below.any():
            row = tuple(support[np.argmax(below)].tolist())
            raise ConfigError(f"support point {row} is not canonical")
        order = np.argsort(codes, kind="stable")
        self._codes = codes[order]
        if np.any(self._codes[1:] == self._codes[:-1]):
            raise ConfigError("duplicate support points")
        self._sorted_probs = probs[order]
        self.probs = probs

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        # the stored probability at a support point, 0 elsewhere (mirror
        # points included: the support is canonical)
        codes = self.fs.code(idx)
        at = np.minimum(np.searchsorted(self._codes, codes), self._codes.size - 1)
        return np.where(self._codes[at] == codes, self._sorted_probs[at], 0.0)

    def pmf_vector(self) -> np.ndarray:
        # the mirror term is 0 on a canonical support, so p is probs, in place
        self.fs.require_within_cap()
        p = np.zeros(self.fs.size)
        p[self._codes - self.fs.zero_code] = self._sorted_probs
        return p

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        idx = gen.choice(self.support.shape[0], size=M, p=self.probs)
        return self.support[idx]

    def p_max(self) -> PMax:
        return PMax(float(np.max(self.probs)), True)


class ProductDistribution(FrequencyDistribution):
    """Fold of an independent per-dimension distribution over the mirror
    lattice."""

    kind = "product"

    def __init__(self, fs: FrequencySet, per_dim):
        super().__init__(fs)
        if len(per_dim) != fs.d:
            raise ConfigError("per_dim must have one distribution per dimension")
        self.per_dim = []
        for j, pj in enumerate(per_dim):
            pj = np.asarray(pj, dtype=float)
            if pj.size != fs.per_dimension_freqs[j].size:
                raise ConfigError(
                    f"dimension {j+1}: {pj.size} probabilities for "
                    f"{fs.per_dimension_freqs[j].size} frequencies"
                )
            _check_probabilities(pj)
            if abs(float(pj.sum()) - 1.0) > PROB_TOL * max(1, pj.size):
                raise ConfigError(f"dimension {j+1} probabilities do not sum to 1")
            self.per_dim.append(pj)

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        out = np.ones(idx.shape[0])
        for j, pj in enumerate(self.per_dim):
            out *= pj[idx[:, j]]
        return out

    def _tilde_grid(self) -> np.ndarray:
        # outer products in dimension order multiply as _tilde does
        out = np.ones(1)
        for pj in self.per_dim:
            out = (out[:, None] * pj).ravel()
        return out

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        cols = []
        for j in range(self.fs.d):
            idx = gen.choice(self.per_dim[j].size, size=M, p=self.per_dim[j])
            cols.append(self.fs.per_dimension_freqs[j][idx])
        return fold_rows(np.stack(cols, axis=1))[0]

    def tilde_max(self) -> float:
        out = 1.0
        for pj in self.per_dim:
            out *= float(np.max(pj))
        return out

    def p_max(self) -> PMax:
        """Exact on an enumerable lattice, else the upper bound 2 ptilde_max."""
        pm = super().p_max()
        return PMax(2.0 * self.tilde_max(), False) if pm is None else pm


class MpsDistribution(FrequencyDistribution):
    """Tensor-train pmf over the mirror lattice (cores hold probabilities,
    not amplitudes), folded onto the canonical half."""

    kind = "mps"

    def __init__(self, fs: FrequencySet, cores):
        super().__init__(fs)
        if len(cores) != fs.d:
            raise ConfigError("need one core per dimension")
        self.cores = []
        bond = 1
        for j, core in enumerate(cores):
            core = np.asarray(core, dtype=float)
            if core.ndim != 3:
                raise ConfigError(f"core {j+1} must be a 3-d array")
            if core.shape[0] != bond:
                raise ConfigError(f"core {j+1} left bond {core.shape[0]} != {bond}")
            if core.shape[1] != fs.per_dimension_freqs[j].size:
                raise ConfigError(
                    f"core {j+1} physical dimension {core.shape[1]} does not match "
                    f"lattice dimension {fs.per_dimension_freqs[j].size}"
                )
            if not np.all(np.isfinite(core)):
                raise ConfigError(f"core {j+1} entries must be finite")
            if np.any(core < 0):
                raise ConfigError("core entries must be nonnegative")
            bond = core.shape[2]
            self.cores.append(core)
        if bond != 1:
            raise ConfigError("last core must close the tensor train (right bond 1)")
        self.bond = max(core.shape[2] for core in self.cores)
        # right environments: R[j] sums out dimensions j..d-1
        self.right = [None] * (fs.d + 1)
        self.right[fs.d] = np.ones(1)
        for j in range(fs.d - 1, -1, -1):
            self.right[j] = self.cores[j].sum(axis=1) @ self.right[j + 1]
        self.total_mass = float(self.right[0][0])
        if not np.isfinite(self.total_mass) or self.total_mass <= 0:
            raise DegenerateDistributionError(
                f"tensor train has total mass {self.total_mass}"
            )

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        left = np.ones((idx.shape[0], 1))
        for j, core in enumerate(self.cores):
            left = _contract(left.T[:, :, None], core[:, idx[:, j], :])
        return left[:, 0] / self.total_mass

    def _tilde_grid(self) -> np.ndarray:
        # left holds one row per point of the leading dimensions, in code
        # order: O(full_size * bond^2) work and no gathers
        left = np.ones((1, 1))
        for core in self.cores:
            left = _contract(left.T[:, :, None, None], core).reshape(-1, core.shape[2])
        out = left.reshape(-1)
        out /= self.total_mass
        return out

    def marginal(self, j: int, prefix) -> np.ndarray:
        """Conditional pmf of dimension ``j`` (0-based) given the values of
        dimensions 0..j-1.  Raises if the prefix has exactly zero mass."""
        prefix = np.asarray(prefix, dtype=float)
        if prefix.shape != (j,):
            raise ValueError(f"prefix must assign dimensions 1..{j}")
        # zero frequencies pad the row past the prefix
        row = np.concatenate([prefix, np.zeros(self.fs.d - j)])
        left = np.ones(1)
        for i, k in enumerate(self.fs.locate(row[None, :])[0][:j]):
            left = left @ self.cores[i][:, k, :]
        weights = np.einsum("a,akb,b->k", left, self.cores[j], self.right[j + 1])
        total = float(weights.sum())
        if total <= 0:
            raise DegenerateDistributionError(
                f"conditional mass at dimension {j+1} is zero for prefix {tuple(prefix)}"
            )
        return weights / total

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        d = self.fs.d
        left = np.ones((M, 1))
        cols = []
        for j in range(d):
            weights = np.einsum("ma,akb,b->mk", left, self.cores[j], self.right[j + 1])
            totals = weights.sum(axis=1)
            if np.any(totals <= 0):
                raise DegenerateDistributionError(
                    f"conditional mass at dimension {j+1} is zero during sampling"
                )
            probs = weights / totals[:, None]
            u = gen.random(M)
            cum = np.cumsum(probs, axis=1)
            cum[:, -1] = 1.0  # guard the inverse-CDF against summation shortfall
            ks = (cum > u[:, None]).argmax(axis=1)
            cols.append(self.fs.per_dimension_freqs[j][ks])
            left = np.einsum("ma,amb->mb", left, self.cores[j][:, ks, :])
        return fold_rows(np.stack(cols, axis=1))[0]


def _check_probabilities(probs: np.ndarray):
    if not np.all(np.isfinite(probs)):
        raise ConfigError("probabilities must be finite")
    if np.any(probs < 0):
        raise ConfigError("probabilities must be nonnegative")


def _contract(left: np.ndarray, core: np.ndarray) -> np.ndarray:
    """sum_a left[a] * core[a] over the leading (bond) axis, with one product
    and one sum per bond index in bond order, so that a contraction over
    gathered rows and one over the whole lattice round alike."""
    out = left[0] * core[0]
    for a in range(1, core.shape[0]):
        out += left[a] * core[a]
    return out


def uniform_distribution(fs: FrequencySet, lazy: bool = False) -> FrequencyDistribution:
    """Uniform frequency distribution, in one of two labeled flavors.

    The explicit variant puts exactly 1/|Omega| on every canonical frequency
    (requires materialization).  The lazy variant is the fold of uniform
    per-dimension distributions: it puts 2/|full lattice| on every nonzero
    canonical frequency and 1/|full lattice| on zero, and never materializes
    the half.
    """
    if lazy:
        dist = ProductDistribution(
            fs,
            [np.full(f.size, 1.0 / f.size) for f in fs.per_dimension_freqs],
        )
        dist.uniform_variant = "product"
        return dist
    fs.require_materialized()
    m = fs.size
    dist = ExplicitDistribution(fs, fs.half, np.full(m, 1.0 / m))
    dist.uniform_variant = "explicit"
    return dist


def distribution_from_json(doc: dict, fs: FrequencySet) -> FrequencyDistribution:
    """Parse a distribution config document against a frequency set."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("distribution document must have a 'kind'") from exc
    if kind == "explicit":
        return ExplicitDistribution(fs, doc["support"], doc["probs"])
    if kind == "product":
        return ProductDistribution(fs, doc["per_dim"])
    if kind == "mps":
        cores = [np.asarray(c, dtype=float) for c in doc["cores"]]
        if "dims" in doc:
            declared = [int(v) for v in doc["dims"]]
            actual = [c.shape[1] if c.ndim == 3 else -1 for c in cores]
            if declared != actual:
                raise ConfigError(
                    f"declared physical dims {declared} do not match cores {actual}"
                )
        return MpsDistribution(fs, cores)
    if kind == "uniform":
        variant = doc.get("variant", "explicit")
        if variant not in ("explicit", "product"):
            raise ConfigError(f"unknown uniform variant '{variant}'")
        return uniform_distribution(fs, lazy=(variant == "product"))
    raise ConfigError(f"unknown distribution kind '{kind}'")


def load_distribution(path: str, fs: FrequencySet) -> FrequencyDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_json(json.load(fh), fs)


def explicit_from_weights(fs: FrequencySet, weights) -> ExplicitDistribution:
    """Exact sampling distribution of a weight vector: p_i = w_i^2/||w||^2."""
    from .kernelmap import WeightVector, distribution_of

    w = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    fs.require_materialized()
    if len(w) != fs.size:
        raise ValueError("weight vector length does not match the canonical half")
    p = distribution_of(w)
    keep = p > 0
    probs = p[keep] / p[keep].sum()
    return ExplicitDistribution(fs, fs.half[keep], probs)
