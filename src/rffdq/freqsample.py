"""Frequency distributions over the canonical half-lattice and samplers.

Three representations are supported:

* explicit sparse maps (poly-size support),
* product-induced distributions (independent per-dimension draws over the
  mirror-symmetric per-dimension sets, folded onto the canonical half), and
* tensor-train (MPS) induced distributions with nonnegative cores, sampled
  by left-to-right conditional marginalization: dimension j is drawn from
  the row of its environment matrix env_j = core_j @ right_{j+1} that the
  drawn prefix selects, and the matrices are formed once per distribution.

Folding rule: p(omega) = ptilde(omega) for omega = 0, and
p(omega) = ptilde(omega) + ptilde(-omega) otherwise, where -omega sits at
the mirrored lattice positions (``FrequencySet``'s mirror identity).  ``pmf``
folds ptilde at the rows it is given (``_tilde``, batched over rows of
per-dimension lattice positions).  ``pmf_vector`` folds a dense ptilde over
the whole materialized lattice in code order (``_enumerate``); the half is
the codes from ``zero_code`` up and their mirrors the codes from it down, so
the fold is two slices and gathers nothing.  An explicit distribution fills
the vector with its stored probabilities at its codes instead.

Each distribution enumerates once: the first ``pmf_vector`` keeps the half,
read-only (not the grid), for ``p_max`` (whose maximum is also taken once),
``bounds.alignment``, and ``weights()``, the one place that forms the kernel
weights sqrt(p) a sweep's KRR oracle and a verdict's C read; where
``enumerable`` is false it raises CapacityError and forms nothing.

A product is a tensor train of bond 1, and both multiply from the last
dimension.  A tensor train is contracted from its last core: the points of
the trailing dimensions are a contiguous row per bond index, and each step
forms out[a, k, t] = sum_b core[a, k, b] * right[b, t] with the new
dimension leading in code order.  ``_enumerate`` forms a step as one
``np.einsum("akb,bt->akt", ...)``; where t > 1 its innermost loop runs over
t, so it adds one product per bond index in bond order, and rounds as
``_contract``'s one elementwise product and one sum per bond index do.
Where the trailing points are a single one (t = 1: the last core, and any
core followed only by single-value dimensions) einsum would sum the bond in
an order of its own, so those steps take ``_contract``.  ``_tilde`` takes
``_contract``'s steps over gathered rows, so each point sees the same
products and sums in the same order, and ``pmf(fs.half)`` equals
``pmf_vector()`` bitwise; that is what lets ``bounds.alignment`` read the
enumerated vector at a target's rows in place of ``pmf`` at its terms.  A
BLAS product (``core.reshape(-1, b) @ right``) would be faster still but
rounds by fused multiply-adds, and einsum in ``_tilde`` rounds otherwise.
At bond 4 on 5^d points, ``pmf_vector`` takes 0.084, 0.50, 3.2 and 21 ms
at d = 6, 7, 8 and 9 with einsum, against 0.18, 0.62, 5.3 and 38 ms with
one product and sum per bond index, bitwise equal (best of several, one
BLAS thread, a 2-vCPU VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConfigError, DegenerateDistributionError, read, read_field, show
from .freqcore import FrequencySet, fold_rows
from .kernelmap import WeightVector, distribution_of, weights_of

PROB_TOL = 1e-12

# bytes within which forming the half must peak for pmf_vector (and an exact p_max)
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

    def __init__(self, fs: FrequencySet):
        self.fs = fs
        self._p: np.ndarray | None = None
        self._peak: int | None = None
        self._top: PMax | None = None

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        """ptilde at each row of per-dimension lattice positions."""
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
        """Probabilities over the materialized canonical half, in lattice
        order: formed by the first call, read-only, and the same array on
        every later call.  Raises CapacityError where not ``enumerable``."""
        self.fs.require_within_cap()
        if not self.enumerable:
            raise CapacityError(f"enumerating the half needs ~{8 * self._peak} B (cap {ENUMERATE_BYTES})")
        if self._p is None:
            self._p = self._enumerate()
            self._p.flags.writeable = False
        return self._p

    def weights(self) -> WeightVector:
        """The kernel weights ``kernelmap.weights_of(pmf_vector())``."""
        return weights_of(self.pmf_vector())

    def _enumerate(self) -> np.ndarray:
        """p over the half, in code order: formed once, by ``pmf_vector``,
        holding at most ``_peak_entries()`` float64 entries at once."""
        raise NotImplementedError

    @property
    def enumerable(self) -> bool:
        """Whether ``pmf_vector`` may run: a materialized lattice on which
        forming the half peaks within ENUMERATE_BYTES.

        The estimate bounds that peak (``_peak_entries``, once per
        distribution) on every lattice, including one with a single value
        in the first dimension, where a tensor train's step holds bond x
        full_size entries."""
        if self._peak is None:
            self._peak = self._peak_entries()
        return self.fs.materialized and 8 * self._peak <= ENUMERATE_BYTES

    def factors(self) -> list[np.ndarray] | None:
        """The per-dimension pmfs whose independent draws, folded onto the
        half, are this sampler's draws; None where it is no such fold."""
        return None

    def p_max(self) -> PMax | None:
        """Maximum probability, exact on an enumerable lattice (taken once
        per distribution); else the upper bound 2 prod_j max factor_j where
        the sampler has ``factors``, and None otherwise."""
        if not self.enumerable:
            factors = self.factors()
            if factors is None:
                return None
            return PMax(2.0 * math.prod(float(np.max(f)) for f in factors), False)
        if self._top is None:
            self._top = PMax(float(self.pmf_vector().max()), True)
        return self._top

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
            raise ConfigError.at("probs", "probabilities summing to 1", f"a sum of {total!r}")
        try:
            idx = fs.locate(support)
        except ValueError as exc:
            raise ConfigError.at("support", "lattice points", str(exc)) from None
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

    def _enumerate(self) -> np.ndarray:
        # the mirror term is 0 on a canonical support, so p is probs, in place
        p = np.zeros(self.fs.size)
        p[self._codes - self.fs.zero_code] = self._sorted_probs
        return p

    def _peak_entries(self) -> int:
        return self.fs.size

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        idx = gen.choice(self.support.shape[0], size=M, p=self.probs)
        return self.support[idx]

    def p_max(self) -> PMax:
        if self._top is None:
            self._top = PMax(float(self.probs.max()), True)
        return self._top


class _TensorTrain(FrequencyDistribution):
    """ptilde as a tensor train: ``cores[j][a, k, b]`` weighs value k of
    dimension j between bonds a and b, and ``total_mass`` normalizes."""

    def _tilde(self, idx: np.ndarray) -> np.ndarray:
        right = np.ones((1, idx.shape[0]))
        for j in range(self.fs.d - 1, -1, -1):
            right = _contract(self.cores[j][:, idx[:, j], :], right)
        return right[0] / self.total_mass

    def _enumerate(self) -> np.ndarray:
        # right[b] holds the trailing dimensions' factor at bond index b for
        # each of their points, in code order; each step puts its dimension
        # in front, so every product runs over contiguous rows:
        # O(full_size * bond^2) work and no gathers.  einsum sums the bond
        # in bond order only over more than one trailing point (module
        # docstring)
        right = np.ones((1, 1))
        for core in reversed(self.cores):
            if right.shape[1] == 1:
                out = _contract(core[:, :, :, None], right)
            else:
                out = np.einsum("akb,bt->akt", core, right)
            right = out.reshape(core.shape[0], -1)
        g = right[0]
        g /= self.total_mass
        # the half is the codes from z up; its mirror, the codes from z down
        # (the mirror identity), and the zero frequency is its own mirror.
        # Only the half is kept: the grid is freed on return
        z = self.fs.zero_code
        p = np.empty(self.fs.size)
        p[0] = g[z]
        np.add(g[z + 1:], g[:z][::-1], out=p[1:])
        return p

    def _peak_entries(self) -> int:
        return _contraction_peak([core.shape for core in self.cores])

    def factors(self) -> list[np.ndarray] | None:
        """A train whose every bond is 1 is a product: its cores, each
        normalized to a pmf."""
        # each left bond is the previous right bond, and the first is 1
        if any(core.shape[2] != 1 for core in self.cores):
            return None
        return [core[0, :, 0] / core.sum() for core in self.cores]


class ProductDistribution(_TensorTrain):
    """Fold of an independent per-dimension distribution over the mirror
    lattice: a tensor train of bond 1 whose cores are the per-dimension
    vectors, each summing to 1."""

    kind = "product"
    total_mass = 1.0

    def __init__(self, fs: FrequencySet, per_dim):
        super().__init__(fs)
        if len(per_dim) != fs.d:
            raise ConfigError.at("per_dim", f"{fs.d} arrays long, one per dimension", str(len(per_dim)))
        self.per_dim = []
        for j, pj in enumerate(per_dim):
            pj = np.asarray(pj, dtype=float)
            if pj.size != fs.per_dimension_freqs[j].size:
                size = fs.per_dimension_freqs[j].size
                raise ConfigError.at(f"per_dim[{j}]", f"{size} numbers long, as dimension {j+1}", str(pj.size))
            _check_probabilities(pj)
            if abs(float(pj.sum()) - 1.0) > PROB_TOL * max(1, pj.size):
                raise ConfigError.at(f"per_dim[{j}]", "summing to 1", f"a sum of {float(pj.sum())!r}")
            self.per_dim.append(pj)
        self.cores = [pj[None, :, None] for pj in self.per_dim]

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        cols = []
        for j in range(self.fs.d):
            idx = gen.choice(self.per_dim[j].size, size=M, p=self.per_dim[j])
            cols.append(self.fs.per_dimension_freqs[j][idx])
        return fold_rows(np.stack(cols, axis=1))[0]

    def factors(self) -> list[np.ndarray]:
        return self.per_dim


class MpsDistribution(_TensorTrain):
    """Tensor-train pmf over the mirror lattice (cores hold probabilities,
    not amplitudes), folded onto the canonical half."""

    kind = "mps"

    def __init__(self, fs: FrequencySet, cores):
        super().__init__(fs)
        if len(cores) != fs.d:
            raise ConfigError.at("cores", f"{fs.d} arrays long, one per lattice dimension", str(len(cores)))
        self.cores = []
        bond = 1
        for j, core in enumerate(cores):
            core = np.asarray(core, dtype=float)
            if core.ndim != 3:
                raise ConfigError(f"core {j+1} must be a 3-d array")
            if core.shape[0] != bond:
                raise ConfigError.at(f"cores[{j}]", f"of left bond {bond}", f"shape {core.shape}")
            if core.shape[1] != fs.per_dimension_freqs[j].size:
                size = fs.per_dimension_freqs[j].size
                raise ConfigError.at(f"cores[{j}]", f"of {size} values, as dimension {j + 1}", str(core.shape))
            if not np.all(np.isfinite(core)):
                raise ConfigError(f"core {j+1} entries must be finite")
            if np.any(core < 0):
                raise ConfigError("core entries must be nonnegative")
            bond = core.shape[2]
            self.cores.append(core)
        if bond != 1:
            raise ConfigError.at(f"cores[{fs.d - 1}]", "of right bond 1", f"shape {core.shape}")
        # right sums out the dimensions after j, and env[j][a, k] =
        # sum_b core_j[a, k, b] right[b] weighs value k of dimension j given
        # left bond a: the environment matrices that sample reads
        right = np.ones(1)
        self.env = [None] * fs.d
        for j in range(fs.d - 1, -1, -1):
            self.env[j] = self.cores[j] @ right
            right = self.cores[j].sum(axis=1) @ right
        self.total_mass = float(right[0])
        if not np.isfinite(self.total_mass) or self.total_mass <= 0:
            raise DegenerateDistributionError(
                f"tensor train has total mass {self.total_mass}"
            )

    def sample(self, rng, M: int) -> np.ndarray:
        if M < 1:
            raise ValueError("M must be >= 1")
        gen = as_generator(rng)
        d = self.fs.d
        left = np.ones((M, 1))
        cols = []
        for j in range(d):
            weights = left @ self.env[j]
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


def _contraction_peak(shapes) -> int:
    """float64 entries that ``_enumerate`` holds at once when it contracts
    factors of these (left bond, values, right bond) shapes from the last
    one: each step holds the previous step's right-bond rows of trailing
    points and its own output of left x values x trailing points, plus, on
    a ``_contract`` step (a single trailing point) whose right bond exceeds
    1, one temporary of the output's size; an einsum step forms none.  The
    fold then holds the whole grid and the half."""
    peak, trailing = 0, 1
    for left, values, right in reversed(shapes):
        out = left * values * trailing
        peak = max(peak, right * trailing + (2 if right > 1 and trailing == 1 else 1) * out)
        trailing *= values
    return max(peak, trailing + (trailing + 1) // 2)


def _contract(core: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_b core[:, :, b] * right[b] over the third (bond) axis of ``core``,
    with one product and one sum per bond index in bond order: the rounding
    that ``_enumerate``'s einsum steps keep, taken by ``_tilde`` and by the
    enumeration's steps over a single trailing point, so that a contraction
    over gathered rows and one over the whole lattice round alike."""
    out = core[:, :, 0] * right[0]
    for b in range(1, core.shape[2]):
        out += core[:, :, b] * right[b]
    return out


def uniform_distribution(fs: FrequencySet, variant: str = "explicit") -> FrequencyDistribution:
    """Uniform frequency distribution, in one of two labeled variants.

    ``"explicit"`` puts exactly 1/|Omega| on every canonical frequency
    (requires materialization).  ``"product"`` is the fold of uniform
    per-dimension distributions: it puts 2/|full lattice| on every nonzero
    canonical frequency and 1/|full lattice| on zero, and never materializes
    the half.
    """
    if variant == "product":
        dist = ProductDistribution(
            fs,
            [np.full(f.size, 1.0 / f.size) for f in fs.per_dimension_freqs],
        )
    elif variant == "explicit":
        fs.require_materialized()
        m = fs.size
        dist = ExplicitDistribution(fs, fs.half, np.full(m, 1.0 / m))
    else:
        raise ConfigError(f"unknown uniform variant '{variant}'")
    dist.uniform_variant = variant
    return dist


def distribution_from_json(doc: dict, fs: FrequencySet) -> FrequencyDistribution:
    """Parse a distribution config document against a frequency set."""
    doc = read(doc, "object", "distribution")
    kind = read_field(doc, "kind", "string", choices=("explicit", "product", "mps", "uniform"))
    if kind == "explicit":
        support = read_field(doc, "support", "number", ndim=2)
        return ExplicitDistribution(fs, support, read_field(doc, "probs", "number", ndim=1, least=0))
    if kind == "product":
        per_dim = read_field(doc, "per_dim", "array")
        per_dim = [read(p, "number", f"per_dim[{j}]", ndim=1, least=0) for j, p in enumerate(per_dim)]
        return ProductDistribution(fs, per_dim)
    if kind == "mps":
        cores = read_field(doc, "cores", "array")
        cores = [read(c, "number", f"cores[{j}]", ndim=3, least=0) for j, c in enumerate(cores)]
        if "dims" in doc:
            actual = [c.shape[1] for c in cores]
            if read_field(doc, "dims", "integers", least=1) != actual:
                raise ConfigError.at("dims", f"{actual}, the cores' physical dimensions", show(doc["dims"]))
        return MpsDistribution(fs, cores)
    variant = read_field(doc, "variant", "string", choices=("explicit", "product"), default="explicit")
    return uniform_distribution(fs, variant)


def explicit_from_weights(fs: FrequencySet, weights) -> ExplicitDistribution:
    """Exact sampling distribution of a weight vector: p_i = w_i^2/||w||^2."""
    w = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    fs.require_materialized()
    if len(w) != fs.size:
        raise ValueError("weight vector length does not match the canonical half")
    p = distribution_of(w)
    keep = p > 0
    probs = p[keep] / p[keep].sum()
    return ExplicitDistribution(fs, fs.half[keep], probs)
