"""Frequency lattices generated by data-encoding strategies.

Each input dimension j carries a list of Hamiltonian spectra (the gates that
encode x_j).  The reachable frequencies along that dimension are all pairwise
differences of all eigenvalue sums, and the full lattice is the Cartesian
product over dimensions.  The lattice is mirror symmetric, so we fix a
canonical half (first nonzero component positive) whose indexing is stable
across runs and serialized artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError

# Absolute tolerance for treating two frequencies as equal.  Eigenvalue
# arithmetic happens at double precision; anything tighter is noise.
DEDUP_TOL = 1e-12

# Default caps: per-dimension difference sets and materialized lattices grow
# exponentially and must fail loudly instead of thrashing.
PER_DIM_CAP = 4096
LATTICE_CAP = 10**7

_INT_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianSpectrum:
    """Sorted eigenvalues of one encoding Hamiltonian (duplicates allowed)."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        if len(self.eigenvalues) == 0:
            raise ConfigError("spectrum must contain at least one eigenvalue")
        vals = tuple(float(v) for v in self.eigenvalues)
        if any(not np.isfinite(v) for v in vals):
            raise ConfigError("spectrum contains non-finite eigenvalues")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            vals = tuple(sorted(vals))
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class EncodingStrategy:
    """Per-dimension lists of Hamiltonian spectra.

    ``per_dimension[j]`` holds the spectra of the gates encoding x_{j+1};
    an empty list means that dimension is never encoded and contributes the
    frequency set {0}.
    """

    per_dimension: tuple[tuple[HamiltonianSpectrum, ...], ...]

    def __post_init__(self):
        if len(self.per_dimension) < 1:
            raise ConfigError("encoding strategy needs at least one dimension")
        object.__setattr__(
            self,
            "per_dimension",
            tuple(tuple(s for s in dim) for dim in self.per_dimension),
        )

    @property
    def d(self) -> int:
        return len(self.per_dimension)

    @classmethod
    def from_json(cls, doc: dict) -> "EncodingStrategy":
        """Parse ``{"dimensions": [[[e11, e12, ...], [e21, ...]], ...]}``."""
        try:
            dims = doc["dimensions"]
        except (KeyError, TypeError) as exc:
            raise ConfigError("encoding document must have a 'dimensions' array") from exc
        if not isinstance(dims, list) or not dims:
            raise ConfigError("'dimensions' must be a nonempty array")
        per_dim = []
        for dim in dims:
            if not isinstance(dim, list):
                raise ConfigError("each dimension must be an array of spectra")
            per_dim.append(tuple(HamiltonianSpectrum(tuple(spec)) for spec in dim))
        return cls(tuple(per_dim))

    def to_json(self) -> dict:
        return {
            "dimensions": [
                [list(s.eigenvalues) for s in dim] for dim in self.per_dimension
            ]
        }


def load_encoding(path: str) -> EncodingStrategy:
    with open(path, "r", encoding="utf-8") as fh:
        return EncodingStrategy.from_json(json.load(fh))


def _dedup_sorted(values: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """Collapse entries of a sorted array that are within ``tol`` of the
    previous kept entry."""
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(values), tol, out=keep[1:])
    return values[keep]


def component_frequency_set(
    spectra, cap: int = PER_DIM_CAP, tol: float = DEDUP_TOL
) -> np.ndarray:
    """All differences of all eigenvalue sums for one input dimension.

    Returns a sorted, deduplicated array.  Always contains 0 and is symmetric
    about 0 (a - b and b - a are exact negations in IEEE arithmetic).  An
    empty gate list yields {0}.
    """
    sums = np.zeros(1)
    for spec in spectra:
        eigs = np.asarray(spec.eigenvalues, dtype=float)
        if sums.size * eigs.size > 4_000_000:
            raise CapacityError(
                f"eigenvalue-sum enumeration exceeds 4e6 terms "
                f"({sums.size} x {eigs.size}); spectra too large"
            )
        sums = np.sort((sums[:, None] + eigs[None, :]).ravel())
        sums = _dedup_sorted(sums, tol)
    if sums.size * sums.size > 16_000_000:
        raise CapacityError(
            f"difference set would require {sums.size}^2 pairs; spectra too large"
        )
    diffs = np.sort((sums[:, None] - sums[None, :]).ravel())
    diffs = _dedup_sorted(diffs, tol)
    if diffs.size > cap:
        raise CapacityError(
            f"per-dimension frequency set has {diffs.size} entries (cap {cap})"
        )
    return diffs


def is_integer_valued(values) -> bool:
    """Whether every entry lies within ``_INT_TOL`` of an integer."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.abs(values - np.round(values)) <= _INT_TOL))


def canonical_fold(omega, tol: float = DEDUP_TOL):
    """Fold a frequency vector onto the canonical half-space.

    Returns ``(omega_canonical, sign)`` with ``sign * omega_canonical ==
    omega`` up to components below ``tol``, which are snapped to +0.0 (they
    are indistinguishable from zero under the dedup policy).  Canonical means
    the first component larger than ``tol`` in magnitude is positive; the
    zero vector maps to itself with sign +1.  Idempotent, and even:
    ``canonical_fold(-w) == canonical_fold(w)``.
    """
    w = np.asarray(omega, dtype=float).copy()
    w[np.abs(w) <= tol] = 0.0
    for v in w:
        if v != 0.0:
            if v > 0:
                return w, 1
            return -w, -1
    return w, 1


@dataclass
class FrequencySet:
    """Materialized (or lazy) frequency lattice of an encoding strategy.

    ``half`` holds the canonical representatives, sorted lexicographically,
    with the zero vector at index 0.  ``index`` maps the exact stored tuple
    of a canonical vector to its row in ``half``.  In lazy mode only the
    per-dimension sets are stored and ``half`` is ``None``.
    """

    per_dimension_freqs: list[np.ndarray]
    full_size: int
    half: np.ndarray | None
    is_integer: bool
    index: dict = field(repr=False, default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.per_dimension_freqs)

    @property
    def materialized(self) -> bool:
        return self.half is not None

    @property
    def size(self) -> int:
        """|Omega| of the canonical half."""
        return (self.full_size - 1) // 2 + 1

    @property
    def n_plus(self) -> int:
        return self.size - 1

    def require_materialized(self):
        if self.half is None:
            raise CapacityError(
                "operation requires a materialized frequency set; "
                "rebuild with materialize=True or use sampling workflows"
            )

    def max_abs_freq(self) -> np.ndarray:
        """Per-dimension maximum |frequency|."""
        return np.array([np.max(np.abs(f)) if f.size else 0.0 for f in self.per_dimension_freqs])

    def snap_component(self, j: int, value: float, tol: float = 1e-9) -> float:
        """Match ``value`` against dimension ``j``'s set within ``tol``."""
        freqs = self.per_dimension_freqs[j]
        pos = np.searchsorted(freqs, value)
        for cand in (pos - 1, pos):
            if 0 <= cand < freqs.size and abs(freqs[cand] - value) <= tol:
                return float(freqs[cand])
        raise ValueError(f"frequency component {value} not in lattice dimension {j+1}")

    def snap(self, omega, tol: float = 1e-9) -> tuple:
        w = np.asarray(omega, dtype=float)
        if w.shape != (self.d,):
            raise ValueError(f"frequency vector must have length {self.d}")
        return tuple(self.snap_component(j, w[j], tol) for j in range(self.d))

    def position(self, omega, tol: float = 1e-9) -> int:
        """Row of a canonical frequency vector in ``half``."""
        self.require_materialized()
        key = self.snap(omega, tol)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"frequency {tuple(omega)} is not in the canonical half") from None


def build_frequency_set(
    enc: EncodingStrategy,
    materialize: bool = True,
    cap: int = LATTICE_CAP,
    per_dim_cap: int = PER_DIM_CAP,
) -> FrequencySet:
    """Construct the frequency lattice of an encoding strategy.

    The canonical split puts a vector in the half iff it is zero or its first
    nonzero component is positive; this is deterministic across runs.
    """
    per_dim = [component_frequency_set(dim, cap=per_dim_cap) for dim in enc.per_dimension]
    full_size = 1
    for f in per_dim:
        full_size *= int(f.size)
    is_integer = all(is_integer_valued(f) for f in per_dim)
    if not materialize:
        return FrequencySet(per_dim, full_size, None, is_integer)
    if full_size > cap:
        raise CapacityError(
            f"full lattice has {full_size} points (cap {cap}); "
            "use lazy mode and sampling workflows"
        )
    d = len(per_dim)
    grids = np.meshgrid(*per_dim, indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=-1) if d > 0 else np.zeros((1, 0))
    mask = np.abs(lattice) > DEDUP_TOL
    has_nz = mask.any(axis=1)
    first_nz = np.argmax(mask, axis=1)
    first_val = lattice[np.arange(lattice.shape[0]), first_nz]
    canonical = ~has_nz | (first_val > 0)
    half = lattice[canonical]
    order = np.lexsort(tuple(half[:, j] for j in reversed(range(d))))
    half = np.ascontiguousarray(half[order])
    index = {tuple(row): i for i, row in enumerate(half)}
    fs = FrequencySet(per_dim, full_size, half, is_integer, index)
    if fs.size != half.shape[0]:
        raise AssertionError("mirror-pair accounting is inconsistent")
    if not np.all(np.abs(half[0]) <= DEDUP_TOL):
        raise AssertionError("zero frequency is not at index 0")
    return fs
