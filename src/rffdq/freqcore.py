"""Frequency lattices generated by data-encoding strategies.

Each input dimension j carries a list of Hamiltonian spectra (the gates that
encode x_j).  The reachable frequencies along that dimension are all pairwise
differences of all eigenvalue sums, and the full lattice is the Cartesian
product over dimensions.  The lattice is mirror symmetric, so we fix a
canonical half (first nonzero component positive), which is the upper half
of the range of mixed-radix codes.  A lattice point is addressed by its
per-dimension positions and their code; every lookup (snapping a frequency
to the lattice, finding its row in the half) is one vectorized pass over an
array of rows, with one 1e-9 matching rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, read, read_field

# Absolute tolerance for treating two frequencies as equal.  Eigenvalue
# arithmetic happens at double precision; anything tighter is noise.
DEDUP_TOL = 1e-12

# Caps: per-dimension difference sets and canonical halves grow
# exponentially and must fail loudly instead of thrashing.
PER_DIM_CAP = 4096
LATTICE_CAP = 10**7

_INT_TOL = 1e-12

# The one rule for matching a frequency component to a lattice value.
MATCH_TOL = 1e-9


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
        dims = read_field(read(doc, "object", "encoding"), "dimensions", "array", nonempty=True)
        return cls(tuple(
            tuple(
                HamiltonianSpectrum(tuple(read(spec, "number", f"dimensions[{j}][{k}]", ndim=1, nonempty=True)))
                for k, spec in enumerate(read(dim, "array", f"dimensions[{j}]"))
            )
            for j, dim in enumerate(dims)
        ))

    def to_json(self) -> dict:
        return {
            "dimensions": [
                [list(s.eigenvalues) for s in dim] for dim in self.per_dimension
            ]
        }


def _dedup_sorted(values: np.ndarray) -> np.ndarray:
    """Collapse each cluster of a sorted nonempty array (a maximal run of
    neighbour gaps within ``DEDUP_TOL``) to its member of smallest magnitude.
    Clusters and the members kept are mirror invariant, so a symmetric set
    holding 0 stays symmetric and keeps 0."""
    starts = np.concatenate([[True], np.diff(values) > DEDUP_TOL])
    # within each cluster, in cluster order, the smallest magnitude first
    return values[np.lexsort((np.abs(values), np.cumsum(starts)))[starts]]


def component_frequency_set(spectra) -> np.ndarray:
    """All differences of all eigenvalue sums for one input dimension.

    Returns a sorted, deduplicated array.  Always contains 0 and is exactly
    symmetric about 0 (a - b and b - a are exact negations in IEEE
    arithmetic, and the dedup keeps mirrored members).  An empty gate list
    yields {0}.  More than ``PER_DIM_CAP`` entries raise CapacityError.
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
        sums = _dedup_sorted(sums)
    if sums.size * sums.size > 16_000_000:
        raise CapacityError(
            f"difference set would require {sums.size}^2 pairs; spectra too large"
        )
    diffs = np.sort((sums[:, None] - sums[None, :]).ravel())
    diffs = _dedup_sorted(diffs)
    if diffs.size > PER_DIM_CAP:
        raise CapacityError(
            f"per-dimension frequency set has {diffs.size} entries (cap {PER_DIM_CAP})"
        )
    return diffs


def is_integer_valued(values) -> bool:
    """Whether every entry lies within ``_INT_TOL`` of an integer."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.abs(values - np.round(values)) <= _INT_TOL))


def fold_rows(rows):
    """Fold each row of ``rows`` onto the canonical half-space.

    Returns ``(folded, flipped)``: components within ``DEDUP_TOL`` of zero become
    +0.0 (they are indistinguishable from zero under the dedup policy), and
    a row whose first remaining nonzero component is negative is negated and
    flagged.  Idempotent, and even: ``-rows`` folds to the same rows.
    """
    rows = np.asarray(rows, dtype=float)
    rows = np.where(np.abs(rows) <= DEDUP_TOL, 0.0, rows)
    nonzero = rows != 0.0
    first = rows[np.arange(rows.shape[0]), np.argmax(nonzero, axis=1)]
    flipped = nonzero.any(axis=1) & (first < 0)
    # + 0.0 turns the -0.0 that negation leaves in zero components into 0.0
    return np.where(flipped[:, None], -rows, rows) + 0.0, flipped


@dataclass
class FrequencySet:
    """Frequency lattice of an encoding strategy.

    A lattice point is addressed by its per-dimension positions (``locate``)
    and by their mixed-radix ``code``, its index in the row-major
    enumeration of the full lattice, which is lexicographic order.  Every
    per-dimension set is sorted, symmetric about zero and of odd size, so
    the zero vector has code ``zero_code`` = (full_size - 1) / 2 and -omega
    has code ``full_size - 1 - code(omega)`` (the mirror identity, checked
    by ``build_frequency_set``).  A point is canonical (zero, or first
    nonzero component positive) exactly when it is lexicographically at
    least the zero vector, that is when its code is at least ``zero_code``,
    and its row in the canonical half is ``code - zero_code``.

    ``half`` holds the canonical points in row order, the zero vector at
    row 0.  It is formed the first time it is read, and only on a lattice
    of at most ``LATTICE_CAP`` points (``materialized``); beyond it that
    read raises CapacityError, while everything that needs only the
    per-dimension sets (locating, coding, row lookup, sampling) still runs.
    ``encoding`` is the strategy that ``build_frequency_set`` read.
    """

    per_dimension_freqs: list[np.ndarray]
    full_size: int
    is_integer: bool
    encoding: EncodingStrategy | None = field(default=None, compare=False, repr=False)
    _half: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def d(self) -> int:
        return len(self.per_dimension_freqs)

    @property
    def materialized(self) -> bool:
        """Whether the canonical half can be formed: the full lattice has at
        most ``LATTICE_CAP`` points."""
        return self.full_size <= LATTICE_CAP

    @property
    def half(self) -> np.ndarray:
        """Canonical representatives, shape ``(size, d)``, in code order."""
        self.require_materialized()
        return self._half

    @property
    def zero_code(self) -> int:
        """Code of the zero vector, the first canonical code."""
        return (self.full_size - 1) // 2

    @property
    def size(self) -> int:
        """|Omega| of the canonical half."""
        return self.full_size - self.zero_code

    def require_within_cap(self):
        """Raise CapacityError on a lattice of more than ``LATTICE_CAP``
        points, whose canonical half cannot be formed; forms nothing."""
        if not self.materialized:
            raise CapacityError(
                f"full lattice has {self.full_size} points (cap {LATTICE_CAP}); "
                "this operation needs its canonical half"
            )

    def require_materialized(self):
        """Form ``half`` if it is not formed yet; a lattice of more than
        ``LATTICE_CAP`` points raises CapacityError."""
        if self._half is not None:
            return
        self.require_within_cap()
        # decode the canonical codes one dimension at a time, last first
        half = np.empty((self.size, self.d))
        rest = np.arange(self.zero_code, self.full_size)
        for j in range(self.d - 1, -1, -1):
            f = self.per_dimension_freqs[j]
            rest, k = np.divmod(rest, f.size)
            half[:, j] = f[k]
        self._half = half

    def max_abs_freq(self) -> np.ndarray:
        """Per-dimension maximum |frequency|."""
        return np.array([np.max(np.abs(f)) if f.size else 0.0 for f in self.per_dimension_freqs])

    def locate(self, rows) -> np.ndarray:
        """Per-dimension positions of the components of each row of
        ``rows`` (shape ``(n, d)``), matched within ``MATCH_TOL``; raises
        ValueError for the first component that is in no lattice dimension."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise ValueError(f"frequency vector must have length {self.d}")
        out = np.empty(rows.shape, dtype=np.intp)
        for j, (freqs, vals) in enumerate(zip(self.per_dimension_freqs, rows.T)):
            pos = np.searchsorted(freqs, vals)
            below = np.clip(pos - 1, 0, freqs.size - 1)
            at = np.minimum(pos, freqs.size - 1)
            idx = np.where(np.abs(freqs[below] - vals) <= MATCH_TOL, below, at)
            # NaN compares false both ways: only a match within MATCH_TOL is on
            off = ~(np.abs(freqs[idx] - vals) <= MATCH_TOL)
            if off.any():
                i = np.argmax(off)
                raise ValueError(f"frequency {rows[i].tolist()}: {vals[i]} not in lattice dimension {j+1}")
            out[:, j] = idx
        return out

    def mirror(self, idx) -> np.ndarray:
        """Per-dimension positions of -omega for the points at ``idx`` (the
        mirror identity)."""
        sizes = np.array([f.size for f in self.per_dimension_freqs])
        return sizes - 1 - np.asarray(idx)

    def at(self, idx) -> np.ndarray:
        """Lattice points at per-dimension positions ``idx``."""
        cols = zip(self.per_dimension_freqs, np.asarray(idx).T)
        return np.stack([f[k] for f, k in cols], axis=-1)

    def code(self, idx) -> np.ndarray:
        """Mixed-radix codes of per-dimension positions; Python integers
        (object dtype) when the full lattice does not fit in int64."""
        idx = np.asarray(idx)
        dtype = np.int64 if self.full_size < 2**63 else object
        out = np.zeros(idx.shape[0], dtype=dtype)
        for f, k in zip(self.per_dimension_freqs, idx.T):
            out = out * f.size + k.astype(dtype)
        return out

    def half_rows(self, idx) -> np.ndarray:
        """Row in ``half`` of each located lattice point, -1 where the point
        is not canonical."""
        rows = self.code(idx) - self.zero_code
        return np.where(rows >= 0, rows, -1)

    def snap(self, omega) -> tuple:
        """The lattice point within ``MATCH_TOL`` of one frequency vector."""
        idx = self.locate(np.asarray(omega, dtype=float)[None])
        return tuple(self.at(idx)[0].tolist())

    def position(self, omega) -> int:
        """Row of a canonical frequency vector in ``half``."""
        row = int(self.half_rows(self.locate(np.atleast_2d(omega)))[0])
        if row < 0:
            key = tuple(np.asarray(omega, dtype=float).tolist())
            raise ValueError(f"frequency {key} is not in the canonical half")
        return row


def build_frequency_set(enc: EncodingStrategy) -> FrequencySet:
    """Construct the frequency lattice of an encoding strategy.

    The canonical split puts a vector in the half iff it is zero or its first
    nonzero component is positive; this is deterministic across runs.  The
    half itself is formed when an operation first reads it.
    """
    per_dim = [component_frequency_set(dim) for dim in enc.per_dimension]
    for f in per_dim:
        # the mirror identity and the canonical code range rest on this
        if f.size % 2 == 0 or np.any(np.diff(f) <= 0) or not np.array_equal(f, -f[::-1]):
            raise AssertionError("per-dimension frequency set is not odd, sorted and symmetric")
    full_size = 1
    for f in per_dim:
        full_size *= int(f.size)
    return FrequencySet(per_dim, full_size, all(is_integer_valued(f) for f in per_dim), enc)
