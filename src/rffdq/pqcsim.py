"""Dense statevector simulation of data-encoding circuits.

Ground truth for the rest of the package: circuits built from Pauli-word
rotations, fixed 1-2 qubit unitaries, and CNOT/CZ produce models
f(x) = <0| U(x, theta)^dag O U(x, theta) |0>, whose Fourier support lies on
the lattice generated by the encoding spectra.  On integer lattices the
spectrum is extracted exactly by propagating the state once as one vector
per state frequency (every encoding gate splits a vector into the halves
that keep and that shift its frequency), then summing the Gram matrix of
those vectors under the observable over frequency differences.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, NonIntegerFrequencyError
from .freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from .kernelmap import TrigPolynomial

MAX_QUBITS = 14
# frequency_components refuses a propagation buffer (prod_j K_j * 2^q
# amplitudes of 16 B) above this many bytes: a 15 x 15 box at 14 qubits
# takes 59 MB, three dimensions of ten scale-1 gates 2.4 GB
PROPAGATION_BYTES = 1 << 28
# spectral mass allowed off the encoding lattice before extraction fails
LEAK_TOL = 1e-9
_PAULIS = frozenset("IXYZ")


def _check_pauli(word: str, qubits: int, allow_identity: bool):
    if not word or len(word) != qubits:
        raise ConfigError(f"Pauli word '{word}' must have length {qubits}")
    if any(ch not in _PAULIS for ch in word):
        raise ConfigError(f"Pauli word '{word}' has characters outside IXYZ")
    if not allow_identity and all(ch == "I" for ch in word):
        raise ConfigError("encoding Pauli word must act on at least one qubit")


@dataclass(frozen=True)
class GateSpec:
    """One circuit element.

    kind: "encode" (pauli, scale, dim), "rot" (pauli, theta_index),
    "cnot"/"cz" (control, target), or "fixed" (qubits, matrix).
    """

    kind: str
    pauli: str = ""
    scale: float = 1.0
    dim: int = 0
    theta_index: int = -1
    control: int = -1
    target: int = -1
    qubits: tuple = ()
    matrix: np.ndarray | None = field(default=None, compare=False)


@dataclass
class Observable:
    """Real linear combination of Pauli words."""

    terms: list

    def __post_init__(self):
        cleaned = []
        for coef, word in self.terms:
            coef = float(coef)
            if not math.isfinite(coef):
                raise ConfigError("observable coefficients must be finite")
            cleaned.append((coef, str(word)))
        if not cleaned:
            raise ConfigError("observable needs at least one term")
        self.terms = cleaned

    @property
    def inf_norm_bound(self) -> float:
        """sum |coef|, an upper bound on the operator sup-norm."""
        return float(sum(abs(c) for c, _ in self.terms))


@dataclass
class Circuit:
    qubits: int
    gates: list

    def __post_init__(self):
        if not (1 <= self.qubits <= MAX_QUBITS):
            raise ConfigError(f"qubit count must be in 1..{MAX_QUBITS}")
        for g in self.gates:
            if g.kind in ("encode", "rot"):
                _check_pauli(g.pauli, self.qubits, allow_identity=(g.kind == "rot"))
                if g.kind == "encode":
                    if g.dim < 1:
                        raise ConfigError("encoding gates use 1-based data dimensions")
                    if not math.isfinite(g.scale):
                        raise ConfigError("encoding scale must be finite")
                else:
                    if g.theta_index < 0:
                        raise ConfigError("rotation gates need a parameter index")
            elif g.kind in ("cnot", "cz"):
                if not (0 <= g.control < self.qubits and 0 <= g.target < self.qubits):
                    raise ConfigError(f"{g.kind} gate references invalid qubits")
                if g.control == g.target:
                    raise ConfigError(f"{g.kind} control and target must differ")
            elif g.kind == "fixed":
                qs = tuple(g.qubits)
                if len(qs) not in (1, 2) or len(set(qs)) != len(qs):
                    raise ConfigError("fixed unitaries act on 1 or 2 distinct qubits")
                if any(not (0 <= q < self.qubits) for q in qs):
                    raise ConfigError("fixed unitary references invalid qubits")
                U = np.asarray(g.matrix, dtype=complex)
                dim = 2 ** len(qs)
                if U.shape != (dim, dim):
                    raise ConfigError(f"fixed unitary must be {dim}x{dim}")
                if np.max(np.abs(U.conj().T @ U - np.eye(dim))) > 1e-10:
                    raise ConfigError("fixed gate matrix is not unitary")
            else:
                raise ConfigError(f"unknown gate kind '{g.kind}'")

    @property
    def theta_count(self) -> int:
        """Parameters the rotation gates read: one past the largest index."""
        return max((g.theta_index for g in self.gates if g.kind == "rot"), default=-1) + 1

    @property
    def data_dim(self) -> int:
        return max((g.dim for g in self.gates if g.kind == "encode"), default=0)


def _pauli_gather(word: str, qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """A Pauli word in gather form: P |psi> = phases * psi[src].  Qubit 0 is
    the leftmost character and the most significant index bit."""
    idx = np.arange(2**qubits)
    xmask = 0
    phases = np.ones(idx.size, dtype=complex)
    for k, ch in enumerate(word):
        bitpos = qubits - 1 - k
        if ch == "I":
            continue
        bits = (idx >> bitpos) & 1
        if ch == "X":
            xmask |= 1 << bitpos
        elif ch == "Y":
            xmask |= 1 << bitpos
            phases = phases * (1j * (1.0 - 2.0 * bits))
        elif ch == "Z":
            phases = phases * (1.0 - 2.0 * bits)
    src = idx ^ xmask
    return src, phases[src]


def _apply_pauli(word, state: np.ndarray, factor: complex = 1.0) -> np.ndarray:
    """factor * P applied to the last axis of ``state``, as a new array."""
    src, phases = word
    out = np.take(state, src, axis=-1)
    out *= phases * factor
    return out


def _rotate(state: np.ndarray, pauli, angle: float) -> np.ndarray:
    """exp(-i angle P) on the last axis, in place: cos(angle) psi - i
    sin(angle) P psi; a ``None`` word is the identity."""
    if pauli is None:
        state *= np.exp(-1j * angle)
        return state
    turned = _apply_pauli(pauli, state, -1j * math.sin(angle))
    state *= math.cos(angle)
    state += turned
    return state


class CompiledCircuit:
    """A circuit lowered once to index and phase arrays: a gather plus phase
    vector per distinct Pauli word, one permutation-and-sign step per run of
    consecutive CNOT and CZ gates, a reshaped tensor per fixed unitary.

    ``run`` simulates one input x; ``frequency_components`` propagates the
    state for all x at once, one vector per state frequency.  Both apply
    gates through ``_apply``, which acts on the last axis of any array.
    """

    def __init__(self, c: Circuit):
        self.circuit = c
        q = c.qubits
        idx = np.arange(2**q)
        words: dict = {}
        self.steps = []
        for g in c.gates:
            if g.kind in ("encode", "rot"):
                if g.pauli not in words:
                    identity = all(ch == "I" for ch in g.pauli)
                    words[g.pauli] = None if identity else _pauli_gather(g.pauli, q)
                self.steps.append((g.kind, g, words[g.pauli]))
            elif g.kind in ("cnot", "cz"):
                # a run of CNOT and CZ gates is one step: out = sign * in[src],
                # either part None when it is the identity
                if not self.steps or self.steps[-1][0] != "perm":
                    self.steps.append(("perm", None, (None, None)))
                src, sign = self.steps[-1][2]
                cbit = (idx >> (q - 1 - g.control)) & 1
                if g.kind == "cnot":
                    perm = idx ^ (cbit << (q - 1 - g.target))
                    src = perm if src is None else src[perm]
                    sign = None if sign is None else sign[perm]
                else:
                    flip = 1.0 - 2.0 * (cbit & ((idx >> (q - 1 - g.target)) & 1))
                    sign = flip if sign is None else sign * flip
                self.steps[-1] = ("perm", None, (src, sign))
            elif g.kind == "fixed":
                k = len(g.qubits)
                Ut = np.asarray(g.matrix, dtype=complex).reshape([2] * (2 * k))
                self.steps.append(("fixed", g, Ut))

    def _theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.circuit.theta_count:
            raise ConfigError(f"need {self.circuit.theta_count} parameters, got {theta.size}")
        bad = ~np.isfinite(theta)
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"parameter theta[{i}] is not finite ({theta[i]})")
        return theta

    def _apply(self, step, state: np.ndarray, theta: np.ndarray, x) -> np.ndarray:
        """One gate on the last axis of ``state``, in place where the gate
        allows; returns the result."""
        kind, g, op = step
        if kind == "encode":
            return _rotate(state, op, g.scale * x[g.dim - 1])
        if kind == "rot":
            return _rotate(state, op, theta[g.theta_index] / 2.0)
        if kind == "perm":
            src, sign = op
            if src is not None:
                state = np.take(state, src, axis=-1)
            if sign is not None:
                state *= sign
            return state
        lead = state.ndim - 1
        k = len(g.qubits)
        axes = [lead + a for a in g.qubits]
        psi = state.reshape(state.shape[:lead] + (2,) * self.circuit.qubits)
        psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
        return np.moveaxis(psi, list(range(k)), axes).reshape(state.shape)

    def run(self, theta, x) -> np.ndarray:
        """Final statevector for parameters theta and input x."""
        c = self.circuit
        theta = self._theta(theta)
        x = np.asarray(x, dtype=float).ravel()
        if x.size < c.data_dim:
            raise ValueError(f"need {c.data_dim} input components, got {x.size}")
        state = np.zeros(2**c.qubits, dtype=complex)
        state[0] = 1.0
        for step in self.steps:
            state = self._apply(step, state, theta, x)
        return state

    def frequency_components(self, theta) -> np.ndarray:
        """The final state as psi(x) = e^{i phi(x)} sum_k e^{i k.x} psi_k over
        integer vectors k >= 0, with a global phase phi that no expectation
        sees: an array of shape (K_1, ..., K_d, 2^q) holding psi_k.

        Each encoding gate is exp(-i s x_j P) = e^{-i|s|x_j} (Pi_stay + e^{i m
        x_j} Pi_move) with m = 2|s| and Pi_stay = (I + sign(s) P)/2, so it
        keeps one half of psi_k at k and moves the other to k + m along axis
        j.  Requires every 2|s| to be an integer.  The buffer is allocated
        once at its final shape and updated in place, one slice of the
        occupied box at a time, so no temporary is larger than a slice.  A
        buffer above ``PROPAGATION_BYTES`` is a CapacityError, raised before
        anything is allocated.
        """
        c = self.circuit
        theta = self._theta(theta)
        d = max(c.data_dim, 1)
        shifts = [round(2.0 * abs(g.scale)) if kind == "encode" else 0 for kind, g, _ in self.steps]
        sizes = [1] * d
        for (kind, g, _), m in zip(self.steps, shifts):
            if kind == "encode":
                sizes[g.dim - 1] += m
        nbytes = 16 * math.prod(sizes) * 2**c.qubits
        if nbytes > PROPAGATION_BYTES:
            raise CapacityError(
                f"propagating {' x '.join(map(str, sizes))} state frequencies of {c.qubits} qubits "
                f"needs {nbytes / 2**20:.0f} MiB, above PROPAGATION_BYTES ({PROPAGATION_BYTES / 2**20:.0f} MiB)"
            )
        buf = np.zeros((*sizes, 2**c.qubits), dtype=complex)
        buf[(0,) * (d + 1)] = 1.0
        hi = [0] * d  # highest occupied index per axis
        for step, m in zip(self.steps, shifts):
            kind, g, op = step
            box = tuple(slice(0, h + 1) for h in hi)
            if kind == "encode":
                if m == 0:
                    continue
                j = g.dim - 1
                sign = 1.0 if g.scale > 0 else -1.0
                # descending, so each target row is done before it receives
                for t in range(hi[j], -1, -1):
                    here = box[:j] + (t,) + box[j + 1 :]
                    part = buf[here]
                    moved = _apply_pauli(op, part, -sign)
                    moved += part
                    moved *= 0.5
                    buf[box[:j] + (t + m,) + box[j + 1 :]] += moved
                    part -= moved
                hi[j] += m
            else:
                axis = int(np.argmax(hi))
                for t in range(hi[axis] + 1):
                    here = box[:axis] + (t,) + box[axis + 1 :]
                    part = buf[here]
                    out = self._apply(step, part, theta, None)
                    if out is not part:
                        buf[here] = out
        return buf


class CompiledObservable:
    """An observable's Pauli terms in gather form, validated once.

    Terms whose words flip the same qubits (one X-mask) gather from the same
    source indices, so each such group is one gather and one summed phase
    vector; the group of I/Z-only words, mask 0, needs no gather.
    """

    def __init__(self, obs: Observable, qubits: int):
        groups: dict[int, tuple] = {}
        for coef, word in obs.terms:
            _check_pauli(word, qubits, allow_identity=True)
            src, phases = _pauli_gather(word, qubits)
            mask = int(src[0])  # src = index ^ mask
            if mask in groups:
                summed = groups[mask][1]
                summed += coef * phases
            else:
                groups[mask] = (None if mask == 0 else src, coef * phases)
        self.groups = list(groups.values())

    def apply(self, states: np.ndarray) -> np.ndarray:
        """O applied to the last axis of ``states``, as a new array."""
        out = None
        for src, phases in self.groups:
            part = states * phases if src is None else _apply_pauli((src, phases), states)
            if out is None:
                out = part
            else:
                out += part
        return out

    def expectation(self, state: np.ndarray) -> float:
        val = np.vdot(state, self.apply(state))
        if abs(val.imag) > 1e-10:
            raise FloatingPointError(f"expectation has imaginary residue {val.imag}")
        return float(val.real)

    def gram(self, rows: np.ndarray, block: int) -> np.ndarray:
        """G[a, b] = <rows_a|O|rows_b> for the rows of a 2-d array, with O
        applied to ``block`` rows at a time."""
        K = rows.shape[0]
        out = np.empty((K, K), dtype=complex)
        for r in range(0, K, block):
            applied = self.apply(rows[r : r + block])
            # rows @ conj(O chunk)^T is the conjugate of the wanted columns
            out[:, r : r + block] = np.conj(rows @ np.conj(applied).T)
        return out


def evaluate_model(c: Circuit, obs: Observable, theta, x) -> float:
    """f(x) = <0| U(x, theta)^dag O U(x, theta) |0>."""
    return CompiledObservable(obs, c.qubits).expectation(CompiledCircuit(c).run(theta, x))


def encoding_of(c: Circuit) -> EncodingStrategy:
    """Encoding strategy realized by the circuit: per data dimension, one
    spectrum {-s, +s} for each scaled-Pauli encoding gate."""
    d = max(c.data_dim, 1)
    per_dim: list[list[HamiltonianSpectrum]] = [[] for _ in range(d)]
    for g in c.gates:
        if g.kind != "encode":
            continue
        s = float(g.scale)
        per_dim[g.dim - 1].append(HamiltonianSpectrum(tuple(sorted((-s, s)))))
    return EncodingStrategy(tuple(tuple(dim) for dim in per_dim))


def extract_trig_polynomial(c: Circuit, obs: Observable, theta) -> TrigPolynomial:
    """Exact Fourier coefficients of the circuit's model.

    The state is propagated once as one vector psi_k per state frequency
    (``CompiledCircuit.frequency_components``), so f(x) = sum_{k, k'}
    e^{i (k - k').x} <psi_k'|O|psi_k> and c_w sums the Gram matrix of the
    psi_k over index differences k - k' = w.  Requires an integer frequency
    lattice.  Mass off the encoding lattice above ``LEAK_TOL``, or a
    pair c_w, conj(c_-w) more than 1e-10 apart, raises FloatingPointError.
    """
    fs = build_frequency_set(encoding_of(c))
    # the Gram below grows with the square of the lattice, so a lattice
    # beyond the cap must fail before it is allocated
    fs.require_materialized()
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "spectrum extraction requires integer frequencies"
        )
    psi = CompiledCircuit(c).frequency_components(theta)
    sizes = psi.shape[:-1]
    rows = psi.reshape(-1, psi.shape[-1])
    gram = CompiledObservable(obs, c.qubits).gram(rows, rows.shape[0] // max(sizes))
    # c_w on the box |w_j| <= K_j - 1, stored at w + K - 1; gram[k', k] adds to w = k - k'
    reach = np.asarray(sizes) - 1
    box = tuple(2 * reach + 1)
    index = np.indices(sizes).reshape(len(sizes), -1)
    pos = np.ravel_multi_index(tuple(k[None, :] - k[:, None] + r for k, r in zip(index, reach)), box)
    coeff = np.bincount(pos.ravel(), weights=gram.real.ravel(), minlength=math.prod(box))
    coeff = coeff + 1j * np.bincount(pos.ravel(), weights=gram.imag.ravel(), minlength=coeff.size)
    coeff = coeff.reshape(box)

    members = [
        np.isin(np.arange(-r, r + 1), np.rint(f)) for r, f in zip(reach, fs.per_dimension_freqs)
    ]
    on_lattice = functools.reduce(np.logical_and.outer, members)
    leak = np.abs(coeff[~on_lattice])
    worst_leak = float(leak.max()) if leak.size else 0.0
    if worst_leak > LEAK_TOL:
        raise FloatingPointError(
            f"spectral mass {worst_leak:.3e} outside the encoding lattice"
        )

    half_index = np.rint(fs.half).astype(np.intp)
    cpos = coeff[tuple((reach + half_index).T)]
    cneg = coeff[tuple((reach - half_index).T)]
    broken = np.abs(np.conj(cneg) - cpos) > 1e-10
    if broken.any():
        i = int(np.argmax(broken))
        raise FloatingPointError(
            f"conjugate symmetry violated at {tuple(fs.half[i].tolist())}: "
            f"{complex(cpos[i])} vs conj({complex(cneg[i])})"
        )
    cval = 0.5 * (cpos + np.conj(cneg))
    keep = np.flatnonzero(np.abs(cval) > 1e-14)
    return TrigPolynomial.on_rows(fs, keep, cval[keep])


def circuit_from_json(doc: dict) -> tuple[Circuit, Observable]:
    """Parse a circuit document (gates plus embedded observable)."""
    try:
        qubits = int(doc["qubits"])
        raw_gates = doc["gates"]
        raw_obs = doc["observable"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("circuit document needs 'qubits', 'gates', 'observable'") from exc
    gates = []
    for g in raw_gates:
        kind = g.get("kind")
        if kind == "encode":
            gates.append(
                GateSpec(
                    "encode",
                    pauli=g["pauli"],
                    scale=float(g.get("scale", 1.0)),
                    dim=int(g.get("dim", 1)),
                )
            )
        elif kind == "rot":
            gates.append(GateSpec("rot", pauli=g["pauli"], theta_index=int(g["theta"])))
        elif kind in ("cnot", "cz"):
            gates.append(GateSpec(kind, control=int(g["c"]), target=int(g["t"])))
        elif kind == "fixed":
            mat = np.asarray(
                [[complex(cell[0], cell[1]) for cell in row] for row in g["matrix"]]
            )
            gates.append(GateSpec("fixed", qubits=tuple(g["qubits"]), matrix=mat))
        else:
            raise ConfigError(f"unknown gate kind '{kind}'")
    obs = Observable([(t["coef"], t["pauli"]) for t in raw_obs["terms"]])
    circuit = Circuit(qubits, gates)
    for coef, word in obs.terms:
        _check_pauli(word, qubits, allow_identity=True)
    return circuit, obs


def load_circuit(path: str) -> tuple[Circuit, Observable]:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_json(json.load(fh))
