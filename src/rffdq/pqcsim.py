"""Dense statevector simulation of data-encoding circuits.

Ground truth for the rest of the package: circuits built from Pauli-word
rotations, fixed 1-2 qubit unitaries, and CNOT/CZ produce models
f(x) = <0| U(x, theta)^dag O U(x, theta) |0>, whose Fourier support lies on
the lattice generated by the encoding spectra.  Spectra are extracted by a
dense multidimensional DFT, which is exact for integer frequency lattices on
a large enough grid and independent of the circuit structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonIntegerFrequencyError
from .freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from .kernelmap import TrigPolynomial

MAX_QUBITS = 14
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
    theta_count: int = 0

    def __post_init__(self):
        if not (1 <= self.qubits <= MAX_QUBITS):
            raise ConfigError(f"qubit count must be in 1..{MAX_QUBITS}")
        max_theta = -1
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
                    max_theta = max(max_theta, g.theta_index)
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
        if self.theta_count == 0:
            self.theta_count = max_theta + 1

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


def _rotate(state: np.ndarray, pauli, angle: float) -> np.ndarray:
    """exp(-i angle P) |psi> = cos(angle) |psi> - i sin(angle) P |psi>; a
    ``None`` word is the identity."""
    if pauli is None:
        return np.exp(-1j * angle) * state
    src, phases = pauli
    return math.cos(angle) * state - 1j * math.sin(angle) * (phases * state[src])


class CompiledCircuit:
    """A circuit lowered once to index and phase arrays, then run for any
    (theta, x): a gather plus phase vector per Pauli word, a source
    permutation per CNOT, a sign vector per CZ, a reshaped tensor per fixed
    unitary."""

    def __init__(self, c: Circuit):
        self.circuit = c
        q = c.qubits
        idx = np.arange(2**q)
        self.steps = []
        for g in c.gates:
            if g.kind in ("encode", "rot"):
                word = None if all(ch == "I" for ch in g.pauli) else _pauli_gather(g.pauli, q)
                self.steps.append((g.kind, g, word))
            elif g.kind == "cnot":
                cbit = (idx >> (q - 1 - g.control)) & 1
                self.steps.append(("cnot", g, idx ^ (cbit << (q - 1 - g.target))))
            elif g.kind == "cz":
                both = ((idx >> (q - 1 - g.control)) & 1) & ((idx >> (q - 1 - g.target)) & 1)
                self.steps.append(("cz", g, 1.0 - 2.0 * both))
            elif g.kind == "fixed":
                k = len(g.qubits)
                Ut = np.asarray(g.matrix, dtype=complex).reshape([2] * (2 * k))
                self.steps.append(("fixed", g, Ut))

    def run(self, theta, x) -> np.ndarray:
        """Final statevector for parameters theta and input x."""
        c = self.circuit
        theta = np.asarray(theta, dtype=float).ravel()
        x = np.asarray(x, dtype=float).ravel()
        if theta.size < c.theta_count:
            raise ValueError(f"need {c.theta_count} parameters, got {theta.size}")
        if x.size < c.data_dim:
            raise ValueError(f"need {c.data_dim} input components, got {x.size}")
        state = np.zeros(2**c.qubits, dtype=complex)
        state[0] = 1.0
        for kind, g, op in self.steps:
            if kind == "encode":
                state = _rotate(state, op, g.scale * x[g.dim - 1])
            elif kind == "rot":
                state = _rotate(state, op, theta[g.theta_index] / 2.0)
            elif kind == "cnot":
                state = state[op]
            elif kind == "cz":
                state = state * op
            else:
                axes = list(g.qubits)
                k = len(axes)
                psi = state.reshape([2] * c.qubits)
                psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
                state = np.moveaxis(psi, list(range(k)), axes).reshape(-1)
        return state


class CompiledObservable:
    """An observable's Pauli terms in gather form, validated once."""

    def __init__(self, obs: Observable, qubits: int):
        self.terms = []
        for coef, word in obs.terms:
            _check_pauli(word, qubits, allow_identity=True)
            self.terms.append((coef, _pauli_gather(word, qubits)))

    def expectation(self, state: np.ndarray) -> float:
        val = 0.0 + 0.0j
        for coef, (src, phases) in self.terms:
            val += coef * np.vdot(state, phases * state[src])
        if abs(val.imag) > 1e-10:
            raise FloatingPointError(f"expectation has imaginary residue {val.imag}")
        return float(val.real)


def run_circuit(c: Circuit, theta, x) -> np.ndarray:
    """Final statevector for parameters theta and input x."""
    return CompiledCircuit(c).run(theta, x)


def expectation(state: np.ndarray, obs: Observable, qubits: int) -> float:
    return CompiledObservable(obs, qubits).expectation(state)


def evaluate_model(c: Circuit, obs: Observable, theta, x) -> float:
    """f(x) = <0| U(x, theta)^dag O U(x, theta) |0>."""
    return expectation(run_circuit(c, theta, x), obs, c.qubits)


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


def extract_trig_polynomial(
    c: Circuit,
    obs: Observable,
    theta,
    grid_per_dim: int | None = None,
    out_of_set_tol: float = 1e-9,
) -> TrigPolynomial:
    """Exact Fourier coefficients of the circuit's model via a dense DFT.

    Requires an integer frequency lattice.  The grid must exceed twice the
    maximal per-dimension frequency; the default adds two bins of headroom so
    that off-lattice leakage (which must vanish) is actually observable.
    """
    enc = encoding_of(c)
    fs = build_frequency_set(enc)
    if not fs.is_integer:
        raise NonIntegerFrequencyError(
            "spectrum extraction by DFT requires integer frequencies"
        )
    d = fs.d
    max_freq = [int(round(m)) for m in fs.max_abs_freq()]
    if grid_per_dim is None:
        sizes = [2 * f + 3 for f in max_freq]
    else:
        sizes = [int(grid_per_dim)] * d
        for f, N in zip(max_freq, sizes):
            if N < 2 * f + 1:
                raise ValueError(
                    f"grid {N} aliases frequencies up to {f}; need at least {2*f+1}"
                )
    axes = [2.0 * np.pi * np.arange(N) / N for N in sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    program, observable = CompiledCircuit(c), CompiledObservable(obs, c.qubits)
    vals = np.array([observable.expectation(program.run(theta, p)) for p in pts]).reshape(sizes)
    coeff = np.fft.fftn(vals) / vals.size

    def _on_lattice(k: tuple) -> bool:
        for j in range(d):
            try:
                fs.snap_component(j, k[j])
            except ValueError:
                return False
        return True

    worst_leak = 0.0
    for index in np.ndindex(*sizes):
        k = tuple(
            float(((index[j] + sizes[j] // 2) % sizes[j]) - sizes[j] // 2)
            for j in range(d)
        )
        if not _on_lattice(k):
            worst_leak = max(worst_leak, abs(complex(coeff[index])))
    if worst_leak > out_of_set_tol:
        raise FloatingPointError(
            f"spectral mass {worst_leak:.3e} outside the encoding lattice"
        )

    half: dict[tuple, complex] = {}
    for row in fs.half:
        pos_bin = tuple(int(round(v)) % N for v, N in zip(row, sizes))
        neg_bin = tuple(int(round(-v)) % N for v, N in zip(row, sizes))
        cpos = complex(coeff[pos_bin])
        cneg = complex(coeff[neg_bin])
        if abs(np.conj(cneg) - cpos) > 1e-10:
            raise FloatingPointError(
                f"conjugate symmetry violated at {tuple(row)}: {cpos} vs conj({cneg})"
            )
        cval = 0.5 * (cpos + np.conj(cneg))
        if abs(cval) > 1e-14:
            half[tuple(float(v) for v in row)] = cval
    return TrigPolynomial.from_half_coeffs(fs, half)


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
