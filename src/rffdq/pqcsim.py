"""Dense statevector simulation of data-encoding circuits.

Ground truth for the rest of the package: circuits built from Pauli-word
rotations, fixed 1-2 qubit unitaries, and CNOT/CZ produce models
f(x) = <0| U(x, theta)^dag O U(x, theta) |0>, whose Fourier support lies on
the lattice generated by the encoding spectra.  A circuit compiles to a
program in which each run of encodings with no other step between them is
one shift.  In the eigenbasis of its Pauli word, an encoding keeps one
parity class of amplitudes at its state frequency and moves the other by
2|s|, so a run moves each basis index by one frequency offset.  The
x-independent one-qubit gates between two other steps fuse into one
Kronecker block, and each run of CNOT and CZ gates is
one permutation.  On integer lattices the spectrum is extracted exactly by
propagating the state once as one vector per state frequency, then summing
the Gram matrix of those vectors under the observable over frequency
differences.  The propagation is float64 when every block, rotation and
fixed gate is real at the given theta, as for X encodings with Y rotations
and CNOT ladders, and complex128 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapacityError, ConfigError, NonIntegerFrequencyError, read, read_field, show
from .freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set, is_integer_valued
from .kernelmap import TrigPolynomial

MAX_QUBITS = 14
# frequency_components refuses a propagation buffer (prod_j K_j * 2^q
# amplitudes of 8 B when real, 16 B when complex) above this many bytes: a
# complex 15 x 15 box at 14 qubits takes 59 MB, three dimensions of ten
# scale-1 gates 1.2 GB real
PROPAGATION_BYTES = 1 << 28
# spectral mass allowed off the encoding lattice before extraction fails
LEAK_TOL = 1e-9
# extracted coefficients at or below this magnitude leave the support: where
# a coefficient is exactly zero, the Gram sum of unit-norm state vectors
# leaves a rounding residue orders of magnitude below it, and a term that a
# model carries is far above it
SUPPORT_TOL = 1e-14
_PAULIS = frozenset("IXYZ")


def _check_pauli(word: str, qubits: int, allow_identity: bool, path: str):
    """Refuse a malformed word, naming ``path``, the field it came from."""
    if len(word) != qubits or any(ch not in _PAULIS for ch in word):
        raise ConfigError.at(path, f"a Pauli word of {qubits} letters from IXYZ", show(word))
    if not allow_identity and all(ch == "I" for ch in word):
        raise ConfigError.at(path, "an encoding Pauli word, acting on at least one qubit", show(word))


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
        # a document's terms are checked by circuit_from_json
        self.terms = [(float(coef), str(word)) for coef, word in self.terms]

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
            raise ConfigError.at("qubits", f"in 1..{MAX_QUBITS}", show(self.qubits))
        for i, g in enumerate(self.gates):
            at = f"gate {i}."
            if g.kind in ("encode", "rot"):
                _check_pauli(g.pauli, self.qubits, allow_identity=(g.kind == "rot"), path=at + "pauli")
            elif g.kind in ("cnot", "cz"):
                for key, q in (("c", g.control), ("t", g.target)):
                    if not 0 <= q < self.qubits:
                        raise ConfigError.at(at + key, f"a qubit in 0..{self.qubits - 1}", show(q))
                if g.control == g.target:
                    raise ConfigError.at(at + "t", f"a qubit other than c = {g.control}", show(g.target))
            elif g.kind == "fixed":
                qs = list(g.qubits)
                if len(qs) not in (1, 2) or len(set(qs)) != len(qs) or not set(qs) <= set(range(self.qubits)):
                    raise ConfigError.at(at + "qubits", f"1 or 2 distinct qubits < {self.qubits}", show(qs))
                U = np.asarray(g.matrix, dtype=complex)
                dim = 2 ** len(qs)
                if U.shape != (dim, dim):
                    raise ConfigError.at(at + "matrix", f"{dim} x {dim}", show(U.shape))
                if np.max(np.abs(U.conj().T @ U - np.eye(dim))) > 1e-10:
                    raise ConfigError.at(at + "matrix", "unitary", "a matrix that is not")
            else:
                raise ConfigError.at(at + "kind", "encode, rot, cnot, cz or fixed", show(g.kind))

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


_IDENTITY = np.eye(2, dtype=complex)
# -i P, so that exp(-i a P) = cos(a) I + sin(a) (-i P)
_MINUS_I_PAULI = {
    "X": np.array([[0, -1j], [-1j, 0]]),
    "Y": np.array([[0, -1], [1, 0]], dtype=complex),
    "Z": np.array([[-1j, 0], [0, 1j]]),
}
# P = W Z W^dag with the eigenvectors of P as the columns of W, so an encoding
# exp(-i s x P) is W exp(-i s x Z) W^dag; a Z factor needs no basis change
_EIGENBASIS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "Y": np.array([[1.0, 1.0], [1j, -1j]]) / math.sqrt(2.0),
}
_EIGENBASIS_DAG = {ch: w.conj().T for ch, w in _EIGENBASIS.items()}


def _one_qubit_matrix(factors, theta: np.ndarray) -> np.ndarray:
    """The product of a qubit's factors in time order: 2x2 matrices, and
    (Pauli, index) pairs for the rotations exp(-i theta[index]/2 P)."""
    out = _IDENTITY
    for f in factors:
        if isinstance(f, tuple):
            ch, i = f
            half = theta[i] / 2.0
            f = math.cos(half) * _IDENTITY + math.sin(half) * _MINUS_I_PAULI[ch]
        out = f @ out
    return out


def _kron(mats: list) -> np.ndarray:
    """Kronecker product of 2x2 matrices, the first on the most significant
    index bit."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(out), 2 * len(out))
    return out


def _gemm(X: np.ndarray, a: int, b: int, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """U on qubits a..b-1 of the last axis of X (size 2^q), as one matrix
    product batched over the leading axes; into ``out`` when given."""
    q = X.shape[-1].bit_length() - 1
    if b == q:  # the trailing qubits: multiply from the right
        shape = X.shape[:-1] + (2**a, 2 ** (q - a))
        left, right = X.reshape(shape), U.T
    else:
        shape = X.shape[:-1] + (2**a, 2 ** (b - a), 2 ** (q - b))
        left, right = U, X.reshape(shape)
    res = np.matmul(left, right, out=None if out is None else out.reshape(shape))
    return res.reshape(X.shape)


def _apply(kind: str, op, X: np.ndarray) -> None:
    """One step other than a shift on the last axis of X, in place, with no
    temporary larger than X."""
    if kind == "block":
        first, *second = op
        part = _gemm(X, *first)
        if second:
            _gemm(part, *second[0], out=X)
        else:
            X[...] = part
    elif kind == "perm":
        src, sign = op
        if src is not None:
            X[...] = np.take(X, src, axis=-1)
        if sign is not None:
            X *= sign
    elif kind == "rot":
        cos, src, turn = op
        if src is None:
            X *= cos + turn
        else:
            part = np.take(X, src, axis=-1)
            part *= turn
            X *= cos
            X += part
    else:  # a two-qubit fixed gate; op = (tensor, labels in, labels out)
        U, before, after = op
        psi = X.reshape(X.shape[:-1] + (2,) * len(before))
        X[...] = np.einsum(U, [0, 1, 2, 3], psi, [..., *before], [..., *after]).reshape(X.shape)


def _shift(buf: np.ndarray, box: tuple, offsets: np.ndarray) -> None:
    """Move basis index s of the occupied ``box`` of ``buf`` from state
    frequency k to k + offsets[:, s], in place and with no arithmetic: one
    leading-axis slice at a time from the top, copied out, cleared and
    scattered, so each slice is read before anything lands in it."""
    n = buf.shape[-1]
    # each amplitude's target, from the start of its row, and the start of
    # each row of the box within a slice, both counted in amplitudes
    lift = np.arange(n) + np.ravel_multi_index(offsets, buf.shape[:-1]) * n
    rows = np.arange(math.prod(buf.shape[1:-1])).reshape(buf.shape[1:-1])[box[1:]] * n
    # window[a, b] is amplitude a + b of the flat buffer
    window = sliding_window_view(buf.reshape(-1), lift.max() + 1, writeable=True)
    part = np.empty(rows.shape + (n,), dtype=buf.dtype)  # the one temporary
    for t in range(box[0].stop - 1, -1, -1):
        src = buf[(t,) + box[1:]]
        part[...] = src
        src[...] = 0.0
        window[t * buf[0].size + rows[..., None], lift] = part


class CompiledCircuit:
    """A circuit lowered once to a program of three kinds of step.

    - **shift**: a run of encodings exp(-i s x_j P) with no other step
      between them.  In the eigenbasis of its Pauli word (H for an X
      factor, a complex 2x2 for a Y factor, both in the blocks on either
      side) an encoding is exp(-i s x_j Z_S) on the word's support S: it
      keeps the amplitudes with Z_S = sign(s) and gives the others the
      phase e^{i 2|s| x_j}, after a global e^{-i|s| x_j}.  So
      offsets[j, s] sums 2|s_g| over the run's gates g on x_{j+1} that move
      basis index s.  A block between two encodings ends a run.
    - **block**: all x-independent one-qubit gates between two other steps
      (rotations, fixed gates, basis changes) multiply into one 2x2 matrix
      per qubit.  A block applies their Kronecker product as two matrix
      products over two groups of qubits.  A qubit's pending matrix folds
      into the last block when no later step touches that qubit, so the
      basis changes of a layer of encodings share one block.
    - **perm**, **rot**, **fixed**: a run of consecutive CNOT and CZ gates
      is one permutation-and-sign step; a rotation on two or more qubits is
      a gather plus phase vector; a two-qubit fixed gate is a 4x4 tensor.
      Every pending one-qubit matrix is applied before such a step.

    A rotation on no qubit is a global phase: ``run`` applies it and
    ``frequency_components`` drops it.  ``run`` simulates one input x, with
    each shift one phase vector; ``frequency_components`` propagates every
    x at once, with each shift a move of every basis index by its offset.
    """

    def __init__(self, c: Circuit):
        self.circuit = c
        q = c.qubits
        idx = np.arange(2**q)
        self.steps = []
        self._phase_thetas = []  # identity rotations, global phases e^{-i theta/2}
        pending: dict[int, list] = {}  # per qubit, one-qubit factors not yet in a block
        touched: dict[int, int] = {}  # per qubit, the last step other than a block on it
        blocks: list[int] = []

        def flush(qubits):
            for k in sorted(qubits):
                factors = pending.pop(k, None)
                if not factors:
                    continue
                if not blocks or touched.get(k, -1) > blocks[-1]:
                    blocks.append(len(self.steps))
                    self.steps.append(("block", None, {}))
                self.steps[blocks[-1]][2].setdefault(k, []).extend(factors)

        def emit(step, qubits):
            touched.update((k, len(self.steps)) for k in qubits)
            self.steps.append(step)

        for g in c.gates:
            support = [k for k, ch in enumerate(g.pauli) if ch != "I"]
            if g.kind == "encode":
                for k in support:
                    if g.pauli[k] != "Z":
                        pending.setdefault(k, []).append(_EIGENBASIS_DAG[g.pauli[k]])
                flush(support)
                # the gate joins the run that the last step holds, if any
                if self.steps and self.steps[-1][0] == "shift":
                    _, gates, offsets = self.steps.pop()
                else:
                    gates, offsets = [], np.zeros((max(c.data_dim, 1), 2**q))
                # amplitudes with Z_S = -sign(s) move: parity 1 for s > 0
                parity = sum((idx >> (q - 1 - k)) & 1 for k in support) & 1
                offsets[g.dim - 1] += 2.0 * abs(g.scale) * (parity == (g.scale > 0))
                emit(("shift", gates + [g], offsets), support)
                for k in support:
                    if g.pauli[k] != "Z":
                        pending[k] = [_EIGENBASIS[g.pauli[k]]]
            elif g.kind == "rot" and len(support) < 2:
                if support:
                    pending.setdefault(support[0], []).append((g.pauli[support[0]], g.theta_index))
                else:
                    self._phase_thetas.append(g.theta_index)
            elif g.kind == "fixed" and len(g.qubits) == 1:
                pending.setdefault(g.qubits[0], []).append(np.asarray(g.matrix, dtype=complex))
            else:
                flush(list(pending))
                if g.kind == "rot":
                    src, phases = _pauli_gather(g.pauli, q)
                    emit(("rot", g, (None if src[0] == 0 else src, phases)), support)
                elif g.kind == "fixed":
                    # einsum labels: 0, 1 out and 2, 3 in for the gate's qubits
                    before, after = list(range(4, 4 + q)), list(range(4, 4 + q))
                    for k, (row, col) in zip(g.qubits, [(0, 2), (1, 3)]):
                        before[k], after[k] = col, row
                    emit(("fixed", g, (before, after)), g.qubits)
                else:
                    # a run of CNOT and CZ gates is one step: out = sign * in[src],
                    # either part None when it is the identity
                    src, sign = self.steps.pop()[2] if self.steps and self.steps[-1][0] == "perm" else (None, None)
                    cbit = (idx >> (q - 1 - g.control)) & 1
                    if g.kind == "cnot":
                        perm = idx ^ (cbit << (q - 1 - g.target))
                        src = perm if src is None else src[perm]
                        sign = None if sign is None else sign[perm]
                    else:
                        flip = 1.0 - 2.0 * (cbit & ((idx >> (q - 1 - g.target)) & 1))
                        sign = flip if sign is None else sign * flip
                    emit(("perm", None, (src, sign)), (g.control, g.target))
        flush(list(pending))
        # each block's qubits from the first to the last with a factor, in
        # one group or, past two qubits, two groups of about equal size
        for i in blocks:
            factors = self.steps[i][2]
            lo, hi = min(factors), max(factors) + 1
            cuts = [lo, hi] if hi - lo <= 2 else [lo, (lo + hi) // 2, hi]
            groups = [(a, b, [factors.get(k, []) for k in range(a, b)]) for a, b in zip(cuts, cuts[1:])]
            self.steps[i] = ("block", None, groups)

    def _theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.circuit.theta_count:
            raise ConfigError.at("theta", f"{self.circuit.theta_count} numbers long", str(theta.size))
        bad = ~np.isfinite(theta)
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"parameter theta[{i}] is not finite ({theta[i]})")
        return theta

    def _operands(self, theta: np.ndarray) -> tuple[list, bool]:
        """Each step's numeric operand at theta, and whether every block
        matrix, rotation phase and fixed gate is real.  When they all are,
        the operands are returned as float arrays."""
        ops, complex_parts = [], []
        for kind, g, data in self.steps:
            if kind == "block":
                op = [
                    (a, b, _kron([_one_qubit_matrix(f, theta) for f in factors]))
                    for a, b, factors in data
                ]
                complex_parts += [U for _, _, U in op]
            elif kind == "rot":
                half = theta[g.theta_index] / 2.0
                src, phases = data
                op = (math.cos(half), src, -1j * math.sin(half) * phases)
                complex_parts.append(op[2])
            elif kind == "fixed":
                op = (np.asarray(g.matrix, dtype=complex).reshape(2, 2, 2, 2), *data)
                complex_parts.append(op[0])
            else:
                op = data
            ops.append(op)
        if any(part.imag.any() for part in complex_parts):
            return ops, False
        # copies, not .real views: a view would keep its complex base alive
        # for the whole propagation
        for i, (kind, _, _) in enumerate(self.steps):
            if kind == "block":
                ops[i] = [(a, b, U.real.copy()) for a, b, U in ops[i]]
            elif kind == "rot":
                cos, src, turn = ops[i]
                ops[i] = (cos, src, turn.real.copy())
            elif kind == "fixed":
                U, *labels = ops[i]
                ops[i] = (U.real.copy(), *labels)
        return ops, True

    def run(self, theta, x) -> np.ndarray:
        """Final statevector for parameters theta and input x, global phase
        included."""
        c = self.circuit
        theta = self._theta(theta)
        x = np.asarray(x, dtype=float).ravel()
        if x.size < c.data_dim:
            raise ValueError(f"need {c.data_dim} input components, got {x.size}")
        state = np.zeros(2**c.qubits, dtype=complex)
        state[0] = 1.0
        for (kind, g, data), op in zip(self.steps, self._operands(theta)[0]):
            if kind == "shift":
                # e^{i (offsets.x - sum_g |s_g| x_{dim g})} per basis index
                angle = x[: len(data)] @ data - sum(abs(e.scale) * x[e.dim - 1] for e in g)
                state *= np.exp(1j * angle)
            else:
                _apply(kind, op, state)
        if self._phase_thetas:
            state *= np.exp(-0.5j * theta[self._phase_thetas].sum())
        return state

    def frequency_components(self, theta) -> np.ndarray:
        """The final state as psi(x) = e^{i phi(x)} sum_k e^{i k.x} psi_k over
        integer vectors k >= 0, with a global phase phi that no expectation
        sees: an array of shape (K_1, ..., K_d, 2^q) holding psi_k.

        A shift moves each basis index s from k to k + offsets[:, s] with no
        arithmetic (``_shift``); a 2|s| farther than freqcore's integer
        tolerance from an integer raises NonIntegerFrequencyError, naming
        the gate.  The buffer is float64 when every operand is real
        (``_operands``) and complex128 otherwise.  It is allocated once at
        its final shape and updated in place, one slice of the occupied box
        at a time, so no temporary is larger than a slice.  A buffer above
        ``PROPAGATION_BYTES`` is a CapacityError, raised before anything is
        allocated.
        """
        c = self.circuit
        encodings = [(i, g, 2.0 * abs(g.scale)) for i, g in enumerate(c.gates) if g.kind == "encode"]
        if not is_integer_valued([m for _, _, m in encodings]):
            i, g, m = next(e for e in encodings if not is_integer_valued(e[2]))
            raise NonIntegerFrequencyError(
                f"encoding gate {i} ({g.pauli} on x_{g.dim}, scale {g.scale}) "
                f"shifts state frequencies by 2|s| = {m}, not an integer"
            )
        ops, real = self._operands(self._theta(theta))
        d = max(c.data_dim, 1)
        sizes = [1] * d
        for _, g, m in encodings:
            sizes[g.dim - 1] += round(m)
        dtype = np.dtype(float if real else complex)
        nbytes = dtype.itemsize * math.prod(sizes) * 2**c.qubits
        if nbytes > PROPAGATION_BYTES:
            raise CapacityError(
                f"propagating {' x '.join(map(str, sizes))} state frequencies of {c.qubits} qubits "
                f"({dtype.itemsize} B amplitudes) needs {nbytes / 2**20:.0f} MiB, "
                f"above PROPAGATION_BYTES ({PROPAGATION_BYTES / 2**20:.0f} MiB)"
            )
        buf = np.zeros((*sizes, 2**c.qubits), dtype=dtype)
        buf[(0,) * (d + 1)] = 1.0
        hi = [0] * d  # highest occupied index per axis
        for (kind, g, data), op in zip(self.steps, ops):
            box = tuple(slice(0, h + 1) for h in hi)
            if kind == "shift":
                _shift(buf, box, np.rint(data).astype(np.intp))
                for e in g:
                    hi[e.dim - 1] += round(2.0 * abs(e.scale))
            else:
                axis = int(np.argmax(hi))
                for t in range(hi[axis] + 1):
                    _apply(kind, op, buf[box[:axis] + (t,) + box[axis + 1 :]])
        return buf


class CompiledObservable:
    """An observable's Pauli terms in gather form, validated once.

    Terms whose words flip the same qubits (one X-mask) gather from the same
    source indices, so each such group is one gather and one summed phase
    vector; the group of I/Z-only words, mask 0, needs no gather.  A summed
    phase vector with no imaginary part (words of I, Z and X, or Y in pairs)
    is stored as float, so real states under it stay real.
    """

    def __init__(self, obs: Observable, qubits: int):
        groups: dict[int, tuple] = {}
        for i, (coef, word) in enumerate(obs.terms):
            _check_pauli(word, qubits, allow_identity=True, path=f"observable.terms[{i}].pauli")
            src, phases = _pauli_gather(word, qubits)
            mask = int(src[0])  # src = index ^ mask
            if mask in groups:
                summed = groups[mask][1]
                summed += coef * phases
            else:
                groups[mask] = (None if mask == 0 else src, coef * phases)
        self.groups = [
            (src, phases if phases.imag.any() else np.ascontiguousarray(phases.real))
            for src, phases in groups.values()
        ]
        self.dtype = np.result_type(*(phases for _, phases in self.groups))

    def apply(self, states: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Amplitudes ``cols`` of O applied to the last axis of ``states``, as
        a new array."""
        return sum(
            (states[..., cols] if src is None else np.take(states, src[cols], axis=-1)) * phases[cols]
            for src, phases in self.groups
        )

    def expectation(self, state: np.ndarray) -> float:
        val = np.vdot(state, self.apply(state))
        if abs(val.imag) > 1e-10:
            raise FloatingPointError(f"expectation has imaginary residue {val.imag}")
        return float(val.real)

    def gram(self, rows: np.ndarray, block: int) -> np.ndarray:
        """G[a, b] = <rows_a|O|rows_b> for the rows of a 2-d array, summed
        over ``block`` amplitudes at a time; real when the rows and every
        phase vector are."""
        K, N = rows.shape
        acc = np.zeros((K, K), dtype=np.result_type(rows, self.dtype))
        for lo in range(0, N, block):
            cols = slice(lo, lo + block)
            # rows @ conj(O rows)^T is the conjugate of G
            acc += rows[:, cols] @ np.conj(self.apply(rows, cols)).T
        return np.conj(acc)


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


def extract_trig_polynomial(c: Circuit, obs: Observable, theta, fs=None) -> TrigPolynomial:
    """Exact Fourier coefficients of the circuit's model on the lattice
    ``fs``, by default the circuit's own.

    The state is propagated once as one vector psi_k per state frequency
    (``CompiledCircuit.frequency_components``), so f(x) = sum_{k, k'}
    e^{i (k - k').x} <psi_k'|O|psi_k> and c_w sums the Gram matrix of the
    psi_k over index differences k - k' = w: one ``bincount`` when the state
    and the observable are real, two otherwise.  Requires an integer
    encoding lattice.  Mass off it above ``LEAK_TOL``, or a pair c_w,
    conj(c_-w) more than 1e-10 apart, raises FloatingPointError.  A kept
    frequency that an ``fs`` of another encoding lacks raises ValueError.
    """
    enc = encoding_of(c)
    fs = build_frequency_set(enc) if fs is None else fs
    own = fs if fs.encoding == enc else build_frequency_set(enc)
    # the Gram below grows with the square of the lattice, so a lattice
    # beyond the cap must fail before it is allocated
    own.require_materialized()
    if not own.is_integer:
        raise NonIntegerFrequencyError(
            "spectrum extraction requires integer frequencies"
        )
    psi = CompiledCircuit(c).frequency_components(theta)
    sizes = psi.shape[:-1]
    rows = psi.reshape(-1, psi.shape[-1])
    # one slice of the buffer: K / max_j K_j rows of 2^q amplitudes, or all K rows of
    # 2^q / max_j K_j amplitudes
    gram = CompiledObservable(obs, c.qubits).gram(rows, max(1, rows.shape[1] // max(sizes)))
    # c_w on the box |w_j| <= K_j - 1, stored at w + K - 1; gram[k', k] adds to w = k - k'
    reach = np.asarray(sizes) - 1
    box = tuple(2 * reach + 1)
    index = np.indices(sizes).reshape(len(sizes), -1)
    pos = np.ravel_multi_index(tuple(k[None, :] - k[:, None] + r for k, r in zip(index, reach)), box)
    coeff = np.bincount(pos.ravel(), weights=gram.real.ravel(), minlength=math.prod(box))
    if np.iscomplexobj(gram):
        coeff = coeff + 1j * np.bincount(pos.ravel(), weights=gram.imag.ravel(), minlength=coeff.size)
    coeff = coeff.reshape(box)

    half_index = np.rint(own.half).astype(np.intp)
    at_pos, at_neg = tuple((reach + half_index).T), tuple((reach - half_index).T)
    cpos, cneg = coeff[at_pos], coeff[at_neg]
    # what is left once the lattice (the half's rows and mirrors) is cleared leaks
    coeff[at_pos] = coeff[at_neg] = 0.0
    worst_leak = float(np.abs(coeff).max())
    if worst_leak > LEAK_TOL:
        raise FloatingPointError(
            f"spectral mass {worst_leak:.3e} outside the encoding lattice"
        )
    broken = np.abs(np.conj(cneg) - cpos) > 1e-10
    if broken.any():
        i = int(np.argmax(broken))
        raise FloatingPointError(
            f"conjugate symmetry violated at {tuple(own.half[i].tolist())}: "
            f"{complex(cpos[i])} vs conj({complex(cneg[i])})"
        )
    cval = 0.5 * (cpos + np.conj(cneg))
    keep = np.flatnonzero(np.abs(cval) > SUPPORT_TOL)
    return TrigPolynomial.on_rows(fs, fs.half_rows(fs.locate(own.half[keep])), cval[keep])


def _gate_from_json(g, at: str) -> GateSpec:
    g = read(g, "object", at)
    at += "."
    kind = read_field(g, "kind", "string", at, choices=("encode", "rot", "cnot", "cz", "fixed"))
    if kind == "encode":
        scale = read_field(g, "scale", "number", at, default=1.0)
        dim = read_field(g, "dim", "integer", at, least=1, default=1)
        return GateSpec("encode", pauli=read_field(g, "pauli", "string", at), scale=scale, dim=dim)
    if kind == "rot":
        theta_index = read_field(g, "theta", "integer", at)
        return GateSpec("rot", pauli=read_field(g, "pauli", "string", at), theta_index=theta_index)
    if kind in ("cnot", "cz"):
        control, target = read_field(g, "c", "integer", at), read_field(g, "t", "integer", at)
        return GateSpec(kind, control=control, target=target)
    qubits = read_field(g, "qubits", "integers", at)
    pairs = read_field(g, "matrix", "number", at, ndim=3)
    if pairs.shape[1:] != (pairs.shape[0], 2):
        raise ConfigError.at(at + "matrix", "a square array of [re, im] pairs", show(g["matrix"]))
    matrix = np.empty(pairs.shape[:2], dtype=complex)
    matrix.real, matrix.imag = pairs[..., 0], pairs[..., 1]
    return GateSpec("fixed", qubits=tuple(qubits), matrix=matrix)


def circuit_from_json(doc: dict) -> tuple[Circuit, Observable]:
    """Parse a circuit document (gates plus embedded observable).  Anything
    malformed is a ConfigError naming the gate or observable term at fault."""
    doc = read(doc, "object", "circuit")
    qubits = read_field(doc, "qubits", "integer", least=1)
    gates = read_field(doc, "gates", "array")
    circuit = Circuit(qubits, [_gate_from_json(g, f"gate {i}") for i, g in enumerate(gates)])
    observable = read_field(doc, "observable", "object")
    terms = []
    for i, t in enumerate(read_field(observable, "terms", "array", "observable.", nonempty=True)):
        at = f"observable.terms[{i}]"
        t = read(t, "object", at)
        word = read_field(t, "pauli", "string", at + ".")
        _check_pauli(word, qubits, allow_identity=True, path=at + ".pauli")
        terms.append((read_field(t, "coef", "number", at + "."), word))
    return circuit, Observable(terms)
