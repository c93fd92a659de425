"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the underlying
math (itertools enumeration, dense quadrature, plain DFT) rather than reusing
package code paths, so each check is a genuine dual route.
"""

import itertools

import numpy as np

from rffdq.freqcore import EncodingStrategy, HamiltonianSpectrum
from rffdq.kernelmap import kernel_matrix
from rffdq.pqcsim import Circuit, GateSpec, Observable


def oracle_component_set(spectra_values):
    """All differences of all eigenvalue sums, by brute enumeration.

    Exact-float dedup: intended for dyadic eigenvalues where the arithmetic
    is exact.
    """
    if not spectra_values:
        return [0.0]
    sums = [sum(combo) for combo in itertools.product(*spectra_values)]
    return sorted({a - b for a in sums for b in sums})


def oracle_full_lattice(per_dim_sets):
    return [tuple(p) for p in itertools.product(*per_dim_sets)]


def oracle_is_canonical(point, tol=1e-12):
    for v in point:
        if abs(v) > tol:
            return v > 0
    return True


def oracle_half(per_dim_sets):
    rows = [p for p in oracle_full_lattice(per_dim_sets) if oracle_is_canonical(p)]
    return sorted(rows)


def random_dyadic_encoding(rng, d_max=3, L_max=3, spec_max=3, allow_empty=True):
    """Random encoding strategy with eigenvalues on the k/2 grid, |k| <= 4,
    so every downstream sum/difference is exact in binary floating point."""
    d = int(rng.integers(1, d_max + 1))
    dims = []
    for _ in range(d):
        lo = 0 if allow_empty else 1
        L = int(rng.integers(lo, L_max + 1))
        specs = []
        for _ in range(L):
            size = int(rng.integers(1, spec_max + 1))
            vals = sorted(float(k) / 2.0 for k in rng.integers(-4, 5, size=size))
            specs.append(HamiltonianSpectrum(tuple(vals)))
        dims.append(tuple(specs))
    return EncodingStrategy(tuple(dims))


def quadrature_operator_matrix(kernel_fn, d, grid_per_dim):
    """Discretized kernel integral operator under the uniform probability
    measure: T[a, b] = K(x_a, x_b) / N with N uniform grid points."""
    axis = 2.0 * np.pi * np.arange(grid_per_dim) / grid_per_dim
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    K = kernel_fn(pts, pts)
    return K / pts.shape[0], pts


def quadrature_top_singular_value(kernel_fn, d, grid_per_dim):
    T, _ = quadrature_operator_matrix(kernel_fn, d, grid_per_dim)
    if T.shape[0] <= 1500:
        return float(np.max(np.abs(np.linalg.eigvalsh(T))))
    import scipy.sparse.linalg

    val = scipy.sparse.linalg.eigsh(T, k=1, which="LM", return_eigenvectors=False)
    return float(abs(val[0]))


def quadrature_apply_operator(kernel_fn, g_fn, x_points, d, grid_per_dim):
    """(T g)(x) by direct quadrature at the given x points."""
    axis = 2.0 * np.pi * np.arange(grid_per_dim) / grid_per_dim
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=-1)
    gv = g_fn(nodes)
    K = kernel_fn(np.atleast_2d(x_points), nodes)
    return (K @ gv) / nodes.shape[0]


def quadrature_l2_norm_sq(f_fn, d, grid_per_dim):
    """Integral of f^2 over [0, 2pi)^d (Lebesgue), by the rectangle rule."""
    axis = 2.0 * np.pi * np.arange(grid_per_dim) / grid_per_dim
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = f_fn(nodes)
    return float(np.mean(vals**2) * (2.0 * np.pi) ** d)


def midpoint_mean_square(f_fn, d, grid_per_dim):
    """Mean of f^2 over [0, 2pi)^d by the tensor midpoint rule, one slab of
    the first axis at a time.  Its error is O(h^2) for a non-periodic
    integrand, h = 2 pi / grid_per_dim."""
    axis = 2.0 * np.pi * (np.arange(grid_per_dim) + 0.5) / grid_per_dim
    rest = np.stack(
        [g.ravel() for g in np.meshgrid(*([axis] * (d - 1)), indexing="ij")], axis=-1
    )
    total = 0.0
    for x1 in axis:
        nodes = np.column_stack([np.full(rest.shape[0], x1), rest])
        total += float(np.sum(f_fn(nodes) ** 2))
    return total / grid_per_dim**d


def rff_spectrum_by_feature(frequencies, phases, coef):
    """Fourier coefficients of sum_i coef_i sqrt(2) cos(<w_i, x> + g_i)/sqrt(M),
    one feature at a time: {frequency tuple: coefficient at +w_i}, where a
    feature contributes coef_i e^{i g_i}/(sqrt(2) sqrt(M)) at +w_i and its
    conjugate at -w_i (both land on the zero frequency when w_i = 0)."""
    M = len(phases)
    out = {}
    for w, g, b in zip(frequencies, phases, coef):
        key = tuple(float(v) + 0.0 for v in w)
        amp = b / (np.sqrt(2.0) * np.sqrt(M)) * complex(np.cos(g), np.sin(g))
        if not any(key):
            amp = 2.0 * amp.real
        out[key] = out.get(key, 0.0) + amp
    return out


def krr_alpha_by_gram(X, Y, fs, w, lam):
    """Kernel ridge dual coefficients from the n x n Gram system
    (K_w(X, X) + n lambda I) alpha = Y, solved densely by numpy."""
    n = len(Y)
    return np.linalg.solve(kernel_matrix(X, X, fs, w) + n * lam * np.eye(n), Y)


def rkhs_norm_by_index(f, w):
    """RKHS norm of a lattice polynomial, one canonical frequency at a time:
    sqrt(sum_i (a_i ||w|| / w_i)^2 + (b_i ||w|| / w_i)^2) over the support,
    raising ValueError at the first supported index with zero weight."""
    import math

    from rffdq.kernelmap import SUPPORT_TOL, to_real_form

    fs = f.freq_set
    form = to_real_form(f)
    total = 0.0
    if abs(form.c0) > SUPPORT_TOL:
        if w.weights[0] == 0.0:
            raise ValueError(
                "function has weight-zero support at the zero frequency; "
                "it lies outside the kernel's function set"
            )
        total += (form.c0 * w.norm2 / w.weights[0]) ** 2
    for i in range(1, fs.size):
        aa, bb = form.a[i - 1], form.b[i - 1]
        if abs(aa) <= SUPPORT_TOL and abs(bb) <= SUPPORT_TOL:
            continue
        wi = w.weights[i]
        if wi == 0.0:
            raise ValueError(
                f"function has weight-zero support at frequency {tuple(fs.half[i])}; "
                "it lies outside the kernel's function set"
            )
        total += (aa * w.norm2 / wi) ** 2 + (bb * w.norm2 / wi) ** 2
    return math.sqrt(total)


def dft_coefficients(values_grid):
    """Plain DFT oracle: maps a grid of function values to a dict
    {signed integer index tuple: coefficient}."""
    sizes = values_grid.shape
    coeff = np.fft.fftn(values_grid) / values_grid.size
    out = {}
    for index in np.ndindex(*sizes):
        k = tuple(((index[j] + sizes[j] // 2) % sizes[j]) - sizes[j] // 2 for j in range(len(sizes)))
        out[k] = complex(coeff[index])
    return out


_PAULI_CHARS = "IXYZ"


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR decomposition of a complex
    Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, q_max=4, d_max=2, L_max=3, fixed=False):
    """Random integer-lattice circuit with entangling and variational gates;
    with ``fixed``, random 1- and 2-qubit fixed unitaries are mixed in."""
    q = int(rng.integers(1, q_max + 1))
    d = int(rng.integers(1, d_max + 1))
    gates = []
    n_theta = 0

    def rand_pauli(nontrivial):
        while True:
            word = "".join(_PAULI_CHARS[i] for i in rng.integers(0, 4, size=q))
            if not nontrivial or any(ch != "I" for ch in word):
                return word

    for j in range(1, d + 1):
        L = int(rng.integers(1, L_max + 1))
        for _ in range(L):
            scale = float(rng.choice([0.5, 1.0]))
            gates.append(GateSpec("encode", pauli=rand_pauli(True), scale=scale, dim=j))
            if rng.random() < 0.7:
                gates.append(GateSpec("rot", pauli=rand_pauli(True), theta_index=n_theta))
                n_theta += 1
            if q >= 2 and rng.random() < 0.5:
                c, t = rng.choice(q, size=2, replace=False)
                kind = "cnot" if rng.random() < 0.5 else "cz"
                gates.append(GateSpec(kind, control=int(c), target=int(t)))
            if fixed:
                k = int(rng.integers(1, min(q, 2) + 1))
                qs = tuple(int(v) for v in rng.choice(q, size=k, replace=False))
                gates.append(GateSpec("fixed", qubits=qs, matrix=random_unitary(rng, 2**k)))
    rng.shuffle(gates)
    # keep at least one encode gate per declared dimension after the shuffle
    dims_present = {g.dim for g in gates if g.kind == "encode"}
    for j in range(1, d + 1):
        if j not in dims_present:
            gates.append(GateSpec("encode", pauli=rand_pauli(True), scale=1.0, dim=j))
    n_terms = int(rng.integers(1, 4))
    terms = [(float(rng.uniform(-1.5, 1.5)), rand_pauli(False)) for _ in range(n_terms)]
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_theta)
    return Circuit(q, gates), Observable(terms), theta


_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_all(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def _embedded(q, ops):
    """Dense operator acting as ``ops[k]`` on qubit k (identity elsewhere);
    qubit 0 is the leftmost Kronecker factor."""
    return _kron_all([ops.get(k, _PAULI_MATRICES["I"]) for k in range(q)])


def _unit(i, k):
    e = np.zeros((2, 2), dtype=complex)
    e[i, k] = 1.0
    return e


def dense_gate(gate, q, theta, x):
    """2^q x 2^q matrix of one circuit element, built from Kronecker
    products of single-qubit matrices."""
    if gate.kind in ("encode", "rot"):
        angle = gate.scale * x[gate.dim - 1] if gate.kind == "encode" else theta[gate.theta_index] / 2.0
        P = _kron_all([_PAULI_MATRICES[ch] for ch in gate.pauli])
        return np.cos(angle) * np.eye(2**q) - 1j * np.sin(angle) * P
    if gate.kind == "cnot":
        return _embedded(q, {gate.control: _unit(0, 0)}) + _embedded(
            q, {gate.control: _unit(1, 1), gate.target: _PAULI_MATRICES["X"]}
        )
    if gate.kind == "cz":
        return _embedded(q, {gate.control: _unit(0, 0)}) + _embedded(
            q, {gate.control: _unit(1, 1), gate.target: _PAULI_MATRICES["Z"]}
        )
    U = np.asarray(gate.matrix, dtype=complex)
    qs = tuple(gate.qubits)
    if len(qs) == 1:
        return _embedded(q, {qs[0]: U})
    # U = sum U[(i j), (k l)] |i><k| (x) |j><l| on qubits (qs[0], qs[1])
    out = np.zeros((2**q, 2**q), dtype=complex)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        coef = U[2 * i + j, 2 * k + l]
        if coef != 0:
            out += coef * _embedded(q, {qs[0]: _unit(i, k), qs[1]: _unit(j, l)})
    return out


def dense_statevector(circuit, theta, x):
    """U(x, theta)|0> from the product of dense gate matrices."""
    q = circuit.qubits
    U = np.eye(2**q, dtype=complex)
    for gate in circuit.gates:
        U = dense_gate(gate, q, theta, x) @ U
    return U[:, 0]


def dense_observable(obs):
    """sum coef * P as a dense matrix."""
    return sum(coef * _kron_all([_PAULI_MATRICES[ch] for ch in word]) for coef, word in obs.terms)


def evaluate_on_grid(circuit, obs, theta, sizes):
    """Grid values of the circuit model (independent driver for the DFT
    oracle)."""
    from rffdq.pqcsim import evaluate_model

    axes = [2.0 * np.pi * np.arange(N) / N for N in sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = np.array([evaluate_model(circuit, obs, theta, p) for p in pts])
    return vals.reshape(sizes)


def mp_sufficient_counts(op_norm, C, b, eps, delta, dps=60):
    """High-precision independent evaluation of the sufficiency constants."""
    import mpmath as mp

    mp.mp.dps = dps
    T = mp.mpf(op_norm)
    Cm, bm, em, dm = map(mp.mpf, (C, b, eps, delta))
    n0 = max(4 * T**2, (528 * mp.log(1112 * mp.sqrt(2) / dm)) ** 2)
    c0 = 36 * (3 + 2 / T)
    c1 = 8 * mp.sqrt(2) * (4 * bm + (5 / mp.sqrt(2)) * Cm + 2 * mp.sqrt(2 * Cm))
    n_min = max(c1**2 * mp.log(1 / dm) ** 4 / em**2, n0)
    M_min = c0 * mp.sqrt(n_min) * mp.log(108 * mp.sqrt(n_min) / dm)
    return {
        "n0": float(n0),
        "c0": float(c0),
        "c1": float(c1),
        "n_min": float(n_min),
        "M_min": float(M_min),
    }


def chi_square_pvalue(counts, probs):
    """Goodness-of-fit p-value with small-expectation bins merged."""
    import scipy.stats

    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    order = np.argsort(expected)
    counts, expected = counts[order], expected[order]
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0 and merged_e:
        merged_c[-1] += acc_c
        merged_e[-1] += acc_e
    merged_c = np.asarray(merged_c)
    merged_e = np.asarray(merged_e)
    merged_e *= merged_c.sum() / merged_e.sum()
    if len(merged_c) < 2:
        return 1.0
    stat, p = scipy.stats.chisquare(merged_c, merged_e)
    return float(p)


class DictPolynomial:
    """The dict-backed trigonometric polynomial the array version replaced:
    ``coeffs`` maps canonical frequency tuples to complex coefficients in
    insertion order, and every operation is a loop over its items."""

    def __init__(self, coeffs, d):
        self.coeffs = coeffs
        self.d = d

    @classmethod
    def from_half_coeffs(cls, fs, mapping):
        """Keys on the lattice (snapped per key when ``fs`` is given) or
        standalone (components within 1e-12 of zero become +0.0); zero
        coefficients are dropped."""
        d = fs.d if fs is not None else len(next(iter(mapping)))
        coeffs = {}
        for omega, c in mapping.items():
            if fs is not None:
                key = fs.snap(omega)
            else:
                key = tuple(0.0 if abs(v) <= 1e-12 else float(v) for v in omega)
            assert oracle_is_canonical(key) and key not in coeffs
            c = complex(c)
            if not any(key):
                c = complex(c.real, 0.0)
            if c != 0:
                coeffs[key] = c
        return cls(coeffs, d)

    def evaluate(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        zero = tuple(0.0 for _ in range(self.d))
        vals = np.full(X.shape[0], complex(self.coeffs.get(zero, 0.0)).real)
        rest = [(k, v) for k, v in self.coeffs.items() if k != zero]
        if rest:
            omegas = np.array([k for k, _ in rest], dtype=float)
            cs = np.array([v for _, v in rest], dtype=complex)
            ang = X @ omegas.T
            vals = vals + 2.0 * (np.cos(ang) @ cs.real - np.sin(ang) @ cs.imag)
        return vals

    def combine(self, other, sign):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + sign * v
        return DictPolynomial({k: v for k, v in out.items() if v != 0}, self.d)

    def scaled(self, factor):
        return DictPolynomial({k: factor * v for k, v in self.coeffs.items()}, self.d)

    def fhat_l2_sq(self):
        zero = tuple(0.0 for _ in range(self.d))
        return sum(abs(c) ** 2 * (1.0 if k == zero else 2.0) for k, c in self.coeffs.items())

    def coeff_sup_bound(self):
        zero = tuple(0.0 for _ in range(self.d))
        return sum(abs(c) * (1.0 if k == zero else 2.0) for k, c in self.coeffs.items())

    def to_json(self):
        terms = [
            {"omega": [float(v) for v in k], "re": float(c.real), "im": float(c.imag)}
            for k, c in sorted(self.coeffs.items())
        ]
        return {"d": self.d, "terms": terms}
