import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dense_observable,
    dense_statevector,
    dft_coefficients,
    evaluate_on_grid,
    random_circuit,
    random_unitary,
)
from rffdq import freqcore, pqcsim
from rffdq.errors import CapacityError, ConfigError, NonIntegerFrequencyError
from rffdq.freqcore import build_frequency_set
from rffdq.pqcsim import (
    Circuit,
    CompiledCircuit,
    CompiledObservable,
    GateSpec,
    Observable,
    circuit_from_json,
    encoding_of,
    evaluate_model,
    extract_trig_polynomial,
)
from rffdq.kernelmap import TrigPolynomial

Z_OBS = Observable([(1.0, "Z")])


def cosine_circuit():
    return Circuit(1, [GateSpec("encode", pauli="X", scale=0.5, dim=1)])


class TestEvaluateModel:
    def test_single_qubit_cosine(self):
        c = cosine_circuit()
        for x in np.linspace(0, 2 * np.pi, 9, endpoint=False):
            assert evaluate_model(c, Z_OBS, [], [x]) == pytest.approx(np.cos(x), abs=1e-12)

    def test_empty_circuit(self):
        assert evaluate_model(Circuit(1, []), Z_OBS, [], [0.3]) == pytest.approx(1.0)

    def test_z_encoding_is_phase_only(self):
        c = Circuit(1, [GateSpec("encode", pauli="Z", scale=1.0, dim=1)])
        for x in (0.0, 1.1, 4.5):
            assert evaluate_model(c, Z_OBS, [], [x]) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        c = Circuit(2, [GateSpec("encode", pauli="XI", scale=1.0, dim=2)])
        with pytest.raises(ValueError):
            evaluate_model(c, Observable([(1.0, "ZI")]), [], [0.1])

    def test_boundedness(self, rng):
        for _ in range(10):
            c, obs, theta = random_circuit(rng)
            d = c.data_dim
            x = rng.uniform(0, 2 * np.pi, d)
            val = evaluate_model(c, obs, theta, x)
            assert abs(val) <= obs.inf_norm_bound + 1e-9

    def test_unitarity(self, rng):
        for _ in range(10):
            c, obs, theta = random_circuit(rng)
            x = rng.uniform(0, 2 * np.pi, c.data_dim)
            state = CompiledCircuit(c).run(theta, x)
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    @pytest.mark.parametrize("trial", range(8))
    def test_matches_dense_unitary_oracle(self, trial):
        rng = np.random.default_rng(7100 + trial)
        kinds = set()
        for _ in range(6):
            c, obs, theta = random_circuit(rng, fixed=True)
            x = rng.uniform(0, 2 * np.pi, c.data_dim)
            want = dense_statevector(c, theta, x)
            assert np.max(np.abs(CompiledCircuit(c).run(theta, x) - want)) <= 1e-12
            exact = float(np.real(np.vdot(want, dense_observable(obs) @ want)))
            assert abs(evaluate_model(c, obs, theta, x) - exact) <= 1e-12
            kinds |= {g.kind for g in c.gates}
            kinds |= {ch for g in c.gates if g.kind in ("encode", "rot") for ch in g.pauli}
        assert {"encode", "rot", "fixed", "Y", "Z"} <= kinds

    def test_dense_oracle_covers_cz_and_two_qubit_fixed(self):
        rng = np.random.default_rng(11)
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        c = Circuit(
            3,
            [
                GateSpec("encode", pauli="YXZ", scale=1.0, dim=1),
                GateSpec("cz", control=2, target=0),
                GateSpec("fixed", qubits=(2, 0), matrix=swap),
                GateSpec("rot", pauli="ZIY", theta_index=0),
                GateSpec("cnot", control=2, target=1),
                GateSpec("rot", pauli="III", theta_index=1),
            ],
        )
        for _ in range(5):
            theta, x = rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 2 * np.pi, 1)
            want = dense_statevector(c, theta, x)
            assert np.max(np.abs(CompiledCircuit(c).run(theta, x) - want)) <= 1e-12

    def test_pauli_expectations(self):
        # |0> expectations: Z=+1, X=0, Y=0
        state = np.array([1.0 + 0j, 0.0])
        assert CompiledObservable(Observable([(1.0, "Z")]), 1).expectation(state) == pytest.approx(1.0)
        assert CompiledObservable(Observable([(1.0, "X")]), 1).expectation(state) == pytest.approx(0.0)
        assert CompiledObservable(Observable([(1.0, "Y")]), 1).expectation(state) == pytest.approx(0.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2) + 0j
        assert CompiledObservable(Observable([(2.0, "X")]), 1).expectation(plus) == pytest.approx(2.0)


class TestCompiledObservable:
    # words grouped by the qubits they flip: mask 0 (I/Z only, with the
    # identity), mask 100 (X and Y on qubit 0, so a complex summed phase),
    # mask 110, and a word alone on mask 001
    WORDS = ["ZIZ", "IZI", "III", "XZI", "YII", "YZI", "XYZ", "YXI", "IIX"]

    @pytest.mark.parametrize("trial", range(4))
    def test_gram_and_expectation_match_the_dense_observable(self, trial):
        rng = np.random.default_rng(8300 + trial)
        words = [self.WORDS[i] for i in rng.permutation(len(self.WORDS))]
        obs = Observable([(float(c), w) for c, w in zip(rng.normal(size=len(words)), words)])
        compiled = CompiledObservable(obs, 3)
        assert len(compiled.groups) == 4
        assert [src is None for src, _ in compiled.groups].count(True) == 1
        # masks 000 and 001 have real phases, 100 and 110 imaginary ones
        assert sorted(phases.dtype.kind for _, phases in compiled.groups) == ["c", "c", "f", "f"]
        dense = dense_observable(obs)
        real_rows = rng.normal(size=(5, 8))
        rows = real_rows + 1j * rng.normal(size=(5, 8))
        for block in (1, 3, 8):
            for r in (rows, real_rows):
                want = np.conj(r) @ dense @ r.T
                assert np.max(np.abs(compiled.gram(r, block) - want)) <= 1e-12
        for row in rows:
            psi = row / np.linalg.norm(row)
            want = float(np.real(np.vdot(psi, dense @ psi)))
            assert abs(compiled.expectation(psi) - want) <= 1e-12


class TestEncodingOf:
    def test_single_gate(self):
        enc = encoding_of(cosine_circuit())
        assert enc.d == 1
        assert enc.per_dimension[0][0].eigenvalues == (-0.5, 0.5)

    def test_three_gates_same_dimension(self):
        gates = [GateSpec("encode", pauli="X", scale=0.5, dim=1) for _ in range(3)]
        enc = encoding_of(Circuit(1, gates))
        assert len(enc.per_dimension[0]) == 3

    def test_dimension_inference(self):
        gates = [
            GateSpec("encode", pauli="XI", scale=1.0, dim=1),
            GateSpec("encode", pauli="IX", scale=0.5, dim=2),
        ]
        enc = encoding_of(Circuit(2, gates))
        assert enc.d == 2


class TestExtractSpectrum:
    def test_cosine_coefficients(self):
        poly = extract_trig_polynomial(cosine_circuit(), Z_OBS, [])
        assert abs(poly.coeffs[(1.0,)] - 0.5) <= 1e-10
        assert abs(poly.coeff((-1.0,)) - 0.5) <= 1e-10
        assert abs(poly.coeff((0.0,))) <= 1e-12

    def test_constant_circuit(self):
        poly = extract_trig_polynomial(
            Circuit(1, [GateSpec("encode", pauli="Z", scale=1.0, dim=1)]), Z_OBS, []
        )
        assert abs(poly.coeff((0.0,)) - 1.0) <= 1e-12
        assert all(abs(v) <= 1e-12 for k, v in poly.coeffs.items() if k != (0.0,))

    def test_two_gate_support(self):
        c = Circuit(
            1,
            [
                GateSpec("encode", pauli="X", scale=0.5, dim=1),
                GateSpec("rot", pauli="Y", theta_index=0),
                GateSpec("encode", pauli="X", scale=0.5, dim=1),
            ],
        )
        poly = extract_trig_polynomial(c, Z_OBS, [0.9])
        for key in poly.coeffs:
            assert key[0] in (0.0, 1.0, 2.0)

    def test_non_integer_rejected(self):
        c = Circuit(1, [GateSpec("encode", pauli="X", scale=0.3, dim=1)])
        with pytest.raises(NonIntegerFrequencyError):
            extract_trig_polynomial(c, Z_OBS, [])

    def test_components_refuse_a_non_integer_shift(self):
        # rounding 2|s| would give scale 0.3 the components of scale 0.5
        def components(scale):
            c = Circuit(1, [GateSpec("encode", pauli="X", scale=scale, dim=1)])
            return CompiledCircuit(c).frequency_components([])

        with pytest.raises(NonIntegerFrequencyError, match=r"gate 0 \(X on x_1, scale 0.3\)"):
            components(0.3)
        with pytest.raises(NonIntegerFrequencyError, match="gate 1"):
            gates = [GateSpec("encode", pauli="X", scale=s, dim=1) for s in (-1.0, -0.75)]
            CompiledCircuit(Circuit(1, gates)).frequency_components([])
        # e^{-i s x X}|0> = e^{-i|s|x} ((1 + e^{2i|s|x}) |0> + (1 - e^{2i|s|x}) |1>) / 2
        half, zero = [[0.5, 0.5], [0.5, -0.5]], [0.0, 0.0]
        assert np.allclose(components(0.5), half, rtol=0.0, atol=1e-15)
        assert np.allclose(components(1.0), [half[0], zero, half[1]], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("trial", range(12))
    def test_random_circuit_properties(self, trial):
        rng = np.random.default_rng(5000 + trial)
        c, obs, theta = random_circuit(rng)
        poly = extract_trig_polynomial(c, obs, theta)
        fs = poly.freq_set
        # independent DFT on a larger grid
        sizes = [int(2 * round(m) + 5) for m in fs.max_abs_freq()]
        values = evaluate_on_grid(c, obs, theta, sizes)
        oracle = dft_coefficients(values)
        lattice = [set(f.tolist()) for f in fs.per_dimension_freqs]
        for k, cval in oracle.items():
            on = all(float(k[j]) in lattice[j] for j in range(len(k)))
            if not on:
                assert abs(cval) <= 1e-9  # no spectral mass off the lattice
            else:
                got = poly.coeff(np.asarray(k, dtype=float))
                assert abs(got - cval) <= 1e-9
        # conjugate symmetry of the oracle itself
        for k, cval in oracle.items():
            mirror = tuple(-v for v in k)
            if mirror in oracle:
                assert abs(np.conj(oracle[mirror]) - cval) <= 1e-10
        # pointwise round trip
        pts = rng.uniform(0, 2 * np.pi, (20, fs.d))
        direct = np.array([evaluate_model(c, obs, theta, p) for p in pts])
        assert np.max(np.abs(direct - poly.evaluate(pts))) <= 1e-8
        # sup-norm bound carried by the polynomial
        probe = rng.uniform(0, 2 * np.pi, (2000, fs.d))
        assert np.max(np.abs(poly.evaluate(probe))) <= obs.inf_norm_bound + 1e-8

    def test_support_inside_lattice_built_from_encoding(self, rng):
        c, obs, theta = random_circuit(rng)
        fs = build_frequency_set(encoding_of(c))
        poly = extract_trig_polynomial(c, obs, theta)
        for key in poly.coeffs:
            fs.position(np.asarray(key))  # raises if outside


def assert_matches_dft(c, obs, theta, tol=1e-12):
    """Every coefficient against the plain DFT of grid values, on a grid two
    bins wider than the lattice on each side."""
    poly = extract_trig_polynomial(c, obs, theta)
    fs = poly.freq_set
    sizes = [int(2 * round(m) + 5) for m in fs.max_abs_freq()]
    lattice = [set(f.tolist()) for f in fs.per_dimension_freqs]
    for k, want in dft_coefficients(evaluate_on_grid(c, obs, theta, sizes)).items():
        if all(float(k[j]) in lattice[j] for j in range(len(k))):
            assert abs(poly.coeff(np.asarray(k, dtype=float)) - want) <= tol
        else:
            assert abs(want) <= tol
    return poly


class TestExtractAgainstDft:
    @pytest.mark.parametrize("trial", range(6))
    def test_random_circuits_with_fixed_gates(self, trial):
        rng = np.random.default_rng(6100 + trial)
        c, obs, theta = random_circuit(rng, fixed=True)
        assert {"fixed"} <= {g.kind for g in c.gates}
        assert_matches_dft(c, obs, theta)

    def test_mixed_gates_scales_and_dimensions(self):
        # d = 3 with no gate on x_2; scales 1/2, 1, 3/2, the first two also
        # negative; CZ, CNOT, a two-qubit fixed gate and an identity rotation
        rng = np.random.default_rng(61)
        c = Circuit(
            3,
            [
                GateSpec("encode", pauli="XIY", scale=0.5, dim=1),
                GateSpec("rot", pauli="III", theta_index=0),
                GateSpec("cz", control=0, target=2),
                GateSpec("encode", pauli="ZXI", scale=-1.0, dim=1),
                GateSpec("rot", pauli="YZX", theta_index=1),
                GateSpec("encode", pauli="IYZ", scale=1.5, dim=3),
                GateSpec("fixed", qubits=(2, 0), matrix=random_unitary(rng, 4)),
                GateSpec("cnot", control=1, target=0),
                GateSpec("encode", pauli="XXI", scale=1.0, dim=3),
                GateSpec("rot", pauli="IIY", theta_index=2),
                GateSpec("encode", pauli="YII", scale=-0.5, dim=3),
            ],
        )
        obs = Observable([(0.7, "ZII"), (-0.4, "XYZ"), (0.3, "III")])
        poly = assert_matches_dft(c, obs, rng.uniform(0, 2 * np.pi, 3))
        assert poly.d == 3
        assert [f.tolist() for f in poly.freq_set.per_dimension_freqs][1] == [0.0]
        assert any(k[2] != 0.0 for k in poly.coeffs)

    def test_no_pointwise_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("extraction simulated a single input")

        monkeypatch.setattr(CompiledCircuit, "run", refuse)
        poly = extract_trig_polynomial(cosine_circuit(), Z_OBS, [])
        assert abs(poly.coeff((1.0,)) - 0.5) <= 1e-12

    def test_leak_and_asymmetry_checks(self, monkeypatch):
        # state frequencies 0..2 but lattice {0, +-2}: Gram entry (0, 1)
        # lands on the off-lattice frequency 1, entry (0, 2) on +2 alone
        c = Circuit(1, [GateSpec("encode", pauli="X", scale=1.0, dim=1)])
        real_gram = CompiledObservable.gram

        def perturb(at, size):
            def gram(self, rows, block):
                out = real_gram(self, rows, block)
                out[at] += size
                return out

            monkeypatch.setattr(CompiledObservable, "gram", gram)

        perturb((0, 1), 1e-8)
        with pytest.raises(FloatingPointError, match="outside the encoding lattice"):
            extract_trig_polynomial(c, Z_OBS, [])
        monkeypatch.setattr(pqcsim, "LEAK_TOL", 1e-7)
        extract_trig_polynomial(c, Z_OBS, [])
        perturb((0, 2), 1e-9)
        with pytest.raises(FloatingPointError, match="conjugate symmetry violated"):
            extract_trig_polynomial(c, Z_OBS, [])


def two_dimension_circuit():
    """A complex propagation on two dimensions: lattice {-2..2} x {0, +-2}."""
    gates = [
        GateSpec("encode", pauli="XI", scale=0.5, dim=1),
        GateSpec("rot", pauli="YI", theta_index=0),
        GateSpec("encode", pauli="IY", scale=1.0, dim=2),
        GateSpec("rot", pauli="IX", theta_index=1),
        GateSpec("cz", control=0, target=1),
        GateSpec("encode", pauli="IX", scale=0.5, dim=1),
        GateSpec("rot", pauli="ZI", theta_index=2),
    ]
    return Circuit(2, gates), Observable([(1.0, "ZI"), (0.3, "XY")]), [0.7, -1.1, 0.4]


def pauli_encoding(*scales_per_dim):
    """An encoding with one spectrum {-s, +s} per scale s of each dimension."""
    return freqcore.EncodingStrategy(
        tuple(tuple(freqcore.HamiltonianSpectrum((-s, s)) for s in dim) for dim in scales_per_dim)
    )


class TestPlacement:
    """The coefficients land on the lattice the caller gives: the circuit's
    own, or a problem's lattice of another encoding."""

    # the extraction's bits on the circuit's own lattice, as float.hex of
    # each coefficient's real and imaginary parts, rows 0, 1, 3, 5, 6, 7
    RECORDED = [
        ("-0x1.de846b16748d8p-5", "0x0.0p+0"),
        ("0x1.8000000000000p-60", "0x1.3444efa8d9e44p-6"),
        ("0x1.87996529f9d8ap-2", "-0x1.0000000000000p-59"),
        ("0x1.1af32f183c827p-5", "-0x1.3444efa8d9e36p-7"),
        ("0x1.de846b16748ddp-6", "0x1.6c900daa00cf5p-5"),
        ("-0x1.1af32f183c828p-5", "0x1.3444efa8d9e35p-7"),
    ]

    def test_own_lattice_keeps_the_recorded_bits(self):
        c, obs, theta = two_dimension_circuit()
        own = build_frequency_set(encoding_of(c))
        want = [complex(float.fromhex(re), float.fromhex(im)) for re, im in self.RECORDED]
        for poly in (extract_trig_polynomial(c, obs, theta), extract_trig_polynomial(c, obs, theta, own)):
            assert poly.rows.tolist() == [0, 1, 3, 5, 6, 7]
            assert poly.c.tolist() == want
        assert extract_trig_polynomial(c, obs, theta, own).freq_set is own

    @pytest.mark.parametrize(
        "scales",
        [
            ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),  # integer, beyond the circuit's reach
            ([0.5, 0.5, 0.15], [1.0]),  # holds the circuit's integers among others
        ],
    )
    def test_larger_encoding_gets_the_relocated_target(self, scales):
        c, obs, theta = two_dimension_circuit()
        fs = build_frequency_set(pauli_encoding(*scales))
        own = extract_trig_polynomial(c, obs, theta)
        want = TrigPolynomial.from_half_arrays(fs, own.freqs, own.c)
        got = extract_trig_polynomial(c, obs, theta, fs)
        assert got.freq_set is fs
        assert np.array_equal(got.rows, want.rows) and np.array_equal(got.freqs, want.freqs)
        assert got.c.tolist() == want.c.tolist()

    def test_missing_frequency_is_refused_by_name(self):
        c, obs, theta = two_dimension_circuit()
        fs = build_frequency_set(pauli_encoding([0.5, 0.5], [0.5]))  # dimension 2 is {-1, 0, 1}
        with pytest.raises(ValueError, match=re.escape("frequency [0.0, 2.0]: 2.0 not in lattice dimension 2")):
            extract_trig_polynomial(c, obs, theta, fs)

    def test_leak_off_the_circuits_lattice_inside_a_larger_one(self, monkeypatch):
        # the circuit's lattice is {0, +-2}; the problem's {-2..2} holds the
        # leaked frequency 1, which is still refused
        c = Circuit(1, [GateSpec("encode", pauli="X", scale=1.0, dim=1)])
        fs = build_frequency_set(pauli_encoding([0.5, 0.5]))
        real_gram = CompiledObservable.gram

        def gram(self, rows, block):
            out = real_gram(self, rows, block)
            out[0, 1] += 1e-8
            return out

        clean = extract_trig_polynomial(c, Z_OBS, [], fs)
        assert clean.rows.tolist() == [2] and abs(clean.c[0] - 0.5) <= 1e-15
        monkeypatch.setattr(CompiledObservable, "gram", gram)
        with pytest.raises(FloatingPointError, match="outside the encoding lattice"):
            extract_trig_polynomial(c, Z_OBS, [], fs)


class TestValidation:
    def test_theta_count_follows_the_rotation_gates(self):
        rot = lambda i: GateSpec("rot", pauli="Y", theta_index=i)
        assert Circuit(1, []).theta_count == 0
        c = Circuit(1, [rot(2), rot(0)])
        assert c.theta_count == 3
        with pytest.raises(ValueError, match="theta must be 3 numbers long, got 2"):
            evaluate_model(c, Z_OBS, [0.1, 0.2], [])
        assert evaluate_model(c, Z_OBS, [0.1, 0.0, 0.2], []) == pytest.approx(np.cos(0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, bad):
        rot = lambda i: GateSpec("rot", pauli="Y", theta_index=i)
        c = Circuit(1, [GateSpec("encode", pauli="X", scale=0.5, dim=1), rot(0), rot(1)])
        msg = rf"parameter theta\[1\] is not finite \({bad}\)"
        with pytest.raises(ConfigError, match=msg):
            extract_trig_polynomial(c, Z_OBS, [0.1, bad])
        with pytest.raises(ConfigError, match=msg):
            evaluate_model(c, Z_OBS, [0.1, bad], [0.3])

    def test_theta_count_must_match(self):
        c = Circuit(1, [GateSpec("rot", pauli="Y", theta_index=0)])
        for theta in ([], [0.1, 0.2]):
            message = f"theta must be 1 numbers long, got {len(theta)}"
            with pytest.raises(ConfigError, match=message):
                evaluate_model(c, Z_OBS, theta, [])
            with pytest.raises(ConfigError, match=message):
                extract_trig_polynomial(c, Z_OBS, theta)

    def test_qubit_cap(self):
        with pytest.raises(ConfigError):
            Circuit(15, [])

    def test_bad_pauli_word(self):
        with pytest.raises(ConfigError):
            Circuit(2, [GateSpec("encode", pauli="XA", scale=1.0, dim=1)])
        with pytest.raises(ConfigError):
            Circuit(2, [GateSpec("encode", pauli="X", scale=1.0, dim=1)])  # wrong length
        with pytest.raises(ConfigError):
            Circuit(1, [GateSpec("encode", pauli="I", scale=1.0, dim=1)])  # identity encode

    def test_bad_two_qubit_gates(self):
        with pytest.raises(ConfigError):
            Circuit(2, [GateSpec("cnot", control=0, target=0)])
        with pytest.raises(ConfigError):
            Circuit(2, [GateSpec("cnot", control=0, target=5)])

    def test_fixed_gate_must_be_unitary(self):
        with pytest.raises(ConfigError):
            Circuit(1, [GateSpec("fixed", qubits=(0,), matrix=np.ones((2, 2)))])

    def test_fixed_gate_applies(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        c = Circuit(1, [GateSpec("fixed", qubits=(0,), matrix=hadamard)])
        state = CompiledCircuit(c).run([], [])
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert evaluate_model(c, Observable([(1.0, "X")]), [], []) == pytest.approx(1.0)

    def test_cnot_entangles(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        c = Circuit(
            2,
            [
                GateSpec("fixed", qubits=(0,), matrix=hadamard),
                GateSpec("cnot", control=0, target=1),
            ],
        )
        state = CompiledCircuit(c).run([], [])
        assert np.allclose(np.abs(state) ** 2, [0.5, 0.0, 0.0, 0.5])
        assert evaluate_model(c, Observable([(1.0, "ZZ")]), [], []) == pytest.approx(1.0)


def _layered(q, entanglers, blocked=False, layers=2):
    """Layers of X encodings over two dimensions, Y rotations and a run of
    entangling gates; ``blocked`` puts a two-qubit Z rotation at theta = 0,
    a step of its own, between each pair of entanglers, which keeps them
    from being fused."""

    def word(k, ch):
        return "".join(ch if i == k else "I" for i in range(q))

    gates, count = [], layers * q
    for layer in range(layers):
        gates += [GateSpec("encode", pauli=word(k, "X"), scale=0.5, dim=k % 2 + 1) for k in range(q)]
        gates += [GateSpec("rot", pauli=word(k, "Y"), theta_index=layer * q + k) for k in range(q)]
        for i, (kind, c, t) in enumerate(entanglers):
            if blocked and i:
                gates.append(GateSpec("rot", pauli="ZZ" + "I" * (q - 2), theta_index=count))
                count += 1
            gates.append(GateSpec(kind, control=c, target=t))
    return Circuit(q, gates), count


def benchmark_kind_circuit(q=10, layers=2):
    """The benchmark circuit's gate kinds: layers with a CNOT ladder, and
    the observable Z_0 + Z_{q-1}/2."""
    circuit, _ = _layered(q, [("cnot", k, k + 1) for k in range(q - 1)], layers=layers)
    return circuit, Observable([(1.0, "Z" + "I" * (q - 1)), (0.5, "I" * (q - 1) + "Z")])


def kinds(compiled):
    return [kind for kind, _, _ in compiled.steps]


class TestEntanglerFusion:
    @pytest.mark.parametrize(
        "entanglers",
        [
            [("cnot", k, k + 1) for k in range(5)],
            [("cz", 0, 3), ("cnot", 1, 2), ("cz", 2, 1), ("cz", 0, 3), ("cnot", 4, 0), ("cnot", 0, 4)],
        ],
    )
    def test_fused_runs_equal_the_gate_by_gate_circuit(self, entanglers):
        gen = np.random.default_rng(len(entanglers))
        fused, _ = _layered(6, entanglers, blocked=False)
        blocked, count = _layered(6, entanglers, blocked=True)
        theta = np.zeros(count)
        theta[:12] = gen.uniform(-np.pi, np.pi, 12)
        compiled = [CompiledCircuit(fused), CompiledCircuit(blocked)]
        steps = [kinds(c) for c in compiled]
        assert steps[0].count("perm") == 2 and steps[1].count("perm") == 2 * len(entanglers)
        # the blocked program is the fused one with each run split by rotations
        assert [k for k in steps[1] if k != "rot"] == [
            k for k in steps[0] for _ in range(len(entanglers) if k == "perm" else 1)
        ]
        # exact equality: the blockers multiply by 1 - 0j, which may only
        # flip the sign of a zero
        psi = [c.frequency_components(theta[: c.circuit.theta_count]) for c in compiled]
        assert psi[0].dtype == psi[1].dtype == np.float64
        assert np.array_equal(psi[0], psi[1])
        for x in gen.uniform(0, 2 * np.pi, (3, 2)):
            runs = [c.run(theta[: c.circuit.theta_count], x) for c in compiled]
            assert np.array_equal(runs[0], runs[1])
        x = gen.uniform(0, 2 * np.pi, 2)
        want = dense_statevector(fused, theta[:12], x)
        assert np.max(np.abs(compiled[0].run(theta[:12], x) - want)) <= 1e-12


class TestEigenbasisProgram:
    def test_benchmark_kind_circuit_propagates_in_float64(self):
        gen = np.random.default_rng(20)
        c, obs = benchmark_kind_circuit()
        theta = gen.uniform(-np.pi / 4, np.pi / 4, c.theta_count)
        compiled = CompiledCircuit(c)
        # per layer: one block of basis changes, one shift for the ten
        # encodings, one block of rotations fused with the basis changes
        # back, one permutation
        assert kinds(compiled) == ["block", "shift", "block", "perm"] * 2
        psi = compiled.frequency_components(theta)
        assert psi.dtype == np.float64 and psi.shape == (11, 11, 2**10)
        rows = psi.reshape(-1, 2**10)
        assert CompiledObservable(obs, c.qubits).gram(rows, 93).dtype == np.float64
        poly = extract_trig_polynomial(c, obs, theta)
        pts = gen.uniform(0, 2 * np.pi, (12, 2))
        direct = np.array([evaluate_model(c, obs, theta, p) for p in pts])
        assert np.max(np.abs(direct - poly.evaluate(pts))) <= 1e-12

    @pytest.mark.parametrize(
        "extra",
        [
            GateSpec("rot", pauli="IZI", theta_index=0),
            GateSpec("rot", pauli="XII", theta_index=0),
            GateSpec("encode", pauli="IIY", scale=0.5, dim=2),
            GateSpec("fixed", qubits=(1,), matrix=np.diag([1.0, 1j])),
        ],
        ids=["rz", "rx", "y-encoding", "complex-fixed"],
    )
    def test_complex_gates_propagate_in_complex128(self, extra):
        gen = np.random.default_rng(21)
        base, _ = benchmark_kind_circuit(q=3, layers=2)
        gates = list(base.gates)
        gates.insert(4, extra)  # inside the first layer
        c = Circuit(3, gates)
        obs = Observable([(1.0, "ZII"), (-0.6, "IXZ")])
        theta = gen.uniform(0, 2 * np.pi, c.theta_count)
        assert CompiledCircuit(c).frequency_components(theta).dtype == np.complex128
        assert_matches_dft(c, obs, theta)
        # the same circuit without the complex gate stays real
        assert CompiledCircuit(base).frequency_components(theta[:6]).dtype == np.float64

    def test_multi_qubit_words_move_a_parity_class(self):
        # a three-qubit word moves a parity class; a negative scale moves
        # the other class
        c = Circuit(
            3,
            [
                GateSpec("encode", pauli="XII", scale=0.5, dim=1),
                GateSpec("encode", pauli="XII", scale=-1.0, dim=1),
                GateSpec("encode", pauli="XYZ", scale=0.5, dim=2),
                GateSpec("rot", pauli="YXI", theta_index=0),
                GateSpec("encode", pauli="IZZ", scale=-0.5, dim=1),
            ],
        )
        compiled = CompiledCircuit(c)
        obs = Observable([(1.0, "ZZI"), (0.4, "XIY")])
        theta = [0.7]
        assert_matches_dft(c, obs, theta)
        gen = np.random.default_rng(22)
        for x in gen.uniform(0, 2 * np.pi, (3, 2)):
            assert np.max(np.abs(compiled.run(theta, x) - dense_statevector(c, theta, x))) <= 1e-12


    @pytest.mark.parametrize(
        "qubits, gates, program, runs",
        [
            # two X encodings on one qubit: the basis changes between them
            # end the first run
            (
                2,
                [
                    GateSpec("rot", pauli="YI", theta_index=0),
                    GateSpec("encode", pauli="XI", scale=0.5, dim=1),
                    GateSpec("encode", pauli="XI", scale=1.0, dim=1),
                    GateSpec("rot", pauli="IY", theta_index=1),
                    GateSpec("cnot", control=1, target=0),
                ],
                ["block", "shift", "block", "shift", "block", "perm"],
                [1, 1],
            ),
            # Z words need no basis change, so three on one qubit, over two
            # dimensions, are one run
            (
                2,
                [
                    GateSpec("rot", pauli="YI", theta_index=0),
                    GateSpec("rot", pauli="IX", theta_index=1),
                    GateSpec("encode", pauli="ZI", scale=0.5, dim=1),
                    GateSpec("encode", pauli="ZI", scale=-1.0, dim=1),
                    GateSpec("encode", pauli="ZI", scale=1.5, dim=2),
                    GateSpec("rot", pauli="XI", theta_index=2),
                    GateSpec("cz", control=0, target=1),
                ],
                ["block", "shift", "block", "perm"],
                [3],
            ),
            # a scale-0 gate joins its run and moves nothing
            (
                2,
                [
                    GateSpec("rot", pauli="YY", theta_index=0),
                    GateSpec("encode", pauli="XI", scale=0.5, dim=1),
                    GateSpec("encode", pauli="IY", scale=0.0, dim=1),
                    GateSpec("encode", pauli="ZI", scale=1.0, dim=2),
                ],
                ["rot", "block", "shift", "block", "shift"],
                [2, 1],
            ),
            # parity words of both signs, one of them in the X/Y eigenbasis
            (
                4,
                [
                    GateSpec("rot", pauli="YIYI", theta_index=0),
                    GateSpec("rot", pauli="IXIX", theta_index=1),
                    GateSpec("encode", pauli="IIXY", scale=0.5, dim=1),
                    GateSpec("encode", pauli="ZZII", scale=-0.5, dim=1),
                    GateSpec("encode", pauli="IZII", scale=1.0, dim=2),
                    GateSpec("encode", pauli="ZZII", scale=1.0, dim=2),
                    GateSpec("rot", pauli="XYZI", theta_index=2),
                ],
                ["rot", "rot", "block", "shift", "block", "rot"],
                [4],
            ),
        ],
        ids=["x-twice", "z-run", "scale-0", "parity-signs"],
    )
    def test_encoding_runs_match_the_dft_and_the_dense_simulation(self, qubits, gates, program, runs):
        c = Circuit(qubits, gates)
        compiled = CompiledCircuit(c)
        assert kinds(compiled) == program
        assert [len(gs) for kind, gs, _ in compiled.steps if kind == "shift"] == runs
        gen = np.random.default_rng(24)
        theta = gen.uniform(0, 2 * np.pi, c.theta_count)
        obs = Observable([(1.0, "Z" * qubits), (0.6, "X" + "I" * (qubits - 2) + "Y"), (-0.3, "I" * qubits)])
        assert_matches_dft(c, obs, theta)
        for x in gen.uniform(0, 2 * np.pi, (3, 2)):
            assert np.max(np.abs(compiled.run(theta, x) - dense_statevector(c, theta, x))) <= 1e-12


class TestPropagationCap:
    def test_refused_before_allocating(self, monkeypatch):
        # d = 3 with ten scale-1 gates per dimension: 21^3 x 2^14 real amplitudes, 1.2 GB
        word = "X" + "I" * 13
        gates = [GateSpec("encode", pauli=word, scale=1.0, dim=j + 1) for j in range(3) for _ in range(10)]
        compiled = CompiledCircuit(Circuit(14, gates))
        zeros = np.zeros

        def capped_zeros(shape, dtype=float, *args, **kwargs):
            assert np.dtype(dtype).itemsize * np.prod(shape) <= pqcsim.PROPAGATION_BYTES, "allocated past the cap"
            return zeros(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", capped_zeros)
        with pytest.raises(
            CapacityError, match=r"21 x 21 x 21 state frequencies of 14 qubits \(8 B amplitudes\) needs 1158 MiB"
        ):
            compiled.frequency_components([])

    def test_lattice_beyond_its_cap_is_refused_before_propagating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("propagated the state of a lattice beyond its cap")

        monkeypatch.setattr(CompiledCircuit, "frequency_components", refuse)
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 2)  # the cosine circuit's lattice has 3 points
        with pytest.raises(CapacityError, match=r"full lattice has 3 points \(cap 2\)"):
            extract_trig_polynomial(cosine_circuit(), Z_OBS, [])

    def test_cap_is_inclusive(self, monkeypatch):
        real, _ = _layered(4, [("cnot", 0, 1)], blocked=False)
        # the same circuit with a Z rotation, which makes it complex
        complex_ = Circuit(4, real.gates + [GateSpec("rot", pauli="ZIII", theta_index=0)])
        for circuit, itemsize in ((real, 8), (complex_, 16)):
            need = itemsize * 5 * 5 * 2**4  # four half-scale gates per dimension
            monkeypatch.setattr(pqcsim, "PROPAGATION_BYTES", need)
            theta = np.full(circuit.theta_count, 0.3)
            psi = CompiledCircuit(circuit).frequency_components(theta)
            assert psi.nbytes == need and psi.dtype.itemsize == itemsize
            monkeypatch.setattr(pqcsim, "PROPAGATION_BYTES", need - 1)
            with pytest.raises(CapacityError, match=f"{itemsize} B amplitudes"):
                CompiledCircuit(circuit).frequency_components(theta)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_peak_is_the_buffer_plus_one_slice(self, kind):
        # 12 qubits, three layers: a 19 x 19 box of 2^12 amplitudes, 11.8 MB
        # real.  The complex variant adds Y and three-qubit encodings (a
        # parity-mask move), a two-qubit rotation and a two-qubit fixed gate.
        c, _ = benchmark_kind_circuit(q=12, layers=3)
        gates = list(c.gates)
        if kind == "complex":
            gates[13:13] = [
                GateSpec("encode", pauli="IY" + "I" * 10, scale=-0.5, dim=1),
                GateSpec("encode", pauli="XIZY" + "I" * 8, scale=0.5, dim=2),
                GateSpec("rot", pauli="I" * 10 + "XX", theta_index=0),
                GateSpec("fixed", qubits=(5, 2), matrix=random_unitary(np.random.default_rng(9), 4)),
                GateSpec("cz", control=3, target=7),
            ]
        c = Circuit(12, gates)
        compiled = CompiledCircuit(c)
        theta = np.random.default_rng(23).uniform(-np.pi, np.pi, c.theta_count)
        tracemalloc.start()
        try:
            psi = compiled.frequency_components(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.dtype == (np.float64 if kind == "real" else np.complex128)
        one_slice = psi.nbytes // max(psi.shape[:-1])
        assert psi.nbytes > 8 * 2**20
        assert peak <= psi.nbytes + one_slice + 2**20

    def test_real_block_operands_own_their_data(self):
        # a .real view would hold its complex base through the propagation
        c, _ = benchmark_kind_circuit(q=6, layers=2)
        compiled = CompiledCircuit(c)
        theta = np.random.default_rng(3).uniform(-np.pi, np.pi, c.theta_count)
        ops, real = compiled._operands(compiled._theta(theta))
        blocks = [U for (kind, _, _), op in zip(compiled.steps, ops) if kind == "block" for _, _, U in op]
        assert real and blocks
        for U in blocks:
            assert U.dtype == np.float64 and U.base is None


class TestCircuitJson:
    def test_parse_and_extract(self):
        doc = {
            "qubits": 2,
            "gates": [
                {"kind": "encode", "pauli": "XI", "scale": 0.5, "dim": 1},
                {"kind": "rot", "pauli": "ZZ", "theta": 0},
                {"kind": "cnot", "c": 0, "t": 1},
            ],
            "observable": {"terms": [{"coef": 1.0, "pauli": "ZI"}]},
        }
        circuit, obs = circuit_from_json(doc)
        poly = extract_trig_polynomial(circuit, obs, [0.4])
        assert poly.d == 1

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            circuit_from_json({"qubits": 1})
        with pytest.raises(ConfigError):
            circuit_from_json(
                {"qubits": 1, "gates": [{"kind": "warp"}], "observable": {"terms": []}}
            )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("gates",), [5], "gate 0 must be an object, got 5"),
            (("gates",), {}, "gates must be an array, got {}"),
            (("gates", 0, "scale"), "a", "gate 0.scale must be a number, got 'a'"),
            (("gates", 0, "dim"), 1.7, "gate 0.dim must be an integer >= 1, got 1.7"),
            (("gates", 0, "dim"), True, "gate 0.dim must be an integer >= 1, got True"),
            (("gates", 0, "pauli"), None, "gate 0.pauli must be a string, got nothing"),
            (("gates", 0, "pauli"), 5, "gate 0.pauli must be a string, got 5"),
            (("gates", 1, "theta"), None, "gate 1.theta must be an integer >= 0, got nothing"),
            (("gates", 1, "theta"), 0.5, "gate 1.theta must be an integer >= 0, got 0.5"),
            (("gates", 2, "t"), "1", "gate 2.t must be an integer >= 0, got '1'"),
            (("gates", 2, "t"), 0, "gate 2.t must be a qubit other than c = 0, got 0"),
            (("gates", 2, "kind"), "warp", "gate 2.kind must be one of 'encode', 'rot', 'cnot', 'cz', 'fixed', got 'warp'"),
            (
                ("gates", 2),
                {"kind": "fixed", "qubits": [0], "matrix": [[1, 0], [0, 1]]},
                "gate 2.matrix must be a rectangular 3-d array of numbers, got [[1, 0], [0, 1]]",
            ),
            (
                ("gates", 2),
                {"kind": "fixed", "qubits": [0], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
                "gate 2.matrix must be a rectangular 3-d array of numbers",
            ),
            (
                ("gates", 2),
                {"kind": "fixed", "qubits": [0], "matrix": [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
                "gate 2.matrix must be a square array of [re, im] pairs",
            ),
            (
                ("gates", 2),
                {"kind": "fixed", "qubits": [0.5], "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                "gate 2.qubits[0] must be an integer >= 0, got 0.5",
            ),
            (("qubits",), 2.5, "qubits must be an integer >= 1, got 2.5"),
            (("observable",), [], "observable must be an object, got []"),
            (("observable", "terms"), {}, "observable.terms must be a non-empty array, got {}"),
            (("observable", "terms", 0), 5, "observable.terms[0] must be an object, got 5"),
            (("observable", "terms", 0, "coef"), None, "observable.terms[0].coef must be a number, got nothing"),
            (("observable", "terms", 0, "coef"), "1", "observable.terms[0].coef must be a number, got '1'"),
            (("observable", "terms", 0, "pauli"), "ZZZ", "observable.terms[0].pauli must be a Pauli word of 2 letters from IXYZ, got 'ZZZ'"),
        ],
    )
    def test_malformed_fields_name_the_gate_or_term(self, path, value, message):
        # the document of test_parse_and_extract with the entry at ``path``
        # set to ``value``, or removed for None
        doc = {
            "qubits": 2,
            "gates": [
                {"kind": "encode", "pauli": "XI", "scale": 0.5, "dim": 1},
                {"kind": "rot", "pauli": "ZZ", "theta": 0},
                {"kind": "cnot", "c": 0, "t": 1},
            ],
            "observable": {"terms": [{"coef": 1.0, "pauli": "ZI"}]},
        }
        *parents, key = path
        holder = doc
        for k in parents:
            holder = holder[k]
        if value is None:
            del holder[key]
        else:
            holder[key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            circuit_from_json(doc)


class TestEvenGridExtraction:
    def test_even_grid_roundtrip(self):
        # a scale-1 gate shifts state frequencies by 2, so the lattice
        # {0, +-2} leaves the odd differences unreached
        c = Circuit(
            1,
            [
                GateSpec("encode", pauli="X", scale=1.0, dim=1),
                GateSpec("rot", pauli="Y", theta_index=0),
            ],
        )
        poly = extract_trig_polynomial(c, Z_OBS, [0.8])
        xs = np.linspace(0, 2 * np.pi, 17, endpoint=False).reshape(-1, 1)
        direct = np.array([evaluate_model(c, Z_OBS, [0.8], row) for row in xs])
        assert np.max(np.abs(direct - poly.evaluate(xs))) <= 1e-10
