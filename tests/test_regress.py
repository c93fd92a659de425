import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import forbid_model_evaluation, pauli_half_encoding
from oracles import (
    dft_coefficients,
    krr_alpha_by_gram,
    quadrature_l2_norm_sq,
    rff_spectrum_by_feature,
)
from rffdq.errors import ConfigError
from rffdq.freqcore import EncodingStrategy, build_frequency_set
from rffdq.freqsample import ExplicitDistribution, SeededRng, explicit_from_weights, uniform_distribution
from rffdq.kernelmap import TrigPolynomial, WeightVector, distribution_of, kernel_matrix, l2_norm_sq
from rffdq.regress import (
    Dataset,
    RffFeatureSet,
    RffModel,
    empirical_risk,
    explicit_ridge_fit,
    holdout_split,
    kernel_ridge_fit,
    linear_ridge_fit,
    load_model,
    model_from_json,
    model_spectrum,
    rff_fit,
    rff_kernel_estimate,
    rff_model_spectrum,
    true_risk_estimate,
)


def cosine_dataset(n, seed, freq=1.0):
    gen = SeededRng(seed).generator()
    X = gen.uniform(0, 2 * np.pi, (n, 1))
    return Dataset(X, np.cos(freq * X[:, 0]), 1.0)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[7.0]]), np.array([0.0]), 1.0)  # outside [0, 2pi)
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([2.0]), 1.0)  # exceeds bound
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([np.nan]), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="inputs must be finite"):
                Dataset(np.array([[1.0], [bad]]), np.array([0.0, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nan,0.5", "line 3: non-finite value in 'nan,0.5'"),
            ("1.0,inf", "line 3: non-finite value in '1.0,inf'"),
            ("abc,0.5", "line 3: not a number in 'abc,0.5'"),
            ("1.0,0.5,0.2", "line 3: 3 columns, expected 2"),
            ("1.0", "line 3: 1 columns, expected 2"),
        ],
    )
    def test_malformed_csv_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "d.csv"
        path.write_text(f"x_1,y\n0.5,0.25\n{line}\n1.5,0.0\n")
        with pytest.raises(ConfigError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == f"{path}, {message}"

    def test_csv_without_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,y\n")
        with pytest.raises(ConfigError, match="no data rows"):
            Dataset.from_csv(path)

    def test_csv_roundtrip(self, tmp_path):
        data = cosine_dataset(20, 3)
        path = tmp_path / "d.csv"
        data.to_csv(path)
        loaded = Dataset.from_csv(path)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.Y, data.Y)

    def test_holdout_split(self):
        data = cosine_dataset(50, 0)
        train, test = holdout_split(data, seed=1)
        assert train.n == 40 and test.n == 10
        train2, test2 = holdout_split(data, seed=1)
        assert np.array_equal(train.X, train2.X)


class TestLinearRidge:
    def test_hand_example(self):
        w = linear_ridge_fit(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]), 1.0)
        assert w == pytest.approx([0.5])

    def test_zero_targets(self, rng):
        F = rng.normal(size=(10, 3))
        assert np.allclose(linear_ridge_fit(F, np.zeros(10), 0.3), 0.0)

    def test_scaled_orthonormal_columns(self, rng):
        # F^T F = n I  =>  lambda=0 solution is F^T Y / n
        n = 16
        Q, _ = np.linalg.qr(rng.normal(size=(n, 4)))
        F = Q * math.sqrt(n)
        Y = rng.normal(size=n)
        w = linear_ridge_fit(F, Y, 0.0)
        assert np.allclose(w, F.T @ Y / n, atol=1e-10)

    def test_singular_at_lambda_zero(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            linear_ridge_fit(F, np.array([1.0, 2.0]), 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linear_ridge_fit(np.array([[np.inf]]), np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            linear_ridge_fit(np.array([[1.0]]), np.array([1.0]), -0.5)

    def test_dual_path_matches_primal(self, rng):
        n, D = 30, 80
        F = rng.normal(size=(n, D))
        Y = rng.normal(size=n)
        lam = 0.05
        w_dual = linear_ridge_fit(F, Y, lam)  # D > n: dual route
        A = F.T @ F + lam * n * np.eye(D)
        w_direct = np.linalg.solve(A, F.T @ Y)
        assert np.max(np.abs(w_dual - w_direct)) <= 1e-8

    def test_lambda_monotone_norm(self, rng):
        F = rng.normal(size=(40, 6))
        Y = rng.normal(size=40)
        norms = [
            np.linalg.norm(linear_ridge_fit(F, Y, lam))
            for lam in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.fixture
def setup_1d5():
    enc = pauli_half_encoding([4])
    fs = build_frequency_set(enc)
    w = WeightVector.uniform(fs.size)
    return enc, fs, w


class TestKernelRidge:
    def test_scalar_example(self, setup_1d5):
        enc, fs, w = setup_1d5
        data = Dataset(np.array([[0.3]]), np.array([0.8]), 1.0)
        model = kernel_ridge_fit(data, enc, fs, w, 1.0)
        assert model.alpha == pytest.approx([0.4])

    def test_zero_targets(self, setup_1d5, rng):
        enc, fs, w = setup_1d5
        X = rng.uniform(0, 2 * np.pi, (12, 1))
        model = kernel_ridge_fit(Dataset(X, np.zeros(12), 1.0), enc, fs, w, 0.1)
        assert np.allclose(model.alpha, 0.0)
        assert np.allclose(model.predict(X), 0.0)

    def test_lambda_positive_required(self, setup_1d5):
        enc, fs, w = setup_1d5
        with pytest.raises(ValueError):
            kernel_ridge_fit(cosine_dataset(5, 0), enc, fs, w, 0.0)

    def test_matches_explicit_features(self, setup_1d5, rng):
        enc, fs, w = setup_1d5
        data = cosine_dataset(60, 5)
        for lam in (1e-4, 1e-2, 1.0):
            km = kernel_ridge_fit(data, enc, fs, w, lam)
            em = explicit_ridge_fit(data, enc, fs, w, lam)
            P = rng.uniform(0, 2 * np.pi, (100, 1))
            assert np.max(np.abs(km.predict(P) - em.predict(P))) <= 1e-8

    # D = 2|Omega| - 1 = 15: the ridge is primal at n = 40, dual at n = 10
    @pytest.mark.parametrize("n", [40, 10])
    @pytest.mark.parametrize("lam", [1e-2, 1.0])
    def test_matches_gram_solve(self, n, lam):
        enc = pauli_half_encoding([2, 1])
        fs = build_frequency_set(enc)
        gen = SeededRng(n).generator()
        w = WeightVector(gen.uniform(0.2, 1.0, fs.size))
        X = gen.uniform(0, 2 * np.pi, (n, 2))
        Y = np.cos(X[:, 0] - 2 * X[:, 1]) + gen.uniform(-0.1, 0.1, n)
        model = kernel_ridge_fit(Dataset(X, Y, 2.0), enc, fs, w, lam)
        alpha = krr_alpha_by_gram(X, Y, fs, w, lam)
        assert np.max(np.abs(model.alpha - alpha)) <= 1e-10 * np.max(np.abs(alpha))
        P = gen.uniform(0, 2 * np.pi, (50, 2))
        want = kernel_matrix(P, X, fs, w) @ alpha
        assert np.max(np.abs(model.predict(P) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_json_roundtrip_keeps_predictions_and_spectrum(self, rng):
        enc = pauli_half_encoding([2, 1])
        fs = build_frequency_set(enc)
        w = WeightVector(rng.uniform(0.2, 1.0, fs.size))
        X = rng.uniform(0, 2 * np.pi, (12, 2))
        model = kernel_ridge_fit(Dataset(X, np.sin(X[:, 1]), 1.0), enc, fs, w, 0.03)
        again = model_from_json(json.loads(json.dumps(model.to_json())))
        P = rng.uniform(0, 2 * np.pi, (30, 2))
        assert np.max(np.abs(again.predict(P) - model.predict(P))) <= 1e-12
        # the kernel expansion sum_j alpha_j K_w(x, x_j) has p(w)/2
        # sum_j alpha_j e^{-i<w, x_j>} at +w and p(0) sum_j alpha_j at 0
        p = distribution_of(w)
        c = 0.5 * p * (again.alpha @ np.exp(-1j * (again.X_train @ fs.half.T)))
        c[0] = p[0] * np.sum(again.alpha)
        for m in (model, again):
            spec = model_spectrum(m)
            got = np.array([spec.coeff(tuple(row)) for row in fs.half])
            assert np.max(np.abs(got - c)) <= 1e-12


class TestRffFit:
    def test_constant_distribution_recovers_mean(self):
        enc = pauli_half_encoding([1])
        fs = build_frequency_set(enc)
        dist = ExplicitDistribution(fs, [(0.0,)], [1.0])
        gen = SeededRng(2).generator()
        n = 4000
        X = gen.uniform(0, 2 * np.pi, (n, 1))
        c = 0.7
        data = Dataset(X, np.full(n, c), 1.0)
        model = rff_fit(data, dist, 16, "auto", SeededRng(4))
        preds = model.predict(gen.uniform(0, 2 * np.pi, (50, 1)))
        assert np.max(np.abs(preds - c)) <= 0.02 * c

    def test_single_frequency_span(self):
        enc = pauli_half_encoding([1])
        fs = build_frequency_set(enc)
        dist = ExplicitDistribution(fs, [(1.0,)], [1.0])
        data = cosine_dataset(200, 9)
        model = rff_fit(data, dist, 8, 1e-6, SeededRng(3))
        grid = np.linspace(0, 2 * np.pi, 256, endpoint=False).reshape(-1, 1)
        assert np.max(np.abs(model.predict(grid) - np.cos(grid[:, 0]))) <= 1e-3

    def test_deterministic(self, setup_1d5):
        enc, fs, w = setup_1d5
        dist = explicit_from_weights(fs, w)
        data = cosine_dataset(50, 1)
        m1 = rff_fit(data, dist, 32, "auto", SeededRng(12))
        m2 = rff_fit(data, dist, 32, "auto", SeededRng(12))
        assert np.array_equal(m1.coef, m2.coef)
        assert np.array_equal(m1.feature_set.frequencies, m2.feature_set.frequencies)
        assert np.array_equal(m1.feature_set.phases, m2.feature_set.phases)
        assert json.dumps(m1.to_json()) == json.dumps(m2.to_json())

    def test_auto_lambda(self):
        enc = pauli_half_encoding([1])
        fs = build_frequency_set(enc)
        dist = uniform_distribution(fs)
        data = cosine_dataset(64, 3)
        model = rff_fit(data, dist, 4, "auto", SeededRng(0))
        assert model.lam == pytest.approx(1.0 / 8.0)


class TestRffKernelEstimate:
    def test_diagonal_range(self, rng):
        fset = RffFeatureSet(rng.integers(-2, 3, size=(32, 1)).astype(float),
                             rng.uniform(0, 2 * np.pi, 32))
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, 1)
            v = rff_kernel_estimate(fset, x, x)
            assert 0.0 <= v <= 2.0

    def test_single_zero_feature(self):
        fset = RffFeatureSet(np.zeros((1, 1)), np.zeros(1))
        assert rff_kernel_estimate(fset, [0.7], [2.9]) == pytest.approx(2.0)

    def test_monte_carlo_error_scaling(self, setup_1d5, rng):
        from rffdq.kernelmap import kernel_eval

        enc, fs, w = setup_1d5
        dist = explicit_from_weights(fs, w)
        pairs = rng.uniform(0, 2 * np.pi, (200, 2, 1))
        exact = np.array([kernel_eval(a, b, fs, w) for a, b in pairs])
        M = 10_000
        gen = SeededRng(77).generator()
        fset = RffFeatureSet(dist.sample(gen, M), gen.uniform(0, 2 * np.pi, M))
        est = np.array([rff_kernel_estimate(fset, a, b) for a, b in pairs])
        assert np.mean(np.abs(est - exact)) <= 3.0 / math.sqrt(M)


class TestRisks:
    def test_empirical_risk_examples(self, setup_1d5):
        enc, fs, w = setup_1d5
        data = cosine_dataset(30, 2)
        em = explicit_ridge_fit(data, enc, fs, w, 1e-9)
        assert empirical_risk(em, data) <= 1e-12
        zero = RffModel(RffFeatureSet(np.zeros((1, 1)), np.zeros(1)), np.zeros(1), 0.0)
        d2 = Dataset(np.array([[0.1], [0.2]]), np.array([1.0, -1.0]), 1.0)
        assert empirical_risk(zero, d2) == pytest.approx(1.0)

    def test_true_risk_examples(self, setup_1d5):
        enc, fs, w = setup_1d5
        f_star = TrigPolynomial.from_half_coeffs(fs, {(1.0,): 0.5})
        data = cosine_dataset(120, 4)
        em = explicit_ridge_fit(data, enc, fs, w, 1e-10)
        assert true_risk_estimate(em, f_star, 0.0).value <= 1e-10
        assert true_risk_estimate(em, f_star, 0.01).value == pytest.approx(0.01, abs=1e-9)
        zero = RffModel(RffFeatureSet(np.zeros((1, 1)), np.zeros(1)), np.zeros(1), 0.0)
        assert true_risk_estimate(zero, f_star, 0.0).value == pytest.approx(0.5, abs=1e-12)

    def test_exact_path_at_d4(self, rng):
        fs = build_frequency_set(pauli_half_encoding([1, 1, 1, 1]))
        f_star = TrigPolynomial.from_half_coeffs(fs, {(1.0, 0.0, 0.0, 0.0): 0.5})
        zero = RffModel(RffFeatureSet(np.zeros((1, 4)), np.zeros(1)), np.zeros(1), 0.0)
        est = true_risk_estimate(zero, f_star, 0.0, mc_points=200_000, rng=rng)
        assert est.method == "exact" and est.stderr == 0.0
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_exact_path_off_integer_lattice(self):
        # lattice {0, +-0.6}: cos(0.6 x) is not orthogonal to 1 over [0, 2pi)
        fs = build_frequency_set(EncodingStrategy.from_json({"dimensions": [[[-0.3, 0.3]]]}))
        assert not fs.is_integer
        f_star = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        zero = RffModel(RffFeatureSet(np.zeros((1, 1)), np.zeros(1)), np.zeros(1), 0.0)
        est = true_risk_estimate(zero, f_star, 0.0)
        assert est.method == "exact" and est.stderr == 0.0
        exact = 0.5 + math.sin(2.4 * math.pi) / (4.8 * math.pi)
        assert est.value == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("dimensions", [[[[-0.3, 0.3]]], [[[-0.5, 0.5]], [[-0.35, 0.35]]]])
    def test_models_are_never_evaluated(self, dimensions, monkeypatch):
        enc = EncodingStrategy.from_json({"dimensions": dimensions})
        fs = build_frequency_set(enc)
        gen = SeededRng(8).generator()
        X = gen.uniform(0, 2 * np.pi, (30, fs.d))
        f_star = TrigPolynomial.on_rows(fs, [1, fs.size - 1], [complex(0.4, -0.2), 0.3])
        data = Dataset(X, f_star.evaluate(X), 2.0)
        w = WeightVector(np.ones(fs.size))
        models = [
            rff_fit(data, uniform_distribution(fs), 20, 1e-3, gen),
            explicit_ridge_fit(data, enc, fs, w, 1e-3),
            kernel_ridge_fit(data, enc, fs, w, 1e-3),
        ]
        want = [true_risk_estimate(m, f_star, 0.01) for m in models]
        forbid_model_evaluation(monkeypatch)
        assert [true_risk_estimate(m, f_star, 0.01) for m in models] == want
        assert all(est.method == "exact" and est.stderr == 0.0 for est in want)

    def test_non_integer_risk_memory_at_d4(self):
        # 7 values per dimension, 1201 canonical frequencies; sampling risk
        # points here would hold (points x M) angle and cosine matrices
        dims = [[[-0.3, 0.3], [-0.6, 0.6]]] * 4
        fs = build_frequency_set(EncodingStrategy.from_json({"dimensions": dims}))
        assert fs.size == 1201 and not fs.is_integer
        gen = SeededRng(12).generator()
        X = gen.uniform(0, 2 * np.pi, (60, 4))
        f_star = TrigPolynomial.on_rows(fs, [0, 7, 500, 1200], [0.2, 0.3, complex(0.1, 0.2), -0.25])
        data = Dataset(X, f_star.evaluate(X), 2.0)
        model = rff_fit(data, uniform_distribution(fs), 200, 1e-3, gen)
        tracemalloc.start()
        try:
            est = true_risk_estimate(model, f_star, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.method == "exact" and math.isfinite(est.value)
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("L_per_dim", [[4], [2, 1], [1, 1, 1]])
    def test_exact_krr_and_explicit_match_quadrature(self, L_per_dim):
        enc = pauli_half_encoding(L_per_dim)
        fs = build_frequency_set(enc)
        d = fs.d
        gen = SeededRng(31).generator()
        w = WeightVector(gen.uniform(0.2, 1.0, fs.size))
        f_star = TrigPolynomial.from_half_coeffs(
            fs, {tuple(fs.half[1]): complex(0.4, -0.2), tuple(fs.half[-1]): 0.3}
        )
        X = gen.uniform(0, 2 * np.pi, (30, d))
        data = Dataset(X, f_star.evaluate(X) + gen.uniform(-0.1, 0.1, 30), 2.0)
        grid = 2 * max(L_per_dim) + 1
        for model in (
            kernel_ridge_fit(data, enc, fs, w, 0.05),
            explicit_ridge_fit(data, enc, fs, w, 0.05),
        ):
            est = true_risk_estimate(model, f_star, 0.01)
            assert est.method == "exact" and est.stderr == 0.0
            quad = quadrature_l2_norm_sq(
                lambda P: model.predict(P) - f_star.evaluate(P), d, grid
            ) / (2 * np.pi) ** d
            assert est.value - 0.01 == pytest.approx(quad, rel=1e-10)


class TestPerfectErm:
    def test_least_squares_dominates_all_lattice_functions(self, setup_1d5, rng):
        enc, fs, w = setup_1d5
        gen = SeededRng(15).generator()
        X = gen.uniform(0, 2 * np.pi, (40, 1))
        f_star = TrigPolynomial.from_half_coeffs(fs, {(1.0,): 0.5, (3.0,): complex(0.1, 0.2)})
        Y = f_star.evaluate(X) + gen.uniform(-0.2, 0.2, 40)
        data = Dataset(X, Y, 2.0)
        ls = explicit_ridge_fit(data, enc, fs, w, 0.0)
        best = empirical_risk(ls, data)
        for probe in self._lattice_probes(fs, rng):
            probe_risk = float(np.mean((probe.evaluate(X) - Y) ** 2))
            assert best <= probe_risk + 1e-10

    @staticmethod
    def _lattice_probes(fs, rng):
        # random polynomials over the lattice
        for _ in range(30):
            rows = rng.choice(fs.size, size=rng.integers(1, 6), replace=False)
            mapping = {}
            for r in sorted(int(v) for v in rows):
                key = tuple(float(v) for v in fs.half[r])
                mapping[key] = (
                    complex(rng.uniform(-1, 1))
                    if all(v == 0.0 for v in key)
                    else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                )
            yield TrigPolynomial.from_half_coeffs(fs, mapping)
        # circuit-extracted models live on the same lattice and are dominated too
        from rffdq.pqcsim import Circuit, GateSpec, Observable, extract_trig_polynomial

        for theta in (0.3, 1.2, 2.6):
            gates = []
            for k in range(4):
                gates.append(GateSpec("encode", pauli="XI", scale=0.5, dim=1))
                gates.append(GateSpec("rot", pauli="ZY", theta_index=k))
                gates.append(GateSpec("cnot", control=0, target=1))
            circuit = Circuit(2, gates)
            obs = Observable([(0.8, "ZI"), (0.4, "XY")])
            yield extract_trig_polynomial(circuit, obs, [theta, 2 * theta, 0.4, 1.0])


class TestModelSerialization:
    def test_roundtrips(self, setup_1d5, rng, tmp_path):
        enc, fs, w = setup_1d5
        data = cosine_dataset(25, 8)
        dist = explicit_from_weights(fs, w)
        models = [
            explicit_ridge_fit(data, enc, fs, w, 0.01),
            kernel_ridge_fit(data, enc, fs, w, 0.01),
            rff_fit(data, dist, 16, 0.01, SeededRng(5)),
        ]
        P = rng.uniform(0, 2 * np.pi, (20, 1))
        for model in models:
            doc = model.to_json()
            path = tmp_path / "m.json"
            with open(path, "w") as fh:
                json.dump(doc, fh)
            again = load_model(path)
            assert json.dumps(again.to_json()) == json.dumps(doc)
            assert np.array_equal(again.predict(P), model.predict(P))

    def test_unknown_variant(self):
        with pytest.raises(Exception):
            model_from_json({"variant": "boost", "lambda": 1.0})


class TestRffSpectrum:
    @pytest.mark.parametrize("L_per_dim", [[3], [2, 2], [1] * 6])
    def test_matches_per_feature_oracle(self, L_per_dim):
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        gen = SeededRng(len(L_per_dim)).generator()
        # few distinct frequencies, the zero frequency among them, many repeats
        rows = gen.choice(min(fs.size, 6), size=200)
        fset = RffFeatureSet(fs.half[rows], gen.uniform(0, 2 * np.pi, 200))
        model = RffModel(fset, gen.normal(size=200), 0.1)
        want = rff_spectrum_by_feature(fset.frequencies, fset.phases, model.coef)
        assert (0.0,) * fs.d in want
        for lattice in (None, fs):
            got = rff_model_spectrum(model, lattice)
            assert set(got.coeffs) == set(want)
            for key, c in want.items():
                assert abs(got.coeffs[key] - c) <= 1e-14 * abs(c)

    def test_matches_dft_oracle(self, setup_1d5):
        enc, fs, w = setup_1d5
        dist = explicit_from_weights(fs, w)
        data = cosine_dataset(80, 21)
        model = rff_fit(data, dist, 24, 1e-3, SeededRng(9))
        spec = rff_model_spectrum(model, fs)
        N = 32
        grid = (2 * np.pi * np.arange(N) / N).reshape(-1, 1)
        oracle = dft_coefficients(model.predict(grid).reshape(N))
        for k in range(-4, 5):
            want = oracle[(k,)]
            got = spec.coeff((float(k),))
            assert abs(got - want) <= 1e-10
        # Parseval distance equals grid L2 distance against the target
        f_star = TrigPolynomial.from_half_coeffs(fs, {(1.0,): 0.5})
        diff = l2_norm_sq(f_star - spec)
        grid_big = (2 * np.pi * np.arange(64) / 64).reshape(-1, 1)
        direct = np.mean((model.predict(grid_big) - f_star.evaluate(grid_big)) ** 2) * 2 * np.pi
        assert diff == pytest.approx(float(direct), rel=1e-8)
