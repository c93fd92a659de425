import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import forbid_model_evaluation, pauli_half_encoding
from oracles import (
    dft_coefficients,
    direct_design,
    krr_alpha_by_gram,
    quadrature_l2_norm_sq,
    rff_spectrum_by_feature,
)
from rffdq.errors import ConfigError
from rffdq.freqcore import EncodingStrategy, build_frequency_set
from rffdq.freqsample import ExplicitDistribution, SeededRng, explicit_from_weights, uniform_distribution
from rffdq import regress
from rffdq.fourier import FourierTable
from rffdq.kernelmap import (
    TrigPolynomial,
    WeightVector,
    distribution_of,
    feature_map,
    feature_matrix,
    kernel_matrix,
    l2_norm_sq,
    weights_of,
)
from rffdq.regress import (
    Dataset,
    ExplicitLinearModel,
    RffFeatureSet,
    RffModel,
    empirical_risk,
    explicit_ridge_fit,
    holdout_split,
    kernel_ridge_fit,
    linear_ridge_fit,
    model_from_json,
    model_spectrum,
    rff_fit,
    rff_model_spectrum,
    true_risk_estimate,
)


def cosine_dataset(n, seed, freq=1.0):
    gen = SeededRng(seed).generator()
    X = gen.uniform(0, 2 * np.pi, (n, 1))
    return Dataset(X, np.cos(freq * X[:, 0]), 1.0)


def krr_dual(model, data):
    """The dual coefficients alpha = (Y - F v)/(n lambda) of a KRR model's
    hyperplane v, with F the feature matrix at the training points."""
    F = feature_matrix(data.X, model.fs, model.weights)
    return (data.Y - F @ model.v) / (data.n * model.lam)


def assert_solves_the_dual(model, data):
    """A KRR model's dual coefficients solve (K_w + n lambda I) alpha = Y
    to 1e-10 relative, with K_w from ``kernel_matrix``, and match the dense
    Gram solve as closely; returns the Gram solve's alpha."""
    alpha, n, lam = krr_dual(model, data), data.n, model.lam
    K = kernel_matrix(data.X, data.X, model.fs, model.weights)
    resid = (K + n * lam * np.eye(n)) @ alpha - data.Y
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(data.Y))
    want = krr_alpha_by_gram(data.X, data.Y, model.fs, model.weights, lam)
    assert np.max(np.abs(alpha - want)) <= 1e-10 * np.max(np.abs(want))
    return want


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
        rows = [",".join(map(repr, [*x, y])) for x, y in zip(data.X.tolist(), data.Y.tolist())]
        path.write_text("\n".join(["x_1,y", *rows]) + "\n")
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

    def test_rank_deficient_design_escalates_jitter(self, monkeypatch):
        # lambda n = 4e-300 vanishes next to F^T F = [[4, 4], [4, 4]], so the
        # regularized system is exactly singular and only jitter can solve it
        import rffdq.regress as regress

        rungs = []

        class Ladder(tuple):
            def __iter__(self):
                for rung in super().__iter__():
                    rungs.append(rung)
                    yield rung

        monkeypatch.setattr(regress, "_JITTER_LADDER", Ladder(regress._JITTER_LADDER))
        F = np.ones((4, 2))
        Y = np.array([1.0, 2.0, 3.0, 4.0])
        w = linear_ridge_fit(F, Y, 1e-300)
        assert rungs == [1e-12]
        assert w == pytest.approx([1.25, 1.25], rel=1e-10)

    def test_near_equal_columns_rejected_at_lambda_zero(self, rng):
        c = rng.normal(size=20)
        F = np.stack([c, c + 1e-9 * rng.normal(size=20)], axis=1)
        with pytest.raises(np.linalg.LinAlgError):
            linear_ridge_fit(F, rng.normal(size=20), 0.0)

    def test_full_rank_lambda_zero_matches_lstsq(self, rng):
        F = rng.normal(size=(30, 5))
        Y = rng.normal(size=30)
        want = np.linalg.lstsq(F, Y, rcond=None)[0]
        assert np.max(np.abs(linear_ridge_fit(F, Y, 0.0) - want)) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linear_ridge_fit(np.array([[np.inf]]), np.array([1.0]), 0.1)
        for lam in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
                linear_ridge_fit(np.array([[1.0]]), np.array([1.0]), lam)

    def test_nan_solution_fails_the_residual_check(self, monkeypatch):
        import rffdq.regress as regress

        monkeypatch.setattr(regress, "_solve_spd", lambda A, B, allow_jitter: np.full(B.shape, np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="residual check"):
            linear_ridge_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.1)

    def test_dual_path_matches_primal(self, rng):
        n, D = 30, 80
        F = rng.normal(size=(n, D))
        Y = rng.normal(size=n)
        lam = 0.05
        w_dual = linear_ridge_fit(F, Y, lam)  # D > n: dual route
        A = F.T @ F + lam * n * np.eye(D)
        w_direct = np.linalg.solve(A, F.T @ Y)
        assert np.max(np.abs(w_dual - w_direct)) <= 1e-8

    @pytest.mark.parametrize("n, D, lam", [(50, 20, 0.03), (20, 50, 0.03), (50, 20, 0.0)])
    def test_system_equals_the_identity_form(self, n, D, lam, monkeypatch):
        # n lambda goes onto the diagonal in place; the solved system must be
        # F^T F + n lambda I (primal) or F F^T + n lambda I (dual), bit for bit
        import rffdq.regress as regress

        gen = np.random.default_rng(n * D)
        F, Y = gen.normal(size=(n, D)), gen.normal(size=n)
        systems = []
        real_solve = regress._solve_spd

        def spy(A, B, allow_jitter):
            systems.append(A.copy())
            return real_solve(A, B, allow_jitter)

        monkeypatch.setattr(regress, "_solve_spd", spy)
        linear_ridge_fit(F, Y, lam)
        G = F.T @ F if lam == 0 or D <= n else F @ F.T
        assert len(systems) == 1
        assert np.array_equal(systems[0], G + lam * n * np.eye(G.shape[0]))

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
        assert krr_dual(model, data) == pytest.approx([0.4])

    def test_zero_targets(self, setup_1d5, rng):
        enc, fs, w = setup_1d5
        X = rng.uniform(0, 2 * np.pi, (12, 1))
        data = Dataset(X, np.zeros(12), 1.0)
        model = kernel_ridge_fit(data, enc, fs, w, 0.1)
        assert np.allclose(krr_dual(model, data), 0.0)
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
        data = Dataset(X, Y, 2.0)
        model = kernel_ridge_fit(data, enc, fs, w, lam)
        alpha = assert_solves_the_dual(model, data)
        P = gen.uniform(0, 2 * np.pi, (50, 2))
        want = kernel_matrix(P, X, fs, w) @ alpha
        assert np.max(np.abs(model.predict(P) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_json_roundtrip_keeps_predictions_and_spectrum(self, rng):
        enc = pauli_half_encoding([2, 1])
        fs = build_frequency_set(enc)
        w = WeightVector(rng.uniform(0.2, 1.0, fs.size))
        X = rng.uniform(0, 2 * np.pi, (12, 2))
        data = Dataset(X, np.sin(X[:, 1]), 1.0)
        model = kernel_ridge_fit(data, enc, fs, w, 0.03)
        doc = json.loads(json.dumps(model.to_json()))
        # the document holds the hyperplane, not the training points
        assert len(doc["v"]) == 2 * fs.size - 1 and not {"X", "alpha"} & set(doc)
        again = model_from_json(doc)
        assert again.variant == "krr" and np.array_equal(again.v, model.v)
        P = rng.uniform(0, 2 * np.pi, (30, 2))
        assert np.array_equal(again.predict(P), model.predict(P))
        # the kernel expansion sum_j alpha_j K_w(x, x_j) has p(w)/2
        # sum_j alpha_j e^{-i<w, x_j>} at +w and p(0) sum_j alpha_j at 0
        p, alpha = distribution_of(w), krr_dual(model, data)
        c = 0.5 * p * (alpha @ np.exp(-1j * (X @ fs.half.T)))
        c[0] = p[0] * np.sum(alpha)
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


def _draws(gen, half, M, U):
    """M features on the first U rows of ``half`` (the zero frequency
    among them), every one drawn at least once, in random draw order."""
    rows = np.concatenate([np.arange(U), gen.integers(0, U, size=M - U)])
    return RffFeatureSet(half[gen.permutation(rows)], gen.uniform(0, 2 * np.pi, M))


class TestRffGrouping:
    """The draws' grouping by integer codes is ``np.unique(axis=0)``'s."""

    @staticmethod
    def assert_unique_rows(freqs):
        fset = RffFeatureSet(freqs, np.zeros(freqs.shape[0]))
        distinct, first, inverse = np.unique(freqs, axis=0, return_index=True, return_inverse=True)
        # bytes, so that a -0.0 is kept where np.unique keeps it
        assert fset.distinct.tobytes() == distinct.tobytes()
        assert np.array_equal(fset.first, first)
        assert np.array_equal(fset.inverse, inverse.ravel())

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("integer", [True, False])
    def test_matches_unique_rows(self, d, integer):
        gen = np.random.default_rng([d, integer])
        values = np.arange(-3.0, 4.0) if integer else np.append(gen.uniform(-3.5, 3.5, 6), 0.0)
        freqs = values[gen.integers(0, 7, (300, d))]
        # repeated draws at every d, and zeros of both signs
        freqs[150:] = freqs[gen.integers(0, 150, 150)]
        zeros = freqs == 0
        freqs[zeros] = np.where(gen.random(zeros.sum()) < 0.5, -0.0, 0.0)
        self.assert_unique_rows(freqs)

    @pytest.mark.parametrize("d", [1, 2, 6])
    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_columns_ranked_once(self, d, integer, signed_zeros, monkeypatch):
        # the feature set hands its column ranks to its plane waves, and the
        # waves are bitwise those built from the distinct rows alone; with
        # zeros of both signs, np.unique may keep the other zero from the
        # distinct rows, and a sine of a zero angle may differ in its sign
        import rffdq.kernelmap as kernelmap
        import rffdq.regress as regress

        calls, real = [], kernelmap.column_ranks

        def spy(freqs):
            calls.append(freqs.shape)
            return real(freqs)

        gen = np.random.default_rng([d, integer, 1])
        values = np.arange(-3.0, 4.0) if integer else np.append(gen.uniform(-3.5, 3.5, 6), 0.0)
        freqs = values[gen.integers(0, 7, (200, d))]
        freqs[100:] = freqs[gen.integers(0, 100, 100)]
        if signed_zeros:
            zeros = freqs == 0
            freqs[zeros] = np.where(gen.random(zeros.sum()) < 0.5, -0.0, 0.0)
        monkeypatch.setattr(regress, "column_ranks", spy)
        monkeypatch.setattr(kernelmap, "column_ranks", spy)
        fset = RffFeatureSet(freqs, gen.uniform(0, 2 * np.pi, 200))
        assert calls == [(200, d)]
        alone = kernelmap.PlaneWaves(fset.distinct)
        assert fset.waves.tabled == alone.tabled
        X = gen.uniform(0, 2 * np.pi, (30, d))
        for (rows, got), (_, want) in zip(fset.waves.blocks(X), alone.blocks(X)):
            assert np.array_equal(got, want), rows
            assert signed_zeros or got.tobytes() == want.tobytes(), rows

    def test_codes_too_wide_for_one_integer(self):
        # 600 distinct values in each of 7 columns: 600^7 codes exceed
        # 2^62, so the key is ranked before it is widened
        gen = np.random.default_rng(7)
        freqs = gen.uniform(-5, 5, (800, 7))
        freqs[600:] = freqs[gen.integers(0, 600, 200)]
        self.assert_unique_rows(freqs)


class TestRffDesign:
    # None: ten continuous frequencies at d = 3, on a half (first entries
    # >= 0, the zero one first), whose waves stay direct at every M
    @pytest.mark.parametrize("L_per_dim", [[4], [2, 2], [1, 2, 1], [1, 1, 1, 1], None])
    @pytest.mark.parametrize("M_per_U", [1, 1.5, 2, 2.5, 8])
    def test_matches_the_direct_formula(self, L_per_dim, M_per_U):
        if L_per_dim is None:
            gen = SeededRng(5).generator()
            half = np.vstack([np.zeros(3), gen.uniform([0, -3, -3], 3, (9, 3))])
        else:
            gen = SeededRng(len(L_per_dim)).generator()
            half = build_frequency_set(pauli_half_encoding(L_per_dim)).half
        U = min(half.shape[0], 10)
        M = int(M_per_U * U)
        fset = _draws(gen, half, M, U)
        assert fset.distinct.shape[0] == U and not np.any(fset.distinct[0])
        assert L_per_dim is not None or not fset.waves.tabled
        X = gen.uniform(0, 2 * np.pi, (40, half.shape[1]))
        want = direct_design(fset.frequencies, fset.phases, X)
        got = fset.design_matrix(X)
        assert got.shape == (40, M)
        assert np.max(np.abs(got - want)) <= 1e-14
        coef = gen.normal(size=M)
        pred = RffModel(fset, coef, 0.1).predict(X)
        assert np.max(np.abs(pred - want @ coef)) <= 1e-13 * np.max(np.abs(want @ coef))

    @pytest.mark.parametrize("omega", [(0.0, 0.0), (1.0, -2.0)])
    @pytest.mark.parametrize("M", [1, 2, 7])
    def test_one_frequency(self, omega, M):
        gen = SeededRng(M).generator()
        fset = RffFeatureSet(np.tile(omega, (M, 1)), gen.uniform(0, 2 * np.pi, M))
        X = gen.uniform(0, 2 * np.pi, (25, 2))
        want = direct_design(fset.frequencies, fset.phases, X)
        assert np.max(np.abs(fset.design_matrix(X) - want)) <= 1e-14
        coef = gen.normal(size=M)
        pred = RffModel(fset, coef, 0.1).predict(X)
        assert np.max(np.abs(pred - want @ coef)) <= 1e-13 * np.max(np.abs(want @ coef))

    def test_memory_at_n500_M1600(self):
        fs = build_frequency_set(pauli_half_encoding([6, 6]))
        gen = SeededRng(3).generator()
        n, M = 500, 1600
        fset = RffFeatureSet(uniform_distribution(fs).sample(gen, M), gen.uniform(0, 2 * np.pi, M))
        assert 2 * fset.distinct.shape[0] <= M
        model = RffModel(fset, gen.normal(size=M), 0.1)
        X = gen.uniform(0, 2 * np.pi, (n, 2))
        peaks = []
        for call in (fset.design_matrix, model.predict):
            tracemalloc.start()
            try:
                call(X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * n * M * 8 + 2**20
        assert peaks[1] < n * M * 4

    @pytest.mark.parametrize("M", [200, 400, 1600])
    def test_tabled_design_and_prediction(self, M):
        # circuit_oracle's lattice: past 2U > M the tables still take the angle sum
        fs = build_frequency_set(pauli_half_encoding([10, 10]))
        gen = SeededRng(M).generator()
        fset = RffFeatureSet(fs.half[gen.integers(0, fs.size, M)], gen.uniform(0, 2 * np.pi, M))
        assert fset.waves.tabled
        X = gen.uniform(0, 2 * np.pi, (300, 2))
        want = direct_design(fset.frequencies, fset.phases, X)
        assert np.max(np.abs(fset.design_matrix(X) - want)) <= 1e-14
        coef = gen.normal(size=M)
        pred = RffModel(fset, coef, 0.1).predict(X)
        assert np.max(np.abs(pred - want @ coef)) <= 1e-13 * np.max(np.abs(want @ coef))

    def test_wrong_width_names_both_widths(self):
        for L, M in (([1, 1], 3), ([1, 1], 40), ([10, 10], 200)):  # direct, 2U > M; direct, 2U <= M; tabled
            fs = build_frequency_set(pauli_half_encoding(L))
            gen = SeededRng(M).generator()
            fset = RffFeatureSet(fs.half[gen.integers(0, fs.size, M)], gen.uniform(0, 2 * np.pi, M))
            model = RffModel(fset, gen.normal(size=M), 0.1)
            for call in (fset.design_matrix, model.predict):
                for X in (np.zeros((5, 3)), np.zeros((5, 1))):
                    with pytest.raises(ValueError, match=f"points have width {X.shape[1]}, but the frequencies have width 2"):
                        call(X)

    def test_coef_is_validated(self):
        fset = RffFeatureSet(np.array([[0.0], [1.0]]), np.array([0.5, 1.5]))
        for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="coef"):
                RffModel(fset, np.array(bad), 0.1)
        doc = RffModel(fset, np.array([1.0, 2.0]), 0.1).to_json()
        doc["coef"] = [1.0]
        with pytest.raises(ConfigError, match="coef"):
            model_from_json(doc)


def _factored_design(gen, n, M):
    """A design on a d = 2 lattice whose M draws hit U = 10 distinct
    frequencies: the zero frequency (whose sine column is zero) three
    times, half row 1 exactly once, and rows 2..9 at random, so M >> U."""
    fs = build_frequency_set(pauli_half_encoding([3, 3]))
    rows = np.concatenate([[0, 0, 0, 1], np.arange(2, 10), gen.integers(2, 10, size=M - 12)])
    fset = RffFeatureSet(fs.half[gen.permutation(rows)], gen.uniform(0, 2 * np.pi, M))
    X = gen.uniform(0, 2 * np.pi, (n, 2))
    Y = np.cos(X[:, 0] - X[:, 1]) + 0.5 * np.sin(X[:, 1]) + 0.1 * gen.normal(size=n)
    return fset, fset.design_matrix(X), Y


@pytest.fixture
def factored_calls(monkeypatch):
    """The feature sets whose ``factored_ridge`` ran, in call order."""
    calls, real = [], RffFeatureSet.factored_ridge

    def spy(self, table, lam):
        calls.append(self)
        return real(self, table, lam)

    monkeypatch.setattr(RffFeatureSet, "factored_ridge", spy)
    return calls


class TestFactoredRidge:
    """``linear_ridge_fit`` on an ``RffDesign`` solves in the span of the
    distinct frequencies exactly when lambda > 0 and 2U < min(n, M)."""

    @pytest.mark.parametrize("n, M", [(60, 200), (300, 200), (300, 2000)])
    @pytest.mark.parametrize("lam", ["auto", 1e-3])
    def test_matches_the_direct_solve(self, n, M, lam, factored_calls):
        fset, F, Y = _factored_design(np.random.default_rng([n, M]), n, M)
        counts = np.bincount(fset.inverse)
        assert fset.distinct.shape[0] == 10 and not np.any(fset.distinct[0])
        assert counts[0] == 3 and sorted(counts)[0] == 1
        lam = 1.0 / math.sqrt(n) if lam == "auto" else lam
        w = linear_ridge_fit(F, Y, lam)
        want = linear_ridge_fit(np.asarray(F), Y, lam)
        assert len(factored_calls) == 1 and factored_calls[0] is fset
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [20, 21, 60])
    @pytest.mark.parametrize("M", [20, 21, 200])
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_runs_exactly_when_lambda_positive_and_2u_below_min_n_m(self, n, M, lam, factored_calls):
        gen = np.random.default_rng([n, M])
        fs = build_frequency_set(pauli_half_encoding([3, 3]))
        fset = RffFeatureSet(fs.half[np.arange(M) % 10], gen.uniform(0, 2 * np.pi, M))
        X = gen.uniform(0, 2 * np.pi, (n, 2))
        try:
            linear_ridge_fit(fset.design_matrix(X), np.cos(X[:, 0]), lam)
        except np.linalg.LinAlgError:  # lambda = 0 on a rank-deficient design
            assert lam == 0
        assert len(factored_calls) == int(lam > 0 and 20 < min(n, M))

    def test_derived_arrays_take_the_direct_route(self, factored_calls):
        fset, F, Y = _factored_design(np.random.default_rng(5), 60, 200)
        assert type(np.asarray(F)) is np.ndarray
        derived = [(F.T, F[0]), (F[:, :150], Y), (F.copy(), Y), (2 * F, Y), (np.asarray(F), Y)]
        for G, y in derived:
            assert getattr(G, "feature_set", None) is None
            got = linear_ridge_fit(G, y, 0.05)
            assert np.array_equal(got, linear_ridge_fit(np.array(G), y, 0.05))
        assert factored_calls == []

    def test_lambda_zero_is_the_direct_result(self, factored_calls):
        gen = np.random.default_rng(9)
        fset, F, Y = _factored_design(gen, 60, 200)
        for G in (F, np.asarray(F)):  # 2U = 20 < M: singular either way
            with pytest.raises(np.linalg.LinAlgError, match="singular at lambda = 0"):
                linear_ridge_fit(G, Y, 0.0)
        fs = build_frequency_set(pauli_half_encoding([3, 3]))
        fset = RffFeatureSet(fs.half[1:9], gen.uniform(0, 2 * np.pi, 8))
        F = fset.design_matrix(gen.uniform(0, 2 * np.pi, (60, 2)))
        Y = gen.normal(size=60)
        assert np.array_equal(linear_ridge_fit(F, Y, 0.0), linear_ridge_fit(np.asarray(F), Y, 0.0))
        assert factored_calls == []

    @pytest.mark.parametrize("gap", [0.0, 1e-6, np.pi])
    @pytest.mark.parametrize("lam", [1e-8, 1e-12])
    def test_nearly_collinear_features_at_small_lambda(self, gap, lam, factored_calls):
        # two draws of one frequency whose phases coincide or differ by pi
        # make S's block singular, and nearly equal ones nearly so: the fit
        # passes its residual check, and its ridge objective is the direct
        # route's, where the weights themselves are ill-determined
        gen = np.random.default_rng(3)
        freqs = np.array([[1.0], [1.0], [2.0], [2.0], [2.0], [0.0], [0.0], [3.0], [3.0]])
        phases = np.array([1.0, (1.0 + gap) % (2 * np.pi), 0.1, 2.0, 4.0, 0.5, 1.5, 2.2, 5.0])
        fset = RffFeatureSet(freqs, phases)
        X = gen.uniform(0, 2 * np.pi, (2000, 1))
        Y = np.cos(X[:, 0]) + np.sin(X[:, 0]) + np.cos(2 * X[:, 0] + 0.3)
        F = np.asarray(fset.design_matrix(X))

        def objective(w):
            return float(np.sum((Y - F @ w) ** 2) + 2000 * lam * np.sum(w**2))

        got = objective(linear_ridge_fit(fset.design_matrix(X), Y, lam))
        assert len(factored_calls) == 1
        want = objective(linear_ridge_fit(F, Y, lam))
        assert abs(got - want) <= 1e-10 * want


class TestTableRoute:
    """Factored fits and the KRR oracle read their Grams from a
    ``FourierTable`` exactly where its cost rule takes their frequencies,
    and form the wave basis or the feature matrix everywhere else."""

    @pytest.fixture
    def bases(self, monkeypatch):
        """The calls of ``_wave_basis`` and ``feature_matrix``, in order."""
        calls = []

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(RffFeatureSet, "_wave_basis", spy("wave_basis", RffFeatureSet._wave_basis))
        monkeypatch.setattr(regress, "feature_matrix", spy("feature_matrix", regress.feature_matrix))
        return calls

    @pytest.mark.parametrize(
        "freqs, tabled",
        [
            (np.arange(8.0)[:, None], True),
            (0.5 * np.arange(8.0)[:, None], False),  # not integers
            (np.vstack([np.zeros(6), np.eye(6), 2 * np.eye(6)]), False),  # 9^6 > 2 U^2
            (np.vstack([np.zeros(6), np.eye(6)]), False),  # 5^6 > 2 U^2
        ],
    )
    def test_factored_ridge(self, freqs, tabled, bases):
        gen = np.random.default_rng(len(freqs))
        M, n, d = 4 * len(freqs), 3 * len(freqs) + 20, freqs.shape[1]
        fset = RffFeatureSet(freqs[np.arange(M) % len(freqs)], gen.uniform(0, 2 * np.pi, M))
        X = gen.uniform(0, 2 * np.pi, (n, d))
        Y = np.cos(X[:, 0]) + 0.1 * gen.normal(size=n)
        table = FourierTable(X, Y)
        w = fset.factored_ridge(table, 0.01)
        assert bases == ([] if tabled else ["wave_basis"])
        assert len(table.boxes) == int(tabled)
        want = linear_ridge_fit(np.asarray(fset.design_matrix(X)), Y, 0.01)
        assert np.max(np.abs(w - want)) <= 1e-11 * np.max(np.abs(want))

    # D = 2 |half| - 1 = 15: primal and tabled at n = 40, dual at n = 10
    @pytest.mark.parametrize("n, tabled", [(40, True), (15, True), (14, False)])
    def test_kernel_ridge_on_an_integer_lattice(self, n, tabled, bases):
        enc = pauli_half_encoding([2, 1])
        fs = build_frequency_set(enc)
        gen = np.random.default_rng(n)
        w = WeightVector(gen.uniform(0.2, 1.0, fs.size))
        X = gen.uniform(0, 2 * np.pi, (n, 2))
        Y = np.cos(X[:, 0] - 2 * X[:, 1]) + gen.uniform(-0.1, 0.1, n)
        data = Dataset(X, Y, 2.0)
        model = kernel_ridge_fit(data, enc, fs, w, 0.05)
        assert bases == ([] if tabled else ["feature_matrix"])
        assert len(data.table.boxes) == int(tabled)
        assert_solves_the_dual(model, data)
        again = model_from_json(json.loads(json.dumps(model.to_json())))
        assert np.array_equal(again.v, model.v)

    def test_kernel_ridge_with_zero_probability_frequencies(self, bases, monkeypatch):
        # the sampler's support leaves out the zero frequency and two more
        # half rows: their weights are 0, so C has a zero cosine row there
        enc = pauli_half_encoding([2, 1])
        fs = build_frequency_set(enc)
        gen = np.random.default_rng(17)
        keep = np.ones(fs.size, dtype=bool)
        keep[[0, 2, 5]] = False
        probs = gen.uniform(0.2, 1.0, keep.sum())
        w = weights_of(ExplicitDistribution(fs, fs.half[keep], probs / probs.sum()).pmf_vector())
        assert np.flatnonzero(w.weights == 0).tolist() == [0, 2, 5]
        X = gen.uniform(0, 2 * np.pi, (40, 2))
        Y = np.cos(X[:, 0] - 2 * X[:, 1]) + 0.5 + gen.uniform(-0.1, 0.1, 40)
        data = Dataset(X, Y, 2.0)
        model = kernel_ridge_fit(data, enc, fs, w, 0.05)
        assert bases == []
        assert_solves_the_dual(model, data)
        again = model_from_json(json.loads(json.dumps(model.to_json())))
        assert np.array_equal(again.v, model.v)
        monkeypatch.setattr(regress, "_krr_tabled", lambda fs, n: False)
        direct = kernel_ridge_fit(data, enc, fs, w, 0.05)
        assert bases == ["feature_matrix"] and direct.variant == "krr"
        P = gen.uniform(0, 2 * np.pi, (50, 2))
        want = direct.predict(P)
        assert np.max(np.abs(model.predict(P) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_kernel_ridge_on_a_warm_table_does_not_touch_the_points(self, bases, monkeypatch):
        # sweep_lowd's lattice; the fit reads the box, so no point is read
        from rffdq import fourier
        from rffdq.kernelmap import PlaneWaves

        enc = pauli_half_encoding([6, 6])
        fs = build_frequency_set(enc)
        gen = np.random.default_rng(3)
        X = gen.uniform(0, 2 * np.pi, (1500, 2))
        Y = np.sin(X[:, 0] + X[:, 1]) + 0.1 * gen.normal(size=1500)
        data = Dataset(X, Y, float(np.max(np.abs(Y))))
        data.table.gram(fs.half)  # a warm table: its box is formed already

        def forbidden(*args, **kwargs):
            raise AssertionError("the fit read the points")

        monkeypatch.setattr(fourier, "_power_tables", forbidden)
        monkeypatch.setattr(PlaneWaves, "blocks", forbidden)
        w = WeightVector(gen.uniform(0.5, 1.0, fs.size))
        model = kernel_ridge_fit(data, enc, fs, w, 1e-3)
        again = model_from_json(json.loads(json.dumps(model.to_json())))
        assert bases == [] and np.array_equal(again.v, model.v)

    def test_kernel_ridge_off_the_integers_forms_the_feature_matrix(self, bases):
        enc = EncodingStrategy.from_json({"dimensions": [[[-0.3, 0.3]], [[-0.5, 0.5]]]})
        fs = build_frequency_set(enc)
        gen = np.random.default_rng(1)
        X = gen.uniform(0, 2 * np.pi, (30, 2))
        kernel_ridge_fit(Dataset(X, np.sin(X[:, 1]), 1.0), enc, fs, WeightVector.uniform(fs.size), 0.1)
        assert bases == ["feature_matrix"]

    def test_shared_and_fresh_tables_fit_the_same_bits(self):
        # a second dataset over the same arrays fits on a fresh table
        dist, data = _factored_problem(300, 2000)
        enc = pauli_half_encoding([3, 3])
        fs = build_frequency_set(enc)
        w = WeightVector(np.random.default_rng(0).uniform(0.2, 1.0, fs.size))
        for _ in range(2):
            shared = rff_fit(data, dist, 2000, 1e-3, SeededRng(4)).coef
            again = Dataset(data.X, data.Y, data.b_bound)
            assert np.array_equal(shared, rff_fit(again, dist, 2000, 1e-3, SeededRng(4)).coef)
            krr = kernel_ridge_fit(data, enc, fs, w, 1e-3)
            again = Dataset(data.X, data.Y, data.b_bound)
            fresh = kernel_ridge_fit(again, enc, fs, w, 1e-3)
            assert np.array_equal(krr.v, fresh.v)
        # one box for the drawn frequencies (half rows 0..9) and one for the half
        assert sorted(data.table.boxes) == [(1, 3), (3, 3)]

    def test_fits_on_one_dataset_read_its_table(self, monkeypatch):
        # a factored rff_fit and the KRR oracle read the one table that the
        # dataset forms on first use, and form one box per reach
        dist, data = _factored_problem(300, 2000)
        enc = pauli_half_encoding([3, 3])
        fs = build_frequency_set(enc)
        w = WeightVector(np.random.default_rng(0).uniform(0.2, 1.0, fs.size))
        read, formed, gram, box = [], [], FourierTable.gram, FourierTable.box

        def spy_gram(self, freqs):
            read.append(self)
            return gram(self, freqs)

        def spy_box(self, reach):
            if reach not in self.boxes:
                formed.append(reach)
            return box(self, reach)

        monkeypatch.setattr(FourierTable, "gram", spy_gram)
        monkeypatch.setattr(FourierTable, "box", spy_box)
        assert "table" not in vars(data)
        for _ in range(2):
            rff_fit(data, dist, 2000, 1e-3, SeededRng(4))
            kernel_ridge_fit(data, enc, fs, w, 1e-3)
        assert len(read) == 4 and all(table is data.table for table in read)
        assert sorted(formed) == [(1, 3), (3, 3)]


class _Draws:
    """A sampler that returns fixed draws, so that ``rff_fit`` fits a
    chosen feature set's frequencies (with phases from its own rng)."""

    def __init__(self, freqs):
        self.freqs = freqs

    def sample(self, gen, M):
        assert M == self.freqs.shape[0]
        return self.freqs


def _factored_problem(n, M):
    """``_factored_design``'s frequencies as a sampler, and its points and
    labels as a dataset."""
    fset, F, Y = _factored_design(np.random.default_rng([n, M]), n, M)
    return _Draws(fset.frequencies), Dataset(F.points, Y, float(np.max(np.abs(Y))))


class TestRffFit:
    """``rff_fit`` solves through ``RffFeatureSet.ridge``: factored with no
    design where lambda > 0 and 2U < min(n, M), on the design elsewhere,
    and always with the weights of ``linear_ridge_fit`` on the design."""

    @pytest.mark.parametrize("n, M", [(60, 200), (300, 200), (300, 2000)])
    def test_factored_shapes_form_no_design(self, n, M, monkeypatch, factored_calls):
        dist, data = _factored_problem(n, M)

        def forbidden(*args, **kwargs):
            raise AssertionError("design formed")

        monkeypatch.setattr(RffFeatureSet, "design_matrix", forbidden)
        model = rff_fit(data, dist, M, 1e-3, SeededRng(n))
        assert len(factored_calls) == 1 and factored_calls[0] is model.feature_set

    # primal: 2U > M and M <= n; dual: 2U = n < M; factored: 2U < min(n, M);
    # and lambda = 0, which is primal on every shape
    @pytest.mark.parametrize("n, M, lam, factored", [
        (60, 12, 1e-3, False), (20, 200, 1e-3, False), (60, 200, 1e-3, True),
        (300, 2000, "auto", True), (60, 12, 0.0, False),
    ])
    def test_weights_are_those_of_the_design_route(self, n, M, lam, factored, factored_calls):
        if M == 12:  # twelve draws with at least seven distinct frequencies
            gen = np.random.default_rng(4)
            fs = build_frequency_set(pauli_half_encoding([3, 3]))
            freqs = fs.half[np.concatenate([np.arange(7), gen.integers(0, 25, 5)])]
            X = gen.uniform(0, 2 * np.pi, (n, 2))
            Y = np.cos(X[:, 0]) + 0.1 * gen.normal(size=n)
            dist, data = _Draws(freqs), Dataset(X, Y, float(np.max(np.abs(Y))))
        else:
            dist, data = _factored_problem(n, M)
        model = rff_fit(data, dist, M, lam, SeededRng(M))
        fset = model.feature_set
        assert fset.factors(n, model.lam) == factored
        assert len(factored_calls) == int(factored)
        want = linear_ridge_fit(fset.design_matrix(data.X), data.Y, model.lam)
        assert np.array_equal(model.coef, want)
        assert len(factored_calls) == 2 * int(factored)

    @pytest.mark.parametrize("n, M", [(60, 200), (300, 200), (300, 2000)])
    def test_a_perturbed_solution_fails_the_residual_check(self, n, M, monkeypatch):
        from rffdq import regress

        dist, data = _factored_problem(n, M)
        rff_fit(data, dist, M, 1e-3, SeededRng(n))  # the exact solution passes
        solve = regress._solve_spd
        monkeypatch.setattr(regress, "_solve_spd", lambda *args, **kw: solve(*args, **kw) * (1 + 1e-6))
        with pytest.raises(np.linalg.LinAlgError, match="failed the residual check"):
            rff_fit(data, dist, M, 1e-3, SeededRng(n))

    @pytest.mark.parametrize("n, M", [(60, 200), (300, 200), (300, 2000)])
    def test_the_factored_residual_is_the_designs(self, n, M):
        # F^T F w and F^T Y through B and C are the explicit design's, and
        # so is the residual, both at the solution (where it is rounding
        # noise, compared on the check's scale) and away from it
        fset, F, Y = _factored_design(np.random.default_rng([n, M]), n, M)
        X, F, lam = F.points, np.asarray(F), 1e-3
        B = fset._wave_basis(X)
        w = fset.ridge(Dataset(X, Y, float(np.max(np.abs(Y)))), lam)
        for v, scale in ((w, 1.0 + np.max(np.abs(F.T @ Y))), (w * 1.01, None)):
            FtFw, FtY = regress._normal_products(B.T @ B, B.T @ Y, fset.inverse, fset.a, fset.b, v)
            want_FtFw, want_FtY = F.T @ (F @ v), F.T @ Y
            assert np.max(np.abs(FtFw - want_FtFw)) <= 1e-12 * np.max(np.abs(want_FtFw))
            assert np.max(np.abs(FtY - want_FtY)) <= 1e-12 * np.max(np.abs(want_FtY))
            got = FtFw + n * lam * v - FtY
            want = want_FtFw + n * lam * v - want_FtY
            scale = scale or np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def benchmark_shape_calls():
    """(name, call) for every routed trigonometric call of a benchmark cell,
    at that workload's lattice, n and M: the labels, the KRR feature map
    where the oracle runs, and each M's design and prediction."""
    gen = np.random.default_rng(0)
    calls = []
    for name, L, d, n, Ms in (
        ("sweep_lowd", 6, 2, 500, (100, 400, 1600)),
        ("circuit_oracle", 10, 2, 300, (50, 200)),
        ("sweep_highdim", 2, 6, 800, (100, 400)),
    ):
        fs = build_frequency_set(pauli_half_encoding([L] * d))
        X = gen.uniform(0, 2 * np.pi, (n, d))
        rows = np.arange(1, fs.size) if name == "circuit_oracle" else gen.choice(fs.size, 8, replace=False)
        f = TrigPolynomial.on_rows(fs, rows, gen.normal(size=rows.size) + 1j * gen.normal(size=rows.size))
        calls.append((f"{name} labels", lambda f=f, X=X: f.evaluate(X)))
        if name == "sweep_lowd":
            w = WeightVector(gen.uniform(0.5, 1.0, fs.size))
            calls.append((f"{name} krr features", lambda X=X, fs=fs, w=w: feature_matrix(X, fs, w)))
        for M in Ms:
            fset = RffFeatureSet(fs.half[gen.integers(0, fs.size, M)], gen.uniform(0, 2 * np.pi, M))
            model = RffModel(fset, gen.normal(size=M), 0.1)
            calls.append((f"{name} design M={M}", lambda fset=fset, X=X: fset.design_matrix(X)))
            calls.append((f"{name} predict M={M}", lambda model=model, X=X: model.predict(X)))
    return calls


# tracemalloc peak (bytes) of each call above at the commit before phase
# tables, numpy 2.4 and CPython 3.11
DIRECT_FORM_PEAK_BYTES = {
    "sweep_lowd labels": 77320,
    "sweep_lowd krr features": 1750856,
    "sweep_lowd design M=100": 866096,
    "sweep_lowd predict M=100": 303944,
    "sweep_lowd design M=400": 3330592,
    "sweep_lowd predict M=400": 408712,
    "sweep_lowd design M=1600": 8120992,
    "sweep_lowd predict M=1600": 408712,
    "circuit_oracle labels": 1068124,
    "circuit_oracle design M=50": 306496,
    "circuit_oracle predict M=50": 170984,
    "circuit_oracle design M=200": 1025296,
    "circuit_oracle predict M=200": 383912,
    "sweep_highdim labels": 122920,
    "sweep_highdim design M=100": 1346096,
    "sweep_highdim predict M=100": 708592,
    "sweep_highdim design M=400": 5185296,
    "sweep_highdim predict M=400": 2575736,
}


class TestPeakMemoryAtBenchmarkShapes:
    def test_no_call_peaks_above_the_direct_forms(self):
        for name, call in benchmark_shape_calls():
            call()  # first-call set-up is not the call's own memory
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= DIRECT_FORM_PEAK_BYTES[name], name


    # sweep_lowd's factored cells form no n x M design: at M = 1600 the fit
    # peaks below half of one n x M float64 array, and at M = 400 below
    # the 2921056 B it took when it formed the design (numpy 2.4, CPython 3.11)
    @pytest.mark.parametrize("M, limit", [(400, 2921056), (1600, 500 * 1600 * 4)])
    def test_factored_rff_fit_forms_no_design(self, M, limit):
        n = 500
        fs = build_frequency_set(pauli_half_encoding([6, 6]))
        gen = np.random.default_rng(0)
        X = gen.uniform(0, 2 * np.pi, (n, 2))
        Y = np.cos(X[:, 0] - X[:, 1]) + 0.1 * gen.normal(size=n)
        data, dist = Dataset(X, Y, float(np.max(np.abs(Y)))), uniform_distribution(fs)
        model = rff_fit(data, dist, M, "auto", SeededRng(M))
        assert model.feature_set.factors(n, model.lam)
        tracemalloc.start()
        try:
            rff_fit(data, dist, M, "auto", SeededRng(M))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


class TestWaveFeatures:
    """Random features and phi_w are one ``WaveFeatures``: a hyperplane's
    values are its design times it, and its spectrum evaluated."""

    @staticmethod
    def kinds(gen, fs):
        """phi_w over ``fs`` (a zero weight among its rows) and random
        features drawn on its half, the zero frequency among them."""
        weights = gen.uniform(0.2, 1.0, fs.size)
        weights[fs.size // 2] = 0.0
        rows = np.concatenate([[0], gen.integers(0, fs.size, 59)])
        return [
            feature_map(fs, WeightVector(weights)),
            RffFeatureSet(fs.half[rows], gen.uniform(0, 2 * np.pi, rows.size)),
        ]

    @pytest.mark.parametrize("dimensions", [
        pauli_half_encoding([4]), pauli_half_encoding([2, 3]), pauli_half_encoding([1] * 4),
        EncodingStrategy.from_json({"dimensions": [[[-0.3, 0.3]], [[-0.5, 0.5], [-0.35, 0.35]]]}),
    ])
    def test_values_are_the_design_and_the_spectrum(self, dimensions):
        fs = build_frequency_set(dimensions)
        gen = np.random.default_rng(fs.size)
        X = gen.uniform(0, 2 * np.pi, (40, fs.d))
        for features in self.kinds(gen, fs):
            coef = gen.normal(size=features.inverse.size)
            got = features.values(coef, X)
            scale = np.max(np.abs(got))
            assert np.max(np.abs(got - features.design(X) @ coef)) <= 1e-12 * scale
            for lattice in (None, fs):
                spectrum = features.spectrum(coef, lattice)
                assert np.max(np.abs(got - spectrum.evaluate(X))) <= 1e-12 * scale

    def test_shape_of_the_hyperplane_is_checked(self):
        fs = build_frequency_set(pauli_half_encoding([2]))
        for features in self.kinds(np.random.default_rng(1), fs):
            K = features.inverse.size
            for call in (lambda c: features.values(c, np.zeros((3, 1))), features.spectrum):
                with pytest.raises(ValueError, match=rf"hyperplane has shape \({K + 1},\), expected \({K},\)"):
                    call(np.ones(K + 1))

    def test_explicit_prediction_forms_no_feature_matrix(self):
        # sweep_highdim's lattice: the n x (2 |half| - 1) feature matrix
        # at n = 2000 would take 250 MB
        enc = pauli_half_encoding([2] * 6)
        fs = build_frequency_set(enc)
        assert fs.size == 7813
        gen = np.random.default_rng(6)
        w = WeightVector(gen.uniform(0.5, 1.0, fs.size))
        model = ExplicitLinearModel(enc, w, gen.normal(size=2 * fs.size - 1), 0.1, _fs=fs)
        X = gen.uniform(0, 2 * np.pi, (2000, 6))
        model.predict(X[:1])  # first-call set-up is not the call's own memory
        tracemalloc.start()
        try:
            model.predict(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def rff_kernel_estimate(fset, x, xp) -> float:
    """Monte-Carlo kernel estimate <phi_M(x), phi_M(x')> from the design."""
    return float((fset.design_matrix(x) @ fset.design_matrix(xp).T)[0, 0])


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
            again = model_from_json(json.loads(path.read_text()))
            assert json.dumps(again.to_json()) == json.dumps(doc)
            assert np.array_equal(again.predict(P), model.predict(P))

    def test_unknown_variant(self):
        with pytest.raises(Exception):
            model_from_json({"variant": "boost", "lambda": 1.0})

    def test_malformed_arrays_are_config_errors(self, setup_1d5):
        enc, fs, w = setup_1d5
        data = cosine_dataset(25, 8)
        rff = rff_fit(data, explicit_from_weights(fs, w), 4, 0.01, SeededRng(5)).to_json()
        explicit = explicit_ridge_fit(data, enc, fs, w, 0.01).to_json()
        krr = kernel_ridge_fit(data, enc, fs, w, 0.01).to_json()
        old_krr = {key: value for key, value in krr.items() if key != "v"}
        bad = [
            ({**rff, "frequencies": [], "phases": [], "coef": []}, "frequencies must be a rectangular 2-d array"),
            ({**rff, "frequencies": [[1.0], [2.0, 0.0], [1.0], [0.0]]}, "frequencies must be a rectangular 2-d array"),
            ({**rff, "phases": [7.0] + rff["phases"][1:]}, r"phases must be in \[0, 2pi\), got \[7\.0"),
            ({**rff, "phases": [math.nan] + rff["phases"][1:]}, r"phases\[0\] must be finite, got nan"),
            ({**rff, "frequencies": [[math.nan]] + rff["frequencies"][1:]}, r"frequencies\[0\]\[0\] must be finite"),
            ({**rff, "frequencies": [[-math.inf]] + rff["frequencies"][1:]}, r"frequencies\[0\]\[0\] must be finite"),
            ({**rff, "lambda": "tiny"}, "lambda must be a number, got 'tiny'"),
            ({**explicit, "v": explicit["v"][:-1]}, r"v must be 9 numbers long \(2 \|half\| - 1\), got shape \(8,\)"),
            ({**explicit, "weights": explicit["weights"][:-1]}, "weights must be 5 numbers long, one per canonical frequency, got 4"),
            ({**krr, "v": krr["v"][:-1]}, r"v must be 9 numbers long \(2 \|half\| - 1\), got shape \(8,\)"),
            # a document of dual coefficients on its training points has no hyperplane
            ({**old_krr, "X": [[0.1], [0.2]], "alpha": [0.5, 0.25]}, "v must be an array of numbers, got nothing"),
        ]
        for doc, message in bad:
            with pytest.raises(ConfigError, match=message):
                model_from_json(doc)


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
