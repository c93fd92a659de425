import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import pauli_half_encoding
from oracles import (
    DictPolynomial,
    hyperplane_by_index,
    midpoint_mean_square,
    quadrature_apply_operator,
    quadrature_l2_norm_sq,
    quadrature_top_singular_value,
    rkhs_norm_by_index,
    rkhs_norm_dense,
)
from rffdq.errors import ConfigError, NonIntegerFrequencyError
from rffdq.freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from rffdq.kernelmap import (
    TRIG_BLOCK_ENTRIES,
    PlaneWaves,
    TrigPolynomial,
    WeightVector,
    coeff_sup_bound,
    distribution_of,
    feature_matrix,
    fhat_l2_sq,
    hyperplane_spectrum,
    integral_operator_norm,
    kernel_eval,
    kernel_matrix,
    l2_norm_sq,
    mean_square,
    rkhs_norm,
    weights_of,
)


def random_poly(fs, rng, n_terms=None):
    n_terms = n_terms or rng.integers(1, fs.size + 1)
    rows = rng.choice(fs.size, size=n_terms, replace=False)
    mapping = {}
    for r in sorted(int(v) for v in rows):
        key = tuple(float(v) for v in fs.half[r])
        if all(v == 0.0 for v in key):
            mapping[key] = complex(rng.uniform(-1, 1))
        else:
            mapping[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TrigPolynomial.from_half_coeffs(fs, mapping)


class TestRealForm:
    """Real cosine/sine coordinates of a hyperplane over phi_w and the
    canonical-half spectrum ``hyperplane_spectrum`` maps them to."""

    def test_cosine(self, fs_1d_3):
        # w = (0, 2, 0) has norm 2: v_cos = 1 at row 1 is cos x = 0.5 e^{ix} + c.c.
        f = hyperplane_spectrum([0.0, 1.0, 0.0, 0.0, 0.0], fs_1d_3, WeightVector([0.0, 2.0, 0.0]))
        assert dict(f.coeffs) == {(1.0,): 0.5}

    def test_sine(self, fs_1d_3):
        f = hyperplane_spectrum([0.0, 0.0, 1.0, 0.0, 0.0], fs_1d_3, WeightVector([0.0, 2.0, 0.0]))
        assert dict(f.coeffs) == {(1.0,): complex(0.0, -0.5)}

    def test_constant(self, fs_1d_3):
        f = hyperplane_spectrum([3.0, 0.0, 0.0, 0.0, 0.0], fs_1d_3, WeightVector([2.0, 0.0, 0.0]))
        assert dict(f.coeffs) == {(0.0,): 3.0}

    def test_roundtrip_and_pointwise(self, fs_2d, rng):
        f = random_poly(fs_2d, rng)
        w = WeightVector(rng.uniform(0.1, 3.0, fs_2d.size))
        v = hyperplane_by_index(f, w)
        g = hyperplane_spectrum(v, fs_2d, w)
        assert list(g.coeffs) == [k for k in map(tuple, fs_2d.half.tolist()) if k in f.coeffs]
        for key, c in f.coeffs.items():
            assert abs(g.coeffs[key] - c) <= 1e-12
        X = rng.uniform(0, 2 * np.pi, (50, 2))
        assert np.max(np.abs(f.evaluate(X) - feature_matrix(X, fs_2d, w) @ v)) <= 1e-10

    def test_realness_enforced(self, fs_1d_3):
        with pytest.raises(ValueError):
            TrigPolynomial.from_half_coeffs(fs_1d_3, {(0.0,): complex(1.0, 0.5)})

    def test_non_canonical_key_rejected(self, fs_1d_3):
        with pytest.raises(ValueError):
            TrigPolynomial.from_half_coeffs(fs_1d_3, {(-1.0,): 0.5})

    def test_off_lattice_rejected(self, fs_1d_3):
        with pytest.raises(ValueError):
            TrigPolynomial.from_half_coeffs(fs_1d_3, {(7.0,): 0.5})

    def test_json_roundtrip(self, fs_2d, rng):
        f = random_poly(fs_2d, rng)
        doc = f.to_json()
        g = TrigPolynomial.from_json(doc, fs_2d)
        assert g.coeffs == f.coeffs
        standalone = TrigPolynomial.from_json(doc)
        assert standalone.freq_set is None
        X = rng.uniform(0, 2 * np.pi, (20, 2))
        assert np.allclose(standalone.evaluate(X), f.evaluate(X))

    @pytest.mark.parametrize("on_lattice", [False, True])
    def test_json_repeated_frequency_rejected(self, fs_1d_3, on_lattice):
        terms = [{"omega": [1.0], "re": 0.5, "im": 0.0}, {"omega": [1.0], "re": 0.3, "im": 0.0}]
        with pytest.raises(ValueError, match=r"duplicate coefficient for frequency \(1\.0,\)"):
            TrigPolynomial.from_json({"d": 1, "terms": terms}, fs_1d_3 if on_lattice else None)

    @pytest.mark.parametrize("on_lattice", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, fs_1d_3, on_lattice, bad):
        fs = fs_1d_3 if on_lattice else None
        for part in ("re", "im"):
            terms = [{"omega": [0.0], "re": 0.5, "im": 0.0}, {"omega": [1.0], "re": 0.5, "im": 0.25}]
            terms[1][part] = bad
            with pytest.raises(ConfigError, match=rf"terms\[1\]\.{part} must be finite"):
                TrigPolynomial.from_json({"d": 1, "terms": terms}, fs)
        for c in ([0.5, complex(bad, 0.25)], [0.5, complex(0.5, bad)]):
            with pytest.raises(ValueError, match=r"of frequency \(1\.0,\) is not finite"):
                TrigPolynomial.from_half_arrays(fs, [[0.0], [1.0]], c)


class TestFeatureMap:
    def setup_method(self):
        self.fs = build_frequency_set(pauli_half_encoding([1]))  # half {0, 1}

    def test_x_zero(self):
        w = WeightVector(np.array([1.0, 1.0]))
        got = feature_matrix([0.0], self.fs, w)[0]
        assert np.allclose(got, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))

    def test_x_half_pi(self):
        w = WeightVector(np.array([1.0, 1.0]))
        got = feature_matrix([np.pi / 2], self.fs, w)[0]
        assert np.allclose(got, np.array([1.0, 0.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_zero_weight_on_constant(self):
        w = WeightVector(np.array([0.0, 1.0]))
        assert np.allclose(feature_matrix([0.0], self.fs, w)[0], [0.0, 1.0, 0.0])

    def test_unit_self_inner_product(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.1, 2.0, fs_2d.size))
        X = rng.uniform(0, 2 * np.pi, (25, 2))
        F = feature_matrix(X, fs_2d, w)
        assert np.allclose(np.sum(F * F, axis=1), 1.0, atol=1e-12)

    def test_length_mismatch(self, fs_2d):
        with pytest.raises(ValueError):
            feature_matrix([0.0, 0.0], fs_2d, WeightVector(np.ones(3)))


class TestKernel:
    def test_diagonal_is_one(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.1, 1.0, fs_2d.size))
        for _ in range(5):
            x = rng.uniform(0, 2 * np.pi, 2)
            assert kernel_eval(x, x, fs_2d, w) == pytest.approx(1.0, abs=1e-12)

    def test_pi_shift_zeroes_two_frequency_kernel(self):
        fs = build_frequency_set(pauli_half_encoding([1]))
        w = WeightVector(np.array([1.0, 1.0]))
        assert kernel_eval([np.pi], [0.0], fs, w) == pytest.approx(0.0, abs=1e-12)

    def test_two_pi_periodicity(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.1, 1.0, fs_2d.size))
        x = rng.uniform(0, 2 * np.pi, 2)
        shifted = x  # same point offset by a full period per component
        assert kernel_eval(x + 2 * np.pi, shifted, fs_2d, w) == pytest.approx(1.0, abs=1e-10)

    def test_matches_feature_inner_product(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.05, 2.0, fs_2d.size))
        X = rng.uniform(0, 2 * np.pi, (30, 2))
        Xp = rng.uniform(0, 2 * np.pi, (30, 2))
        F, Fp = feature_matrix(X, fs_2d, w), feature_matrix(Xp, fs_2d, w)
        direct = np.array([kernel_eval(X[i], Xp[i], fs_2d, w) for i in range(30)])
        assert np.max(np.abs(direct - np.sum(F * Fp, axis=1))) <= 1e-10
        K = kernel_matrix(X, Xp, fs_2d, w)
        assert np.max(np.abs(K - F @ Fp.T)) <= 1e-10

    def test_rows_match_the_per_pair_loop(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.05, 2.0, fs_2d.size))
        X = rng.uniform(0, 2 * np.pi, (30, 2))
        Xp = rng.uniform(0, 2 * np.pi, (30, 2))
        loop = np.array([kernel_eval(X[i], Xp[i], fs_2d, w) for i in range(30)])
        got = kernel_eval(X, Xp, fs_2d, w)
        assert got.shape == (30,)
        assert np.max(np.abs(got - loop)) <= 1e-15

    def test_shift_invariance(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.05, 2.0, fs_2d.size))
        x, xp = rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 2 * np.pi, 2)
        s = rng.uniform(-1, 1, 2)
        assert kernel_eval(x + s, xp + s, fs_2d, w) == pytest.approx(
            kernel_eval(x, xp, fs_2d, w), abs=1e-10
        )

    def test_gram_psd_on_samples(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.05, 2.0, fs_2d.size))
        for m in (1, 7, 50):
            X = rng.uniform(0, 2 * np.pi, (m, 2))
            K = kernel_matrix(X, X, fs_2d, w)
            assert np.min(np.linalg.eigvalsh((K + K.T) / 2)) >= -1e-8


class TestPlaneWaves:
    """e^{i <omega_s, x_k>} in row blocks, from the product tree or from
    one cosine and one sine per entry, against np.cos / np.sin of X Omega^T."""

    @staticmethod
    def assemble(waves, X):
        S = waves.freqs.shape[0]
        out = np.full((X.shape[0], S), np.nan, dtype=complex)
        starts = []
        for rows, phasors in waves.blocks(X):
            assert phasors.shape == (rows.stop - rows.start, S) and phasors.dtype == complex
            out[rows] = phasors
            starts.append(rows.start)
        assert starts == list(range(0, X.shape[0], waves.step(X.shape[0])))
        return out.real, out.imag

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("S", [0, 1, 300])
    @pytest.mark.parametrize("integer", [True, False, "mixed"])
    def test_both_sides_of_the_rule_match_direct_trig(self, d, S, integer):
        gen = np.random.default_rng([d, S, integer is True, integer is False])
        # K_j values per column, negative, zero and positive, so repeated
        # values exercise the leaves; "mixed" alternates integer columns
        # (odd j) with non-integer ones
        whole = np.arange(-4.0, 5.0)
        fractional = gen.uniform(-4.5, 4.5, 9)
        fractional[4] = 0.0
        table = np.stack(
            [whole if (integer is True or (integer == "mixed" and j % 2)) else fractional for j in range(d)],
            axis=1,
        )
        freqs = np.take_along_axis(table, gen.integers(0, 9, (S, d)), axis=0)
        # duplicate rows: the last third repeats rows of the first two thirds
        keep = 2 * S // 3
        if keep:
            freqs[keep:] = freqs[gen.integers(0, keep, S - keep)]
        # 203 rows: several blocks, and a short last one
        X = gen.uniform(0, 2 * np.pi, (203, d))
        want_cos, want_sin = np.cos(X @ freqs.T), np.sin(X @ freqs.T)
        for tabled in (False, True):
            waves = PlaneWaves(freqs)
            waves.tabled = tabled
            cos, sin = self.assemble(waves, X)
            assert np.max(np.abs(cos - want_cos), initial=0.0) <= 1e-13
            assert np.max(np.abs(sin - want_sin), initial=0.0) <= 1e-13

    def test_rule_at_the_benchmark_lattices(self):
        # the tree costs 6 * (trigonometric calls) + (formed entries) + 62
        # sixths of a cosine per point against 12 S: on the integer
        # benchmark lattices every column takes powers, two trig calls and
        # about 2 top entries each, and the inner nodes and root one entry
        # per row
        circuit = build_frequency_set(pauli_half_encoding([10, 10]))
        assert PlaneWaves(circuit.half[1:]).tabled  # 220 terms: 282 + 62 < 2640
        assert PlaneWaves(circuit.half[1:131]).tabled  # 192 + 62 < 1560
        assert PlaneWaves(circuit.half[1:47]).tabled  # 108 + 62 < 552
        lowd = build_frequency_set(pauli_half_encoding([6, 6]))
        assert PlaneWaves(lowd.half).tabled  # 85 terms: 131 + 62 < 1020
        assert PlaneWaves(lowd.half[:46]).tabled  # 92 + 62 < 552
        # an 8-term target at d = 2: the fixed cost keeps it direct
        target = lowd.half[np.random.default_rng(0).choice(lowd.size, 8, replace=False)]
        assert not PlaneWaves(target).tabled  # 54 + 62 > 96
        highdim = build_frequency_set(pauli_half_encoding([2] * 6))
        assert PlaneWaves(highdim.half[:393]).tabled  # 641 + 62 < 4716
        assert PlaneWaves(highdim.half).tabled  # 7813 terms: 8141 + 62 < 93756
        # an 8-term target at d = 6: its twelve trig calls alone cost more
        target = highdim.half[np.random.default_rng(0).choice(highdim.size, 8, replace=False)]
        assert not PlaneWaves(target).tabled  # 98 + 62 > 96
        assert PlaneWaves(np.arange(40.0)[:, None]).tabled  # d = 1, powers: 129 + 62 < 480
        assert not PlaneWaves(np.arange(40.0)[:, None] + 0.5).tabled  # a cos and sin per value: 520 + 62 > 480
        # d = 2, 10 non-integer values per column, 36 distinct rows: a cos
        # and a sin per value, 276 + 62 < 432
        values = np.arange(1, 11) * 0.29
        grid = np.stack(np.meshgrid(values, values, indexing="ij"), -1).reshape(-1, 2)
        assert PlaneWaves(grid[np.random.default_rng(0).choice(100, 36, replace=False)]).tabled

    def test_routed_functions_on_a_tabled_lattice(self):
        fs = build_frequency_set(pauli_half_encoding([6, 6]))
        gen = np.random.default_rng(4)
        X = gen.uniform(0, 2 * np.pi, (57, 2))
        w = WeightVector(gen.uniform(0.2, 1.0, fs.size))
        c = gen.normal(size=fs.size) + 1j * gen.normal(size=fs.size)
        c[0] = c[0].real
        f = TrigPolynomial.on_rows(fs, np.arange(fs.size), c)
        assert PlaneWaves(fs.half[1:]).tabled
        ang = X @ fs.half.T
        want = c[0].real + 2.0 * (np.cos(ang[:, 1:]) @ c[1:].real - np.sin(ang[:, 1:]) @ c[1:].imag)
        assert np.max(np.abs(f.evaluate(X) - want)) <= 1e-13 * np.max(np.abs(want))
        F = feature_matrix(X, fs, w)
        assert np.max(np.abs(F[:, 1::2] - np.cos(ang[:, 1:]) * w.weights[1:] / w.norm2)) <= 1e-15
        assert np.max(np.abs(F[:, 2::2] - np.sin(ang[:, 1:]) * w.weights[1:] / w.norm2)) <= 1e-15
        Xp = gen.uniform(0, 2 * np.pi, (31, 2))
        p = w.weights**2 / w.norm2**2
        K = np.cos((X @ fs.half.T)[:, None, :] - (Xp @ fs.half.T)[None]) @ p
        assert np.max(np.abs(kernel_matrix(X, Xp, fs, w) - K)) <= 1e-13
        pairs = np.cos((X[:31] - Xp) @ fs.half.T) @ p
        assert np.max(np.abs(kernel_eval(X[:31], Xp, fs, w) - pairs)) <= 1e-14

    def test_wrong_width_names_both_widths(self):
        gen = np.random.default_rng(5)
        for L in ([1, 1], [6, 6]):  # direct and tabled
            fs = build_frequency_set(pauli_half_encoding(L))
            w = WeightVector.uniform(fs.size)
            f = random_poly(fs, gen, n_terms=fs.size)
            X2, X3 = gen.uniform(0, 1, (2, 4, 2)), gen.uniform(0, 1, (4, 3))
            calls = [
                lambda: f.evaluate(X3),
                lambda: f.evaluate(np.zeros(3)),
                lambda: feature_matrix(X3, fs, w),
                lambda: feature_matrix(np.zeros(3), fs, w)[0],
                lambda: kernel_eval(X3, X3, fs, w),
                lambda: kernel_eval(X2[0], X3, fs, w),
                lambda: kernel_matrix(X3, X2[1], fs, w),
                lambda: kernel_matrix(X2[0], X3, fs, w),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="points have width 3, but the frequencies have width 2"):
                    call()


class TestDistributionOfWeights:
    @pytest.mark.parametrize(
        "w,p",
        [
            ([1, 1, 1, 1], [0.25, 0.25, 0.25, 0.25]),
            ([0, 1], [0.0, 1.0]),
            ([1, 2], [0.2, 0.8]),
        ],
    )
    def test_examples(self, w, p):
        assert np.allclose(distribution_of(WeightVector(np.array(w, dtype=float))), p)

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8))
    @example(weights=[5.4e-156])  # squares to a subnormal: norm2 once lost 1.5e-14
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, weights):
        if sum(v * v for v in weights) <= 0:
            return
        p = distribution_of(WeightVector(np.array(weights)))
        assert abs(p.sum() - 1.0) <= 1e-12
        w2 = weights_of(p)
        assert abs(w2.norm2 - 1.0) <= 1e-12
        assert np.max(np.abs(distribution_of(w2) - p)) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([-0.1, 1.0]))
        with pytest.raises(ValueError):
            WeightVector(np.zeros(3))
        with pytest.raises(ValueError):
            WeightVector(np.array([np.inf]))

    def test_weights_of_checks_once_and_keeps_the_scaled_norm(self):
        # the norm is the frexp-scaled np.linalg.norm bit for bit, whether
        # the vector is built from weights or from probabilities
        gen = np.random.default_rng(4)
        for scale in (1e-300, 1e-12, 1.0, 1e200):
            p = gen.uniform(0.0, 1.0, gen.integers(1, 300)) * scale
            w = np.sqrt(p)
            exp = np.frexp(np.max(w))[1]
            want = float(np.ldexp(np.linalg.norm(np.ldexp(w, -exp)), exp))
            assert weights_of(p).norm2 == WeightVector(w).norm2 == want
            assert np.array_equal(weights_of(p).weights, w)
        for bad, message in (([0.5, -0.1], "nonnegative"), ([0.5, np.nan], "finite"), ([np.inf], "finite")):
            with pytest.raises(ValueError, match=message):
                weights_of(np.array(bad))
        with pytest.raises(ValueError, match="positive 2-norm"):
            weights_of(np.zeros(3))


class TestOperatorNorm:
    def test_examples(self, fs_1d_5):
        assert integral_operator_norm(np.full(5, 0.2), fs_1d_5).op_norm == 0.1
        res = integral_operator_norm([0.7, 0.1, 0.1, 0.05, 0.05], fs_1d_5)
        assert res.op_norm == 0.35 and res.p_max == 0.7
        enc = EncodingStrategy(((),))
        fs_point = build_frequency_set(enc)
        assert integral_operator_norm([1.0], fs_point).op_norm == 0.5

    def test_non_integer_refused(self):
        enc = EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),),))
        fs = build_frequency_set(enc)
        with pytest.raises(NonIntegerFrequencyError):
            integral_operator_norm(np.full(fs.size, 1.0 / fs.size), fs)

    def test_quadrature_oracle_1d(self, fs_1d_5):
        # mass concentrated off the zero frequency so the stated p_max/2 rule
        # is the true top eigenvalue (the constant eigenfunction carries the
        # full p(0), not half of it)
        p = np.array([0.04, 0.24, 0.24, 0.24, 0.24])
        w = weights_of(p)
        rule = integral_operator_norm(p, fs_1d_5).op_norm
        top = quadrature_top_singular_value(
            lambda X, Y: kernel_matrix(X, Y, fs_1d_5, w), 1, 64
        )
        assert abs(top - rule) <= 1e-4


class TestRkhsNorm:
    def test_example_cos_uniform(self, fs_1d_5):
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): 0.5})
        assert rkhs_norm(f, WeightVector.uniform(5)) == pytest.approx(
            math.sqrt(5), abs=1e-10
        )

    def test_example_cos_peaked(self, fs_1d_5):
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): 0.5})
        w = WeightVector(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        assert rkhs_norm(f, w) == pytest.approx(1.0, abs=1e-10)

    def test_example_flat_function_uniform(self, fs_1d_5):
        mapping = {tuple(row): (1.0 / 5.0 if i == 0 else 1.0 / 10.0) for i, row in enumerate(fs_1d_5.half)}
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, mapping)
        assert rkhs_norm(f, WeightVector.uniform(5)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_weight_on_support_rejected(self, fs_1d_5):
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): 0.5})
        w = WeightVector(np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            rkhs_norm(f, w)

    def test_non_integer_refused(self):
        enc = EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),),))
        fs = build_frequency_set(enc)
        f = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        with pytest.raises(NonIntegerFrequencyError):
            rkhs_norm(f, WeightVector.uniform(fs.size))

    def test_matches_numeric_projection(self, fs_1d_5, rng):
        f = random_poly(fs_1d_5, rng)
        w = WeightVector(rng.uniform(0.2, 1.5, 5))
        # project f onto each orthogonal feature function by grid quadrature
        N = 64
        xs = (2 * np.pi * np.arange(N) / N).reshape(-1, 1)
        F = feature_matrix(xs, fs_1d_5, w)
        fv = f.evaluate(xs)
        v = (F.T @ fv / N) / (np.sum(F * F, axis=0) / N)
        assert rkhs_norm(f, w) == pytest.approx(float(np.linalg.norm(v)), abs=1e-10)


    @pytest.mark.parametrize("L_per_dim", [[4], [2, 3], [1] * 6])
    def test_matches_per_index_loop(self, L_per_dim, rng):
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        for n_terms in (1, min(8, fs.size), fs.size):
            f = random_poly(fs, rng, n_terms=n_terms)
            w = WeightVector(rng.uniform(0.2, 1.5, fs.size))
            want = rkhs_norm_by_index(f, w)
            assert abs(rkhs_norm(f, w) - want) <= 1e-14 * want

    def test_first_unreachable_frequency_reported(self, fs_2d):
        # support at the zero frequency and rows 2 and 4, weight zero at all
        # three: the zero frequency is reported first, then row 2
        half = [tuple(float(v) for v in row) for row in fs_2d.half]
        f = TrigPolynomial.from_half_coeffs(fs_2d, {half[0]: 1.0, half[2]: 0.5, half[4]: 0.5j})
        for weights, where in (
            ([0.0, 1.0, 0.0, 1.0, 0.0], "the zero frequency"),
            ([1.0, 1.0, 0.0, 1.0, 0.0], f"frequency {tuple(fs_2d.half[2].tolist())}"),
            ([1.0, 1.0, 1.0, 1.0, 0.0], f"frequency {tuple(fs_2d.half[4].tolist())}"),
        ):
            w = WeightVector(np.array(weights))
            message = (
                f"function has weight-zero support at {where}; "
                "it lies outside the kernel's function set"
            )
            for norm in (rkhs_norm, rkhs_norm_by_index):
                with pytest.raises(ValueError) as err:
                    norm(f, w)
                assert str(err.value) == message


_LATTICES = [[4], [1, 1], [2, 3], [1] * 5]


class TestHyperplaneSpectrum:
    """The map from a hyperplane over phi_w to its spectrum, and rkhs_norm
    as its inverse's norm."""

    @pytest.mark.parametrize("L_per_dim", _LATTICES)
    def test_spectrum_evaluates_as_the_hyperplane_and_has_its_norm(self, L_per_dim, rng):
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        X = rng.uniform(0, 2 * np.pi, (60, fs.d))
        for _ in range(5):
            w = WeightVector(rng.uniform(0.05, 2.0, fs.size))
            v = rng.uniform(-1, 1, 2 * fs.size - 1)
            f = hyperplane_spectrum(v, fs, w)
            assert f.freq_set is fs and f.rows.tolist() == list(range(fs.size))
            assert np.max(np.abs(f.evaluate(X) - feature_matrix(X, fs, w) @ v)) <= 1e-10
            want = float(np.linalg.norm(v))
            assert abs(rkhs_norm(f, w) - want) <= 1e-12 * want

    def test_function_set_does_not_depend_on_positive_weights(self, fs_2d, rng):
        # a function realized over phi_w is realized over phi_w' for every
        # strictly positive w', by the hyperplane whose norm rkhs_norm gives
        f = hyperplane_spectrum(rng.uniform(-1, 1, 9), fs_2d, WeightVector(rng.uniform(0.1, 3.0, 5)))
        X = rng.uniform(0, 2 * np.pi, (40, 2))
        for w2 in (WeightVector.uniform(5), WeightVector(rng.uniform(0.1, 3.0, 5))):
            v2 = hyperplane_by_index(f, w2)
            assert np.max(np.abs(feature_matrix(X, fs_2d, w2) @ v2 - f.evaluate(X))) <= 1e-10
            assert rkhs_norm(f, w2) == pytest.approx(float(np.linalg.norm(v2)), rel=1e-12)

    def test_zero_weight_rows_carry_no_term(self, fs_1d_5):
        w = WeightVector(np.array([0.0, 1.0, 0.0, 2.0, 0.0]))
        f = hyperplane_spectrum(np.ones(9), fs_1d_5, w)
        assert f.rows.tolist() == [1, 3]

    def test_shape_checked(self, fs_1d_5):
        with pytest.raises(ValueError, match=r"hyperplane has shape \(8,\), expected \(9,\)"):
            hyperplane_spectrum(np.ones(8), fs_1d_5, WeightVector.uniform(5))
        with pytest.raises(ValueError, match="weight vector has length 4"):
            hyperplane_spectrum(np.ones(9), fs_1d_5, WeightVector.uniform(4))

    @pytest.mark.parametrize("L_per_dim", _LATTICES + [[3, 3, 2]])
    def test_rkhs_norm_is_the_dense_row_order_sum_bit_for_bit(self, L_per_dim, rng):
        # summing f's own terms in row order adds the same array as the sum
        # over every row, so the two agree exactly, whatever f's term order
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        for _ in range(25):
            f = random_poly(fs, rng)
            perm = rng.permutation(f.c.size)
            shuffled = TrigPolynomial.on_rows(fs, f.rows[perm], f.c[perm])
            w = WeightVector(rng.uniform(0.05, 2.0, fs.size) ** rng.integers(1, 4))
            want = rkhs_norm_dense(f, w)
            assert rkhs_norm(f, w) == want and rkhs_norm(shuffled, w) == want


class TestL2Norm:
    def test_cosine(self, fs_1d_3):
        f = TrigPolynomial.from_half_coeffs(fs_1d_3, {(1.0,): 0.5})
        assert l2_norm_sq(f) == pytest.approx(np.pi, abs=1e-12)

    def test_constant_d2(self, fs_2d):
        f = TrigPolynomial.from_half_coeffs(fs_2d, {(0.0, 0.0): 1.0})
        assert l2_norm_sq(f) == pytest.approx((2 * np.pi) ** 2, abs=1e-10)

    def test_zero(self, fs_2d):
        assert l2_norm_sq(TrigPolynomial.zero(fs_2d)) == 0.0

    def test_quadrature_cross_check(self, fs_2d, rng):
        f = random_poly(fs_2d, rng)
        quad = quadrature_l2_norm_sq(f.evaluate, 2, 16)
        exact = l2_norm_sq(f)
        assert abs(quad - exact) <= 1e-8 * max(1.0, abs(exact))


def non_integer_lattice(dimensions):
    fs = build_frequency_set(EncodingStrategy.from_json({"dimensions": dimensions}))
    assert not fs.is_integer
    return fs


def random_terms(fs, rng, k):
    """k random terms on the half of ``fs``, the zero frequency included."""
    rows = np.concatenate([[0], rng.choice(np.arange(1, fs.size), k - 1, replace=False)])
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    c[0] = c[0].real
    return TrigPolynomial.on_rows(fs, rows, c)


class TestMeanSquare:
    """E|f|^2 under uniform inputs, against integrals that do not use the
    Gram: adaptive quadrature for d <= 2, Richardson-extrapolated midpoint
    rules for d = 3."""

    def test_parseval_on_integer_lattices(self, fs_2d, rng):
        for _ in range(5):
            f = random_poly(fs_2d, rng)
            assert mean_square(f) == fhat_l2_sq(f)

    def test_one_dimension_off_integer_lattice(self):
        # lattice {0, +-0.6}: f = 0.3 + cos(0.6 x)
        fs = non_integer_lattice([[[-0.3, 0.3]]])
        f = TrigPolynomial.from_half_coeffs(fs, {(0.0,): 0.3, (0.6,): 0.5})
        want = 0.09 + 0.5 + math.sin(2.4 * math.pi) / (4.8 * math.pi) + 0.6 * (
            math.sin(1.2 * math.pi) / (1.2 * math.pi)
        )
        assert mean_square(f) == pytest.approx(want, rel=1e-14)
        quad, err = integrate.quad(lambda x: f.evaluate([[x]])[0] ** 2, 0, 2 * np.pi)
        assert mean_square(f) == pytest.approx(quad / (2 * np.pi), abs=1e-10)

    def test_mixed_integer_and_non_integer_dimensions(self, rng):
        # dimension 1 {0, +-1, +-2}, dimension 2 {0, +-0.6}
        fs = non_integer_lattice([[[-0.5, 0.5], [-0.5, 0.5]], [[-0.3, 0.3]]])
        f = random_terms(fs, rng, 6)
        quad, _ = integrate.dblquad(
            lambda y, x: f.evaluate([[x, y]])[0] ** 2,
            0, 2 * np.pi, 0, 2 * np.pi, epsabs=1e-11, epsrel=1e-11,
        )
        assert mean_square(f) == pytest.approx(quad / (2 * np.pi) ** 2, abs=1e-9)
        assert abs(mean_square(f) - fhat_l2_sq(f)) > 1e-3

    def test_standalone_polynomial(self):
        # no lattice: the frequencies need not share a grid, and 0.3 and 1.3
        # differ by an integer, so their cross term vanishes exactly
        f = TrigPolynomial.from_half_coeffs(
            None,
            {(0.0, 0.0): 0.4, (0.3, 1.7): complex(0.5, -0.2),
             (1.3, 1.7): 0.25, (1.25, -0.4): complex(-0.1, 0.3)},
        )
        assert f.freq_set is None
        quad, _ = integrate.dblquad(
            lambda y, x: f.evaluate([[x, y]])[0] ** 2,
            0, 2 * np.pi, 0, 2 * np.pi, epsabs=1e-11, epsrel=1e-11,
        )
        assert mean_square(f) == pytest.approx(quad / (2 * np.pi) ** 2, abs=1e-9)

    def test_three_dimensions(self, rng):
        fs = non_integer_lattice(
            [[[-0.3, 0.3], [-0.6, 0.6]], [[-0.5, 0.5]], [[-0.35, 0.35]]]
        )
        f = random_terms(fs, rng, 6)
        coarse, fine = (midpoint_mean_square(f.evaluate, 3, N) for N in (64, 128))
        # the extrapolated rule is O(h^4): 5.9e-7 off here, 9.6e-6 at N = 32
        assert mean_square(f) == pytest.approx((4 * fine - coarse) / 3, rel=1e-7)
        assert abs(mean_square(f) - fhat_l2_sq(f)) > 1e-3

    def test_many_terms_span_several_row_blocks(self):
        # 400 terms give 799 mirror-expanded rows, more than one block
        gen = np.random.default_rng(5)
        freqs = np.sort(gen.uniform(0.05, 6.0, 400))[:, None]
        c = (gen.normal(size=400) + 1j * gen.normal(size=400)) / 20
        f = TrigPolynomial.from_half_arrays(None, freqs, c)
        quad, _ = integrate.quad(
            lambda x: f.evaluate([[x]])[0] ** 2, 0, 2 * np.pi, limit=500, epsabs=1e-12
        )
        assert mean_square(f) == pytest.approx(quad / (2 * np.pi), rel=1e-9)

    def test_zero_polynomial(self):
        assert mean_square(TrigPolynomial.zero(None, 3)) == 0.0

    def test_l2_norm_sq_scales_the_mean_square(self):
        fs = non_integer_lattice([[[-0.3, 0.3]]])
        f = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        assert l2_norm_sq(f) == 2 * np.pi * mean_square(f)
        assert l2_norm_sq(f) == pytest.approx(3.5379, abs=1e-4)


class TestIntegralOperator:
    def test_off_lattice_cosine_annihilated(self, fs_1d_5):
        # operator applied to cos(7x), outside the lattice: quadrature oracle
        p = np.array([0.1, 0.3, 0.2, 0.2, 0.2])
        w = weights_of(p)
        probes = np.linspace(0.0, 2 * np.pi, 5, endpoint=False).reshape(-1, 1)
        vals = quadrature_apply_operator(
            lambda X, Y: kernel_matrix(X, Y, fs_1d_5, w),
            lambda pts: np.cos(7.0 * pts[:, 0]),
            probes,
            1,
            64,
        )
        assert np.max(np.abs(vals)) <= 1e-10


class TestPolynomialAlgebra:
    def test_rows_are_grouped_as_np_unique_groups_them(self):
        # integer tables with both signs of zero: the column-rank grouping
        # that from_half_arrays and __sub__ use gives np.unique's first
        # index and inverse
        from rffdq.kernelmap import _group

        gen = np.random.default_rng(8)
        for _ in range(300):
            rows, d = gen.integers(0, 40), gen.integers(1, 4)
            freqs = gen.integers(-2, 3, (rows, d)).astype(float)
            freqs[gen.random(freqs.shape) < 0.2] = -0.0
            _, first, inverse = np.unique(freqs, axis=0, return_index=True, return_inverse=True)
            got_first, got_inverse = _group(freqs)
            assert np.array_equal(got_first, first)
            assert np.array_equal(got_inverse, inverse.ravel())

    def test_sub_and_parseval(self, fs_1d_5, rng):
        f = random_poly(fs_1d_5, rng)
        g = random_poly(fs_1d_5, rng)
        h = f - g
        X = rng.uniform(0, 2 * np.pi, (40, 1))
        assert np.max(np.abs(h.evaluate(X) - (f.evaluate(X) - g.evaluate(X)))) <= 1e-10
        assert fhat_l2_sq(h) >= 0

    def test_coeff_lookup_conjugates(self, fs_1d_5):
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(2.0,): complex(0.3, -0.4)})
        assert f.coeff((2.0,)) == complex(0.3, -0.4)
        assert f.coeff((-2.0,)) == complex(0.3, 0.4)
        assert f.coeff((1.0,)) == 0.0


class TestRkhsKernelSectionIdentity:
    def test_norm_matches_section_inner_product(self, fs_1d_5, rng):
        # f = sum_i alpha_i K(x_i, .) has squared norm alpha^T Khat alpha by
        # the reproducing property; recover f's coefficients by DFT and
        # compare the two routes
        from oracles import dft_coefficients

        w = WeightVector(rng.uniform(0.2, 1.5, 5))
        m = 7
        Xc = rng.uniform(0, 2 * np.pi, (m, 1))
        alpha = rng.uniform(-1, 1, m)
        K = kernel_matrix(Xc, Xc, fs_1d_5, w)
        want = math.sqrt(float(alpha @ K @ alpha))
        N = 32
        grid = (2 * np.pi * np.arange(N) / N).reshape(-1, 1)
        fvals = kernel_matrix(grid, Xc, fs_1d_5, w) @ alpha
        coeffs = dft_coefficients(fvals)
        half = {
            (float(k),): coeffs[(k,)]
            for k in range(0, 5)
            if abs(coeffs[(k,)]) > 1e-13
        }
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, half)
        assert rkhs_norm(f, w) == pytest.approx(want, abs=1e-10)


class TestSnapBeforeFold:
    # (5e-10, -1) is the non-canonical lattice point (0, -1) once snapped;
    # (-5e-10, 1) is the canonical (0, 1)

    def test_near_zero_component_snaps_before_the_canonical_check(self, fs_2d):
        with pytest.raises(ValueError, match="not canonical"):
            TrigPolynomial.from_half_coeffs(fs_2d, {(5e-10, -1.0): complex(0.3, 0.4)})
        f = TrigPolynomial.from_half_coeffs(fs_2d, {(-5e-10, 1.0): complex(0.3, 0.4)})
        g = TrigPolynomial.from_half_coeffs(fs_2d, {(0.0, 1.0): complex(0.3, 0.4)})
        assert list(f.coeffs) == [(0.0, 1.0)] and f.rows.tolist() == g.rows.tolist()
        assert fhat_l2_sq(f - g) == 0.0
        assert f.c.tolist() == g.c.tolist()
        assert f.coeff((5e-10, -1.0)) == complex(0.3, -0.4)


_ALGEBRA_FS = build_frequency_set(pauli_half_encoding([2, 1]))
_COEF = st.sampled_from([0.0, 0.5, -0.25, 1.0]) | st.floats(-2, 2, allow_nan=False)


@st.composite
def _term_maps(draw, min_size=0):
    """{canonical key: coefficient} over rows of the lattice, zero
    components written as +0.0 or -0.0, the zero frequency real."""
    rows = draw(st.lists(st.integers(0, _ALGEBRA_FS.size - 1), unique=True, min_size=min_size))
    mapping = {}
    for r in rows:
        key = tuple(
            -0.0 if v == 0.0 and draw(st.booleans()) else float(v) for v in _ALGEBRA_FS.half[r]
        )
        mapping[key] = complex(draw(_COEF), 0.0 if r == 0 else draw(_COEF))
    return mapping


@st.composite
def _map_pairs(draw):
    f, g = draw(_term_maps(min_size=1)), draw(_term_maps(min_size=1))
    # equal coefficients at shared frequencies cancel in f - g
    for key in draw(st.lists(st.sampled_from(list(f)), unique=True)):
        g[key] = f[key]
    return f, g


_X = np.random.default_rng(11).uniform(0, 2 * np.pi, (13, 2))


def _check_against_reference(got, want):
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    # stored zero components are +0.0 whatever the key said
    assert not np.any(np.signbit(got.freqs[got.freqs == 0.0]))
    if got.freq_set is not None:
        assert np.array_equal(got.freq_set.half[got.rows], got.freqs)
    assert np.allclose(got.evaluate(_X), want.evaluate(_X), rtol=0, atol=1e-12)
    assert fhat_l2_sq(got) == pytest.approx(want.fhat_l2_sq(), rel=1e-13, abs=0)
    assert coeff_sup_bound(got) == pytest.approx(want.coeff_sup_bound(), rel=1e-13, abs=0)
    assert got.to_json() == want.to_json()


class TestArrayPolynomialMatchesDictReference:
    """The array-backed polynomial against the dict operations it replaced
    (``oracles.DictPolynomial``), attached and standalone."""

    @given(pair=_map_pairs(), attach=st.sampled_from([(1, 1), (1, 0), (0, 1), (0, 0)]))
    @settings(max_examples=150, deadline=None)
    def test_operations(self, pair, attach):
        polys = []
        for mapping, attached in zip(pair, attach):
            fs = _ALGEBRA_FS if attached else None
            got = TrigPolynomial.from_half_coeffs(fs, mapping)
            want = DictPolynomial.from_half_coeffs(fs, mapping)
            assert (got.freq_set is None) != bool(attached)
            _check_against_reference(got, want)
            polys.append((got, want))
        (f, rf), (g, rg) = polys
        _check_against_reference(f - g, rf.combine(rg, -1.0))
        # the result keeps a lattice both operands are attached to
        assert (f - g).freq_set is (_ALGEBRA_FS if all(attach) else None)

