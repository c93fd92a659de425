import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import pauli_half_encoding
from oracles import (
    DictPolynomial,
    midpoint_mean_square,
    quadrature_apply_operator,
    quadrature_l2_norm_sq,
    quadrature_top_singular_value,
    rkhs_norm_by_index,
)
from rffdq.errors import NonIntegerFrequencyError
from rffdq.freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from rffdq.kernelmap import (
    TrigPolynomial,
    WeightVector,
    apply_integral_operator,
    coeff_sup_bound,
    distribution_of,
    feature_map_eval,
    feature_matrix,
    fhat_l2_sq,
    from_real_form,
    integral_operator_norm,
    kernel_eval,
    kernel_matrix,
    l2_norm_sq,
    mean_square,
    reweighted_hyperplane,
    rkhs_norm,
    to_real_form,
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
    def test_cosine(self, fs_1d_3):
        f = TrigPolynomial.from_half_coeffs(fs_1d_3, {(1.0,): 0.5})
        form = to_real_form(f)
        assert form.c0 == 0.0
        assert form.a.tolist() == [1.0, 0.0]
        assert np.allclose(form.b, 0.0)

    def test_sine(self, fs_1d_3):
        f = TrigPolynomial.from_half_coeffs(fs_1d_3, {(1.0,): complex(0.0, -0.5)})
        form = to_real_form(f)
        assert form.c0 == 0.0 and form.b.tolist() == [1.0, 0.0]
        assert np.allclose(form.a, 0.0)

    def test_constant(self, fs_1d_3):
        f = TrigPolynomial.from_half_coeffs(fs_1d_3, {(0.0,): 3.0})
        form = to_real_form(f)
        assert form.c0 == 3.0
        assert np.allclose(form.a, 0.0) and np.allclose(form.b, 0.0)

    def test_roundtrip_and_pointwise(self, fs_2d, rng):
        f = random_poly(fs_2d, rng)
        form = to_real_form(f)
        g = from_real_form(form)
        for key, c in f.coeffs.items():
            assert abs(g.coeffs[key] - c) <= 1e-12
        X = rng.uniform(0, 2 * np.pi, (50, 2))
        assert np.max(np.abs(f.evaluate(X) - form.evaluate(X))) <= 1e-10

    def test_realness_enforced(self, fs_1d_3):
        with pytest.raises(ValueError):
            TrigPolynomial.from_half_coeffs(fs_1d_3, {(0.0,): complex(1.0, 0.5)})
        with pytest.raises(ValueError):
            TrigPolynomial.from_full_coeffs(
                fs_1d_3, {(1.0,): complex(0.5, 0.1), (-1.0,): complex(0.5, 0.1)}
            )

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


class TestFeatureMap:
    def setup_method(self):
        self.fs = build_frequency_set(pauli_half_encoding([1]))  # half {0, 1}

    def test_x_zero(self):
        w = WeightVector(np.array([1.0, 1.0]))
        got = feature_map_eval([0.0], self.fs, w)
        assert np.allclose(got, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))

    def test_x_half_pi(self):
        w = WeightVector(np.array([1.0, 1.0]))
        got = feature_map_eval([np.pi / 2], self.fs, w)
        assert np.allclose(got, np.array([1.0, 0.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_zero_weight_on_constant(self):
        w = WeightVector(np.array([0.0, 1.0]))
        assert np.allclose(feature_map_eval([0.0], self.fs, w), [0.0, 1.0, 0.0])

    def test_unit_self_inner_product(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.1, 2.0, fs_2d.size))
        X = rng.uniform(0, 2 * np.pi, (25, 2))
        F = feature_matrix(X, fs_2d, w)
        assert np.allclose(np.sum(F * F, axis=1), 1.0, atol=1e-12)

    def test_length_mismatch(self, fs_2d):
        with pytest.raises(ValueError):
            feature_map_eval([0.0, 0.0], fs_2d, WeightVector(np.ones(3)))


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
        assert WeightVector(np.array([1.0, 0.5])).strictly_positive
        assert not WeightVector(np.array([1.0, 0.0])).strictly_positive


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
            ([1.0, 1.0, 0.0, 1.0, 0.0], f"frequency {tuple(fs_2d.half[2])}"),
            ([1.0, 1.0, 1.0, 1.0, 0.0], f"frequency {tuple(fs_2d.half[4])}"),
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


class TestApplyIntegralOperator:
    def test_cos_eigenfunction(self, fs_1d_5):
        p = np.array([0.1, 0.3, 0.2, 0.2, 0.2])
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): 0.5})
        out = apply_integral_operator(f, p)
        assert out.coeffs[(1.0,)] == pytest.approx(0.5 * 0.3 / 2)

    def test_sin_eigenfunction(self, fs_1d_5):
        p = np.array([0.1, 0.3, 0.2, 0.2, 0.2])
        f = TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): complex(0, -0.5)})
        out = apply_integral_operator(f, p)
        assert out.coeffs[(1.0,)] == pytest.approx(complex(0, -0.5) * 0.3 / 2)

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

    def test_matches_quadrature_including_constant(self, fs_2d, rng):
        f = random_poly(fs_2d, rng, n_terms=5)
        p = rng.uniform(0.05, 1.0, fs_2d.size)
        p /= p.sum()
        w = weights_of(p)
        out = apply_integral_operator(f, p)
        probes = rng.uniform(0, 2 * np.pi, (12, 2))
        quad = quadrature_apply_operator(
            lambda X, Y: kernel_matrix(X, Y, fs_2d, w), f.evaluate, probes, 2, 24
        )
        assert np.max(np.abs(out.evaluate(probes) - quad)) <= 1e-6


class TestReweightingInvariance:
    def test_function_set_invariance(self, fs_2d, rng):
        w = WeightVector(rng.uniform(0.1, 3.0, fs_2d.size))
        v = rng.uniform(-1, 1, 2 * fs_2d.size - 1)
        v_plain = reweighted_hyperplane(v, fs_2d, w)
        X = rng.uniform(0, 2 * np.pi, (100, 2))
        lhs = feature_matrix(X, fs_2d, w) @ v
        rhs = feature_matrix(X, fs_2d, WeightVector.uniform(fs_2d.size)) @ v_plain
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestPolynomialAlgebra:
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
        assert to_real_form(f).b.tolist() == to_real_form(g).b.tolist()
        assert f.coeff((5e-10, -1.0)) == complex(0.3, -0.4)
        full = TrigPolynomial.from_full_coeffs(
            fs_2d, {(5e-10, -1.0): complex(0.3, -0.4), (-5e-10, 1.0): complex(0.3, 0.4)}
        )
        assert full.coeffs == g.coeffs


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

    @given(pair=_map_pairs(), attach=st.sampled_from([(1, 1), (1, 0), (0, 1), (0, 0)]),
           factor=st.sampled_from([0.0, -1.0, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_operations(self, pair, attach, factor):
        polys = []
        for mapping, attached in zip(pair, attach):
            fs = _ALGEBRA_FS if attached else None
            got = TrigPolynomial.from_half_coeffs(fs, mapping)
            want = DictPolynomial.from_half_coeffs(fs, mapping)
            assert (got.freq_set is None) != bool(attached)
            _check_against_reference(got, want)
            polys.append((got, want))
        (f, rf), (g, rg) = polys
        _check_against_reference(f + g, rf.combine(rg, 1.0))
        _check_against_reference(f - g, rf.combine(rg, -1.0))
        _check_against_reference(f.scaled(factor), rf.scaled(factor))
        # the result keeps a lattice both operands are attached to
        assert (f - g).freq_set is (_ALGEBRA_FS if all(attach) else None)
