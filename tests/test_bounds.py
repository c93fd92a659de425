import math

import numpy as np
import pytest

from conftest import forbid_per_key_lookups, pauli_half_encoding
from oracles import mp_sufficient_counts
from rffdq.bounds import (
    alignment,
    feasibility_report,
    empirical_error_mean,
    expected_error_floor,
    required_sample_counts,
    sufficient_sample_counts,
)
from rffdq.errors import NonIntegerFrequencyError
from rffdq.freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from rffdq.freqsample import (
    ExplicitDistribution,
    MpsDistribution,
    ProductDistribution,
    SeededRng,
    uniform_distribution,
)
from rffdq.kernelmap import TrigPolynomial, integral_operator_norm


class TestSufficientCounts:
    def test_c0_at_half(self):
        assert sufficient_sample_counts(0.5, 1.0, 1.0, 0.1, 0.05).c0 == 252.0

    def test_against_independent_script(self):
        cases = [
            (0.5, 1.0, 1.0, 0.1, 0.05),
            (0.5, 1.0, 1.0, 0.1, 0.1),
            (0.01, 7.0, 2.0, 0.01, 0.5),
            (0.25, 100.0, 0.5, 1.0, 0.9),
        ]
        for op_norm, C, b, eps, delta in cases:
            got = sufficient_sample_counts(op_norm, C, b, eps, delta)
            want = mp_sufficient_counts(op_norm, C, b, eps, delta)
            for key in ("n0", "c0", "c1", "n_min", "M_min"):
                assert getattr(got, key) == pytest.approx(want[key], rel=1e-6)

    def test_displayed_roundings(self):
        # coarse sanity against the quoted three-figure values
        assert sufficient_sample_counts(0.5, 1.0, 1.0, 0.1, 0.05).c0 == 252.0
        c1 = sufficient_sample_counts(0.5, 1.0, 1.0, 0.1, 0.05).c1
        assert c1 == pytest.approx(117.23, rel=1e-3)
        n0 = sufficient_sample_counts(0.5, 1.0, 1.0, 0.1, 0.1).n0
        assert n0 == pytest.approx(2.603e7, rel=1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op_norm": 0.0},
            {"op_norm": 0.7},
            {"C": 0.0},
            {"b": -1.0},
            {"eps": 0.0},
            {"delta": 0.0},
            {"delta": 1.5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        base = {"op_norm": 0.25, "C": 1.0, "b": 1.0, "eps": 0.1, "delta": 0.05}
        base.update(kwargs)
        with pytest.raises(ValueError):
            sufficient_sample_counts(**base)

    def test_monotonicity(self, rng):
        for _ in range(25):
            op_norm = rng.uniform(0.01, 0.5)
            C = rng.uniform(0.5, 50)
            b = rng.uniform(0.5, 5)
            eps = rng.uniform(0.01, 1.0)
            delta = rng.uniform(0.01, 0.99)
            r = sufficient_sample_counts(op_norm, C, b, eps, delta)
            assert sufficient_sample_counts(op_norm, C, b, eps / 2, delta).n_min >= r.n_min
            assert sufficient_sample_counts(op_norm, C * 2, b, eps, delta).n_min >= r.n_min
            assert sufficient_sample_counts(op_norm, C, b * 2, eps, delta).n_min >= r.n_min
            # M grows with n (tighter eps forces larger n, hence larger M)
            assert sufficient_sample_counts(op_norm, C, b, eps / 2, delta).M_min >= r.M_min

    def test_consistency_with_operator_norm_rule(self, fs_1d_5):
        p = np.array([0.04, 0.24, 0.24, 0.24, 0.24])
        res = integral_operator_norm(p, fs_1d_5)
        assert res.op_norm == res.p_max / 2.0
        report = sufficient_sample_counts(res.op_norm, 1.0, 1.0, 0.1, 0.05)
        assert report.op_norm == res.op_norm


@pytest.fixture
def cos_target(fs_1d_5):
    return TrigPolynomial.from_half_coeffs(fs_1d_5, {(1.0,): 0.5})


class TestAlignment:
    def test_off_support(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(3.0,)], [1.0])
        assert alignment(cos_target, dist) == 0.0

    def test_uniform_factors_out(self, fs_1d_5, cos_target):
        dist = uniform_distribution(fs_1d_5)
        assert alignment(cos_target, dist) == pytest.approx(0.25 / 5)

    def test_point_mass_example(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,)], [1.0])
        assert alignment(cos_target, dist) == pytest.approx(0.25)

    def test_lattice_mismatch(self, fs_1d_5, fs_2d, cos_target):
        dist = uniform_distribution(fs_2d)
        with pytest.raises(ValueError):
            alignment(cos_target, dist)


class TestRequiredCounts:
    def test_pmax_rearrangement(self, fs_1d_5, cos_target):
        # p_max = 0.5, eps_hat/||f||^2 = 0.5  ->  M >= 0.5
        dist = ExplicitDistribution(fs_1d_5, [(1.0,), (2.0,)], [0.5, 0.5])
        f2 = 2 * math.pi * 0.5  # ||cos||_2^2 = pi
        rep = required_sample_counts(cos_target, dist, 0.5 * f2)
        assert rep.M_required_pmax == pytest.approx(0.5)

    def test_alignment_example(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,)], [1.0])
        rep = required_sample_counts(cos_target, dist, 0.0)
        assert rep.alignment == pytest.approx(0.25)
        assert rep.fhat_l2_sq == pytest.approx(0.5)
        assert rep.M_required_alignment == pytest.approx(1.0)

    def test_vacuous(self, fs_1d_5, cos_target):
        dist = uniform_distribution(fs_1d_5)
        rep = required_sample_counts(cos_target, dist, 10.0)
        assert rep.vacuous
        assert rep.M_required_pmax == 0.0 and rep.M_required_alignment == 0.0

    def test_zero_alignment_infinite(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(3.0,)], [1.0])
        rep = required_sample_counts(cos_target, dist, 0.0)
        assert rep.M_required_alignment == math.inf

    def test_non_integer_rejected(self):
        enc = EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),),))
        fs = build_frequency_set(enc)
        f = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        dist = uniform_distribution(fs)
        with pytest.raises(NonIntegerFrequencyError):
            required_sample_counts(f, dist, 0.1)

    def test_alignment_bound_dominates_pmax_bound(self, fs_1d_5, rng):
        # alignment <= p_max * ||fhat||^2, so the alignment rearrangement is
        # never looser than the concentration one
        for _ in range(20):
            mapping = {}
            for i, row in enumerate(fs_1d_5.half):
                key = tuple(float(v) for v in row)
                mapping[key] = (
                    complex(rng.uniform(-1, 1))
                    if i == 0
                    else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                )
            f = TrigPolynomial.from_half_coeffs(fs_1d_5, mapping)
            p = rng.uniform(0.01, 1.0, 5)
            p /= p.sum()
            dist = ExplicitDistribution(fs_1d_5, fs_1d_5.half, p)
            rep = required_sample_counts(f, dist, 0.0)
            assert rep.M_required_alignment >= rep.M_required_pmax - 1e-12


class TestEmpiricalErrorMean:
    def test_mean_respects_lower_bound(self, fs_1d_5):
        f_star = TrigPolynomial.from_half_coeffs(
            fs_1d_5, {(1.0,): 0.5, (2.0,): 0.5, (3.0,): 0.5, (4.0,): 0.5}
        )
        dist = uniform_distribution(fs_1d_5)
        for M in (1, 4):
            mean, stderr, _ = empirical_error_mean(
                f_star, dist, M, n=400, lam=1e-8, trials=40, master=SeededRng(99)
            )
            rhs = expected_error_floor(f_star, dist, M)
            assert mean >= rhs - 3 * stderr

    def test_error_off_integer_lattice_is_the_true_l2_error(self):
        # lattice {0, +-0.6}: cos(0.6 x) is not orthogonal to 1 over [0, 2pi),
        # so Parseval (pi here) is not its squared L2 norm
        fs = build_frequency_set(EncodingStrategy.from_json({"dimensions": [[[-0.3, 0.3]]]}))
        f_star = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        dist = uniform_distribution(fs)
        # lambda = 1e6 shrinks the fitted model to near zero, so each trial's
        # exact error is ||f*||^2 to within 1e-6 (here at most 2.1e-7)
        mean, _, errs = empirical_error_mean(
            f_star, dist, 1, n=50, lam=1e6, trials=3, master=SeededRng(4)
        )
        exact = 2 * math.pi * (0.5 + math.sin(2.4 * math.pi) / (4.8 * math.pi))
        assert exact == pytest.approx(3.5379, abs=1e-4)
        assert np.all(np.abs(errs - exact) <= 1e-6)
        assert len(set(errs.tolist())) == 3  # each trial fits its own model
        with pytest.raises(NonIntegerFrequencyError):
            expected_error_floor(f_star, dist, 1)


class TestFeasibility:
    def test_concentrated_with_small_C(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,)], [1.0])
        rep = feasibility_report(dist, f_hat=cos_target, b=1.0, eps=0.1, delta=0.05)
        assert rep.verdict == "SUFFICIENT-BOUND-POLY"
        assert rep.sufficient is not None and rep.sufficient.n_min > 0

    def test_uniform_blocks_in_nonvacuous_regime(self):
        fs = build_frequency_set(pauli_half_encoding([1] * 6))
        assert fs.size == 365
        support = [tuple(fs.half[i]) for i in (1, 10, 50, 100, 200)]
        f = TrigPolynomial.from_half_coeffs(fs, {k: 0.5 for k in support})
        dist = uniform_distribution(fs)
        rep = feasibility_report(dist, f_hat=f, eps_hat=0.1)
        assert rep.verdict == "LOWER-BOUND-BLOCKS"
        assert rep.lower is not None
        want = (1.0 - 0.1 / rep.lower.f_l2_sq) / (2.0 * rep.lower.p_max)
        assert rep.lower.M_required_pmax == pytest.approx(want)

    def test_unknown_everything_inconclusive(self, fs_1d_5):
        dist = uniform_distribution(fs_1d_5)
        rep = feasibility_report(dist)
        assert rep.verdict == "INCONCLUSIVE"

    def test_product_distribution_note(self, fs_2d, cos2d=None):
        per_dim = [np.array([0.2, 0.5, 0.3]), np.array([0.3, 0.4, 0.3])]
        dist = ProductDistribution(fs_2d, per_dim)
        f = TrigPolynomial.from_half_coeffs(fs_2d, {(1.0, 0.0): 0.5})
        rep = feasibility_report(dist, f_hat=f, eps_hat=0.01)
        assert rep.verdict == "LOWER-BOUND-BLOCKS"
        assert any("product-induced" in note for note in rep.notes)

    def test_json_and_text_render(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,)], [1.0])
        rep = feasibility_report(dist, f_hat=cos_target)
        doc = rep.to_json()
        assert doc["verdict"] == rep.verdict
        text = rep.render_text()
        assert "verdict" in text and "p_max" in text


class TestFeasibilityWithoutPerKeyLookups:
    def test_reports_unchanged(self, monkeypatch):
        fs = build_frequency_set(pauli_half_encoding([2, 1, 1]))
        rng = np.random.default_rng(8)
        rows = np.sort(rng.choice(fs.size, size=6, replace=False))
        c = rng.uniform(-0.5, 0.5, 6) + 1j * np.where(rows == 0, 0.0, rng.uniform(-0.5, 0.5, 6))
        f = TrigPolynomial.on_rows(fs, rows, c)

        def dists():
            per_dim = [np.full(g.size, 1.0 / g.size) for g in fs.per_dimension_freqs]
            cores = [rng.uniform(0.1, 1.0, (1, 5, 2)), rng.uniform(0.1, 1.0, (2, 3, 2)),
                     rng.uniform(0.1, 1.0, (2, 3, 1))]
            return [
                uniform_distribution(fs),
                ProductDistribution(fs, per_dim),
                MpsDistribution(fs, cores),
                ExplicitDistribution(fs, fs.half[rows[-2:]], [0.5, 0.5]),
            ]

        state = rng.bit_generator.state
        want = [feasibility_report(d, f_hat=f).to_json() for d in dists()]
        forbid_per_key_lookups(monkeypatch)
        rng.bit_generator.state = state
        got = [feasibility_report(d, f_hat=f).to_json() for d in dists()]
        assert got == want
        assert [r["verdict"] for r in got] == [
            "LOWER-BOUND-BLOCKS", "LOWER-BOUND-BLOCKS", "SUFFICIENT-BOUND-POLY", "INCONCLUSIVE"
        ]


class TestFeasibilityLazyLattice:
    def test_upper_bounded_pmax_skips_sufficiency(self):
        # non-materializable lattice, product sampler with one trivial
        # component (not anti-concentrated): p_max is only an upper bound,
        # so the sufficiency constants must not be evaluated from it
        fs = build_frequency_set(pauli_half_encoding([1] * 16), materialize=False)
        per_dim = [np.array([0.0, 0.0, 1.0])] + [np.array([0.25, 0.5, 0.25])] * 15
        dist = ProductDistribution(fs, per_dim)
        key = tuple([1.0] + [0.0] * 15)
        f = TrigPolynomial.from_half_coeffs(None, {key: 0.5})
        rep = feasibility_report(dist, f_hat=f, C=2.0, eps_hat=0.01)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.sufficient is None
        assert not rep.p_max_exact
        assert any("upper bound" in note for note in rep.notes)
        assert rep.lower is not None and rep.lower.M_required_pmax > 0
