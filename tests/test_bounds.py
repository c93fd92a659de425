import json
import math

import numpy as np
import pytest

from conftest import forbid_per_key_lookups, forbid_per_row_ptilde, pauli_half_encoding
from oracles import mp_sufficient_counts
from rffdq import freqsample
from rffdq.bounds import (
    M_BUDGET,
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
    distribution_from_json,
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
            {"C": math.nan},
            {"C": math.inf},
            {"b": math.nan},
            {"eps": math.nan},
            {"eps": math.inf},
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
        assert report.inputs.op_norm == res.op_norm


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

    @pytest.mark.parametrize("gap,same", [(0.9e-9, True), (4e-6, False)])
    def test_same_lattice_within_the_match_tolerance_only(self, gap, same):
        # {0, +-1} against {0, +-(1 + gap)}: equal under MATCH_TOL = 1e-9,
        # and a relative gap of 4e-6 is another lattice
        def lattice(s):
            return build_frequency_set(EncodingStrategy(((HamiltonianSpectrum((-s, s)),),)))

        f = TrigPolynomial.from_half_coeffs(lattice(0.5), {(1.0,): 0.5})
        dist = uniform_distribution(lattice(0.5 + gap / 2))
        if same:
            assert alignment(f, dist) == pytest.approx(0.25 / 2)
        else:
            with pytest.raises(ValueError, match="different lattices"):
                alignment(f, dist)


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

    @pytest.mark.parametrize("eps_hat", [-0.1, math.nan, math.inf])
    def test_rejects_eps_hat_out_of_range(self, fs_1d_5, cos_target, eps_hat):
        dist = uniform_distribution(fs_1d_5)
        with pytest.raises(ValueError, match="eps_hat must be finite and nonnegative"):
            required_sample_counts(cos_target, dist, eps_hat)

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

    def test_bond_one_train_reads_as_its_product(self):
        # two +-1/2 gates per dimension at d = 2 (values -2..2), one
        # per-dimension pmf written as a product and as a bond-1 tensor
        # train: the same verdict, JSON and text
        fs = build_frequency_set(pauli_half_encoding([2, 2]))
        pj = [0.05, 0.1, 0.7, 0.1, 0.05]
        f = TrigPolynomial.from_half_coeffs(fs, {(1.0, 0.0): 0.5, (0.0, 1.0): 0.3})
        docs = [{"kind": "product", "per_dim": [pj, pj]}, {"kind": "mps", "cores": [[[[p] for p in pj]]] * 2}]
        product, train = (feasibility_report(distribution_from_json(doc, fs), f_hat=f) for doc in docs)
        assert isinstance(distribution_from_json(docs[1], fs), MpsDistribution)
        assert product.verdict == "LOWER-BOUND-BLOCKS"
        assert json.dumps(train.to_json()) == json.dumps(product.to_json())
        assert train.render_text() == product.render_text()

    def test_json_and_text_render(self, fs_1d_5, cos_target):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,)], [1.0])
        rep = feasibility_report(dist, f_hat=cos_target)
        doc = rep.to_json()
        assert doc["verdict"] == rep.verdict
        text = rep.render_text()
        assert "verdict" in text and "p_max" in text

    def test_sufficient_pair_beyond_the_budget_is_noted(self):
        # sweep_highdim's shape: five values in each of six dimensions, a
        # bond-4 tensor train and an 8-term target
        fs = build_frequency_set(pauli_half_encoding([2] * 6))
        rng = np.random.default_rng(11)
        rows = np.sort(rng.choice(fs.size, size=8, replace=False))
        c = rng.uniform(-0.5, 0.5, 8) + 1j * np.where(rows == 0, 0.0, rng.uniform(-0.5, 0.5, 8))
        f = TrigPolynomial.on_rows(fs, rows, c)
        shapes = [(1, 5, 4)] + [(4, 5, 4)] * 4 + [(4, 5, 1)]
        dist = MpsDistribution(fs, [rng.uniform(0.1, 1.0, shape) for shape in shapes])
        rep = feasibility_report(dist, f_hat=f)
        s = rep.sufficient
        assert rep.verdict == "SUFFICIENT-BOUND-POLY" and min(s.n_min, s.M_min) > 1e11
        note = (
            f"sufficient pair beyond any budget: n >= {s.n_min:.6g} and "
            f"M >= {s.M_min:.6g} against {M_BUDGET:.6g} samples"
        )
        assert rep.notes[-1] == note and rep.to_json()["notes"] == rep.notes
        assert rep.render_text().splitlines().count(f"note: {note}") == 1


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

    @pytest.mark.parametrize("kind, L_per_dim", [("uniform", [6, 6]), ("mps", [2] * 6),
                                                 ("uniform", [10, 10])])
    def test_benchmark_lattices_read_the_enumerated_vector(self, kind, L_per_dim, monkeypatch):
        # the lattices of sweep_lowd, sweep_highdim and circuit_oracle: the
        # alignment reads the enumeration at the target's rows, and gives
        # the pointwise value
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        rng = np.random.default_rng(11)
        rows = np.sort(rng.choice(fs.size, size=8, replace=False))
        c = rng.uniform(-0.5, 0.5, 8) + 1j * np.where(rows == 0, 0.0, rng.uniform(-0.5, 0.5, 8))
        f = TrigPolynomial.on_rows(fs, rows, c)
        if kind == "uniform":
            dist = uniform_distribution(fs)
        else:
            shapes = [(1, 5, 4)] + [(4, 5, 4)] * 4 + [(4, 5, 1)]
            dist = MpsDistribution(fs, [rng.uniform(0.1, 1.0, shape) for shape in shapes])
        want = feasibility_report(dist, f_hat=f).to_json()
        assert want["lower"]["alignment"] == alignment(f, dist)
        forbid_per_row_ptilde(monkeypatch)
        assert feasibility_report(dist, f_hat=f).to_json() == want


class TestAlignmentReadsTheVector:
    KEYS = {(1.0, -1.0): 0.5, (2.0, 1.0): 0.25j}

    @pytest.fixture
    def lattice(self):
        return build_frequency_set(pauli_half_encoding([2, 1]))

    @pytest.fixture
    def product(self, lattice):
        return ProductDistribution(lattice, [np.full(5, 0.2), np.array([0.25, 0.5, 0.25])])

    def test_other_targets_take_the_pointwise_path(self, lattice, product):
        # a stored vector of NaNs shows whether it was read
        attached = TrigPolynomial.from_half_coeffs(lattice, self.KEYS)
        standalone = TrigPolynomial.from_half_coeffs(None, self.KEYS)
        assert standalone.rows is None
        twin = build_frequency_set(pauli_half_encoding([2, 1]))
        on_twin = TrigPolynomial.from_half_coeffs(twin, self.KEYS)
        want = alignment(attached, product)
        product._p = np.full(lattice.size, np.nan)
        for f in (standalone, on_twin):
            assert alignment(f, product) == want
        assert math.isnan(alignment(attached, product))

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_one_enumeration_per_report(self, kind, lattice, product, count_enumerations):
        rng = np.random.default_rng(5)
        cores = [rng.uniform(0.1, 1.0, (1, 5, 2)), rng.uniform(0.1, 1.0, (2, 3, 1))]
        fresh = {
            "explicit": lambda: ExplicitDistribution(lattice, lattice.half[[1, 4, 6]],
                                                     [0.5, 0.25, 0.25]),
            "product": lambda: ProductDistribution(lattice, product.per_dim),
            "mps": lambda: MpsDistribution(lattice, cores),
        }[kind]
        f = TrigPolynomial.from_half_coeffs(lattice, self.KEYS)
        runs = [
            lambda dist: required_sample_counts(f, dist, 0.01),
            lambda dist: feasibility_report(dist, f_hat=f),
            lambda dist: feasibility_report(dist, f_hat=f, C=2.0),
        ]
        # one enumeration across the three reports on one distribution
        dist = fresh()
        want = [run(dist).to_json() for run in runs]
        assert count_enumerations == [kind]
        p_max = float(np.max(dist.pmf_vector()))
        assert all((r["p_max"], r["p_max_exact"]) == (p_max, True) for r in want)
        # and one for each fresh distribution
        for run, report in zip(runs, want):
            count_enumerations.clear()
            assert run(fresh()).to_json() == report
            assert count_enumerations == [kind]

    def test_no_enumeration_where_the_necessity_bound_does_not_apply(self, count_enumerations):
        # eigenvalues +-0.3: a non-integer lattice, so an explicit p_max
        # reads its stored probabilities and nothing reads a vector
        fs = build_frequency_set(EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),),)))
        dist = ExplicitDistribution(fs, fs.half, [0.5, 0.5])
        f = TrigPolynomial.from_half_coeffs(fs, {(0.6,): 0.5})
        rep = feasibility_report(dist, f_hat=f)
        assert rep.lower is None and (rep.p_max, rep.p_max_exact) == (0.5, True)
        assert count_enumerations == []

    def test_product_beyond_the_byte_cap_reports_the_upper_bound(
        self, lattice, product, monkeypatch, count_enumerations
    ):
        f = TrigPolynomial.from_half_coeffs(lattice, self.KEYS)
        want = float(np.abs(f.c) ** 2 @ product.pmf(f.freqs))
        monkeypatch.setattr(freqsample, "ENUMERATE_BYTES", 8 * lattice.full_size - 1)
        lower = required_sample_counts(f, product, 0.01)
        rep = feasibility_report(product, f_hat=f, C=2.0)
        assert count_enumerations == []
        for got in (lower, rep):
            want_pmax = 2.0 * math.prod(float(np.max(pj)) for pj in product.per_dim)
            assert (got.p_max, got.p_max_exact) == (want_pmax, False)
        assert lower.alignment == rep.lower.alignment == want


class TestFeasibilityLargeHalf:
    def test_pmax_taken_from_the_enumeration_above_the_cap(self):
        # 27^4 points: the half is enumerated for C, and its maximum is the
        # exact p_max that dist.p_max() gives too
        fs = build_frequency_set(pauli_half_encoding([13] * 4))
        assert fs.size == 265_721
        rng = np.random.default_rng(4)
        cores = [rng.uniform(0.1, 1.0, shape) for shape in
                 [(1, 27, 2), (2, 27, 2), (2, 27, 2), (2, 27, 1)]]
        dist = MpsDistribution(fs, cores)
        assert dist.p_max() == (float(np.max(dist.pmf_vector())), True)
        f = TrigPolynomial.from_half_coeffs(fs, {(1.0, 0.0, 0.0, 0.0): 0.5})
        rep = feasibility_report(dist, f_hat=f)
        assert rep.p_max == float(np.max(dist.pmf_vector())) and rep.p_max_exact
        assert rep.sufficient is not None
        assert not any("p_max" in note for note in rep.notes)


class TestFeasibilityLazyLattice:
    def test_upper_bounded_pmax_skips_sufficiency(self):
        # non-materializable lattice, product sampler with one trivial
        # component (not anti-concentrated): p_max is only an upper bound,
        # so the sufficiency constants must not be evaluated from it
        fs = build_frequency_set(pauli_half_encoding([1] * 16))
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
