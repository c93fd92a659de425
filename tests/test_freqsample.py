import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import forbid_per_row_ptilde, pauli_half_encoding, record_half_formations
from oracles import chi_square_pvalue, dense_ptilde, fold_by_negation, per_bond_pmf_vector
from rffdq import freqcore, freqsample
from rffdq.bounds import alignment
from rffdq.errors import CapacityError, ConfigError, DegenerateDistributionError
from rffdq.freqcore import EncodingStrategy, HamiltonianSpectrum, build_frequency_set
from rffdq.freqsample import (
    ExplicitDistribution,
    MpsDistribution,
    ProductDistribution,
    SeededRng,
    distribution_from_json,
    explicit_from_weights,
    uniform_distribution,
)
from rffdq.kernelmap import TrigPolynomial, WeightVector, weights_of


def empirical_tv(samples, dist):
    fs = dist.fs
    counts = Counter(map(tuple, samples.tolist()))
    total = samples.shape[0]
    return 0.5 * sum(
        abs(counts.get(tuple(row), 0) / total - dist.pmf(row)) for row in fs.half
    )


class TestSeededRng:
    def test_reproducible(self):
        a = SeededRng(42).generator().random(8)
        b = SeededRng(42).generator().random(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeededRng(42, stream=0).generator().random(8)
        b = SeededRng(42, stream=1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_stream_for_distinct(self):
        master = SeededRng(7)
        streams = {master.stream_for(i).stream for i in range(100)}
        assert len(streams) == 100


class TestPmf:
    def test_product_uniform_examples(self, fs_2d):
        dist = ProductDistribution(fs_2d, [np.full(3, 1 / 3)] * 2)
        assert dist.pmf((0.0, 0.0)) == pytest.approx(1 / 9)
        assert dist.pmf((1.0, 0.0)) == pytest.approx(2 / 9)

    def test_explicit_point_mass(self, fs_2d):
        dist = ExplicitDistribution(fs_2d, [(0.0, 0.0)], [1.0])
        assert dist.pmf((0.0, 0.0)) == 1.0
        assert dist.pmf((1.0, 1.0)) == 0.0

    def test_off_lattice_rejected(self, fs_2d):
        dist = uniform_distribution(fs_2d)
        with pytest.raises(ValueError):
            dist.pmf((0.5, 0.0))

    def test_fold_consistency(self, fs_2d, rng):
        per_dim = []
        for f in fs_2d.per_dimension_freqs:
            p = rng.uniform(0.05, 1.0, f.size)
            per_dim.append(p / p.sum())
        dist = ProductDistribution(fs_2d, per_dim)

        def tilde(point):
            out = 1.0
            for pj, f, v in zip(per_dim, fs_2d.per_dimension_freqs, point):
                out *= pj[f.tolist().index(v)]
            return out

        for row in fs_2d.half:
            want = tilde(row)
            if np.any(row != 0.0):
                want += tilde(-row)
            assert dist.pmf(row) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_total_mass_one(self, kind, fs_2d, rng):
        dist = _random_dist(kind, fs_2d, rng)
        assert dist.pmf_vector().sum() == pytest.approx(1.0, abs=1e-10)


def _lattices():
    """Integer lattices with and without a one-frequency dimension, plus a
    non-integer one (eigenvalues +-0.3 and +-0.5)."""
    odd = EncodingStrategy(
        ((HamiltonianSpectrum((-0.3, 0.3)), HamiltonianSpectrum((-0.5, 0.5))),)
    )
    return [
        build_frequency_set(pauli_half_encoding([1, 1])),
        build_frequency_set(pauli_half_encoding([2, 0, 1])),
        build_frequency_set(pauli_half_encoding([0])),
        build_frequency_set(odd),
    ]


def _merged_cluster_lattice():
    """Eigenvalue sums 1 and 1 + 5e-13 merge, and so do the differences
    near +-1: the dedup keeps +-1, the members of smallest magnitude, so the
    per-dimension set is symmetric although its values went through
    merged clusters."""
    near = (HamiltonianSpectrum((0.0, 1.0)), HamiltonianSpectrum((0.0, 1.0 + 5e-13)))
    return build_frequency_set(
        EncodingStrategy((near, (HamiltonianSpectrum((-0.5, 0.5)),)))
    )


def _oracle_cases():
    """(lattice, MPS bond or None for random bonds) pairs."""
    cases = [(fs, None) for fs in _lattices()]
    cases.append((build_frequency_set(pauli_half_encoding([2] * 6)), 4))
    cases.append((_merged_cluster_lattice(), None))
    return cases


class TestPmfVector:
    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    @pytest.mark.parametrize("lattice", range(4))
    def test_matches_pointwise_pmf(self, kind, lattice, rng):
        fs = _lattices()[lattice]
        for _ in range(5):
            dist = _random_dist(kind, fs, rng)
            got = dist.pmf_vector()
            want = np.array([dist.pmf(row) for row in fs.half])
            assert got.shape == (fs.size,)
            # the zero frequency (row 0) is covered: it has no mirror term
            assert got.tolist() == want.tolist()
            assert dist.p_max().value == np.max(got)

    @pytest.mark.parametrize("kind", ["product", "mps"])
    @pytest.mark.parametrize("case", range(6))
    def test_matches_dense_oracle(self, kind, case, rng):
        fs, bond = _oracle_cases()[case]
        for _ in range(3):
            dist = _random_dist(kind, fs, rng, bond)
            if kind == "product":
                cores = [pj.reshape(1, -1, 1) for pj in dist.per_dim]
            else:
                cores = dist.cores
            want = fold_by_negation(fs.per_dimension_freqs, fs.half, dense_ptilde(cores))
            got = dist.pmf_vector()
            assert np.all(np.abs(got - want) <= 1e-15 * want)

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_weights_are_those_of_the_vector(self, kind, rng):
        dist = _random_dist(kind, _lattices()[1], rng)
        w = dist.weights()
        assert w.weights.tolist() == weights_of(dist.pmf_vector()).weights.tolist()

    def test_enumeration_evaluates_no_row(self, monkeypatch, rng):
        dists = [
            _random_dist(kind, fs, rng, bond)
            for fs, bond in _oracle_cases()
            for kind in ("product", "mps")
        ]
        want = [(dist.pmf_vector(), dist.p_max()) for dist in dists]
        forbid_per_row_ptilde(monkeypatch)
        for dist, (p, pm) in zip(dists, want):
            assert dist.pmf_vector().tolist() == p.tolist()
            assert dist.p_max() == pm

    def test_p_max_gives_up_above_the_byte_cap(self, monkeypatch, rng):
        # on 5^2 points forming the half peaks at 38 entries for the product
        # (the fold's grid and half) and 45 for a bond-4 tensor train (the
        # first dimension's step: 4 x 5 inputs and 25 outputs)
        fs = build_frequency_set(pauli_half_encoding([2, 2]))
        product = _random_dist("product", fs, rng)
        mps = _random_dist("mps", fs, rng, bond=4)
        monkeypatch.setattr(freqsample, "ENUMERATE_BYTES", 8 * 45 - 1)
        assert product.p_max() == (float(np.max(product.pmf_vector())), True)
        assert mps.p_max() is None
        monkeypatch.setattr(freqsample, "ENUMERATE_BYTES", 8 * 38 - 1)
        assert product.p_max() == (2.0 * math.prod(float(np.max(pj)) for pj in product.per_dim), False)

    def test_factors_of_a_fold_of_per_dimension_draws(self, rng):
        # a product's factors are its per_dim, a train of bond 1 its cores
        # normalized, and a train of larger bond or a sparse map has none
        fs = build_frequency_set(pauli_half_encoding([2, 2]))
        product = _random_dist("product", fs, rng)
        assert product.factors() is product.per_dim
        cores = [rng.uniform(0.1, 1.0, (1, 5, 1)) for _ in range(2)]
        train = MpsDistribution(fs, cores)
        for got, core in zip(train.factors(), cores):
            assert np.array_equal(got, core[0, :, 0] / core.sum())
        assert _random_dist("mps", fs, rng, bond=2).factors() is None
        assert _random_dist("explicit", fs, rng).factors() is None

    def test_bond_one_train_above_the_byte_cap_bounds_p_max(self, monkeypatch, rng):
        # past the cap a train of bond 1 has the product's upper bound
        # 2 prod_j max p_j, and a train of bond 2 none
        fs = build_frequency_set(pauli_half_encoding([2, 2]))
        train = MpsDistribution(fs, [rng.uniform(0.1, 1.0, (1, 5, 1)) for _ in range(2)])
        product = ProductDistribution(fs, train.factors())
        monkeypatch.setattr(freqsample, "ENUMERATE_BYTES", 7)
        bound = 2.0 * math.prod(float(np.max(pj)) for pj in train.factors())
        assert train.p_max() == product.p_max() == (bound, False)
        assert _random_dist("mps", fs, rng, bond=2).p_max() is None

    def test_enumeration_memory_is_linear_in_the_lattice(self, rng):
        # 9^6 points, bond 4: a row-by-row enumeration peaked near 30 times
        # full_size * 8 B; the dense ptilde, its fold and one contraction's
        # temporaries stay under four
        fs = build_frequency_set(pauli_half_encoding([4] * 6))
        dist = _random_dist("mps", fs, rng, bond=4)
        fs.half  # forming the half is not part of the enumeration
        tracemalloc.start()
        try:
            dist.pmf_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * fs.full_size * 8 + 1_000_000

    @pytest.mark.parametrize("bond", [1, 2, 4])
    def test_enumeration_stays_within_the_enumerable_estimate(self, bond, rng):
        # 5^8 points: the peak is at most what ``enumerable`` charges
        # against ENUMERATE_BYTES, 1.5, 1.5 and 1.8 grids of 8 * full_size B
        # at bonds 1, 2 and 4 (at bonds 1 and 2 the fold's grid and half
        # copy), and 64 KB of small objects
        fs = build_frequency_set(pauli_half_encoding([2] * 8))
        dist = _random_dist("mps", fs, rng, bond=bond)
        assert max(core.shape[2] for core in dist.cores) == bond and dist.enumerable
        tracemalloc.start()
        try:
            dist.pmf_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dist._peak_entries() + 2**16

    @pytest.mark.parametrize("bond", [2, 4])
    def test_estimate_bounds_the_peak_with_one_value_in_the_first_dimension(self, bond, rng):
        # no gate on x_1: the einsum step at dimension 1 holds the bond x
        # full_size entries of the step before and its own full_size
        # output, bond + 1 grids, which the estimate charges exactly
        fs = build_frequency_set(pauli_half_encoding([0] + [2] * 8))
        dist = _random_dist("mps", fs, rng, bond=bond)
        fs.half  # forming the half is not part of the enumeration
        estimate = 8 * dist._peak_entries()
        assert dist.enumerable and estimate == 8 * fs.full_size * (bond + 1)
        tracemalloc.start()
        try:
            dist.pmf_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate <= peak <= estimate + 2**16

    @pytest.mark.parametrize("L_per_dim", [[6, 6], [10, 10], [2] * 6])
    def test_explicit_fill_is_the_fold(self, L_per_dim, rng):
        # the benchmark lattices (sweep_lowd, circuit_oracle, sweep_highdim):
        # the stored probabilities, scattered, are bitwise the folded pmf
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        for dist in (uniform_distribution(fs), _random_dist("explicit", fs, rng)):
            assert dist.pmf_vector().tobytes() == dist._folded(fs.locate(fs.half)).tobytes()

    @pytest.mark.parametrize("kind", ["explicit", "uniform", "uniform-product", "product", "mps"])
    @pytest.mark.parametrize("lattice", range(4))
    def test_alignment_reads_the_vector_bitwise(self, kind, lattice, rng):
        fs = _lattices()[lattice]
        for _ in range(5):
            if kind.startswith("uniform"):
                variant = "product" if kind == "uniform-product" else "explicit"
                dist = uniform_distribution(fs, variant=variant)
            else:
                dist = _random_dist(kind, fs, rng)
            k = int(rng.integers(1, fs.size + 1))
            rows = rng.choice(fs.size, size=k, replace=False)
            c = rng.uniform(-1.0, 1.0, k) + 1j * np.where(rows == 0, 0.0, rng.uniform(-1.0, 1.0, k))
            f = TrigPolynomial.on_rows(fs, rows, c)
            assert alignment(f, dist) == float(np.abs(f.c) ** 2 @ dist.pmf(f.freqs))

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_enumeration_forms_no_half(self, kind, monkeypatch, count_enumerations, rng):
        formed = record_half_formations(monkeypatch)

        def fresh():
            fs = build_frequency_set(pauli_half_encoding([1] * 6))
            if kind == "explicit":
                return ExplicitDistribution(fs, [np.zeros(6), np.eye(6)[2]], [0.25, 0.75])
            return _random_dist(kind, fs, rng)

        dist = fresh()
        p = dist.pmf_vector()
        assert dist.p_max().value == np.max(p)
        # p_max reads the enumeration, and an explicit one the stored
        # probabilities
        assert count_enumerations == [kind]
        assert formed == []
        assert p.tolist() == dist.pmf(dist.fs.half).tolist()
        formed.clear()
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 3**6 - 1)
        dist = fresh()
        with pytest.raises(CapacityError, match=r"full lattice has 729 points \(cap 728\)"):
            dist.pmf_vector()
        dist.p_max()
        assert formed == []

    @pytest.mark.parametrize("first", ["pmf_vector", "p_max", "alignment"])
    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_second_reads_form_no_grid(self, kind, first, count_enumerations, rng):
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        dist = _random_dist(kind, fs, rng, bond=2)
        rows = np.array([0, 3, 6])
        f = TrigPolynomial.on_rows(fs, rows, np.array([0.5, 0.25 - 0.5j, 1j]))
        readers = {
            "pmf_vector": dist.pmf_vector,
            "p_max": dist.p_max,
            "alignment": lambda: alignment(f, dist),
        }
        readers[first]()
        want = {name: read() for name, read in readers.items()}
        assert dist.pmf_vector() is want["pmf_vector"]
        assert (dist.p_max(), alignment(f, dist)) == (want["p_max"], want["alignment"])
        # an explicit p_max reads its stored probabilities, so a later
        # reader forms the one vector
        assert count_enumerations == [kind]
        assert want["pmf_vector"].tolist() == dist.pmf(fs.half).tolist()

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_the_vector_is_read_only(self, kind, rng):
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        dist = _random_dist(kind, fs, rng, bond=2)
        p = dist.pmf_vector()
        want = p.tolist()
        with pytest.raises(ValueError, match="read-only"):
            p[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p *= 2.0
        assert dist.pmf_vector().tolist() == want == dist.pmf(fs.half).tolist()

    def test_explicit_on_a_lazy_lattice(self):
        # 9^20 points: no half to fill, pmf still folds the stored values
        fs = build_frequency_set(pauli_half_encoding([4] * 20))
        assert fs.full_size == 9**20
        support = np.array([np.zeros(20), np.eye(20)[3] * 4.0, np.full(20, 4.0)])
        dist = ExplicitDistribution(fs, support, [0.5, 0.125, 0.375])
        assert dist.pmf(support).tolist() == [0.5, 0.125, 0.375]
        assert dist.pmf(np.eye(20)[0]) == 0.0
        with pytest.raises(CapacityError):
            dist.pmf_vector()

    def test_single_frequency_dimension(self):
        fs = build_frequency_set(pauli_half_encoding([1, 0]))
        dist = ProductDistribution(fs, [np.array([0.2, 0.5, 0.3]), np.array([1.0])])
        assert np.array_equal(dist.pmf_vector(), [0.5, 0.2 + 0.3])

    def test_batched_pmf_matches_pointwise(self, fs_2d, rng):
        for kind in ("explicit", "product", "mps"):
            dist = _random_dist(kind, fs_2d, rng)
            got = dist.pmf(fs_2d.half)
            assert got.tolist() == [dist.pmf(row) for row in fs_2d.half]
            assert got.tolist() == dist.pmf_vector().tolist()

    def test_nan_component_raises(self, fs_1d_3):
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            uniform_distribution(fs_1d_3).pmf([np.nan])
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            ExplicitDistribution(fs_1d_3, [[0.0], [np.nan]], [0.5, 0.5])

    def test_off_lattice_component_raises(self, fs_2d):
        dist = _random_dist("mps", fs_2d, np.random.default_rng(0))
        # within the 1e-9 tolerance a component snaps to its lattice point,
        # from either side, as the per-point pmf does
        near = np.array([[1.0 + 5e-10, -1e-10], [-1.0 - 5e-10, 5e-10]])
        assert fs_2d.locate(near).tolist() == [[2, 1], [0, 1]]
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            fs_2d.locate(np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError, match="not in lattice dimension 2"):
            fs_2d.locate(np.array([[1.0, 0.0], [0.0, -1.5]]))
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            dist.pmf(np.array([[1.0, 0.0], [0.5, 0.0]]))


class TestBondOrderKernel:
    """``pmf_vector`` contracts each core with one einsum, or with the
    per-bond loop where the trailing points are a single one: it must give
    the per-bond reference's bits, and ``pmf`` at the half the vector's."""

    def check(self, dist):
        got = dist.pmf_vector()
        want = per_bond_pmf_vector(dist.cores, dist.total_mass)
        assert got.tobytes() == want.tobytes()
        assert dist.pmf(dist.fs.half).tobytes() == got.tobytes()

    def test_the_benchmark_shape(self, rng):
        # sweep_highdim: five values in each of six dimensions, bond 4
        fs = build_frequency_set(pauli_half_encoding([2] * 6))
        for _ in range(3):
            self.check(_random_dist("mps", fs, rng, bond=4))

    @pytest.mark.parametrize("bond", [1, 2, 3, 8, 16, 32])
    def test_bonds(self, bond, rng):
        fs = build_frequency_set(pauli_half_encoding([2, 1, 2, 1]))
        for _ in range(3):
            self.check(_random_dist("mps", fs, rng, bond=bond))

    def test_eight_dimensions(self, rng):
        self.check(_random_dist("mps", build_frequency_set(pauli_half_encoding([2] * 8)), rng, bond=4))

    @pytest.mark.parametrize("L_per_dim", [[2, 1, 0], [3, 2, 0, 0], [2, 0]])
    def test_trailing_single_value_dimensions(self, L_per_dim, rng):
        # a step whose trailing dimensions hold one point contracts a
        # one-column right factor, where einsum would sum the bond in an
        # order of its own
        fs = build_frequency_set(pauli_half_encoding(L_per_dim))
        for bond in range(2, 9):
            for _ in range(3):
                self.check(_random_dist("mps", fs, rng, bond=bond))


def _random_dist(kind, fs, rng, bond=None):
    if kind == "explicit":
        k = int(rng.integers(1, fs.size + 1))
        rows = fs.half[rng.choice(fs.size, size=k, replace=False)]
        p = rng.uniform(0.1, 1.0, k)
        return ExplicitDistribution(fs, rows, p / p.sum())
    if kind == "product":
        per_dim = []
        for f in fs.per_dimension_freqs:
            p = rng.uniform(0.05, 1.0, f.size)
            per_dim.append(p / p.sum())
        return ProductDistribution(fs, per_dim)
    cores = []
    chi_prev = 1
    for j, f in enumerate(fs.per_dimension_freqs):
        if j == fs.d - 1:
            chi_next = 1
        else:
            chi_next = bond or int(rng.integers(1, 4))
        cores.append(rng.uniform(0.0, 1.0, (chi_prev, f.size, chi_next)))
        chi_prev = chi_next
    return MpsDistribution(fs, cores)


class TestUniform:
    def test_explicit_uniform(self, fs_1d_5):
        dist = uniform_distribution(fs_1d_5)
        assert dist.uniform_variant == "explicit"
        assert all(dist.pmf(row) == pytest.approx(0.2) for row in fs_1d_5.half)

    def test_lazy_uniform_fold_arithmetic(self, fs_2d):
        dist = uniform_distribution(fs_2d, variant="product")
        assert dist.uniform_variant == "product"
        assert dist.pmf((0.0, 0.0)) == pytest.approx(1 / 9)
        for row in fs_2d.half[1:]:
            assert dist.pmf(row) == pytest.approx(2 / 9)

    def test_point_lattice(self):
        fs = build_frequency_set(pauli_half_encoding([0]))
        dist = uniform_distribution(fs)
        assert dist.pmf((0.0,)) == 1.0

    def test_lazy_pmax_bound(self):
        fs = build_frequency_set(pauli_half_encoding([1] * 5))
        dist = uniform_distribution(fs, variant="product")
        n_min = min(f.size for f in fs.per_dimension_freqs)
        assert dist.p_max().value <= 2.0 / n_min**fs.d + 1e-15


class TestSampling:
    def test_point_mass(self, fs_2d):
        dist = ExplicitDistribution(fs_2d, [(0.0, 0.0)], [1.0])
        samples = dist.sample(SeededRng(3), 5)
        assert np.array_equal(samples, np.zeros((5, 2)))

    def test_determinism(self, fs_2d, rng):
        dist = _random_dist("mps", fs_2d, rng)
        a = dist.sample(SeededRng(11), 64)
        b = dist.sample(SeededRng(11), 64)
        assert np.array_equal(a, b)

    def test_samples_are_canonical(self, fs_2d, rng):
        for kind in ("explicit", "product", "mps"):
            dist = _random_dist(kind, fs_2d, rng)
            samples = dist.sample(SeededRng(5), 500)
            for row in samples:
                fs_2d.position(row)  # raises if not canonical / off lattice

    def test_product_tv_against_exact(self, fs_2d):
        dist = uniform_distribution(fs_2d, variant="product")
        samples = dist.sample(SeededRng(17), 100_000)
        assert empirical_tv(samples, dist) <= 0.02

    def test_mps_chi1_equals_product(self, fs_2d):
        pjs = [np.array([0.2, 0.3, 0.5]), np.array([0.1, 0.6, 0.3])]
        mps = MpsDistribution(fs_2d, [p.reshape(1, 3, 1) for p in pjs])
        prod = ProductDistribution(fs_2d, pjs)
        assert np.max(np.abs(mps.pmf_vector() - prod.pmf_vector())) <= 1e-12
        samples = mps.sample(SeededRng(23), 100_000)
        assert empirical_tv(samples, prod) <= 0.02

    @pytest.mark.parametrize("kind", ["explicit", "product", "mps"])
    def test_chi_square_goodness_of_fit(self, kind, fs_1d_5, rng):
        dist = _random_dist(kind, fs_1d_5, rng)
        samples = dist.sample(SeededRng(777), 100_000)
        counts = Counter(map(tuple, samples.tolist()))
        observed = [counts.get(tuple(row), 0) for row in fs_1d_5.half]
        probs = dist.pmf_vector()
        assert chi_square_pvalue(observed, probs) > 0.001

    def test_mps_chi_square_at_bond_3(self, rng):
        # three dimensions joined by bond 3, so each conditional depends on
        # the prefix drawn before it
        fs = build_frequency_set(pauli_half_encoding([2, 1, 2]))
        dist = _random_dist("mps", fs, rng, bond=3)
        samples = dist.sample(SeededRng(778), 100_000)
        counts = Counter(map(tuple, samples.tolist()))
        observed = [counts.get(tuple(row), 0) for row in fs.half]
        assert chi_square_pvalue(observed, dist.pmf_vector()) > 0.001

    def test_m_validation(self, fs_2d):
        dist = uniform_distribution(fs_2d)
        with pytest.raises(ValueError):
            dist.sample(SeededRng(0), 0)


class TestMps:
    def test_rank2_joint_table(self, fs_2d):
        u1, v1 = np.array([0.5, 0.1, 0.2]), np.array([0.3, 0.3, 0.1])
        u2, v2 = np.array([0.1, 0.4, 0.05]), np.array([0.2, 0.1, 0.6])
        joint = np.outer(u1, v1) + np.outer(u2, v2)
        cores = [
            np.stack([u1, u2], axis=1).reshape(1, 3, 2),
            np.stack([v1, v2], axis=0).reshape(2, 3, 1),
        ]
        mps = MpsDistribution(fs_2d, cores)
        freqs = fs_2d.per_dimension_freqs[0]
        # tilde pmf equals the normalized table
        total = joint.sum()
        for k1 in range(3):
            for k2 in range(3):
                point = (freqs[k1], fs_2d.per_dimension_freqs[1][k2])
                got = mps._tilde(fs_2d.locate([point]))[0]
                assert got == pytest.approx(joint[k1, k2] / total)

    def test_matches_brute_force_contraction(self, rng):
        for trial in range(10):
            d = int(rng.integers(1, 5))
            fs = build_frequency_set(pauli_half_encoding([1] * d))
            cores = []
            chi_prev = 1
            for j in range(d):
                chi_next = 1 if j == d - 1 else int(rng.integers(1, 4))
                cores.append(rng.uniform(0.0, 1.0, (chi_prev, 3, chi_next)))
                chi_prev = chi_next
            mps = MpsDistribution(fs, cores)
            # independent full contraction
            full = cores[0]
            for core in cores[1:]:
                full = np.tensordot(full, core, axes=([full.ndim - 1], [0]))
            full = full.reshape([3] * d)
            full = full / full.sum()  # no in-place op: d=1 reshape aliases the core
            for row in fs.half:
                idx = tuple(int(v) + 1 for v in row)
                neg = tuple(-int(v) + 1 for v in row)
                want = full[idx] + (full[neg] if any(v != 0 for v in row) else 0.0)
                assert mps.pmf(row) == pytest.approx(want, abs=1e-10)

    def test_zero_mass_rejected(self, fs_2d):
        with pytest.raises(DegenerateDistributionError):
            MpsDistribution(fs_2d, [np.zeros((1, 3, 1)), np.ones((1, 3, 1))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, fs_2d, bad):
        with pytest.raises(ConfigError, match="finite"):
            ExplicitDistribution(fs_2d, [(0.0, 0.0), (1.0, 0.0)], [bad, 0.5])
        with pytest.raises(ConfigError, match="finite"):
            ProductDistribution(fs_2d, [[bad, 0.5, 0.5], np.full(3, 1 / 3)])
        core = np.ones((1, 3, 1))
        core[0, 1, 0] = bad
        with pytest.raises(ConfigError, match="core 2 entries must be finite"):
            MpsDistribution(fs_2d, [np.ones((1, 3, 1)), core])

    def test_core_validation(self, fs_2d):
        with pytest.raises(ConfigError):
            MpsDistribution(fs_2d, [np.ones((1, 2, 1)), np.ones((1, 3, 1))])
        with pytest.raises(ConfigError):
            MpsDistribution(fs_2d, [-np.ones((1, 3, 1)), np.ones((1, 3, 1))])
        with pytest.raises(ConfigError):
            MpsDistribution(fs_2d, [np.ones((1, 3, 2)), np.ones((2, 3, 2))])


class TestExplicit:
    def test_validation(self, fs_2d):
        with pytest.raises(ConfigError):
            ExplicitDistribution(fs_2d, [(0.0, 1.0)], [0.5])  # sums to 0.5
        with pytest.raises(ConfigError):
            ExplicitDistribution(fs_2d, [(-1.0, 0.0)], [1.0])  # not canonical
        with pytest.raises(ConfigError):
            ExplicitDistribution(fs_2d, [(0.0, 1.0), (0.0, 1.0)], [0.5, 0.5])

    def test_partial_support_allowed(self, fs_1d_5):
        dist = ExplicitDistribution(fs_1d_5, [(1.0,), (3.0,)], [0.25, 0.75])
        assert dist.pmf((2.0,)) == 0.0
        assert dist.p_max().value == 0.75

    def test_support_snaps_before_the_canonical_check(self, fs_2d):
        # (5e-10, -1) snaps to the non-canonical (0, -1); (-5e-10, 1) to (0, 1)
        with pytest.raises(ConfigError, match="not canonical"):
            ExplicitDistribution(fs_2d, [(5e-10, -1.0)], [1.0])
        dist = ExplicitDistribution(fs_2d, [(-5e-10, 1.0), (1.0, 1.0)], [0.25, 0.75])
        assert dist.support.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert dist.pmf((0.0, 1.0)) == 0.25 and dist.pmf((-5e-10, 1.0)) == 0.25
        want = [0.25 if tuple(r) == (0.0, 1.0) else 0.75 if tuple(r) == (1.0, 1.0) else 0.0
                for r in fs_2d.half]
        assert dist.pmf_vector().tolist() == want
        with pytest.raises(ValueError, match="not canonical"):
            dist.pmf((5e-10, -1.0))

    def test_messages_print_plain_floats(self, fs_1d_3):
        with pytest.raises(ConfigError, match=r"^support point \(-1\.0,\) is not canonical$"):
            ExplicitDistribution(fs_1d_3, [[-1.0]], [1.0])
        dist = ExplicitDistribution(fs_1d_3, [[1.0]], [1.0])
        with pytest.raises(ValueError, match=r"^frequency \(-1\.0,\) is not canonical$"):
            dist.pmf([-1.0])
        with pytest.raises(ValueError, match=r"^coefficient key \(-1\.0,\) is not canonical$"):
            TrigPolynomial.from_half_coeffs(fs_1d_3, {(-1.0,): 1.0})

    def test_lazy_lattice_beyond_int64(self):
        # 9^20 > 2^63 points: support lookups go by exact integer codes
        fs = build_frequency_set(pauli_half_encoding([4] * 20))
        top = np.full((1, 20), 4.0)
        point = np.zeros(20)
        point[3], point[19] = 1.0, -2.0
        dist = ExplicitDistribution(fs, [top[0], point], [0.4, 0.6])
        assert dist.pmf(point) == 0.6 and dist.pmf(top[0]) == 0.4
        point[19] = 2.0
        assert dist.pmf(point) == 0.0
        assert dist.pmf(np.stack([top[0], point, np.zeros(20)])).tolist() == [0.4, 0.0, 0.0]

    def test_from_weights(self, fs_1d_5):
        w = WeightVector(np.array([0.0, 1.0, 0.0, 2.0, 0.0]))
        dist = explicit_from_weights(fs_1d_5, w)
        assert dist.pmf((1.0,)) == pytest.approx(0.2)
        assert dist.pmf((3.0,)) == pytest.approx(0.8)
        assert dist.pmf((0.0,)) == 0.0


class TestJson:
    def test_all_kinds(self, fs_2d):
        docs = [
            {"kind": "explicit", "support": [[0.0, 1.0]], "probs": [1.0]},
            {"kind": "product", "per_dim": [[1 / 3] * 3, [1 / 3] * 3]},
            {"kind": "mps", "cores": [np.ones((1, 3, 1)).tolist(), np.ones((1, 3, 1)).tolist()]},
            {"kind": "uniform"},
            {"kind": "uniform", "variant": "product"},
        ]
        for doc in docs:
            dist = distribution_from_json(doc, fs_2d)
            assert dist.pmf_vector().sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unknown(self, fs_2d):
        with pytest.raises(ConfigError):
            distribution_from_json({"kind": "gaussian"}, fs_2d)
        with pytest.raises(ConfigError):
            distribution_from_json({}, fs_2d)
        with pytest.raises(ConfigError):
            distribution_from_json({"kind": "uniform", "variant": "mps"}, fs_2d)


class TestMpsDims:
    def test_declared_dims_validated(self, fs_2d):
        good = {"kind": "mps", "cores": [np.ones((1, 3, 1)).tolist()] * 2, "dims": [3, 3]}
        assert distribution_from_json(good, fs_2d).pmf_vector().sum() == pytest.approx(1.0)
        bad = {"kind": "mps", "cores": [np.ones((1, 3, 1)).tolist()] * 2, "dims": [3, 4]}
        with pytest.raises(ConfigError):
            distribution_from_json(bad, fs_2d)
