import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pauli_half_encoding, record_half_formations
from oracles import (
    dedup_keep_first,
    oracle_component_set,
    oracle_full_lattice,
    oracle_half,
    random_dyadic_encoding,
)
from rffdq import freqcore
from rffdq.errors import CapacityError, ConfigError
from rffdq.freqcore import (
    EncodingStrategy,
    HamiltonianSpectrum,
    build_frequency_set,
    component_frequency_set,
    fold_rows,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import studies  # noqa: E402
from rffdq.harness import SweepConfig  # noqa: E402


# lattices beyond the dyadic grid: decimal (non-integer) spectra, and an
# unencoded dimension first, in the middle and last
SPECIAL_ENCODINGS = [
    EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),), (HamiltonianSpectrum((0.0, 0.7, 1.1)),))),
    EncodingStrategy(((), (HamiltonianSpectrum((-0.5, 0.5)),) * 2)),
    EncodingStrategy(
        ((HamiltonianSpectrum((-0.3, 0.3)),), (), (HamiltonianSpectrum((0.0, 0.7, 1.1)),))
    ),
    EncodingStrategy(((HamiltonianSpectrum((-0.5, 0.5)), HamiltonianSpectrum((0.0, 0.7))), ())),
    EncodingStrategy(((), ())),
]


class TestComponentFrequencySet:
    def test_empty_gate_list_gives_zero(self):
        assert component_frequency_set([]).tolist() == [0.0]

    def test_single_pm1_spectrum(self):
        spec = HamiltonianSpectrum((-1.0, 1.0))
        assert component_frequency_set([spec]).tolist() == [-2.0, 0.0, 2.0]

    def test_three_pauli_half_spectra(self):
        h = HamiltonianSpectrum((-0.5, 0.5))
        got = component_frequency_set([h, h, h]).tolist()
        assert got == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_degenerate_eigenvalues_collapse(self):
        spec = HamiltonianSpectrum((-1.0, -1.0, 1.0))
        assert component_frequency_set([spec]).tolist() == [-2.0, 0.0, 2.0]

    def test_capacity_error(self, monkeypatch):
        spec = HamiltonianSpectrum(tuple(np.linspace(0, 1, 9)))
        monkeypatch.setattr(freqcore, "PER_DIM_CAP", 64)
        with pytest.raises(CapacityError):
            component_frequency_set([spec] * 4)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(1000 + trial)
        enc = random_dyadic_encoding(rng, d_max=1, L_max=3, spec_max=3)
        got = component_frequency_set(enc.per_dimension[0]).tolist()
        want = oracle_component_set([s.eigenvalues for s in enc.per_dimension[0]])
        assert got == want

    def test_a_chain_collapses_to_its_smallest_magnitude(self):
        chain = np.array([0.0, 0.9e-12, 1.8e-12, 2.7e-12])
        mirrored = np.concatenate([-chain[:0:-1], chain])
        assert freqcore._dedup_sorted(chain).tolist() == [0.0]
        assert freqcore._dedup_sorted(mirrored).tolist() == [0.0]
        assert freqcore._dedup_sorted(chain + 1.0).tolist() == [1.0]
        assert freqcore._dedup_sorted(-(chain + 1.0)[::-1]).tolist() == [-1.0]

    def test_decimal_spectra_give_exactly_symmetric_sets(self):
        # sums of decimal eigenvalues round, so near-equal differences form
        # chains; the set must still hold 0 and every value's exact negation
        rng = np.random.default_rng(11)
        for _ in range(40):
            specs = [
                HamiltonianSpectrum(tuple(np.round(rng.uniform(-1, 1, 3), 1)))
                for _ in range(3)
            ]
            f = component_frequency_set(specs)
            assert 0.0 in f and np.array_equal(f, -f[::-1])

    def test_integer_and_benchmark_lattices_unchanged(self, monkeypatch):
        # on these lattices every cluster is one value, so the member kept
        # cannot differ from the earlier keep-first rule's
        encodings = [pauli_half_encoding([3, 1, 4])]
        encodings += [
            SweepConfig.from_json(studies.study_config(w, 1, 0)).problem.encoding
            for w in studies.WORKLOADS.values()
        ]
        rng = np.random.default_rng(5)
        encodings += [random_dyadic_encoding(rng) for _ in range(20)]
        want = [build_frequency_set(enc).per_dimension_freqs for enc in encodings]
        monkeypatch.setattr(freqcore, "_dedup_sorted", dedup_keep_first)
        for enc, new in zip(encodings, want):
            old = build_frequency_set(enc).per_dimension_freqs
            assert all(np.array_equal(a, b) for a, b in zip(old, new))


class TestBuildFrequencySet:
    def test_d1_single_gate(self):
        enc = EncodingStrategy(((HamiltonianSpectrum((-1.0, 1.0)),),))
        fs = build_frequency_set(enc)
        assert fs.per_dimension_freqs[0].tolist() == [-2.0, 0.0, 2.0]
        assert fs.half.ravel().tolist() == [0.0, 2.0]
        assert fs.size == 2 and fs.full_size == 3

    def test_d2_nine_point_lattice(self):
        fs = build_frequency_set(pauli_half_encoding([1, 1]))
        assert fs.full_size == 9
        assert fs.size == 5
        assert {tuple(r) for r in fs.half} == {
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, -1.0),
            (1.0, 0.0),
            (1.0, 1.0),
        }

    def test_unencoded_dimension(self):
        enc = EncodingStrategy(((),))
        fs = build_frequency_set(enc)
        assert fs.full_size == 1
        assert fs.half.tolist() == [[0.0]]

    def test_zero_vector_first_and_index_bijective(self):
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        assert np.all(fs.half[0] == 0.0)
        codes = fs.code(fs.locate(fs.half))
        assert codes.size == fs.size and np.all(np.diff(codes) > 0)
        assert codes.tolist() == list(range(fs.zero_code, fs.full_size))
        assert fs.half_rows(fs.locate(fs.half)).tolist() == list(range(fs.size))
        for i, row in enumerate(fs.half):
            assert fs.position(row) == i

    def test_mirror_symmetry_and_half_count(self):
        for seed in range(15):
            rng = np.random.default_rng(2000 + seed)
            enc = random_dyadic_encoding(rng)
            fs = build_frequency_set(enc)
            for f in fs.per_dimension_freqs:
                assert 0.0 in f.tolist()
                assert np.array_equal(np.sort(-f), f)
            assert fs.size == (fs.full_size - 1) // 2 + 1

    def test_matches_brute_force_oracle(self):
        encodings = [
            random_dyadic_encoding(np.random.default_rng(3000 + seed)) for seed in range(25)
        ]
        for enc in encodings + SPECIAL_ENCODINGS:
            fs = build_frequency_set(enc)
            per_dim = [f.tolist() for f in fs.per_dimension_freqs]
            for j, dim in enumerate(enc.per_dimension):
                assert per_dim[j] == oracle_component_set([s.eigenvalues for s in dim])
            assert [tuple(r) for r in fs.half] == oracle_half(per_dim)

    def test_is_integer_for_half_integer_spectra(self):
        fs = build_frequency_set(pauli_half_encoding([3, 2]))
        assert fs.is_integer
        enc = EncodingStrategy(((HamiltonianSpectrum((-0.3, 0.3)),),))
        assert not build_frequency_set(enc).is_integer

    def test_lazy_mode(self, monkeypatch):
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 3**8 - 1)
        fs = build_frequency_set(pauli_half_encoding([1] * 8))
        assert not fs.materialized
        assert fs.full_size == 3**8
        with pytest.raises(CapacityError):
            fs.require_materialized()

    def test_materialization_cap(self, monkeypatch):
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 1000)
        fs = build_frequency_set(pauli_half_encoding([1] * 8))
        with pytest.raises(CapacityError, match=r"full lattice has 6561 points \(cap 1000\)"):
            fs.half

    def test_half_is_formed_on_first_read(self, monkeypatch):
        formed = record_half_formations(monkeypatch)
        encodings = [pauli_half_encoding([1] * 14), pauli_half_encoding([4] * 20)]
        encodings += [
            SweepConfig.from_json(studies.study_config(w, 1, 0)).problem.encoding
            for w in studies.WORKLOADS.values()
        ]
        lattices = [build_frequency_set(enc) for enc in encodings]
        assert formed == []
        fs = lattices[2]
        assert fs.half.shape == (fs.size, fs.d)
        assert fs.code(fs.locate(fs.half)).size == fs.size
        fs.half_rows(fs.locate(fs.half))
        assert formed == [fs.full_size]  # once, whatever reads it next

    def test_half_is_formed_without_the_full_lattice(self):
        # the half is decoded from its codes one column at a time; forming
        # the full lattice and folding it peaked at 8.4 times the half on 3^12
        fs = build_frequency_set(pauli_half_encoding([1] * 10))
        tracemalloc.start()
        try:
            fs.require_materialized()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * fs.half.nbytes + 2**20

    def test_snap_rejects_off_lattice(self, fs_2d):
        with pytest.raises(ValueError):
            fs_2d.snap((0.5, 0.0))
        with pytest.raises(ValueError):
            fs_2d.position((0.0, -1.0))  # non-canonical


class TestLocate:
    def test_codes_are_row_major_positions(self):
        encodings = [
            random_dyadic_encoding(np.random.default_rng(3000 + seed)) for seed in range(10)
        ]
        for enc in encodings + SPECIAL_ENCODINGS:
            fs = build_frequency_set(enc)
            per_dim = [f.tolist() for f in fs.per_dimension_freqs]
            full = oracle_full_lattice(per_dim)
            idx = fs.locate(np.array(full))
            assert fs.code(idx).tolist() == list(range(fs.full_size))
            assert np.array_equal(fs.at(idx), np.array(full))
            # the half's codes ascend, and each point's row is its position
            half = oracle_half(per_dim)
            assert [full[k] for k in fs.code(fs.locate(fs.half)).tolist()] == half
            assert fs.half_rows(fs.locate(fs.half)).tolist() == list(range(fs.size))
            # every lattice point: its row in the oracle's half, or -1
            row_of = {point: i for i, point in enumerate(half)}
            assert fs.half_rows(idx).tolist() == [row_of.get(p, -1) for p in full]

    def test_tolerance_edges(self):
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        near = np.array([[2.0 + 0.9e-9, -1.0 - 0.9e-9], [-2.0 - 0.9e-9, 0.9e-9]])
        assert fs.locate(near).tolist() == [[4, 0], [0, 1]]
        assert fs.snap(near[0]) == (2.0, -1.0)
        for bad, dim in (((2.0 + 1.1e-9, 0.0), 1), ((0.0, -1.0 - 1.1e-9), 2)):
            with pytest.raises(ValueError, match=f"not in lattice dimension {dim}"):
                fs.locate(np.array([bad]))
        # a component halfway between two lattice points matches neither
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            fs.locate(np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError, match="must have length 2"):
            fs.locate(np.zeros((1, 3)))

    def test_nan_is_off_lattice(self, fs_1d_3):
        with pytest.raises(ValueError, match="nan not in lattice dimension 1"):
            fs_1d_3.locate(np.array([[np.nan]]))
        with pytest.raises(ValueError, match="not in lattice dimension 1"):
            fs_1d_3.snap([np.nan])

    def test_non_canonical_and_off_lattice_rows(self):
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        rows = np.array([[0.0, 0.0], [0.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
        got = fs.half_rows(fs.locate(rows))
        assert got.tolist() == [0, -1, -1, fs.position((1.0, -1.0)), fs.position((0.0, 1.0))]
        with pytest.raises(ValueError, match="not in the canonical half"):
            fs.position((-1.0, 1.0))
        with pytest.raises(ValueError, match="not in lattice dimension 2"):
            fs.position((1.0, 3.0))

    def test_lazy_lattice(self, monkeypatch):
        eager = build_frequency_set(pauli_half_encoding([2, 1]))
        half, codes = eager.half, eager.code(eager.locate(eager.half))
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 14)  # the lattice has 15 points
        fs = build_frequency_set(pauli_half_encoding([2, 1]))
        idx = fs.locate(half)
        assert np.array_equal(fs.code(idx), codes)
        assert fs.snap((-2.0, 1.0 + 1e-10)) == (-2.0, 1.0)
        # rows need no half: they are codes less zero_code
        assert fs.half_rows(idx).tolist() == list(range(8))
        assert fs.half_rows(fs.mirror(idx)).tolist() == [0] + [-1] * 7
        assert fs.position((1.0, -1.0)) == 2 and fs._half is None
        # past int64 the codes are Python integers and stay exact
        huge = build_frequency_set(pauli_half_encoding([4] * 20))
        assert huge.full_size > 2**63
        rows = np.array([np.full(20, 4.0), np.full(20, -4.0), np.eye(20)[0] * 4.0])
        want = [9**20 - 1, 0, 8 * 9**19 + sum(4 * 9**k for k in range(19))]
        assert huge.code(huge.locate(rows)).tolist() == want


class TestCanonicalFold:
    @pytest.mark.parametrize(
        "omega,expected,sign",
        [
            ((0.0, 0.0), (0.0, 0.0), 1),
            ((-1.0, 2.0), (1.0, -2.0), -1),
            ((0.0, 3.0), (0.0, 3.0), 1),
        ],
    )
    def test_examples(self, omega, expected, sign):
        folded, flipped = fold_rows([omega])
        assert tuple(folded[0]) == expected and (-1 if flipped[0] else 1) == sign

    @given(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=1, max_size=4
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_properties(self, omega):
        w = np.asarray(omega)
        (folded,), (flipped,) = fold_rows(w[None, :])
        sign = -1 if flipped else 1
        assert np.allclose(sign * folded, w, atol=1e-12)
        # one batched call folds the folded row and the negated row alike
        again, flipped2 = fold_rows(np.stack([folded, -w]))
        assert np.array_equal(again[0], folded) and not flipped2[0]
        assert np.array_equal(again[1], folded)


class TestEncodingJson:
    def test_roundtrip(self):
        doc = {"dimensions": [[[-0.5, 0.5], [-1.0, 0.0, 1.0]], [[-0.5, 0.5]]]}
        enc = EncodingStrategy.from_json(doc)
        assert enc.d == 2
        assert enc.to_json() == doc

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"dimensions": []},
            {"dimensions": "nope"},
            {"dimensions": [[[]]]},
        ],
    )
    def test_rejects_malformed(self, doc):
        with pytest.raises(ConfigError):
            EncodingStrategy.from_json(doc)

    def test_spectrum_validation(self):
        with pytest.raises(ConfigError):
            HamiltonianSpectrum(())
        with pytest.raises(ConfigError):
            HamiltonianSpectrum((float("nan"),))
        assert HamiltonianSpectrum((1.0, -1.0)).eigenvalues == (-1.0, 1.0)
