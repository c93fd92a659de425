import numpy as np
import pytest

from rffdq import freqsample, kernelmap, regress
from rffdq.freqcore import EncodingStrategy, FrequencySet, HamiltonianSpectrum, build_frequency_set


def pauli_half_encoding(L_per_dim):
    """Encoding with L_j spectra {-1/2, +1/2} per dimension: integer lattice
    {-L_j..L_j} along dimension j."""
    half = HamiltonianSpectrum((-0.5, 0.5))
    return EncodingStrategy(tuple(tuple(half for _ in range(L)) for L in L_per_dim))


def forbid_per_key_lookups(monkeypatch):
    """Make the one-frequency lattice lookup ``FrequencySet.snap`` raise,
    so that a run which still matches frequencies one at a time fails."""

    def forbidden(*args, **kwargs):
        raise AssertionError("per-key lattice lookup")

    monkeypatch.setattr(FrequencySet, "snap", forbidden)


def forbid_per_row_ptilde(monkeypatch):
    """Make ptilde at gathered rows, and the lattice lookup behind it, raise,
    so that an enumeration which still evaluates the half row by row fails."""

    def forbidden(*args, **kwargs):
        raise AssertionError("per-row ptilde")

    monkeypatch.setattr(freqsample._TensorTrain, "_tilde", forbidden)
    monkeypatch.setattr(FrequencySet, "locate", forbidden)


def forbid_model_evaluation(monkeypatch):
    """Make pointwise evaluation of fitted models and of polynomials raise,
    so that a risk which still samples input points fails."""

    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise evaluation")

    for model in (regress.RffModel, regress.ExplicitLinearModel):
        monkeypatch.setattr(model, "predict", forbidden)
    monkeypatch.setattr(regress.RffFeatureSet, "design_matrix", forbidden)
    monkeypatch.setattr(kernelmap.TrigPolynomial, "evaluate", forbidden)


def record_half_formations(monkeypatch) -> list:
    """Spy on ``FrequencySet.require_materialized``: the returned list gets
    the ``full_size`` of each lattice whose canonical half is formed."""
    formed = []
    original = FrequencySet.require_materialized

    def spy(self):
        if self._half is None and self.materialized:
            formed.append(self.full_size)
        return original(self)

    monkeypatch.setattr(FrequencySet, "require_materialized", spy)
    return formed


@pytest.fixture
def count_enumerations(monkeypatch) -> list:
    """Spy on the enumerations of p over the half: the returned list gets
    the ``kind`` of each distribution whose half is formed (``_enumerate``:
    a tensor train's dense ptilde grid and fold, or an explicit fill)."""
    done = []
    for cls in (freqsample._TensorTrain, freqsample.ExplicitDistribution):

        def spy(self, _original=cls._enumerate):
            out = _original(self)
            done.append(self.kind)
            return out

        monkeypatch.setattr(cls, "_enumerate", spy)
    return done


@pytest.fixture
def fs_1d_5():
    """d=1 lattice {-4..4}: canonical half {0,1,2,3,4}."""
    return build_frequency_set(pauli_half_encoding([4]))


@pytest.fixture
def fs_1d_3():
    """d=1 lattice {-2..2}: canonical half {0,1,2}."""
    return build_frequency_set(pauli_half_encoding([2]))


@pytest.fixture
def fs_2d():
    """d=2 lattice {-1,0,1}^2: canonical half of size 5."""
    return build_frequency_set(pauli_half_encoding([1, 1]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
