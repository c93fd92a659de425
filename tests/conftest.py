import numpy as np
import pytest

from rffdq import freqcore, kernelmap, regress
from rffdq.freqcore import EncodingStrategy, FrequencySet, HamiltonianSpectrum, build_frequency_set


def pauli_half_encoding(L_per_dim):
    """Encoding with L_j spectra {-1/2, +1/2} per dimension: integer lattice
    {-L_j..L_j} along dimension j."""
    half = HamiltonianSpectrum((-0.5, 0.5))
    return EncodingStrategy(tuple(tuple(half for _ in range(L)) for L in L_per_dim))


def forbid_per_key_lookups(monkeypatch):
    """Make the one-frequency lattice lookups raise, so that a run which
    still matches frequencies one at a time fails."""

    def forbidden(*args, **kwargs):
        raise AssertionError("per-key lattice lookup")

    monkeypatch.setattr(FrequencySet, "snap", forbidden)
    for module in (freqcore, kernelmap):
        monkeypatch.setattr(module, "canonical_fold", forbidden)


def forbid_model_evaluation(monkeypatch):
    """Make pointwise evaluation of fitted models and of polynomials raise,
    so that a risk which still samples input points fails."""

    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise evaluation")

    for model in (regress.RffModel, regress.ExplicitLinearModel):
        monkeypatch.setattr(model, "predict", forbidden)
    monkeypatch.setattr(regress.RffFeatureSet, "raw_features", forbidden)
    monkeypatch.setattr(kernelmap.TrigPolynomial, "evaluate", forbidden)


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
