"""Sample-count calculators: sufficient counts for random-feature regression
to match the best kernel-realizable model, and necessary counts from the
average-error lower bound.

The sufficiency constants are evaluated verbatim (natural logarithms):

    n0    = max{ 4 ||T||^2, (528 log(1112 sqrt(2)/delta))^2 }
    c0    = 36 (3 + 2/||T||)
    c1    = 8 sqrt(2) (4 b + (5/sqrt(2)) C + 2 sqrt(2 C))
    n_min = max{ c1^2 log^4(1/delta) / eps^2, n0 }
    M_min = c0 sqrt(n) log(108 sqrt(n)/delta)

The lower bound for integer lattices reads

    E ||f* - g||_2^2 >= (2 pi)^d ||fhat*||_2^2 - (2 pi)^d 2 M sum |fhat*(w)|^2 p(w)
                    >= ||f*||_2^2 (1 - 2 M p_max),

whose rearrangements give the two required-sample numbers reported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, NonIntegerFrequencyError
from .freqcore import MATCH_TOL
from .freqsample import FrequencyDistribution, SeededRng
from .kernelmap import (
    TrigPolynomial,
    coeff_sup_bound,
    fhat_l2_sq,
    l2_norm_sq,
    rkhs_norm,
)
from .regress import Dataset, model_spectrum, rff_fit

# frequency samples beyond which feasibility_report calls the alignment bound
# blocking, and notes a sufficient (n_min, M_min) as beyond any budget
M_BUDGET = 1e6


@dataclass
class BoundsReport:
    """Evaluated sufficiency constants for one (||T||, C, b, eps, delta)."""

    op_norm: float
    C: float
    b: float
    eps: float
    delta: float
    n0: float
    c0: float
    c1: float
    n_min: float
    M_min: float
    verdict_notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "inputs": {
                "op_norm": self.op_norm,
                "C": self.C,
                "b": self.b,
                "eps": self.eps,
                "delta": self.delta,
            },
            "n0": self.n0,
            "c0": self.c0,
            "c1": self.c1,
            "n_min": self.n_min,
            "M_min": self.M_min,
            "notes": list(self.verdict_notes),
        }


def sufficient_sample_counts(op_norm: float, C: float, b: float, eps: float, delta: float) -> BoundsReport:
    """Evaluate the sufficient (n, M) pair for the given kernel operator
    norm, hyperplane-norm bound C, label bound b, risk gap eps, and failure
    probability delta."""
    if not (0.0 < op_norm <= 0.5):
        raise ValueError("operator norm must lie in (0, 1/2]")
    for name, value in (("C", C), ("b", b), ("eps", eps)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    n0 = max(4.0 * op_norm**2, (528.0 * math.log(1112.0 * math.sqrt(2.0) / delta)) ** 2)
    c0 = 36.0 * (3.0 + 2.0 / op_norm)
    c1 = 8.0 * math.sqrt(2.0) * (4.0 * b + (5.0 / math.sqrt(2.0)) * C + 2.0 * math.sqrt(2.0 * C))
    n_min = max(c1**2 * math.log(1.0 / delta) ** 4 / eps**2, n0)
    M_min = c0 * math.sqrt(n_min) * math.log(108.0 * math.sqrt(n_min) / delta)
    notes = [
        "the high-probability risk-gap guarantee is stated for the regime where "
        "the random-feature model does not already beat the reference model; "
        "this calculator evaluates the constants only",
        "regularization convention: lambda = 1/sqrt(n)",
    ]
    return BoundsReport(op_norm, C, b, eps, delta, n0, c0, c1, n_min, M_min, notes)


@dataclass
class LowerBoundReport:
    """Required frequency-sample counts from the average-error lower bound."""

    p_max: float | None
    p_max_exact: bool
    alignment: float
    fhat_l2_sq: float
    f_l2_sq: float
    eps_hat: float
    M_required_pmax: float | None
    M_required_alignment: float
    vacuous: bool
    integer_lattice: bool
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "p_max": self.p_max,
            "p_max_exact": self.p_max_exact,
            "alignment": self.alignment,
            "fhat_l2_sq": self.fhat_l2_sq,
            "f_l2_sq": self.f_l2_sq,
            "eps_hat": self.eps_hat,
            "M_required_pmax": self.M_required_pmax,
            "M_required_alignment": self.M_required_alignment,
            "vacuous": self.vacuous,
            "integer_lattice": self.integer_lattice,
            "notes": list(self.notes),
        }


def alignment(f_hat: TrigPolynomial, dist: FrequencyDistribution) -> float:
    """Overlap sum_{w in canonical half} |fhat(w)|^2 p(w) between the
    target's spectral mass and the sampling distribution.

    A target attached to the distribution's lattice reads the
    distribution's ``pmf_vector()`` at its rows where the distribution is
    enumerable; it equals ``pmf`` there bitwise.  Any other target takes
    ``pmf`` at its terms."""
    if f_hat.rows is not None and f_hat.freq_set is dist.fs and dist.enumerable:
        return float(np.abs(f_hat.c) ** 2 @ dist.pmf_vector()[f_hat.rows])
    if f_hat.freq_set is not None and f_hat.freq_set is not dist.fs:
        mine = f_hat.freq_set.per_dimension_freqs
        theirs = dist.fs.per_dimension_freqs
        same = len(mine) == len(theirs) and all(
            a.size == b.size and np.allclose(a, b, rtol=0, atol=MATCH_TOL)
            for a, b in zip(mine, theirs)
        )
        if not same:
            raise ValueError("function and distribution live on different lattices")
    return float(np.abs(f_hat.c) ** 2 @ dist.pmf(f_hat.freqs))


def _require_integer_lattice(dist: FrequencyDistribution):
    if not dist.fs.is_integer:
        raise NonIntegerFrequencyError(
            "the average-error lower bound assumes an integer frequency lattice"
        )


def required_sample_counts(
    f_hat: TrigPolynomial, dist: FrequencyDistribution, eps_hat: float
) -> LowerBoundReport:
    """Both rearrangements of the lower bound, flagged as vacuous when the
    requested expected error already exceeds the target's squared L2 norm.
    p_max and the alignment read the distribution's one enumeration where
    it is enumerable."""
    _require_integer_lattice(dist)
    if not 0.0 <= eps_hat < math.inf:
        raise ValueError("eps_hat must be finite and nonnegative")
    pm = dist.p_max()
    fh2 = fhat_l2_sq(f_hat)
    f2 = (2.0 * math.pi) ** f_hat.d * fh2
    A = alignment(f_hat, dist)
    vacuous = f2 <= eps_hat
    notes = []
    if vacuous:
        notes.append("bound is vacuous: ||f*||_2^2 <= eps_hat")
        m_pmax: float | None = 0.0
        m_align = 0.0
    else:
        if pm is not None:
            m_pmax = (1.0 - eps_hat / f2) / (2.0 * pm.value)
        else:
            m_pmax = None
            notes.append("p_max unknown for this distribution; only the alignment bound is reported")
        numer = fh2 - eps_hat / (2.0 * math.pi) ** f_hat.d
        m_align = numer / (2.0 * A) if A > 0 else math.inf
        if A == 0:
            notes.append(
                "alignment is zero: the sampler never draws the target's support, "
                "no number of frequency samples reaches the requested error"
            )
    return LowerBoundReport(
        p_max=None if pm is None else pm.value,
        p_max_exact=False if pm is None else pm.is_exact,
        alignment=A,
        fhat_l2_sq=fh2,
        f_l2_sq=f2,
        eps_hat=eps_hat,
        M_required_pmax=m_pmax,
        M_required_alignment=m_align,
        vacuous=vacuous,
        integer_lattice=dist.fs.is_integer,
        notes=notes,
    )


@dataclass
class FeasibilityReport:
    verdict: str
    notes: list
    p_max: float | None
    p_max_exact: bool
    C_used: float | None
    sufficient: BoundsReport | None
    lower: LowerBoundReport | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "notes": list(self.notes),
            "p_max": self.p_max,
            "p_max_exact": self.p_max_exact,
            "C_used": self.C_used,
            "sufficient": None if self.sufficient is None else self.sufficient.to_json(),
            "lower": None if self.lower is None else self.lower.to_json(),
        }

    def render_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.p_max is not None:
            tag = "exact" if self.p_max_exact else "upper bound"
            lines.append(f"p_max = {self.p_max:.6g} ({tag})")
        if self.C_used is not None:
            lines.append(f"C = {self.C_used:.6g}")
        if self.sufficient is not None:
            lines.append(
                f"sufficient: n >= {self.sufficient.n_min:.6g}, M >= {self.sufficient.M_min:.6g}"
            )
        if self.lower is not None and not self.lower.vacuous:
            if self.lower.M_required_pmax is not None:
                lines.append(f"necessary (concentration): M >= {self.lower.M_required_pmax:.6g}")
            lines.append(f"necessary (alignment): M >= {self.lower.M_required_alignment:.6g}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def _anti_concentrated(dist: FrequencyDistribution) -> bool:
    """Uniform, or a fold of per-dimension pmfs none of which is a point
    mass, however the sampler is written."""
    if dist.uniform_variant is not None:
        return True
    factors = dist.factors()
    return factors is not None and all(float(np.max(pj)) < 1.0 - 1e-12 for pj in factors)


def feasibility_report(
    dist: FrequencyDistribution,
    f_hat: TrigPolynomial | None = None,
    C: float | None = None,
    b: float = 1.0,
    eps: float = 0.1,
    delta: float = 0.05,
    eps_hat: float | None = None,
) -> FeasibilityReport:
    """Operational verdict on whether the bound machinery certifies,
    forbids, or says nothing about dequantizing with this sampler.

    LOWER-BOUND-BLOCKS: the target is known, the error regime is
    non-vacuous, and either the sampler family is structurally
    anti-concentrated (uniform, or a fold of per-dimension pmfs with no
    point mass: ``FrequencyDistribution.factors``, a product or a tensor
    train of bond 1) or the alignment bound exceeds the sample budget
    ``M_BUDGET``.  SUFFICIENT-BOUND-POLY: a hyperplane-norm bound is
    available (given or computed) together with a known, structurally
    concentrated p_max, so the sufficient pair (n_min, M_min) is evaluated;
    a note says when it exceeds ``M_BUDGET``, which leaves the verdict as it
    is.
    Everything else is INCONCLUSIVE.
    """
    fs = dist.fs
    notes: list[str] = []
    anti = _anti_concentrated(dist)
    # p_max, the alignment and the norm C all read the distribution's one
    # enumeration of the half
    pm = dist.p_max()
    if dist.uniform_variant is not None:
        n_min_dim = min(f.size for f in fs.per_dimension_freqs)
        notes.append(
            f"uniform sampler: p_max <= 2/N_min^d = 2/{n_min_dim}^{fs.d} decays exponentially in d"
        )
    elif anti:
        c = 1.0 / max(float(np.max(pj)) for pj in dist.factors())
        notes.append(
            f"product-induced sampler with nontrivial components: "
            f"p_max <= 2*c^-d with c = {c:.6g}"
        )
    lower = None
    if f_hat is not None:
        eh = eps if eps_hat is None else eps_hat
        try:
            lower = required_sample_counts(f_hat, dist, eh)
        except NonIntegerFrequencyError:
            notes.append("non-integer lattice: the necessity bound does not apply")
    C_used = C
    if C is None and f_hat is not None and fs.is_integer:
        try:
            C_used = rkhs_norm(f_hat, dist.weights())
            notes.append("C computed from the target's hyperplane norm under this sampler")
        except (CapacityError, ValueError) as exc:
            notes.append(f"C not computable: {exc}")
    sufficient = None
    if C_used is not None and pm is not None and fs.is_integer:
        if pm.is_exact:
            sufficient = sufficient_sample_counts(pm.value / 2.0, C_used, b, eps, delta)
            if max(sufficient.n_min, sufficient.M_min) > M_BUDGET:
                notes.append(
                    f"sufficient pair beyond any budget: n >= {sufficient.n_min:.6g} and "
                    f"M >= {sufficient.M_min:.6g} against {M_BUDGET:.6g} samples"
                )
        else:
            # an upper bound on p_max would understate the operator-norm
            # constants; the sufficiency side needs the exact value
            notes.append("p_max known only as an upper bound; sufficiency constants not evaluated")
    blocked = False
    if lower is not None and not lower.vacuous:
        if anti:
            blocked = True
            notes.append(
                "anti-concentrated sampler in a non-vacuous error regime: the "
                "necessity bound forces super-polynomially many frequency samples as d grows"
            )
        elif lower.M_required_alignment > M_BUDGET:
            blocked = True
            notes.append(
                f"alignment bound requires M >= {lower.M_required_alignment:.6g} "
                f"(budget {M_BUDGET:.6g})"
            )
    if blocked:
        verdict = "LOWER-BOUND-BLOCKS"
    elif sufficient is not None and not anti:
        verdict = "SUFFICIENT-BOUND-POLY"
    else:
        verdict = "INCONCLUSIVE"
        if f_hat is None:
            notes.append("target spectrum unknown: necessity bound cannot be evaluated")
        if C_used is None:
            notes.append("no hyperplane-norm bound available: sufficiency bound cannot be evaluated")
    return FeasibilityReport(
        verdict=verdict,
        notes=notes,
        p_max=None if pm is None else pm.value,
        p_max_exact=False if pm is None else pm.is_exact,
        C_used=C_used,
        sufficient=sufficient,
        lower=lower,
    )


def expected_error_floor(f_hat: TrigPolynomial, dist: FrequencyDistribution, M: int) -> float:
    """Right-hand side of the expected-error lower bound at sample count M."""
    _require_integer_lattice(dist)
    scale = (2.0 * math.pi) ** f_hat.d
    return scale * fhat_l2_sq(f_hat) - scale * 2.0 * M * alignment(f_hat, dist)


def empirical_error_mean(
    f_star: TrigPolynomial,
    dist: FrequencyDistribution,
    M: int,
    n: int,
    lam: float,
    trials: int,
    master: SeededRng,
):
    """Seed-pinned Monte-Carlo estimate of E ||f* - g||_2^2 over RFF runs.

    Each trial owns its own rng stream: the dataset (uniform inputs,
    noiseless labels) and the feature draw both come from stream
    ``master.stream_for(t)``, so a trial does not depend on the others.
    A trial's error is the exact ``l2_norm_sq`` of f* minus its model's
    spectrum, on every lattice; only the mean over trials is an estimate.
    Returns (mean, stderr, per-trial errors).
    """
    b_bound = coeff_sup_bound(f_star)

    def one_trial(t: int) -> float:
        gen = master.stream_for(t).generator()
        X = gen.uniform(0.0, 2.0 * np.pi, size=(n, f_star.d))
        Y = f_star.evaluate(X)
        data = Dataset(X, Y, b_bound)
        model = rff_fit(data, dist, M, lam, gen)
        return l2_norm_sq(f_star - model_spectrum(model))

    errs = np.asarray([one_trial(t) for t in range(trials)])
    mean = float(np.mean(errs))
    stderr = float(np.std(errs, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr, errs
