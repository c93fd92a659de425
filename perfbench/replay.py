"""Traced replay of sweep cells and feasibility verdicts.

The replay calls each layer's public functions in the order
``harness.run_cell`` and ``bounds.feasibility_report`` call them, with a span
around every call into a layer.  The rows it builds must equal
``run_sweep``'s rows for the same config, and its verdict figures must equal
``feasibility_report``'s, which shows it does the work the program does.
"""

from __future__ import annotations

import inspect
import itertools
import math

import numpy as np

from rffdq import bounds, harness, kernelmap, pqcsim, regress
from rffdq.freqcore import build_frequency_set
from rffdq.freqsample import ExplicitDistribution, SeededRng, distribution_from_json

# rng stream harness.run_cell gives the Monte-Carlo risk of each cell
MC_STREAM = 10_000_019
MC_POINTS = inspect.signature(regress.true_risk_estimate).parameters["mc_points"].default

# feasibility_report's defaults, which `rffdq bounds feasibility` also uses
VERDICT_B, VERDICT_EPS, VERDICT_DELTA = 1.0, 0.1, 0.05

_NAN_COLUMNS = (
    "emp_risk",
    "true_risk",
    "krr_true_risk",
    "risk_gap",
    "l2_err_sq",
    "alignment",
    "p_max",
)


def cells(config: harness.SweepConfig):
    """(index, M, n, lambda, seed) in the sweep's cell order."""
    grid = itertools.product(
        config.M_axis, config.n_axis, config.lambda_axis, config.seed_axis
    )
    return [(idx, *cell) for idx, cell in enumerate(grid)]


def _sup_bound(f: kernelmap.TrigPolynomial) -> float:
    zero = tuple(0.0 for _ in range(f.d))
    return float(sum(abs(c) if k == zero else 2.0 * abs(c) for k, c in f.coeffs.items()))


def _circuit_target(tr, spec: harness.ProblemSpec, fs) -> kernelmap.TrigPolynomial:
    with tr.span("pqcsim.extract"):
        circuit, obs = pqcsim.circuit_from_json(spec.target["circuit"])
        theta = np.asarray(spec.target.get("theta", []), dtype=float)
        poly = pqcsim.extract_trig_polynomial(circuit, obs, theta)
    # extract_trig_polynomial's default DFT grid: 2 f + 3 points per dimension
    evals = math.prod(2 * int(round(m)) + 3 for m in fs.max_abs_freq())
    tr.count("pqcsim.circuit_evals", evals)
    tr.count("pqcsim.amplitude_updates", evals * len(circuit.gates) * 2**circuit.qubits)
    for key in poly.coeffs:
        fs.snap(np.asarray(key))
    return kernelmap.TrigPolynomial.from_half_coeffs(fs, dict(poly.coeffs))


def problem(tr, spec: harness.ProblemSpec, fs):
    """harness.generate_problem, with the circuit spectrum extraction in a
    pqcsim span of its own."""
    with tr.span("harness.problem"):
        gen = SeededRng(spec.seed).generator()
        if spec.target.get("kind") == "circuit":
            target = _circuit_target(tr, spec, fs)
        else:
            target = harness.realize_target(spec, fs, gen)
        X = gen.uniform(0.0, 2.0 * np.pi, size=(spec.n, fs.d))
        clean = target.evaluate(X)
        sigma = spec.noise_sigma if spec.noise_kind == "uniform" else 0.0
        if sigma > 0:
            width = sigma * math.sqrt(3.0)
            noise = gen.uniform(-width, width, size=spec.n)
        else:
            noise = np.zeros(spec.n)
        data = regress.Dataset(X, clean + noise, _sup_bound(target) + sigma * math.sqrt(3.0))
    return data, target


def p_max(tr, dist):
    with tr.span("freqsample.pmax"):
        pm = dist.p_max()
    # an explicit distribution reads its stored probabilities; the others
    # evaluate pmf once per canonical frequency when they can enumerate
    if pm is not None and pm.is_exact and not isinstance(dist, ExplicitDistribution):
        tr.count("freqsample.pmf_evals", dist.fs.size)
    return pm


def pmf_vector(tr, dist) -> np.ndarray:
    with tr.span("freqsample.pmf_vector"):
        p = dist.pmf_vector()
    # pmf_vector calls pmf once per canonical frequency, for every kind
    tr.count("freqsample.pmf_evals", dist.fs.size)
    return p


def quadrature_points(fs, model: regress.RffModel) -> int:
    """Grid size of true_risk_estimate's quadrature for this model."""
    reach = np.maximum(fs.max_abs_freq(), np.max(np.abs(model.feature_set.frequencies), axis=0))
    return math.prod(int(4 * math.ceil(m)) + 1 for m in np.maximum(reach, 1.0))


def replay_cell(tr, config: harness.SweepConfig, fs, dist, cell) -> tuple[dict, float | None]:
    """One sweep cell as harness.run_cell computes it.

    Returns the row and, for Monte-Carlo risks, the estimate's standard
    error.
    """
    idx, M, n, lam, seed = cell
    row: dict = {
        "experiment_id": f"{config.name}:M={M}:n={n}:lam={lam}:seed={seed}",
        "d": fs.d,
        "omega_half": fs.size,
        "dist_kind": dist.kind
        if dist.uniform_variant is None
        else f"uniform-{dist.uniform_variant}",
        "M": M,
        "n": n,
        "lambda": float("nan"),
        "seed": seed,
        "runtime_ms": 0,
        "error": "",
    }
    stderr = None
    with tr.span("harness.cell"):
        try:
            base = config.problem
            spec = harness.ProblemSpec(
                base.encoding, base.target, n, seed, base.noise_kind, base.noise_sigma
            )
            data, target = problem(tr, spec, fs)
            lam_val = 1.0 / math.sqrt(n) if lam == "auto" else float(lam)
            row["lambda"] = lam_val
            gen = SeededRng(config.master_seed).stream_for(idx).generator()
            with tr.span("freqsample.sample"):
                freqs = dist.sample(gen, M)
            tr.count("freqsample.frequencies_drawn", M)
            with tr.span("regress.design"):
                fset = regress.RffFeatureSet(freqs, gen.uniform(0.0, 2.0 * np.pi, size=M))
                F = fset.design_matrix(data.X)
            with tr.span("regress.ridge"):
                model = regress.RffModel(fset, regress.linear_ridge_fit(F, data.Y, lam_val), lam_val)
            with tr.span("regress.emp_risk"):
                row["emp_risk"] = regress.empirical_risk(model, data)
            noise_var = spec.noise_sigma**2
            mc_gen = SeededRng(config.master_seed, stream=MC_STREAM).stream_for(idx).generator()
            if fs.d <= 3:
                tr.count("regress.risk_quad_points", quadrature_points(fs, model))
                with tr.span("regress.risk_quad"):
                    est = regress.true_risk_estimate(model, target, noise_var, rng=mc_gen)
            else:
                tr.count("regress.risk_mc_points", MC_POINTS)
                tr.count("regress.risk_mc_bytes", MC_POINTS * M * 8)
                with tr.span("regress.risk_mc"):
                    est = regress.true_risk_estimate(model, target, noise_var, rng=mc_gen)
                stderr = est.stderr
            row["true_risk"] = est.value
            with tr.span("regress.spectrum"):
                spectrum = regress.rff_model_spectrum(model, fs)
            with tr.span("kernelmap.l2_err"):
                row["l2_err_sq"] = kernelmap.l2_norm_sq(target - spectrum)
            with tr.span("bounds.alignment"):
                row["alignment"] = bounds.alignment(target, dist)
            pm = p_max(tr, dist)
            row["p_max"] = float("nan") if pm is None else pm.value
            if (
                config.krr_oracle
                and fs.size <= harness.KRR_SIZE_CAP
                and n <= harness.KRR_N_CAP
                and lam_val > 0
            ):
                p = pmf_vector(tr, dist)
                with tr.span("regress.krr"):
                    w = kernelmap.weights_of(p)
                    krr = regress.kernel_ridge_fit(data, base.encoding, fs, w, lam_val)
                    krr_risk = regress.true_risk_estimate(krr, target, noise_var).value
                row["krr_true_risk"] = krr_risk
                row["risk_gap"] = row["true_risk"] - krr_risk
            else:
                row["krr_true_risk"] = float("nan")
                row["risk_gap"] = float("nan")
        except Exception as exc:  # recorded in the row, as run_cell does
            for col in _NAN_COLUMNS:
                row.setdefault(col, float("nan"))
            row["error"] = f"{type(exc).__name__}: {exc}".replace("\n", " | ").replace("\r", " ")
    return row, stderr


def replay_sweep(tr, config: harness.SweepConfig, out_path: str):
    """All cells of a sweep, rows written to ``out_path`` as run_sweep does."""
    with tr.span("freqcore.build"):
        fs = build_frequency_set(config.problem.encoding)
    with tr.span("freqsample.parse"):
        dist = distribution_from_json(config.dist_doc, fs)
    with tr.span("harness.io"):
        harness.write_rows(out_path, [])
    rows, stderrs = [], []
    for cell in cells(config):
        row, stderr = replay_cell(tr, config, fs, dist, cell)
        with tr.span("harness.io"):
            harness.write_rows(out_path, [row], append=True)
        rows.append(row)
        stderrs.append(stderr)
    return rows, stderrs


def replay_verdict(tr, dist, target) -> dict:
    """The figures feasibility_report computes for an integer, materialized
    lattice whose p_max can be enumerated (all benchmark workloads)."""
    with tr.span("bounds.verdict"):
        pm = p_max(tr, dist)
        with tr.span("kernelmap.fhat"):
            fh2 = kernelmap.fhat_l2_sq(target)
        with tr.span("bounds.alignment"):
            align = bounds.alignment(target, dist)
        # required_sample_counts reads p_max a second time
        p_max(tr, dist)
        p = pmf_vector(tr, dist)
        with tr.span("kernelmap.rkhs_norm"):
            C = kernelmap.rkhs_norm(target, kernelmap.weights_of(p))
        with tr.span("bounds.sufficient"):
            suff = bounds.sufficient_sample_counts(
                pm.value / 2.0, C, VERDICT_B, VERDICT_EPS, VERDICT_DELTA
            )
    return {
        "p_max": pm.value,
        "fhat_l2_sq": fh2,
        "alignment": align,
        "C_used": C,
        "n_min": suff.n_min,
        "M_min": suff.M_min,
    }


def verdict_figures(report: bounds.FeasibilityReport) -> dict:
    """The figures of a report that replay_verdict recomputes, where set."""
    out = {"p_max": report.p_max, "C_used": report.C_used}
    if report.lower is not None:
        out["fhat_l2_sq"] = report.lower.fhat_l2_sq
        out["alignment"] = report.lower.alignment
    if report.sufficient is not None:
        out["n_min"] = report.sufficient.n_min
        out["M_min"] = report.sufficient.M_min
    return {k: v for k, v in out.items() if v is not None}
