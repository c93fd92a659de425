"""Command-line interface.

Every command is deterministic given its inputs and --seed: file outputs are
byte-identical across repeated invocations.  Exit codes: 0 success, 2 for
configuration/usage errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import harness
from .errors import CapacityError, ConfigError, DegenerateDistributionError, NonIntegerFrequencyError
from .errors import read, read_field, show
from .freqcore import EncodingStrategy, FrequencySet, HamiltonianSpectrum, build_frequency_set
from .freqcore import is_integer_valued
from .freqsample import SeededRng, distribution_from_json
from .kernelmap import TrigPolynomial, WeightVector, kernel_eval, rkhs_norm
from .regress import (
    Dataset,
    _read_number_rows,
    _resolve_lambda,
    empirical_risk,
    holdout_split,
    kernel_ridge_fit,
    model_from_json,
    rff_fit,
    true_risk_estimate,
)


def _emit_json(doc, out_path):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _lattice(doc) -> FrequencySet:
    """The frequency lattice of an encoding document."""
    return build_frequency_set(EncodingStrategy.from_json(doc))


def _load_points(path: str, d: int) -> np.ndarray:
    """Finite points of a CSV file, one per line; the first line may be a
    header."""
    points = _read_number_rows(path, d)[1]
    if points.shape[0] == 0:
        raise ConfigError(f"no points found in {path}")
    return points


def _load_weights(args) -> tuple[FrequencySet, WeightVector]:
    """The lattice of --encoding, else of the encoding the weights document
    embeds, and the document's one weight per canonical frequency."""
    doc = read(_load_json(args.weights), "object", "weights document")
    if getattr(args, "encoding", None):
        fs = _lattice(_load_json(args.encoding))
    elif "encoding" in doc:
        fs = _lattice(doc["encoding"])
    else:
        raise ConfigError("no encoding given: pass --encoding or embed one in the weights file")
    return fs, WeightVector.from_json(doc, fs.size)


def _parse_lambda(text: str):
    """``--lambda``: ``auto`` or a finite number >= 0."""
    if text == "auto":
        return text
    try:
        lam = float(text)
    except ValueError:
        lam = math.nan  # rejected below, with the non-finite numbers
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"--lambda must be 'auto' or a finite number >= 0, got {text!r}")
    return lam


def _check_M(M: int) -> int:
    """``--M``: the number of random features, at least 1."""
    if M < 1:
        raise ConfigError(f"--M must be >= 1, got {M}")
    return M


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_freqset(args) -> int:
    fs = _lattice(_load_json(args.encoding))
    if args.stats or not args.dump:
        stats = {
            "d": fs.d,
            "per_dimension_sizes": [int(f.size) for f in fs.per_dimension_freqs],
            "full_size": fs.full_size,
            "half_size": fs.size,
            "is_integer": fs.is_integer,
            "materialized": fs.materialized,
        }
        _emit_json(stats, None)
    if args.dump:
        fs.require_within_cap()  # raises before the file is opened
        with open(args.dump, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index"] + [f"omega_{j+1}" for j in range(fs.d)] + ["in_half"])
            # the product enumerates the lattice in code order, and the
            # canonical half is the codes from zero_code up
            points = itertools.product(*[f.tolist() for f in fs.per_dimension_freqs])
            z = fs.zero_code
            for i, point in enumerate(points):
                writer.writerow([i] + [repr(v) for v in point] + [int(i >= z)])
    return 0


def cmd_kernel(args) -> int:
    fs, w = _load_weights(args)
    X = _load_points(args.x, fs.d)
    Xp = _load_points(args.xprime, fs.d)
    if X.shape[0] != Xp.shape[0]:
        raise ConfigError("--x and --xprime must have the same number of rows")
    _emit_json({"values": kernel_eval(X, Xp, fs, w).tolist()}, args.out)
    return 0


def cmd_rkhs_norm(args) -> int:
    fs, w = _load_weights(args)
    f = TrigPolynomial.from_json(_load_json(args.function), fs)
    _emit_json({"rkhs_norm": rkhs_norm(f, w)}, args.out)
    return 0


def cmd_sample(args) -> int:
    M = _check_M(args.M)
    fs = _lattice(_load_json(args.encoding))
    dist = distribution_from_json(_load_json(args.dist), fs)
    freqs = dist.sample(SeededRng(args.seed), M)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"omega_{j+1}" for j in range(fs.d)])
        for row in freqs:
            writer.writerow([repr(float(v)) for v in row])
    return 0


def cmd_fit(args) -> int:
    M = _check_M(args.M)
    fs = _lattice(_load_json(args.encoding))
    dist = distribution_from_json(_load_json(args.dist), fs)
    data = Dataset.from_csv(args.data)
    model = rff_fit(data, dist, M, _parse_lambda(args.lam), SeededRng(args.seed))
    _emit_json(model.to_json(), args.out)
    return 0


def cmd_oracle_krr(args) -> int:
    enc = EncodingStrategy.from_json(_load_json(args.encoding))
    fs = build_frequency_set(enc)
    # the uniform weights below have one entry per canonical frequency
    fs.require_materialized()
    if args.weights:
        w = _load_weights(args)[1]
    elif args.dist:
        w = distribution_from_json(_load_json(args.dist), fs).weights()
    else:
        w = WeightVector.uniform(fs.size)
    data = Dataset.from_csv(args.data)
    lam = _resolve_lambda(_parse_lambda(args.lam), data.n)
    model = kernel_ridge_fit(data, enc, fs, w, lam)
    _emit_json(model.to_json(), args.out)
    return 0


def _require_width(model, d: int, source: str):
    if model.d != d:
        raise ConfigError(f"the model's frequencies have width {model.d}, but the {source} has d = {d}")


def cmd_risk(args) -> int:
    model = model_from_json(_load_json(args.model))
    if args.problem:
        doc = _load_json(args.problem)
        spec = harness.ProblemSpec.from_json(doc)
        fs = build_frequency_set(spec.encoding)
        _require_width(model, fs.d, "problem")
        gen = SeededRng(spec.seed).generator()
        target = harness.realize_target(spec, fs, gen)
        est = true_risk_estimate(model, target, spec.noise_sigma**2)
        _emit_json(
            {"true_risk": est.value, "stderr": est.stderr, "method": est.method},
            args.out,
        )
    elif args.data:
        data = Dataset.from_csv(args.data)
        _require_width(model, data.d, "data")
        train, test = holdout_split(data, args.holdout_seed)
        _emit_json(
            {
                "holdout_risk": empirical_risk(model, test),
                "train_rows": train.n,
                "test_rows": test.n,
                "method": "holdout-80-20",
            },
            args.out,
        )
    else:
        raise ConfigError("risk needs --problem (known target) or --data (holdout)")
    return 0


def cmd_pqc_spectrum(args) -> int:
    # the simulator is imported by the one command that runs it
    from .pqcsim import circuit_from_json, extract_trig_polynomial

    circuit, obs = circuit_from_json(_load_json(args.circuit))
    for i, g in enumerate(circuit.gates):
        # the spectrum is read off an integer lattice
        if g.kind == "encode" and not is_integer_valued(2.0 * abs(g.scale)):
            raise ConfigError.at(f"gate {i}.scale", "a multiple of 1/2", show(g.scale))
    theta = []
    if args.theta:
        # an array, or an object holding one at "theta"; extraction names a
        # non-finite parameter and checks the count
        doc = _load_json(args.theta)
        doc = doc if isinstance(doc, dict) else {"theta": doc}
        theta = read_field(doc, "theta", "number", ndim=1, finite=False)
    poly = extract_trig_polynomial(circuit, obs, theta)
    _emit_json(poly.to_json(), args.out)
    return 0


def _function_and_dist(args):
    """--function (when given) and --dist on one lattice: --encoding's, or
    without it the least integer lattice that covers the function's
    frequencies and an explicit support."""
    dist_doc = read(_load_json(args.dist), "object", "distribution")
    if args.encoding:
        fs = _lattice(_load_json(args.encoding))
        f = TrigPolynomial.from_json(_load_json(args.function), fs) if args.function else None
    else:
        f = TrigPolynomial.from_json(_load_json(args.function)) if args.function else None
        fs = _lattice_from_points(dist_doc, f)
        if f is not None:
            f = TrigPolynomial.from_half_arrays(fs, f.freqs, f.c)
    return f, distribution_from_json(dist_doc, fs)


def _lattice_from_points(dist_doc: dict, f: TrigPolynomial | None):
    """Minimal integer lattice covering an explicit support and a function's
    terms (used when no encoding document is supplied): per dimension j, the
    lattice {-k_j..k_j} realized by k_j spectra {-1/2, +1/2}."""
    if read_field(dist_doc, "kind", "string") != "explicit":
        raise ConfigError("distribution kinds other than 'explicit' need --encoding to fix the lattice")
    allpts = read_field(dist_doc, "support", "number", ndim=2)
    if f is not None:
        if allpts.shape[1] != f.d:
            raise ConfigError.at("support", f"rows of {f.d}, as the function", f"rows of {allpts.shape[1]}")
        allpts = np.vstack([allpts, f.freqs])
    if np.max(np.abs(allpts - np.round(allpts))) > 1e-9:
        raise ConfigError("cannot infer a lattice from non-integer frequencies; pass --encoding")
    kmax = np.maximum(np.rint(np.max(np.abs(allpts), axis=0)).astype(int), 1)
    half = HamiltonianSpectrum((-0.5, 0.5))
    return build_frequency_set(EncodingStrategy(tuple((half,) * int(k) for k in kmax)))


def cmd_bounds_sufficient(args) -> int:
    report = bounds_mod.sufficient_sample_counts(args.opnorm, args.C, args.b, args.eps, args.delta)
    _emit_json(report.to_json(), args.out)
    return 0


def cmd_bounds_lower(args) -> int:
    f, dist = _function_and_dist(args)
    if f is None:
        raise ConfigError("bounds lower needs --function")
    report = bounds_mod.required_sample_counts(f, dist, args.epshat)
    _emit_json(report.to_json(), args.out)
    return 0


def cmd_bounds_feasibility(args) -> int:
    f, dist = _function_and_dist(args)
    report = bounds_mod.feasibility_report(
        dist,
        f_hat=f,
        C=args.C,
        b=args.b,
        eps=args.eps,
        delta=args.delta,
        eps_hat=args.epshat,
    )
    if args.out:
        _emit_json(report.to_json(), args.out)
    else:
        sys.stdout.write(report.render_text() + "\n")
        _emit_json(report.to_json(), None)
    return 0


def cmd_experiment_run(args) -> int:
    config = harness.SweepConfig.from_json(_load_json(args.config))
    harness.run_sweep(config, args.out)
    return 0


def cmd_experiment_plot(args) -> int:
    rows = harness.read_rows(args.infile)
    harness.emit_plot(rows, args.kind, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rffdq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("freqset", help="construct and inspect a frequency lattice")
    p.add_argument("--encoding", required=True)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dump", default=None, metavar="CSV")
    p.set_defaults(func=cmd_freqset)

    p = sub.add_parser("kernel", help="evaluate the re-weighted kernel on point pairs")
    p.add_argument("--encoding", default=None)
    p.add_argument("--weights", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--xprime", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("rkhs-norm", help="hyperplane norm of a function under a weighting")
    p.add_argument("--function", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--encoding", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rkhs_norm)

    p = sub.add_parser("sample", help="draw frequencies from a distribution")
    p.add_argument("--encoding", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="random-feature ridge fit")
    p.add_argument("--data", required=True)
    p.add_argument("--encoding", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("oracle-krr", help="kernel ridge regression oracle")
    p.add_argument("--data", required=True)
    p.add_argument("--encoding", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--dist", default=None)
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_krr)

    p = sub.add_parser("risk", help="true risk (known target) or holdout risk (file data)")
    p.add_argument("--model", required=True)
    p.add_argument("--problem", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--holdout-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("pqc-spectrum", help="extract a circuit model's spectrum")
    p.add_argument("--circuit", required=True)
    p.add_argument("--theta", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pqc_spectrum)

    pb = sub.add_parser("bounds", help="sample-count calculators")
    bsub = pb.add_subparsers(dest="bounds_command", required=True)

    p = bsub.add_parser("sufficient", help="sufficient (n, M) calculator")
    p.add_argument("--opnorm", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_sufficient)

    p = bsub.add_parser("lower", help="necessary M calculator")
    p.add_argument("--function", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--epshat", type=float, required=True)
    p.add_argument("--encoding", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_lower)

    p = bsub.add_parser("feasibility", help="combined feasibility verdict")
    p.add_argument("--dist", required=True)
    p.add_argument("--function", default=None)
    p.add_argument("--encoding", default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--epshat", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds_feasibility)

    pe = sub.add_parser("experiment", help="sweeps and plots")
    esub = pe.add_subparsers(dest="experiment_command", required=True)

    p = esub.add_parser("run", help="run a sweep config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_run)

    p = esub.add_parser("plot", help="render an SVG from a results table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        CapacityError,
        NonIntegerFrequencyError,
        DegenerateDistributionError,
        np.linalg.LinAlgError,
        FloatingPointError,
        ValueError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
