"""Synthetic problems, experiment sweeps, and static SVG plots.

Sweeps run a Cartesian grid over (M, n, lambda, seed), fit the random-feature
model in each cell (optionally with the kernel-ridge oracle alongside), and
append one CSV row per cell, in cell order, from one thread.  Every cell owns
an rng stream derived from (master seed, cell index), so outputs are
identical across resumed runs.

What depends only on the sweep is computed once per sweep
(``SweepInvariants``): the frequency set, the distribution (which
enumerates its pmf vector once), p_max, the KRR oracle's weights, and the
realized target and its alignment when the target consumes no rng
(explicit and circuit targets; a circuit, parsed once with the config, is
extracted straight onto the frequency set).  What depends on the problem
but not on M is computed once per problem (``Problem``), by the first cell
that needs it: a random target's draw, the dataset (whose Fourier table its
fits share) and the alignment per (n, seed), and the KRR oracle's true risk
per (n, lambda, seed).  Per cell remain the feature draw and fit, the RFF
risks and the model spectrum.

The true risks and ``l2_err_sq`` are exact on every lattice: they come from
the model's spectrum (``regress.true_risk_estimate``), not from sample
points, so no column is NaN because of the lattice.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import alignment as alignment_of
from .errors import ConfigError, read, read_field, show
from .freqcore import EncodingStrategy, FrequencySet, build_frequency_set
from .freqsample import FrequencyDistribution, SeededRng, distribution_from_json
from .kernelmap import TrigPolynomial, WeightVector, coeff_sup_bound
from .regress import (
    Dataset,
    _resolve_lambda,
    empirical_risk,
    kernel_ridge_fit,
    rff_fit,
    true_risk_estimate,
)

SCHEMA_VERSION = 1

COLUMNS = [
    "experiment_id",
    "d",
    "omega_half",
    "dist_kind",
    "M",
    "n",
    "lambda",
    "seed",
    "emp_risk",
    "true_risk",
    "krr_true_risk",
    "risk_gap",
    "l2_err_sq",
    "alignment",
    "p_max",
    "runtime_ms",
    "error",
]

_INT_COLUMNS = ("d", "omega_half", "M", "n", "seed", "runtime_ms")
# a failed cell records NaN in every result column it did not reach
_RESULT_COLUMNS = (
    "emp_risk",
    "true_risk",
    "krr_true_risk",
    "risk_gap",
    "l2_err_sq",
    "alignment",
    "p_max",
)
_FLOAT_COLUMNS = ("lambda", *_RESULT_COLUMNS)

KRR_SIZE_CAP = 200
KRR_N_CAP = 500

# target kinds that consume no rng, so every cell of a sweep shares one
SEED_FREE_TARGETS = ("explicit", "circuit")


@dataclass
class ProblemSpec:
    """Controlled synthetic regression problem.

    target: {"kind": "explicit", "function": {...}} |
            {"kind": "random", "support_size": k or {"name": "uniform",
             "low": a, "high": b}} |
            {"kind": "circuit", "circuit": {...}, "theta": [...]}
    noise: bounded uniform on [-sigma sqrt(3), sigma sqrt(3)] (second moment
    sigma^2) so the almost-sure label bound holds exactly.
    circuit: a circuit target's (Circuit, Observable), parsed by from_json or on first use.
    """

    encoding: EncodingStrategy
    target: dict
    n: int
    seed: int
    noise_kind: str = "none"
    noise_sigma: float = 0.0
    circuit: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_json(cls, doc: dict) -> "ProblemSpec":
        """A problem document, its target checked as far as it can be
        without a lattice (a circuit target's theta against the circuit)."""
        doc = read(doc, "object", "problem")
        noise = read_field(doc, "noise", "object", default={})
        noise_kind = read_field(noise, "kind", "string", "noise.", choices=("none", "uniform"), default="none")
        sigma = read_field(noise, "sigma", "number", "noise.", least=0, default=0.0)
        # the noise spans 2 sqrt(3) sigma, which must stay a finite float
        if not math.isfinite(2 * math.sqrt(3) * sigma):
            raise ConfigError.at("noise.sigma", "small enough for a finite noise range", show(noise["sigma"]))
        target = read_field(doc, "target", "object")
        kind = read_field(target, "kind", "string", "target.", choices=("explicit", "random", "circuit"))
        circuit = None
        if kind == "explicit":
            TrigPolynomial.from_json(read_field(target, "function", "object", "target."))
        elif kind == "random":
            _support_size(target, None)
        else:
            from .pqcsim import circuit_from_json, encoding_of

            circuit, obs = circuit_from_json(read_field(target, "circuit", "object", "target."))
            theta = read_field(target, "theta", "number", "target.", ndim=1, default=[])
            if len(theta) != circuit.theta_count:
                raise ConfigError.at("target.theta", f"{circuit.theta_count} numbers long", str(len(theta)))
        if "encoding" in doc:
            encoding = EncodingStrategy.from_json(doc["encoding"])
        elif circuit is not None:
            # circuit targets carry their own encoding strategy
            encoding = encoding_of(circuit)
        else:
            raise ConfigError.at("encoding", "an object (the target is not a circuit)", "nothing")
        spec = cls(
            encoding=encoding,
            target=target,
            n=read_field(doc, "n", "integer", least=1),
            seed=read_field(doc, "seed", "integer", default=0),
            noise_kind=noise_kind,
            noise_sigma=sigma,
        )
        spec.circuit = None if circuit is None else (circuit, obs)
        return spec


def _support_size(target: dict, gen: np.random.Generator | None) -> int:
    """A random target's support size: ``support_size`` k (default 1),
    {"name": "fixed", "value": k} or {"name": "uniform", "low": a, "high":
    b}, drawn from ``gen``; without ``gen``, only checked."""
    spec, at = target.get("support_size", 1), "target.support_size"
    if not isinstance(spec, dict):
        return read(spec, "integer", at, least=1)
    at += "."
    if read_field(spec, "name", "string", at, choices=("uniform", "fixed")) == "fixed":
        return read_field(spec, "value", "integer", at, least=1)
    low = read_field(spec, "low", "integer", at, least=1)
    high = read_field(spec, "high", "integer", at, least=low)
    return low if gen is None else int(gen.integers(low, high + 1))


def realize_target(
    spec: ProblemSpec, fs: FrequencySet, gen: np.random.Generator | None
) -> TrigPolynomial:
    """Materialize the target polynomial (consumes rng only for 'random';
    the kinds in ``SEED_FREE_TARGETS`` accept ``gen=None``)."""
    kind = spec.target.get("kind")
    if kind == "explicit":
        return TrigPolynomial.from_json(spec.target["function"], fs)
    if kind == "random":
        k = _support_size(spec.target, gen)
        if k > fs.size:
            raise ConfigError.at("target.support_size", f"at most |half| = {fs.size}", str(k))
        rows = np.sort(gen.choice(fs.size, size=k, replace=False))
        # in row order, one uniform draw for the zero frequency (row 0) and
        # two (a, b: a cos + b sin) for every other row
        has_zero = int(rows[0] == 0)
        draws = gen.uniform(-1.0, 1.0, size=2 * k - has_zero)
        c = np.empty(k, dtype=complex)
        c.real = np.concatenate([draws[:has_zero], draws[has_zero::2] / 2.0])
        c.imag = np.concatenate([np.zeros(has_zero), -draws[has_zero + 1 :: 2] / 2.0])
        return TrigPolynomial.on_rows(fs, rows, c)
    if kind == "circuit":
        from .pqcsim import circuit_from_json, extract_trig_polynomial

        if spec.circuit is None:
            spec.circuit = circuit_from_json(spec.target["circuit"])
        return extract_trig_polynomial(*spec.circuit, spec.target.get("theta", []), fs)
    raise ConfigError(f"unknown target kind '{kind}'")


def generate_problem(spec: ProblemSpec, fs: FrequencySet | None = None):
    """Dataset with uniform inputs on [0, 2pi)^d and bounded-noise labels.

    Deterministic given the problem seed; rng order is target draw, then
    inputs, then noise.
    """
    if fs is None:
        fs = build_frequency_set(spec.encoding)
    gen = SeededRng(spec.seed).generator()
    target = realize_target(spec, fs, gen)
    return _draw_dataset(spec, fs, target, gen), target


def _draw_dataset(
    spec: ProblemSpec, fs: FrequencySet, target: TrigPolynomial, gen: np.random.Generator
) -> Dataset:
    """Inputs, then noise, from ``gen`` (after any target draw)."""
    X = gen.uniform(0.0, 2.0 * np.pi, size=(spec.n, fs.d))
    clean = target.evaluate(X)
    sigma = spec.noise_sigma if spec.noise_kind == "uniform" else 0.0
    if sigma > 0:
        width = sigma * math.sqrt(3.0)
        noise = gen.uniform(-width, width, size=spec.n)
    else:
        noise = np.zeros(spec.n)
    b_bound = coeff_sup_bound(target) + sigma * math.sqrt(3.0)
    return Dataset(X, clean + noise, b_bound)


# ---------------------------------------------------------------------------
# sweeps


def _fmt_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows(path: str, rows: list[dict], append: bool = False):
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not append:
            writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in COLUMNS])


def _typed_row(raw: dict, lenient: bool) -> dict:
    """A CSV row's strings as typed values.  Unparsable numbers raise, or
    with ``lenient`` read as 0 (integer columns) and NaN (float columns)."""
    row = dict(raw)
    for cols, cast, fallback in ((_INT_COLUMNS, int, 0), (_FLOAT_COLUMNS, float, float("nan"))):
        for col in cols:
            try:
                row[col] = cast(raw[col])
            except (TypeError, ValueError):
                if not lenient:
                    raise
                row[col] = fallback
    return row


def read_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            _typed_row(raw, lenient=True)
            for raw in csv.DictReader(fh)
            if raw.get("experiment_id") not in (None, "")
        ]


@dataclass
class SweepConfig:
    name: str
    problem: ProblemSpec
    dist_doc: dict
    M_axis: list
    n_axis: list
    lambda_axis: list
    seed_axis: list
    master_seed: int = 0
    krr_oracle: bool = False

    @classmethod
    def from_json(cls, doc: dict) -> "SweepConfig":
        doc = read(doc, "object", "config")
        if read_field(doc, "schema_version", "integer") != SCHEMA_VERSION:
            raise ConfigError.at("schema_version", str(SCHEMA_VERSION), show(doc["schema_version"]))
        # lambda entries are read per cell, which records a bad one
        axes = read_field(doc, "axes", "object", default={})
        M_axis, n_axis, seed_axis = (
            read_field(axes, name, "integers", "axis ", least=least, default=default)
            for name, least, default in (("M", 1, [100]), ("n", 1, None), ("seeds", 0, [0]))
        )
        base = dict(read_field(doc, "problem", "object"))
        base.setdefault("n", n_axis[0] if n_axis else 100)
        problem = ProblemSpec.from_json(base)
        return cls(
            name=read_field(doc, "name", "string", default="exp"),
            problem=problem,
            dist_doc=read_field(doc, "dist", "object"),
            M_axis=M_axis,
            n_axis=n_axis or [problem.n],
            lambda_axis=read_field(axes, "lambda", "array", "axis ", nonempty=True, default=["auto"]),
            seed_axis=seed_axis,
            master_seed=read_field(doc, "master_seed", "integer", default=0),
            krr_oracle=read_field(doc, "krr_oracle", "bool", default=False),
        )


def _cells(config: SweepConfig):
    idx = 0
    for M in config.M_axis:
        for n in config.n_axis:
            for lam in config.lambda_axis:
                for seed in config.seed_axis:
                    yield idx, M, n, lam, seed
                    idx += 1


def _cell_id(config: SweepConfig, M, n, lam, seed) -> str:
    return f"{config.name}:M={M}:n={n}:lam={lam}:seed={seed}"


def _timing_enabled() -> bool:
    return os.environ.get("RFFDQ_TIMING", "") == "1"


@dataclass(frozen=True)
class SweepInvariants:
    """Values every cell of a sweep shares, computed once per sweep.

    ``p_max``, the KRR weights and every alignment of the sweep read the
    distribution's one ``pmf_vector()`` where it is enumerable.  ``p_max``
    is NaN when the distribution cannot give it.  ``krr_weights`` is set
    when the KRR oracle can run on this lattice at all.  ``target`` and its
    ``alignment`` are set for the kinds in ``SEED_FREE_TARGETS``; if
    building the target failed, ``target_error`` holds the exception and
    every cell records it.
    """

    fs: FrequencySet
    dist: FrequencyDistribution
    p_max: float
    krr_weights: WeightVector | None
    target: TrigPolynomial | None
    alignment: float | None
    target_error: Exception | None

    @classmethod
    def build(
        cls, config: SweepConfig, fs: FrequencySet, dist: FrequencyDistribution
    ) -> "SweepInvariants":
        pm = dist.p_max()
        p_max = float("nan") if pm is None else pm.value
        krr = config.krr_oracle and dist.enumerable and fs.size <= KRR_SIZE_CAP
        krr_weights = dist.weights() if krr else None
        target = alignment = target_error = None
        if config.problem.target.get("kind") in SEED_FREE_TARGETS:
            try:
                target = realize_target(config.problem, fs, None)
                alignment = alignment_of(target, dist)
            except Exception as exc:  # recorded by every cell, as if built there
                target_error = exc
        return cls(fs, dist, p_max, krr_weights, target, alignment, target_error)

    def target_for(self, spec: ProblemSpec, gen: np.random.Generator) -> TrigPolynomial:
        """The sweep's target, or a fresh draw from ``gen`` for a random one."""
        if self.target_error is not None:
            raise self.target_error.with_traceback(None)
        if self.target is not None:
            return self.target
        return realize_target(spec, self.fs, gen)

    def alignment_for(self, target: TrigPolynomial) -> float:
        """The sweep's alignment, or that of a random target's draw."""
        if self.alignment is not None:
            return self.alignment
        return alignment_of(target, self.dist)


@dataclass
class Problem:
    """One (n, seed) problem of a sweep: its target and dataset (whose
    ``Dataset.table`` boxes its cells' factored fits and the KRR oracle
    share), and, once a cell has computed them, the target's alignment and
    the KRR oracle's true risk per resolved lambda.  None of
    these depends on M, so the first cell of a sweep that needs a value
    computes it and later cells reuse it.  A computation that raises stores
    nothing: the next cell of the problem repeats it and records the same
    error."""

    target: TrigPolynomial
    data: Dataset
    alignment: float | None = None
    krr_risks: dict[float, float] = field(default_factory=dict)


def _draw_problem(config: SweepConfig, inv: SweepInvariants, n: int, seed: int) -> Problem:
    base = config.problem
    spec = ProblemSpec(base.encoding, base.target, n, seed, base.noise_kind, base.noise_sigma)
    gen = SeededRng(spec.seed).generator()
    target = inv.target_for(spec, gen)
    return Problem(target, _draw_dataset(spec, inv.fs, target, gen))


def run_cell(
    config: SweepConfig, inv: SweepInvariants, cell, problems: dict | None = None
) -> dict:
    """One sweep cell's row.  ``problems`` maps (n, seed) to the sweep's
    ``Problem`` entries and gains the one this cell draws; a call without it
    draws its problem afresh."""
    idx, M, n, lam, seed = cell
    fs, dist = inv.fs, inv.dist
    problems = {} if problems is None else problems
    row: dict = {
        "experiment_id": _cell_id(config, M, n, lam, seed),
        "d": fs.d,
        "omega_half": fs.size,
        "dist_kind": dist.kind if dist.uniform_variant is None else f"uniform-{dist.uniform_variant}",
        "M": M,
        "n": n,
        "lambda": float("nan"),
        "seed": seed,
        "runtime_ms": 0,
        "error": "",
    }
    started = time.perf_counter()
    try:
        if (n, seed) not in problems:
            problems[n, seed] = _draw_problem(config, inv, n, seed)
        problem = problems[n, seed]
        target, data = problem.target, problem.data
        lam_val = _resolve_lambda(lam, n)
        row["lambda"] = lam_val
        rng = SeededRng(config.master_seed).stream_for(idx)
        model = rff_fit(data, dist, M, lam_val, rng)
        row["emp_risk"] = empirical_risk(model, data)
        noise_var = config.problem.noise_sigma**2
        # one exact mean square of target - model serves both columns, on
        # every lattice
        err = true_risk_estimate(model, target, 0.0)
        row["true_risk"] = err.value + noise_var
        row["l2_err_sq"] = (2.0 * math.pi) ** fs.d * err.value
        if problem.alignment is None:
            problem.alignment = inv.alignment_for(target)
        row["alignment"] = problem.alignment
        row["p_max"] = inv.p_max
        if inv.krr_weights is not None and n <= KRR_N_CAP and lam_val > 0:
            if lam_val not in problem.krr_risks:
                krr = kernel_ridge_fit(data, config.problem.encoding, fs, inv.krr_weights, lam_val)
                problem.krr_risks[lam_val] = true_risk_estimate(krr, target, noise_var).value
            krr_risk = problem.krr_risks[lam_val]
            row["krr_true_risk"] = krr_risk
            row["risk_gap"] = row["true_risk"] - krr_risk
        else:
            row["krr_true_risk"] = float("nan")
            row["risk_gap"] = float("nan")
    except Exception as exc:  # per-cell failures must not kill the sweep
        for col in _RESULT_COLUMNS:
            row.setdefault(col, float("nan"))
        # keep rows one physical CSV line each so prefix scans stay trivial
        msg = f"{type(exc).__name__}: {exc}".replace("\n", " | ").replace("\r", " ")
        row["error"] = msg
    if _timing_enabled():
        row["runtime_ms"] = int(round((time.perf_counter() - started) * 1000))
    return row


def _scan_prefix(out_path: str, expected_ids: list):
    """Longest valid prefix of an existing results file: parsed rows plus the
    byte offset where appending should continue.  A malformed tail (e.g. a
    row cut short by a kill) is simply not part of the prefix."""
    if not os.path.exists(out_path):
        return [], None
    with open(out_path, "rb") as fh:
        data = fh.read().decode("utf-8", errors="replace")
    lines = data.split("\n")
    if not lines or lines[0] != ",".join(COLUMNS):
        return [], None
    offset = len(lines[0].encode()) + 1
    rows = []
    for line in lines[1:]:
        if len(rows) >= len(expected_ids) or not line:
            break
        parsed = next(csv.reader([line]), None)
        if not parsed or len(parsed) != len(COLUMNS) or parsed[0] != expected_ids[len(rows)]:
            break
        try:
            rows.append(_typed_row(dict(zip(COLUMNS, parsed)), lenient=False))
        except (TypeError, ValueError):
            break
        offset += len(line.encode()) + 1
    return rows, offset


def run_sweep(config: SweepConfig, out_path: str) -> list[dict]:
    """Run the Cartesian grid, emitting rows incrementally in deterministic
    cell order (the results file is always a valid prefix of the final
    table, so an interrupted run resumes to a byte-identical file).

    Resumable: the valid prefix already on disk is kept as-is and its cells
    skipped; a malformed tail from a kill is truncated away.  Before that,
    the first kept cell is recomputed, and a file whose first row differs
    from it in any column but ``runtime_ms`` (a file written under another
    config) raises ConfigError and is left untouched.
    """
    fs = build_frequency_set(config.problem.encoding)
    # every cell reads the canonical half: a lattice beyond the cap fails
    # here, before the results file is touched
    fs.require_materialized()
    dist = distribution_from_json(config.dist_doc, fs)
    cells = list(_cells(config))
    expected_ids = [_cell_id(config, *c[1:]) for c in cells]
    kept, offset = _scan_prefix(out_path, expected_ids)
    inv = SweepInvariants.build(config, fs, dist)
    problems: dict = {}
    if kept:
        fresh = run_cell(config, inv, cells[0], problems)
        differs = [
            col
            for col in COLUMNS
            if col != "runtime_ms" and _fmt_cell(fresh.get(col)) != _fmt_cell(kept[0][col])
        ]
        if differs:
            raise ConfigError(
                f"{out_path} holds rows of another config (first row differs in "
                f"{', '.join(differs)}); write to a new file"
            )
    if offset is None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(COLUMNS)
    else:
        with open(out_path, "r+b") as fh:
            fh.truncate(offset)
    rows = list(kept)
    with open(out_path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for cell in cells[len(kept):]:
            row = run_cell(config, inv, cell, problems)
            rows.append(row)
            writer.writerow([_fmt_cell(row.get(col)) for col in COLUMNS])
            fh.flush()
    return rows


# ---------------------------------------------------------------------------
# plots

_PLOT_KINDS = ("risk_vs_M", "risk_vs_n", "alignment_scatter")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


class _Axis:
    def __init__(self, values, lo_px, hi_px, invert=False):
        finite = [v for v in values if math.isfinite(v)]
        if not finite:
            raise ConfigError("empty selection: no finite values to plot")
        lo, hi = min(finite), max(finite)
        self.log = lo > 0 and hi / max(lo, 1e-300) > 10.0
        if self.log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        self.lo, self.hi = lo - pad, hi + pad
        self.lo_px, self.hi_px = lo_px, hi_px
        self.invert = invert

    def transform(self, v: float) -> float:
        t = math.log10(v) if self.log else v
        frac = (t - self.lo) / (self.hi - self.lo)
        if self.invert:
            frac = 1.0 - frac
        return self.lo_px + frac * (self.hi_px - self.lo_px)

    def ticks(self):
        """Tick positions in data space (decades on a log axis)."""
        if self.log:
            lo_dec, hi_dec = math.ceil(self.lo), math.floor(self.hi)
            if hi_dec >= lo_dec:
                return [10.0**k for k in range(lo_dec, hi_dec + 1)]
            return [10.0**self.lo, 10.0**self.hi]
        return list(np.linspace(self.lo, self.hi, 5))


def emit_plot(rows: list[dict], kind: str, out_path: str):
    """Self-contained SVG: median curve with a min/max seed band for the
    risk-vs-axis kinds, plain markers for the scatter kind."""
    if kind not in _PLOT_KINDS:
        raise ConfigError(f"unknown plot kind '{kind}' (choose from {_PLOT_KINDS})")
    if not rows:
        raise ConfigError("empty selection: no rows to plot")
    if kind == "alignment_scatter":
        pts = [
            (r["alignment"], r["l2_err_sq"])
            for r in rows
            if math.isfinite(r.get("alignment", float("nan")))
            and math.isfinite(r.get("l2_err_sq", float("nan")))
        ]
        if not pts:
            raise ConfigError("empty selection: no finite alignment/error pairs")
        _render(out_path, "alignment", "l2_err_sq", scatter=pts, series=None)
        return
    axis_col = "M" if kind == "risk_vs_M" else "n"
    groups: dict[float, list[float]] = {}
    for r in rows:
        y = r.get("true_risk", float("nan"))
        if math.isfinite(y):
            groups.setdefault(float(r[axis_col]), []).append(float(y))
    if not groups:
        raise ConfigError("empty selection: no finite risks to plot")
    xs = sorted(groups)
    series = [
        (
            x,
            float(np.min(groups[x])),
            float(np.median(groups[x])),
            float(np.max(groups[x])),
        )
        for x in xs
    ]
    _render(out_path, axis_col, "true_risk", scatter=None, series=series)


def _render(out_path, xlabel, ylabel, scatter, series):
    width, height = 640, 440
    left, right, top, bottom = 70, 620, 20, 390
    if scatter is not None:
        xvals = [p[0] for p in scatter]
        yvals = [p[1] for p in scatter]
    else:
        xvals = [s[0] for s in series]
        yvals = [v for s in series for v in s[1:]]
    xaxis = _Axis(xvals, left, right)
    yaxis = _Axis(yvals, top, bottom, invert=True)
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    buf.write(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n')
    buf.write(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>\n'
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>\n'
    )
    for tv in xaxis.ticks():
        px = xaxis.transform(tv)
        label = _tick_label(tv)
        buf.write(
            f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" y2="{bottom + 5}" stroke="black"/>\n'
            f'<text x="{_fmt(px)}" y="{bottom + 18}" font-size="11" text-anchor="middle">{label}</text>\n'
        )
    for tv in yaxis.ticks():
        py = yaxis.transform(tv)
        buf.write(
            f'<line x1="{left - 5}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" stroke="black"/>\n'
            f'<text x="{left - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{_tick_label(tv)}</text>\n'
        )
    buf.write(
        f'<text x="{(left + right) // 2}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">{xlabel}{" (log)" if xaxis.log else ""}</text>\n'
    )
    buf.write(
        f'<text x="18" y="{(top + bottom) // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(top + bottom) // 2})">{ylabel}{" (log)" if yaxis.log else ""}</text>\n'
    )
    if scatter is not None:
        for x, y in scatter:
            buf.write(
                f'<circle cx="{_fmt(xaxis.transform(x))}" cy="{_fmt(yaxis.transform(y))}" '
                f'r="3.5" fill="steelblue" fill-opacity="0.8"/>\n'
            )
    else:
        if len(series) > 1:
            band = [(s[0], s[1]) for s in series] + [(s[0], s[3]) for s in reversed(series)]
            pts = " ".join(
                f"{_fmt(xaxis.transform(x))},{_fmt(yaxis.transform(y))}" for x, y in band
            )
            buf.write(f'<polygon points="{pts}" fill="steelblue" fill-opacity="0.18"/>\n')
            med = " ".join(
                f"{_fmt(xaxis.transform(s[0]))},{_fmt(yaxis.transform(s[2]))}" for s in series
            )
            buf.write(
                f'<polyline points="{med}" fill="none" stroke="steelblue" stroke-width="2"/>\n'
            )
        for s in series:
            buf.write(
                f'<circle cx="{_fmt(xaxis.transform(s[0]))}" cy="{_fmt(yaxis.transform(s[2]))}" '
                f'r="3.5" fill="steelblue"/>\n'
            )
    buf.write("</svg>\n")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())
