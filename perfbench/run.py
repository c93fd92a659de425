"""Benchmark of rffdq's experiment sweeps and feasibility verdicts.

    python3 perfbench/run.py --workload sweep_lowd --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each workload runs a fixed number of seeded studies back to back, set by
--seconds (see ``studies.Workload``): one ``harness.run_sweep`` over the
study's config, then the ``bounds.feasibility_report`` verdict for the
study's realized target, called in a loop for at least VERDICT_MIN_S.  Every output is
checked.  --trace 0 prints the end-to-end metrics; --trace 1 replays the same
studies with a span around every call into a layer and prints the per-layer
metrics.  The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every check passes, 1
when one fails, 2 when the program is not found next to the benchmark.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from stats import TAIL_BEYOND, Tracer, mc_stderr_bound, row_differences, row_problems, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

# One BLAS thread: on a two-core machine two threads made sweep_lowd both
# slower and noisier.  RFFDQ_THREADS is removed so run_sweep keeps its
# single-worker default, the reference every change is compared against.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
# A study's verdict is called until the calls have taken VERDICT_MIN_S in
# all: a millisecond verdict is averaged over many calls, a seconds-long one
# runs once.  verdict_s is the mean over all of a run's calls: on a shared
# machine whose speed switches between phases seconds long, a median of
# per-study means jumps from one phase's speed to the other's.
VERDICT_MIN_S = 0.2
CIRCUIT_CHECK_POINTS = 8
CIRCUIT_CHECK_ATOL = 1e-9

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "verdict_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}

# per-layer metric -> span whose self time it sums, per study
SPAN_METRICS = {
    "freqcore.build_s": "freqcore.build",
    "freqsample.pmax_s": "freqsample.pmax",
    "freqsample.pmf_vector_s": "freqsample.pmf_vector",
    "freqsample.sample_s": "freqsample.sample",
    "kernelmap.rkhs_norm_s": "kernelmap.rkhs_norm",
    "kernelmap.l2_err_s": "kernelmap.l2_err",
    "regress.design_s": "regress.design",
    "regress.ridge_s": "regress.ridge",
    "regress.spectrum_s": "regress.spectrum",
    "regress.emp_risk_s": "regress.emp_risk",
    "bounds.alignment_s": "bounds.alignment",
    "harness.problem_s": "harness.problem",
    "harness.io_s": "harness.io",
    # these four run on some workloads only, and read 0 on the others
    "regress.risk_quad_s": "regress.risk_quad",
    "regress.risk_mc_s": "regress.risk_mc",
    "regress.krr_s": "regress.krr",
    "pqcsim.extract_s": "pqcsim.extract",
}
COUNT_METRICS = {
    "freqsample.pmf_evals": "count",
    "freqsample.frequencies_drawn": "count",
    "regress.risk_quad_points": "count",
    "regress.risk_mc_points": "count",
    "regress.risk_mc_bytes": "B",
    "pqcsim.circuit_evals": "count",
    "pqcsim.amplitude_updates": "count",
    "harness.bytes_written": "B",
}
CELL_LAYERS = ("freqsample", "kernelmap", "regress", "pqcsim", "bounds", "harness")
PER_LAYER_UNITS = {
    "freqcore.half_size": "count",
    **{name: "s" for name in SPAN_METRICS},
    **COUNT_METRICS,
    **{f"{layer}.self_share": "share" for layer in CELL_LAYERS},
    "trace.overhead_s": "s",
}


def configure_environment():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RFFDQ_THREADS", None)
    os.environ["RFFDQ_TIMING"] = "1"  # fills run_sweep's runtime_ms column
    sys.path.insert(0, str(ROOT / "src"))


def program_present() -> bool:
    return (ROOT / "src" / "rffdq" / "__init__.py").is_file()


def environment_line() -> str:
    import numpy
    import scipy
    import scipy.__config__

    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return (
        f"env: nproc={os.cpu_count()} blas_threads=1 python={platform.python_version()} "
        f"numpy={numpy.__version__} ({np_blas['name']} {np_blas['version']}) "
        f"scipy={scipy.__version__} ({sp_blas['name']} {sp_blas['version']}) "
        "RFFDQ_THREADS=unset (run_sweep: 1 worker)"
    )


@dataclass
class Study:
    k: int
    doc: dict
    config: object
    rows: list
    sweep_s: float
    verdict_s: list
    verdicts: list  # verdict string of every call
    report: object  # the first call's report
    fs: object
    dist: object
    target: object


class Outcome:
    """Operations attempted (cells and verdicts) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[tuple, str] = {}

    def fail(self, op: tuple, reason: str):
        self.failed.setdefault(op, reason)


def measure_setup(doc: dict, workdir: Path) -> list[float]:
    path = workdir / "setup-config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), str(path)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def study_target(config):
    """Frequency set and realized target of a study's first seed, the
    target of its feasibility verdict."""
    from rffdq import freqcore, harness

    fs = freqcore.build_frequency_set(config.problem.encoding)
    base = config.problem
    spec = harness.ProblemSpec(
        base.encoding, base.target, config.n_axis[0], config.seed_axis[0],
        base.noise_kind, base.noise_sigma,
    )
    return fs, harness.generate_problem(spec, fs)[1]


def study_count(workload, seconds: float, minimum: int) -> int:
    """Studies in a run of ``seconds``.  The count depends on the arguments
    only, so every run does the same work and reports the same percentiles
    however fast the machine is at the time."""
    return max(minimum, int(seconds // workload.study_s))


def run_studies(workload, seed: int, count: int, workdir: Path) -> list:
    """Closed loop: ``count`` studies back to back."""
    from rffdq import bounds, freqsample, harness
    from studies import study_config

    out = []
    for k in range(count):
        doc = study_config(workload, seed, k)
        config = harness.SweepConfig.from_json(doc)
        path = workdir / f"study-{k}.csv"
        t0 = time.perf_counter()
        rows = harness.run_sweep(config, str(path))
        sweep_s = time.perf_counter() - t0
        path.unlink()
        fs, target = study_target(config)
        first, verdicts, verdict_s = None, [], []
        while sum(verdict_s) < VERDICT_MIN_S:
            # a freshly parsed distribution each time, so nothing one call
            # leaves on the object speeds up the next
            dist = freqsample.distribution_from_json(config.dist_doc, fs)
            t0 = time.perf_counter()
            report = bounds.feasibility_report(dist, f_hat=target)
            verdict_s.append(time.perf_counter() - t0)
            verdicts.append(report.verdict)
            # only the first report is kept, so that peak memory does not
            # grow with the number of calls a fast run makes
            if first is None:
                first = report
        out.append(Study(k, doc, config, rows, sweep_s, verdict_s, verdicts, first, fs, dist, target))
    return out


def check_studies(workload, seed: int, studies: list, outcome: Outcome, workdir: Path):
    """Row, Parseval, circuit, verdict and same-seed checks of untraced runs."""
    import numpy as np
    from rffdq import harness, pqcsim
    from replay import MC_POINTS

    for st in studies:
        outcome.attempted += len(st.rows) + len(st.verdicts)
        noise_var = st.config.problem.noise_sigma**2
        for i, row in enumerate(st.rows):
            for reason in row_problems(row, noise_var, MC_POINTS):
                outcome.fail(("cell", st.k, i), f"{row['experiment_id']}: {reason}")
        for j, verdict in enumerate(st.verdicts):
            if verdict != workload.expected_verdict:
                outcome.fail(
                    ("verdict", st.k, j),
                    f"study {st.k}: verdict {verdict}, expected {workload.expected_verdict}",
                )
        target_doc = st.config.problem.target
        if target_doc.get("kind") == "circuit":
            circuit, obs = pqcsim.circuit_from_json(target_doc["circuit"])
            theta = np.asarray(target_doc["theta"], dtype=float)
            gen = np.random.default_rng([seed, workload.index, st.k, 1])
            pts = gen.uniform(0.0, 2.0 * np.pi, size=(CIRCUIT_CHECK_POINTS, st.fs.d))
            exact = np.array([pqcsim.evaluate_model(circuit, obs, theta, x) for x in pts])
            gap = float(np.max(np.abs(st.target.evaluate(pts) - exact)))
            if not gap <= CIRCUIT_CHECK_ATOL:
                for i in range(len(st.rows)):
                    outcome.fail(
                        ("cell", st.k, i),
                        f"study {st.k}: extracted polynomial is {gap:.3e} off the circuit",
                    )
    # the same seed must give the same rows: rerun the first cell of study 0
    first = dict(studies[0].doc)
    first["axes"] = {key: vals[:1] for key, vals in first["axes"].items()}
    path = workdir / "rerun.csv"
    again = harness.run_sweep(harness.SweepConfig.from_json(first), str(path))[0]
    path.unlink()
    diff = row_differences(again, studies[0].rows[0])
    if diff:
        outcome.fail(("cell", 0, 0), f"rerun of {again['experiment_id']} differs in {diff}")


def end_to_end(studies: list, setup_times: list, peak_mb: float) -> tuple[dict, list]:

    latencies = [row["runtime_ms"] for st in studies for row in st.rows]
    cells = len(latencies)
    tl = tail(latencies)
    verdict_times = [t for st in studies for t in st.verdict_s]
    values = {
        "cells_per_s": cells / sum(st.sweep_s for st in studies),
        "cell_p50_ms": median(latencies),
        "cell_tail_ms": tl.value,
        "verdict_s": sum(verdict_times) / len(verdict_times),
        "setup_s": median(setup_times),
        "peak_mem_mb": peak_mb,
    }
    notes = {
        "cells_per_s": f"{cells} cells in {len(studies)} studies",
        "cell_p50_ms": f"median of {cells} cells",
        "cell_tail_ms": f"p{tl.percentile:.1f} of {tl.count} cells, {TAIL_BEYOND} beyond it",
        "verdict_s": f"mean of {len(verdict_times)} calls in {len(studies)} studies",
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "peak_mem_mb": "max RSS of this process",
    }
    lines = [
        f"  {name:<14} {values[name]:.6g} {unit}  ({notes[name]})"
        for name, unit in END_TO_END_UNITS.items()
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, lines


def traced(studies: list, outcome: Outcome, workdir: Path):
    """Replay the studies with spans; check rows and verdict figures against
    the untraced run.  Returns the tracer and the per-layer metrics."""
    from replay import MC_POINTS, replay_sweep, replay_verdict, verdict_figures

    tr = Tracer()
    traced_wall = 0.0
    for st in studies:
        path = workdir / f"replay-{st.k}.csv"
        t0 = time.perf_counter()
        rows, stderrs = replay_sweep(tr, st.config, str(path))
        figures = replay_verdict(tr, st.dist, st.target)
        traced_wall += time.perf_counter() - t0
        tr.count("harness.bytes_written", path.stat().st_size)
        path.unlink()
        if len(rows) != len(st.rows):
            for i in range(len(st.rows)):
                outcome.fail(("cell", st.k, i), f"replay of study {st.k} has {len(rows)} rows")
        for i, (mine, theirs) in enumerate(zip(rows, st.rows)):
            diff = row_differences(mine, theirs)
            if diff:
                outcome.fail(("cell", st.k, i), f"replayed {mine['experiment_id']} differs in {diff}")
            if stderrs[i] is not None:
                exact = mine["l2_err_sq"] / (2.0 * math.pi) ** mine["d"]
                if stderrs[i] > mc_stderr_bound(exact, MC_POINTS):
                    outcome.fail(
                        ("cell", st.k, i),
                        f"{mine['experiment_id']}: MC stderr {stderrs[i]:.3e} exceeds the "
                        "bound the Parseval tolerance assumes",
                    )
        expected = verdict_figures(st.report)
        wrong = [key for key, val in expected.items() if figures.get(key) != val]
        if wrong:
            outcome.fail(("verdict", st.k, 0), f"study {st.k}: replayed verdict differs in {wrong}")

    per = 1.0 / len(studies)
    values = {"freqcore.half_size": float(studies[0].fs.size)}
    for name, span in SPAN_METRICS.items():
        values[name] = tr.self_total(span) * per
    for name in COUNT_METRICS:
        values[name] = tr.counts.get(name, 0) * per
    cell_roots = {sp.id for sp in tr.spans if sp.name == "harness.cell"}
    cell_time = sum(tr.spans[i].duration for i in cell_roots)
    layer_time = tr.layer_self_time(cell_roots)
    for layer in CELL_LAYERS:
        values[f"{layer}.self_share"] = layer_time.get(layer, 0.0) / cell_time
    untraced_wall = sum(st.sweep_s + st.verdict_s[0] for st in studies)
    values["trace.overhead_s"] = (traced_wall - untraced_wall) * per

    lines = [f"  {name:<30} {values[name]:.6g} {unit}" for name, unit in PER_LAYER_UNITS.items()]
    lines.append(
        f"  per study, over {len(studies)} studies; traced {traced_wall:.3f} s "
        f"against untraced {untraced_wall:.3f} s"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return tr, metrics, lines


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from studies import WORKLOADS, study_config

    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        print(environment_line())
        outcome = Outcome()
        if trace:
            studies = run_studies(workload, seed, study_count(workload, seconds / 2.0, 1), workdir)
        else:
            setup_times = measure_setup(study_config(workload, seed, 0), workdir)
            count = study_count(workload, seconds, workload.min_studies)
            studies = run_studies(workload, seed, count, workdir)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_studies(workload, seed, studies, outcome, workdir)
        cells = sum(len(st.rows) for st in studies)
        verdicts = sum(len(st.verdicts) for st in studies)
        print(
            f"workload {name} seed {seed}: {len(studies)} studies, {cells} cells, "
            f"{verdicts} verdicts (closed loop, one process, run_sweep with 1 worker)"
        )
        if trace:
            tr, metrics, lines = traced(studies, outcome, workdir)
            trace_path = WORK_DIR / f"trace-{name}-seed{seed}.json"
            trace_path.write_text(json.dumps(tr.to_json()), encoding="utf-8")
            lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, lines = end_to_end(studies, setup_times, peak_mb)
        failed = len(outcome.failed)
        lines.append(
            f"  {'failed_frac':<14} {failed / outcome.attempted:.6g} share  "
            f"({failed} of {outcome.attempted} operations)"
        )
        print("\n".join(lines))
        for reason in outcome.failed.values():
            print(f"FAILED: {reason}", file=sys.stderr)
        result = {
            "correct": failed == 0,
            "attempted": outcome.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(names, args) -> int:
    """Each workload in a fresh process, since max RSS is per process."""
    status = 0
    summary = []
    for name in names:
        proc = subprocess.run(
            [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            summary.append((name, json.loads(lines[-1])))
    print("summary:")
    for name, result in summary:
        print(f"  {name}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"    {metric:<30} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    configure_environment()
    if not program_present():
        print(f"rffdq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from studies import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
