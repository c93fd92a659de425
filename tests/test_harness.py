import math

import numpy as np
import pytest

from conftest import forbid_per_key_lookups
from rffdq.errors import ConfigError
from rffdq.harness import (
    ProblemSpec,
    SweepConfig,
    emit_plot,
    generate_problem,
    read_rows,
    run_sweep,
)

ENC_DOC = {"dimensions": [[[-0.5, 0.5], [-0.5, 0.5]]]}  # d=1 lattice {-2..2}
COS_TARGET = {
    "kind": "explicit",
    "function": {"d": 1, "terms": [{"omega": [1.0], "re": 0.5, "im": 0.0}]},
}


def circuit_target(scale=0.5):
    """Two-qubit circuit target on one data dimension; a scale of 0.3 puts it
    on a non-integer lattice."""
    return {
        "kind": "circuit",
        "circuit": {
            "qubits": 2,
            "gates": [
                {"kind": "encode", "pauli": "XI", "scale": scale, "dim": 1},
                {"kind": "rot", "pauli": "ZY", "theta": 0},
                {"kind": "cz", "c": 0, "t": 1},
                {"kind": "encode", "pauli": "IY", "scale": 1.0, "dim": 1},
                {"kind": "cnot", "c": 1, "t": 0},
            ],
            "observable": {"terms": [{"coef": 1.0, "pauli": "ZI"}, {"coef": 0.3, "pauli": "XX"}]},
        },
        "theta": [0.4],
    }


def circuit_sweep_doc(scale=0.5, **overrides):
    return sweep_doc(
        problem={"target": circuit_target(scale), "n": 40, "seed": 0},
        axes={"M": [4, 16], "n": [40], "lambda": [1e-6], "seeds": [0, 1]},
        **overrides,
    )


def problem_doc(**overrides):
    doc = {
        "encoding": ENC_DOC,
        "target": COS_TARGET,
        "n": 10,
        "seed": 3,
        "noise": {"kind": "none"},
    }
    doc.update(overrides)
    return doc


def sweep_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "t",
        "master_seed": 1,
        "problem": problem_doc(n=40, seed=0),
        "dist": {"kind": "uniform"},
        # noiseless target with tiny lambda: the kernel oracle's true risk sits
        # below 1e-6, so the per-row gap floor holds by risk nonnegativity
        "axes": {"M": [4, 16, 64], "n": [40], "lambda": [1e-6], "seeds": [0, 1, 2, 3, 4]},
        "krr_oracle": True,
    }
    doc.update(overrides)
    return doc


class TestGenerateProblem:
    def test_noiseless_labels_exact(self):
        data, target = generate_problem(ProblemSpec.from_json(problem_doc()))
        assert np.max(np.abs(data.Y - np.cos(data.X[:, 0]))) == 0.0

    def test_same_seed_identical(self):
        d1, _ = generate_problem(ProblemSpec.from_json(problem_doc()))
        d2, _ = generate_problem(ProblemSpec.from_json(problem_doc()))
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.Y, d2.Y)

    def test_noise_moment(self):
        doc = problem_doc(n=10_000, noise={"kind": "uniform", "sigma": 0.1})
        data, target = generate_problem(ProblemSpec.from_json(doc))
        resid = data.Y - target.evaluate(data.X)
        assert abs(np.var(resid) - 0.01) <= 0.25 * 0.01
        assert np.max(np.abs(resid)) <= 0.1 * math.sqrt(3) + 1e-12

    def test_label_bound_holds(self):
        doc = problem_doc(n=500, noise={"kind": "uniform", "sigma": 0.3})
        data, _ = generate_problem(ProblemSpec.from_json(doc))
        assert np.max(np.abs(data.Y)) <= data.b_bound

    def test_random_target(self):
        doc = problem_doc(target={"kind": "random", "support_size": 2}, seed=11)
        data, target = generate_problem(ProblemSpec.from_json(doc))
        assert len(target.coeffs) == 2
        doc2 = problem_doc(
            target={"kind": "random", "support_size": {"name": "uniform", "low": 1, "high": 3}},
            seed=11,
        )
        _, t2 = generate_problem(ProblemSpec.from_json(doc2))
        assert 1 <= len(t2.coeffs) <= 3

    def test_circuit_target(self):
        doc = problem_doc(
            encoding={"dimensions": [[[-0.5, 0.5]]]},
            target={
                "kind": "circuit",
                "circuit": {
                    "qubits": 1,
                    "gates": [{"kind": "encode", "pauli": "X", "scale": 0.5, "dim": 1}],
                    "observable": {"terms": [{"coef": 1.0, "pauli": "Z"}]},
                },
                "theta": [],
            },
        )
        data, target = generate_problem(ProblemSpec.from_json(doc))
        assert abs(target.coeffs[(1.0,)] - 0.5) <= 1e-10

    def test_target_off_lattice_rejected(self):
        doc = problem_doc(
            target={
                "kind": "explicit",
                "function": {"d": 1, "terms": [{"omega": [9.0], "re": 0.5, "im": 0.0}]},
            }
        )
        with pytest.raises(ValueError):
            generate_problem(ProblemSpec.from_json(doc))

    def test_bad_noise_kind(self):
        with pytest.raises(ConfigError):
            ProblemSpec.from_json(problem_doc(noise={"kind": "gaussian", "sigma": 1.0}))


class TestRunSweep:
    def test_grid_size_and_oracle_gap(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert len(rows) == 15
        for row in rows:
            assert row["error"] == ""
            assert math.isfinite(row["krr_true_risk"])
            assert row["risk_gap"] >= -1e-6
            assert row["omega_half"] == 3 and row["d"] == 1

    def test_bytes_deterministic_and_resume(self, tmp_path):
        out = tmp_path / "r.csv"
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        blob = out.read_bytes()
        out.unlink()
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert out.read_bytes() == blob
        # resume from a truncated prefix
        lines = blob.decode().splitlines(keepends=True)
        out.write_text("".join(lines[:4]))
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert out.read_bytes() == blob
        # resume after a kill mid-row: partial trailing line is discarded
        out.write_bytes(b"".join(ln.encode() for ln in lines[:5]) + lines[5].encode()[:17])
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert out.read_bytes() == blob
        # a file from some other grid is not a valid prefix and is redone
        out.write_text(lines[0] + "other:M=1:n=1:lam=1:seed=1," + lines[1].split(",", 1)[1])
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert out.read_bytes() == blob

    def test_krr_oracle_builds_no_gram_matrix(self, tmp_path, monkeypatch):
        from rffdq import kernelmap, regress

        # D = 5 features: the ridge is dual at n = 4 and primal at n = 40
        doc = sweep_doc(axes={"M": [8], "n": [4, 40], "lambda": [1e-3], "seeds": [0, 1]})
        want = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "want.csv"))
        assert all(math.isfinite(row["krr_true_risk"]) for row in want)

        def forbidden(*args, **kwargs):
            raise AssertionError("n x n Gram matrix")

        for module in (kernelmap, regress):
            monkeypatch.setattr(module, "kernel_matrix", forbidden, raising=False)
        run_sweep(SweepConfig.from_json(doc), str(tmp_path / "got.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_incremental_emission(self, tmp_path, monkeypatch):
        # the file on disk must be a valid, growing prefix while cells run
        import rffdq.harness as hmod

        out = tmp_path / "r.csv"
        seen = []
        real_run_cell = hmod.run_cell

        def spy(*args, **kwargs):
            if out.exists():
                seen.append(len(out.read_bytes()))
            return real_run_cell(*args, **kwargs)

        monkeypatch.setattr(hmod, "run_cell", spy)
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert len(seen) == 15
        assert seen == sorted(seen) and seen[0] < seen[-1]

    def test_worker_count_does_not_change_output(self, tmp_path):
        # the circuit sweep's workers share its once-extracted target
        for make_doc in (sweep_doc, circuit_sweep_doc):
            out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
            run_sweep(SweepConfig.from_json(make_doc()), str(out1), max_workers=1)
            run_sweep(SweepConfig.from_json(make_doc()), str(out4), max_workers=4)
            assert out1.read_bytes() == out4.read_bytes()

    def test_circuit_target_extracted_once_per_sweep(self, tmp_path, monkeypatch):
        import rffdq.pqcsim as pmod

        calls = []
        real_extract = pmod.extract_trig_polynomial

        def counting(*args, **kwargs):
            calls.append(1)
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(pmod, "extract_trig_polynomial", counting)
        rows = run_sweep(SweepConfig.from_json(circuit_sweep_doc()), str(tmp_path / "r.csv"))
        assert len(rows) == 4
        assert all(row["error"] == "" for row in rows)
        assert len(calls) == 1

    def test_alignment_once_per_sweep_for_seed_free_targets(self, tmp_path, monkeypatch):
        import rffdq.harness as hmod

        calls = []
        real_alignment = hmod.alignment_of

        def counting(*args, **kwargs):
            calls.append(1)
            return real_alignment(*args, **kwargs)

        monkeypatch.setattr(hmod, "alignment_of", counting)
        rows = run_sweep(SweepConfig.from_json(circuit_sweep_doc()), str(tmp_path / "c.csv"))
        assert len(rows) == 4 and len(calls) == 1
        assert len({row["alignment"] for row in rows}) == 1
        # a random target is drawn per cell, so its alignment is too
        calls.clear()
        random_target = problem_doc(target={"kind": "random", "support_size": 2}, n=40)
        doc = sweep_doc(problem=random_target)
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 15 and len(calls) == 15

    def test_no_per_key_lookups(self, tmp_path, monkeypatch):
        # a circuit target attached to the sweep's lattice in one lookup,
        # and random targets, product sampling and the KRR oracle per cell
        random_target = problem_doc(target={"kind": "random", "support_size": 3}, n=40)
        docs = [
            circuit_sweep_doc(),
            sweep_doc(
                problem=random_target,
                dist={"kind": "product", "per_dim": [[0.1, 0.2, 0.4, 0.2, 0.1]]},
                axes={"M": [4, 16], "n": [40], "lambda": [1e-3], "seeds": [0, 1]},
            ),
        ]
        want = []
        for i, doc in enumerate(docs):
            run_sweep(SweepConfig.from_json(doc), str(tmp_path / f"want{i}.csv"))
            want.append((tmp_path / f"want{i}.csv").read_bytes())
        forbid_per_key_lookups(monkeypatch)
        for i, doc in enumerate(docs):
            rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / f"got{i}.csv"))
            assert len(rows) == 4 and all(row["error"] == "" for row in rows)
            assert (tmp_path / f"got{i}.csv").read_bytes() == want[i]

    def test_circuit_target_failure_recorded_in_every_row(self, tmp_path):
        doc = circuit_sweep_doc(scale=0.3)
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 4
        for row in rows:
            assert row["error"] == (
                "NonIntegerFrequencyError: spectrum extraction requires integer frequencies"
            )
            nan_cols = ("lambda", "emp_risk", "true_risk", "krr_true_risk", "risk_gap",
                        "l2_err_sq", "alignment", "p_max")
            assert all(math.isnan(row[col]) for col in nan_cols)
        # the file agrees with the returned rows
        loaded = read_rows(str(tmp_path / "r.csv"))
        assert [r["error"] for r in loaded] == [r["error"] for r in rows]

    def test_l2_err_sq_is_exact_off_integer_lattice(self, tmp_path):
        # lattice {0, +-0.6}: the coefficient sum is not an L2 norm there, the
        # uniform-measure Gram is
        target = {
            "kind": "explicit",
            "function": {"d": 1, "terms": [{"omega": [0.6], "re": 0.5, "im": 0.0}]},
        }
        sigma = 0.1
        doc = sweep_doc(
            problem=problem_doc(
                encoding={"dimensions": [[[-0.3, 0.3]]]},
                target=target,
                n=40,
                noise={"kind": "uniform", "sigma": sigma},
            ),
            axes={"M": [4], "n": [40], "lambda": [1e-3], "seeds": [0]},
        )
        out = tmp_path / "r.csv"
        rows = run_sweep(SweepConfig.from_json(doc), str(out))
        assert len(rows) == 1 and rows[0]["error"] == ""
        row = rows[0]
        for col in ("true_risk", "krr_true_risk", "l2_err_sq", "alignment", "p_max"):
            assert math.isfinite(row[col])
        want = 2 * math.pi * (row["true_risk"] - sigma**2)
        assert row["l2_err_sq"] == pytest.approx(want, rel=1e-14)
        assert read_rows(str(out))[0]["l2_err_sq"] == row["l2_err_sq"]

    def test_cell_errors_recorded_not_fatal(self, tmp_path):
        doc = sweep_doc(axes={"M": [8], "n": [40], "lambda": [-1.0, 0.001], "seeds": [0]})
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 2
        bad = [r for r in rows if r["error"]]
        good = [r for r in rows if not r["error"]]
        assert len(bad) == 1 and len(good) == 1
        assert math.isnan(bad[0]["emp_risk"])

    def test_schema_version_enforced(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_json(sweep_doc(schema_version=2))

    def test_runtime_ms_zero_by_default(self, tmp_path):
        rows = run_sweep(SweepConfig.from_json(sweep_doc()), str(tmp_path / "r.csv"))
        assert all(row["runtime_ms"] == 0 for row in rows)

    def test_timing_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RFFDQ_TIMING", "1")
        rows = run_sweep(SweepConfig.from_json(sweep_doc()), str(tmp_path / "r.csv"))
        assert any(row["runtime_ms"] >= 0 for row in rows)


class TestPlots:
    def _rows(self, tmp_path):
        out = tmp_path / "r.csv"
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        return read_rows(str(out))

    def test_risk_vs_m_band(self, tmp_path):
        rows = self._rows(tmp_path)
        out = tmp_path / "p.svg"
        emit_plot(rows, "risk_vs_M", str(out))
        svg = out.read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "polygon" in svg

    def test_median_curve_nonincreasing_in_M(self, tmp_path):
        rows = self._rows(tmp_path)
        by_m = {}
        for r in rows:
            by_m.setdefault(r["M"], []).append(r["true_risk"])
        ms = sorted(by_m)
        medians = [np.median(by_m[m]) for m in ms]
        assert all(a >= b - 1e-9 for a, b in zip(medians, medians[1:]))

    def test_single_row_single_marker(self, tmp_path):
        rows = self._rows(tmp_path)[:1]
        out = tmp_path / "p.svg"
        emit_plot(rows, "risk_vs_M", str(out))
        svg = out.read_text()
        assert svg.count("<circle") == 1 and "polyline" not in svg

    def test_scatter(self, tmp_path):
        rows = self._rows(tmp_path)
        out = tmp_path / "p.svg"
        emit_plot(rows, "alignment_scatter", str(out))
        assert out.read_text().count("<circle") == len(rows)

    def test_risk_vs_n(self, tmp_path):
        doc = sweep_doc(axes={"M": [16], "n": [20, 40, 80], "lambda": [1e-6], "seeds": [0, 1]})
        out = tmp_path / "r.csv"
        rows = run_sweep(SweepConfig.from_json(doc), str(out))
        svg = tmp_path / "p.svg"
        emit_plot(rows, "risk_vs_n", str(svg))
        assert "polyline" in svg.read_text()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot(self._rows(tmp_path), "risk_vs_time", str(tmp_path / "p.svg"))

    def test_empty_selection(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot([], "risk_vs_M", str(tmp_path / "p.svg"))

    def test_bit_stable(self, tmp_path):
        rows = self._rows(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(rows, "risk_vs_M", str(a))
        emit_plot(rows, "risk_vs_M", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestCsvRoundtrip:
    def test_rows_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        loaded = read_rows(str(out))
        assert len(loaded) == len(rows)
        for a, b in zip(rows, loaded):
            assert a["experiment_id"] == b["experiment_id"]
            assert a["true_risk"] == b["true_risk"]  # repr round-trips exactly


class TestEncodingFromCircuit:
    def test_problem_without_encoding_uses_circuit(self):
        doc = {
            "target": {
                "kind": "circuit",
                "circuit": {
                    "qubits": 1,
                    "gates": [{"kind": "encode", "pauli": "X", "scale": 0.5, "dim": 1}],
                    "observable": {"terms": [{"coef": 1.0, "pauli": "Z"}]},
                },
                "theta": [],
            },
            "n": 5,
            "seed": 0,
        }
        spec = ProblemSpec.from_json(doc)
        assert spec.encoding.d == 1
        data, target = generate_problem(spec)
        assert abs(target.coeffs[(1.0,)] - 0.5) <= 1e-10

    def test_missing_encoding_rejected(self):
        with pytest.raises(ConfigError):
            ProblemSpec.from_json({"target": COS_TARGET, "n": 5, "seed": 0})
