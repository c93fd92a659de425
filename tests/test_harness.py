import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import forbid_per_key_lookups
from rffdq import freqcore, harness
from rffdq.errors import CapacityError, ConfigError
from rffdq.freqcore import build_frequency_set
from rffdq.freqsample import MpsDistribution, distribution_from_json
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


def layered_circuit_sweep_doc(qubits=4, layers=2):
    """circuit_oracle's shape at 4 qubits: per layer X encodings at scale 1/2
    alternating over two data dimensions, a Y rotation per qubit and a CNOT
    ladder; observable Z_0 + Z_{q-1}/2, the KRR oracle and a uniform sampler."""

    def word(k, ch):
        return "".join(ch if i == k else "I" for i in range(qubits))

    gates = []
    for layer in range(layers):
        for k in range(qubits):
            gates.append({"kind": "encode", "pauli": word(k, "X"), "scale": 0.5, "dim": k % 2 + 1})
        gates += [{"kind": "rot", "pauli": word(k, "Y"), "theta": layer * qubits + k} for k in range(qubits)]
        gates += [{"kind": "cnot", "c": k, "t": k + 1} for k in range(qubits - 1)]
    terms = [{"coef": 1.0, "pauli": word(0, "Z")}, {"coef": 0.5, "pauli": word(qubits - 1, "Z")}]
    circuit = {"qubits": qubits, "gates": gates, "observable": {"terms": terms}}
    theta = np.random.default_rng(2).uniform(-np.pi / 4, np.pi / 4, size=qubits * layers).tolist()
    return sweep_doc(
        problem={"target": {"kind": "circuit", "circuit": circuit, "theta": theta}, "n": 60},
        axes={"M": [8, 32], "n": [60], "lambda": ["auto"], "seeds": [0, 1]},
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


    @pytest.mark.parametrize(
        "field",
        [
            {"n": 0}, {"n": 2.5}, {"n": True}, {"n": "10"}, {"n": None},
            {"seed": 1.7}, {"seed": -1}, {"seed": True}, {"seed": "3"},
            {"noise": {"kind": "uniform", "sigma": float("nan")}},
            {"noise": {"kind": "uniform", "sigma": float("inf")}},
            {"noise": {"kind": "uniform", "sigma": 1e308}},
            {"noise": {"kind": "uniform", "sigma": 10**400}},
            {"noise": {"kind": "uniform", "sigma": -0.1}},
            {"noise": {"kind": "uniform", "sigma": "x"}},
            {"noise": {"kind": "uniform", "sigma": True}},
            {"noise": {"kind": "none", "sigma": float("nan")}},
        ],
    )
    def test_malformed_n_seed_or_sigma_is_a_config_error(self, field):
        key = next(iter(field))
        with pytest.raises(ConfigError, match=r"^noise\.sigma must" if key == "noise" else f"^{key} must"):
            ProblemSpec.from_json(problem_doc(**field))

    @pytest.mark.parametrize("key", ["noise", "target"])
    @pytest.mark.parametrize("value", [5, "none", [["kind", "none"]], None])
    def test_non_object_noise_or_target_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be an object, got {value!r}")):
            ProblemSpec.from_json(problem_doc(**{key: value}))

    def test_integral_floats_and_noise_range_limits_are_accepted(self):
        spec = ProblemSpec.from_json(problem_doc(n=12.0, seed=4.0))
        assert (spec.n, spec.seed) == (12, 4) and type(spec.n) is type(spec.seed) is int
        # 2 sqrt(3) sigma stays a finite float up to about 5.2e307
        for sigma in (0, 2, 1e307):
            spec = ProblemSpec.from_json(problem_doc(noise={"kind": "uniform", "sigma": sigma}))
            assert spec.noise_sigma == sigma and type(spec.noise_sigma) is float
        data, _ = generate_problem(
            ProblemSpec.from_json(problem_doc(noise={"kind": "uniform", "sigma": 1e307}))
        )
        assert np.all(np.isfinite(data.Y))


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

    def test_resume_refuses_rows_of_another_config(self, tmp_path):
        out = tmp_path / "r.csv"
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        lines = out.read_text().splitlines(keepends=True)
        # the same cell ids under another master seed and sampler
        other = SweepConfig.from_json(
            sweep_doc(master_seed=9, dist={"kind": "product", "per_dim": [[0.1, 0.2, 0.4, 0.2, 0.1]]})
        )
        for text in ("".join(lines), "".join(lines[:4])):
            out.write_text(text)
            with pytest.raises(ConfigError, match="another config.*dist_kind"):
                run_sweep(other, str(out))
            assert out.read_text() == text
        # runtime_ms alone may differ: the file is resumed as it stands
        first = lines[1].split(",")
        first[-2] = "12345"
        text = lines[0] + ",".join(first) + "".join(lines[2:])
        out.write_text(text)
        run_sweep(SweepConfig.from_json(sweep_doc()), str(out))
        assert out.read_text() == text

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
        # a random target is drawn per (n, seed), so its alignment is too
        calls.clear()
        random_target = problem_doc(target={"kind": "random", "support_size": 2}, n=40)
        doc = sweep_doc(problem=random_target)
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 15 and len(calls) == 5

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

    def test_one_enumeration_serves_p_max_and_the_krr_weights(self, tmp_path, count_enumerations):
        doc = sweep_doc(
            dist={"kind": "product", "per_dim": [[0.1, 0.2, 0.4, 0.2, 0.1]]},
            axes={"M": [4, 16], "n": [40], "lambda": [1e-3], "seeds": [0, 1]},
        )
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 4 and all(row["error"] == "" for row in rows)
        assert all(math.isfinite(row["krr_true_risk"]) for row in rows)
        assert count_enumerations == ["product"]
        # p(0) = 0.4 and p(1) = 0.2 + 0.2
        assert {row["p_max"] for row in rows} == {0.4}

    def test_large_mps_lattice_writes_an_exact_p_max(self, tmp_path):
        # 27^4 lattice, half of 265,721 points: enumerating its dense grid
        # (27^4 x bond 2 x 8 B, 8.5 MB) gives the exact p_max
        rng = np.random.default_rng(4)
        shapes = [(1, 27, 2), (2, 27, 2), (2, 27, 2), (2, 27, 1)]
        cores = [rng.uniform(0.1, 1.0, shape).tolist() for shape in shapes]
        term = {"omega": [1.0, 0.0, 0.0, 0.0], "re": 0.5, "im": 0.0}
        doc = sweep_doc(
            problem=problem_doc(
                encoding={"dimensions": [[[-0.5, 0.5]] * 13] * 4},
                target={"kind": "explicit", "function": {"d": 4, "terms": [term]}},
                n=20,
            ),
            dist={"kind": "mps", "cores": cores},
            axes={"M": [8], "n": [20], "lambda": [1e-3], "seeds": [0]},
        )
        config = SweepConfig.from_json(doc)
        rows = run_sweep(config, str(tmp_path / "r.csv"))
        fs = build_frequency_set(config.problem.encoding)
        want = float(np.max(MpsDistribution(fs, [np.asarray(c) for c in cores]).pmf_vector()))
        assert len(rows) == 1 and rows[0]["error"] == ""
        assert rows[0]["p_max"] == want and math.isfinite(want)

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

    def test_circuit_sweep_reads_its_circuit_once_onto_one_lattice(self, tmp_path, monkeypatch):
        import rffdq.kernelmap as kmod
        import rffdq.pqcsim as pmod

        config = SweepConfig.from_json(layered_circuit_sweep_doc())
        parses, lattices, relocations, realizing = [], [], [], []
        real_parse, real_build, real_realize = (
            pmod.circuit_from_json, freqcore.build_frequency_set, harness.realize_target
        )
        real_relocate = kmod.TrigPolynomial.from_half_arrays.__func__

        def parse(doc):
            parses.append(doc)
            return real_parse(doc)

        def build(enc):
            lattices.append(enc)
            return real_build(enc)

        def realize(*args):
            realizing.append(True)
            try:
                return real_realize(*args)
            finally:
                realizing.pop()

        def relocate(cls, *args):
            relocations.append(bool(realizing))
            return real_relocate(cls, *args)

        monkeypatch.setattr(pmod, "circuit_from_json", parse)
        for module in (freqcore, harness, pmod):
            monkeypatch.setattr(module, "build_frequency_set", build)
        monkeypatch.setattr(harness, "realize_target", realize)
        monkeypatch.setattr(kmod.TrigPolynomial, "from_half_arrays", classmethod(relocate))
        rows = run_sweep(config, str(tmp_path / "r.csv"))
        assert len(rows) == 4 and all(row["error"] == "" for row in rows)
        assert all(math.isfinite(row["krr_true_risk"]) for row in rows)
        assert parses == []  # parsed with the config, before the sweep
        assert lattices == [config.problem.encoding]
        # the cells' model spectra still place theirs; the target is not moved
        assert relocations and not any(relocations)

    def test_circuit_frequency_missing_from_the_encoding_fails_every_row(self, tmp_path):
        # the circuit's lattice is {0, +-1, +-2, +-3}; the problem's {-2..2}
        doc = sweep_doc(problem=problem_doc(target=circuit_target(), n=40, seed=0))
        doc["axes"] = {"M": [4, 16], "n": [40], "lambda": [1e-6], "seeds": [0, 1]}
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 4
        for row in rows:
            assert row["error"] == "ValueError: frequency [3.0]: 3.0 not in lattice dimension 1"
            assert math.isnan(row["true_risk"]) and math.isnan(row["alignment"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_theta_fails_before_any_cell(self, bad):
        doc = circuit_sweep_doc()
        doc["problem"]["target"]["theta"] = [bad]
        with pytest.raises(ConfigError, match=re.escape(f"target.theta[0] must be finite, got {bad}")):
            SweepConfig.from_json(doc)

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

    @pytest.mark.parametrize(
        "axis, message",
        [
            ({"lambda": "auto"}, "axis lambda must be a non-empty array, got 'auto'"),
            ({"M": "16"}, "axis M must be a non-empty array of integers >= 1, got '16'"),
            ({"n": []}, "axis n must be a non-empty array of integers >= 1, got []"),
            ({"seeds": 0}, "axis seeds must be a non-empty array of integers >= 0, got 0"),
            ({"M": [0]}, "axis M[0] must be an integer >= 1, got 0"),
            ({"n": [40, -1]}, "axis n[1] must be an integer >= 1, got -1"),
            ({"M": [16.5]}, "axis M[0] must be an integer >= 1, got 16.5"),
            ({"M": [True]}, "axis M[0] must be an integer >= 1, got True"),
            ({"n": ["40"]}, "axis n[0] must be an integer >= 1, got '40'"),
            ({"seeds": [0.5]}, "axis seeds[0] must be an integer >= 0, got 0.5"),
            ({"seeds": [False]}, "axis seeds[0] must be an integer >= 0, got False"),
            ({"seeds": [0, -3]}, "axis seeds[1] must be an integer >= 0, got -3"),
        ],
    )
    def test_malformed_axes_are_config_errors(self, axis, message):
        doc = sweep_doc(axes={**sweep_doc()["axes"], **axis})
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepConfig.from_json(doc)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"krr_oracle": "false"}, "krr_oracle must be true or false, got 'false'"),
            ({"krr_oracle": 1}, "krr_oracle must be true or false, got 1"),
            ({"krr_oracle": None}, "krr_oracle must be true or false, got None"),
            ({"master_seed": 1.7}, "master_seed must be an integer >= 0, got 1.7"),
            ({"master_seed": -1}, "master_seed must be an integer >= 0, got -1"),
            ({"master_seed": True}, "master_seed must be an integer >= 0, got True"),
            ({"master_seed": "3"}, "master_seed must be an integer >= 0, got '3'"),
            ({"master_seed": None}, "master_seed must be an integer >= 0, got None"),
        ],
    )
    def test_malformed_oracle_flag_and_master_seed_are_config_errors(self, field, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepConfig.from_json(sweep_doc(**field))

    @pytest.mark.parametrize("value", [5, [["n", 40]], None])
    def test_non_object_problem_or_config_is_a_config_error(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"problem must be an object, got {value!r}")):
            SweepConfig.from_json(sweep_doc(problem=value))
        with pytest.raises(ConfigError, match=re.escape(f"config must be an object, got {[value]!r}")):
            SweepConfig.from_json([value])

    def test_malformed_circuit_beside_an_encoding_fails_before_any_cell(self):
        target = circuit_target()
        target["circuit"]["gates"][0]["dim"] = 1.7
        doc = sweep_doc(problem=problem_doc(target=target, n=40, seed=0))
        with pytest.raises(ConfigError, match=re.escape("gate 0.dim must be an integer >= 1, got 1.7")):
            SweepConfig.from_json(doc)

    def test_oracle_flag_and_master_seed_defaults_and_integral_floats(self):
        config = SweepConfig.from_json(sweep_doc(master_seed=7.0, krr_oracle=False))
        assert config.master_seed == 7 and type(config.master_seed) is int
        assert config.krr_oracle is False
        doc = sweep_doc()
        del doc["master_seed"], doc["krr_oracle"]
        config = SweepConfig.from_json(doc)
        assert config.master_seed == 0 and config.krr_oracle is False

    def test_axes_defaults_and_integral_floats(self):
        config = SweepConfig.from_json(sweep_doc(axes={"M": [16.0], "seeds": [0, 2.0]}))
        assert config.M_axis == [16] and config.seed_axis == [0, 2]
        assert all(type(v) is int for v in config.M_axis + config.seed_axis)
        assert config.n_axis == [40] and config.lambda_axis == ["auto"]
        with pytest.raises(ConfigError, match="axes must be an object"):
            SweepConfig.from_json(sweep_doc(axes=[]))

    def test_runtime_ms_zero_by_default(self, tmp_path):
        rows = run_sweep(SweepConfig.from_json(sweep_doc()), str(tmp_path / "r.csv"))
        assert all(row["runtime_ms"] == 0 for row in rows)

    def test_timing_opt_in(self, tmp_path, monkeypatch):
        # a clock that advances 3 ms per reading: a timed cell spans one step
        ticks = itertools.count()
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.003 * next(ticks)))
        config = SweepConfig.from_json(sweep_doc())
        monkeypatch.setenv("RFFDQ_TIMING", "1")
        rows = run_sweep(config, str(tmp_path / "timed.csv"))
        assert [row["runtime_ms"] for row in rows] == [3] * len(rows)
        monkeypatch.delenv("RFFDQ_TIMING")
        rows = run_sweep(config, str(tmp_path / "untimed.csv"))
        assert [row["runtime_ms"] for row in rows] == [0] * len(rows)

    def test_lattice_beyond_its_cap_fails_before_the_file(self, tmp_path, monkeypatch):
        # a product sampler and a seed-free target would let every cell run
        # and record its error; the sweep must refuse the lattice instead
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 4)  # the lattice {-2..2} has 5 points
        doc = sweep_doc(dist={"kind": "uniform", "variant": "product"})
        out = tmp_path / "r.csv"
        with pytest.raises(CapacityError, match=r"full lattice has 5 points \(cap 4\)"):
            run_sweep(SweepConfig.from_json(doc), str(out))
        assert not out.exists()


def problem_sweep_doc(support_size=2):
    """Random noisy target over two n, two lambda (one "auto") and three
    seeds, with the KRR oracle: 2 x 2 x 2 x 3 = 24 cells, 6 problems."""
    return sweep_doc(
        problem=problem_doc(
            target={"kind": "random", "support_size": support_size},
            noise={"kind": "uniform", "sigma": 0.1},
            n=40,
        ),
        axes={"M": [4, 16], "n": [20, 40], "lambda": ["auto", 1e-3], "seeds": [0, 1, 2]},
    )


def fresh_cell_rows(config, path):
    """Each cell of the sweep run on its own, without a problem table."""
    from rffdq.harness import SweepInvariants, _cells, run_cell, write_rows

    fs = build_frequency_set(config.problem.encoding)
    inv = SweepInvariants.build(config, fs, distribution_from_json(config.dist_doc, fs))
    rows = [run_cell(config, inv, cell) for cell in _cells(config)]
    write_rows(str(path), rows)
    return rows


class TestProblemStage:
    def test_each_problem_computed_once(self, tmp_path, monkeypatch):
        import rffdq.harness as hmod

        calls = {"dataset": 0, "krr": 0, "alignment": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(hmod, "_draw_dataset", counting("dataset", hmod._draw_dataset))
        monkeypatch.setattr(hmod, "kernel_ridge_fit", counting("krr", hmod.kernel_ridge_fit))
        monkeypatch.setattr(hmod, "alignment_of", counting("alignment", hmod.alignment_of))
        rows = run_sweep(SweepConfig.from_json(problem_sweep_doc()), str(tmp_path / "r.csv"))
        assert len(rows) == 24 and all(row["error"] == "" for row in rows)
        assert all(math.isfinite(row["krr_true_risk"]) for row in rows)
        # per (n, seed): 6 datasets and alignments; per (n, lambda, seed): 12 fits
        assert calls == {"dataset": 6, "krr": 12, "alignment": 6}

    def test_one_box_per_problem_and_reach_and_no_basis(self, tmp_path, monkeypatch):
        # the sweep_lowd benchmark's shape: d = 2, reach 6, n = 500, KRR on;
        # M = 100 takes the design, M = 400 and 1600 the factored ridge
        from rffdq import fourier, regress

        formed, factored = [], []
        box, factored_ridge = fourier.FourierTable.box, regress.RffFeatureSet.factored_ridge

        def spy_box(self, reach):
            if reach not in self.boxes:
                formed.append((id(self), reach))
            return box(self, reach)

        def spy_factored(self, table, lam):
            factored.append(table)
            return factored_ridge(self, table, lam)

        def forbidden(*args, **kwargs):
            raise AssertionError("wave basis or feature matrix formed")

        monkeypatch.setattr(fourier.FourierTable, "box", spy_box)
        monkeypatch.setattr(regress.RffFeatureSet, "factored_ridge", spy_factored)
        monkeypatch.setattr(regress.RffFeatureSet, "_wave_basis", forbidden)
        monkeypatch.setattr(regress, "feature_matrix", forbidden)
        doc = sweep_doc(
            problem=problem_doc(
                encoding={"dimensions": [[[-0.5, 0.5]] * 6] * 2},
                target={"kind": "random", "support_size": 8},
                noise={"kind": "uniform", "sigma": 0.1},
            ),
            axes={"M": [100, 400, 1600], "n": [500], "lambda": ["auto"], "seeds": [3, 4]},
        )
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert all(row["error"] == "" and math.isfinite(row["krr_true_risk"]) for row in rows)
        assert len(factored) == 4 and len({id(table) for table in factored}) == 2
        assert sorted(reach for _, reach in formed) == [(6, 6), (6, 6)]
        assert {table for table, _ in formed} == {id(table) for table in factored}

    def test_design_route_sweep_forms_no_table(self, tmp_path, monkeypatch):
        # the sweep_highdim benchmark's shape: d = 6, five values per
        # dimension, a bond-4 MPS sampler, n = 800 and M = 100 and 400, so
        # that 2U >= min(n, M), and a 7813-row half beyond the KRR cap
        from rffdq import fourier, regress

        tables, routes = [], []
        factors, init = regress.RffFeatureSet.factors, fourier.FourierTable.__init__

        def spy_factors(self, n, lam):
            routes.append(factors(self, n, lam))
            return routes[-1]

        def spy_init(self, X, Y):
            tables.append(self)
            init(self, X, Y)

        monkeypatch.setattr(regress.RffFeatureSet, "factors", spy_factors)
        monkeypatch.setattr(fourier.FourierTable, "__init__", spy_init)
        gen = np.random.default_rng(6)
        bonds = [1, 4, 4, 4, 4, 4, 1]
        cores = [gen.uniform(0.1, 1.0, (a, 5, b)).tolist() for a, b in zip(bonds, bonds[1:])]
        doc = sweep_doc(
            problem=problem_doc(
                encoding={"dimensions": [[[-0.5, 0.5]] * 2] * 6},
                target={"kind": "random", "support_size": 8},
            ),
            dist={"kind": "mps", "cores": cores},
            axes={"M": [100, 400], "n": [800], "lambda": ["auto"], "seeds": [3, 4]},
        )
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(rows) == 4 and all(row["error"] == "" for row in rows)
        assert all(math.isnan(row["krr_true_risk"]) for row in rows)
        assert routes == [False] * 4 and tables == []

    def test_rows_equal_cells_run_on_their_own(self, tmp_path):
        config = SweepConfig.from_json(problem_sweep_doc())
        rows = run_sweep(config, str(tmp_path / "sweep.csv"))
        assert rows == fresh_cell_rows(config, tmp_path / "cells.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_resume_after_the_first_m(self, tmp_path):
        config = SweepConfig.from_json(problem_sweep_doc())
        out = tmp_path / "r.csv"
        run_sweep(config, str(out))
        blob = out.read_bytes()
        lines = blob.decode().splitlines(keepends=True)
        # the header and the first row, then the header and all 12 M = 4 rows:
        # the resumed cells find no problem but the first cell's
        for cut in (2, 13):
            out.write_text("".join(lines[:cut]))
            run_sweep(config, str(out))
            assert out.read_bytes() == blob

    def test_failing_target_recorded_in_every_cell_of_its_problem(self, tmp_path):
        # support sizes 1..5 on a 3-frequency lattice: some seeds draw more
        # frequencies than there are, and their problems raise in every cell
        doc = problem_sweep_doc(support_size={"name": "uniform", "low": 1, "high": 5})
        doc["axes"]["seeds"] = list(range(8))
        config = SweepConfig.from_json(doc)
        rows = run_sweep(config, str(tmp_path / "r.csv"))
        errors = {}
        for row in rows:
            errors.setdefault((row["n"], row["seed"]), set()).add(row["error"])
        assert all(len(errs) == 1 for errs in errors.values())
        failed = {key: errs.pop() for key, errs in errors.items() if "" not in errs}
        assert 0 < len(failed) < len(errors)
        assert all(
            err.startswith("ConfigError: target.support_size must be at most |half| = 3, got ") for err in failed.values()
        )
        fresh_cell_rows(config, tmp_path / "cells.csv")
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_failing_oracle_fit_is_retried(self, tmp_path, monkeypatch):
        import rffdq.harness as hmod

        doc = sweep_doc(axes={"M": [4, 16], "n": [40], "lambda": [1e-3], "seeds": [0]})
        want = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "want.csv"))
        fits = []
        real_fit = hmod.kernel_ridge_fit

        def fail_once(*args, **kwargs):
            fits.append(1)
            if len(fits) == 1:
                raise np.linalg.LinAlgError("injected")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(hmod, "kernel_ridge_fit", fail_once)
        rows = run_sweep(SweepConfig.from_json(doc), str(tmp_path / "r.csv"))
        assert len(fits) == 2
        assert rows[0]["error"] == "LinAlgError: injected"
        assert math.isnan(rows[0]["krr_true_risk"])
        assert rows[0]["true_risk"] == want[0]["true_risk"]
        assert rows[1] == want[1] and math.isfinite(rows[1]["krr_true_risk"])


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
