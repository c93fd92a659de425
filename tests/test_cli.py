import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffdq
from conftest import record_half_formations
from rffdq import freqcore
from rffdq.cli import main
from rffdq.freqsample import SeededRng
from rffdq.kernelmap import WeightVector


@pytest.fixture
def workdir(tmp_path):
    enc = {"dimensions": [[[-0.5, 0.5], [-0.5, 0.5]]]}
    (tmp_path / "enc.json").write_text(json.dumps(enc))
    (tmp_path / "w.json").write_text(json.dumps({"weights": [1.0, 1.0, 1.0]}))
    (tmp_path / "dist.json").write_text(json.dumps({"kind": "uniform"}))
    (tmp_path / "expl.json").write_text(
        json.dumps({"kind": "explicit", "support": [[1.0]], "probs": [1.0]})
    )
    (tmp_path / "f.json").write_text(
        json.dumps({"d": 1, "terms": [{"omega": [1.0], "re": 0.5, "im": 0.0}]})
    )
    (tmp_path / "c.json").write_text(
        json.dumps(
            {
                "qubits": 1,
                "gates": [{"kind": "encode", "pauli": "X", "scale": 0.5, "dim": 1}],
                "observable": {"terms": [{"coef": 1.0, "pauli": "Z"}]},
            }
        )
    )
    (tmp_path / "t.json").write_text(json.dumps({"theta": []}))
    gen = SeededRng(0).generator()
    X = gen.uniform(0, 2 * np.pi, (40, 1))
    Y = np.cos(X[:, 0])
    lines = ["x_1,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(X[:, 0], Y)]
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "x.csv").write_text("0.0\n1.0\n")
    (tmp_path / "xp.csv").write_text("0.5\n1.0\n")
    prob = {
        "encoding": enc,
        "target": {"kind": "explicit", "function": {"d": 1, "terms": [{"omega": [1.0], "re": 0.5, "im": 0.0}]}},
        "n": 30,
        "seed": 0,
        "noise": {"kind": "none"},
    }
    (tmp_path / "prob.json").write_text(json.dumps(prob))
    exp = {
        "schema_version": 1,
        "name": "cli",
        "master_seed": 2,
        "problem": prob,
        "dist": {"kind": "uniform"},
        "axes": {"M": [8, 24], "n": [30], "lambda": ["auto"], "seeds": [0, 1]},
    }
    (tmp_path / "exp.json").write_text(json.dumps(exp))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestCommands:
    def test_freqset_dump(self, workdir, capsys):
        out = workdir / "freqs.csv"
        assert run(["freqset", "--encoding", workdir / "enc.json", "--stats", "--dump", out]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["full_size"] == 5 and stats["half_size"] == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "index,omega_1,in_half"
        assert len(lines) == 6
        in_half = [ln.split(",")[2] for ln in lines[1:]]
        assert in_half == ["0", "0", "1", "1", "1"]  # {-2,-1,0,1,2}

    def test_kernel_values(self, workdir, capsys):
        assert run(
            ["kernel", "--encoding", workdir / "enc.json", "--weights", workdir / "w.json",
             "--x", workdir / "x.csv", "--xprime", workdir / "xp.csv"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        want = (1 + np.cos(0.5) + np.cos(1.0)) / 3
        assert doc["values"][0] == pytest.approx(want)
        assert doc["values"][1] == pytest.approx(1.0)

    def test_kernel_point_files(self, workdir, capsys):
        args = ["kernel", "--encoding", workdir / "enc.json", "--weights", workdir / "w.json"]
        (workdir / "xh.csv").write_text("x_1\n0.0\n\n1.0\n")
        assert run(args + ["--x", workdir / "xh.csv", "--xprime", workdir / "xp.csv"]) == 0
        with_header = json.loads(capsys.readouterr().out)
        assert run(args + ["--x", workdir / "x.csv", "--xprime", workdir / "xp.csv"]) == 0
        assert with_header == json.loads(capsys.readouterr().out)
        # a non-finite row or a header past line 1 is an error, not a skipped line
        for text, reason in [
            ("x_1\n0.1\nnan\n0.3\ninf\n", "line 3: non-finite"),
            ("0.1\n0.3\n-inf\n", "line 3: non-finite"),
            ("0.1\nx_1\n0.3\n", "line 2: not a number"),
            ("x_1\n0.1,0.2\n", "line 2: 2 columns, expected 1"),
        ]:
            (workdir / "bad.csv").write_text(text)
            assert run(args + ["--x", workdir / "bad.csv", "--xprime", workdir / "bad.csv"]) == 2
            assert reason in capsys.readouterr().err

    def test_rkhs_norm(self, workdir, capsys):
        assert run(
            ["rkhs-norm", "--function", workdir / "f.json", "--weights", workdir / "w.json",
             "--encoding", workdir / "enc.json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rkhs_norm"] == pytest.approx(np.sqrt(3))

    def test_sample_output(self, workdir):
        out = workdir / "s.csv"
        assert run(
            ["sample", "--encoding", workdir / "enc.json", "--dist", workdir / "dist.json",
             "--M", 500, "--seed", 7, "--out", out]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_1" and len(lines) == 501
        vals = {float(v) for v in lines[1:]}
        assert vals <= {0.0, 1.0, 2.0}

    def test_fit_risk_pipeline(self, workdir, capsys):
        model = workdir / "m.json"
        assert run(
            ["fit", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 64, "--lambda", "1e-6",
             "--seed", 3, "--out", model]
        ) == 0
        assert run(["risk", "--model", model, "--problem", workdir / "prob.json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "exact"
        assert doc["true_risk"] <= 1e-3

    def test_holdout_risk(self, workdir, capsys):
        model = workdir / "m.json"
        run(
            ["fit", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 32, "--lambda", "auto",
             "--seed", 3, "--out", model]
        )
        assert run(["risk", "--model", model, "--data", workdir / "d.csv"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "holdout-80-20" and doc["test_rows"] == 8

    def test_model_with_a_short_coef_is_a_config_error(self, workdir, capsys):
        model = workdir / "m.json"
        doc = {"variant": "rff", "lambda": 0.1, "frequencies": [[0.0], [1.0]],
               "phases": [0.5, 1.5], "coef": [1.0]}
        model.write_text(json.dumps(doc))
        assert run(["risk", "--model", model, "--data", workdir / "d.csv"]) == 2
        assert "coef" in capsys.readouterr().err

    def test_oracle_krr(self, workdir, capsys):
        out = workdir / "krr.json"
        assert run(
            ["oracle-krr", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--lambda", "0.01", "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        fs = freqcore.build_frequency_set(freqcore.EncodingStrategy.from_json(
            json.loads((workdir / "enc.json").read_text())))
        # the document holds the ridge hyperplane, not the training points
        assert doc["variant"] == "krr" and len(doc["v"]) == 2 * fs.size - 1
        assert not {"X", "alpha"} & set(doc)
        assert run(["risk", "--model", out, "--data", workdir / "d.csv"]) == 0

    def test_krr_model_without_its_hyperplane_is_refused(self, workdir, capsys):
        # the earlier document form: dual coefficients on the training points
        model = workdir / "krr.json"
        doc = {"variant": "krr", "lambda": 0.1, "encoding": {"dimensions": [[[-0.5, 0.5], [-0.5, 0.5]]]},
               "weights": [1.0, 1.0, 1.0], "X": [[0.1], [0.2]], "alpha": [0.5, 0.25]}
        model.write_text(json.dumps(doc))
        assert run(["risk", "--model", model, "--data", workdir / "d.csv"]) == 2
        assert "v must be an array of numbers, got nothing" in capsys.readouterr().err

    def test_auto_lambda_is_one_over_root_n_in_both_fits(self, workdir):
        common = ["--data", workdir / "d.csv", "--encoding", workdir / "enc.json"]
        assert run(["fit", *common, "--dist", workdir / "dist.json", "--M", 8,
                    "--out", workdir / "rff.json"]) == 0
        assert run(["oracle-krr", *common, "--out", workdir / "krr.json"]) == 0
        for name in ("rff.json", "krr.json"):
            assert json.loads((workdir / name).read_text())["lambda"] == 1.0 / math.sqrt(40)

    def test_pqc_spectrum(self, workdir, capsys):
        assert run(
            ["pqc-spectrum", "--circuit", workdir / "c.json", "--theta", workdir / "t.json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 1
        (term,) = doc["terms"]
        assert term["omega"] == [1.0] and term["re"] == pytest.approx(0.5, abs=1e-10)

    def test_bounds_sufficient(self, workdir, capsys):
        assert run(
            ["bounds", "sufficient", "--opnorm", 0.5, "--C", 1, "--b", 1,
             "--eps", 0.1, "--delta", 0.05]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c0"] == 252.0

    def test_bounds_lower_with_encoding(self, workdir, capsys):
        assert run(
            ["bounds", "lower", "--function", workdir / "f.json", "--dist", workdir / "dist.json",
             "--epshat", 0.1, "--encoding", workdir / "enc.json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_max"] == pytest.approx(1 / 3)

    def test_bounds_lower_explicit_no_encoding(self, workdir, capsys):
        assert run(
            ["bounds", "lower", "--function", workdir / "f.json", "--dist", workdir / "expl.json",
             "--epshat", 0.0]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["M_required_alignment"] == pytest.approx(1.0)

    def test_feasibility(self, workdir, capsys):
        assert run(
            ["bounds", "feasibility", "--dist", workdir / "expl.json",
             "--function", workdir / "f.json", "--encoding", workdir / "enc.json"]
        ) == 0
        out = capsys.readouterr().out
        assert "SUFFICIENT-BOUND-POLY" in out

    def test_experiment_run_and_plot(self, workdir):
        res = workdir / "results.csv"
        plot = workdir / "plot.svg"
        assert run(["experiment", "run", "--config", workdir / "exp.json", "--out", res]) == 0
        assert run(["experiment", "plot", "--in", res, "--kind", "risk_vs_M", "--out", plot]) == 0
        assert plot.read_text().startswith("<svg")

    def test_lazy_high_dimensional_workflow(self, workdir, tmp_path):
        # the half of a 3^16 lattice cannot be formed under the default cap;
        # a product-induced sampler never reads it and fits end to end
        enc = {"dimensions": [[[-0.5, 0.5]]] * 16}
        (workdir / "enc16.json").write_text(json.dumps(enc))
        (workdir / "dist16.json").write_text(
            json.dumps({"kind": "uniform", "variant": "product"})
        )
        gen = SeededRng(1).generator()
        X = gen.uniform(0, 2 * np.pi, (30, 16))
        Y = np.cos(X[:, 0])
        lines = ["x_" + ",x_".join(str(j + 1) for j in range(16)) + ",y"]
        lines[0] = ",".join([f"x_{j+1}" for j in range(16)] + ["y"])
        lines += [",".join([f"{float(v)!r}" for v in row] + [f"{float(y)!r}"]) for row, y in zip(X, Y)]
        (workdir / "d16.csv").write_text("\n".join(lines) + "\n")
        assert run(
            ["fit", "--data", workdir / "d16.csv", "--encoding", workdir / "enc16.json",
             "--dist", workdir / "dist16.json", "--M", 32, "--lambda", "auto",
             "--seed", 3, "--out", workdir / "m16.json"]
        ) == 0
        # enumerating the same lattice must fail loudly
        assert run(["freqset", "--encoding", workdir / "enc16.json", "--dump", workdir / "f16.csv"]) == 3
        assert not (workdir / "f16.csv").exists()


class TestNonEnumerableSampler:
    def test_no_route_enumerates_a_tensor_train_beyond_the_byte_cap(
        self, workdir, monkeypatch, count_enumerations, capsys
    ):
        # 5^4 points within LATTICE_CAP, bond 4: forming the half would peak
        # near 9 KB, beyond a 1 KiB ENUMERATE_BYTES, so no route forms it
        enc = workdir / "enc4.json"
        enc.write_text(json.dumps({"dimensions": [[[-0.5, 0.5]] * 2] * 4}))
        gen = np.random.default_rng(8)
        shapes = [(1, 5, 4), (4, 5, 4), (4, 5, 4), (4, 5, 1)]
        dist = workdir / "tt.json"
        dist.write_text(json.dumps(
            {"kind": "mps", "cores": [gen.uniform(0.1, 1.0, s).tolist() for s in shapes]}
        ))
        terms = [{"omega": [1.0, 0.0, -1.0, 2.0], "re": 0.5, "im": 0.25}]
        f = workdir / "f4.json"
        f.write_text(json.dumps({"d": 4, "terms": terms}))
        X = gen.uniform(0.0, 2.0 * np.pi, (10, 4))
        lines = ["x_1,x_2,x_3,x_4,y"] + [",".join(f"{v!r}" for v in row) + ",0.5" for row in X]
        (workdir / "d4.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(rffdq.freqsample, "ENUMERATE_BYTES", 1024)
        common = ["--function", f, "--dist", dist, "--encoding", enc]
        assert run(["bounds", "lower", *common, "--epshat", 0.01, "--out", workdir / "l.json"]) == 0
        assert run(["bounds", "feasibility", *common, "--out", workdir / "v.json"]) == 0
        lower = json.loads((workdir / "l.json").read_text())
        verdict = json.loads((workdir / "v.json").read_text())
        assert (lower["p_max"], lower["p_max_exact"]) == (verdict["p_max"], verdict["p_max_exact"])
        assert (verdict["p_max"], verdict["C_used"], verdict["sufficient"]) == (None, None, None)
        assert any(n.startswith("C not computable: enumerating") for n in verdict["notes"])
        assert lower["alignment"] == verdict["lower"]["alignment"] > 0
        args = ["oracle-krr", "--data", workdir / "d4.csv", "--encoding", enc, "--dist", dist]
        assert run(args) == 3
        assert "cap 1024" in capsys.readouterr().err
        assert count_enumerations == []


class TestExitCodes:
    def test_config_error_is_2(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert run(["freqset", "--encoding", bad]) == 2
        assert run(["freqset", "--encoding", workdir / "missing.json"]) == 2
        (workdir / "tiny.csv").write_text("x_1,y\n0.0,0.0\n")
        res = workdir / "r.csv"
        run(["experiment", "run", "--config", workdir / "exp.json", "--out", res])
        assert run(["experiment", "plot", "--in", res, "--kind", "bogus", "--out", workdir / "p.svg"]) == 2

    @pytest.mark.parametrize("axis", [{"n": []}, {"M": [0]}, {"M": "16"}, {"lambda": "auto"}])
    def test_malformed_sweep_axis_is_2(self, workdir, axis, capsys):
        exp = json.loads((workdir / "exp.json").read_text())
        exp["axes"].update(axis)
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        assert "axis" in capsys.readouterr().err and not res.exists()

    @pytest.mark.parametrize("field", [{"krr_oracle": "false"}, {"master_seed": 1.7}, {"master_seed": -1}])
    def test_malformed_oracle_flag_or_master_seed_is_2(self, workdir, field, capsys):
        exp = json.loads((workdir / "exp.json").read_text())
        exp.update(field)
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        assert next(iter(field)) in capsys.readouterr().err and not res.exists()

    @pytest.mark.parametrize(
        "field",
        [{"seed": 1.7}, {"n": 0.5}, {"noise": {"kind": "uniform", "sigma": "x"}},
         {"noise": {"kind": "uniform", "sigma": float("nan")}}],
    )
    def test_malformed_problem_is_2(self, workdir, field, capsys):
        model = workdir / "m.json"
        assert run(
            ["fit", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 8, "--out", model]
        ) == 0
        prob = json.loads((workdir / "prob.json").read_text())
        prob.update(field)
        (workdir / "bad_prob.json").write_text(json.dumps(prob))
        exp = json.loads((workdir / "exp.json").read_text())
        exp["problem"] = prob
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["risk", "--model", model, "--problem", workdir / "bad_prob.json"]) == 2
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        err = capsys.readouterr().err
        assert err.count("sigma" if "noise" in field else f"{next(iter(field))} must be") == 2
        assert not res.exists()

    @pytest.mark.parametrize("field", ["noise", "target", "problem"])
    def test_non_object_config_field_is_2(self, workdir, field, capsys):
        exp = json.loads((workdir / "exp.json").read_text())
        (exp if field == "problem" else exp["problem"])[field] = 5
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        assert f"{field} must be an object, got 5" in capsys.readouterr().err and not res.exists()

    @pytest.mark.parametrize(
        "target, path",
        [
            ({"kind": "explicit", "function": {"d": "x", "terms": []}}, "d must be an integer >= 1, got 'x'"),
            ({"kind": "x"}, "target.kind must be one of"),
            ({"kind": "random", "support_size": "x"}, "target.support_size must be an integer >= 1, got 'x'"),
        ],
        ids=["function", "kind", "support_size"],
    )
    def test_malformed_target_is_2(self, workdir, target, path, capsys):
        # checked with the problem, before the results file is touched
        assert run(
            ["fit", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 8, "--out", workdir / "m.json"]
        ) == 0
        prob = {**json.loads((workdir / "prob.json").read_text()), "target": target}
        (workdir / "bad_prob.json").write_text(json.dumps(prob))
        exp = {**json.loads((workdir / "exp.json").read_text()), "problem": prob}
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["risk", "--model", workdir / "m.json", "--problem", workdir / "bad_prob.json"]) == 2
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        assert capsys.readouterr().err.count(f"config error: {path}") == 2
        assert not res.exists()

    @pytest.mark.parametrize(
        "name, doc, path",
        [
            ("w.json", [1.0, 1.0, 1.0], "weights document must be an object"),
            ("w.json", {"weights": "x"}, "weights must be an array of numbers, got 'x'"),
            ("w.json", {"weights": [1.0]}, "weights must be 3 numbers long, one per canonical frequency, got 1"),
            ("w.json", {"weights": [1.0, -1.0, 1.0]}, "weights[1] must be >= 0, got -1.0"),
            ("w.json", {"weights": [0.0, 0.0, 0.0]}, "weights must be an array with a positive entry"),
            ("f.json", [{"omega": [1.0], "re": 0.5, "im": 0.0}], "function must be an object"),
            ("f.json", {"d": 1.7, "terms": []}, "d must be an integer >= 1, got 1.7"),
            ("f.json", {"d": 2, "terms": []}, "d must be 1, the lattice's dimension, got 2"),
            ("f.json", {"d": 1, "terms": [{"omega": [1.5], "re": 0.5, "im": 0.0}]}, "terms[0].omega must be a lattice point"),
            ("f.json", {"d": 1, "terms": [{"omega": [-1.0], "re": 0.5, "im": 0.0}]}, "terms[0].omega must be canonical"),
        ],
        ids=["weights-root", "weights-string", "weights-short", "weights-negative", "weights-zero",
             "function-root", "function-d", "function-lattice-d", "function-off-lattice", "function-not-canonical"],
    )
    def test_malformed_weights_or_function_is_2(self, workdir, name, doc, path, capsys):
        (workdir / name).write_text(json.dumps(doc))
        args = ["--function", workdir / "f.json", "--weights", workdir / "w.json", "--encoding", workdir / "enc.json"]
        assert run(["rkhs-norm", *args]) == 2
        assert f"config error: {path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gate",
        [
            5,
            {"kind": "encode", "pauli": "X", "scale": "a", "dim": 1},
            {"kind": "encode", "pauli": "X", "dim": 1.7},
            {"kind": "rot", "pauli": "Y"},
            {"kind": "fixed", "qubits": [0], "matrix": [[1, 0], [0, 1]]},
        ],
        ids=["not-an-object", "scale", "dim", "theta", "matrix"],
    )
    def test_malformed_circuit_is_2(self, workdir, gate, capsys):
        circuit = json.loads((workdir / "c.json").read_text())
        circuit["gates"].append(gate)
        (workdir / "bad_c.json").write_text(json.dumps(circuit))
        out = workdir / "spectrum.json"
        assert run(["pqc-spectrum", "--circuit", workdir / "bad_c.json", "--out", out]) == 2
        # an experiment whose problem gives an encoding beside the circuit target
        exp = json.loads((workdir / "exp.json").read_text())
        exp["problem"]["target"] = {"kind": "circuit", "circuit": circuit, "theta": []}
        (workdir / "bad_exp.json").write_text(json.dumps(exp))
        res = workdir / "r.csv"
        assert run(["experiment", "run", "--config", workdir / "bad_exp.json", "--out", res]) == 2
        assert capsys.readouterr().err.count("config error: gate 1") == 2
        assert not out.exists() and not res.exists()

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_malformed_data_file_is_2(self, workdir, cell, capsys):
        data = workdir / "bad.csv"
        data.write_text(f"x_1,y\n0.5,0.25\n{cell},0.5\n")
        assert run(
            ["fit", "--data", data, "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 8, "--out", workdir / "m.json"]
        ) == 2
        assert run(["oracle-krr", "--data", data, "--encoding", workdir / "enc.json"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_distribution_is_2(self, workdir, capsys):
        enc = workdir / "enc1.json"
        enc.write_text(json.dumps({"dimensions": [[[-0.5, 0.5]]]}))
        docs = [
            {"kind": "product", "per_dim": [[float("nan"), 0.5, 0.5]]},
            {"kind": "explicit", "support": [[0.0], [1.0]], "probs": [float("nan"), 0.5]},
            {"kind": "mps", "cores": [[[[1.0], [float("nan")], [1.0]]]]},
        ]
        for doc in docs:
            dist = workdir / "nan_dist.json"
            dist.write_text(json.dumps(doc))
            assert run(["bounds", "feasibility", "--encoding", enc, "--dist", dist]) == 2
            assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_2(self, workdir, part, bad, capsys):
        # json writes the bad value as NaN, Infinity or -Infinity
        term = {"omega": [1.0], "re": 0.5, "im": 0.25, part: bad}
        (workdir / "bad_f.json").write_text(
            json.dumps({"d": 1, "terms": [{"omega": [2.0], "re": 1.0, "im": -0.5}, term]})
        )
        common = ["--function", workdir / "bad_f.json", "--encoding", workdir / "enc.json"]
        assert run(["rkhs-norm", *common, "--weights", workdir / "w.json"]) == 2
        assert run(["bounds", "lower", *common, "--dist", workdir / "dist.json", "--epshat", 0.1]) == 2
        assert capsys.readouterr().err.count(f"terms[1].{part} must be finite") == 2

    def test_off_lattice_explicit_support_is_2(self, workdir, capsys):
        dist = workdir / "off.json"
        dist.write_text(json.dumps({"kind": "explicit", "support": [[0.5]], "probs": [1.0]}))
        common = ["--encoding", workdir / "enc.json", "--dist", dist, "--M", 8]
        assert run(["sample", *common, "--out", workdir / "s.csv"]) == 2
        assert "not in lattice dimension 1" in capsys.readouterr().err
        assert run(["fit", *common, "--data", workdir / "d.csv", "--out", workdir / "m.json"]) == 2

    @pytest.mark.parametrize("lam", ["abc", "nan", "inf", "-1"])
    def test_bad_lambda_is_2(self, workdir, lam, capsys):
        common = ["--data", workdir / "d.csv", "--encoding", workdir / "enc.json", "--lambda", lam]
        assert run(["fit", *common, "--dist", workdir / "dist.json", "--M", 8]) == 2
        assert run(["oracle-krr", *common]) == 2
        assert capsys.readouterr().err.count("--lambda must be") == 2

    @pytest.mark.parametrize("M", [0, -3])
    def test_M_below_one_is_2(self, workdir, M, capsys):
        common = ["--encoding", workdir / "enc.json", "--dist", workdir / "dist.json", "--M", M]
        assert run(["sample", *common, "--out", workdir / "s.csv"]) == 2
        assert run(["fit", *common, "--data", workdir / "d.csv", "--out", workdir / "m.json"]) == 2
        assert capsys.readouterr().err.count(f"--M must be >= 1, got {M}") == 2
        assert not (workdir / "s.csv").exists() and not (workdir / "m.json").exists()

    def test_near_integer_support_infers_its_lattice(self, workdir, capsys):
        # 2.9999999999 is the integer 3 under the 1e-9 rule, so its lattice
        # must reach 3, as the lattice of 3.0 does
        reports = []
        for top in (3.0, 2.9999999999):
            dist = workdir / "near.json"
            dist.write_text(
                json.dumps({"kind": "explicit", "support": [[0.0], [top]], "probs": [0.5, 0.5]})
            )
            args = ["bounds", "lower", "--function", workdir / "f.json", "--dist", dist]
            assert run(args + ["--epshat", 0.1]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_theta_is_2(self, workdir, bad, capsys):
        circuit = json.loads((workdir / "c.json").read_text())
        circuit["gates"].append({"kind": "rot", "pauli": "Y", "theta": 0})
        (workdir / "c1.json").write_text(json.dumps(circuit))
        (workdir / "bad_theta.json").write_text(f'{{"theta": [{bad}]}}')
        out = workdir / "spectrum.json"
        args = ["pqc-spectrum", "--circuit", workdir / "c1.json", "--theta", workdir / "bad_theta.json"]
        assert run(args + ["--out", out]) == 2
        assert "parameter theta[0] is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_model_is_2(self, workdir, capsys):
        rff = {"variant": "rff", "lambda": 0.1, "frequencies": [[0.0], [1.0]],
               "phases": [0.5, 1.5], "coef": [1.0, 2.0]}
        explicit = {"variant": "explicit", "lambda": 0.1,
                    "encoding": json.loads((workdir / "enc.json").read_text()),
                    "weights": [1.0, 1.0, 1.0], "v": [0.5, 0.25]}
        bad = [
            ({"variant": "rff", "lambda": 0.1, "frequencies": [], "phases": [], "coef": []}, "--data"),
            ({**rff, "frequencies": [[0.0], [1.0, 2.0]]}, "--data"),
            ({**rff, "phases": [0.5, 7.0]}, "--data"),
            (explicit, "--problem"),
            ({**rff, "frequencies": [[0.0, 1.0], [1.0, 0.0]]}, "--data"),
            ({**rff, "frequencies": [[0.0, 1.0], [1.0, 0.0]]}, "--problem"),
            ({**rff, "frequencies": [[math.nan], [1.0]]}, "--problem"),
            ({**rff, "frequencies": [[math.nan], [1.0]]}, "--data"),
            ({**rff, "frequencies": [[math.inf], [1.0]]}, "--problem"),
            ({**rff, "frequencies": [[0.0], [-math.inf]]}, "--data"),
            ({**rff, "phases": [math.nan, 1.5]}, "--problem"),
            ({**rff, "phases": [0.5, math.nan]}, "--data"),
            ([rff], "--data"),
            ("rff", "--problem"),
            ({**rff, "coef": "x"}, "--data"),
            ({**rff, "lambda": None}, "--data"),
            ({**explicit, "weights": [1.0]}, "--problem"),
            ({**explicit, "weights": "x"}, "--problem"),
            ({**explicit, "encoding": 5}, "--problem"),
        ]
        model = workdir / "m.json"
        for doc, source in bad:
            model.write_text(json.dumps(doc))
            target = workdir / ("d.csv" if source == "--data" else "prob.json")
            assert run(["risk", "--model", model, source, target]) == 2, doc
            assert "config error" in capsys.readouterr().err
        model.write_text(json.dumps({**rff, "frequencies": [[0.0, 1.0], [1.0, 0.0]]}))
        run(["risk", "--model", model, "--data", workdir / "d.csv"])
        assert "the model's frequencies have width 2, but the data has d = 1" in capsys.readouterr().err

    def test_numeric_error_is_3(self, workdir):
        assert run(
            ["bounds", "sufficient", "--opnorm", 0.9, "--C", 1, "--b", 1, "--eps", 0.1, "--delta", 0.05]
        ) == 3

    @pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--C", "inf"), ("--b", "nan"), ("--epshat", "nan")])
    def test_non_finite_bound_input_is_3(self, workdir, flag, value, capsys):
        if flag == "--epshat":
            w = workdir
            args = ["feasibility", "--encoding", w / "enc.json", "--dist", w / "dist.json", "--function", w / "f.json"]
        else:
            args = ["sufficient", "--opnorm", 0.25, "--C", 1, "--b", 1, "--eps", 0.1, "--delta", 0.05]
        assert run(["bounds", *args, flag, value]) == 3
        assert capsys.readouterr().out == ""

    def test_repeated_function_term_is_3(self, workdir, capsys):
        f = workdir / "f_twice.json"
        terms = [{"omega": [1.0], "re": 0.5, "im": 0.0}, {"omega": [1.0], "re": 0.3, "im": 0.0}]
        f.write_text(json.dumps({"d": 1, "terms": terms}))
        assert run(["rkhs-norm", "--function", f, "--weights", workdir / "w.json", "--encoding", workdir / "enc.json"]) == 3
        assert "duplicate coefficient for frequency (1.0,)" in capsys.readouterr().err

    def test_non_integer_rkhs_is_3(self, workdir):
        enc = workdir / "enc_ni.json"
        enc.write_text(json.dumps({"dimensions": [[[-0.3, 0.3]]]}))
        f = workdir / "f_ni.json"
        f.write_text(json.dumps({"d": 1, "terms": [{"omega": [0.6], "re": 0.5, "im": 0.0}]}))
        w = workdir / "w_ni.json"
        w.write_text(json.dumps({"weights": [1.0, 1.0]}))
        assert run(["rkhs-norm", "--function", f, "--weights", w, "--encoding", enc]) == 3


class TestLatticeCap:
    """Commands on lattices beyond ``LATTICE_CAP`` (2 here: the encoding's
    lattice {-2..2} and the circuit's {-1, 0, 1} are both beyond it)."""

    @pytest.fixture(autouse=True)
    def cap(self, workdir, monkeypatch):
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 2)
        (workdir / "prod.json").write_text(json.dumps({"kind": "uniform", "variant": "product"}))

    def test_commands_that_read_the_half_exit_3(self, workdir, capsys):
        w = workdir
        enc = ["--encoding", w / "enc.json"]
        (w / "f0.json").write_text(json.dumps({"d": 1, "terms": []}))
        assert run(["fit", "--data", w / "d.csv", *enc, "--dist", w / "prod.json", "--M", 8,
                    "--out", w / "m.json"]) == 0
        commands = [
            ["freqset", *enc, "--dump", w / "freqs.csv"],
            ["kernel", *enc, "--weights", w / "w.json", "--x", w / "x.csv", "--xprime", w / "xp.csv"],
            ["rkhs-norm", "--function", w / "f.json", "--weights", w / "w.json", *enc],
            ["oracle-krr", "--data", w / "d.csv", *enc],
            ["risk", "--model", w / "m.json", "--problem", w / "prob.json"],
            ["pqc-spectrum", "--circuit", w / "c.json", "--theta", w / "t.json"],
            ["bounds", "lower", "--function", w / "f.json", "--dist", w / "expl.json", "--epshat", 0.1],
            ["bounds", "lower", "--function", w / "f0.json", "--dist", w / "prod.json", "--epshat", 0.1, *enc],
            ["bounds", "feasibility", "--dist", w / "prod.json", "--function", w / "f.json", *enc],
            ["bounds", "feasibility", "--dist", w / "dist.json", *enc],
            ["sample", *enc, "--dist", w / "dist.json", "--M", 8, "--out", w / "s.csv"],
            ["experiment", "run", "--config", w / "exp.json", "--out", w / "r.csv"],
        ]
        for args in commands:
            assert run(args) == 3, args
            assert "(cap 2)" in capsys.readouterr().err, args
        assert not any((w / name).exists() for name in ("freqs.csv", "s.csv", "r.csv"))

    def test_oracle_krr_refuses_before_its_weights(self, workdir, monkeypatch):
        # the uniform weights have one entry per canonical frequency
        def refuse(cls, size):
            raise AssertionError(f"allocated {size} weights beyond the cap")

        monkeypatch.setattr(WeightVector, "uniform", classmethod(refuse))
        assert run(["oracle-krr", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json"]) == 3

    def test_commands_that_sample_run(self, workdir, capsys):
        w = workdir
        assert run(["freqset", "--encoding", w / "enc.json", "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["full_size"] == 5 and stats["half_size"] == 3 and not stats["materialized"]
        assert run(["sample", "--encoding", w / "enc.json", "--dist", w / "prod.json", "--M", 50,
                    "--out", w / "s.csv"]) == 0
        assert {float(v) for v in (w / "s.csv").read_text().splitlines()[1:]} <= {0.0, 1.0, 2.0}
        for dist, exact in (("prod.json", False), ("expl.json", True)):
            assert run(["bounds", "feasibility", "--dist", w / dist, "--encoding", w / "enc.json",
                        "--out", w / "rep.json"]) == 0
            report = json.loads((w / "rep.json").read_text())
            assert report["verdict"] == "INCONCLUSIVE" and report["p_max_exact"] is exact

    def test_product_fit_and_sample_form_no_half(self, workdir, monkeypatch):
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 10**7)
        formed = record_half_formations(monkeypatch)
        w = workdir
        common = ["--encoding", w / "enc.json", "--dist", w / "prod.json", "--M", 16, "--seed", 4]
        assert run(["sample", *common, "--out", w / "s.csv"]) == 0
        assert run(["fit", *common, "--data", w / "d.csv", "--out", w / "m.json"]) == 0
        assert formed == []
        assert run(["freqset", "--encoding", w / "enc.json", "--dump", w / "freqs.csv"]) == 0
        assert formed == []


    def test_explicit_fit_and_sample_form_no_half(self, workdir, monkeypatch):
        monkeypatch.setattr(freqcore, "LATTICE_CAP", 10**7)
        formed = record_half_formations(monkeypatch)
        w = workdir
        common = ["--encoding", w / "enc.json", "--dist", w / "expl.json", "--M", 16, "--seed", 4]
        assert run(["sample", *common, "--out", w / "s.csv"]) == 0
        assert run(["fit", *common, "--data", w / "d.csv", "--out", w / "m.json"]) == 0
        assert formed == []


class TestDeterminism:
    def test_file_outputs_byte_identical(self, workdir):
        casepairs = []

        def do(args, outs):
            for suffix in ("a", "b"):
                outdir = workdir / f"run_{suffix}"
                outdir.mkdir(exist_ok=True)
                mapped = [outdir / o if o in outs else o for o in args]
                assert run(mapped) == 0
            for o in outs:
                casepairs.append((workdir / "run_a" / o, workdir / "run_b" / o))

        do(["freqset", "--encoding", workdir / "enc.json", "--dump", "freqs.csv"], {"freqs.csv"})
        do(
            ["sample", "--encoding", workdir / "enc.json", "--dist", workdir / "dist.json",
             "--M", 100, "--seed", 7, "--out", "s.csv"],
            {"s.csv"},
        )
        do(
            ["fit", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--M", 32, "--lambda", "auto",
             "--seed", 3, "--out", "m.json"],
            {"m.json"},
        )
        do(
            ["experiment", "run", "--config", workdir / "exp.json", "--out", "r.csv"],
            {"r.csv"},
        )
        for a, b in casepairs:
            assert a.read_bytes() == b.read_bytes()

    def test_product_sample_writes_no_negative_zero(self, workdir):
        # a flipped row such as (-1, 0) folds to (1, 0), not (1, -0)
        enc = workdir / "enc2.json"
        enc.write_text(json.dumps({"dimensions": [[[-0.5, 0.5]], [[-0.5, 0.5]]]}))
        dist = workdir / "prod.json"
        dist.write_text(json.dumps({"kind": "uniform", "variant": "product"}))
        out = workdir / "s.csv"
        assert run(["sample", "--encoding", enc, "--dist", dist, "--M", 200, "--out", out]) == 0
        text = out.read_text()
        assert "-0.0" not in text and "0.0,1.0" in text and "1.0,0.0" in text


def test_circuit_paths_leave_numpy_ma_unloaded(tmp_path):
    # numpy's set membership on 16 or more values sorts through np.unique,
    # which imports numpy.ma (about 10 ms in a fresh process); a circuit
    # sweep and pqc-spectrum on a 17-value lattice (eight scale-1/2
    # encodings of x_1) must not
    gates = []
    for i in range(8):
        gates += [
            {"kind": "encode", "pauli": ("XI", "IX")[i % 2], "scale": 0.5, "dim": 1},
            {"kind": "rot", "pauli": ("YI", "IY")[i % 2], "theta": i},
        ]
    circuit = {"qubits": 2, "gates": gates, "observable": {"terms": [{"coef": 1.0, "pauli": "ZI"}]}}
    theta = np.linspace(-0.7, 0.7, 8).tolist()
    config = {
        "schema_version": 1,
        "problem": {"target": {"kind": "circuit", "circuit": circuit, "theta": theta}},
        "dist": {"kind": "uniform"},
        "axes": {"M": [8], "n": [40], "seeds": [0]},
        "krr_oracle": True,
    }
    (tmp_path / "c.json").write_text(json.dumps(circuit))
    (tmp_path / "t.json").write_text(json.dumps(theta))
    (tmp_path / "exp.json").write_text(json.dumps(config))
    src = str(Path(rffdq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys; from rffdq.cli import main; "
        "assert main(['experiment', 'run', '--config', 'exp.json', '--out', 'r.csv']) == 0; "
        "assert main(['pqc-spectrum', '--circuit', 'c.json', '--theta', 't.json', '--out', 'f.json']) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    rows = list(csv.DictReader((tmp_path / "r.csv").read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["error"] == "" and rows[0]["omega_half"] == "9"
    assert len(json.loads((tmp_path / "f.json").read_text())["terms"]) > 1


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.linalg costs a fresh process about 0.3 s and 27 MB;
    # the runtime needs numpy alone
    src = str(Path(rffdq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, rffdq.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
