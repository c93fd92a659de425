import json

import numpy as np
import pytest

from rffdq.cli import main
from rffdq.freqsample import SeededRng


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

    def test_oracle_krr(self, workdir, capsys):
        out = workdir / "krr.json"
        assert run(
            ["oracle-krr", "--data", workdir / "d.csv", "--encoding", workdir / "enc.json",
             "--dist", workdir / "dist.json", "--lambda", "0.01", "--out", out]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "krr" and len(doc["alpha"]) == 40

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
        # a 3^16 lattice cannot be materialized under the default cap; the
        # lazy route with a product-induced sampler still fits end to end
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
             "--seed", 3, "--lazy", "--out", workdir / "m16.json"]
        ) == 0
        # materializing the same lattice must fail loudly
        assert run(
            ["fit", "--data", workdir / "d16.csv", "--encoding", workdir / "enc16.json",
             "--dist", workdir / "dist16.json", "--M", 32, "--lambda", "auto",
             "--seed", 3, "--out", workdir / "m16b.json"]
        ) == 3


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

    def test_numeric_error_is_3(self, workdir):
        assert run(
            ["bounds", "sufficient", "--opnorm", 0.9, "--C", 1, "--b", 1, "--eps", 0.1, "--delta", 0.05]
        ) == 3

    def test_non_integer_rkhs_is_3(self, workdir):
        enc = workdir / "enc_ni.json"
        enc.write_text(json.dumps({"dimensions": [[[-0.3, 0.3]]]}))
        f = workdir / "f_ni.json"
        f.write_text(json.dumps({"d": 1, "terms": [{"omega": [0.6], "re": 0.5, "im": 0.0}]}))
        w = workdir / "w_ni.json"
        w.write_text(json.dumps({"weights": [1.0, 1.0]}))
        assert run(["rkhs-norm", "--function", f, "--weights", w, "--encoding", enc]) == 3


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
