"""The benchmark's replay must keep matching the program.

``perfbench/replay.py`` calls the program's public functions the way
``run_cell`` and ``feasibility_report`` call them, and its import reads
``true_risk_estimate``'s ``mc_points`` default.  A change to the program that
breaks the replay fails here, not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import replay  # noqa: E402
import run  # noqa: E402
import studies  # noqa: E402
from stats import Tracer, row_differences  # noqa: E402

from rffdq import bounds, freqsample, harness  # noqa: E402


@pytest.mark.parametrize("name", list(studies.WORKLOADS))
def test_replay_matches_the_program(name, tmp_path):
    doc = studies.study_config(studies.WORKLOADS[name], 1, 0)
    # the first value of each axis but M, and every M: on sweep_lowd the
    # smallest M has 2U > M and takes the primal ridge, M = 400 the factored
    # ridge with M <= n, and M = 1600 the factored ridge with M > n
    axes = {axis: values[:1] for axis, values in doc["axes"].items()}
    axes["M"] = doc["axes"]["M"]
    doc["axes"] = axes
    config = harness.SweepConfig.from_json(doc)
    want = harness.run_sweep(config, str(tmp_path / "program.csv"))
    tr = Tracer()
    got, _ = replay.replay_sweep(tr, config, str(tmp_path / "replay.csv"))
    assert len(got) == len(want) == len(axes["M"])
    for got_row, want_row in zip(got, want):
        assert row_differences(got_row, want_row) == []
        assert want_row["error"] == ""

    fs, target = run.study_target(config)
    dist = freqsample.distribution_from_json(config.dist_doc, fs)
    expected = replay.verdict_figures(bounds.feasibility_report(dist, f_hat=target))
    figures = replay.replay_verdict(tr, dist, target)
    assert expected and {key: figures.get(key) for key in expected} == expected
