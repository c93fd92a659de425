"""Tests of the benchmark's own statistics and output checks.

    python3 -m pytest perfbench/tests
"""

import math

import pytest

from stats import (
    MC_STDERR_MULTIPLE,
    Tracer,
    mc_stderr_bound,
    row_differences,
    row_problems,
    tail,
)


class TestTail:
    def test_exactly_ten_beyond(self):
        values = list(range(1, 101))
        t = tail(values[::-1])
        assert (t.value, t.percentile, t.count) == (90.0, 90.0, 100)
        assert sum(v > t.value for v in values) == 10

    def test_highest_qualifying_percentile(self):
        values = [float(v) for v in range(37)]
        t = tail(values)
        beyond = sum(v > t.value for v in values)
        assert beyond == 10
        # one rank higher would leave only nine beyond
        assert sum(v > t.value + 1 for v in values) == 9
        assert t.percentile == pytest.approx(100.0 * 27 / 37)

    def test_eleven_samples_give_the_minimum(self):
        t = tail([5.0] + [9.0] * 10)
        assert (t.value, t.count) == (5.0, 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail([1.0] * 10)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSpans:
    def trace(self):
        # cell 0..10 holds a regress span 2..5 (itself holding a kernelmap
        # span 3..4) and a freqsample span 6..9; a verdict 20..23 follows
        tr = Tracer(FakeClock([0, 2, 3, 4, 5, 6, 9, 10, 20, 23]))
        with tr.span("harness.cell"):
            with tr.span("regress.design"):
                with tr.span("kernelmap.l2_err"):
                    pass
            with tr.span("freqsample.pmax"):
                pass
        with tr.span("bounds.verdict"):
            pass
        return tr

    def test_self_time_subtracts_direct_children(self):
        tr = self.trace()
        assert tr.self_times() == {0: 4, 1: 2, 2: 1, 3: 3, 4: 3}

    def test_parents_and_roots(self):
        tr = self.trace()
        assert [sp.parent for sp in tr.spans] == [None, 0, 1, 0, None]
        assert [sp.root for sp in tr.spans] == [0, 0, 0, 0, 4]

    def test_layer_self_time_under_roots(self):
        tr = self.trace()
        assert tr.layer_self_time({0}) == {"harness": 4, "regress": 2, "kernelmap": 1, "freqsample": 3}
        assert tr.layer_self_time()["bounds"] == 3
        assert tr.self_total("regress.design") == 2

    def test_span_closes_on_error(self):
        tr = Tracer(FakeClock([0, 1]))
        with pytest.raises(RuntimeError):
            with tr.span("regress.ridge"):
                raise RuntimeError
        assert tr.spans[0].duration == 1
        assert tr._open == []

    def test_counts_accumulate(self):
        tr = Tracer()
        tr.count("freqsample.pmf_evals", 85)
        tr.count("freqsample.pmf_evals", 85)
        assert tr.counts == {"freqsample.pmf_evals": 170}


def good_row(d=2, l2_exact=2.0, noise_var=0.01):
    return {
        "experiment_id": "s:M=100:n=500:lam=auto:seed=1",
        "d": d,
        "omega_half": 85,
        "dist_kind": "uniform-explicit",
        "M": 100,
        "n": 500,
        "lambda": 1 / math.sqrt(500),
        "seed": 1,
        "emp_risk": 0.5,
        "true_risk": l2_exact + noise_var,
        "krr_true_risk": float("nan"),
        "risk_gap": float("nan"),
        "l2_err_sq": l2_exact * (2 * math.pi) ** d,
        "alignment": 0.01,
        "p_max": 1 / 85,
        "runtime_ms": 40,
        "error": "",
    }


class TestRowChecks:
    def test_good_row_passes(self):
        assert row_problems(good_row(), 0.01, 100_000) == []

    def test_corrupted_quadrature_risk_is_caught(self):
        row = good_row()
        row["true_risk"] += 1e-6
        assert row_problems(row, 0.01, 100_000)

    def test_error_column_and_nan_are_caught(self):
        row = good_row()
        row["error"] = "LinAlgError: singular"
        assert row_problems(row, 0.01, 100_000)
        row = good_row()
        row["alignment"] = float("nan")
        assert row_problems(row, 0.01, 100_000)

    def test_monte_carlo_tolerance(self):
        limit = MC_STDERR_MULTIPLE * mc_stderr_bound(2.0, 100_000)
        row = good_row(d=6)
        row["true_risk"] += 0.9 * limit
        assert row_problems(row, 0.01, 100_000) == []
        row["true_risk"] += 0.2 * limit
        assert row_problems(row, 0.01, 100_000)

    def test_row_differences(self):
        a, b = good_row(), good_row()
        b["runtime_ms"] = 99
        assert row_differences(a, b) == []
        b["emp_risk"] = math.nextafter(b["emp_risk"], 1.0)
        assert row_differences(a, b) == ["emp_risk"]
