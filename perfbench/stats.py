"""Statistics, spans and output checks of the benchmark.

Kept free of any import of the program, so the tests of the benchmark's own
arithmetic run without it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

TAIL_BEYOND = 10

# Parseval cross-check tolerances, fixed before any measurement.  Quadrature
# on the sweep's grid is exact for the squared difference of two lattice
# polynomials, so for d <= 3 only float64 rounding separates the two sides.
PARSEVAL_RTOL_EXACT = 1e-9
# For d > 3 the risk is a Monte-Carlo mean of (g - f)^2 over N points.  Its
# standard error is std((g - f)^2)/sqrt(N) <= L sqrt((k - 1)/N) where L is the
# exact mean and k the kurtosis of g - f; sums of lattice cosines have k near
# 3, and the bound allows k <= 5, i.e. stderr <= 2 L / sqrt(N).  The check
# allows six such standard errors.
MC_KURTOSIS_STDERR_FACTOR = 2.0
MC_STDERR_MULTIPLE = 6.0


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    count: int


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile with at least ``beyond`` samples above it.

    Of n sorted samples, the k-th smallest (1-based) has n - k samples
    beyond it, so the highest qualifying one is k = n - beyond, at
    percentile 100 k / n.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    k = n - beyond
    return Tail(float(vals[k - 1]), 100.0 * k / n, n)


def parseval_tolerance(d: int, exact_l2: float, mc_points: int) -> float:
    """Allowed |(true_risk - sigma^2) - l2_err_sq / (2 pi)^d| of one cell."""
    if d <= 3:
        return PARSEVAL_RTOL_EXACT * max(1.0, abs(exact_l2))
    return MC_STDERR_MULTIPLE * mc_stderr_bound(exact_l2, mc_points)


def mc_stderr_bound(exact_l2: float, mc_points: int) -> float:
    return MC_KURTOSIS_STDERR_FACTOR * abs(exact_l2) / math.sqrt(mc_points)


def row_problems(row: dict, noise_var: float, mc_points: int) -> list[str]:
    """Reasons a sweep row is a failed operation (empty when it is fine)."""
    if row.get("error"):
        return [f"error column: {row['error']}"]
    for col in ("emp_risk", "true_risk", "l2_err_sq", "alignment", "p_max"):
        if not math.isfinite(row[col]):
            return [f"{col} is not finite"]
    exact = row["l2_err_sq"] / (2.0 * math.pi) ** row["d"]
    gap = abs((row["true_risk"] - noise_var) - exact)
    tol = parseval_tolerance(row["d"], exact, mc_points)
    if not gap <= tol:
        return [f"Parseval gap {gap:.3e} exceeds {tol:.3e}"]
    return []


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def row_differences(a: dict, b: dict) -> list[str]:
    """Columns on which two rows of the same cell disagree.  runtime_ms is a
    measurement, so two runs of one seed need not agree on it."""
    cols = sorted((a.keys() | b.keys()) - {"runtime_ms"})
    return [col for col in cols if not _same(a.get(col), b.get(col))]


# ---------------------------------------------------------------------------
# spans


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around the calls into each layer, plus counters.

    A span's parent is the span open when it started; spans of one cell or
    verdict share the id of their root span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(
            len(self.spans),
            name,
            None if parent is None else parent.id,
            len(self.spans) if parent is None else parent.root,
            self.clock(),
        )
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def count(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self, roots=None) -> dict[int, float]:
        """Self time of every span (under the given root ids): its duration
        minus the time its direct children cover."""
        covered: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] = covered.get(sp.parent, 0.0) + sp.duration
        return {
            sp.id: sp.duration - covered.get(sp.id, 0.0)
            for sp in self.spans
            if roots is None or sp.root in roots
        }

    def layer_self_time(self, roots=None) -> dict[str, float]:
        out: dict[str, float] = {}
        for sid, t in self.self_times(roots).items():
            layer = self.spans[sid].layer
            out[layer] = out.get(layer, 0.0) + t
        return out

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return sum(t for sid, t in self.self_times().items() if self.spans[sid].name == name)

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "id": sp.id,
                    "name": sp.name,
                    "parent": sp.parent,
                    "root": sp.root,
                    "start": sp.start,
                    "end": sp.end,
                }
                for sp in self.spans
            ],
            "counts": dict(self.counts),
        }
