"""Seeded study documents for the benchmark workloads.

A study is one sweep config document (the input of ``rffdq experiment run``)
together with the feasibility verdict its realized target must receive.
Everything random in a document (seed axes, master seed, MPS cores, circuit
angles) is drawn from the workload seed and the study's index, so the same
seed always yields the same documents and the program sees only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HALF_PAULI = [-0.5, 0.5]

CIRCUIT_QUBITS = 10
CIRCUIT_LAYERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    make_config: Callable[[np.random.Generator, str], dict]
    expected_verdict: str
    # seconds of a run's budget one study is charged: a run of --seconds
    # does seconds // study_s studies
    study_s: float
    # whole studies a measured run always completes, so that every run has
    # more than ten cells for the tail percentile
    min_studies: int


def _encoding(gates_per_dim: int, d: int) -> dict:
    return {"dimensions": [[HALF_PAULI] * gates_per_dim for _ in range(d)]}


def _seeds(gen: np.random.Generator, count: int) -> list[int]:
    return [int(v) for v in gen.integers(0, 2**31, size=count)]


def _lowd(gen: np.random.Generator, name: str) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "master_seed": _seeds(gen, 1)[0],
        "krr_oracle": True,
        "problem": {
            "encoding": _encoding(6, 2),
            "target": {"kind": "random", "support_size": 8},
            "noise": {"kind": "uniform", "sigma": 0.1},
        },
        "dist": {"kind": "uniform"},
        "axes": {"M": [100, 400, 1600], "n": [500], "lambda": ["auto"], "seeds": _seeds(gen, 2)},
    }


def mps_cores(gen: np.random.Generator, d: int, phys: int, bond: int) -> list:
    """Strictly positive tensor-train cores (so every frequency has mass)."""
    shapes = [(1 if j == 0 else bond, phys, 1 if j == d - 1 else bond) for j in range(d)]
    return [gen.uniform(0.1, 1.0, size=s).tolist() for s in shapes]


def _highdim(gen: np.random.Generator, name: str) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "master_seed": _seeds(gen, 1)[0],
        "krr_oracle": True,
        "problem": {
            "encoding": _encoding(2, 6),
            "target": {"kind": "random", "support_size": 8},
        },
        "dist": {"kind": "mps", "cores": mps_cores(gen, d=6, phys=5, bond=4)},
        # one seed: a study's verdict costs more than its M=100 cell, and a
        # run's seven verdicts and fourteen cells are spread over all of it
        "axes": {"M": [100, 400], "n": [800], "lambda": ["auto"], "seeds": _seeds(gen, 1)},
    }


def circuit_doc(qubits: int = CIRCUIT_QUBITS, layers: int = CIRCUIT_LAYERS) -> dict:
    """Layered circuit: X-encodings at scale 1/2 alternating over two data
    dimensions, one Y rotation per qubit, then a CNOT ladder; observable
    Z_0 + Z_{q-1}/2."""

    def word(q: int, ch: str) -> str:
        return "".join(ch if k == q else "I" for k in range(qubits))

    gates = []
    for layer in range(layers):
        gates += [
            {"kind": "encode", "pauli": word(q, "X"), "scale": 0.5, "dim": q % 2 + 1}
            for q in range(qubits)
        ]
        gates += [
            {"kind": "rot", "pauli": word(q, "Y"), "theta": layer * qubits + q}
            for q in range(qubits)
        ]
        gates += [{"kind": "cnot", "c": q, "t": q + 1} for q in range(qubits - 1)]
    terms = [{"coef": 1.0, "pauli": word(0, "Z")}, {"coef": 0.5, "pauli": word(qubits - 1, "Z")}]
    return {"qubits": qubits, "gates": gates, "observable": {"terms": terms}}


def _circuit(gen: np.random.Generator, name: str) -> dict:
    # Small angles keep <Z_0> near cos(2 x_1), so the target's mean square
    # stays far above the necessity bound's eps_hat / (2 pi)^2 and every seed
    # gets LOWER-BOUND-BLOCKS.  Angles over the whole circle make about one
    # target in 75 too small for the bound (a correct INCONCLUSIVE verdict).
    theta = gen.uniform(-np.pi / 4, np.pi / 4, size=CIRCUIT_QUBITS * CIRCUIT_LAYERS)
    return {
        "schema_version": 1,
        "name": name,
        "master_seed": _seeds(gen, 1)[0],
        "krr_oracle": True,
        "problem": {
            "target": {"kind": "circuit", "circuit": circuit_doc(), "theta": theta.tolist()},
        },
        "dist": {"kind": "uniform"},
        "axes": {"M": [50, 200], "n": [300], "lambda": ["auto"], "seeds": _seeds(gen, 2)},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_lowd",
            0,
            _lowd,
            "LOWER-BOUND-BLOCKS",
            study_s=1.75,
            min_studies=3,
        ),
        Workload(
            "sweep_highdim",
            1,
            _highdim,
            "SUFFICIENT-BOUND-POLY",
            study_s=7.5,
            # fourteen cells: the tail percentile (p28.6) is then the median
            # of the seven M=100 cells, not an extreme of a few
            min_studies=7,
        ),
        Workload(
            "circuit_oracle",
            2,
            _circuit,
            "LOWER-BOUND-BLOCKS",
            study_s=4.3,
            min_studies=3,
        ),
    )
}


def study_config(workload: Workload, seed: int, k: int) -> dict:
    """Config document of study ``k`` of a workload under ``seed``."""
    gen = np.random.default_rng([seed, workload.index, k])
    return workload.make_config(gen, f"{workload.name}-s{seed}-k{k}")
