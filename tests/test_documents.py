"""Every input document the command line reads, with each field replaced in
turn by a malformed value: the command exits 0 or 2, never 1 (a traceback)
or 3 (a numeric error), and an exit 2 names the field.

A document nested in another (an encoding in a weights document, a function
or circuit in a problem, a problem or distribution in a sweep config) is
fuzzed field by field through its own command, and only at its root inside
the document that holds it.  Arrays of numbers are fuzzed at their first
entry on each level; arrays of objects at every entry.
"""

import json
import math
import re

import pytest

from rffdq import cli
from rffdq.cli import main

MISSING = object()
# the malformed values, by label; "1e400" is written as that literal, which
# JSON reads as an infinity
VALUES = {
    "missing": MISSING,
    "null": None,
    "true": True,
    "string": "x",
    "array": [],
    "object": {},
    "nan": math.nan,
    "inf": math.inf,
    "1.7": 1.7,
    "-1": -1,
    "1e400": "__1e400__",
}

ENC = {"dimensions": [[[-0.5, 0.5]], [[-0.5, 0.5]]]}
ENC1 = {"dimensions": [[[-0.5, 0.5], [-0.5, 0.5]]]}
FUNCTION = {"d": 2, "terms": [{"omega": [1.0, 0.0], "re": 0.5, "im": 0.25}, {"omega": [0.0, 1.0], "re": 0.1, "im": 0.0}]}
CIRCUIT = {
    "qubits": 2,
    "gates": [
        {"kind": "encode", "pauli": "XI", "scale": 0.5, "dim": 1},
        {"kind": "rot", "pauli": "YI", "theta": 0},
        {"kind": "cnot", "c": 0, "t": 1},
        {"kind": "cz", "c": 1, "t": 0},
        {"kind": "fixed", "qubits": [1], "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    ],
    "observable": {"terms": [{"coef": 1.0, "pauli": "ZI"}, {"coef": 0.5, "pauli": "IZ"}]},
}
PROBLEM = {"encoding": ENC1, "target": {"kind": "explicit", "function": {"d": 1, "terms": [{"omega": [1.0], "re": 0.5, "im": 0.0}]}},
           "n": 10, "seed": 0, "noise": {"kind": "uniform", "sigma": 0.1}}
RANDOM_PROBLEM = {"encoding": ENC1, "n": 10,
                  "target": {"kind": "random", "support_size": {"name": "uniform", "low": 1, "high": 2}}}
CIRCUIT_PROBLEM = {"n": 10, "target": {"kind": "circuit", "circuit": CIRCUIT, "theta": [0.3]}}
SWEEP = {
    "schema_version": 1,
    "name": "fuzz",
    "master_seed": 2,
    "krr_oracle": True,
    "problem": PROBLEM,
    "dist": {"kind": "uniform"},
    "axes": {"M": [2], "n": [6], "lambda": ["auto"], "seeds": [0]},
}
RFF = {"variant": "rff", "lambda": 0.1, "frequencies": [[0.0], [1.0]], "phases": [0.5, 1.5], "coef": [1.0, 2.0]}
KRR = {"variant": "krr", "lambda": 0.1, "encoding": ENC1, "weights": [1.0, 1.0, 1.0],
       "v": [0.5, 0.25, 0.125, -0.25, 0.0625]}

# the exits 0 that the README's "Input documents" rules document
ANY_NUMBER = {"1.7", "-1"}  # a number field takes any finite number
POSITIVE = {"1.7"}  # a field >= 0 (weights, probabilities, lambda, phases)
OPTIONAL = {"missing"}  # an optional field takes its default; an entry of an
# array of no fixed length may be left out

SAMPLE = ["sample", "--encoding", "enc.json", "--dist", "DOC", "--M", "1", "--out", "s.csv"]
RISK = ["risk", "--model", "m.json", "--problem", "DOC"]

# name, document, command (DOC is the document's file), nested document
# roots, exits 0 by path pattern (* is one key), and other inputs of the
# command that an exit 2 may name instead (they no longer fit the document)
CASES = [
    ("encoding", ENC, ["freqset", "--encoding", "DOC", "--stats"], (),
     {"dimensions.*": OPTIONAL | {"array"}, "dimensions.*.*": OPTIONAL, "dimensions.*.*.*": OPTIONAL | ANY_NUMBER}, ()),
    ("weights", {"weights": [1.0, 1.0, 1.0], "encoding": ENC1},
     ["rkhs-norm", "--function", "f1.json", "--weights", "DOC"], ("encoding",), {"weights.*": POSITIVE}, ()),
    ("function", FUNCTION, ["rkhs-norm", "--function", "DOC", "--weights", "w.json", "--encoding", "enc.json"], (),
     {"terms": {"array"}, "terms.*": OPTIONAL, "terms.*.re": ANY_NUMBER, "terms.*.im": ANY_NUMBER}, ()),
    ("explicit", {"kind": "explicit", "support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.5, 0.5]}, SAMPLE, (), {}, ()),
    ("product", {"kind": "product", "per_dim": [[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]]}, SAMPLE, (), {}, ()),
    ("mps", {"kind": "mps", "dims": [3, 3], "cores": [[[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]],
                                                     [[[0.1], [0.2], [0.3]], [[0.4], [0.5], [0.6]]]]},
     SAMPLE, (), {"dims": OPTIONAL, "cores.*.*.*.*": POSITIVE}, ()),
    ("uniform", {"kind": "uniform", "variant": "product"}, SAMPLE, (), {"variant": OPTIONAL}, ()),
    ("circuit", CIRCUIT, ["pqc-spectrum", "--circuit", "DOC", "--theta", "t.json", "--out", "spectrum.json"], (),
     {"gates.*": OPTIONAL, "gates.0.scale": OPTIONAL | {"-1"}, "gates.0.dim": OPTIONAL,
      "observable.terms.*": OPTIONAL, "observable.terms.*.coef": ANY_NUMBER}, ("theta",)),
    ("theta", {"theta": [0.3]}, ["pqc-spectrum", "--circuit", "c.json", "--theta", "DOC", "--out", "spectrum.json"], (),
     {"theta.*": ANY_NUMBER}, ()),
    ("problem", PROBLEM, RISK, ("encoding", "target.function"),
     {"seed": OPTIONAL, "noise": OPTIONAL | {"object"}, "noise.kind": OPTIONAL, "noise.sigma": OPTIONAL | POSITIVE}, ()),
    ("random problem", RANDOM_PROBLEM, RISK, ("encoding",), {"target.support_size": OPTIONAL}, ()),
    ("circuit problem", CIRCUIT_PROBLEM, RISK, ("target.circuit",), {"target.theta.*": ANY_NUMBER}, ()),
    ("sweep config", SWEEP, ["experiment", "run", "--config", "DOC", "--out", "r.csv"], ("problem", "dist"),
     {"name": OPTIONAL | {"string"}, "master_seed": OPTIONAL, "krr_oracle": OPTIONAL | {"true"},
      "axes": OPTIONAL | {"object"}, "axes.*": OPTIONAL, "axes.lambda.0": set(VALUES) - OPTIONAL}, ()),
    ("rff model", RFF, ["risk", "--model", "DOC", "--data", "d.csv"], (),
     {"lambda": POSITIVE, "phases.*": POSITIVE, "coef.*": ANY_NUMBER, "frequencies.*.*": ANY_NUMBER}, ()),
    ("krr model", KRR, ["risk", "--model", "DOC", "--data", "d.csv"], ("encoding",),
     {"lambda": POSITIVE, "weights.*": POSITIVE, "v.*": ANY_NUMBER}, ()),
]


def _walk(doc, nested, prefix=()):
    """Every field path of ``doc``, not descending into ``nested`` roots;
    arrays of numbers are entered at their first entry only."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if _dotted(path) in nested or not isinstance(value, (dict, list)) or not value:
            continue
        if isinstance(value, list) and not isinstance(value[0], dict):
            value = value[:1]
        yield from _walk(value, nested, path)


def _dotted(path) -> str:
    return ".".join(map(str, path))


def _pattern(path, accepted) -> str | None:
    """The acceptance pattern matching ``path``; ``*`` stands for one key."""
    return next((p for p in accepted if re.fullmatch(re.escape(p).replace(r"\*", r"[^.]+"), _dotted(path))), None)


def _display(path) -> str:
    """A path as the program names it: JSON style, but a circuit's gates are
    ``gate i`` and a sweep's axes ``axis M``."""
    out = ""
    for i, key in enumerate(path):
        if i > 0 and path[i - 1] == "gates" and isinstance(key, int):
            out = out[: -len("gates")] + f"gate {key}"
        elif i > 0 and path[i - 1] == "axes":
            out = out[: -len("axes")] + f"axis {key}"
        elif isinstance(key, int):
            out += f"[{key}]"
        else:
            out += f".{key}" if out else key
    return out


def _names(path) -> list:
    """The path, or an array holding it (an array of numbers may be refused
    as a whole)."""
    return [_display(path[:k]) for k in range(len(path), 0, -1) if all(isinstance(c, int) for c in path[k:])]


def _named(name: str, err: str) -> bool:
    """Whether ``err`` names the path ``name`` or a field within it."""
    return re.search(rf"(?<![\w.\[]){re.escape(name)}(?!\w)", err) is not None


def _substituted(doc, path, value):
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value is MISSING:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("documents")
    files = {
        "enc.json": ENC,
        "w.json": {"weights": [1.0] * 5},
        "f1.json": {"d": 1, "terms": [{"omega": [1.0], "re": 0.5, "im": 0.0}]},
        "c.json": CIRCUIT,
        "t.json": {"theta": [0.3]},
        "m.json": RFF,
    }
    for name, doc in files.items():
        (d / name).write_text(json.dumps(doc))
    rows = [f"{0.1 * i!r},{0.05 * i!r}" for i in range(1, 11)]
    (d / "d.csv").write_text("x_1,y\n" + "\n".join(rows) + "\n")
    return d


def test_every_field_of_every_document(fuzzdir, capsys, monkeypatch):
    monkeypatch.chdir(fuzzdir)
    # one parser for all the runs: building it takes most of a refused run
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    failures, runs = [], 0
    for name, doc, command, nested, accepted, elsewhere in CASES:
        argv = [a if a != "DOC" else "doc.json" for a in command]
        (fuzzdir / "doc.json").write_text(json.dumps(doc))
        assert main(argv) == 0, name
        capsys.readouterr()
        for path in [()] + list(_walk(doc, nested)):
            for label, value in VALUES.items():
                if path == () and label == "missing":
                    continue
                text = json.dumps(_substituted(doc, path, value) if path else value)
                (fuzzdir / "doc.json").write_text(text.replace('"__1e400__"', "1e400"))
                for out in ("r.csv", "s.csv", "spectrum.json"):
                    (fuzzdir / out).unlink(missing_ok=True)
                code = main(argv)
                err = capsys.readouterr().err
                runs += 1
                where = f"{name} {_dotted(path) or 'root'} = {label}: exit {code} {err.strip()!r}"
                if code == 0:
                    if label not in accepted.get(_pattern(path, accepted), ()):
                        failures.append(where)
                    elif command[0] == "experiment" and not _dotted(path).startswith("axes.lambda"):
                        # a row without an error ends in its empty error column
                        if any(not row.endswith(",") for row in (fuzzdir / "r.csv").read_text().splitlines()[1:]):
                            failures.append(f"{where}: error rows")
                elif code != 2:
                    failures.append(where)
                elif path and _dotted(path) not in nested:
                    # errors inside a nested document name paths relative to it
                    if not any(_named(n, err) for n in _names(path) + list(elsewhere)):
                        failures.append(where)
    assert runs > 1000
    assert failures == [], "\n".join(failures)
