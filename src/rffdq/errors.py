"""Exception types shared across the package, and the one reader by which
every input document takes its fields."""

from itertools import chain

import numpy as np


class CapacityError(RuntimeError):
    """A frequency set, or its canonical half, would exceed its configured
    cap; only workflows that sample the lattice without enumerating it can
    run on it."""


class NonIntegerFrequencyError(ValueError):
    """An operation that requires an integer frequency lattice was given a
    non-integer one (orthogonality, and hence uniqueness, is not guaranteed)."""


class DegenerateDistributionError(RuntimeError):
    """A frequency distribution has zero total mass, or a conditional step
    hit an exactly-unreachable prefix (inconsistent cores)."""


class ConfigError(ValueError):
    """A configuration document (JSON/CLI input) is malformed or inconsistent."""

    @classmethod
    def at(cls, path: str, want: str, got: str) -> "ConfigError":
        """The one form of a field's error: "<path> must be <want>, got <got>"."""
        return cls(f"{path} must be {want}, got {got}")


def show(value) -> str:
    """A field's value as an error message prints it: its repr, cut short."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


class _Nothing:
    """The value of an absent field, as an error message prints it."""

    def __repr__(self):
        return "nothing"


NOTHING = _Nothing()
# values that never count as a number, at any depth of a numeric array
_NOT_NUMBERS = {bool, str, type(None)}


def read(value, kind: str, path: str, *, least=None, ndim: int = 0, finite: bool = True,
         nonempty: bool = False, choices: tuple = ()):
    """``value``, the field at ``path``, read as one of these kinds, or a
    ``ConfigError`` naming the path:

    - ``"object"``, ``"array"`` (at least one entry when ``nonempty``),
      ``"string"`` (one of ``choices`` when given) and ``"bool"``;
    - ``"integer"``: an integral int or float (7.0 reads as 7, ``true``
      does not) of at least ``least`` (default 0), as an int, and
      ``"integers"``, a non-empty array of them, as a list;
    - ``"number"``: an int or float, not a bool, or with ``ndim`` >= 1 a
      rectangular array of them of that depth (at least one entry when
      ``nonempty``) with no bool, null or string anywhere in it, as a
      float64 array; finite unless ``finite`` is false, and at least
      ``least`` when given, checked over the whole array at once.
    """
    if kind == "number":
        return _numbers(value, path, least, ndim, finite, nonempty)
    if kind == "integers" and isinstance(value, list) and value:
        return [read(v, "integer", f"{path}[{i}]", least=least) for i, v in enumerate(value)]
    whole = isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())
    if {"object": isinstance(value, dict),
        "array": isinstance(value, list) and (bool(value) or not nonempty),
        "string": isinstance(value, str) and (not choices or value in choices),
        "bool": isinstance(value, bool),
        "integer": whole and not isinstance(value, bool) and value >= (least or 0),
        "integers": False}[kind]:
        return int(value) if kind == "integer" else value
    want = {"object": "an object", "array": "a non-empty array" if nonempty else "an array",
            "string": "one of " + ", ".join(map(repr, choices)) if choices else "a string",
            "bool": "true or false", "integer": f"an integer >= {least or 0}",
            "integers": f"a non-empty array of integers >= {least or 0}"}[kind]
    raise ConfigError.at(path, want, show(value))


def read_field(doc: dict, key: str, kind: str, at: str = "", *, default=NOTHING, **rules):
    """``doc[key]`` read as ``kind`` (see ``read``) at path ``at + key``, or
    ``default`` when the key is absent and a default is given."""
    if key not in doc and default is not NOTHING:
        return default
    return read(doc.get(key, NOTHING), kind, at + key, **rules)


def _numbers(value, path: str, least, ndim: int, finite: bool, nonempty: bool):
    want = "a number"
    if ndim == 1:
        want = f"{'a non-empty' if nonempty else 'an'} array of numbers"
    elif ndim > 1:
        want = f"a rectangular {ndim}-d array of numbers"
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError.at(path, want, show(value)) from None
    if isinstance(value, np.ndarray):
        numbers = value.dtype.kind in "iuf"
    else:
        flat = value if isinstance(value, list) else [value]
        for _ in range(out.ndim - 1):
            flat = chain.from_iterable(flat)
        numbers = _NOT_NUMBERS.isdisjoint(map(type, flat))
    if not numbers or out.ndim != ndim or (nonempty and out.shape[0] == 0):
        raise ConfigError.at(path, want, show(value))
    checks = (("finite", ~np.isfinite(out) if finite else None),
              (f">= {least}", None if least is None else out < least))
    for rule, bad in checks:
        if bad is not None and bad.any():
            where = np.unravel_index(np.argmax(bad), out.shape)
            raise ConfigError.at(path + "".join(f"[{i}]" for i in where), rule, show(out[where].item()))
    return float(out) if ndim == 0 else out
