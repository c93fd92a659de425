"""Exception types shared across the package, and the rules by which the
document readers take an object, a number or an integral field."""

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


def is_number(value) -> bool:
    """Whether ``value`` is an int or float and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def whole_number(value, least: int) -> int | None:
    """``value`` as an int when it is an integral number (not a bool) of at
    least ``least``, else None."""
    whole = isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < least:
        return None
    return int(value)


def json_object(value, what: str) -> dict:
    """``value`` when it is a JSON object, else a ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value
