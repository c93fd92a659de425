"""Exception types shared across the package."""


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
