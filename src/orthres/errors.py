"""Exception hierarchy shared across the package."""

import math


class OrthresError(Exception):
    """Base class for all package errors."""


class InvariantViolation(OrthresError):
    """A structural invariant of a tree or process failed validation."""


class ModelError(OrthresError):
    """Invalid model parameters or a broken model construction."""


class NodeCapExceeded(ModelError):
    """Tree construction would exceed the configured node cap."""

    def __init__(self, requested, cap):
        super().__init__(
            f"tree would need {node_count_text(requested, cap)} nodes, cap "
            f"is {cap} (set ORTHRES_NODE_CAP to raise)"
        )
        self.requested = requested
        self.cap = cap


def node_count_text(n, cap):
    """A node count as printed: exact, or "more than {cap}" for one that
    ``estimate_nodes`` gives as math.inf."""
    return f"more than {cap}" if n == math.inf else str(n)


class SolverError(OrthresError):
    """A backward solve could not complete."""


class ContractionError(SolverError):
    """Lipschitz-in-y constant too large for the mesh: K * dC_max >= 1."""


class ConfigError(OrthresError):
    """Malformed or inconsistent experiment configuration."""
