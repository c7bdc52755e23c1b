"""Exception taxonomy shared by all modules.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps them onto process exit codes (config 2, capacity 3, numerical 4).
"""

from __future__ import annotations


class RecombError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(RecombError):
    """Two objects that must live on the same cube do not."""


class InvalidDistributionError(RecombError):
    """Weights or coefficients violate a distribution invariant."""


class CapacityError(RecombError):
    """A dense representation or sampler would exceed its configured cap.

    ``stats`` carries whatever partial information was collected before the
    cap was hit (leaf counts, time reached, ...).
    """

    def __init__(self, message: str, **stats):
        super().__init__(message)
        self.stats = dict(stats)


class NumericalInvariantError(RecombError):
    """A runtime numerical invariant (coefficient box, step rejection) failed."""


class ConfigError(RecombError):
    """Bad command-line input or experiment parameters."""
