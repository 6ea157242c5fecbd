"""Exception types shared across the library.

Every failure mode surfaced to callers maps onto one of these so the CLI can
translate them into exit codes (validation problems -> 1, numeric failures -> 2).
"""

from __future__ import annotations


class MsamError(Exception):
    """Base class for all library errors."""


class DimensionError(MsamError):
    """Shapes or sizes are inconsistent (matmul dims, batch/label mismatch, ...)."""


class ConfigError(MsamError):
    """A config file, spec dataclass, or CLI flag combination is invalid."""


class UsageError(MsamError):
    """An API was called out of contract (bad coalition mask, stale cache, empty batch)."""


class NumericError(MsamError):
    """A computation produced non-finite values or an ill-conditioned quantity."""
