"""Exception hierarchy.

ConfigError means the input description is wrong (CLI exit code 2);
ModelError means the model could not be evaluated (exit code 1).
"""

from __future__ import annotations

__all__ = [
    "DaqflowError",
    "ConfigError",
    "ModelError",
    "GraphValidationError",
    "FlowConsistencyError",
    "OperatingPointError",
    "DegeneratePopulationError",
    "FitInfeasibleError",
    "ModelWarning",
]


class DaqflowError(Exception):
    pass


class ConfigError(DaqflowError):
    """Bad configuration. Carries (location, message) pairs when available."""

    def __init__(self, message: str, locations: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.locations = locations or []

    def __str__(self) -> str:
        base = super().__str__()
        if not self.locations:
            return base
        details = "\n".join(f"  at {loc}: {msg}" for loc, msg in self.locations)
        return f"{base}\n{details}"


class ModelError(DaqflowError):
    pass


class GraphValidationError(ModelError):
    pass


class FlowConsistencyError(ModelError):
    pass


class OperatingPointError(ModelError):
    pass


class DegeneratePopulationError(ModelError):
    pass


class FitInfeasibleError(ModelError):
    pass


class ModelWarning(UserWarning):
    """Recoverable model condition (e.g. a clamped table lookup)."""
