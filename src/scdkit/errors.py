"""Exception types shared across the toolkit."""


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its contract (non-scalar loss, even kernel, ...)."""


class ConfigError(ValueError):
    """A configuration key or value is invalid."""


class DataError(ValueError):
    """A dataset file, label map or checkpoint is malformed."""


class NumericFailure(RuntimeError):
    """A numeric invariant broke (NaN loss, divergence); carries a diagnostic snapshot."""

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot or {}
