"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Bad or inconsistent configuration (file contents, unknown keys, bad values)."""


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its contract."""
