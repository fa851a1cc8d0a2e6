"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Bad or inconsistent configuration (file contents, unknown keys, bad values)."""


class PreconditionError(ValueError):
    """An operation was called with inputs that violate its contract."""


def reject_unknown_keys(d, known: set, where: str) -> None:
    """Raise ConfigError unless `d` is a dict (a JSON object) whose keys are
    all in `known`; `where` names the config section in the message."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} config must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {sorted(unknown)}")
