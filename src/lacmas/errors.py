"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or inconsistent settings."""


class ContractError(ValueError):
    """A caller violated an operation precondition (dimension mismatch, NaN input, ...)."""


class GuidanceParseError(ValueError):
    """A guidance response could not be parsed into the expected format."""


class LlmTransportError(RuntimeError):
    """The external guidance endpoint was unreachable or returned a malformed payload."""
