"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, or inconsistent settings."""


class ContractError(ValueError):
    """A caller violated an operation precondition (dimension mismatch, NaN input, ...)."""


class GuidanceParseError(ValueError):
    """A guidance response could not be parsed into the expected format."""


class LlmTransportError(RuntimeError):
    """The external guidance endpoint was unreachable or returned a malformed payload."""


class RunAborted(RuntimeError):
    """A run of a batch stopped on a numerical fault; later runs never started."""

    def __init__(self, index: int, report):
        super().__init__(f"run {index} of the batch aborted: {report.fault}")
        self.index = index
        self.report = report
