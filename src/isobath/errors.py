"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3. Everything else is a plain bug.
"""


class IsobathError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(IsobathError):
    """A config file, parameter set, or scenario description is unusable."""


class NumericalError(IsobathError):
    """A numerical routine failed to produce a trustworthy result."""


class EncodeError(IsobathError):
    """A packet could not be serialized within the wire-format limits."""


class DecodeError(IsobathError):
    """A byte buffer is not a valid packet.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
