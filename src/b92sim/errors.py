"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """A parameter, profile value, or flag combination is invalid."""


class ModelValidityError(ValueError):
    """Inputs left the regime where a model approximation holds."""


class InvalidStateError(ValueError):
    """A state vector failed normalization."""


class ChannelError(RuntimeError):
    """Transport-level failure on the classical channel."""


class ProtocolDesyncError(RuntimeError):
    """Counterpart data did not match the expected protocol step."""


class SessionAbort(RuntimeError):
    """Session ended early: the channel or the peer's messages failed."""


class PadDepletedError(RuntimeError):
    """One-time pad has fewer unconsumed symbols than required."""


class EncodingError(ValueError):
    """Text contains characters outside the encodable set."""
