"""B92 quantum key distribution simulator.

A desk-scale model of a single-photon interferometric key exchange
over optical fiber: exact two-level state algebra, beamsplitter and
time-multiplexed interferometer optics, attenuated-laser and gated
detector statistics, the full sift/estimate/reconcile session
protocol with an optional eavesdropper, and strict one-time-pad
encryption with the distilled key.
"""
from . import channel, hardware, otp, photonics, protocol, qstate
from .errors import (
    ChannelError,
    ConfigError,
    EncodingError,
    InvalidStateError,
    ModelValidityError,
    PadDepletedError,
    ProtocolDesyncError,
    SessionAbort,
)
from .hardware import HardwareProfile, load_profile
from .protocol import EveStrategy, Mode, SessionConfig, SessionReport, run_session

__all__ = [
    "channel",
    "hardware",
    "otp",
    "photonics",
    "protocol",
    "qstate",
    "ChannelError",
    "ConfigError",
    "EncodingError",
    "InvalidStateError",
    "ModelValidityError",
    "PadDepletedError",
    "ProtocolDesyncError",
    "SessionAbort",
    "HardwareProfile",
    "load_profile",
    "EveStrategy",
    "Mode",
    "SessionConfig",
    "SessionReport",
    "run_session",
]

__version__ = "0.1.0"
