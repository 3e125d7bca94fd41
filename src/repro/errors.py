"""Exception hierarchy for the library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with one clause. Simulation-configuration mistakes
raise eagerly (fail fast) rather than corrupting a run.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulator (e.g., scheduling in the past)."""


class NetworkError(ReproError):
    """Invalid network configuration or addressing (e.g., unknown endpoint)."""


class ProtocolError(ReproError):
    """A protocol implementation detected an internal inconsistency.

    These indicate bugs (safety violations), never expected runtime events,
    and therefore abort the simulation instead of being swallowed.
    """


class AgreementViolation(ProtocolError):
    """Two replicas decided different values for the same slot."""


class ConfigurationError(ReproError):
    """Invalid cluster or experiment configuration."""


class StateTransferError(ReproError):
    """State transfer could not complete (no live source, bad snapshot)."""


class RecoveryError(ReproError):
    """A non-empty durable store holds nothing an epoch chain can be rebuilt from.

    Raised at boot instead of cold-booting: starting fresh over durable
    acceptor state is the amnesia the store exists to prevent.
    """


class DurabilityError(ReproError):
    """An fsync the write-ahead log depends on failed.

    The kernel may already have dropped the dirty pages and cleared the
    error, so a later fsync can succeed over lost records: the writer
    refuses all further work and ``serve`` stops (fail-stop).
    """


class VerificationError(ReproError):
    """A correctness oracle (invariant or linearizability check) failed."""


class HistoryError(VerificationError):
    """A recorded operation history is malformed (unmatched call/return)."""
