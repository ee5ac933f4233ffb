"""Exception hierarchy for the speak-up reproduction, and the range checks
that spec validation shares."""

from __future__ import annotations

import math
from typing import Type


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine or fluid network was used incorrectly."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or re-used after cancellation."""


class TopologyError(SimulationError):
    """A host, link, or path was configured inconsistently."""


class FlowError(SimulationError):
    """A flow was started, stopped, or queried in an invalid state."""


class ThinnerError(ReproError):
    """The thinner front-end was driven with an invalid request lifecycle."""


class PaymentError(ThinnerError):
    """A payment channel was opened, credited, or closed in an invalid state."""


class ServerError(ReproError):
    """The emulated server was driven through an invalid state transition."""


class DefenseError(ReproError):
    """A baseline defense was configured or attached incorrectly."""


class ClientError(ReproError):
    """A workload client was configured or driven incorrectly."""


class FaultError(ReproError):
    """A fault plan is malformed or was injected into an unsupported fleet."""


class ExperimentError(ReproError):
    """An experiment configuration is invalid or a run failed to complete."""


class AnalysisError(ReproError):
    """A closed-form analysis routine was called with invalid parameters."""


def check_positive(path: str, value: float, error: Type[ReproError] = ExperimentError) -> None:
    """Refuse a value outside ``(0, inf)``, NaN included, naming its field."""
    if not 0 < value < math.inf:
        raise error(f"{path} must be positive and finite, got {value}")


def check_non_negative(
    path: str, value: float, error: Type[ReproError] = ExperimentError
) -> None:
    """Refuse a value outside ``[0, inf)``, NaN included, naming its field."""
    if not 0 <= value < math.inf:
        raise error(f"{path} must be non-negative and finite, got {value}")
