"""Exception types shared across the package."""


class TriphotonError(Exception):
    """Base class for all package-specific errors."""


class SingularBiasError(TriphotonError, ValueError):
    """Flux bias sits on (or too close to) a tangent singularity."""


class DegenerateFrequencyError(TriphotonError, ValueError):
    """Mode frequencies are integer multiples of each other, so the
    resonant/counter-rotating split is ill-defined."""


class LayoutMismatchError(TriphotonError, ValueError):
    """Operator, term or state refers to subsystems that do not exist or
    have the wrong kind in the register layout."""


class PumpMismatchError(TriphotonError, ValueError):
    """Configured pump tone does not match the resonance condition of the
    requested process."""


class IntegrationError(TriphotonError, RuntimeError):
    """Time integration failed (step-size underflow / stiffness).

    ``time`` is the last grid time the integrator reached; it stalled
    before the next grid point.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ConfigError(TriphotonError, ValueError):
    """Configuration file failed schema validation."""
