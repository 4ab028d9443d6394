"""Exception hierarchy.

Two families matter for the CLI exit-code contract: ValidationError
(bad inputs, exit 2) and TransportError (network/cache trouble, exit 3).
Plain IO failures surface as OSError and are also mapped to exit 3.
"""


class CarbondefError(Exception):
    pass


class ValidationError(CarbondefError):
    pass


class TransportError(CarbondefError):
    pass


# --- server model ---

class SpecError(ValidationError):
    """Non-positive TDP, CPU count, or usage maximum; negative idle power; a number not finite."""


class AllocationError(ValidationError):
    """Allocation vector has a negative entry or does not sum to 1."""


class UsageOutOfRange(ValidationError):
    """A usage value exceeds the spec's maximum and clamping is off."""


class TraceOrderError(ValidationError):
    """Usage samples are unsorted, overlap in time or end where they start."""


# --- grid integration ---

class CoverageError(ValidationError):
    """Strict mode: energy falls outside intensity coverage."""


# --- embodied ledger ---

class DurationError(ValidationError):
    """Consumed duration is negative, not finite or exceeds the object lifespan."""


class FractionError(ValidationError):
    """Sharing fraction outside [0, 1]."""


class ProfileOutOfLifespan(ValidationError):
    """Sharing profile extends beyond the object's lifespan window."""


class OversubscriptionError(ValidationError):
    """Instantaneous sharing fractions for one object sum past 1."""

    def __init__(self, object_id: str, instant: int, total: float):
        self.object_id = object_id
        self.instant = instant
        self.total = total
        super().__init__(
            f"object {object_id!r} oversubscribed at t={instant}: "
            f"fractions sum to {total}"
        )


class UnknownObject(ValidationError):
    """Object id not present in the ledger."""


# --- ingestion ---

class ParseError(ValidationError):
    """Malformed input; carries a human-readable location."""

    def __init__(self, message: str, location: str):
        self.location = location
        super().__init__(f"{message} (at {location})")


class SchemaError(ParseError):
    """Input misses a required column or field."""


class OverlapError(ParseError):
    """Intensity entries overlap in time."""


class NegativeIntensityError(ParseError):
    """Carbon intensity below zero."""


class LedgerReferenceError(ParseError):
    """Consumption record references an unknown object id."""


class NetworkError(TransportError):
    """Intensity fetch failed and no cache fallback was available."""
