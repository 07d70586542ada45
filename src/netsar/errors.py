"""Exception types shared across the package."""


class NetsarError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(NetsarError):
    """Transmitter and receiver directions cancel (monostatic shadow case)."""


class InvalidBeamError(NetsarError):
    """Beam cone does not produce a bounded ground footprint."""


class EmptyFootprintError(NetsarError):
    """No scene pixel falls inside the illuminated footprint."""


class IndexOverflowError(NetsarError):
    """A spectrum sample falls outside the global wavenumber grid."""


class EmptyInputError(NetsarError):
    """An operation requiring at least one input item received none."""


class DegenerateStepError(NetsarError):
    """A wavenumber grid step underflowed (angle too close to zero)."""


class InvalidDistributionError(NetsarError):
    """A probability vector or kernel violates its normalization invariants."""


class ConfigError(NetsarError):
    """A run configuration field failed validation."""


class MissingDatasetError(NetsarError):
    """A reconstruction was requested on an absent or empty dataset."""


class CorruptDatasetError(NetsarError):
    """A dataset's samples disagree with its patch index or are not finite."""
