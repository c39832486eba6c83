"""Exception types shared across the package."""


class CharshiftError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(CharshiftError):
    """A parameter that must be prime is not."""


class NotOddPrime(CharshiftError):
    """A parameter that must be an odd prime is not."""


class ReducibleModulus(CharshiftError):
    """A supplied modulus polynomial factors over the base field."""


class EvenCharacteristic(CharshiftError):
    """Character operations are undefined in characteristic two."""


class EvenInput(CharshiftError):
    """An integer that must be odd is even."""


class NotSquareFree(CharshiftError):
    """An integer that must be square-free has a repeated prime factor."""


class UnsupportedParameters(CharshiftError):
    """No closed form is available for the requested parameters."""


class DomainTooLarge(CharshiftError):
    """The requested exhaustive computation exceeds the desk-scale limit."""


class NonUnitPhase(CharshiftError):
    """A phase function returned a value off the unit circle."""


class NotBijective(CharshiftError):
    """A basis relabeling is not a bijection on the index set."""


class DimensionMismatch(CharshiftError):
    """A state's dimension does not fit the requested operation."""


class ShiftOutOfRange(CharshiftError):
    """A hidden shift lies outside the oracle's domain."""


class ModulusTooLargeForM(CharshiftError):
    """The secret modulus violates the n^2 < M promise."""


class DomainViolation(CharshiftError):
    """A query or state index lies outside the oracle's domain."""


class RetriesExhausted(CharshiftError):
    """A randomized solver hit its retry cap without a verified answer."""


class NoValidConvergent(CharshiftError):
    """No continued-fraction convergent can yield a legal modulus candidate."""


class ConfigError(CharshiftError):
    """Invalid command-line configuration."""
