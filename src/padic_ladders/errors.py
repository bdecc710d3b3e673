"""Exception types shared across the package."""


class PadicLaddersError(Exception):
    """Base class for all domain errors raised by this package."""


class UsageError(Exception):
    """A bad argument or environment setting, not a domain outcome (CLI exit 2)."""


class NonPrimeModulus(PadicLaddersError):
    """The requested modulus p is not prime."""


class DivisionByZero(PadicLaddersError, ZeroDivisionError):
    """Division by an element that is zero at its stated precision."""


class PrecisionExhausted(PadicLaddersError):
    """The requested quantity is not determined by the tracked precision."""


class MixedExtension(PadicLaddersError):
    """Operands live over different primes, or quadratic extensions with different (p, a_p)."""


class NotSupersingular(PadicLaddersError):
    """(p, a_p) is not an admissible supersingular pair."""


class NonIntegralCoefficient(PadicLaddersError):
    """An integer-valued ladder coefficient came out non-integral.

    Signals an internal inconsistency; must never fire for valid inputs.
    """


class IdentityViolation(PadicLaddersError):
    """An identity that holds by construction failed to verify."""


class InexactDivision(PadicLaddersError):
    """Polynomial division left a nonzero remainder at the available precision."""


class NotConverged(PadicLaddersError):
    """A limit's computed stopping level lies past its step cap."""


class BadReduction(PadicLaddersError):
    """The curve has bad reduction at the requested prime."""


class HasseViolation(PadicLaddersError):
    """A computed trace of Frobenius violated the Hasse bound (must never fire)."""


class SerializationError(PadicLaddersError):
    """The value cannot be encoded in the wire format."""
