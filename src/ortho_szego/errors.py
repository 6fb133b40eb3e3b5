"""Exception hierarchy shared by every module of the package."""


class OrthoError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientCoefficients(OrthoError):
    """A recurrence or Verblunsky sequence is shorter than an operation needs."""

    def __init__(self, needed: int, have: int, what: str = "coefficients"):
        self.needed = needed
        self.have = have
        super().__init__(f"need {needed} {what}, have {have}")


class DenominatorVanishes(OrthoError):
    """A linear-fractional map has a pole at the requested point."""


class PoleHit(OrthoError):
    """A convergent denominator vanished at the evaluation point."""


class NonPositiveD(OrthoError):
    """A d-coefficient required to be positive was not."""


class InvalidPrepend(OrthoError):
    """A prepended d-coefficient was zero (or nonpositive in the definite view)."""


class InvalidXi(OrthoError):
    """A prepended circle coefficient had modulus >= 1."""


class InvalidEta(OrthoError):
    """A replacement circle coefficient had modulus >= 1."""


class WrongSide(OrthoError):
    """A perturbation spec does not apply on the chosen side of the bridge."""


class ComplexAlpha(OrthoError):
    """A bridge operation received a Verblunsky coefficient with nonzero imaginary part."""


class AlphaOutOfRange(OrthoError):
    """A real Verblunsky coefficient fell outside (-1, 1)."""


class SupportViolation(OrthoError):
    """A computed coefficient left (-1, 1): the measure is not supported in [-1, 1].

    Carries the index of the offending coefficient.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"coefficient at index {index} left (-1, 1): {value!r}")


class DivisionDegenerate(OrthoError):
    """A partial denominator of a continued fraction (or LU pivot) vanished."""


class EvaluationDomain(OrthoError):
    """An evaluation point fell inside the forbidden zone around the support."""


class UnknownSuite(OrthoError):
    """The verification suite name is not recognized."""
