"""Exception types shared across the package."""


class GaborCertError(Exception):
    """Base class for all errors raised by gaborcert."""


class HypothesisViolated(GaborCertError):
    """A lattice/window hypothesis required by the construction does not hold."""


class EmptyCore(GaborCertError):
    """The shrunken support interval [a+eps, b-eps] is empty."""


class DegenerateFit(GaborCertError):
    """Too few usable frequencies to fit a Fourier decay exponent."""


class HopNotFound(GaborCertError):
    """No return to the certified interval within the hop budget."""


class TooCloseToForbiddenRatio(GaborCertError):
    """alpha*beta is too close to a small-denominator collision ratio."""


class BudgetExceeded(GaborCertError):
    """A computation would need more memory than its documented budget."""
