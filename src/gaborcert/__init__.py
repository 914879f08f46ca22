"""Numerical certification of Gabor frames with compactly supported windows."""

__version__ = "0.1.0"

from . import certify, framebound, lattice, linalg, randwin, window  # noqa: F401
from .errors import (BudgetExceeded, DegenerateFit, EmptyCore,  # noqa: F401
                     GaborCertError, HopNotFound, HypothesisViolated,
                     TooCloseToForbiddenRatio)
