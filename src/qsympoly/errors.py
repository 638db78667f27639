"""Exception types shared across the package."""


class QSymPolyError(Exception):
    """Base class for numerical and domain failures raised by this package."""


class TruncationError(QSymPolyError):
    """An infinite sum or product was cut off (at max_terms, or at a Jackson
    grid's n_terms) before meeting eps_term."""


class DivergenceError(QSymPolyError):
    """A series or q-integral does not decay and cannot be evaluated."""


class IllDefinedSeriesError(QSymPolyError):
    """A lower parameter of a basic hypergeometric series hits base**(-k)."""


class ResonanceError(QSymPolyError):
    """A recurrence denominator vanished (weak-orthogonality boundary)."""


class ZeroDenominatorError(QSymPolyError):
    """A closed-form expression has a vanishing denominator."""


class InvalidBaseError(QSymPolyError):
    """The real-power base of a weight function is not positive."""


class AdmissibilityError(QSymPolyError):
    """A weight function failed its positivity or admissibility check."""
