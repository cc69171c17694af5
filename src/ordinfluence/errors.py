"""Exception hierarchy shared by all ordinfluence modules."""


class OrdInfluenceError(Exception):
    """Base class for all library errors."""


class DomainError(OrdInfluenceError, ValueError):
    """An argument is outside its mathematical domain (bad rank, arity mismatch, ...)."""


class ConfigurationError(OrdInfluenceError):
    """The requested method or mode is incompatible with the given function class."""


class DegenerateVarianceError(OrdInfluenceError):
    """Normalized quantities are undefined because the function is (almost) constant."""


class QuadratureError(OrdInfluenceError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved_tolerance=None):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class TaintedSampleError(OrdInfluenceError):
    """A Monte-Carlo evaluator returned a non-finite value, or a product
    formed from its finite values overflowed."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class SpecFileError(OrdInfluenceError, ValueError):
    """A function specification document is malformed."""

    def __init__(self, message, location=None):
        if location is not None:
            message = "%s (at %s)" % (message, location)
        super().__init__(message)
        self.location = location
