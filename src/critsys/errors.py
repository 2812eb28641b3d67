"""Exception hierarchy shared across the solver modules."""


class CritsysError(Exception):
    """Base class for all library errors."""


# configuration
class DimensionTooSmall(CritsysError):
    pass


class CriticalityViolated(CritsysError):
    pass


class ExponentOutOfRange(CritsysError):
    pass


class InfeasibleHypothesis(CritsysError):
    pass


class HypothesisNotApplicable(CritsysError):
    pass


# grids / quadrature
class GridTooCoarse(CritsysError):
    pass


class NonintegrableInput(CritsysError):
    pass


class QuadratureDivergence(CritsysError):
    pass


class QuadratureUnresolved(CritsysError):
    pass


class ExponentRelationViolated(CritsysError):
    pass


class NonGeometricGrid(CritsysError):
    pass


# ODE integration
class StepSizeUnderflow(CritsysError):
    pass


class NonpositiveInput(CritsysError):
    pass


class NonpositiveScale(CritsysError):
    pass


# fixed point iteration
class IterateBlowup(CritsysError):
    pass


# moving plane scans
class BudgetExceeded(CritsysError):
    pass


class ScanInconclusive(CritsysError):
    pass
