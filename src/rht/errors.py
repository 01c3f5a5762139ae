"""Exception hierarchy shared across the package."""


class RhtError(Exception):
    """Base class for all errors raised by this package."""


class ModelSyntaxError(RhtError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class UnknownGenerator(RhtError):
    pass


class DuplicateGenerator(RhtError):
    pass


class DegreeMismatch(RhtError):
    pass


class NotClosed(RhtError):
    """The differential does not square to zero."""


class NotSimplyConnected(RhtError):
    """A generator of degree < 2 was declared."""


class BaseDiffViolated(RhtError):
    """The fiber projection of the total differential is not a differential."""


class BoundExceeded(RhtError):
    """A computation needs degrees beyond the model's validity bound."""


class GeneratorSetMismatch(RhtError):
    pass


class AmbientMismatch(RhtError):
    pass


class NotAComplex(RhtError):
    """d_out . d_in != 0 was passed where a chain complex was required."""


class DuplicateId(RhtError, ValueError):
    """Two catalog entries share one id."""


class FiberMismatch(RhtError):
    """Catalog entries do not share the same fiber model."""


class NotFiniteAtBound(RhtError):
    """A total space failed the bounded-cohomology finiteness gate."""


class BaseNotDegreeTwo(RhtError):
    """Toral certificates require every base generator in degree 2."""


class CombinatorialBlowup(RhtError):
    """A degree basis or a fibration enumeration would exceed its size cap."""
