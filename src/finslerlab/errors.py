"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to catch has its own class;
plain ValueError/TypeError are reserved for programming mistakes.
"""


class FinslerError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FinslerError, ValueError):
    """A scalar operation left its domain (ln of non-positive value,
    sqrt of a negative value, division by zero, abs at zero in a
    differentiated region)."""


class TowerBudgetError(FinslerError):
    """A computation asked for more derivatives than a series carries:
    Series.partials or Series.grad beyond the series' (bx, by, bd)
    budget, or a Riemann curvature beyond its spray's."""


class RegularityError(FinslerError):
    """The metric is not regular at a state: the fundamental tensor is
    not positive definite, or F is not positive on an admissible ray."""

    def __init__(self, message, x=None, y=None):
        self.x = None if x is None else tuple(float(v) for v in x)
        self.y = None if y is None else tuple(float(v) for v in y)
        where = ""
        if self.x is not None:
            where = " at x=%s" % (self.x,)
            if self.y is not None:
                where += ", y=%s" % (self.y,)
        super().__init__(message + where)


class ParseError(FinslerError):
    """Source text could not be parsed; carries the offset and, where
    known, the tokens that would have been accepted."""

    def __init__(self, message, position, expected=()):
        self.position = int(position)
        self.expected = tuple(expected)
        detail = "%s at offset %d" % (message, self.position)
        if self.expected:
            detail += " (expected %s)" % ", ".join(self.expected)
        super().__init__(detail)


class EvalError(FinslerError):
    """Expression evaluation failed; carries the source position of the
    offending node."""

    def __init__(self, message, position):
        self.position = int(position)
        super().__init__("%s at offset %d" % (message, self.position))


class SamplingError(FinslerError):
    """State sampling could not produce enough admissible states."""


class CatalogError(FinslerError):
    """Unknown catalog entry or invalid entry parameters."""


class ConfigError(FinslerError):
    """Invalid run configuration (CLI or metric-definition file)."""
