"""Exception hierarchy and default budget shared by all finshift modules."""

# the default of every ``budget`` parameter: the most units of work one
# call may do (enumeration nodes, states, closures, families, projections, ...)
DEFAULT_CANDIDATE_BUDGET = 1 << 24


class FinshiftError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FinshiftError):
    """An algebraic object violates one of its defining laws."""


class InputError(FinshiftError):
    """Arguments are outside an operation's domain."""


class ResourceError(FinshiftError):
    """A configured budget would be exceeded."""


class DomainError(FinshiftError):
    """The operation is mathematically undefined for this input."""


class FormatError(FinshiftError):
    """A text file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class ConfigurationError(FinshiftError):
    """A required fixture or configuration item is missing."""
