"""Exception hierarchy, default budget and record base shared by all
finshift modules."""

from operator import attrgetter

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


class Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``; a slot whose name starts with
    ``_`` is a cache, not a field.  Two records are equal when they are of
    one class with equal fields, a record hashes as its fields do, setting
    or deleting an attribute raises :class:`AttributeError`, copying and
    pickling rebuild a record from its fields, and the repr reads
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
