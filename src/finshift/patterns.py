"""Alphabets and patterns over a finite ambient group.

A pattern assigns symbol indices to a subset of the group's elements; SFT
specs forbid patterns on one shape.  Shift spaces store full
configurations as plain symbol tuples, which :func:`shift_config` shifts.
Every module reads a configuration at a list of cells through one
:func:`picker` per index map.
"""

from __future__ import annotations

from operator import itemgetter, lt

from .errors import InputError, Record
from .groups import FiniteGroup


class Alphabet(Record):
    """The symbols of a shift, field ``symbols``, in index order."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if len(symbols) < 1:
            raise InputError("alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise InputError("alphabet symbols must be distinct")
        super().__init__(symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)


BINARY = Alphabet(("0", "1"))


class Pattern(Record):
    """A partial configuration, fields ``group``, ``shape`` and ``symbols``:
    ``symbols[k]`` sits at element ``shape[k]``.

    ``shape`` is strictly increasing; the empty pattern (empty shape) is
    legal.
    """

    __slots__ = ("group", "shape", "symbols")

    def __init__(self, group: FiniteGroup, shape: tuple[int, ...], symbols: tuple[int, ...]):
        if len(shape) != len(symbols):
            raise InputError("shape and symbols must have equal length")
        if shape and not ({int}.issuperset(map(type, shape))
                          and 0 <= shape[0] and shape[-1] < group.order):
            raise InputError("shape contains indices outside the group")
        if not all(map(lt, shape, shape[1:])):
            raise InputError("shape must be strictly increasing")
        super().__init__(group, shape, symbols)

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.shape, self.symbols))


def picker(indices):
    """A function taking a sequence to the tuple of its items at
    ``indices``, a sequence of positions: built once per index map, it
    reads every configuration it is mapped over in C."""
    if len(indices) == 1:  # itemgetter would return the bare item
        (i,) = indices
        return lambda t: (t[i],)
    if not indices:  # itemgetter needs an index
        return lambda t: ()
    return itemgetter(*indices)


def shift_config(group: FiniteGroup, g: int, config):
    """Translate a full configuration tuple by ``g``: the result reads
    ``config`` at ``h*g`` for each element h, column g of the table."""
    if type(g) is not int or not 0 <= g < group.order or len(config) != group.order:
        raise InputError(f"cannot shift {len(config)} cells by {g!r} in a group of {group.order}")
    return picker([row[g] for row in group.mul])(config)

