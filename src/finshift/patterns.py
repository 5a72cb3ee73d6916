"""Alphabets and patterns over a finite ambient group.

A pattern assigns symbol indices to a subset of the group's elements; SFT
specs forbid patterns on one shape.  Shift spaces store full
configurations as plain symbol tuples, which :func:`shift_config` shifts.
Every module reads a configuration at a list of cells through one
:func:`picker` per index map.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import InputError, Record
from .groups import FiniteGroup


class Alphabet(Record):
    """The symbols of a shift, in index order."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if len(symbols) < 1:
            raise InputError("alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise InputError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)


BINARY = Alphabet(("0", "1"))


class Pattern(Record):
    """A partial configuration: ``symbols[k]`` sits at element ``shape[k]``.

    ``shape`` is strictly increasing; the empty pattern (empty shape) is
    legal.
    """

    __slots__ = ("group", "shape", "symbols")

    def __init__(self, group: FiniteGroup, shape: tuple[int, ...], symbols: tuple[int, ...]):
        if len(shape) != len(symbols):
            raise InputError("shape and symbols must have equal length")
        if any(shape[i] >= shape[i + 1] for i in range(len(shape) - 1)):
            raise InputError("shape must be strictly increasing")
        if shape and not (0 <= shape[0] and shape[-1] < group.order):
            raise InputError("shape contains indices outside the group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "symbols", symbols)

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
    return picker([row[g] for row in group.mul])(config)

