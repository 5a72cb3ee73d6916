"""Alphabets and patterns over a finite ambient group.

A pattern assigns symbol indices to a subset of the group's elements; SFT
specs forbid patterns on one shape.  Shift spaces store full
configurations as plain symbol tuples, which :func:`shift_config` shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .groups import FiniteGroup


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class Pattern:
    """A partial configuration: ``symbols[k]`` sits at element ``shape[k]``.

    ``shape`` is strictly increasing; the empty pattern (empty shape) is
    legal.
    """

    group: FiniteGroup
    shape: tuple[int, ...]
    symbols: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) != len(self.symbols):
            raise InputError("shape and symbols must have equal length")
        if any(self.shape[i] >= self.shape[i + 1] for i in range(len(self.shape) - 1)):
            raise InputError("shape must be strictly increasing")
        if self.shape and not (0 <= self.shape[0] and self.shape[-1] < self.group.order):
            raise InputError("shape contains indices outside the group")

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.shape, self.symbols))


def shift_config(group: FiniteGroup, g: int, config):
    """Translate a full configuration tuple by ``g``: the result reads
    ``config`` at ``h*g`` for each element h."""
    mul = group.mul
    return tuple(config[mul[h][g]] for h in range(group.order))

