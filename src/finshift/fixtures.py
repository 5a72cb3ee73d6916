"""Built-in desk-scale fixtures shared by the verification suites and tests."""

from __future__ import annotations

import random
from itertools import product as iproduct

from .groups import FiniteGroup, GroupTower, build_tower, cyclic, product
from .patterns import BINARY, Pattern
from .shiftspace import SftSpec


def klein() -> FiniteGroup:
    return product(cyclic(2), cyclic(2))


def cyclic_doubling_tower(depth: int) -> GroupTower:
    """Z/2 -> Z/4 -> ... with each step doubling via i -> 2i."""
    levels = [cyclic(2 ** k) for k in range(1, depth + 1)]
    embeddings = [
        tuple(2 * i for i in range(levels[k].order)) for k in range(depth - 1)
    ]
    return build_tower(levels, embeddings)


def two_point_spec(group: FiniteGroup, partner: int = 1) -> SftSpec:
    """Only the constant configurations survive: forbid every non-constant
    binary pattern on {identity, partner}."""
    shape = tuple(sorted({group.identity, partner}))
    forbidden = frozenset(
        Pattern(group, shape, sym)
        for sym in iproduct((0, 1), repeat=len(shape))
        if len(set(sym)) > 1
    )
    return SftSpec(group, BINARY, shape, forbidden)


def golden_mean_like_spec(group: FiniteGroup) -> SftSpec:
    """Forbid adjacent ones on {identity, element 1}."""
    shape = tuple(sorted({group.identity, 1}))
    return SftSpec(group, BINARY, shape, frozenset({Pattern(group, shape, (1,) * len(shape))}))


def empty_spec(group: FiniteGroup) -> SftSpec:
    """The full binary shift: nothing forbidden."""
    return SftSpec(group, BINARY, (group.identity,), frozenset())


def random_sft_spec(group: FiniteGroup, rng: random.Random) -> SftSpec:
    """A seeded random binary spec that always keeps the all-zero point.

    The all-zero pattern is never forbidden, so the enumerated space is
    nonempty and entropy is defined.
    """
    size = rng.randint(1, min(3, group.order))
    shape = tuple(sorted(rng.sample(range(group.order), size)))
    candidates = [
        sym for sym in iproduct((0, 1), repeat=size) if any(sym)
    ]
    chosen = [sym for sym in candidates if rng.random() < 0.4]
    forbidden = frozenset(Pattern(group, shape, sym) for sym in chosen)
    return SftSpec(group, BINARY, shape, forbidden)


def standard_specs() -> list[tuple[str, SftSpec]]:
    """The named fixture SFT specs used across the suites."""
    z2, z4, z5 = cyclic(2), cyclic(4), cyclic(5)
    v4 = klein()
    return [
        ("full2_z2", empty_spec(z2)),
        ("full2_z4", empty_spec(z4)),
        ("two_z2", two_point_spec(z2)),
        ("two_z4", two_point_spec(z4)),
        ("two_klein", two_point_spec(v4)),
        ("golden_z2", golden_mean_like_spec(z2)),
        ("golden_z4", golden_mean_like_spec(z4)),
        ("golden_z5", golden_mean_like_spec(z5)),
    ]
