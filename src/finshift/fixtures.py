"""Built-in desk-scale fixtures shared by the verification suites and tests."""

from __future__ import annotations

import random
from itertools import permutations
from itertools import product as iproduct

from .groups import FiniteGroup, GroupTower, build_tower, cyclic, from_table, product
from .patterns import BINARY, Pattern
from .shiftspace import SftSpec


def klein() -> FiniteGroup:
    return product(cyclic(2), cyclic(2))


def _permutation_group(degree: int, gens) -> FiniteGroup:
    """The group of permutations of ``range(degree)`` generated by ``gens``,
    indexed in sorted order (identity first); ``a * b`` applies ``a``
    first."""
    identity = tuple(range(degree))
    elems, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            pq = tuple(q[p[x]] for x in range(degree))
            if pq not in elems:
                elems.add(pq)
                frontier.append(pq)
    elems = sorted(elems)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(q[p[x]] for x in range(degree))] for q in elems] for p in elems]
    return from_table(table)


def symmetric3() -> FiniteGroup:
    """S3, all permutations of three points; its order-2 subgroups are not
    normal."""
    return _permutation_group(3, [(1, 2, 0), (1, 0, 2)])


def dihedral4() -> FiniteGroup:
    """D4, the eight symmetries of a square acting on its corners 0..3."""
    return _permutation_group(4, [(1, 2, 3, 0), (0, 3, 2, 1)])


def alternating4() -> FiniteGroup:
    """A4, the even permutations of four points, generated by a 3-cycle
    and a double transposition; it has no subgroup of order 6."""
    return _permutation_group(4, [(1, 2, 0, 3), (1, 0, 3, 2)])


def quaternion() -> FiniteGroup:
    """Q8 in its regular representation: points 0..7 stand for 1, i, j, k,
    -1, -i, -j, -k, and the generators are left multiplication by i and by
    j.  Every subgroup is normal, yet the group is not abelian."""
    return _permutation_group(8, [(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)])


def cyclic_doubling_tower(depth: int) -> GroupTower:
    """Z/2 -> Z/4 -> ... with each step doubling via i -> 2i."""
    levels = [cyclic(2 ** k) for k in range(1, depth + 1)]
    embeddings = [
        tuple(2 * i for i in range(levels[k].order)) for k in range(depth - 1)
    ]
    return build_tower(levels, embeddings)


def symmetric_tower(depth: int) -> GroupTower:
    """S1 -> S2 -> ... -> S_depth, the finitary symmetric group at desk
    scale.  S_n embeds in S_{n+1} as the permutations that fix the last
    point, a subgroup that is not normal for n >= 2."""
    levels, elements = [], []
    for n in range(1, depth + 1):
        gens = [(*range(1, n), 0), (1, 0, *range(2, n))] if n > 1 else []
        levels.append(_permutation_group(n, gens))
        # _permutation_group indexes in sorted order, which is the order
        # permutations() lists them in
        elements.append(list(permutations(range(n))))
    embeddings = []
    for n in range(1, depth):
        index = {p: i for i, p in enumerate(elements[n])}
        embeddings.append(tuple(index[(*p, n)] for p in elements[n - 1]))
    return build_tower(levels, embeddings)


def two_point_spec(group: FiniteGroup) -> SftSpec:
    """Only the constant configurations survive: forbid every non-constant
    binary pattern on {identity, element 1}."""
    shape = tuple(sorted({group.identity, 1}))
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
