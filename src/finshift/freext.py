"""Free extensions of shift spaces along subgroup inclusions and towers.

The core device is the bijection between coset-indexed families of base
configurations and configurations on the ambient group: ``assemble`` places
each family member on its coset (suitably translated) and ``disassemble``
reads the members back off.  ``family_action`` is the ambient-group action
on families that makes ``assemble`` equivariant: assembling the acted
family equals shifting the assembled configuration.  A family is a tuple of
base configurations, one per right coset, in coset order; assembly reads
the family flattened into one tuple, through one picker per context.
"""

from __future__ import annotations

from itertools import chain
from itertools import product as iproduct

from .errors import InputError, Record, ResourceError
from .groups import FiniteGroup, GroupTower, check_embedding
from .patterns import picker, shift_config
from .shiftspace import (
    DEFAULT_CANDIDATE_BUDGET,
    SftSpec,
    ShiftSpace,
    carry_spec,
    count_sft,
    enumerate_sft,
    project,
    shape_base,
    spec_from_space,
)


class ExtensionContext(Record):
    """Everything needed to extend shifts from a base group to an ambient one.

    ``base_embed[i]`` is the ambient element of base element ``i``.  The
    right cosets of the embedded base H are numbered by their least
    element, and ``reps[i]`` is the representative of coset ``i``.  Ambient
    element ``k`` lies in coset ``coset_of[k]`` and is base element
    ``base_pos[k]`` carried there: ``k = base_embed[base_pos[k]] *
    reps[coset_of[k]]``.
    """

    __slots__ = ("ambient", "base_group", "base_embed", "reps", "coset_of", "base_pos")

    def __init__(self, ambient: FiniteGroup, base_group: FiniteGroup,
                 base_embed: tuple[int, ...], reps: tuple[int, ...],
                 coset_of: tuple[int, ...], base_pos: tuple[int, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "base_group", base_group)
        object.__setattr__(self, "base_embed", base_embed)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "coset_of", coset_of)
        object.__setattr__(self, "base_pos", base_pos)

    @property
    def cosets(self) -> int:
        return len(self.reps)


def extension_context(
    ambient: FiniteGroup, base_group: FiniteGroup, base_embed, reps=None
) -> ExtensionContext:
    """Build a context from an injective homomorphism ``base_group -> ambient``,
    checked by :func:`groups.check_embedding`.

    ``reps`` optionally overrides the canonical (least-element) coset
    representatives: one element per coset, in coset order.
    """
    base_embed = tuple(base_embed)
    check_embedding((base_group, ambient), 0, base_embed)
    mul, inv = ambient.mul, ambient.inv
    coset_of = [-1] * ambient.order
    canonical = []
    for c in ambient.elements():
        if coset_of[c] < 0:  # c is the least element of a new coset H*c
            for h in base_embed:
                coset_of[mul[h][c]] = len(canonical)
            canonical.append(c)
    if reps is None:
        reps = tuple(canonical)
    else:
        reps = tuple(reps)
        if len(reps) != len(canonical):
            raise InputError(
                f"expected {len(canonical)} representatives, got {len(reps)}"
            )
        for i, r in enumerate(reps):
            if not (isinstance(r, int) and 0 <= r < ambient.order and coset_of[r] == i):
                raise InputError(f"representative {r} is not in coset {i}")
    pos = {a: i for i, a in enumerate(base_embed)}
    base_pos = tuple(pos[mul[k][inv[reps[i]]]] for k, i in enumerate(coset_of))
    return ExtensionContext(ambient, base_group, base_embed, reps, tuple(coset_of), base_pos)


def _check_family(ctx: ExtensionContext, fam) -> tuple:
    fam = tuple(fam)
    if len(fam) != ctx.cosets:
        raise InputError(f"expected one member per coset ({ctx.cosets}), got {len(fam)}")
    if any(len(m) != ctx.base_group.order for m in fam):
        raise InputError("family member is not a full base configuration")
    return fam


def family_action(ctx: ExtensionContext, g: int, fam) -> tuple:
    """Act on a coset family by an ambient element.

    Coset ``i`` receives the member of the coset that ``c*g`` lies in
    (c = ``reps[i]``), shifted inside the base by ``base_pos[c*g]``, the
    correction that keeps ``assemble`` equivariant.
    """
    fam = _check_family(ctx, fam)
    if not (0 <= g < ctx.ambient.order):
        raise InputError(f"{g} is not an element index")
    mul = ctx.ambient.mul
    return tuple(
        shift_config(ctx.base_group, ctx.base_pos[cg], fam[ctx.coset_of[cg]])
        for cg in (mul[c][g] for c in ctx.reps)
    )


def _placer(ctx: ExtensionContext):
    """The picker that assembles a flattened family: ambient element k
    reads member ``coset_of[k]`` at ``base_pos[k]``."""
    m = ctx.base_group.order
    return picker([i * m + j for i, j in zip(ctx.coset_of, ctx.base_pos)])


def assemble(ctx: ExtensionContext, fam):
    """Glue a coset family into a single ambient configuration.

    The restriction of the result to the coset with representative c is the
    member of that coset translated by c^-1: the value at ambient element k
    is member ``coset_of[k]`` read at ``base_pos[k]``.
    """
    fam = _check_family(ctx, fam)
    return _placer(ctx)(tuple(chain.from_iterable(fam)))


def disassemble(ctx: ExtensionContext, config) -> tuple:
    """Inverse of :func:`assemble`: member c reads the configuration at
    ``h * c``."""
    mul = ctx.ambient.mul
    if len(config) != ctx.ambient.order:
        raise InputError("configuration length must equal the ambient order")
    return tuple(picker([mul[h][c] for h in ctx.base_embed])(config) for c in ctx.reps)


def all_families(ctx: ExtensionContext, base_configs) -> list[tuple]:
    """Every assignment of one base configuration per coset, in coset-rep
    order."""
    return list(iproduct(sorted(base_configs), repeat=ctx.cosets))


def free_extension(
    y: ShiftSpace, ctx: ExtensionContext, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> ShiftSpace:
    """Extend a base shift to the ambient group: one independent copy of
    the base per coset, glued by :func:`assemble`."""
    if y.group != ctx.base_group:
        raise InputError("space is not defined on the context's base group")
    if len(y.configs) ** ctx.cosets > budget:
        raise ResourceError(
            f"extension would enumerate {len(y.configs)}^{ctx.cosets} "
            f"families, over budget {budget}"
        )
    # each family flattened into one tuple, member after member
    flat = map(tuple, map(chain.from_iterable, iproduct(sorted(y.configs), repeat=ctx.cosets)))
    return ShiftSpace(ctx.ambient, y.alphabet, frozenset(map(_placer(ctx), flat)))


def free_extension_spec(spec: SftSpec, ctx: ExtensionContext) -> SftSpec:
    """Reinterpret a base-group SFT spec over the ambient group.

    The forbidden patterns are unchanged as symbol data; only their shape
    is carried through the subgroup inclusion.  Enumerating the result
    agrees with extending the enumerated base.
    """
    if spec.group != ctx.base_group:
        raise InputError("spec is not defined on the context's base group")
    return carry_spec(spec, ctx.ambient, [ctx.base_embed[f] for f in spec.forbidden_shape])


class BaseExtractResult(Record):
    """Outcome of :func:`base_extract`.

    ``ok`` is False when re-extending the recovered spec fails to reproduce
    the input SFT, in which case ``witness`` is a configuration of the
    re-extension that is not in the input SFT.
    """

    __slots__ = ("ok", "spec", "witness")

    def __init__(self, ok: bool, spec: SftSpec | None, witness: tuple | None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "witness", witness)


def base_extract(
    spec: SftSpec, ctx: ExtensionContext, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> BaseExtractResult:
    """Recover a base-group SFT spec from an ambient one, by enumerating it
    on the shape's subgroup and counting.

    Let X be the spec's SFT on G, with shape F, and L = <H ∪ F·f0^-1>
    (:func:`shiftspace.shape_base`).  X is the free extension of X_L, so
    |X| = |X_L|^[G:L] and B = π_H(X) = π_H(X_L).  A shift-invariant X lies
    in the free extension of B, so it is free exactly when
    |X_L| = |B|^[L:H].  Only X_L is enumerated; ``budget`` bounds its
    enumeration nodes.

    The spec returned forbids the patterns missing from B on the folded
    shape E (each cell of F carried into the base along its coset).  It
    presents B whenever X is free.  The cells of a window F·g that lie in
    one coset are a right translate of part of E.  So if every E-window of
    a base configuration b occurs in B, each window of the assembled
    family (b, ..., b) agrees with some point of X, one point of B per
    coset; that configuration is in X, which puts b in B.

    When X is not free, ``witness`` is the first family of points of B on
    the cosets inside L, padded with min(B) on the others, whose assembly
    is not in X: it lies in the re-extension of the spec but not in X.
    """
    if spec.group != ctx.ambient:
        raise InputError("spec is not defined on the context's ambient group")
    embed, on_l = shape_base(spec, within=ctx.base_embed)
    x_l = enumerate_sft(on_l, budget=budget)
    pos = {a: i for i, a in enumerate(embed)}
    b = project(x_l, [pos[a] for a in ctx.base_embed])
    base = ShiftSpace(ctx.base_group, spec.alphabet, frozenset(b))
    found = spec_from_space(base, {ctx.base_pos[f] for f in spec.forbidden_shape})
    inside = [i for i, r in enumerate(ctx.reps) if r in pos]
    if len(x_l.configs) == len(base) ** len(inside):
        return BaseExtractResult(True, found, None)
    # assembled families are distinct, so at most |X_L| + 1 are tried; each
    # is flattened, its members in the order of ``inside``, and read on L
    slot, m = {i: s for s, i in enumerate(inside)}, ctx.base_group.order
    read_l = picker([slot[ctx.coset_of[a]] * m + ctx.base_pos[a] for a in embed])
    for members in iproduct(sorted(base.configs), repeat=len(inside)):
        if read_l(tuple(chain.from_iterable(members))) not in x_l.configs:
            fam = [min(base.configs)] * ctx.cosets
            for i, member in zip(inside, members):
                fam[i] = member
            return BaseExtractResult(False, found, assemble(ctx, fam))


def tower_context(tower: GroupTower, i: int, j: int) -> ExtensionContext:
    """Context extending tower level ``i`` directly into level ``j``."""
    embed = tower.embed_up(i, j)  # checks 0 <= i <= j < len(levels) first
    return extension_context(tower.levels[j], tower.levels[i], embed)


def _check_levels(group: FiniteGroup, tower: GroupTower, i: int, j: int) -> None:
    tower.embed_up(i, j)  # checks 0 <= i <= j < len(levels) before indexing
    if group != tower.levels[i]:
        raise InputError("space is not defined on the requested tower level")


def tower_extend(
    y: ShiftSpace,
    tower: GroupTower,
    i: int,
    j: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> ShiftSpace:
    """Extend level by level from tower level ``i`` up to level ``j``.

    Composing one-step extensions equals the direct extension; both are
    exercised against each other in the test suite.
    """
    _check_levels(y.group, tower, i, j)
    current = y
    for k in range(i, j):
        ctx = tower_context(tower, k, k + 1)
        current = free_extension(current, ctx, budget=budget)
    return current


def tower_extension_count(
    spec: SftSpec,
    tower: GroupTower,
    i: int,
    j: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> int:
    """Size of the extension of the spec's SFT from tower level ``i`` to
    level ``j``: one independent base configuration per coset, so
    ``|Y| ** [G_j : G_i]``, with |Y| from :func:`count_sft`.  Nothing is
    enumerated; ``budget`` bounds the count's states."""
    _check_levels(spec.group, tower, i, j)
    index = tower.levels[j].order // tower.levels[i].order
    return count_sft(spec, budget=budget) ** index
