"""Free extensions of shift spaces along subgroup inclusions and towers.

The core device is the bijection between coset-indexed families of base
configurations and configurations on the ambient group: ``assemble`` places
each family member on its coset (suitably translated) and ``disassemble``
reads the members back off.  ``family_action`` is the ambient-group action
on families that makes ``assemble`` equivariant: assembling the acted
family equals shifting the assembled configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InputError, ResourceError
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    GroupTower,
    Subgroup,
    coset_action,
    right_cosets,
)
from .patterns import CosetFamily, Pattern, shift_config
from .shiftspace import (
    DEFAULT_CANDIDATE_BUDGET,
    SftSpec,
    ShiftSpace,
    count_sft,
    enumerate_sft,
    project,
    spec_from_space,
)


@dataclass(frozen=True)
class ExtensionContext:
    """Everything needed to extend shifts from a base group to an ambient one.

    ``base_embed[i]`` is the ambient element index of base element ``i``;
    the decomposition into right cosets of the embedded base
    (``decomposition.subgroup``) fixes the representatives that index
    families.
    """

    ambient: FiniteGroup
    base_group: FiniteGroup
    base_embed: tuple[int, ...]
    decomposition: CosetDecomposition

    @property
    def cosets(self) -> int:
        return self.decomposition.index


def extension_context(
    ambient: FiniteGroup, base_group: FiniteGroup, base_embed, reps=None
) -> ExtensionContext:
    """Build a context from an injective homomorphism ``base_group -> ambient``.

    ``reps`` optionally overrides the canonical coset representatives.
    """
    base_embed = tuple(base_embed)
    sub = Subgroup(ambient, tuple(sorted(base_embed)))
    dec = right_cosets(ambient, sub, reps=reps)
    return ExtensionContext(ambient, base_group, base_embed, dec)


def _base_lookup(ctx: ExtensionContext) -> dict[int, int]:
    return {amb: i for i, amb in enumerate(ctx.base_embed)}


def family_action(ctx: ExtensionContext, g: int, fam: CosetFamily) -> CosetFamily:
    """Act on a coset family by an ambient element.

    The member at coset c is replaced by the member from the coset c moves
    to, shifted inside the base by the correction element that keeps
    ``assemble`` equivariant.
    """
    if fam.decomposition != ctx.decomposition:
        raise InputError("family indexed by a different coset decomposition")
    perm, corrections = coset_action(ctx.decomposition, g)
    lookup = _base_lookup(ctx)
    members = []
    for i in range(ctx.cosets):
        corr = lookup[corrections[i]]
        members.append(shift_config(ctx.base_group, corr, fam.members[perm[i]]))
    return CosetFamily(ctx.decomposition, tuple(members))


def _placement(ctx: ExtensionContext) -> list[tuple[int, int]]:
    """Where each ambient element reads a coset family: element k reads
    member ``coset_of[k]`` at the base position of ``k * rep^-1``."""
    G = ctx.ambient
    dec = ctx.decomposition
    lookup = _base_lookup(ctx)
    return [
        (dec.coset_of[k], lookup[G.mul[k][G.inv[dec.reps[dec.coset_of[k]]]]])
        for k in G.elements()
    ]


def assemble(ctx: ExtensionContext, fam: CosetFamily):
    """Glue a coset family into a single ambient configuration.

    The restriction of the result to the coset with representative c is the
    member of that coset translated by c^-1; inverting the translation, the
    value at ambient element k is the member read at ``k * c^-1``.
    """
    if fam.decomposition != ctx.decomposition:
        raise InputError("family indexed by a different coset decomposition")
    return tuple(fam.members[i][j] for i, j in _placement(ctx))


def disassemble(ctx: ExtensionContext, config) -> CosetFamily:
    """Inverse of :func:`assemble`: member c reads the configuration at
    ``h * c``."""
    G = ctx.ambient
    if len(config) != G.order:
        raise InputError("configuration length must equal the ambient order")
    members = []
    for c in ctx.decomposition.reps:
        members.append(
            tuple(config[G.mul[h][c]] for h in ctx.base_embed)
        )
    return CosetFamily(ctx.decomposition, tuple(members))


def all_families(ctx: ExtensionContext, base_configs) -> list[CosetFamily]:
    """Every assignment of one base configuration per coset, in coset-rep
    order."""
    base_configs = sorted(base_configs)
    return [
        CosetFamily(ctx.decomposition, combo)
        for combo in iproduct(base_configs, repeat=ctx.cosets)
    ]


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
    placement = _placement(ctx)
    configs = frozenset(
        tuple(combo[i][j] for i, j in placement)
        for combo in iproduct(sorted(y.configs), repeat=ctx.cosets)
    )
    return ShiftSpace(ctx.ambient, y.alphabet, configs)


def free_extension_spec(spec: SftSpec, ctx: ExtensionContext) -> SftSpec:
    """Reinterpret a base-group SFT spec over the ambient group.

    The forbidden patterns are unchanged as symbol data; only their shape
    is carried through the subgroup inclusion.  Enumerating the result
    agrees with extending the enumerated base.
    """
    if spec.group != ctx.base_group:
        raise InputError("spec is not defined on the context's base group")
    amb_shape = [ctx.base_embed[f] for f in spec.forbidden_shape]
    order = sorted(range(len(amb_shape)), key=lambda i: amb_shape[i])
    new_shape = tuple(amb_shape[i] for i in order)
    lifted = frozenset(
        Pattern(ctx.ambient, new_shape, tuple(w.symbols[i] for i in order))
        for w in spec.forbidden
    )
    return SftSpec(ctx.ambient, spec.alphabet, new_shape, lifted)


@dataclass(frozen=True)
class BaseExtractResult:
    """Outcome of :func:`base_extract`.

    ``ok`` is False when re-extending the recovered spec fails to reproduce
    the input space, in which case ``witness`` is a configuration of the
    re-extension that is not in the input space.
    """

    ok: bool
    spec: SftSpec | None
    witness: tuple | None


def base_extract(
    x: ShiftSpace,
    spec_shape,
    ctx: ExtensionContext,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> BaseExtractResult:
    """Recover a base-group SFT spec from an extension, by projection and
    count.

    A shift-invariant ``x`` lies in the free extension of its projection B
    to the base (each coset's member, shifted back, is in B), so it is a
    free extension exactly when ``|x| = |B|^[G:H]``.  The spec forbids the
    patterns missing from B on the shape folded into the base coset by
    coset; B lies in its SFT, so it presents B exactly when
    :func:`count_sft` (``budget`` bounds its states) finds ``|B|`` points.
    Only a failed check builds a witness; the extension is not enumerated.
    """
    placement = _placement(ctx)
    e_base = {placement[f][1] for f in spec_shape}
    base = ShiftSpace(ctx.base_group, x.alphabet, frozenset(project(x, ctx.base_embed)))
    spec = spec_from_space(base, e_base)
    if len(x.configs) < len(base) ** ctx.cosets:
        # assembled families are distinct, so at most |x| + 1 are built
        families = iproduct(sorted(base.configs), repeat=ctx.cosets)
        assembled = (tuple(f[i][j] for i, j in placement) for f in families)
        witness = next(c for c in assembled if c not in x.configs)
        return BaseExtractResult(False, spec, witness)
    if count_sft(spec, budget=budget) != len(base):
        # a base point the spec allows but B lacks, on one coset
        extra = min(enumerate_sft(spec, budget=budget).configs - base.configs)
        members = (extra,) + (min(base.configs),) * (ctx.cosets - 1)
        return BaseExtractResult(False, spec, tuple(members[i][j] for i, j in placement))
    return BaseExtractResult(True, spec, None)


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
