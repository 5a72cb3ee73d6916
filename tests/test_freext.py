"""Free extensions: the family action, assembly bijection, extension and
base extraction."""

import inspect
import random
from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finshift import freext
from finshift.errors import FinshiftError, InputError, ResourceError
from finshift.fixtures import (
    alternating4,
    cyclic_doubling_tower,
    dihedral4,
    golden_mean_like_spec,
    klein,
    quaternion,
    random_sft_spec,
    standard_specs,
    symmetric3,
    symmetric_tower,
    two_point_spec,
)
from finshift.freext import (
    BaseExtractResult,
    all_families,
    assemble,
    base_extract,
    disassemble,
    extension_context,
    family_action,
    free_extension,
    free_extension_spec,
    tower_context,
    tower_extend,
)
from finshift.groups import cyclic, product, subgroups_and_closures, z2_power_tower
from finshift.patterns import BINARY, Alphabet, Pattern, picker, shift_config
from finshift.shiftspace import (
    DEFAULT_CANDIDATE_BUDGET,
    SftSpec,
    ShiftSpace,
    count_sft,
    enumerate_sft,
    project,
    spec_from_space,
)


def _klein_ctx():
    t = z2_power_tower(2)
    return extension_context(t.levels[1], t.levels[0], t.embeddings[0])


def _z2_in_z4_ctx(reps=None):
    return extension_context(cyclic(4), cyclic(2), (0, 2), reps=reps)


def _non_normal(g, order):
    """The first subgroup of ``g`` of the given order that is not normal."""
    return next(
        sub for sub in subgroups_and_closures(g)[0]
        if sub.order == order
        and any(g.mul[g.mul[g.inv[a]][h]][a] not in sub.members
                for a in g.elements() for h in sub.members)
    )


# an order-2 subgroup of S3, a reflection subgroup of D4 and an order-3
# subgroup of A4: none is normal, so left and right cosets differ
NON_NORMAL = [_non_normal(symmetric3(), 2), _non_normal(dihedral4(), 2),
              _non_normal(alternating4(), 3)]


def _non_normal_ctx(sub, reps=None):
    return extension_context(sub.parent, *sub.as_group(), reps=reps)


def _coset(ctx, i):
    return [k for k, j in enumerate(ctx.coset_of) if j == i]


def test_context_shape():
    ctx = _z2_in_z4_ctx()
    assert ctx.cosets == 2
    assert ctx.base_embed == (0, 2)


def test_context_numbers_cosets_by_least_element():
    ctx = _z2_in_z4_ctx()
    assert ctx.reps == (0, 1)
    assert ctx.coset_of == (0, 1, 0, 1)
    assert ctx.base_pos == (0, 0, 1, 1)
    for sub in NON_NORMAL:
        ctx = _non_normal_ctx(sub)
        assert ctx.reps == tuple(min(_coset(ctx, i)) for i in range(ctx.cosets))
        assert list(ctx.reps) == sorted(ctx.reps)
        assert ctx.cosets == sub.parent.order // sub.order


def test_context_reps_override():
    ctx = _z2_in_z4_ctx(reps=(2, 3))
    assert ctx.reps == (2, 3)
    assert ctx.coset_of == (0, 1, 0, 1)
    assert ctx.base_pos == (1, 1, 0, 0)
    for reps in [(1, 0), (0,), (0, 1, 3), (0, 7), (-4, 1), (0, 1.0)]:
        with pytest.raises(InputError, match="representative"):
            _z2_in_z4_ctx(reps=reps)


def test_context_rejects_an_embedding_that_moves_the_identity():
    with pytest.raises(FinshiftError, match="homomorphism"):
        extension_context(cyclic(4), cyclic(2), (2, 0))


def test_context_rejects_an_embedding_with_too_few_images():
    with pytest.raises(FinshiftError, match="does not divide"):
        extension_context(cyclic(4), cyclic(3), (0, 2))
    with pytest.raises(FinshiftError, match="total"):
        extension_context(cyclic(4), cyclic(2), (0,))


def test_context_accepts_only_injective_homomorphisms():
    z3, z6 = cyclic(3), cyclic(6)
    for embed in [(0, 2, 4), (0, 4, 2)]:
        assert extension_context(z6, z3, embed).cosets == 2
    # not closed, missing the identity, outside the ambient, not injective
    for embed in [(0, 3, 4), (1, 2, 0), (0, 2, 7), (0, 0, 0)]:
        with pytest.raises(FinshiftError):
            extension_context(z6, z3, embed)


# every subgroup of S3, D4, A4 and Q8; those of Q8 are all normal
COORDINATE_CONTEXTS = [
    extension_context(g, *sub.as_group())
    for g in (symmetric3(), dihedral4(), alternating4(), quaternion())
    for sub in subgroups_and_closures(g)[0]
]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.sampled_from(COORDINATE_CONTEXTS), st.randoms(use_true_random=False))
def test_coset_coordinates_recover_every_element(canonical, rng):
    reps = tuple(rng.choice(_coset(canonical, i)) for i in range(canonical.cosets))
    ctx = extension_context(canonical.ambient, canonical.base_group,
                            canonical.base_embed, reps=reps)
    assert ctx.coset_of == canonical.coset_of
    mul = ctx.ambient.mul
    for k in ctx.ambient.elements():
        assert mul[ctx.base_embed[ctx.base_pos[k]]][ctx.reps[ctx.coset_of[k]]] == k


def test_assemble_disassemble_round_trip():
    ctx = _klein_ctx()
    for fam in all_families(ctx, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        config = assemble(ctx, fam)
        assert disassemble(ctx, config) == fam


def test_assemble_is_a_bijection():
    ctx = _z2_in_z4_ctx()
    images = {
        assemble(ctx, fam)
        for fam in all_families(ctx, [(0, 0), (0, 1), (1, 0), (1, 1)])
    }
    assert len(images) == 16


def test_family_action_is_equivariant():
    ctx = _klein_ctx()
    cases = [(ctx, all_families(ctx, [(0, 0), (0, 1), (1, 0), (1, 1)]))]
    rng = random.Random(4)
    for sub in NON_NORMAL:
        ctx = _non_normal_ctx(sub)
        configs = list(iproduct((0, 1), repeat=sub.order))
        cases.append((ctx, rng.sample(all_families(ctx, configs), 40)))
    for ctx, fams in cases:
        for fam in fams:
            for g in ctx.ambient.elements():
                assert assemble(ctx, family_action(ctx, g, fam)) == shift_config(
                    ctx.ambient, g, assemble(ctx, fam)
                )


def test_family_action_moves_members_between_cosets():
    # in Z/4 over {0, 2}, acting by 1 swaps the cosets; the member moving
    # into coset 1 is shifted by base element 1 (ambient 2)
    ctx = _z2_in_z4_ctx()
    assert family_action(ctx, 1, ((0, 1), (1, 1))) == ((1, 1), (1, 0))
    assert family_action(ctx, 2, ((0, 1), (1, 1))) == ((1, 0), (1, 1))


def test_family_action_composition():
    cases = [(_z2_in_z4_ctx(), all_families(_z2_in_z4_ctx(), [(0, 1), (1, 0)]))]
    ambient = product(cyclic(4), cyclic(2))
    cases.append((extension_context(ambient, cyclic(2), (0, 2)), None))
    rng = random.Random(6)
    for sub in NON_NORMAL:
        reps = tuple(rng.choice(_coset(_non_normal_ctx(sub), i))
                     for i in range(sub.parent.order // sub.order))
        cases.append((_non_normal_ctx(sub, reps), None))
    for ctx, fams in cases:
        if fams is None:
            configs = list(iproduct((0, 1), repeat=ctx.base_group.order))
            fams = [tuple(rng.choice(configs) for _ in range(ctx.cosets))
                    for _ in range(3)]
        mul = ctx.ambient.mul
        for fam in fams:
            for g in ctx.ambient.elements():
                for h in ctx.ambient.elements():
                    assert (family_action(ctx, g, family_action(ctx, h, fam))
                            == family_action(ctx, mul[g][h], fam))


def test_family_of_the_wrong_shape_is_rejected():
    ctx = _z2_in_z4_ctx()
    assert assemble(ctx, ((0, 1), (1, 1))) == (0, 1, 1, 1)
    for fam in [((0, 1),), ((0, 1), (1, 1), (0, 0)), ((0, 1, 0), (1, 1)), ((0,), (1, 1))]:
        with pytest.raises(InputError, match="member"):
            assemble(ctx, fam)
        with pytest.raises(InputError, match="member"):
            family_action(ctx, 1, fam)
    with pytest.raises(InputError, match="element index"):
        family_action(ctx, 4, ((0, 1), (1, 1)))


def test_mismatched_decomposition_rejected():
    # a family built for another decomposition has the wrong member count
    # (Z/2 in Z/6 has three cosets) or member length (Z/4 in Z/8)
    ctx = _z2_in_z4_ctx()
    for other in [extension_context(cyclic(6), cyclic(2), (0, 3)),
                  extension_context(cyclic(8), cyclic(4), (0, 2, 4, 6))]:
        fam = all_families(other, [(0,) * other.base_group.order])[0]
        with pytest.raises(InputError, match="member"):
            family_action(ctx, 1, fam)
        with pytest.raises(InputError, match="member"):
            assemble(ctx, fam)


def test_free_extension_cardinality():
    ctx = _z2_in_z4_ctx()
    y = enumerate_sft(golden_mean_like_spec(cyclic(2)))
    ext = free_extension(y, ctx)
    assert len(ext.configs) == len(y.configs) ** 2
    with pytest.raises(ResourceError):
        free_extension(y, ctx, budget=2)
    with pytest.raises(InputError):
        free_extension(enumerate_sft(golden_mean_like_spec(cyclic(4))), ctx)


def test_spec_route_equals_space_route():
    ctx = _klein_ctx()
    cases = [(ctx, spec) for _, spec in standard_specs() if spec.group.order == 2]
    rng = random.Random(5)
    for sub in NON_NORMAL:
        ctx = _non_normal_ctx(sub)
        base = ctx.base_group
        cases += [(ctx, golden_mean_like_spec(base)), (ctx, two_point_spec(base))]
        cases += [(ctx, random_sft_spec(base, rng)) for _ in range(5)]
    for ctx, spec in cases:
        via_spec = enumerate_sft(free_extension_spec(spec, ctx))
        via_space = free_extension(enumerate_sft(spec), ctx)
        assert via_spec.configs == via_space.configs, (ctx.ambient, spec)


def test_extension_independent_of_representatives():
    y = enumerate_sft(golden_mean_like_spec(cyclic(2)))
    reference = free_extension(y, _z2_in_z4_ctx()).configs
    for reps in [(0, 1), (0, 3), (2, 1), (2, 3)]:
        assert free_extension(y, _z2_in_z4_ctx(reps=reps)).configs == reference
    for sub in NON_NORMAL:
        ctx = _non_normal_ctx(sub)
        y = enumerate_sft(golden_mean_like_spec(ctx.base_group))
        reference = free_extension(y, ctx).configs
        choices = [_coset(ctx, i) for i in range(ctx.cosets)]
        for reps in iproduct(*choices):
            assert free_extension(y, _non_normal_ctx(sub, reps)).configs == reference


def test_base_extract_round_trip_on_fixtures():
    ctx = _klein_ctx()
    for name, spec in standard_specs():
        if spec.group.order != 2:
            continue
        result = base_extract(free_extension_spec(spec, ctx), ctx)
        assert result.ok, name
        recovered = enumerate_sft(result.spec)
        assert recovered.configs == enumerate_sft(spec).configs, name


def test_base_extract_round_trip_on_an_unsorted_embedding():
    # Z/4 into Z/8 by 1 -> 6: base element i sits at 6i, so the projection
    # reads the base cells in embedding order 0, 6, 4, 2.  Read sorted, the
    # base would be reflected by i -> -i, which fixes every binary space on
    # Z/4; the ternary space without 01 (it has 0 2 1 0, not 0 1 2 0) moves.
    ctx = extension_context(cyclic(8), cyclic(4), (0, 6, 4, 2))
    rng = random.Random(8)
    specs = [spec for _, spec in standard_specs() if spec.group == ctx.base_group]
    specs += [random_sft_spec(ctx.base_group, rng) for _ in range(20)]
    ternary = Alphabet(("0", "1", "2"))
    no_01 = Pattern(ctx.base_group, (0, 1), (0, 1))
    specs.append(SftSpec(ctx.base_group, ternary, (0, 1), frozenset({no_01})))
    for spec in specs:
        result = base_extract(free_extension_spec(spec, ctx), ctx)
        assert result.ok, spec
        assert enumerate_sft(result.spec).configs == enumerate_sft(spec).configs, spec


def test_base_extract_detects_non_extension():
    # the golden mean space on Z/4 is not a free extension over {0,2}:
    # coordinates 0 and 2 are correlated through the forbidden pairs
    ctx = _z2_in_z4_ctx()
    spec = golden_mean_like_spec(cyclic(4))
    result = base_extract(spec, ctx)
    assert not result.ok
    redone = enumerate_sft(free_extension_spec(result.spec, ctx)).configs
    assert result.witness in redone
    assert result.witness not in enumerate_sft(spec).configs


def test_base_extract_takes_a_spec_on_the_ambient_group():
    ctx = _z2_in_z4_ctx()
    with pytest.raises(InputError, match="ambient"):
        base_extract(golden_mean_like_spec(cyclic(2)), ctx)
    # the shape comes from the spec, which range-checks it, so no cell
    # can wrap around (-1) or run past the group (9)
    for cell in (-1, 9):
        with pytest.raises(InputError, match="outside the group"):
            SftSpec(cyclic(4), BINARY, (0, cell), frozenset())
    for name, fn in inspect.getmembers(freext, inspect.isfunction):
        if fn.__module__ == freext.__name__ and not name.startswith("_"):
            assert not any("shape" in p for p in inspect.signature(fn).parameters), name


def base_extract_by_placements(x, spec_shape, ctx, budget=DEFAULT_CANDIDATE_BUDGET):
    """Oracle for :func:`base_extract`: fold the shape into the base (E),
    re-spread it over the touched cosets (the hat shape), forbid a base
    pattern exactly when every hat placement of it is forbidden in ``x``,
    and check by enumerating the re-extension.  It forbids the empty
    pattern when the shape is empty, so it is compared on nonempty shapes."""
    G = ctx.ambient
    F = tuple(sorted(set(spec_shape)))
    touched = sorted({ctx.coset_of[f] for f in F})
    reps0 = [ctx.reps[i] for i in touched]
    e_amb = sorted({G.mul[f][G.inv[ctx.reps[ctx.coset_of[f]]]] for f in F})
    hat = tuple(sorted({G.mul[h][c] for h in e_amb for c in reps0}))
    bad_hat = {w.symbols for w in spec_from_space(x, hat).forbidden}
    e_base = tuple(sorted(ctx.base_embed.index(a) for a in e_amb))
    lookup = {amb: i for i, amb in enumerate(e_amb)}
    # placements[c][j] = position in hat of E-cell j pushed onto coset c
    placements = [tuple(hat.index(G.mul[h][c]) for h in e_amb) for c in reps0]
    free_cells = [[j for j in range(len(hat)) if j not in set(p)] for p in placements]
    k = x.alphabet.size
    forbidden = set()
    for sym in iproduct(range(k), repeat=len(e_amb)):
        all_bad = True
        for p, free in zip(placements, free_cells):
            fixed = [0] * len(hat)
            for j, s in zip(p, sym):
                fixed[j] = s
            placed_ok = False
            for fill in iproduct(range(k), repeat=len(free)):
                for j, s in zip(free, fill):
                    fixed[j] = s
                if tuple(fixed) not in bad_hat:
                    placed_ok = True
                    break
            if placed_ok:
                all_bad = False
                break
        if all_bad:
            base_sym = tuple(sym[lookup[ctx.base_embed[b]]] for b in e_base)
            forbidden.add(Pattern(ctx.base_group, e_base, base_sym))
    spec = SftSpec(ctx.base_group, x.alphabet, e_base, frozenset(forbidden))
    redone = enumerate_sft(free_extension_spec(spec, ctx), budget=budget)
    if redone.configs != x.configs:
        return BaseExtractResult(False, spec, sorted(redone.configs ^ x.configs)[0])
    return BaseExtractResult(True, spec, None)


# every proper nontrivial subgroup, abelian and not, normal and not
EXTRACT_CONTEXTS = [
    extension_context(g, *sub.as_group())
    for g in (cyclic(4), cyclic(6), klein(), symmetric3(), dihedral4(), alternating4())
    for sub in subgroups_and_closures(g)[0]
    if 1 < sub.order < g.order
]


def test_base_extract_matches_the_placement_oracle():
    verdicts = Counter()

    @settings(deadline=None, max_examples=250, derandomize=True)
    @given(st.sampled_from(EXTRACT_CONTEXTS), st.booleans(), st.booleans(),
           st.randoms(use_true_random=False))
    def check(ctx, lift, own_shape, rng):
        if lift:
            spec = free_extension_spec(random_sft_spec(ctx.base_group, rng), ctx)
        else:
            spec = random_sft_spec(ctx.ambient, rng)
        x = enumerate_sft(spec)
        if not own_shape:  # a larger shape, which presents x all the same
            extra = rng.sample(range(ctx.ambient.order), rng.randint(1, 3))
            spec = spec_from_space(x, {*spec.forbidden_shape, *extra})
        got = base_extract(spec, ctx)
        want = base_extract_by_placements(x, spec.forbidden_shape, ctx)
        assert got.ok == want.ok
        # a shift-invariant x has every placement of p forbidden exactly
        # when p is missing from its projection, so the specs agree always
        assert got.spec == want.spec
        projection = {tuple(c[a] for a in ctx.base_embed) for c in x.configs}
        free = len(x.configs) == len(projection) ** ctx.cosets
        if not got.ok:
            redone = enumerate_sft(free_extension_spec(got.spec, ctx)).configs
            assert got.witness in redone and got.witness not in x.configs
        verdicts[got.ok, free] += 1

    check()
    # both verdicts; the spec presents x, so a free x is always recovered
    assert set(verdicts) == {(True, True), (False, False)}, verdicts


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.sampled_from(EXTRACT_CONTEXTS), st.booleans(), st.randoms(use_true_random=False))
def test_the_folded_spec_presents_the_projection_of_a_free_sft(ctx, lift, rng):
    # base_extract decides by counting alone: when x is free, the spec
    # forbidding what its projection B lacks on the folded shape is B's
    if lift:
        spec = free_extension_spec(random_sft_spec(ctx.base_group, rng), ctx)
    else:
        spec = random_sft_spec(ctx.ambient, rng)
    x = enumerate_sft(spec)
    projection = project(x, ctx.base_embed)
    result = base_extract(spec, ctx)
    assert result.ok == (len(x.configs) == len(projection) ** ctx.cosets)
    if result.ok:
        assert enumerate_sft(result.spec).configs == projection


# S1, S2 and S3 inside S2, S3 and S4 as the permutations fixing the last
# points; the placement oracle enumerates the ambient space
SYMMETRIC = symmetric_tower(4)
SYMMETRIC_CONTEXTS = [tower_context(SYMMETRIC, i, j) for j in (1, 2, 3) for i in range(j)]


def coupled(x, ctx, rng):
    """The points of ``x`` that carry no drawn pair of symbols on a window
    of {e, b}, b outside the base, and that shape: the cosets of e and b
    are no longer independent, so the result is seldom a free extension."""
    g = ctx.ambient
    b = rng.choice([a for a in g.elements() if a not in ctx.base_embed])
    pair = (rng.randrange(2), rng.randrange(2))
    windows = [picker(w) for w in zip(g.mul[g.identity], g.mul[b])]
    kept = frozenset(p for p in x.configs if all(w(p) != pair for w in windows))
    return ShiftSpace(g, x.alphabet, kept), (g.identity, b)


def test_base_extract_along_the_symmetric_tower():
    verdicts = Counter()

    def compare(ctx, spec, x):
        got = base_extract(spec, ctx)
        want = base_extract_by_placements(x, spec.forbidden_shape, ctx)
        assert (got.ok, got.spec) == (want.ok, want.spec)
        if not got.ok:
            redone = enumerate_sft(free_extension_spec(got.spec, ctx)).configs
            assert got.witness in redone and got.witness not in x.configs
        verdicts[ctx.ambient.order, got.ok] += 1

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(st.sampled_from(SYMMETRIC_CONTEXTS), st.booleans(),
           st.randoms(use_true_random=False))
    def check(ctx, lift, rng):
        if lift:
            spec = free_extension_spec(random_sft_spec(ctx.base_group, rng), ctx)
        else:
            spec = random_sft_spec(ctx.ambient, rng)
        # small enough for the oracle to enumerate x and its re-extension
        assume(count_sft(spec) <= 4096)
        x = enumerate_sft(spec)
        assume(len(project(x, ctx.base_embed)) ** ctx.cosets <= 4096)
        compare(ctx, spec, x)

    check()
    assert verdicts[24, True] >= 5 and verdicts[6, False] >= 1, verdicts
    # non-free SFTs on S4 over S3, drawn on purpose: the only cases that
    # assemble a witness on a non-normal inclusion.  A lifted S3 spec
    # coupled across two cosets; the spec on the union of the two shapes
    # presents the intersection.
    ctx, rng = tower_context(SYMMETRIC, 2, 3), random.Random(1)
    for _ in range(20):
        spec = free_extension_spec(random_sft_spec(ctx.base_group, rng), ctx)
        if count_sft(spec) <= 4096:
            x, coupling = coupled(enumerate_sft(spec), ctx, rng)
            compare(ctx, spec_from_space(x, {*spec.forbidden_shape, *coupling}), x)
    assert verdicts[24, False] >= 5, verdicts


def test_base_extract_of_the_full_shift():
    # nothing is forbidden on an empty shape: the full shift is free
    for ctx in EXTRACT_CONTEXTS:
        result = base_extract(SftSpec(ctx.ambient, BINARY, (), frozenset()), ctx)
        assert result.ok
        assert result.spec.forbidden_shape == () and not result.spec.forbidden


def test_tower_extend_matches_direct():
    tower = cyclic_doubling_tower(3)
    rng = random.Random(7)
    for _ in range(5):
        y = enumerate_sft(random_sft_spec(tower.levels[0], rng))
        stepped = tower_extend(y, tower, 0, 2)
        direct = free_extension(y, tower_context(tower, 0, 2))
        assert stepped.configs == direct.configs


def test_tower_extend_level_check():
    tower = cyclic_doubling_tower(3)
    y = enumerate_sft(two_point_spec(cyclic(4)))
    with pytest.raises(InputError):
        tower_extend(y, tower, 0, 2)  # y lives on level 1, not level 0
