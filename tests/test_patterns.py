"""Alphabets, patterns and configuration shifts, and every reindexing
through a picker against per-cell reference code."""

import re
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finshift.dynprops import automorphism_group
from finshift.errors import InputError
from finshift.fixtures import dihedral4, klein, quaternion, symmetric3
from finshift.freext import assemble, disassemble, extension_context, free_extension
from finshift.groups import cyclic, product, subgroups_and_closures
from finshift.patterns import Alphabet, Pattern, picker, shift_config
from finshift.shiftspace import ShiftSpace, is_shift_invariant, orbits, shift_permutations


def test_alphabet_validation():
    assert Alphabet(("a", "b", "c")).size == 3
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet(("a", "a"))


def test_pattern_validation():
    g = cyclic(4)
    w = Pattern(g, (0, 2), (1, 0))
    assert w.as_dict() == {0: 1, 2: 0}
    with pytest.raises(InputError):
        Pattern(g, (2, 0), (1, 0))  # not increasing
    with pytest.raises(InputError):
        Pattern(g, (0, 5), (1, 0))  # outside the group
    with pytest.raises(InputError):
        Pattern(g, (0,), (1, 0))  # length mismatch


def shift_pattern(group, g, assignment):
    """Oracle for :func:`shift_config`: shift a pattern given as a dict
    {cell: symbol} by ``g``; the symbol at f moves to f*g^-1."""
    ginv = group.inv[g]
    return {group.mul[f][ginv]: s for f, s in assignment.items()}


SHIFT_GROUPS = [cyclic(6), symmetric3(), dihedral4()]


def _config_and_two_elements():
    return st.sampled_from(SHIFT_GROUPS).flatmap(
        lambda G: st.tuples(
            st.just(G),
            st.tuples(*[st.integers(0, 1) for _ in range(G.order)]),
            st.integers(0, G.order - 1),
            st.integers(0, G.order - 1),
        )
    )


@settings(deadline=None)
@given(_config_and_two_elements())
def test_shift_config_composition(case):
    # on the nonabelian groups a shift taken on the wrong side breaks the law
    G, config, g, h = case
    assert shift_config(G, g, shift_config(G, h, config)) == shift_config(
        G, G.mul[g][h], config
    )


@settings(deadline=None)
@given(_config_and_two_elements())
def test_shift_config_matches_shift_pattern(case):
    G, config, g, _ = case
    shifted = shift_pattern(G, g, dict(enumerate(config)))
    assert shift_config(G, g, config) == tuple(shifted[h] for h in G.elements())


@pytest.mark.parametrize("g, config, message", [
    (9, (0, 1, 0, 1), "cannot shift 4 cells by 9 in a group of 4"),
    (-1, (0, 1, 0, 1), "cannot shift 4 cells by -1 in a group of 4"),
    (1.0, (0, 1, 0, 1), "cannot shift 4 cells by 1.0 in a group of 4"),
    (1, (0, 1), "cannot shift 2 cells by 1 in a group of 4"),
    (1, (0, 1, 0, 1, 0), "cannot shift 5 cells by 1 in a group of 4"),
])
def test_shift_config_refuses_elements_and_configurations_outside_the_group(g, config, message):
    # 9 and the short configuration once raised IndexError; -1 wrapped
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        shift_config(cyclic(4), g, config)


def test_coset_family_validation():
    # a coset family is a plain tuple of base configurations, one per coset;
    # assemble checks the member count and each member's length
    ctx = extension_context(cyclic(4), cyclic(2), (0, 2))
    assert assemble(ctx, ((0, 1), (1, 1))) == (0, 1, 1, 1)
    with pytest.raises(InputError, match="coset"):
        assemble(ctx, ((0, 1),))
    with pytest.raises(InputError, match="member"):
        assemble(ctx, ((0, 1, 0), (1, 1)))


# Per-cell reference code: each reads a configuration one cell at a time,
# as the library did before it read them through pickers.

def shift_by_cells(group, g, config):
    return tuple(config[group.mul[h][g]] for h in range(group.order))


def shift_permutations_by_cells(y):
    configs = sorted(y.configs)
    pos = {c: i for i, c in enumerate(configs)}
    return [tuple(pos[shift_by_cells(y.group, g, c)] for c in configs)
            for g in y.group.elements()]


def orbits_by_cells(y):
    remaining, parts = set(y.configs), []
    while remaining:
        orb = frozenset(shift_by_cells(y.group, g, min(remaining)) for g in y.group.elements())
        parts.append(orb)
        remaining -= orb
    return sorted(parts, key=min)


def is_shift_invariant_by_cells(y):
    return all(shift_by_cells(y.group, g, x) in y.configs
               for x in y.configs for g in y.group.elements())


def assemble_by_cells(ctx, fam):
    return tuple(fam[i][j] for i, j in zip(ctx.coset_of, ctx.base_pos))


def disassemble_by_cells(ctx, config):
    mul = ctx.ambient.mul
    return tuple(tuple(config[mul[h][c]] for h in ctx.base_embed) for c in ctx.reps)


def composition_by_cells(autos):
    index = {p: i for i, p in enumerate(autos)}
    return tuple(tuple(index[tuple(p[x] for x in q)] for q in autos) for p in autos)


# cyclic, product and nonabelian groups; Z/1 gives one-cell configurations,
# the picker's one-index case
REINDEX_GROUPS = [cyclic(1), cyclic(2), cyclic(5), product(cyclic(2), cyclic(3)), klein(),
                  symmetric3(), dihedral4(), quaternion(), product(symmetric3(), cyclic(2))]
# every subgroup inclusion of the groups, the trivial and the whole group too
REINDEX_CONTEXTS = [extension_context(g, *sub.as_group())
                    for g in REINDEX_GROUPS for sub in subgroups_and_closures(g)[0]]


@st.composite
def point_sets(draw, groups=REINDEX_GROUPS, most=3, closed=st.booleans()):
    """A set of configurations on a drawn group: a few drawn ones, or when
    ``closed`` draws true, their shift closure, a shift space.  Zero and
    one point are drawn often; the empty space reads through the picker of
    no index, in the composition table of its one automorphism."""
    group = draw(st.sampled_from(groups))
    k = draw(st.integers(1, 3))
    config = st.tuples(*[st.integers(0, k - 1)] * group.order)
    seeds = draw(st.lists(config, max_size=draw(st.sampled_from([0, 1, most]))))
    configs = set(seeds)
    if draw(closed):
        configs = {shift_by_cells(group, g, x) for x in seeds for g in group.elements()}
    return ShiftSpace(group, Alphabet(tuple("abc"[:k])), frozenset(configs))


def test_a_picker_reads_its_indices_in_order():
    t = ("a", "b", "c", "d")
    assert picker([])(t) == () and picker([2])(t) == ("c",)
    assert picker((3, 0, 3))(t) == ("d", "a", "d") and picker(range(4))(t) == t


@settings(deadline=None, max_examples=200, derandomize=True)
@given(point_sets())
@example(ShiftSpace(cyclic(1), Alphabet(("a",)), frozenset()))
@example(ShiftSpace(cyclic(1), Alphabet(("a",)), frozenset({(0,)})))
@example(ShiftSpace(symmetric3(), Alphabet(("a", "b")), frozenset({(1, 0, 0, 0, 0, 0)})))
def test_shifts_read_through_pickers_as_cell_by_cell(y):
    for g in y.group.elements():
        for x in y.configs:
            assert shift_config(y.group, g, x) == shift_by_cells(y.group, g, x)
    assert is_shift_invariant(y) == is_shift_invariant_by_cells(y)
    if is_shift_invariant(y):
        assert shift_permutations(y) == shift_permutations_by_cells(y)
        assert orbits(y) == orbits_by_cells(y)


@settings(deadline=None, max_examples=120, derandomize=True)
@given(point_sets(groups=REINDEX_GROUPS[:6], most=2, closed=st.just(True)))
@example(ShiftSpace(cyclic(2), Alphabet(("a",)), frozenset()))
@example(ShiftSpace(cyclic(1), Alphabet(("a",)), frozenset({(0,)})))
def test_the_composition_table_reads_through_pickers_as_cell_by_cell(y):
    # two orbits of at most six points: at most 72 automorphisms
    aut = automorphism_group(y)
    assert aut.composition == composition_by_cells(aut.elements)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.sampled_from(REINDEX_CONTEXTS), st.integers(1, 3), st.randoms(use_true_random=False))
def test_assembly_reads_through_pickers_as_cell_by_cell(ctx, k, rng):
    # canonical or drawn coset representatives
    if rng.random() < 0.5:
        reps = [rng.choice([a for a, i in enumerate(ctx.coset_of) if i == c])
                for c in range(ctx.cosets)]
        ctx = extension_context(ctx.ambient, ctx.base_group, ctx.base_embed, reps)
    m = ctx.base_group.order
    fam = tuple(tuple(rng.randrange(k) for _ in range(m)) for _ in range(ctx.cosets))
    config = assemble(ctx, fam)
    assert config == assemble_by_cells(ctx, fam)
    assert disassemble(ctx, config) == disassemble_by_cells(ctx, config) == fam
    # a base space of 0, 1 or a few points, extended to every family
    points = rng.choice([0, 1, rng.randint(2, 4)])
    base = {tuple(rng.randrange(k) for _ in range(m)) for _ in range(points)}
    if len(base) ** ctx.cosets <= 4096:
        y = ShiftSpace(ctx.base_group, Alphabet(tuple("abc"[:k])), frozenset(base))
        want = {assemble_by_cells(ctx, f) for f in iproduct(sorted(base), repeat=ctx.cosets)}
        assert free_extension(y, ctx).configs == want
