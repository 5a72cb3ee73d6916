"""SFT enumeration, languages, orbits, subshifts and block codes."""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finshift.dynprops import measure_from_orbit_masses
from finshift.errors import InputError, ResourceError, ValidationError
from finshift.fixtures import (
    alternating4,
    dihedral4,
    golden_mean_like_spec,
    klein,
    quaternion,
    random_sft_spec,
    symmetric3,
    standard_specs,
    symmetric_tower,
    two_point_spec,
)
from finshift.freext import extension_context, free_extension_spec, tower_context
from finshift.groups import Subgroup, cyclic, product, subgroups_and_closures, z2_power_tower
from finshift.patterns import BINARY, Alphabet, Pattern, picker, shift_config
from finshift.shiftspace import (
    BlockMap,
    SftSpec,
    ShiftSpace,
    apply_block_code,
    count_sft,
    enumerate_hypergraph,
    enumerate_sft,
    enumerate_sft_naive,
    frontier_count,
    full_shift,
    is_shift_invariant,
    orbits,
    project,
    shape_base,
    shift_permutations,
    spec_from_space,
)
from finshift.zline import golden_mean_cyclic_count, golden_mean_spec
from test_dynprops import cylinder_entropy, cylinder_mass, enumerate_subshifts

PROJECTION_GROUPS = [cyclic(n) for n in range(2, 7)] + [klein(), symmetric3(), dihedral4()]
COUNT_GROUPS = [cyclic(n) for n in range(2, 9)] + [
    klein(), symmetric3(), dihedral4(), quaternion(), alternating4()
]


def test_spec_normalizes_shape():
    g = cyclic(4)
    spec = SftSpec(g, BINARY, (1, 0, 1), frozenset())
    assert spec.forbidden_shape == (0, 1)
    # nothing forbidden, so no pattern checks these shapes: the spec must
    for shape in ((0, 9), (-1, 0)):
        with pytest.raises(InputError, match="outside the group"):
            SftSpec(g, BINARY, shape, frozenset())
    with pytest.raises(InputError):
        SftSpec(g, BINARY, (0,), frozenset({Pattern(g, (0, 1), (1, 1))}))


def test_spec_refuses_forbidden_symbols_outside_the_alphabet():
    g = cyclic(3)
    for symbol in (5, 2, -1):
        with pytest.raises(InputError, match=rf"^forbidden symbol {symbol} is outside the "
                                             r"alphabet of size 2$"):
            SftSpec(g, BINARY, (0,), frozenset({Pattern(g, (0,), (symbol,))}))


def test_full_shift():
    y = full_shift(cyclic(3), BINARY)
    assert len(y) == 8
    assert is_shift_invariant(y)


def test_two_point_space():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    assert y.configs == {(0, 0, 0, 0), (1, 1, 1, 1)}


def test_golden_mean_on_z5():
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    assert len(y) == 11
    assert is_shift_invariant(y)
    for x in y.configs:
        assert all(not (x[i] and x[(i + 1) % 5]) for i in range(5))


def test_forbidding_empty_pattern_kills_everything():
    g = cyclic(3)
    spec = SftSpec(g, BINARY, (), frozenset({Pattern(g, (), ())}))
    assert len(enumerate_sft(spec)) == 0
    spec = SftSpec(g, BINARY, (), frozenset())
    assert len(enumerate_sft(spec)) == 8


def test_budget_guard():
    spec = SftSpec(cyclic(8), BINARY, (0,), frozenset())
    with pytest.raises(ResourceError,
                       match=r"^SFT enumeration stopped after 100 nodes \(budget 100\)$"):
        enumerate_sft(spec, budget=100)
    with pytest.raises(ResourceError, match=r"^search space 2\^8 exceeds the candidate budget 100$"):
        enumerate_sft_naive(spec, budget=100)


def test_enumeration_budget_counts_nodes_not_candidates():
    # 2^30 candidates, 2 points: 2 nodes at cell 0, then 2 per point at each
    # of the 29 cells after it
    spec = two_point_spec(cyclic(30))
    assert enumerate_sft(spec).configs == {(0,) * 30, (1,) * 30}
    assert len(enumerate_sft(spec, budget=118)) == 2
    with pytest.raises(ResourceError, match=r"stopped after 117 nodes \(budget 117\)"):
        enumerate_sft(spec, budget=117)


def whole_group(spec):
    """The spec's window hypergraph on the whole group, as the sweeps take
    it: cells 0..|G|-1, the window F·g for each element g, the forbidden
    words and the alphabet size."""
    g = spec.group
    windows = [tuple(g.mul[f][x] for f in spec.forbidden_shape) for x in g.elements()]
    return g.order, windows, {w.symbols for w in spec.forbidden}, spec.alphabet.size


def search_nodes(spec):
    """Oracle for the nodes :func:`enumerate_sft` visits: each symbol tried
    at cell m extends a prefix on cells 0..m-1 that no window lying wholly
    inside those cells forbids."""
    n, k = spec.group.order, spec.alphabet.size
    forbidden = {w.symbols for w in spec.forbidden}
    windows = [
        tuple(spec.group.mul[f][g] for f in spec.forbidden_shape) for g in spec.group.elements()
    ]
    nodes = 0
    for m in range(n):
        inside = [w for w in windows if max(w) < m]
        nodes += k * sum(
            all(tuple(prefix[c] for c in w) not in forbidden for w in inside)
            for prefix in iproduct(range(k), repeat=m)
        )
    return nodes


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10_000),
    st.sampled_from([cyclic(5), cyclic(8), symmetric3(), dihedral4(), quaternion()]),
)
def test_enumeration_budget_is_the_nodes_visited(seed, group):
    spec = random_sft_spec(group, random.Random(seed))
    nodes = search_nodes(spec)
    assert enumerate_sft(spec, budget=nodes).configs == enumerate_sft_naive(spec).configs
    with pytest.raises(ResourceError, match=rf"stopped after {nodes - 1} nodes"):
        enumerate_sft(spec, budget=nodes - 1)


def enumerate_by_search(spec, budget):
    """Oracle for :func:`enumerate_sft`: a depth-first search over element
    indices ascending, symbols ascending, with its own stack.  A partial
    assignment is pruned as soon as some fully assigned window matches a
    forbidden pattern; ``budget`` bounds the nodes visited, one per symbol
    tried at a cell."""
    n, k = spec.group.order, spec.alphabet.size
    forbidden = {w.symbols for w in spec.forbidden}
    by_last = [[] for _ in range(n)]
    for g in spec.group.elements():
        cells = tuple(spec.group.mul[f][g] for f in spec.forbidden_shape)
        by_last[max(cells, default=0)].append(cells)
    found = []
    config = [0] * n
    tried = [0] * n  # next symbol to try at each position
    p, nodes = 0, 0
    while p >= 0:
        s = tried[p]
        if s == k:
            tried[p] = 0
            p -= 1
            continue
        if nodes >= budget:
            raise ResourceError(f"SFT enumeration stopped after {nodes} nodes (budget {budget})")
        nodes += 1
        tried[p] = s + 1
        config[p] = s
        if all(tuple(config[c] for c in cells) not in forbidden for cells in by_last[p]):
            if p == n - 1:
                found.append(tuple(config))
            else:
                p += 1
    return frozenset(found)


# groups of order 16 and 24, where the naive filter is slow or out of reach
SEARCH_GROUPS = [symmetric_tower(4).levels[3], z2_power_tower(4).levels[3],
                 product(dihedral4(), cyclic(3)), product(quaternion(), cyclic(2))]


def test_enumeration_matches_the_search_on_large_groups():
    compared = Counter()

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.sampled_from(SEARCH_GROUPS), st.randoms(use_true_random=False))
    def check(group, rng):
        spec = random_sft_spec(group, rng)
        budget = 1 << 14
        try:
            want = enumerate_by_search(spec, budget)
        except ResourceError as exc:  # then the sweep visits as many nodes
            with pytest.raises(ResourceError, match=rf"^{re.escape(str(exc))}$"):
                enumerate_sft(spec, budget=budget)
            compared["refused"] += 1
            return
        assert enumerate_sft(spec, budget=budget).configs == want
        compared[group.order] += 1

    check()
    assert min(compared[16], compared[24], compared["refused"]) >= 3, compared


def test_enumeration_matches_naive_on_fixtures():
    for name, spec in standard_specs():
        fast = enumerate_sft(spec)
        slow = enumerate_sft_naive(spec)
        assert fast.configs == slow.configs, name
        assert is_shift_invariant(fast), name


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10_000),
    st.sampled_from(
        [cyclic(2), cyclic(3), cyclic(4), cyclic(5), symmetric3(), dihedral4(), quaternion()]
    ),
)
def test_enumeration_matches_naive_on_random_specs(seed, group):
    spec = random_sft_spec(group, random.Random(seed))
    assert enumerate_sft(spec).configs == enumerate_sft_naive(spec).configs


def test_enumeration_deeper_than_recursion_limit():
    g = cyclic(1100)
    spec = SftSpec(g, Alphabet(("0",)), (0,), frozenset())
    assert enumerate_sft(spec).configs == frozenset({(0,) * 1100})


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(COUNT_GROUPS))
def test_count_matches_enumeration_on_random_specs(seed, group):
    spec = random_sft_spec(group, random.Random(seed))
    assert count_sft(spec) == len(enumerate_sft(spec).configs)


def _random_small_spec(group, rng, k=3):
    """Up to three cells, the empty shape included, over k symbols."""
    size = rng.randint(0, min(3, group.order))
    shape = tuple(sorted(rng.sample(range(group.order), size)))
    forbidden = frozenset(
        Pattern(group, shape, sym)
        for sym in iproduct(range(k), repeat=size)
        if rng.random() < 0.3
    )
    return SftSpec(group, Alphabet(tuple("abcde"[:k])), shape, forbidden)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.sampled_from([cyclic(n) for n in range(2, 7)]
                                               + [klein(), symmetric3()]))
def test_count_matches_naive_on_ternary_specs(seed, group):
    spec = _random_small_spec(group, random.Random(seed))
    assert count_sft(spec) == len(enumerate_sft_naive(spec).configs)


@pytest.mark.parametrize(
    "group, shape",
    [(cyclic(8), (0, 1, 3)), (symmetric3(), (0, 1, 4)), (dihedral4(), (0, 3, 6)),
     (quaternion(), (0, 1, 2)), (alternating4(), (0, 1, 5))],
    ids=["z8", "s3", "d4", "q8", "a4"],
)
def test_count_on_shapes_closed_under_no_subgroup(group, shape):
    for sub in subgroups_and_closures(group)[0][1:]:
        assert {group.mul[f][h] for f in shape for h in sub.members} != set(shape)
    for forbid in ([(1, 1, 1)], [(1, 0, 1), (0, 1, 1)], [(1, 1, 0), (0, 0, 1)]):
        spec = SftSpec(group, BINARY, shape,
                       frozenset(Pattern(group, shape, sym) for sym in forbid))
        assert count_sft(spec) == len(enumerate_sft(spec).configs)


def test_count_of_golden_mean_is_the_transfer_trace():
    # the last: cell 0 stays in the state while 998 cells pass through
    # and free their slots for the next
    for n in [*range(1, 41), 64, 99, 128, 199, 200, 1000]:
        assert count_sft(golden_mean_spec(n)) == golden_mean_cyclic_count(n), n


def test_count_without_constraints_and_with_the_empty_pattern():
    g = cyclic(3)
    dead = SftSpec(g, BINARY, (), frozenset({Pattern(g, (), ())}))
    assert count_sft(dead) == 0
    # on the whole group: no window reads cells 1 and 2
    assert frontier_count(*whole_group(dead)) == 0
    assert count_sft(SftSpec(g, BINARY, (), frozenset())) == 8
    # no |A|^|G| pre-check: 2^40 configurations are counted, not refused
    assert count_sft(SftSpec(cyclic(40), BINARY, (0,), frozenset())) == 2 ** 40


def test_count_budget_counts_states():
    spec = golden_mean_spec(30)
    assert count_sft(spec, budget=200) == golden_mean_cyclic_count(30)
    with pytest.raises(ResourceError, match=r"stopped after \d+ states \(budget 20\)"):
        count_sft(spec, budget=20)
    # a wide frontier: the shape spans S5, and index order holds many cells
    s5 = random_sft_spec(SYMMETRIC.levels[4], random.Random(5))
    with pytest.raises(ResourceError) as caught:
        count_sft(s5, budget=1 << 16)
    assert str(caught.value) == "SFT count stopped after 65537 states (budget 65536)"


def frontier_states(n, windows, forbidden, k):
    """Oracle for the states :func:`frontier_count` visits: one for the
    empty prefix, then at each cell p the distinct projections, onto the
    cells up to p that a window ending after p reads, of the prefixes on
    cells 0..p that no window ending by p forbids."""
    states = 1
    for p in range(n):
        closed = [w for w in windows if max(w, default=0) <= p]
        read = sorted({c for w in windows if max(w, default=0) > p for c in w if c <= p})
        states += len({
            tuple(prefix[c] for c in read)
            for prefix in iproduct(range(k), repeat=p + 1)
            if all(tuple(prefix[c] for c in w) not in forbidden for w in closed)
        })
    return states


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from(COUNT_GROUPS), st.sampled_from([2, 1, 3, 4, 5]))
# states pack 0-, 2- and 3-bit slots for 1, 4 and 5 symbols (5 leaves codes
# unused); the empty shape forbids the empty word on a base whose one cell
# no window reads
@example(seed=16, group=cyclic(5), k=1)
@example(seed=0, group=cyclic(6), k=4)
@example(seed=0, group=cyclic(5), k=5)
@example(seed=2, group=cyclic(4), k=3)
def test_count_budget_is_the_states_visited(seed, group, k):
    rng = random.Random(seed)
    small = k != 2 and k ** group.order <= 4096  # k^|G| prefixes at the last cell
    spec = _random_small_spec(group, rng, k) if small else random_sft_spec(group, rng)
    want = len(enumerate_sft_naive(spec).configs)
    if not spec.forbidden:  # |A|^|G|, with no sweep
        assert count_sft(spec, budget=1) == want
        return
    embed, windows = shape_base(spec)
    states = frontier_states(len(embed), windows, {w.symbols for w in spec.forbidden},
                             spec.alphabet.size)
    assert count_sft(spec, budget=states) == want
    # the test follows each state, which adds at most one state per symbol,
    # so any smaller budget is passed by fewer than |A| states
    for budget in {states - 1, *rng.sample(range(1, states), min(20, states - 1))}:
        with pytest.raises(ResourceError) as caught:
            count_sft(spec, budget=budget)
        refused = re.fullmatch(rf"SFT count stopped after (\d+) states \(budget {budget}\)",
                               str(caught.value))
        assert budget < int(refused[1]) <= budget + spec.alphabet.size


def windows_inside(spec, embed):
    """Oracle for the windows :func:`shape_base` gives: the whole group's
    windows that lie wholly inside the members ``embed``, renumbered to
    their positions there, sorted."""
    pos = {a: i for i, a in enumerate(embed)}
    inside = [w for w in whole_group(spec)[1] if set(w) <= pos.keys()]
    return sorted(tuple(pos[c] for c in w) for w in inside)


def test_shape_base_gives_the_windows_inside_the_shapes_subgroup():
    # cells 8 and 32 of (Z/2)^6 times the inverse of 8 are 0 and 40, which
    # span {0, 40}: the windows inside it are (8, 32)·8 and (8, 32)·32,
    # that is (0, 40) and (40, 0), on cells 0 and 1
    g = z2_power_tower(6).levels[5]
    spec = SftSpec(g, BINARY, (8, 32), frozenset({Pattern(g, (8, 32), (1, 1))}))
    assert shape_base(spec) == ((0, 40), [(0, 1), (1, 0)])
    # ``within`` joins the subgroup, which holds four windows
    embed, windows = shape_base(spec, within=(1,))
    assert embed == (0, 1, 40, 41) and windows == [(0, 2), (1, 3), (2, 0), (3, 1)]
    # a shape spanning the group gives all its windows, the group's cells
    z9 = cyclic(9)
    spans = SftSpec(z9, BINARY, (2, 3), frozenset({Pattern(z9, (2, 3), (1, 1))}))
    assert shape_base(spans) == (tuple(range(9)), [(c, (c + 1) % 9) for c in range(9)])
    # the empty shape spans the trivial subgroup, with its one empty window
    empty = SftSpec(g, BINARY, (), frozenset())
    assert shape_base(empty) == ((0,), [()])
    assert shape_base(empty, within=(8,)) == ((0, 8), [(), ()])


def test_shape_base_windows_keep_the_shapes_cell_order():
    # in S3, cells 1, 2 and 5 times the inverse of cell 1 are 0, 4 and 3:
    # the subgroup {0, 3, 4}, where the window at the identity reads base
    # cells 0, 2 and 1 in that order, so the forbidden word 110 applies
    # to it as it stands
    s3 = symmetric3()
    shape = (1, 2, 5)
    spec = SftSpec(s3, BINARY, shape, frozenset({Pattern(s3, shape, (1, 1, 0))}))
    embed, windows = shape_base(spec)
    assert embed == (0, 3, 4) and windows[0] == (0, 2, 1)
    assert sorted(windows) == windows_inside(spec, embed)
    x_l = enumerate_hypergraph(3, windows, {(1, 1, 0)}, 2)
    assert x_l == {x for x in iproduct((0, 1), repeat=3)
                   if not any((x[a], x[b], x[c]) == (1, 1, 0) for a, b, c in windows)}


def base_spec(spec, embed, windows):
    """The spec read on the subgroup with members ``embed``, as a spec on
    its own table: the shape is the window at the identity, sorted, and
    each forbidden word is re-ordered with it."""
    group = Subgroup(spec.group, embed).as_group()[0]
    cells = windows[embed.index(spec.group.identity)]
    sort = picker(sorted(range(len(cells)), key=cells.__getitem__))
    shape = sort(cells)
    forbidden = frozenset(Pattern(group, shape, sort(w.symbols)) for w in spec.forbidden)
    return SftSpec(group, spec.alphabet, shape, forbidden)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from(COUNT_GROUPS), st.randoms(use_true_random=False))
def test_the_sft_is_the_free_extension_of_its_shape_base(group, rng):
    spec = random_sft_spec(group, rng)
    within = rng.sample(range(group.order), rng.randint(0, 1))
    embed, windows = shape_base(spec, within=within)
    assert sorted(windows) == windows_inside(spec, embed)
    base = base_spec(spec, embed, windows)
    assert sorted(map(sorted, windows)) == sorted(map(sorted, whole_group(base)[1]))
    x_l = enumerate_hypergraph(len(embed), windows, {w.symbols for w in spec.forbidden}, 2)
    assert x_l == enumerate_sft(base).configs
    ctx = extension_context(group, base.group, embed)
    assert enumerate_sft(free_extension_spec(base, ctx)).configs == enumerate_sft(spec).configs


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(COUNT_GROUPS), st.booleans())
def test_relabelling_the_cells_permutes_the_configurations(seed, group, on_base):
    # the numbering is the sweeps' only cell order: renumbering the cells
    # may change the states visited, but not the count, and it permutes
    # the configurations
    rng = random.Random(seed)
    spec = random_sft_spec(group, rng)
    n, windows, words, k = whole_group(spec)
    if on_base:
        embed, windows = shape_base(spec)
        n = len(embed)
    new = rng.sample(range(n), n)  # cell c becomes cell new[c]
    relabelled = [tuple(new[c] for c in w) for w in windows]
    assert frontier_count(n, relabelled, words, k) == frontier_count(n, windows, words, k)
    permute = picker(sorted(range(n), key=new.__getitem__))  # reads x at new^-1
    configs = enumerate_hypergraph(n, windows, words, k)
    assert enumerate_hypergraph(n, relabelled, words, k) == set(map(permute, configs))


def _random_spec_on(group, shape, rng):
    forbidden = frozenset(
        Pattern(group, shape, sym)
        for sym in iproduct((0, 1), repeat=len(shape))
        if any(sym) and rng.random() < 0.4
    )
    return SftSpec(group, BINARY, shape, forbidden)


S4 = symmetric_tower(4).levels[3]
# nonabelian groups, and products in which most shapes span a proper subgroup
ORACLE_GROUPS = [symmetric3(), dihedral4(), alternating4(), quaternion(), S4,
                 product(symmetric3(), cyclic(2)), product(klein(), symmetric3()),
                 product(dihedral4(), cyclic(3)), product(quaternion(), cyclic(2))]
SUBGROUPS = {g: subgroups_and_closures(g)[0] for g in ORACLE_GROUPS}


def count_against_the_whole_group(group, in_coset, rng):
    """Compare :func:`count_sft` of a random spec with :func:`frontier_count`
    on the whole group's windows.  Returns whether the shape spans a proper
    subgroup, or None when the whole group refuses."""
    if in_coset:  # a shape inside a right coset of some subgroup
        sub = rng.choice(SUBGROUPS[group])
        cells = rng.sample(sub.members, rng.randint(1, min(3, sub.order)))
        c = rng.randrange(group.order)
        spec = _random_spec_on(group, tuple(sorted(group.mul[a][c] for a in cells)), rng)
    else:
        spec = random_sft_spec(group, rng)
    try:
        want = frontier_count(*whole_group(spec), budget=1 << 16)
    except ResourceError:  # index order is slow on some shapes of S4
        return None
    assert count_sft(spec) == want
    return len(shape_base(spec)[0]) < group.order


def test_count_matches_the_frontier_count_on_the_whole_group():
    @settings(deadline=None, max_examples=120, derandomize=True)
    @given(st.sampled_from(ORACLE_GROUPS), st.booleans(), st.randoms(use_true_random=False))
    def check(group, in_coset, rng):
        count_against_the_whole_group(group, in_coset, rng)

    check()
    # the floor is taken on fixed cases, not on the draws: most shapes of
    # up to three cells span a proper subgroup, and where one spans the
    # group the two counts are the same program
    rng = random.Random(0)
    compared = Counter(
        count_against_the_whole_group(rng.choice(ORACLE_GROUPS), rng.random() < 0.5, rng)
        for _ in range(120))
    assert compared[True] >= 100, compared


SYMMETRIC = symmetric_tower(5)
# S1, S2 and S3 into S3, S4 and S5; none of S_n in S_{n+1} is normal for n >= 2
SYMMETRIC_CONTEXTS = [tower_context(SYMMETRIC, i, j) for j in (2, 3, 4) for i in range(3)
                      if i < j]


def count_along_the_tower(ctx, lift, rng):
    """Compare :func:`count_sft` of a random spec on the context's ambient
    group, lifted from the base or not, with :func:`frontier_count` on the
    whole group's windows.  Returns the ambient order, or None when the
    whole group refuses."""
    if lift or ctx.ambient.order > 24:
        base = random_sft_spec(ctx.base_group, rng)
        spec = free_extension_spec(base, ctx)
        assert count_sft(spec) == count_sft(base) ** ctx.cosets
    else:
        spec = random_sft_spec(ctx.ambient, rng)
    try:
        want = frontier_count(*whole_group(spec), budget=1 << 13)
    except ResourceError:  # index order on S5 is slow for most shapes
        return None
    assert count_sft(spec) == want
    return ctx.ambient.order


def test_count_along_the_symmetric_tower():
    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(st.sampled_from(SYMMETRIC_CONTEXTS), st.booleans(),
           st.randoms(use_true_random=False))
    def check(ctx, lift, rng):
        count_along_the_tower(ctx, lift, rng)

    check()
    # the floor is taken on fixed cases, not on the draws
    rng = random.Random(0)
    compared = Counter(
        count_along_the_tower(rng.choice(SYMMETRIC_CONTEXTS), rng.random() < 0.5, rng)
        for _ in range(80))
    assert min(compared[6], compared[24], compared[120]) >= 15, compared


def test_count_reduces_to_the_shapes_subgroup():
    # the whole group refuses at 2^16 states; the subgroup {0, 40} of
    # order 2 has 3 points and takes a few states
    g = z2_power_tower(6).levels[5]
    spec = SftSpec(g, BINARY, (8, 32), frozenset({Pattern(g, (8, 32), (1, 1))}))
    with pytest.raises(ResourceError):
        frontier_count(*whole_group(spec), budget=1 << 16)
    assert count_sft(spec, budget=10) == 3 ** 32
    with pytest.raises(ResourceError, match=r"\(budget 2\)"):
        count_sft(spec, budget=2)


def test_language_and_forbidden_patterns():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    assert project(y, (0, 2)) == {(0, 0), (1, 1)}
    bad = {w.symbols for w in spec_from_space(y, (0, 2)).forbidden}
    assert bad == {(0, 1), (1, 0)}


def language_by_patterns(y, f):
    """Oracle for :func:`project`: each configuration read cell by cell on
    the sorted shape."""
    f = tuple(sorted(set(f)))
    return {tuple(x[c] for c in f) for x in y.configs}


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from(PROJECTION_GROUPS), st.sampled_from(["empty", "random", "whole"]),
       st.randoms(use_true_random=False))
def test_projection_routes_match_the_pattern_oracle(group, shape_kind, rng):
    # a random SFT, thinned to a random union of its orbits, so that some
    # spaces are not presented by any shape smaller than the group
    parts = orbits(enumerate_sft(random_sft_spec(group, rng)))
    parts = [o for o in parts if rng.random() < 0.7] or parts[:1]
    y = ShiftSpace(group, BINARY, frozenset().union(*parts))
    n = group.order
    f = {"empty": [], "whole": list(range(n)),
         "random": rng.sample(range(n), rng.randint(1, n))}[shape_kind]
    lang = language_by_patterns(y, f)
    cells = tuple(sorted(f))
    assert project(y, cells) == lang
    missing = {
        Pattern(group, cells, sym) for sym in iproduct((0, 1), repeat=len(cells))
        if sym not in lang
    }
    assert spec_from_space(y, f) == SftSpec(group, BINARY, cells, frozenset(missing))
    weights = [rng.randint(0, 3) for _ in parts[1:]] + [1]
    mu = measure_from_orbit_masses(y, [Fraction(w, sum(weights)) for w in weights])
    cylinders = (Pattern(group, cells, sym) for sym in lang)
    want = -sum(float(m) * math.log(m) for m in (cylinder_mass(mu, w) for w in cylinders) if m)
    assert abs(cylinder_entropy(mu, f) - want) < 1e-12


def test_project_keeps_the_given_cell_order():
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    assert project(y, (3, 1, 1)) == {(x[3], x[1], x[1]) for x in y.configs}
    assert project(y, ()) == {()}
    for cells in ((5,), (0, -1)):
        with pytest.raises(InputError):
            project(y, cells)


def test_shift_permutations_follow_the_group_elements():
    # on S3 the shift by g and by its inverse differ for the 3-cycles
    y = enumerate_sft(golden_mean_like_spec(symmetric3()))
    configs = sorted(y.configs)
    perms = shift_permutations(y)
    assert len(perms) == y.group.order
    for g, perm in enumerate(perms):
        assert [configs[j] for j in perm] == [
            shift_config(y.group, g, x) for x in configs
        ], g


def test_spec_from_space_round_trip():
    for name, spec in standard_specs():
        y = enumerate_sft(spec)
        again = enumerate_sft(spec_from_space(y, tuple(y.group.elements())))
        assert again.configs == y.configs, name


def test_orbits():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    assert [len(o) for o in orbits(y)] == [1, 1]
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    assert sorted(len(o) for o in orbits(y)) == [1, 5, 5]


def test_enumerate_subshifts():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    subs = enumerate_subshifts(y)
    assert len(subs) == 4
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    subs = enumerate_subshifts(y)
    assert len(subs) == 8
    assert all(is_shift_invariant(z) for z in subs)
    with pytest.raises(ResourceError):
        enumerate_subshifts(full_shift(cyclic(5), BINARY), cap=3)


def test_xor_block_code_image():
    y = full_shift(cyclic(4), BINARY)
    xor = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
    image = apply_block_code(y, BlockMap(y, (0, 1), xor, BINARY))
    assert len(image) == 8
    assert all(sum(c) % 2 == 0 for c in image.configs)
    assert is_shift_invariant(image)


def test_block_code_missing_key():
    y = full_shift(cyclic(2), BINARY)
    code = BlockMap(y, (0,), {(0,): 0}, BINARY)
    with pytest.raises(ValidationError):
        apply_block_code(y, code)


def test_block_code_domain_mismatch():
    y = full_shift(cyclic(2), BINARY)
    z = enumerate_sft(two_point_spec(cyclic(2)))
    code = BlockMap(y, (0,), {(0,): 0, (1,): 1}, BINARY)
    with pytest.raises(InputError):
        apply_block_code(z, code)


@pytest.mark.parametrize("window", [(5,), (-1,), (0, 2), (0.5,), ("0",)])
def test_a_block_map_window_must_lie_in_the_domains_group(window):
    # (5,) once ended in a raw IndexError, and (-1,) was read as element 1
    y = full_shift(cyclic(2), BINARY)
    with pytest.raises(InputError, match="^block map window contains indices outside the group$"):
        BlockMap(y, window, {(0,): 0, (1,): 1}, BINARY)


UNFIT = "every window must read as many distinct cells as a word has symbols"


@pytest.mark.parametrize("n, windows, words, k, message", [
    (3, [(0, -1)], {(1, 1)}, 2, "a window reads a cell outside 0..2"),
    (3, [(0, 3)], {(1, 1)}, 2, "a window reads a cell outside 0..2"),
    (3, [(0, 1.5)], {(1, 1)}, 2, "window cells and forbidden symbols must be integers"),
    (3, [(0, 1)], {(1, 1.0)}, 2, "window cells and forbidden symbols must be integers"),
    (3, [(0, 1)], {(1,)}, 2, UNFIT),
    (3, [(0, 1), (2,)], {(1, 1)}, 2, UNFIT),
    (3, [(0, 1), (2, 2)], {(1, 1)}, 2, UNFIT),
    (3, [(0, 1)], {(1, 2)}, 2, "a forbidden word holds a symbol outside 0..1"),
    (3, [(0, 1)], {(1, -1)}, 2, "a forbidden word holds a symbol outside 0..1"),
    (0, [], {(1,)}, 2, "a hypergraph needs n, k >= 1 cells and symbols, not 0, 2"),
    (-2, [], set(), 2, "a hypergraph needs n, k >= 1 cells and symbols, not -2, 2"),
    (3.0, [(0, 1)], {(1, 1)}, 2, "a hypergraph needs n, k >= 1 cells and symbols, not 3.0, 2"),
    (3, [(0, 1)], {(0, 0)}, 0, "a hypergraph needs n, k >= 1 cells and symbols, not 3, 0"),
], ids=["negative-cell", "cell-n", "fractional-cell", "float-symbol", "short-word", "short-window", "repeat",
        "symbol-k", "negative-symbol", "no-cells", "negative-n", "float-n", "no-symbols"])
def test_the_sweeps_refuse_a_hypergraph_that_does_not_fit(n, windows, words, k, message):
    # without these checks the first two raised KeyError and IndexError, the
    # short word was counted 6 and enumerated 8, and the cell -1 was read
    # as cell 2 by the enumeration
    for sweep in (frontier_count, enumerate_hypergraph):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            sweep(n, windows, words, k)


def test_block_code_commutes_with_shift():
    y = full_shift(cyclic(4), BINARY)
    xor = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
    mul = y.group.mul
    for config in y.configs:
        out = tuple(
            xor[(config[mul[0][g]], config[mul[1][g]])] for g in y.group.elements()
        )
        for g in y.group.elements():
            shifted_then_coded = tuple(
                xor[
                    (
                        shift_config(y.group, g, config)[mul[0][h]],
                        shift_config(y.group, g, config)[mul[1][h]],
                    )
                ]
                for h in y.group.elements()
            )
            assert shifted_then_coded == shift_config(y.group, g, out)
