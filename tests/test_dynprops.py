"""Exact entropy, strong irreducibility, automorphisms and measures."""

import contextlib
import io
import math
import operator
import os
import random
import tempfile
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations, takewhile
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift import cli, files
from finshift.dynprops import (
    EntropyValue,
    SiVerdict,
    automorphism_group,
    entropy,
    entropy_set,
    measure_entropy,
    measure_from_orbit_masses,
    _packed_table,
    minimal_si_witnesses,
    mme,
    si_verdicts,
    spec_entropy,
    spec_minimal_si_witnesses,
    spec_si_verdicts,
)
from finshift.errors import DomainError, InputError, ResourceError
from finshift.fixtures import (
    alternating4,
    cyclic_doubling_tower,
    dihedral4,
    empty_spec,
    golden_mean_like_spec,
    klein,
    quaternion,
    random_sft_spec,
    standard_specs,
    symmetric3,
    two_point_spec,
)
from finshift.groups import build_tower, cyclic, product, subgroups_and_closures, z2_power_tower
from finshift.patterns import BINARY, Alphabet, Pattern, shift_config
from finshift.shiftspace import (
    SftSpec,
    ShiftSpace,
    enumerate_sft,
    full_shift,
    orbits,
    project,
    shape_base,
)

PROPERTY_GROUPS = [cyclic(n) for n in range(2, 7)] + [
    klein(),
    symmetric3(),
    dihedral4(),
    quaternion(),
]


def test_entropy_value_canonical_form():
    assert EntropyValue(4, 2) == EntropyValue(2, 1)
    assert EntropyValue(8, 6) == EntropyValue(2, 2)
    assert EntropyValue(1, 7) == EntropyValue(1, 1)
    assert str(EntropyValue(11, 5)) == "log(11)/5"
    with pytest.raises(InputError):
        EntropyValue(0, 3)


def canonical_entropy_pair(n, m):
    """Oracle for the canonical form of log(n)/m: among integer pairs
    (c, q) with c^m = n^q, the one with the least q >= 1.  q = m always has
    c = n; below it, c is found from a float guess, exact for n < 2^53."""
    for q in range(1, m):
        guess = round(n ** (q / m))
        for c in (guess - 1, guess, guess + 1):
            if c ** m == n ** q:
                return c, q
    return n, m


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.integers(1, 3000),
        st.builds(pow, st.integers(1, 12), st.integers(1, 12)),
    ),
    st.integers(1, 64),
)
def test_entropy_value_canonical_form_matches_the_least_denominator(n, m):
    value = EntropyValue(n, m)
    assert (value.count, value.denom) == canonical_entropy_pair(n, m)


def test_entropy_value_ordering():
    assert EntropyValue(2, 4) < EntropyValue(11, 5)
    assert EntropyValue(3, 2) > EntropyValue(2, 2)
    assert EntropyValue(4, 2) == EntropyValue(2, 1)
    assert EntropyValue(3, 2) != EntropyValue(2, 1)


def test_entropy_value_compares_only_with_entropy_values():
    h = EntropyValue(2, 1)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(h, 3)
        with pytest.raises(TypeError):
            compare(3, h)
    # > and >= are the reflected < and <=; max and min follow the cross powers
    values = [EntropyValue(n, m) for n in range(1, 13) for m in range(1, 7)]
    for a in values:
        for b in values:
            up, down = a.count ** b.denom, b.count ** a.denom
            assert (a > b) == (up > down) and (a >= b) == (up >= down)
            assert max(a, b) is (b if down > up else a)
            assert min(a, b) is (b if down < up else a)


@settings(deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 8),
    st.integers(1, 40),
    st.integers(1, 8),
)
def test_entropy_value_order_matches_floats(n1, m1, n2, m2):
    a, b = EntropyValue(n1, m1), EntropyValue(n2, m2)
    fa, fb = math.log(n1) / m1, math.log(n2) / m2
    if abs(fa - fb) > 1e-12:
        assert (a < b) == (fa < fb)
    # canonical forms of equal values coincide exactly
    if n1 ** m2 == n2 ** m1:
        assert (a.count, a.denom) == (b.count, b.denom)


def test_entropy_value_equality_is_the_cross_power_test():
    # every pair with n <= 129 and m <= 12.  Equal values are equal floats
    # up to rounding, so each run of values within 1e-9 of the one before
    # is compared pair by pair with the cross powers n1^m2 == n2^m1
    pairs = sorted(((n, m) for n in range(1, 130) for m in range(1, 13)),
                   key=lambda p: math.log(p[0]) / p[1])
    runs = [[pairs[0]]]
    for (n, m), (n0, m0) in zip(pairs[1:], pairs):
        if math.log(n) / m - math.log(n0) / m0 < 1e-9:
            runs[-1].append((n, m))
        else:
            runs.append([(n, m)])
    equal = 0
    for run in runs:
        for (n1, m1), (n2, m2) in combinations(run, 2):
            same = n1 ** m2 == n2 ** m1
            assert (EntropyValue(n1, m1) == EntropyValue(n2, m2)) is same, (n1, m1, n2, m2)
            assert (EntropyValue(n1, m1) != EntropyValue(n2, m2)) is not same
            equal += same
    assert equal > 66  # more than the 66 pairs of zeros log(1)/m
    # values in different runs differ, and so do their canonical forms
    run_of = {}
    for i, run in enumerate(runs):
        for n, m in run:
            value = EntropyValue(n, m)
            assert run_of.setdefault((value.count, value.denom), i) == i, (n, m)


def test_entropy_set_reaches_order_32():
    got = entropy_set(z2_power_tower(5), max_level=5, max_n=4)
    assert got == {EntropyValue(n, 2 ** k) for n in range(1, 5) for k in range(6)}
    with pytest.raises(ResourceError):
        entropy_set(z2_power_tower(5), max_level=5, max_n=4, budget=50)


def test_entropy_of_spaces():
    assert entropy(enumerate_sft(two_point_spec(cyclic(4)))) == EntropyValue(2, 4)
    assert entropy(
        enumerate_sft(golden_mean_like_spec(cyclic(5)))
    ) == EntropyValue(11, 5)
    assert entropy(full_shift(cyclic(3), BINARY)) == EntropyValue(2, 1)
    with pytest.raises(DomainError):
        entropy(ShiftSpace(cyclic(2), BINARY, frozenset()))


def test_spec_entropy_counts_what_enumeration_lists():
    for name, spec in standard_specs():
        assert spec_entropy(spec) == entropy(enumerate_sft(spec)), name
    g = cyclic(3)
    dead = SftSpec(g, BINARY, (0,), frozenset(Pattern(g, (0,), (s,)) for s in (0, 1)))
    with pytest.raises(DomainError) as from_count:
        spec_entropy(dead)
    with pytest.raises(DomainError) as from_space:
        entropy(enumerate_sft(dead))
    assert str(from_count.value) == str(from_space.value)


def test_entropy_set_truncation():
    got = entropy_set(z2_power_tower(3), max_level=3, max_n=4)
    want = {EntropyValue(n, 2 ** k) for n in range(1, 5) for k in range(4)}
    assert got == want
    with pytest.raises(InputError):
        entropy_set(z2_power_tower(3), max_level=9, max_n=4)


def test_entropy_set_budget_counts_closures_and_values():
    # Z/5 takes 6 closures (5 cyclic, 1 join) and has 2 subgroup orders
    tower = build_tower([cyclic(5)], [])
    assert len(entropy_set(tower, max_level=1, max_n=10, budget=26)) == 19
    with pytest.raises(ResourceError, match=r"needs 20 values after 6 subgroup closures \(budget 25\)"):
        entropy_set(tower, max_level=1, max_n=10, budget=25)
    with pytest.raises(ResourceError, match=r"after 5 closures \(budget 5\)"):
        entropy_set(tower, max_level=1, max_n=10, budget=5)


def entropy_set_by_levels(tower, max_level, max_n):
    """Oracle: the subgroup orders of every level up to ``max_level``."""
    orders = {sub.order for level in tower.levels[:max_level]
              for sub in subgroups_and_closures(level)[0]}
    return {EntropyValue(n, m) for n in range(1, max_n + 1) for m in orders}


@pytest.mark.parametrize(
    "tower",
    [z2_power_tower(d) for d in range(1, 6)] + [cyclic_doubling_tower(d) for d in range(1, 5)],
    ids=[f"z2-power-{d}" for d in range(1, 6)] + [f"cyclic-doubling-{d}" for d in range(1, 5)],
)
def test_entropy_set_closes_the_top_level_only(tower):
    for max_level in range(1, len(tower.levels) + 1):
        assert (entropy_set(tower, max_level=max_level, max_n=5)
                == entropy_set_by_levels(tower, max_level, max_n=5)), max_level


def test_full_shift_is_si_with_identity_witness():
    y = full_shift(cyclic(4), BINARY)
    assert si_verdicts(y, [(0,)])[0].ok
    assert minimal_si_witnesses(y) == [(0,)]


def test_two_point_space_si_failures():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    (verdict,) = si_verdicts(y, [(0, 1)])
    assert not verdict.ok
    u, v = verdict.counterexample
    # the premise holds for the returned pair but no configuration carries both
    k_fv = {y.group.mul[a][f] for a in (0, 1) for f in v.shape}
    assert not (set(u.shape) & k_fv)
    assert not any(
        all(x[g] == s for g, s in u.as_dict().items())
        and all(x[g] == s for g, s in v.as_dict().items())
        for x in y.configs
    )
    # every proper witness set fails; only the whole group is vacuous
    subsets = [tuple(i for i in range(4) if k >> i & 1) for k in range(1 << 4)]
    for subset, verdict in zip(subsets, si_verdicts(y, subsets)):
        assert verdict.ok == (subset == (0, 1, 2, 3))


def test_si_monotone_in_witness_set():
    y = enumerate_sft(golden_mean_like_spec(cyclic(4)))
    minimal = minimal_si_witnesses(y)
    assert minimal  # the whole group always works, so something is minimal
    subsets = [{i for i in range(4) if k >> i & 1} for k in range(1 << 4)]
    for subset, verdict in zip(subsets, si_verdicts(y, subsets)):
        if any(set(m) <= subset for m in minimal):
            assert verdict.ok


def si_pair_search(y):
    """Oracle: the exhaustive SI search, as a function of the witness set
    K.  Every ordered pair of shapes U, V with U disjoint from K·V is
    tried, and on each every pair of a U-pattern and a V-pattern is looked
    up among the pairs the configurations show.  A failure carries the
    least pair in shape order, then symbol order.  The outcome for each
    pair of shapes is kept across witness sets."""
    G = y.group
    shapes = [s for r in range(G.order + 1) for s in combinations(G.elements(), r)]
    langs = {f: sorted({tuple(x[g] for g in f) for x in y.configs}) for f in shapes}
    first_gap = {}

    def gap(fu, fv):
        if (fu, fv) not in first_gap:
            joint = {
                (tuple(x[g] for g in fu), tuple(x[g] for g in fv)) for x in y.configs
            }
            first_gap[fu, fv] = next(
                ((u, v) for u in langs[fu] for v in langs[fv] if (u, v) not in joint),
                None,
            )
        return first_gap[fu, fv]

    def verdict(k):
        k_times = {fv: {G.mul[a][f] for a in k for f in fv} for fv in shapes}
        for fu in shapes:
            for fv in shapes:
                if set(fu) & k_times[fv]:
                    continue
                found = gap(fu, fv)
                if found:
                    u, v = found
                    return SiVerdict(False, (Pattern(G, fu, u), Pattern(G, fv, v)))
        return SiVerdict(True)

    return verdict


def minimal_witnesses_by_pair_search(y):
    """Oracle: every witness set by size, then lexicographically, skipping
    supersets of those found, each decided by :func:`si_pair_search`."""
    verdict = si_pair_search(y)
    good = []
    for r in range(y.group.order + 1):
        for k in combinations(y.group.elements(), r):
            if not any(set(m) <= set(k) for m in good) and verdict(k).ok:
                good.append(k)
    return good


def enumerate_subshifts(y, cap=20):
    """Oracle: all unions of orbits, including the empty and the full
    space."""
    parts = orbits(y)
    if len(parts) > cap:
        raise ResourceError(
            f"{len(parts)} orbits exceed the subshift enumeration cap {cap}"
        )
    out = []
    for mask in range(1 << len(parts)):
        configs = frozenset().union(
            *(parts[i] for i in range(len(parts)) if mask >> i & 1)
        )
        out.append(ShiftSpace(y.group, y.alphabet, configs))
    return out


def _assert_counterexample(y, k, verdict):
    """The premise holds for the returned pair, both patterns occur, no
    configuration carries both, and no smaller such pair, by symbols,
    lives on the same two shapes."""
    u, v = verdict.counterexample
    k_fv = {y.group.mul[a][f] for a in k for f in v.shape}
    assert not set(u.shape) & k_fv
    on = lambda w: [tuple(x[g] for g in w.shape) for x in y.configs]
    joint = set(zip(on(u), on(v)))
    missing = [(a, b) for a in set(on(u)) for b in set(on(v)) if (a, b) not in joint]
    assert min(missing) == (u.symbols, v.symbols)


SI_GROUPS = [cyclic(n) for n in range(2, 6)] + [klein(), symmetric3()]


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.sampled_from(SI_GROUPS), st.integers(0, 10_000))
def test_si_verdicts_match_pair_search(group, seed):
    # every witness set, those without the identity included
    y = enumerate_sft(random_sft_spec(group, random.Random(seed)))
    oracle = si_pair_search(y)
    ks = [tuple(a for a in group.elements() if mask >> a & 1) for mask in range(1 << group.order)]
    for k, verdict in zip(ks, si_verdicts(y, ks)):
        assert verdict.ok == oracle(k).ok, k
        if not verdict.ok:
            _assert_counterexample(y, k, verdict)


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.sampled_from(SI_GROUPS), st.integers(0, 10_000))
def test_minimal_si_witnesses_match_pair_search(group, seed):
    y = enumerate_sft(random_sft_spec(group, random.Random(seed)))
    assert minimal_si_witnesses(y) == minimal_witnesses_by_pair_search(y)


@pytest.mark.parametrize(
    "group, shape, witness_sets",
    [
        (dihedral4(), (0, 1), [(0,), (1,), (0, 1), (0, 7), (1, 2, 3), tuple(range(8))]),
        (quaternion(), (0, 1, 2), [(0,), (2, 3, 5), (0, 2, 3, 5), (0, 1, 2, 5), tuple(range(8))]),
    ],
    ids=["d4", "q8"],
)
def test_si_verdicts_match_pair_search_on_order_8(group, shape, witness_sets):
    # all ones is forbidden on every translate F*g of the shape: which
    # witness sets work depends on multiplying K·V on the left, not the right
    ones = Pattern(group, shape, (1,) * len(shape))
    y = enumerate_sft(SftSpec(group, BINARY, shape, frozenset({ones})))
    oracle = si_pair_search(y)
    verdicts = si_verdicts(y, witness_sets)
    for k, verdict in zip(witness_sets, verdicts):
        assert verdict.ok == oracle(k).ok, k
        if not verdict.ok:
            _assert_counterexample(y, k, verdict)
    assert {v.ok for v in verdicts} == {True, False}


def test_si_budget_names_the_work_done():
    y = enumerate_sft(golden_mean_like_spec(cyclic(6)))
    assert minimal_si_witnesses(y) == minimal_witnesses_by_pair_search(y)
    # 64 projections fill the table, then the candidates' product tests run
    with pytest.raises(ResourceError, match=r"^SI check stopped after 64 "
                       r"projections and 36 product tests \(budget 100\)$"):
        minimal_si_witnesses(y, budget=100)
    with pytest.raises(ResourceError, match=r"after 10 projections and 0 product "
                       r"tests \(budget 10\)"):
        si_verdicts(y, [(0, 1)], budget=10)


def test_si_budget_on_the_shapes_subgroup():
    # the two-point space on Z/16 with shape 0 2 is the free extension of
    # the two-point space on L = {0, 2, ..., 14}: 2^8 projections fill L's
    # table, where G's would need 2^16, and only all of L is a witness
    z16 = cyclic(16)
    forbid = frozenset(Pattern(z16, (0, 2), w) for w in ((0, 1), (1, 0)))
    spec = SftSpec(z16, BINARY, (0, 2), forbid)
    assert spec_minimal_si_witnesses(spec) == [tuple(range(0, 16, 2))]
    with pytest.raises(ResourceError, match=r"^SI check stopped after 255 projections "
                       r"and 0 product tests \(budget 255\)$"):
        spec_minimal_si_witnesses(spec, budget=255)
    with pytest.raises(ResourceError, match=r"^SI check stopped after 256 projections "
                       r"and 0 product tests \(budget 256\)$"):
        spec_minimal_si_witnesses(spec, budget=256)
    with pytest.raises(ResourceError, match=r"^SI check stopped after 256 projections "
                       r"and 1 product tests \(budget 257\)$"):
        spec_si_verdicts(spec, [range(0, 16, 2)], budget=257)


def assert_table_counts_projections(y):
    counts = _packed_table(y)[3]
    assert len(counts) == 1 << y.group.order
    for mask, count in enumerate(counts):
        assert count == len(project(y, [g for g in y.group.elements() if mask >> g & 1])), mask


ALPHABETS = [Alphabet(("a",)), BINARY, Alphabet(("0", "1", "2"))]
TABLE_GROUPS = [symmetric3(), dihedral4(), quaternion(), alternating4()] + [
    cyclic(n) for n in range(2, 7)]


@pytest.mark.parametrize("group", TABLE_GROUPS,
                         ids=["s3", "d4", "q8", "a4"] + [f"z{n}" for n in range(2, 7)])
def test_packed_table_counts_every_projection(group):
    rng = random.Random(group.order)
    for alphabet in ALPHABETS:
        seeds = [[rng.randrange(alphabet.size) for _ in group.elements()]
                 for _ in range(rng.randint(1, 3))]
        y = orbit_union(group, seeds, alphabet)
        assert_table_counts_projections(y)
        # the counterexample is read back from the packed integers
        ks = [tuple(a for a in group.elements() if rng.random() < 0.5) for _ in range(4)]
        for k, verdict in zip(ks, si_verdicts(y, ks)):
            if not verdict.ok:
                _assert_counterexample(y, k, verdict)


@pytest.mark.parametrize("y", [
    ShiftSpace(symmetric3(), BINARY, frozenset()),
    ShiftSpace(dihedral4(), Alphabet(("0", "1", "2")), frozenset({(2,) * 8})),
    full_shift(cyclic(1), Alphabet(("0", "1", "2"))),
], ids=["empty", "one-point", "trivial-group"])
def test_packed_table_on_edge_spaces(y):
    assert_table_counts_projections(y)


def _is_normal(group, members):
    inside = set(members)
    return all(group.mul[group.mul[g][h]][group.inv[g]] in inside
               for g in group.elements() for h in members)


# S3, D4, A4 and S3×Z/2 have proper non-normal subgroups; in Q8 and V4×Z/3
# every subgroup is normal
ROUTE_GROUPS = [symmetric3(), dihedral4(), quaternion(), alternating4(),
                product(symmetric3(), cyclic(2)), product(klein(), cyclic(3))]
ROUTE_SUBGROUPS = {}
for _g in ROUTE_GROUPS:
    _proper = [s.members for s in subgroups_and_closures(_g)[0] if 1 < s.order < _g.order]
    ROUTE_SUBGROUPS[_g] = [m for m in _proper if not _is_normal(_g, m)] or _proper


def spec_on_a_proper_subgroup(group, rng):
    """A binary spec whose shape is F = C·f0 for cells C of a proper
    subgroup H, non-normal where the group has one, with e in C: so
    F·f0^-1 = C spans a subgroup of H.  Some nonzero words are forbidden
    and some are not."""
    others = [a for a in rng.choice(ROUTE_SUBGROUPS[group]) if a != group.identity]
    cells = {group.identity, *rng.sample(others, min(len(others), rng.randint(1, 2)))}
    f0 = rng.randrange(group.order)
    shape = tuple(sorted(group.mul[a][f0] for a in cells))
    words = [w for w in iproduct((0, 1), repeat=len(shape)) if any(w)]
    forbidden = rng.sample(words, rng.randint(1, len(words) - 1))
    return SftSpec(group, BINARY, shape, frozenset(Pattern(group, shape, w) for w in forbidden))


def test_si_on_the_shapes_subgroup_matches_the_whole_group():
    drawn = Counter()

    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(st.sampled_from(ROUTE_GROUPS[:3]), st.randoms(use_true_random=False))
    def check(group, rng):
        spec = spec_on_a_proper_subgroup(group, rng)
        embed = shape_base(spec)[0]
        assert len(embed) < group.order
        drawn[_is_normal(group, embed)] += 1
        y = enumerate_sft(spec)
        assert spec_minimal_si_witnesses(spec) == minimal_si_witnesses(y)
        # every witness set, and every counterexample checked on G
        ks = [tuple(a for a in group.elements() if m >> a & 1) for m in range(1 << group.order)]
        for k, route, whole in zip(ks, spec_si_verdicts(spec, ks), si_verdicts(y, ks)):
            assert route.ok == whole.ok, k
            if not route.ok:
                _assert_counterexample(y, k, route)

    check()
    assert drawn[False] >= 5, drawn


def test_minimal_si_witnesses_on_the_shapes_subgroup_of_order_12_groups():
    drawn = Counter()

    @settings(deadline=None, max_examples=8, derandomize=True)
    @given(st.sampled_from(ROUTE_GROUPS[3:]), st.randoms(use_true_random=False))
    def check(group, rng):
        spec = spec_on_a_proper_subgroup(group, rng)
        drawn[_is_normal(group, shape_base(spec)[0])] += 1
        assert spec_minimal_si_witnesses(spec) == minimal_si_witnesses(enumerate_sft(spec))

    check()
    assert drawn[False] >= 3, drawn


def equal_entropy_subshift(y, subshifts):
    """Oracle: the first nonempty proper subshift among ``subshifts`` whose
    entropy is not below that of ``y``, or None."""
    h = entropy(y)
    return next((z for z in subshifts
                 if z.configs and z.configs != y.configs and not entropy(z) < h), None)


def minus_one_orbit(y):
    """``y`` minus one orbit, for each orbit: every proper subshift lies in
    one of these."""
    return [ShiftSpace(y.group, y.alphabet, y.configs - orb) for orb in orbits(y)]


def test_entropy_minimality_on_fixtures():
    for name, spec in standard_specs():
        y = enumerate_sft(spec)
        assert equal_entropy_subshift(y, minus_one_orbit(y)) is None, name


def test_entropy_minimality_counterexample_branch():
    # same cardinality means equal entropy on the same group, so an
    # injected equal-size collection must trip the oracle
    y = ShiftSpace(cyclic(2), BINARY, frozenset({(0, 0), (1, 1)}))
    fake = [ShiftSpace(y.group, y.alphabet, frozenset({(0, 1), (1, 0)}))]
    assert equal_entropy_subshift(y, fake) is fake[0]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 10_000))
def test_entropy_minimality_matches_subshift_oracle(group, seed):
    y = random_subshift(group, seed, max_configs=16, max_orbits=8)
    assert equal_entropy_subshift(y, enumerate_subshifts(y)) is None
    assert equal_entropy_subshift(y, minus_one_orbit(y)) is None


def test_full_shift_on_z8_is_entropy_minimal():
    # 36 orbits: over the cap of 20 on which all 2^36 orbit unions were built
    y = full_shift(cyclic(8), BINARY)
    assert len(orbits(y)) == 36
    assert equal_entropy_subshift(y, minus_one_orbit(y)) is None


def zero_verdict_by_enumeration(y):
    """Oracle: the ``check zero`` line, from the configurations: a single
    one that every shift fixes, or positive entropy."""
    fixed = len(y.configs) == 1 and all(
        shift_config(y.group, g, x) == x for x in y.configs for g in y.group.elements()
    )
    return "zero-and-singleton-fixed-point" if fixed else "positive-entropy"


def test_zero_entropy_classification():
    z2 = cyclic(2)
    point = SftSpec(z2, BINARY, (0,), frozenset({Pattern(z2, (0,), (1,))}))
    for spec, zero in ((point, True), (two_point_spec(cyclic(4)), False), (empty_spec(z2), False)):
        assert zero_verdict_by_enumeration(enumerate_sft(spec)) == (
            "zero-and-singleton-fixed-point" if zero else "positive-entropy")
        assert spec_entropy(spec).is_zero() == zero


def test_automorphism_group_orders():
    full = full_shift(cyclic(2), BINARY)
    aut = automorphism_group(full)
    assert aut.order == 4
    two = enumerate_sft(two_point_spec(cyclic(4)))
    assert automorphism_group(two).order == 2
    singleton = ShiftSpace(cyclic(2), BINARY, frozenset({(0, 0)}))
    assert automorphism_group(singleton).order == 1


def test_automorphism_group_closure():
    y = full_shift(cyclic(2), BINARY)
    aut = automorphism_group(y)
    n = len(y.configs)
    elems = set(aut.elements)
    for i, p in enumerate(aut.elements):
        for j, q in enumerate(aut.elements):
            comp = tuple(p[q[x]] for x in range(n))
            assert comp in elems
            assert aut.elements[aut.composition[i][j]] == comp


def test_automorphism_budget_counts_partial_choices():
    # full shift over Z/4: the choices pass a budget of 10 long before the
    # group is found
    with pytest.raises(ResourceError, match=r"stopped after 10 partial choices \(budget 10\)"):
        automorphism_group(full_shift(cyclic(4), BINARY), budget=10)


def test_automorphism_budget_boundary_is_choices_plus_table():
    # golden mean over Z/5: a fixed point and two free orbits of size 5,
    # so |Aut| = 1 * (5^2 * 2!) = 50 from 11 configurations; the choices
    # grow 1, 10, 50 (61 in all) and the table has 50^2 = 2500 entries
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    aut = automorphism_group(y, budget=61 + 2500)
    assert aut.order == 50
    assert automorphism_group(y, budget=1 << 70) == aut  # past any machine word
    configs = sorted(y.configs)
    pos = {c: i for i, c in enumerate(configs)}
    shifts = [[pos[shift_config(y.group, g, c)] for c in configs]
              for g in y.group.elements()]
    assert all(p[s[i]] == s[p[i]] for p in aut.elements for s in shifts
               for i in range(len(p)))
    with pytest.raises(ResourceError, match=r"order 50 needs 2500 table entries \(budget 2560\)"):
        automorphism_group(y, budget=61 + 2500 - 1)
    with pytest.raises(ResourceError, match=r"2500 table entries \(budget 61\)"):
        automorphism_group(y, budget=61)  # the choices alone fit
    with pytest.raises(ResourceError, match=r"stopped after 60 partial choices \(budget 60\)"):
        automorphism_group(y, budget=60)


def test_automorphism_budget_refuses_the_table_before_building_it():
    # golden mean over Z/7: 29 configurations, |Aut| = 7^4 * 4! = 57624;
    # its 66473 choices fit the default budget, its table does not
    y = enumerate_sft(golden_mean_like_spec(cyclic(7)))
    with pytest.raises(ResourceError, match=r"automorphism group of order 57624 needs "
                       r"3320525376 table entries \(budget 16777216\)"):
        automorphism_group(y)


def automorphisms_by_permutation(y):
    """Oracle: try all n! permutations of the sorted configurations;
    returns the sorted automorphisms and their composition table."""
    configs = sorted(y.configs)
    n = len(configs)
    pos = {c: i for i, c in enumerate(configs)}
    shifts = [
        tuple(pos[shift_config(y.group, g, c)] for c in configs)
        for g in y.group.elements()
    ]
    autos = sorted(
        p
        for p in permutations(range(n))
        if all(p[s[i]] == s[p[i]] for s in shifts for i in range(n))
    )
    index = {p: i for i, p in enumerate(autos)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in autos) for p in autos
    )
    return tuple(autos), table


def orbit_union(group, seeds, alphabet=BINARY):
    """The smallest shift space containing the given configurations."""
    configs = {shift_config(group, g, x) for x in seeds for g in group.elements()}
    return ShiftSpace(group, alphabet, frozenset(configs))


def random_subshift(group, seed, max_configs, max_orbits):
    """A union of at most ``max_orbits`` shift orbits of a random spec's
    space, with at most ``max_configs`` configurations; nonempty, since
    the all-zero fixed point always survives the spec."""
    rng = random.Random(seed)
    parts = orbits(enumerate_sft(random_sft_spec(group, rng)))
    rng.shuffle(parts)
    kept = []
    for orb in parts:
        if len(kept) < max_orbits and sum(map(len, kept)) + len(orb) <= max_configs:
            kept.append(orb)
    return ShiftSpace(group, BINARY, frozenset().union(*kept))


@pytest.mark.parametrize(
    "group, with_complement, order",
    [(symmetric3(), True, 4), (dihedral4(), False, 2)],
    ids=["s3", "d4"],
)
def test_automorphisms_with_non_normal_stabilizers(group, with_complement, order):
    # the orbit of the indicator of a non-normal subgroup H has stabilizers
    # conjugate to H but not all equal to it, and the automorphisms of one
    # such orbit form N(H)/H: trivial in S3, of order 2 in D4
    mul, inv = group.mul, group.inv
    h = next(
        s.members for s in subgroups_and_closures(group)[0]
        if any(mul[mul[x][a]][inv[x]] not in s.members
               for x in group.elements() for a in s.members)
    )
    x = tuple(int(a in h) for a in group.elements())
    seeds = [x, (0,) * group.order]
    if with_complement:
        seeds += [tuple(1 - v for v in x), (1,) * group.order]
    y = orbit_union(group, seeds)
    stabilizers = {
        frozenset(g for g in group.elements() if shift_config(group, g, c) == c)
        for c in y.configs
    }
    assert len(y.configs) <= 8 and len(stabilizers) > 2
    aut = automorphism_group(y)
    assert (aut.elements, aut.composition) == automorphisms_by_permutation(y)
    assert aut.order == order


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 10_000))
def test_automorphisms_match_permutation_search(group, seed):
    y = random_subshift(group, seed, max_configs=8, max_orbits=8)
    aut = automorphism_group(y)
    assert (aut.elements, aut.composition) == automorphisms_by_permutation(y)


def test_mme_is_uniform_and_attains_entropy():
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    mu = mme(y)
    assert all(w == Fraction(1, 11) for w in mu.weights.values())
    assert abs(measure_entropy(y, mu) - float(entropy(y))) < 1e-12


def cylinder_mass(mu, w):
    """The measure of the cylinder of pattern ``w``: the summed weights of
    the configurations that carry ``w``."""
    return sum(
        (wt for c, wt in mu.weights.items() if all(c[g] == s for g, s in zip(w.shape, w.symbols))),
        Fraction(0),
    )


def cylinder_entropy(mu, f):
    """Oracle: -Σ m·log(m) over the masses m of the cylinders on the shape
    ``f``, each configuration's weight added to the cylinder it reads on f."""
    masses = Counter()
    for c, w in mu.weights.items():
        masses[tuple(c[g] for g in f)] += w
    return -sum(float(m) * math.log(m) for m in masses.values() if m)


def test_partition_entropy_golden_mean_single_cell():
    # cylinder masses at one cell: 15 ones over 5 positions in 11 configs
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    mu = mme(y)
    one = Pattern(y.group, (0,), (1,))
    assert cylinder_mass(mu, one) == Fraction(3, 11)
    expected = -(
        float(Fraction(8, 11)) * math.log(Fraction(8, 11))
        + float(Fraction(3, 11)) * math.log(Fraction(3, 11))
    )
    assert abs(cylinder_entropy(mu, (0,)) - expected) < 1e-12


def test_partition_entropy_full_shift_whole_group():
    y = full_shift(cyclic(2), BINARY)
    mu = mme(y)
    assert abs(cylinder_entropy(mu, (0, 1)) - math.log(4)) < 1e-12
    assert abs(measure_entropy(y, mu) - math.log(2)) < 1e-12


def test_point_mass_has_zero_partition_entropy():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    dirac = measure_from_orbit_masses(y, (Fraction(1), Fraction(0)))
    assert cylinder_entropy(dirac, (0, 1, 2, 3)) == 0.0


def test_measure_entropy_refuses_a_measure_on_another_space():
    y = full_shift(cyclic(2), BINARY)
    mu = mme(enumerate_sft(two_point_spec(cyclic(2))))
    with pytest.raises(InputError, match="^measure defined on a different space$"):
        measure_entropy(y, mu)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([cyclic(n) for n in range(2, 7)] + [symmetric3(), dihedral4()]),
       st.integers(0, 10_000))
def test_measure_entropy_matches_cylinders_and_the_orbit_formula(group, seed):
    rng = random.Random(seed)
    y = enumerate_sft(random_sft_spec(group, rng))
    parts = orbits(y)
    weights = [rng.randint(0, 3) for _ in parts[1:]] + [1]
    masses = [Fraction(w, sum(weights)) for w in weights]
    mu = measure_from_orbit_masses(y, masses)
    h = measure_entropy(y, mu) * group.order
    assert abs(h - cylinder_entropy(mu, group.elements())) < 1e-12
    closed = sum(float(m) * math.log(len(orb) / m) for m, orb in zip(masses, parts) if m)
    assert abs(h - closed) < 1e-12
    # the all-zero point survives every random spec and is fixed
    dirac = [Fraction(int((0,) * group.order in orb)) for orb in parts]
    assert measure_entropy(y, measure_from_orbit_masses(y, dirac)) == 0.0


def test_invariant_measure_validation():
    from finshift.dynprops import InvariantMeasure

    y = full_shift(cyclic(2), BINARY)
    with pytest.raises(InputError):
        InvariantMeasure(y, {c: Fraction(1, 3) for c in y.configs})
    # not orbit constant: weight the orbit {01, 10} unevenly
    weights = {
        (0, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
        (0, 1): Fraction(1, 2),
        (1, 0): Fraction(0),
    }
    with pytest.raises(InputError):
        InvariantMeasure(y, weights)


def orbit_masses(y, mu):
    return tuple(sum((mu.weights[c] for c in orb), Fraction(0)) for orb in orbits(y))


def test_mme_unique_on_golden_mean():
    spec = golden_mean_like_spec(cyclic(5))
    y = enumerate_sft(spec)
    mu = mme(y)
    assert abs(measure_entropy(y, mu) - float(spec_entropy(spec))) < 1e-12
    # the 78 orbit-mass vectors with denominator 11 all lie below it
    assert mme_sweep_exact(y, len(y.configs)) == [(orbit_masses(y, mu), True)]


def test_mme_unique_on_two_point_space():
    y = enumerate_sft(two_point_spec(cyclic(4)))
    half = (Fraction(1, 2), Fraction(1, 2))
    assert orbit_masses(y, mme(y)) == half
    assert mme_sweep_exact(y, 100) == [(half, True)]
    for masses in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
        dirac = measure_from_orbit_masses(y, masses)
        assert measure_entropy(y, dirac) == 0.0
        assert measure_entropy(y, dirac) < float(entropy(y))


def compositions(total, bins):
    """Every tuple of ``bins`` non-negative integers summing to ``total``,
    as the gaps between ``bins - 1`` bars among ``total + bins - 1`` slots."""
    for bars in combinations(range(total + bins - 1), bins - 1):
        edges = (-1, *bars, total + bins - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def mme_sweep_by_measures(y, grid, tol=1e-9):
    """Oracle: build the uniform measure and each grid point's
    InvariantMeasure and take its entropy by :func:`measure_entropy`,
    checking it against the closed form
    ``Σ m_o·log(|o|/m_o)/|G|`` on the way.  Returns the best entropy and
    the orbit masses within ``tol`` of it."""
    parts = orbits(y)
    uniform = tuple(Fraction(len(orb), len(y.configs)) for orb in parts)
    candidates = [uniform] + [
        masses
        for masses in (tuple(Fraction(c, grid) for c in comp) for comp in compositions(grid, len(parts)))
        if masses != uniform
    ]
    scored = []
    for m in candidates:
        h = measure_entropy(y, measure_from_orbit_masses(y, m))
        closed = sum(float(w) * math.log(len(orb) / w) for w, orb in zip(m, parts) if w)
        assert abs(h - closed / y.group.order) < 1e-12
        scored.append((m, h))
    best = max(h for _, h in scored)
    return best, tuple(m for m, h in scored if h >= best - tol)


def _assert_uniform_is_the_only_maximizer(y, grid):
    best, maximizers = mme_sweep_by_measures(y, grid)
    assert maximizers == (orbit_masses(y, mme(y)),)
    assert abs(best - float(entropy(y))) < 1e-12


@pytest.mark.parametrize(
    "y",
    [
        enumerate_sft(golden_mean_like_spec(cyclic(5))),
        enumerate_sft(two_point_spec(quaternion())),
        # a fixed point and the orbits of the indicators of the non-normal
        # subgroup {0, 1} of S3 and of its complement
        orbit_union(symmetric3(), [(0,) * 6, (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1)]),
    ],
    ids=["golden-z5", "two-q8", "s3-non-normal"],
)
def test_mme_sweep_matches_measure_oracle(y):
    _assert_uniform_is_the_only_maximizer(y, grid=12)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 10_000), st.integers(1, 8))
def test_mme_sweep_matches_measure_oracle_on_random_specs(group, seed, grid):
    _assert_uniform_is_the_only_maximizer(random_subshift(group, seed, 2 * group.order, 4), grid)


def mme_sweep_exact(y, grid):
    """Oracle: the grid points c/N, N = ``grid``, whose measure entropy is
    not below the uniform measure's, decided in integers.

    At orbit masses c_o/N, N·|G|·h = log Π(|o|·N)^{c_o} − log Π c_o^{c_o}
    (with 0^0 = 1), and N·|G|·h(uniform) = log |Y|^N, so h < h(uniform)
    exactly when Π(|o|·N)^{c_o} < |Y|^N · Π c_o^{c_o}: the cross powers
    :class:`EntropyValue` compares by.  A point at the uniform masses ties.
    """
    sizes = [len(orb) for orb in orbits(y)]
    bound = len(y.configs) ** grid
    not_below = []
    for comp in compositions(grid, len(sizes)):
        left = math.prod((size * grid) ** c for size, c in zip(sizes, comp) if c)
        right = bound * math.prod(c ** c for c in comp if c)
        if left >= right:
            not_below.append((tuple(Fraction(c, grid) for c in comp), left == right))
    return not_below


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 10_000), st.integers(1, 40))
def test_mme_verdict_matches_the_exact_sweep(group, seed, grid):
    y = random_subshift(group, seed, 2 * group.order, 4)
    uniform = orbit_masses(y, mme(y))
    # on the grid of its own denominator the uniform measure ties with
    # itself and every other point lies strictly below; on the drawn grid,
    # so does every point but the uniform one, if it is there
    own = math.lcm(*(m.denominator for m in uniform))
    assert mme_sweep_exact(y, own) == [(uniform, True)]
    on_grid = grid % own == 0
    assert mme_sweep_exact(y, grid) == ([(uniform, True)] if on_grid else [])


def test_mme_exact_sweep_has_no_false_tie_on_a_fine_grid():
    # the float sweep's tolerance made a tie of the points next to the
    # uniform one on the two-point space at N = 100000; the integers do not
    y = enumerate_sft(two_point_spec(cyclic(2)))
    assert orbit_masses(y, mme(y)) == (Fraction(1, 2), Fraction(1, 2))
    n = 100_000
    for c in (n // 2 - 1, n // 2 + 1):
        assert 2 ** n * c ** c * (n - c) ** (n - c) > n ** n


def test_variational_inequality_on_grid():
    y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
    best, _ = mme_sweep_by_measures(y, grid=20)
    assert best <= float(entropy(y)) + 1e-12


def mme_lines_by_enumeration(y):
    """Oracle: the ``check mme`` lines, with the uniform measure's entropy
    from its cylinders and the verdict from :func:`mme_sweep_exact` on the
    finest grid N <= |Y| of at most 2000 points: every orbit-mass vector
    with denominator |Y| when there are that few."""
    mu = mme(y)
    uniform = orbit_masses(y, mu)
    k = len(uniform)
    fits = takewhile(lambda n: math.comb(n + k - 1, k - 1) <= 2000, range(1, len(y.configs) + 1))
    grid = max(fits, default=1)
    not_below = mme_sweep_exact(y, grid)
    return [f"max measure entropy {measure_entropy(y, mu):.6f}",
            f"uniform attains the maximum: {all(tie for _, tie in not_below)}",
            f"unique maximizer: {all(m == uniform for m, _ in not_below)}"]


def write_spec(directory, spec):
    """Write ``spec`` and its group, as a table, to files in ``directory``;
    return the spec file's path."""
    rows = "".join(" ".join(map(str, row)) + "\n" for row in spec.group.mul)
    with open(os.path.join(directory, "g.grp"), "w", encoding="utf-8") as f:
        f.write(f"group table {spec.group.order}\n{rows}")
    lines = ["sft", "group g.grp", "alphabet 0 1", "shape " + " ".join(map(str, spec.forbidden_shape))]
    lines += ["forbid " + " ".join(map(str, w.symbols)) for w in spec.forbidden]
    path = os.path.join(directory, "x.sft")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.sampled_from(PROPERTY_GROUPS + [alternating4()]), st.integers(0, 10_000))
def test_cli_check_answers_from_the_count_as_the_enumerated_space_does(group, seed):
    spec = random_sft_spec(group, random.Random(seed))
    y = enumerate_sft(spec)
    oracle = {
        "zero": [zero_verdict_by_enumeration(y)],
        "entmin": ["entropy minimal" if equal_entropy_subshift(y, minus_one_orbit(y)) is None
                   else "not entropy minimal"],
        "mme": mme_lines_by_enumeration(y),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spec(tmp, spec)
        assert files.read_sft(path) == spec
        for kind, want in oracle.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["check", kind, path]) == 0
            assert out.getvalue().splitlines() == want, kind
