"""Group construction, subgroups and towers."""

import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift.errors import InputError, ResourceError, ValidationError
from finshift.fixtures import (
    alternating4,
    dihedral4,
    klein,
    quaternion,
    symmetric3,
    symmetric_tower,
)
from finshift.freext import extension_context, family_action
from finshift.groups import (
    Subgroup,
    _close_under,
    _generators,
    build_tower,
    cyclic,
    from_table,
    generated_subgroup,
    product,
    subgroups_and_closures,
    z2_power_tower,
)


def element_order(g, a):
    n, x = 1, a
    while x != g.identity:
        x = g.mul[x][a]
        n += 1
    return n


def test_cyclic_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.inv == (0,)


def test_cyclic_four():
    g = cyclic(4)
    assert g.order == 4
    assert element_order(g, 1) == 4
    assert g.inv[1] == 3
    assert g.mul[2][3] == 1


def test_klein_four():
    g = product(cyclic(2), cyclic(2))
    assert g.order == 4
    assert all(element_order(g, a) <= 2 for a in g.elements())


def test_from_table_rejects_broken_tables():
    with pytest.raises(ValidationError, match="closure"):
        from_table([[0, 1], [1, 9]])
    with pytest.raises(ValidationError, match="identity"):
        from_table([[1, 1], [1, 1]])
    # Z/4 table with one entry corrupted so that 2 has no inverse
    with pytest.raises(ValidationError):
        from_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 1], [3, 0, 1, 2]])
    with pytest.raises(ValidationError, match="associative"):
        from_table(LOOP5)
    # 1 alone reaches {0, 1}, more than half of the table; 2 must still be
    # tested, since row 2 is not a permutation: (1*2)*2 = 0, 1*(2*2) = 1
    with pytest.raises(ValidationError, match=r"non-associative: \(1\*2\)\*2"):
        from_table([[0, 1, 2], [1, 0, 2], [2, 2, 0]])


# a latin square with identity that fails associativity (order 5)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def associative_by_all_triples(table):
    """Oracle: the first triple (a, b, c) with (ab)c != a(bc), or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def identity_by_search(table):
    """Oracle: the first element neutral on both sides, or None."""
    n = len(table)
    return next(
        (e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))),
        None,
    )


def inverses_by_search(table, e):
    """Oracle: each element's first two-sided inverse, None where it has none."""
    n = len(table)
    return [
        next((b for b in range(n) if table[a][b] == e == table[b][a]), None)
        for a in range(n)
    ]


def assert_real_associativity_witness(table, message):
    a, b, c = map(int, re.match(r"non-associative: \((\d+)\*(\d+)\)\*(\d+)", message).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def from_table_verdict(table):
    """from_table's verdict, checked against the oracles: the law it names
    (or "accepted"), with the identity, inverses and witnesses it reports."""
    n = len(table)
    e = identity_by_search(table)
    inv = inverses_by_search(table, e) if e is not None else None
    try:
        g = from_table(table)
    except ValidationError as exc:
        message = str(exc)
        law = message.split(":")[0]
        if law == "closure violated":
            assert any(not 0 <= v < n for row in table for v in row)
        elif law == "no identity":
            assert e is None
        elif law == "no inverse":
            assert e is not None
            assert message == f"no inverse: element {inv.index(None)} has no two-sided inverse"
        else:
            assert law == "non-associative"
            assert e is not None and None not in inv
            assert_real_associativity_witness(table, message)
        return law
    assert (g.identity, list(g.inv)) == (e, inv)
    assert associative_by_all_triples(table) is None
    return "accepted"


TABLE_BASES = [cyclic(n) for n in range(1, 9)] + [
    product(cyclic(2), cyclic(4)),
    symmetric3(),
    dihedral4(),
    quaternion(),
    alternating4(),
]


@st.composite
def perturbed_tables(draw):
    """A base group's table under a random relabelling, with up to three
    entries overwritten (an out-of-range value now and then)."""
    g = draw(st.sampled_from(TABLE_BASES))
    n = g.order
    name = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[name[a]][name[b]] = name[g.mul[a][b]]
    cell = st.integers(0, n - 1)
    for i, j, v in draw(st.lists(st.tuples(cell, cell, st.integers(0, n)), max_size=3)):
        table[i][j] = v
    return table


def test_from_table_matches_the_oracles_on_perturbed_tables():
    verdicts = Counter()

    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(perturbed_tables())
    def check(table):
        verdicts[from_table_verdict(table)] += 1

    check()
    assert verdicts["accepted"] and verdicts["non-associative"], verdicts
    assert verdicts["no identity"] and verdicts["no inverse"], verdicts


def test_generating_sets_have_at_most_log2_n_elements():
    # Light's test costs n^2 per generator and the embedding check n
    for g in TABLE_BASES + [cyclic(1000), z2_power_tower(6).levels[-1]]:
        gens = _generators(g)
        assert _close_under(g, gens) == tuple(g.elements())
        assert 2 ** len(gens) <= g.order


def _crossed(low, high):
    """The product table of two tables, index = i + len(low) * j."""
    return [[k + len(low) * l for l in row2 for k in row1] for row2 in high for row1 in low]


def test_from_table_is_exact_above_order_64():
    # LOOP5 x Z/16, order 80, in both index orders.  With Z/16 in the low
    # digits the first generator passes Light's test and the second fails.
    z16 = cyclic(16).mul
    for table in (_crossed(LOOP5, z16), _crossed(z16, LOOP5)):
        with pytest.raises(ValidationError, match="non-associative"):
            from_table(table)
        assert from_table_verdict(table) == "non-associative"


def test_from_table_entry_types_keep_their_verdicts():
    # bool is an int subclass, so a table of bools is a table of indices
    g = from_table([[False, True], [True, False]])
    assert (g.order, g.identity, g.inv) == (2, 0, (0, 1))
    with pytest.raises(ValidationError, match=r"entry \(0,0\) = True is not"):
        from_table([[True]])
    with pytest.raises(ValidationError, match=r"entry \(0,1\) = 1\.0 is not"):
        from_table([[0, 1.0], [1.0, 0]])


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_inverses(n):
    g = cyclic(n)
    for a in g.elements():
        assert g.mul[a][g.inv[a]] == g.identity


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
def test_product_is_componentwise(n, m):
    g = product(cyclic(n), cyclic(m))
    assert g.order == n * m
    for a in g.elements():
        for b in g.elements():
            i, j = a % n, a // n
            k, l = b % n, b // n
            assert g.mul[a][b] == (i + k) % n + n * ((j + l) % m)


def test_cyclic_tables_are_bounded_before_building():
    # 4096^2 = 2^24 entries is the limit, and 4097 is refused before any
    # entry is built, so nothing large is allocated here
    with pytest.raises(ResourceError, match=r"cyclic group of order 4097 needs 16785409 table "
                                            r"entries \(limit 16777216\)"):
        cyclic(4097)


def test_trusted_constructors_build_what_from_table_validates():
    # cyclic, product and as_group skip validation: their tables must pass it
    # every other fixture has identity 0, which hides a wrong closed form
    z3_e2 = from_table([[(a + b + 1) % 3 for b in range(3)] for a in range(3)])
    fixtures = [cyclic(2), klein(), symmetric3(), dihedral4(), quaternion(), z3_e2]
    groups = [cyclic(n) for n in range(1, 65)]
    groups += [product(a, b) for a in fixtures for b in fixtures]
    groups += [
        sub.as_group()[0]
        for g in (symmetric3(), dihedral4(), alternating4(), product(z3_e2, cyclic(2)))
        for sub in subgroups_and_closures(g)[0]
    ]
    for g in groups:
        assert g == from_table(g.mul)
    g = cyclic(6)
    for members in [(0, 1), (1, 3, 5), ()]:
        with pytest.raises(InputError, match="not closed"):
            Subgroup(g, members).as_group()


def test_generated_subgroup():
    g = cyclic(4)
    assert generated_subgroup(g, set()).members == (0,)
    assert generated_subgroup(g, {2}).members == (0, 2)
    assert generated_subgroup(g, {1}).members == (0, 1, 2, 3)
    with pytest.raises(InputError):
        generated_subgroup(g, {7})


def test_all_subgroups_of_z4():
    subs = [s.members for s in subgroups_and_closures(cyclic(4))[0]]
    assert subs == [(0,), (0, 2), (0, 1, 2, 3)]


def test_all_subgroups_of_klein():
    subs = [s.members for s in subgroups_and_closures(product(cyclic(2), cyclic(2)))[0]]
    assert len(subs) == 5  # trivial, three order-2, whole group


def closure_by_products(g, gens):
    """Oracle: the generators and the identity, closed under all products."""
    members = {g.identity, *gens}
    while (closed := members | {g.mul[a][b] for a in members for b in members}) != members:
        members = closed
    return tuple(sorted(members))


def subgroups_by_subset_closure(g):
    """Oracle: close every one of the 2^|g| subsets under products."""
    found = set()
    for r in range(g.order + 1):
        for gens in combinations(g.elements(), r):
            found.add(closure_by_products(g, gens))
    return sorted(found, key=lambda m: (len(m), m))


def _is_normal(g, members):
    return all(
        g.mul[g.mul[x][h]][g.inv[x]] in members for x in g.elements() for h in members
    )


@pytest.mark.parametrize(
    "name, g, count, normal",
    [
        ("z1", cyclic(1), 1, 1),
        ("z6", cyclic(6), 4, 4),
        ("z8", cyclic(8), 4, 4),
        ("klein", klein(), 5, 5),
        ("z2xz4", product(cyclic(2), cyclic(4)), 8, 8),
        ("z2^3", product(klein(), cyclic(2)), 16, 16),
        ("s3", symmetric3(), 6, 3),
        ("d4", dihedral4(), 10, 6),
        ("q8", quaternion(), 6, 6),
        ("z2xs3", product(cyclic(2), symmetric3()), 16, 7),
        ("a4", alternating4(), 10, 3),
    ],
)
def test_all_subgroups_match_subset_closure(name, g, count, normal):
    subs = [s.members for s in subgroups_and_closures(g)[0]]
    assert subs == subgroups_by_subset_closure(g)
    assert len(subs) == count
    assert sum(_is_normal(g, m) for m in subs) == normal


def test_all_subgroups_budget_counts_closures():
    g = z2_power_tower(4).levels[3]
    assert len(subgroups_and_closures(g, budget=2000)[0]) == 67
    with pytest.raises(ResourceError, match="after 100 closures"):
        subgroups_and_closures(g, budget=100)
    # the count reported is the least budget that passes
    for g in (g, cyclic(5), symmetric3(), alternating4()):
        subs, closures = subgroups_and_closures(g)
        assert subgroups_and_closures(g, budget=closures) == (subs, closures)
        with pytest.raises(ResourceError, match=f"after {closures - 1} closures"):
            subgroups_and_closures(g, budget=closures - 1)


CLOSURE_GROUPS = [cyclic(1), cyclic(2), cyclic(12), klein(), symmetric3(), dihedral4(),
                  quaternion(), alternating4(), z2_power_tower(4).levels[3],
                  symmetric_tower(4).levels[3]]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.data())
def test_closure_matches_closing_under_all_products(data):
    g = data.draw(st.sampled_from(CLOSURE_GROUPS))
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    assert _close_under(g, gens) == closure_by_products(g, gens)
    assert generated_subgroup(g, gens).members == closure_by_products(g, gens)


def test_nonabelian_fixtures():
    for g, orders in (
        (symmetric3(), [1, 2, 2, 2, 3, 3]),
        (dihedral4(), [1, 2, 2, 2, 2, 2, 4, 4]),
        (quaternion(), [1, 2, 4, 4, 4, 4, 4, 4]),
        (alternating4(), [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]),
    ):
        assert g.identity == 0
        assert sorted(element_order(g, a) for a in g.elements()) == orders
        assert any(g.mul[a][b] != g.mul[b][a] for a in g.elements() for b in g.elements())


def test_is_subgroup():
    # a subset is a subgroup exactly when it is closed; the closed subsets
    # of Z/6 are the members of its subgroups
    g = cyclic(6)
    closed = {sub.members for sub in subgroups_and_closures(g)[0]}
    assert (0, 2, 4) in closed
    assert Subgroup(g, (0, 2, 4)).as_group()[0].order == 3
    for members in [(0, 3, 4), (1, 2)]:
        assert members not in closed
        with pytest.raises(InputError, match="closed"):
            Subgroup(g, members).as_group()


def test_right_cosets_rejects_out_of_range_members():
    # coset coordinates live in the extension context, which refuses a
    # base that reaches outside the ambient group
    with pytest.raises(ValidationError, match="outside"):
        extension_context(cyclic(4), cyclic(2), (0, 7))


def test_coset_action_composition_is_reversed():
    # acting by a then by b lands where acting by b*a does; perm_a[i] is
    # the coset of reps[i]*a, the member family_action moves into coset i
    g = product(cyclic(4), cyclic(2))
    ctx = extension_context(g, cyclic(2), (0, 2))

    def perm(a):
        return tuple(ctx.coset_of[g.mul[c][a]] for c in ctx.reps)

    constants = tuple((i,) * ctx.base_group.order for i in range(ctx.cosets))
    for a in g.elements():
        pa = perm(a)
        assert tuple(m[0] for m in family_action(ctx, a, constants)) == pa
        for b in g.elements():
            pb = perm(b)
            composed = tuple(pa[pb[i]] for i in range(ctx.cosets))
            assert composed == perm(g.mul[b][a])


def test_subgroup_as_group_is_isomorphic_copy():
    g = cyclic(6)
    sub = generated_subgroup(g, {2})
    standalone, embed = sub.as_group()
    assert standalone.order == 3
    for a in standalone.elements():
        for b in standalone.elements():
            assert embed[standalone.mul[a][b]] == g.mul[embed[a]][embed[b]]


def test_tower_accepts_valid_embedding():
    t = build_tower([cyclic(2), cyclic(4)], [(0, 2)])
    assert t.embed_up(0, 1) == (0, 2)
    assert t.embed_up(0, 0) == (0, 1)


def test_tower_rejects_non_homomorphism():
    with pytest.raises(ValidationError, match="homomorphism"):
        build_tower([cyclic(2), cyclic(4)], [(0, 1)])
    with pytest.raises(ValidationError, match="injective"):
        build_tower([cyclic(2), cyclic(4)], [(0, 0)])
    # respects the first generator of V4 but not the second, whose image
    # has order 4; the image {0, 2, 4, 6} is a subgroup all the same
    emb = (0, 4, 2, 6)
    assert embedding_verdict_by_all_pairs(klein(), cyclic(8), emb) == "homomorphism"
    with pytest.raises(ValidationError, match=r"homomorphism: witness pair \(2,2\)"):
        build_tower([klein(), cyclic(8)], [emb])


def embedding_verdict_by_all_pairs(lo, hi, emb):
    """Oracle: the law an index map ``lo -> hi`` breaks, over all pairs."""
    if len(set(emb)) != len(emb):
        return "injective"
    if not all(0 <= a < hi.order for a in emb):
        return "outside"
    for a in lo.elements():
        for b in lo.elements():
            if emb[lo.mul[a][b]] != hi.mul[emb[a]][emb[b]]:
                return "homomorphism"
    return "accepted"


EMBEDDING_TARGETS = [
    cyclic(6),
    product(cyclic(2), cyclic(4)),
    symmetric3(),
    dihedral4(),
    quaternion(),
    alternating4(),
]


def test_embedding_check_matches_all_pairs_oracle():
    verdicts = Counter()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.data())
    def check(data):
        hi = data.draw(st.sampled_from(EMBEDDING_TARGETS))
        sub = data.draw(st.sampled_from(subgroups_and_closures(hi)[0]))
        lo, members = sub.as_group()
        emb = list(members)
        cell = st.integers(0, lo.order - 1)
        for a, v in data.draw(st.lists(st.tuples(cell, st.integers(0, hi.order)), max_size=2)):
            emb[a] = v
        want = embedding_verdict_by_all_pairs(lo, hi, emb)
        try:
            build_tower([lo, hi], [emb])
        except ValidationError as exc:
            message = str(exc)
            assert want in message
            if want == "homomorphism":
                a, b = map(int, re.search(r"\((\d+),(\d+)\)", message).groups())
                assert emb[lo.mul[a][b]] != hi.mul[emb[a]][emb[b]]
        else:
            assert want == "accepted"
        verdicts[want] += 1

    check()
    assert verdicts["accepted"] and verdicts["homomorphism"], verdicts
    assert verdicts["injective"] and verdicts["outside"], verdicts


def test_z2_power_tower():
    t = z2_power_tower(3)
    assert [g.order for g in t.levels] == [2, 4, 8]
    assert t.embed_up(0, 2) == (0, 1)
    emb = t.embed_up(1, 2)
    for a in t.levels[1].elements():
        for b in t.levels[1].elements():
            assert emb[t.levels[1].mul[a][b]] == t.levels[2].mul[emb[a]][emb[b]]
