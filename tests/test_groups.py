"""Group construction, subgroups, cosets and towers."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift.errors import InputError, ResourceError, ValidationError
from finshift.fixtures import alternating4, dihedral4, klein, quaternion, symmetric3
from finshift.groups import (
    Subgroup,
    all_subgroups,
    build_tower,
    coset_action,
    cyclic,
    from_table,
    generated_subgroup,
    is_subgroup,
    make_group,
    product,
    right_cosets,
    z2_power_tower,
)


def test_cyclic_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.inv == (0,)


def test_cyclic_four():
    g = cyclic(4)
    assert g.order == 4
    assert g.element_order(1) == 4
    assert g.inv[1] == 3
    assert g.mul[2][3] == 1


def test_klein_four():
    g = product(cyclic(2), cyclic(2))
    assert g.order == 4
    assert all(g.element_order(a) <= 2 for a in g.elements())


def test_make_group_forms():
    assert make_group(("cyclic", 6)).order == 6
    assert make_group(("product", ("cyclic", 2), ("cyclic", 3))).order == 6
    assert make_group(("table", [[0, 1], [1, 0]])).order == 2
    with pytest.raises(InputError):
        make_group(("nonsense",))


def test_from_table_rejects_broken_tables():
    with pytest.raises(ValidationError, match="closure"):
        from_table([[0, 1], [1, 9]])
    with pytest.raises(ValidationError, match="identity"):
        from_table([[1, 1], [1, 1]])
    # Z/4 table with one entry corrupted so that 2 has no inverse
    with pytest.raises(ValidationError):
        from_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 1], [3, 0, 1, 2]])
    with pytest.raises(ValidationError, match="associative"):
        # latin square with identity that fails associativity (order 5)
        from_table(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


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


def test_generated_subgroup():
    g = cyclic(4)
    assert generated_subgroup(g, set()).members == (0,)
    assert generated_subgroup(g, {2}).members == (0, 2)
    assert generated_subgroup(g, {1}).members == (0, 1, 2, 3)
    with pytest.raises(InputError):
        generated_subgroup(g, {7})


def test_all_subgroups_of_z4():
    subs = [s.members for s in all_subgroups(cyclic(4))]
    assert subs == [(0,), (0, 2), (0, 1, 2, 3)]


def test_all_subgroups_of_klein():
    subs = [s.members for s in all_subgroups(product(cyclic(2), cyclic(2)))]
    assert len(subs) == 5  # trivial, three order-2, whole group


def subgroups_by_subset_closure(g):
    """Oracle: close every one of the 2^|g| subsets under products."""
    found = set()
    for r in range(g.order + 1):
        for gens in combinations(g.elements(), r):
            members = {g.identity, *gens}
            while True:
                closed = members | {g.mul[a][b] for a in members for b in members}
                if closed == members:
                    break
                members = closed
            found.add(tuple(sorted(members)))
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
    subs = [s.members for s in all_subgroups(g)]
    assert subs == subgroups_by_subset_closure(g)
    assert len(subs) == count
    assert sum(_is_normal(g, m) for m in subs) == normal


def test_all_subgroups_budget_counts_closures():
    g = z2_power_tower(4).levels[3]
    assert len(all_subgroups(g, budget=2000)) == 67
    with pytest.raises(ResourceError, match="after 100 closures"):
        all_subgroups(g, budget=100)


def test_nonabelian_fixtures():
    for g, orders in (
        (symmetric3(), [1, 2, 2, 2, 3, 3]),
        (dihedral4(), [1, 2, 2, 2, 2, 2, 4, 4]),
        (quaternion(), [1, 2, 4, 4, 4, 4, 4, 4]),
        (alternating4(), [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]),
    ):
        assert g.identity == 0
        assert sorted(g.element_order(a) for a in g.elements()) == orders
        assert any(g.mul[a][b] != g.mul[b][a] for a in g.elements() for b in g.elements())


def test_is_subgroup():
    g = cyclic(6)
    assert is_subgroup(g, {0, 2, 4})
    assert not is_subgroup(g, {0, 3, 4})
    assert not is_subgroup(g, {1, 2})


def test_subgroup_as_group_is_isomorphic_copy():
    g = cyclic(6)
    sub = generated_subgroup(g, {2})
    standalone, embed = sub.as_group()
    assert standalone.order == 3
    for a in standalone.elements():
        for b in standalone.elements():
            assert embed[standalone.mul[a][b]] == g.mul[embed[a]][embed[b]]


def test_right_cosets_of_z4():
    g = cyclic(4)
    dec = right_cosets(g, generated_subgroup(g, {2}))
    assert dec.cosets == (frozenset({0, 2}), frozenset({1, 3}))
    assert dec.reps == (0, 1)
    assert dec.coset_of == (0, 1, 0, 1)


def test_right_cosets_custom_reps():
    g = cyclic(4)
    sub = generated_subgroup(g, {2})
    dec = right_cosets(g, sub, reps=(2, 3))
    assert dec.reps == (2, 3)
    with pytest.raises(InputError):
        right_cosets(g, sub, reps=(1, 0))  # rep not in its coset


def test_right_cosets_rejects_out_of_range_members():
    g = cyclic(4)
    assert not is_subgroup(g, {0, 7})
    with pytest.raises(InputError):
        right_cosets(g, Subgroup(g, (0, 7)))


def test_coset_action_swaps():
    g = cyclic(4)
    dec = right_cosets(g, generated_subgroup(g, {2}))
    perm, corrections = coset_action(dec, 1)
    assert perm == (1, 0)
    assert all(c in {0, 2} for c in corrections)


def test_coset_action_composition_is_reversed():
    # acting by g then by h lands where acting by h*g does
    g = product(cyclic(4), cyclic(2))
    sub = generated_subgroup(g, {2})
    dec = right_cosets(g, sub)
    for a in g.elements():
        pa, _ = coset_action(dec, a)
        for b in g.elements():
            pb, _ = coset_action(dec, b)
            pab, _ = coset_action(dec, g.mul[b][a])
            composed = tuple(pa[pb[i]] for i in range(dec.index))
            assert composed == pab


def test_tower_accepts_valid_embedding():
    t = build_tower([cyclic(2), cyclic(4)], [(0, 2)])
    assert t.embed_up(0, 1) == (0, 2)
    assert t.embed_up(0, 0) == (0, 1)


def test_tower_rejects_non_homomorphism():
    with pytest.raises(ValidationError, match="homomorphism"):
        build_tower([cyclic(2), cyclic(4)], [(0, 1)])
    with pytest.raises(ValidationError, match="injective"):
        build_tower([cyclic(2), cyclic(4)], [(0, 0)])


def test_z2_power_tower():
    t = z2_power_tower(3)
    assert [g.order for g in t.levels] == [2, 4, 8]
    assert t.embed_up(0, 2) == (0, 1)
    emb = t.embed_up(1, 2)
    for a in t.levels[1].elements():
        for b in t.levels[1].elements():
            assert emb[t.levels[1].mul[a][b]] == t.levels[2].mul[emb[a]][emb[b]]
