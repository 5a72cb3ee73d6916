"""Alphabets, patterns and configuration shifts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift.errors import InputError
from finshift.fixtures import dihedral4, symmetric3
from finshift.freext import assemble, extension_context
from finshift.groups import cyclic
from finshift.patterns import Alphabet, Pattern, shift_config


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


def test_coset_family_validation():
    # a coset family is a plain tuple of base configurations, one per coset;
    # assemble checks the member count and each member's length
    ctx = extension_context(cyclic(4), cyclic(2), (0, 2))
    assert assemble(ctx, ((0, 1), (1, 1))) == (0, 1, 1, 1)
    with pytest.raises(InputError, match="coset"):
        assemble(ctx, ((0, 1),))
    with pytest.raises(InputError, match="member"):
        assemble(ctx, ((0, 1, 0), (1, 1)))
