"""The package's records: equality and hashing by fields, immutability,
validation and normalisation on construction, and their reprs; and bad
arguments to the public constructors and sweeps, which end in a
:class:`FinshiftError` or an answer the oracles confirm."""

import copy
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as product_of

import pytest

from finshift.dynprops import AutomorphismGroup, EntropyValue, InvariantMeasure, SiVerdict
from finshift.errors import FinshiftError, InputError
from finshift.freext import BaseExtractResult, ExtensionContext, extension_context
from finshift.groups import (FiniteGroup, GroupTower, Subgroup, build_tower, cyclic, from_table,
                             product, z2_power_tower)
from finshift.patterns import BINARY, Alphabet, Pattern, shift_config
from finshift.shiftspace import (BlockMap, SftSpec, ShiftSpace, apply_block_code, count_sft,
                                 enumerate_hypergraph, enumerate_sft_naive, frontier_count,
                                 full_shift)
from finshift.suites import CheckResult, SuiteReport

Z2, Z3, Z4 = cyclic(2), cyclic(3), cyclic(4)
AB = Alphabet(("a", "b"))
GOLDEN = Pattern(Z2, (0, 1), (1, 1))
POINT = ShiftSpace(Z2, BINARY, frozenset({(0, 0)}))
FIXED = ShiftSpace(Z2, BINARY, frozenset({(0, 0), (1, 1)}))
FULL = full_shift(Z2, BINARY)
TOWER = z2_power_tower(2)
CTX = extension_context(Z4, Z2, (0, 2))

HALF = Fraction(1, 2)

# class -> its field names, the fields of one record, for each field a value
# that, put in alone, still makes a valid record, and invalid fields with
# the InputError each gets
RECORDS = {
    FiniteGroup: (("mul", "identity", "inv"),
                  (Z2.mul, 0, (0, 1)), (Z3.mul, 1, (1, 0)), []),
    Subgroup: (("parent", "members"), (Z4, (0, 2)), (Z2, (0, 1, 2, 3)), []),
    GroupTower: (("levels", "embeddings"),
                 (TOWER.levels, TOWER.embeddings), ((Z2, Z4), ((0, 2),)), []),
    Alphabet: (("symbols",), (("0", "1"),), (("a", "b"),), [
        (((),), "alphabet needs at least one symbol"),
        ((("a", "a"),), "alphabet symbols must be distinct")]),
    Pattern: (("group", "shape", "symbols"), (Z4, (0, 1), (1, 0)), (cyclic(5), (0, 2), (1, 1)), [
        ((Z4, (0,), (1, 0)), "shape and symbols must have equal length"),
        ((Z4, (2, 0), (1, 0)), "shape must be strictly increasing"),
        ((Z4, (0, 4), (1, 0)), "shape contains indices outside the group")]),
    SftSpec: (("group", "alphabet", "forbidden_shape", "forbidden"),
              (Z2, BINARY, (0, 1), frozenset()), (Z3, AB, (0,), frozenset({GOLDEN})), [
        ((Z2, BINARY, (0, 2), frozenset()), "forbidden shape contains indices outside the group"),
        ((Z2, BINARY, (0,), frozenset({GOLDEN})),
         "every forbidden pattern must live exactly on the spec shape"),
        ((Z2, BINARY, (0, 1), frozenset({Pattern(Z2, (0, 1), (2, 0))})),
         "forbidden symbol 2 is outside the alphabet of size 2")]),
    ShiftSpace: (("group", "alphabet", "configs"),
                 (Z2, BINARY, frozenset({(0, 0)})), (Z3, AB, frozenset({(1, 1)})), []),
    BlockMap: (("domain", "window", "table", "target_alphabet"),
               (POINT, (0,), {(0,): 0}, BINARY), (FULL, (1,), {(1,): 1}, AB), []),
    EntropyValue: (("count", "denom"), (2, 1), (3, 2), [
        ((0, 1), "entropy parameters must be positive integers"),
        ((2, 0), "entropy parameters must be positive integers"),
        ((2.5, 1), "entropy parameters must be positive integers"),
        ((4, 2.0), "entropy parameters must be positive integers")]),
    SiVerdict: (("ok", "counterexample"), (True, None), (False, (GOLDEN, GOLDEN)), []),
    AutomorphismGroup: (("space", "elements", "composition"),
                        (POINT, ((0,),), ((0,),)), (FULL, ((0, 1),), ((1,),)), []),
    InvariantMeasure: (("space", "weights"),
                       (FIXED, {(0, 0): HALF, (1, 1): HALF}),
                       (ShiftSpace(Z2, AB, FIXED.configs), {(0, 0): Fraction(1), (1, 1): 0}), [
        ((POINT, {}), "weights must cover exactly the configurations"),
        ((FIXED, {(0, 0): -HALF, (1, 1): 3 * HALF}), "weights must be non-negative"),
        ((POINT, {(0, 0): HALF}), "weights sum to 1/2, expected 1"),
        ((FULL, {(0, 0): HALF, (1, 1): 0, (0, 1): HALF, (1, 0): 0}),
         "measure is not constant on a shift orbit")]),
    ExtensionContext: (("ambient", "base_group", "base_embed", "reps", "coset_of", "base_pos"),
                       (CTX.ambient, CTX.base_group, CTX.base_embed, CTX.reps, CTX.coset_of,
                        CTX.base_pos),
                       (cyclic(6), Z3, (0, 1), (0, 3), (0, 0, 1, 1), (1, 0, 1, 0)), []),
    BaseExtractResult: (("ok", "spec", "witness"),
                        (True, SftSpec(Z2, BINARY, (0,), frozenset()), None),
                        (False, None, (0, 1)), []),
}
# records with a dict field cannot be hashed
UNHASHABLE = {BlockMap, InvariantMeasure}
# how many trailing fields a record may leave to their defaults
DEFAULTS = {SiVerdict: 1}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_compare_hash_refuse_changes_and_validate(cls):
    names, values, alternatives, invalid = RECORDS[cls]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert tuple(getattr(a, name) for name in names) == values
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    for i, name in enumerate(names):
        other = cls(*values[:i], alternatives[i], *values[i + 1:])
        assert a != other and not a == other, name
        with pytest.raises(AttributeError):
            setattr(a, name, alternatives[i])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == values[i]
    with pytest.raises(AttributeError):
        a.unknown = 1
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and type(clone) is cls
    # a record equals no object of another class, even one with its fields
    assert a != values and a != ShiftSpace(Z2, BINARY, frozenset())
    if cls is FiniteGroup:
        assert repr(a) == "FiniteGroup(order=2)"
    else:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(a) == f"{cls.__name__}({fields})"
    for args, message in invalid:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cls(*args)
    # one value too few or too many is refused, naming the class
    with pytest.raises(TypeError, match=f"^{cls.__name__}"):
        cls(*values[:len(values) - DEFAULTS.get(cls, 0) - 1])
    with pytest.raises(TypeError, match=f"^{cls.__name__}"):
        cls(*values, values[-1])


def test_records_normalise_on_construction():
    golden = frozenset({GOLDEN})
    spec = SftSpec(Z2, BINARY, [1, 0, 1], golden)
    assert spec.forbidden_shape == (0, 1)
    assert spec == SftSpec(Z2, BINARY, (0, 1), golden)
    point4 = ShiftSpace(Z4, BINARY, frozenset({(0, 0, 0, 0)}))
    assert BlockMap(point4, (2, 0, 2), {}, BINARY).window == (0, 2)
    assert (EntropyValue(4, 2).count, EntropyValue(4, 2).denom) == (2, 1)
    assert EntropyValue(4, 2) == EntropyValue(2, 1)
    assert SiVerdict(True) == SiVerdict(True, None)
    assert SiVerdict(True).counterexample is None


def test_a_group_hash_is_its_table_hash_and_stays_out_of_equality():
    g = cyclic(20)
    assert hash(g) == hash((g.mul, g.identity, g.inv))
    assert g == cyclic(20) and g != Z2
    assert "_hash" not in repr(g) and not hasattr(g, "__dict__")


def test_suite_results_stay_mutable():
    report = SuiteReport("zline")
    assert report.checks == []
    result = CheckResult("zline/check", True, "", 0.5)
    report.checks.append(result)
    result.passed, result.witness = False, "it failed"
    assert not report.passed
    assert report.render().splitlines() == [
        "suite zline", "CHECK zline/check FAIL (0.500s)", "    it failed", "suite zline FAIL"]


# arguments that are not integers, integral or not
NON_INTEGERS = (0.5, 1.0, "1", None)
GROUPS = (Z2, Z3, Z4, cyclic(5), product(Z2, Z2))


def _bad(rng, size):
    """An index argument refused below ``size``: out of range, negative or
    not an integer."""
    return rng.choice([size + rng.randrange(3), -1 - rng.randrange(size + 1),
                       rng.choice(NON_INTEGERS)])


def _spoil(rng, items, size):
    """``items`` as a tuple with one entry made :func:`_bad`, or with one
    dropped or repeated, so that its length is wrong."""
    items = list(items)
    roll = rng.random()
    if roll < 0.6:
        items[rng.randrange(len(items))] = _bad(rng, size)
    elif roll < 0.8:
        del items[rng.randrange(len(items))]
    else:
        items.append(rng.choice(items))
    return tuple(items)


def _cells(rng, group, most):
    return tuple(sorted(rng.sample(range(group.order), rng.randint(1, min(most, group.order)))))


def _pattern(rng):
    g = rng.choice(GROUPS)
    shape = _cells(rng, g, 3)
    symbols = tuple(rng.randrange(2) for _ in shape)

    def check(p):
        assert len(p.shape) == len(p.symbols) and all(type(c) is int for c in p.shape)
        assert list(p.shape) == sorted(set(p.shape)) and set(p.shape) <= set(g.elements())
    return lambda: Pattern(g, _spoil(rng, shape, g.order), symbols), check


def _spec(rng):
    g, k = rng.choice(GROUPS), rng.randint(1, 3)
    shape = _cells(rng, g, 3)
    words = [tuple(rng.randrange(k) for _ in shape) for _ in range(rng.randint(1, 3))]
    spec_shape, pattern_shape = shape, shape
    what = rng.randrange(3)
    if what == 0:  # a shape cell, or the shape's length; a repeat is normalised away
        spec_shape = _spoil(rng, shape, g.order)
    elif what == 1:  # a forbidden symbol
        words[0] = words[0][:-1] + (_bad(rng, k),)
    else:  # the patterns live on a shape one cell short
        pattern_shape, words = shape[:-1], [w[:-1] for w in words]
    alphabet = Alphabet(tuple("abc"[:k]))

    def call():
        forbidden = frozenset(Pattern(g, pattern_shape, w) for w in words)
        return SftSpec(g, alphabet, spec_shape, forbidden)

    def check(spec):
        assert spec.forbidden_shape == tuple(sorted(set(spec_shape)))
        assert count_sft(spec) == len(enumerate_sft_naive(spec).configs)
    return call, check


def _block_map(rng):
    g = rng.choice(GROUPS)
    y = full_shift(g, BINARY)
    window = _spoil(rng, _cells(rng, g, 2), g.order)
    table = {w: sum(w) % 2 for w in product_of(range(2), repeat=len(set(window)))}

    def check(image):
        cells = sorted(set(window))
        assert image.configs == {
            tuple(table[tuple(x[g.mul[f][h]] for f in cells)] for h in g.elements())
            for x in y.configs}
    return lambda: apply_block_code(y, BlockMap(y, window, table, BINARY)), check


def _shift(rng):
    g = rng.choice(GROUPS)
    element, config = rng.randrange(g.order), tuple(rng.randrange(2) for _ in g.elements())
    if rng.random() < 0.5:
        element = _bad(rng, g.order)
    else:  # a symbol outside the alphabet still shifts; a length does not
        config = _spoil(rng, config, 2)

    def check(shifted):
        assert shifted == tuple(config[g.mul[h][element]] for h in g.elements())
    return lambda: shift_config(g, element, config), check


def _hypergraph(rng):
    n, k, size = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
    windows = [tuple(rng.choices(range(n), k=size)) for _ in range(rng.randint(1, 4))]
    words = [tuple(rng.randrange(k) for _ in range(size)) for _ in range(rng.randint(1, 3))]
    what = rng.randrange(5)
    if what == 0:  # no cells, negative, not an integer, or more cells than windows read
        n = rng.choice([0, -1 - rng.randrange(3), rng.choice(NON_INTEGERS), n + 1])
    elif what == 1:
        k = rng.choice([0, -1 - rng.randrange(3), rng.choice(NON_INTEGERS), k + 1])
    elif what == 2:
        windows[0] = _spoil(rng, windows[0], n)
    elif what == 3:
        words[0] = _spoil(rng, words[0], k)
    sweep = rng.choice([frontier_count, enumerate_hypergraph])

    def check(found):
        configs = {x for x in product_of(range(k), repeat=n)
                   if not any(tuple(x[c] for c in w) in words for w in windows)}
        assert found == (len(configs) if sweep is frontier_count else configs)
    return lambda: sweep(n, windows, set(words), k), check


def _entropy(rng):
    args = [rng.randint(1, 64), rng.randint(1, 6)]
    if rng.random() < 0.8:
        args[rng.randrange(2)] = rng.choice([0, -rng.randint(1, 5), 2.5, 2.0, "2", None])
    count, denom = args

    def check(h):
        assert denom % h.denom == 0 and h.count ** denom == count ** h.denom
    return lambda: EntropyValue(count, denom), check


def _table(rng):
    g = rng.choice(GROUPS)
    rows = [list(row) for row in g.mul]
    if rng.random() < 0.8:
        i = rng.randrange(g.order)
        rows[i] = _spoil(rng, rows[i], g.order)

    def check(group):
        mul, n = group.mul, group.order
        assert all(type(v) is int and 0 <= v < n for row in mul for v in row)
        assert all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))
        assert all(group.identity in row for row in mul)
    return lambda: from_table(rows), check


def _tower(rng):
    levels, embeddings = [Z2, Z4, cyclic(8)], [(0, 2), (0, 2, 4, 6)]
    what = rng.randrange(3)
    if what == 0:
        i = rng.randrange(2)
        embeddings[i] = _spoil(rng, embeddings[i], levels[i + 1].order)
    elif what == 1:
        del embeddings[rng.randrange(2)]

    def check(tower):
        for lo, hi, emb in zip(tower.levels, tower.levels[1:], tower.embeddings):
            assert len(set(emb)) == lo.order and all(type(a) is int for a in emb)
            assert all(hi.mul[emb[a]][emb[b]] == emb[lo.mul[a][b]]
                       for a in lo.elements() for b in lo.elements())
    return lambda: build_tower(levels, embeddings), check


def test_bad_arguments_are_refused_with_a_finshift_error_or_answered_correctly():
    # each case spoils one argument of a valid call: an index out of range,
    # negative or not an integer, or a tuple of the wrong length; a raw
    # exception fails the test, and an answer must match the oracle
    rng = random.Random(0)
    cases = (_pattern, _spec, _block_map, _shift, _hypergraph, _entropy, _table, _tower)
    outcomes = Counter()
    for _ in range(2000):
        case = rng.choice(cases)
        call, check = case(rng)
        try:
            answer = call()
        except FinshiftError:
            outcomes[case.__name__, "refused"] += 1
        else:
            check(answer)
            outcomes[case.__name__, "answered"] += 1
    for case in cases:
        assert outcomes[case.__name__, "refused"] >= 100, case.__name__
    # a repeated shape or window cell, a long table and a spare cell or
    # symbol are fine, and so are some entropy values
    for name in ("_spec", "_block_map", "_shift", "_hypergraph", "_entropy", "_tower"):
        assert outcomes[name, "answered"] >= 10, name
