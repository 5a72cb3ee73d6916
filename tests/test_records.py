"""The package's records: equality and hashing by fields, immutability,
validation and normalisation on construction, and their reprs."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from finshift.dynprops import AutomorphismGroup, EntropyValue, InvariantMeasure, SiVerdict
from finshift.errors import InputError
from finshift.freext import BaseExtractResult, ExtensionContext, extension_context
from finshift.groups import FiniteGroup, GroupTower, Subgroup, cyclic, z2_power_tower
from finshift.patterns import BINARY, Alphabet, Pattern
from finshift.shiftspace import BlockMap, SftSpec, ShiftSpace, full_shift
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
        ((2, 0), "entropy parameters must be positive integers")]),
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


def test_records_normalise_on_construction():
    golden = frozenset({GOLDEN})
    spec = SftSpec(Z2, BINARY, [1, 0, 1], golden)
    assert spec.forbidden_shape == (0, 1)
    assert spec == SftSpec(Z2, BINARY, (0, 1), golden)
    assert BlockMap(POINT, (2, 0, 2), {}, BINARY).window == (0, 2)
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
