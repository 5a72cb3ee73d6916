"""Text file formats and the command-line surface."""

import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finshift import cli, dynprops, files
from finshift.dynprops import EntropyValue
from finshift.errors import DEFAULT_CANDIDATE_BUDGET, FormatError, InputError, ResourceError
from finshift.fixtures import golden_mean_like_spec, symmetric_tower, two_point_spec
from finshift.freext import base_extract, free_extension_spec, tower_context, tower_extend
from finshift.groups import build_tower, z2_power_tower
from finshift.shiftspace import count_sft, enumerate_sft
from finshift.suites import check_names, suite_names
from finshift.zline import golden_mean_cyclic_count


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def golden5(tmp_path):
    _write(tmp_path, "z5.grp", "group cyclic 5\n")
    return _write(
        tmp_path,
        "golden5.sft",
        "sft\ngroup z5.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n",
    )


@pytest.fixture
def doubling_tower(tmp_path):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    _write(tmp_path, "z8.grp", "group cyclic 8\n")
    return _write(
        tmp_path,
        "tower.twr",
        "tower\n"
        "level z2.grp\nlevel z4.grp\nlevel z8.grp\n"
        "embed 0 pairs 0->0 1->2\n"
        "embed 1 pairs 0->0 1->2 2->4 3->6\n",
    )


def test_read_group_kinds(tmp_path):
    assert files.read_group(_write(tmp_path, "a.grp", "group cyclic 6")).order == 6
    _write(tmp_path, "b.grp", "group cyclic 2")
    g = files.read_group(
        _write(tmp_path, "c.grp", "group product a.grp b.grp")
    )
    assert g.order == 12
    g = files.read_group(
        _write(tmp_path, "d.grp", "group table 2\n0 1\n1 0\n")
    )
    assert g.order == 2


def test_read_group_errors(tmp_path):
    with pytest.raises(FormatError):
        files.read_group(_write(tmp_path, "e.grp", ""))
    with pytest.raises(FormatError, match=r"f\.grp:1:"):
        files.read_group(_write(tmp_path, "f.grp", "grp cyclic 2"))
    with pytest.raises(FormatError):
        files.read_group(_write(tmp_path, "g.grp", "group cyclic x"))
    with pytest.raises(FormatError):
        files.read_group(_write(tmp_path, "h.grp", "group table 3\n0 1\n"))


def test_read_tower(doubling_tower):
    t = files.read_tower(doubling_tower)
    assert [g.order for g in t.levels] == [2, 4, 8]
    assert t.embeddings == ((0, 2), (0, 2, 4, 6))


def test_read_tower_errors(tmp_path):
    _write(tmp_path, "z2.grp", "group cyclic 2")
    _write(tmp_path, "z4.grp", "group cyclic 4")
    with pytest.raises(FormatError):
        files.read_tower(
            _write(
                tmp_path,
                "bad.twr",
                "tower\nlevel z2.grp\nlevel z4.grp\nembed 0 pairs 0->0\n",
            )
        )
    with pytest.raises(FormatError):
        files.read_tower(_write(tmp_path, "bad2.twr", "not-a-tower\n"))


def test_read_sft(golden5):
    spec = files.read_sft(golden5)
    assert spec.group.order == 5
    assert spec.forbidden_shape == (0, 1)
    assert len(enumerate_sft(spec).configs) == 11


def test_read_sft_unsorted_shape(tmp_path):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    path = _write(
        tmp_path,
        "s.sft",
        "sft\ngroup z4.grp\nalphabet 0 1\nshape 2 0\nforbid 1 0\n",
    )
    spec = files.read_sft(path)
    assert spec.forbidden_shape == (0, 2)
    # symbols are positional against the declared order: 1 at 2, 0 at 0
    (w,) = spec.forbidden
    assert w.as_dict() == {0: 0, 2: 1}


def test_read_sft_errors(tmp_path):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    with pytest.raises(FormatError):
        files.read_sft(
            _write(tmp_path, "t.sft", "sft\ngroup z4.grp\nshape 0 1\n")
        )
    with pytest.raises(FormatError, match=r"u\.sft:5:"):
        files.read_sft(
            _write(
                tmp_path,
                "u.sft",
                "sft\ngroup z4.grp\nalphabet 0 1\nshape 0 1\nforbid 1\n",
            )
        )


def test_read_sft_refuses_a_repeated_line(tmp_path, capsys):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    _write(tmp_path, "z3.grp", "group cyclic 3\n")
    # with the last line winning, this file would count log(4)/3 on Z/3
    twice = _write(tmp_path, "twice.sft", "sft\ngroup z4.grp\nalphabet 0 1\nshape 0 1\n"
                   "forbid 1 1\ngroup z3.grp\nshape 0 2\n")
    with pytest.raises(FormatError, match=r"twice\.sft:6: repeated group line; the first is line 2$"):
        files.read_sft(twice)
    assert cli.main(["sft", "entropy", twice]) == 2
    _assert_one_error_line(capsys, "twice.sft:6: repeated group line; the first is line 2")
    for first, again in ((3, "alphabet a b"), (4, "shape 1 2")):
        directive = again.split()[0]
        path = _write(tmp_path, f"{directive}.sft",
                      f"sft\ngroup z4.grp\nalphabet 0 1\nshape 0 1\n{again}\nforbid 1 1\n")
        with pytest.raises(FormatError,
                           match=rf":5: repeated {directive} line; the first is line {first}$"):
            files.read_sft(path)


def test_read_sft_group_line_takes_one_file(tmp_path):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    for line in ("group", "group z4.grp z4.grp"):
        path = _write(tmp_path, "g.sft", f"sft\n{line}\nalphabet 0 1\nshape 0 1\n")
        with pytest.raises(FormatError, match=r"g\.sft:2: usage: group <groupfile>$"):
            files.read_sft(path)


def test_cli_group_validate(tmp_path, capsys):
    path = _write(tmp_path, "z6.grp", "group cyclic 6\n")
    assert cli.main(["group", "validate", path]) == 0
    assert "order 6" in capsys.readouterr().out


def test_cli_sft_entropy(golden5, capsys):
    assert cli.main(["sft", "entropy", golden5]) == 0
    out = capsys.readouterr().out
    assert "log(11)/5" in out
    assert "0.479579" in out  # log(11)/5 = 0.4795790...


def _golden(tmp_path, n):
    _write(tmp_path, f"z{n}.grp", f"group cyclic {n}\n")
    return _write(
        tmp_path,
        f"golden{n}.sft",
        f"sft\ngroup z{n}.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n",
    )


def test_cli_sft_entropy_counts_past_enumeration(tmp_path, capsys):
    # enumeration refuses 2^30 candidates; the count visits a few states
    assert cli.main(["sft", "entropy", _golden(tmp_path, 30)]) == 0
    assert capsys.readouterr().out.startswith("log(1860498)/30 ≈ 0.481")


def test_cli_sft_entropy_on_z1000_is_the_lucas_number(tmp_path, capsys):
    assert cli.main(["sft", "entropy", _golden(tmp_path, 1000)]) == 0
    lucas = golden_mean_cyclic_count(1000)
    assert capsys.readouterr().out.startswith(f"log({lucas})/1000 ≈ 0.481212")


def test_cli_sft_entropy_budget_counts_states(golden5, capsys):
    assert cli.main(["--budget", "3", "sft", "entropy", golden5]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: SFT count stopped after 5 states (budget 3)\n"


def test_cli_sft_entropy_of_the_empty_space(tmp_path, capsys):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    dead = _write(
        tmp_path,
        "dead.sft",
        "sft\ngroup z4.grp\nalphabet 0 1\nshape 0\nforbid 0\nforbid 1\n",
    )
    for argv in (["sft", "entropy"], ["check", "zero"], ["check", "entmin"], ["check", "mme"]):
        assert cli.main([*argv, dead]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: entropy of the empty shift space is undefined\n"


def test_cli_check_answers_from_the_count_on_z2_power_6(tmp_path, capsys, monkeypatch):
    # |X| = 3^32 among 2^64 candidates, far past what 2^24 enumeration nodes
    # reach; the count on the shape's subgroup gives it at once
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "e2.grp", "group product z2.grp z2.grp\n")
    _write(tmp_path, "e3.grp", "group product e2.grp z2.grp\n")
    _write(tmp_path, "e6.grp", "group product e3.grp e3.grp\n")
    sft = _write(tmp_path, "e6.sft", "sft\ngroup e6.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(cli, "enumerate_sft", refuse)
    for kind, want in (
        ("zero", ["positive-entropy"]),
        ("entmin", ["entropy minimal"]),
        ("mme", ["max measure entropy 0.549306", "uniform attains the maximum: True",
                 "unique maximizer: True"]),
    ):
        assert cli.main(["check", kind, sft]) == 0
        assert capsys.readouterr().out.splitlines() == want


def test_cli_sft_enum(golden5, capsys):
    assert cli.main(["sft", "enum", golden5]) == 0
    assert "11 configurations" in capsys.readouterr().out


def test_cli_sft_enum_table_byte_for_byte(tmp_path, capsys):
    # symbols of widths 1 to 3, so the configuration column is wider than
    # its header on some rows and narrower on others; text pads every
    # column but the last, tsv pads none
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    sft = _write(tmp_path, "w.sft", "sft\ngroup z4.grp\nalphabet a bb ccc\nshape 0 1\n"
                 "forbid a a\nforbid a bb\nforbid bb a\nforbid bb bb\n")
    configs = [
        "a ccc a ccc", "a ccc bb ccc", "a ccc ccc ccc", "bb ccc a ccc", "bb ccc bb ccc",
        "bb ccc ccc ccc", "ccc a ccc a", "ccc a ccc bb", "ccc a ccc ccc", "ccc bb ccc a",
        "ccc bb ccc bb", "ccc bb ccc ccc", "ccc ccc a ccc", "ccc ccc bb ccc", "ccc ccc ccc a",
        "ccc ccc ccc bb", "ccc ccc ccc ccc",
    ]
    assert cli.main(["sft", "enum", sft]) == 0
    assert capsys.readouterr().out == "".join(
        ["index  configuration\n", *(f"{i:<5}  {c}\n" for i, c in enumerate(configs)),
         "17 configurations\n"])
    assert cli.main(["--format", "tsv", "sft", "enum", sft]) == 0
    assert capsys.readouterr().out == "".join(
        ["index\tconfiguration\n", *(f"{i}\t{c}\n" for i, c in enumerate(configs)),
         "17 configurations\n"])


def test_emit_table_pads_a_first_column_wider_than_its_header(capsys):
    cli._emit_table([("n", "word", "x"), (12345, "ab", 7), (6, "abcdef", "")], "text")
    assert capsys.readouterr().out == "n      word    x\n12345  ab      7\n6      abcdef\n"
    cli._emit_table([("n", "word"), (12345, "")], "tsv")
    assert capsys.readouterr().out == "n\tword\n12345\t\n"


@pytest.mark.parametrize("fmt", ["text", "tsv"])
def test_emit_table_refuses_a_row_before_writing_any_line(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ResourceError, match=r"^row 3 has more than 640 digits, the "):
            cli._emit_table([("n", "value"), (1, 2), (3, 10 ** 700), (4, 5)], fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().out == ""


def emit_table_by_rows(rows, fmt):
    """Oracle for :func:`cli._emit_table`: every cell converted row by row,
    each line padded and written on its own."""
    rows = [[cli._text(c, "row", row[0]) for c in row] for row in rows]
    if fmt == "tsv":
        lines = map("\t".join, rows)
    else:
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)
    sys.stdout.writelines(line + "\n" for line in lines)


def _printed(emit, rows, fmt):
    """What ``emit`` writes for the table, or how it refuses it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            emit(rows, fmt)
        except (ResourceError, ValueError) as exc:
            return type(exc).__name__, str(exc), out.getvalue()
    return out.getvalue()


# empty, wide and multi-character cells, some ending in spaces, and integers,
# one of them past the digit limit set below
CELLS = st.one_of(st.integers(-10 ** 12, 10 ** 12), st.sampled_from(["", " ", "a ", "x" * 40]),
                  st.text("ab é\t", max_size=6), st.just(10 ** 700))


@settings(deadline=None, max_examples=120, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(CELLS, min_size=width, max_size=width), min_size=1, max_size=7)),
       st.sampled_from(["text", "tsv"]))
def test_emit_table_prints_as_the_row_by_row_oracle(rows, fmt):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got, want = _printed(cli._emit_table, rows, fmt), _printed(emit_table_by_rows, rows, fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    if want[0] == ValueError.__name__:  # the oracle cannot name a row by an unprintable first cell
        assert got == ("ResourceError", "the first cell of a row has more than 640 digits, "
                       "the interpreter's limit for printing an integer", "")
    else:
        assert got == want
    # a refused table prints nothing
    assert got[-1] == "" if isinstance(got, tuple) else got.count("\n") == len(rows)


def test_cli_enumerates_few_points_among_many_candidates(tmp_path, capsys):
    # 2^30 candidates, of which 2 are points: the search visits 118 nodes
    _write(tmp_path, "z30.grp", "group cyclic 30\n")
    two = _write(
        tmp_path, "two.sft", "sft\ngroup z30.grp\nalphabet 0 1\nshape 0 1\nforbid 0 1\nforbid 1 0\n"
    )
    assert cli.main(["sft", "enum", two]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 configurations"
    assert cli.main(["check", "entmin", two]) == 0
    assert capsys.readouterr().out == "entropy minimal\n"
    assert cli.main(["--budget", "117", "sft", "enum", two]) == 2
    _assert_one_error_line(capsys, "error: SFT enumeration stopped after 117 nodes (budget 117)")


def test_cli_extend_and_extract(tmp_path, doubling_tower, capsys):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    base = _write(
        tmp_path,
        "base.sft",
        "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n",
    )
    assert cli.main(["extend", base, doubling_tower, "0", "2"]) == 0
    out = capsys.readouterr().out
    assert "81 configurations" in out  # 3^4 copies of the 3-config base

    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    ext = _write(
        tmp_path,
        "ext.sft",
        # the two-coset lift of forbidding 11 on Z/2 inside Z/4
        "sft\ngroup z4.grp\nalphabet 0 1\nshape 0 2\nforbid 1 1\n",
    )
    assert cli.main(["extract", ext, doubling_tower, "0"]) == 0
    out = capsys.readouterr().out
    assert "base spec on level 0" in out
    assert "forbid 1 1" in out


def test_cli_extend_of_an_empty_base_prints_only_the_error(tmp_path, doubling_tower, capsys):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    dead = _write(tmp_path, "dead.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0\n"
                  "forbid 0\nforbid 1\n")
    assert cli.main(["extend", dead, doubling_tower, "0", "2"]) == 2
    _assert_one_error_line(capsys, "error: entropy of the empty shift space is undefined")


def test_cli_extract_full_shift(tmp_path, doubling_tower, capsys):
    # an empty shape forbids nothing: the full shift on Z/4 is the free
    # extension of the full shift on Z/2
    full = _write(tmp_path, "full.sft", "sft\ngroup z4.grp\nalphabet 0 1\nshape\n")
    assert cli.main(["extract", full, doubling_tower, "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["base spec on level 0 (group of order 2)", "shape"]


@pytest.fixture
def z2_power_tower_file(tmp_path):
    """(Z/2)^1 -> ... -> (Z/2)^5 as files, matching ``z2_power_tower(5)``."""
    tower = z2_power_tower(5)
    _write(tmp_path, "e1.grp", "group cyclic 2\n")
    for k in range(2, 6):
        _write(tmp_path, f"e{k}.grp", f"group product e{k - 1}.grp e1.grp\n")
    lines = ["tower"] + [f"level e{k}.grp" for k in range(1, 6)]
    for k, embed in enumerate(tower.embeddings):
        lines.append(f"embed {k} pairs " + " ".join(f"{a}->{b}" for a, b in enumerate(embed)))
    return _write(tmp_path, "e.twr", "\n".join(lines) + "\n")


def test_cli_extend_counts_past_enumeration(tmp_path, z2_power_tower_file, capsys):
    # 9 configurations on V4, 8 cosets in (Z/2)^5: 9^8 = 6561^2, which the
    # family budget refused when the extension was enumerated
    v4 = _write(tmp_path, "v4.sft", "sft\ngroup e2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    assert cli.main(["extend", v4, z2_power_tower_file, "1", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"{6561 ** 2} configurations"
    assert out[2].startswith("log(3)/2 ≈ ")


@pytest.fixture
def e6_tower_file(tmp_path, z2_power_tower_file):
    """(Z/2)^1 -> ... -> (Z/2)^6 as files, matching ``z2_power_tower(6)``."""
    _write(tmp_path, "e6.grp", "group product e5.grp e1.grp\n")
    lines = ["tower"] + [f"level e{k}.grp" for k in range(1, 7)]
    for k, embed in enumerate(z2_power_tower(6).embeddings):
        lines.append(f"embed {k} pairs " + " ".join(f"{a}->{b}" for a, b in enumerate(embed)))
    return _write(tmp_path, "e6.twr", "\n".join(lines) + "\n")


def test_cli_sft_entropy_counts_on_the_shapes_subgroup(tmp_path, e6_tower_file, capsys):
    # cells 8 and 32 of (Z/2)^6 span a subgroup of order 2, which has 3
    # points: 3^32 on the whole group, where the index-order count refuses
    spec = _write(tmp_path, "e6.sft", "sft\ngroup e6.grp\nalphabet 0 1\nshape 8 32\nforbid 1 1\n")
    assert cli.main(["sft", "entropy", spec]) == 0
    assert capsys.readouterr().out == "log(3)/2 ≈ 0.549306\n"


def test_cli_extract_on_a_level_of_order_64(tmp_path, e6_tower_file, capsys):
    # 3^32 points on (Z/2)^6, read on the subgroup the shape spans with
    # the base level: the lift of forbidding 11 on Z/2 comes back
    lifted = _write(tmp_path, "lift.sft", "sft\ngroup e6.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    assert cli.main(["extract", lifted, e6_tower_file, "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "base spec on level 0 (group of order 2)", "shape 0 1", "forbid 1 1"]
    # on cells 0 and 8 the pairs couple the base with another coset
    coupled = _write(tmp_path, "cpl.sft", "sft\ngroup e6.grp\nalphabet 0 1\nshape 0 8\nforbid 1 1\n")
    assert cli.main(["extract", coupled, e6_tower_file, "0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: not a free extension; witness (")


@pytest.mark.parametrize(
    "tower_name, level, text, ups",
    [
        ("doubling", 0, "shape 0 1\nforbid 1 1", [(0, 0), (0, 1), (0, 2)]),
        ("doubling", 1, "shape 0 1\nforbid 1 1", [(1, 1), (1, 2)]),
        ("doubling", 1, "shape 0 3\nforbid 1 0\nforbid 0 1", [(1, 2)]),
        ("power", 0, "shape 0 1\nforbid 1 1", [(0, 3)]),
        ("power", 1, "shape 0 1\nforbid 1 1", [(1, 2), (1, 3)]),
        ("power", 2, "shape 0 3 5\nforbid 1 1 0\nforbid 0 1 1", [(2, 3)]),
        ("power", 1, "shape 0\nforbid 0\nforbid 1", [(1, 3)]),
    ],
)
def test_cli_extend_count_equals_enumerated_extension(
    tmp_path, doubling_tower, z2_power_tower_file, capsys, tower_name, level, text, ups
):
    tower_file = doubling_tower if tower_name == "doubling" else z2_power_tower_file
    tower = files.read_tower(tower_file)
    group = ("z2.grp", "z4.grp", "z8.grp") if tower_name == "doubling" else (
        "e1.grp", "e2.grp", "e3.grp")
    base = _write(tmp_path, "base.sft", f"sft\ngroup {group[level]}\nalphabet 0 1\n{text}\n")
    space = enumerate_sft(files.read_sft(base))
    for i, j in ups:
        want = len(tower_extend(space, tower, i, j).configs)
        rc = cli.main(["extend", base, tower_file, str(i), str(j)])
        if want:
            assert rc == 0
            assert capsys.readouterr().out.splitlines()[1] == f"{want} configurations"
        else:  # an empty space has no entropy, and nothing is printed
            assert rc == 2
            _assert_one_error_line(capsys, "entropy of the empty shift space is undefined")


@pytest.mark.parametrize(
    "command, sft, levels",
    [
        ("extend", "z4.sft", ["1", "0"]),  # downward: used to echo the base
        ("extend", "z2.sft", ["-4", "0"]),
        ("extend", "z2.sft", ["0", "5"]),
        ("extract", "z4.sft", ["5"]),
    ],
    ids=["extend-downward", "extend-negative", "extend-past-top", "extract-past-top"],
)
def test_cli_rejects_bad_tower_levels(tmp_path, doubling_tower, capsys,
                                      command, sft, levels):
    for order in (2, 4):
        _write(
            tmp_path,
            f"z{order}.sft",
            f"sft\ngroup z{order}.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n",
        )
    argv = [command, str(tmp_path / sft), doubling_tower, *levels]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_check_and_zline(golden5, capsys):
    assert cli.main(["check", "zero", golden5]) == 0
    assert "positive-entropy" in capsys.readouterr().out
    assert cli.main(["check", "mme", golden5, "--grid", "30"]) == 0
    assert "unique maximizer: True" in capsys.readouterr().out
    assert cli.main(["zline", "gap", "4"]) == 0
    assert "011111110" in capsys.readouterr().out


def test_cli_mme_has_no_false_tie_on_a_fine_grid(tmp_path, capsys):
    # a float sweep at this resolution counted six grid points beside the
    # uniform one as maximizers; the exact verdict has no grid to tie on
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    two = _write(tmp_path, "two.sft",
                 "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 0 1\nforbid 1 0\n")
    assert cli.main(["check", "mme", two, "--grid", "100000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["uniform attains the maximum: True", "unique maximizer: True"]
    assert "maximizers" not in out


@pytest.mark.parametrize(
    "kind, n, first",
    [("golden", "2", 3), ("golden", "-1", 3), ("even", "0", 1), ("even", "-1", 1),
     ("gap", "1", 2)],
)
def test_cli_zline_rejects_lengths_below_the_first_row(capsys, kind, n, first):
    assert cli.main(["zline", kind, n]) == 2
    _assert_one_error_line(capsys, f"error: zline {kind} needs n >= {first}, not {n}")


def test_cli_zline_even_budget_counts_bit_additions(capsys):
    # one sweep serves every row; to length n it adds up to 6 counts of at
    # most k + 1 bits at each length k < n: 90 for n = 5 and 126 for n = 6
    assert cli.main(["--budget", "90", "zline", "even", "5"]) == 0
    capsys.readouterr()
    assert cli.main(["--budget", "90", "zline", "even", "6"]) == 2
    _assert_one_error_line(capsys, "error: even-shift cover check needs up to 126 bit "
                           "additions for length 6 (budget 90)")


def test_cli_zline_even_40_is_fibonacci(capsys):
    # the whole table of 40 rows is one sweep of 4920 bit additions
    fib = [0, 1]
    while len(fib) < 44:
        fib.append(fib[-1] + fib[-2])
    assert cli.main(["--budget", "4920", "zline", "even", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:-1]] == [
        [str(m), str(fib[m + 3] - 1)] for m in range(1, 41)
    ]
    assert lines[-1] == "cover and oracle agree at every length"


@pytest.mark.parametrize(
    "kind, budget, n, refusal",
    [("golden", "19", "20", None),
     ("golden", "18", "20", "golden mean count needs 19 Lucas steps for length 20 (budget 18)"),
     ("golden", "1", "2000", "golden mean count needs 2 Lucas steps for length 3 (budget 1)"),
     # gap rows 2..6 check 12 + 21 + 32 + 45 + 60 window cells
     ("gap", "170", "6", None),
     ("gap", "169", "6",
      "gap witness table needs 170 window cells for window sizes 2 to 6 (budget 169)"),
     ("gap", "1", "300",
      "gap witness table needs 9225645 window cells for window sizes 2 to 300 (budget 1)"),
     ("gap", str(DEFAULT_CANDIDATE_BUDGET), "367",
      "gap witness table needs 16814467 window cells for window sizes 2 to 367 "
      f"(budget {DEFAULT_CANDIDATE_BUDGET})")],
)
def test_cli_zline_golden_and_gap_budgets_bound_each_row(capsys, kind, budget, n, refusal):
    if refusal is None:
        assert cli.main(["--budget", budget, "zline", kind, n]) == 0
        assert n in [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    else:
        assert cli.main(["--budget", budget, "zline", kind, n]) == 2
        _assert_one_error_line(capsys, f"error: {refusal}")


def test_cli_zline_even_refuses_a_row_past_the_digit_limit(capsys):
    # str() refuses ints over sys.get_int_max_str_digits() digits (4300 by
    # default, reached near n = 20575); a row past it ends in one error
    # line and empty stdout, not in a ValueError
    fib = [0, 1]
    while len(fib) < 3104:
        fib.append(fib[-1] + fib[-2])
    first = next(m for m in range(1, 3101) if len(str(fib[m + 3] - 1)) > 640)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc = cli.main(["--budget", str(3 * 3100 * 3101), "zline", "even", "3100"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 2
    _assert_one_error_line(
        capsys, f"error: row {first} has more than 640 digits, the interpreter's limit for "
        "printing an integer")


def test_cli_extend_refuses_a_count_past_the_digit_limit(tmp_path, capsys):
    # the full shift on 1000 symbols over Z/256 has 1000^256 points, 769
    # digits; its entropy reduces to log(1000)/1
    _write(tmp_path, "z.grp", "group cyclic 256\n")
    big = _write(tmp_path, "big.sft", "sft\ngroup z.grp\nalphabet "
                 + " ".join(map(str, range(1000))) + "\nshape 0\n")
    tower = _write(tmp_path, "t.twr", "tower\nlevel z.grp\n")
    assert cli.main(["extend", big, tower, "0", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{1000 ** 256} configurations", f"log(1000)/1 ≈ {math.log(1000):.6f}"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc = cli.main(["extend", big, tower, "0", "0"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 2
    _assert_one_error_line(
        capsys, "error: the configuration count has more than 640 digits, the interpreter's "
        "limit for printing an integer")


def test_cli_entropy_line_refuses_a_count_past_the_digit_limit(golden5, capsys, monkeypatch):
    # a count that is no perfect power keeps all its digits in the entropy
    count = 10 ** sys.get_int_max_str_digits() + 1
    monkeypatch.setattr(dynprops, "spec_entropy",
                        lambda spec, budget: EntropyValue(count, 5))
    assert cli.main(["sft", "entropy", golden5]) == 2
    _assert_one_error_line(capsys, "error: the configuration count has more than")


def test_cli_zline_even_output(capsys):
    assert cli.main(["zline", "even", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "admissible-words"]
    assert [line.split() for line in lines[1:-1]] == [
        [str(n), str(c)] for n, c in enumerate([2, 4, 7, 12, 20, 33], start=1)
    ]
    assert lines[-1] == "cover and oracle agree at every length"


def test_cli_entropy_set(doubling_tower, capsys):
    assert cli.main(
        ["--format", "tsv", "entropy-set", doubling_tower, "--max-level", "2",
         "--max-n", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "2\t4\t" in out


def test_cli_entropy_set_budget_counts_the_values(tmp_path, capsys):
    _write(tmp_path, "z5.grp", "group cyclic 5\n")
    tower = _write(tmp_path, "z5.twr", "tower\nlevel z5.grp\n")
    assert cli.main(["--budget", "10", "entropy-set", tower, "--max-level", "1",
                     "--max-n", "40000"]) == 2
    _assert_one_error_line(
        capsys, "error: entropy set needs 80000 values after 6 subgroup closures (budget 10)")


def test_cli_verify_exit_codes(capsys):
    assert cli.main(["verify", "free-extension"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 13
    # one line per check, sorted, each with its time
    assert re.sub(r" \(\d+\.\d{3}s\)$", "", out, flags=re.M).splitlines() == [
        "suite free-extension",
        *(f"CHECK {c} PASS" for c in sorted(check_names("free-extension"))),
        "suite free-extension PASS",
    ]


def test_cli_verify_refuses_an_unknown_suite_naming_the_known_ones(capsys):
    assert cli.main(["verify", "no-such-suite"]) == 2
    _assert_one_error_line(capsys, "error: unknown suite 'no-such-suite'; available: "
                           + ", ".join(suite_names()))


def test_cli_main_shares_one_parser_without_leaking_values(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    two = _write(
        tmp_path,
        "two.sft",
        "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 0 1\nforbid 1 0\n",
    )
    assert cli.main(["--format", "tsv", "--budget", "7",
                     "check", "mme", two, "--grid", "2"]) == 0
    capsys.readouterr()
    # the refusal shows the budget this call ran with, not the one before
    assert cli.main(["--budget", "3", "check", "aut", two]) == 2
    out, err = capsys.readouterr()
    assert err == "error: SFT enumeration stopped after 3 nodes (budget 3)\n"
    assert cli.main(["--budget", "3", "check", "mme", two]) == 2
    out, err = capsys.readouterr()
    assert err == "error: SFT count stopped after 4 states (budget 3)\n"
    assert cli.main(["check", "mme", two]) == 0
    assert "unique maximizer: True" in capsys.readouterr().out
    assert cli.main(["--format", "tsv", "check", "aut", two]) == 0
    assert "\t" in capsys.readouterr().out
    assert cli.main(["check", "aut", two]) == 0
    out = capsys.readouterr().out
    assert "\t" not in out and "0  1" in out


def test_cli_error_reporting(tmp_path, capsys):
    bad = _write(tmp_path, "bad.grp", "group cyclic nope\n")
    assert cli.main(["group", "validate", bad]) == 2
    err = capsys.readouterr().err
    assert "bad.grp:1:" in err


def test_read_tower_builds_each_group_file_once(z2_power_tower_file, monkeypatch):
    calls = Counter()
    for name in ("cyclic", "product"):
        def counted(*args, _build=getattr(files, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(files, name, counted)
    tower = files.read_tower(z2_power_tower_file)
    # e1.grp once, then one product per level above it; parsing every
    # factor afresh took 15 cyclic and 10 product builds
    assert calls == {"cyclic": 1, "product": 4}
    assert [g.mul for g in tower.levels] == [g.mul for g in z2_power_tower(5).levels]
    files.read_tower(z2_power_tower_file)
    assert calls == {"cyclic": 2, "product": 8}  # nothing is kept between reads


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "e2.sft", "e.twr", "1", "4"],
        ["extract", "e3.sft", "e.twr", "1"],
    ],
    ids=["extend", "extract"],
)
def test_cli_builds_the_sft_group_once(tmp_path, z2_power_tower_file, monkeypatch,
                                       capsys, argv):
    _write(tmp_path, "e2.sft", "sft\ngroup e2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    _write(tmp_path, "e3.sft", "sft\ngroup e3.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    calls = Counter()
    for name in ("cyclic", "product"):
        def counted(*args, _build=getattr(files, name), _name=name):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(files, name, counted)
    assert cli.main([str(tmp_path / a) if "." in a else a for a in argv]) == 0
    # the spec's group file is a tower level, built once for both reads;
    # reading the two files apart built it, and e1.grp, a second time
    assert calls == {"cyclic": 1, "product": 4}


def _assert_one_error_line(capsys, *fragments):
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["group", "validate", "none.grp"], "none.grp"),
        (["group", "validate", "pair.grp"], "gone.grp"),
        (["extend", "z2.sft", "none.twr", "0", "1"], "none.twr"),
        (["extend", "z2.sft", "holes.twr", "0", "1"], "gone.grp"),
        (["sft", "entropy", "none.sft"], "none.sft"),
        (["sft", "entropy", "lost.sft"], "gone.grp"),
        (["group", "validate", "nul.grp"], "z\x002.grp"),
    ],
    ids=["group", "product-factor", "tower", "tower-level", "sft", "sft-group",
         "nul-byte-in-name"],
)
def test_cli_missing_files_exit_2(tmp_path, capsys, argv, missing):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "pair.grp", "group product z2.grp gone.grp\n")
    _write(tmp_path, "nul.grp", "group product z2.grp z\x002.grp\n")  # no file has that name
    _write(tmp_path, "holes.twr", "tower\nlevel z2.grp\nlevel gone.grp\n")
    _write(tmp_path, "z2.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0\n")
    _write(tmp_path, "lost.sft", "sft\ngroup gone.grp\nalphabet 0 1\nshape 0\n")
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert cli.main(argv) == 2
    _assert_one_error_line(capsys, f"{missing}: cannot open file")


@pytest.mark.parametrize("name", ["self.grp", "b.grp"], ids=["direct", "two-file"])
def test_cli_product_cycles_exit_2(tmp_path, capsys, name):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "self.grp", "group product self.grp z2.grp\n")
    _write(tmp_path, "b.grp", "group product z2.grp c.grp\n")
    _write(tmp_path, "c.grp", "group product b.grp z2.grp\n")
    assert cli.main(["group", "validate", str(tmp_path / name)]) == 2
    _assert_one_error_line(capsys, f"{name}: product factors lead back to this file")


@pytest.mark.parametrize(
    "argv", [["sft", "enum", "neg.sft"], ["extract", "neg.sft", "tower.twr", "0"]],
    ids=["enum", "extract"],
)
def test_cli_negative_shape_cell_exit_2(tmp_path, doubling_tower, capsys, argv):
    _write(tmp_path, "neg.sft", "sft\ngroup z4.grp\nalphabet 0 1\nshape -1 0\n")
    assert cli.main([str(tmp_path / a) if "." in a else a for a in argv]) == 2
    _assert_one_error_line(capsys, "neg.sft:4: shape index -1 is outside the group of order 4")


@pytest.mark.parametrize(
    "body, message",
    [
        ("alphabet 0 1\nshape 0 9\nforbid 1 1", "4: shape index 9 is outside the group of order 4"),
        ("alphabet 0 1\nshape 0 0", "4: shape indices must be distinct"),
        ("alphabet a a\nshape 0 1", "3: alphabet symbols must be distinct"),
        ("alphabet\nshape 0 1", "3: alphabet needs at least one symbol"),
    ],
    ids=["shape-past-order", "shape-repeated", "alphabet-repeated", "alphabet-empty"],
)
def test_cli_sft_file_errors_name_the_file_and_line(tmp_path, capsys, body, message):
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    bad = _write(tmp_path, "bad.sft", f"sft\ngroup z4.grp\n{body}\n")
    assert cli.main(["sft", "enum", bad]) == 2
    _assert_one_error_line(capsys, f"bad.sft:{message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sft", "entropy", "na.sft"], "na.grp:1: non-associative: (1*1)*2 != 1*(1*2)"),
        (["group", "validate", "z0.grp"], "z0.grp:1: cyclic group order must be >= 1, got 0"),
        (["extend", "z2.sft", "nonhom.twr", "0", "2"],
         "nonhom.twr:6: not a homomorphism: witness pair (3,1)"),
        (["extend", "z2.sft", "short.twr", "0", "1"], "short.twr: 3 levels need 2 embed lines, got 1"),
    ],
    ids=["table-via-sft", "cyclic-0", "embed-line", "embed-missing"],
)
def test_cli_group_and_tower_errors_name_the_file_and_line(tmp_path, capsys, argv, message):
    for n in (2, 4, 8):
        _write(tmp_path, f"z{n}.grp", f"group cyclic {n}\n")
    _write(tmp_path, "z0.grp", "group cyclic 0\n")
    _write(tmp_path, "na.grp", "group table 3\n0 1 2\n1 2 0\n2 0 0\n")
    _write(tmp_path, "na.sft", "sft\ngroup na.grp\nalphabet 0 1\nshape 0\n")
    _write(tmp_path, "z2.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0\n")
    levels = "tower\nlevel z2.grp\nlevel z4.grp\nlevel z8.grp\n"
    # the first embed line is sound; the second sends Z/4 onto 0..3 in Z/8
    _write(tmp_path, "nonhom.twr",
           levels + "embed 0 pairs 0->0 1->2\nembed 1 pairs 0->0 1->1 2->2 3->3\n")
    _write(tmp_path, "short.twr", levels + "embed 0 pairs 0->0 1->2\n")
    assert cli.main([str(tmp_path / a) if "." in a else a for a in argv]) == 2
    _assert_one_error_line(capsys, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("group table 2\n0 1\n1 0\n1 0\n", "t.grp:4: extra line after the end of the group"),
        ("group cyclic 3\n\n0 1 2\n", "t.grp:3: extra line after the end of the group"),
    ],
    ids=["table-extra-row", "cyclic-extra-line"],
)
def test_cli_group_validate_refuses_lines_after_the_group(tmp_path, capsys, text, message):
    path = _write(tmp_path, "t.grp", text)
    assert cli.main(["group", "validate", path]) == 2
    _assert_one_error_line(capsys, message)


@pytest.mark.parametrize(
    "files_text, message",
    [
        ({"t.grp": "group cyclic 99999999999\n"},
         "t.grp:1: cyclic group of order 99999999999 needs 9999999999800000000001 table "
         "entries (limit 16777216)"),
        ({"a.grp": "group cyclic 64\n", "b.grp": "group cyclic 65\n",
          "t.grp": "group product a.grp b.grp\n"},
         "t.grp:1: product group of order 4160 needs 17305600 table entries "
         "(limit 16777216)"),
    ],
    ids=["cyclic", "product"],
)
def test_cli_group_validate_refuses_tables_over_the_limit(tmp_path, capsys, files_text,
                                                           message):
    # refused before any table entry is built
    for name, text in files_text.items():
        _write(tmp_path, name, text)
    assert cli.main(["group", "validate", str(tmp_path / "t.grp")]) == 2
    _assert_one_error_line(capsys, message)


def test_cli_extract_takes_the_first_matching_level_from_the_base_up(tmp_path, capsys):
    # levels Z/2, Z/2, Z/4: a space over Z/2 lies on level 0 for a base on
    # level 0 and on level 1 for a base on level 1
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    tower = _write(tmp_path, "rep.twr",
                   "tower\nlevel z2.grp\nlevel z2.grp\nlevel z4.grp\n"
                   "embed 0 pairs 0->0 1->1\nembed 1 pairs 0->0 1->2\n")
    g2 = _write(tmp_path, "g2.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    for level in ("0", "1"):
        assert cli.main(["extract", g2, tower, level]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"base spec on level {level} (group of order 2)", "shape 0 1", "forbid 1 1"]
    assert cli.main(["extract", g2, tower, "2"]) == 2
    _assert_one_error_line(capsys, "the space's group is not a tower level from 2 up")
    args = cli.build_parser().parse_args(["extract", g2, tower, "2"])
    with pytest.raises(InputError, match=r"^the space's group is not a tower level from 2 up$"):
        args.fn(args)


@pytest.mark.parametrize(
    "command, levels", [("extend", ["1", "2"]), ("extract", ["0"])], ids=["extend", "extract"]
)
def test_cli_a_group_is_its_table(tmp_path, capsys, command, levels):
    # Z/4 written out as a table is the tower level; a spec on
    # `group cyclic 4` lives on that level all the same
    for n in (2, 4, 8):
        _write(tmp_path, f"z{n}.grp", f"group cyclic {n}\n")
    rows = "".join(" ".join(str((a + b) % 4) for b in range(4)) + "\n" for a in range(4))
    _write(tmp_path, "z4table.grp", "group table 4\n" + rows)
    tower = _write(
        tmp_path,
        "t.twr",
        "tower\nlevel z2.grp\nlevel z4table.grp\nlevel z8.grp\n"
        "embed 0 pairs 0->0 1->2\nembed 1 pairs 0->0 1->2 2->4 3->6\n",
    )
    outputs = []
    for group in ("z4table.grp", "z4.grp"):
        sft = _write(tmp_path, "s.sft",
                     f"sft\ngroup {group}\nalphabet 0 1\nshape 0 2\nforbid 1 1\n")
        assert cli.main([command, sft, tower, *levels]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


@pytest.mark.parametrize(
    "argv, where",
    [
        (["group", "validate", "bad.grp"], "bad.grp:1:"),
        (["extend", "z2.sft", "bad.twr", "0", "1"], "bad.twr:2:"),
        (["sft", "entropy", "bad.sft"], "bad.sft:3:"),
    ],
    ids=["grp", "twr", "sft"],
)
def test_cli_files_not_utf8_exit_2(tmp_path, capsys, argv, where):
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "z2.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0\n")
    (tmp_path / "bad.grp").write_bytes(b"group cyclic \xff2\n")
    (tmp_path / "bad.twr").write_bytes(b"tower\nlevel z2.grp \xff\n")
    (tmp_path / "bad.sft").write_bytes(b"sft\ngroup z2.grp\nalphabet 0 \xff\nshape 0\n")
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert cli.main(argv) == 2
    _assert_one_error_line(capsys, f"{where} not UTF-8 text")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["check", "mme", "golden5.sft", "--grid", "0"], "grid must be >= 1, not 0"),
        (["check", "mme", "golden5.sft", "--grid", "-3"], "grid must be >= 1, not -3"),
        (["check", "si", "golden5.sft", "--witness", "a"], "--witness: 'a' is not an integer"),
        (["check", "si", "golden5.sft", "--witness", "0,,1"], "--witness: '' is not an integer"),
        (["check", "si", "golden5.sft", "--witness", "0,5"], "5 is not an element"),
        (["--budget", "0", "sft", "entropy", "golden5.sft"], "--budget must be >= 1, not 0"),
        (["--budget", "-5", "sft", "enum", "golden5.sft"], "--budget must be >= 1, not -5"),
        (["--budget", "-5", "group", "validate", "z5.grp"], "--budget must be >= 1, not -5"),
    ],
    ids=["grid-0", "grid-negative", "witness-letter", "witness-empty-item",
         "witness-outside", "budget-0", "budget-negative", "budget-negative-no-search"],
)
def test_cli_bad_numeric_input_exit_2(tmp_path, golden5, capsys, argv, fragment):
    assert cli.main([str(tmp_path / a) if a.endswith((".sft", ".grp")) else a
                     for a in argv]) == 2
    _assert_one_error_line(capsys, fragment)


def test_cli_si_empty_witness_set_and_budget(tmp_path, golden5, capsys):
    _write(tmp_path, "z3.grp", "group cyclic 3\n")
    point = _write(tmp_path, "point.sft", "sft\ngroup z3.grp\nalphabet 0 1\nshape 0\nforbid 1\n")
    # one configuration: K = {} already separates, and is what check si lists
    assert cli.main(["check", "si", point]) == 0
    assert capsys.readouterr().out.splitlines() == ["witness", "(empty)"]
    assert cli.main(["check", "si", point, "--witness", ""]) == 0
    assert capsys.readouterr().out == "strongly irreducible with witness set []\n"
    assert cli.main(["check", "si", golden5, "--witness", ""]) == 1
    assert capsys.readouterr().out.startswith("FAIL: counterexample patterns ")
    assert cli.main(["--budget", "40", "check", "si", golden5]) == 2
    _assert_one_error_line(
        capsys, "SI check stopped after 32 projections and 8 product tests (budget 40)"
    )


def _z2_power_files(tmp_path):
    """Group files for (Z/2)^4 and (Z/2)^6, as products of Z/2."""
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "e2.grp", "group product z2.grp z2.grp\n")
    _write(tmp_path, "e3.grp", "group product e2.grp z2.grp\n")
    _write(tmp_path, "e4.grp", "group product e2.grp e2.grp\n")
    _write(tmp_path, "e6.grp", "group product e3.grp e3.grp\n")


@pytest.mark.parametrize("group, shape, forbid, want", [
    ("e6.grp", "0 1", "1 1", ["0 1"]),
    ("e4.grp", "0 1 2", "1 1 1", ["0 1 2", "0 1 3", "0 2 3"]),
], ids=["z2-power-6", "z2-power-4"])
def test_cli_si_decides_on_the_shapes_subgroup(tmp_path, capsys, group, shape, forbid, want):
    # enumerating on G would pass a budget of 10000 nodes: on (Z/2)^6, X has
    # 3^32 points; the shape spans a subgroup of order 2 or 4
    _z2_power_files(tmp_path)
    sft = _write(tmp_path, "x.sft",
                 f"sft\ngroup {group}\nalphabet 0 1\nshape {shape}\nforbid {forbid}\n")
    assert cli.main(["--budget", "10000", "check", "si", sft]) == 0
    assert [line.strip() for line in capsys.readouterr().out.splitlines()] == ["witness", *want]


def test_cli_si_witness_on_the_shapes_subgroup(tmp_path, capsys):
    # on (Z/2)^4 the shape 0 1 2 spans L = {0, 1, 2, 3}: elements outside L
    # are valid and dropped, and a counterexample lies inside L
    _z2_power_files(tmp_path)
    sft = _write(tmp_path, "x.sft",
                 "sft\ngroup e4.grp\nalphabet 0 1\nshape 0 1 2\nforbid 1 1 1\n")
    assert cli.main(["--budget", "10000", "check", "si", sft, "--witness", "9,2,0,1"]) == 0
    assert capsys.readouterr().out == "strongly irreducible with witness set [0, 1, 2, 9]\n"
    assert cli.main(["--budget", "10000", "check", "si", sft, "--witness", "0,1,9"]) == 1
    assert capsys.readouterr().out == "FAIL: counterexample patterns {2: 1, 3: 1} and {0: 1}\n"
    assert cli.main(["check", "si", sft, "--witness", "0,16"]) == 2
    _assert_one_error_line(capsys, "16 is not an element index")

def test_python_m_finshift_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "finshift", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: finshift ")


def test_cli_extend_refuses_an_element_mapped_twice(tmp_path, capsys):
    # 1 sent to both 1 and 2: the last pair used to win, and Z/2 -> Z/4
    # extended as if the line were `0->0 1->2`
    _write(tmp_path, "z2.grp", "group cyclic 2\n")
    _write(tmp_path, "z4.grp", "group cyclic 4\n")
    sft = _write(tmp_path, "z2.sft", "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    tower = _write(tmp_path, "twice.twr",
                   "tower\nlevel z2.grp\nlevel z4.grp\nembed 0 pairs 0->0 1->1 1->2\n")
    assert cli.main(["extend", sft, tower, "0", "1"]) == 2
    _assert_one_error_line(capsys, "twice.twr:4: element 1 is mapped twice")


# the same files under each line ending; blank and space-only lines keep
# the numbering honest
LINE_ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
EOL_FILES = {
    "z2.grp": "group table 2\n\n0 1\n 1 0 \n",
    "z4.grp": "\ngroup cyclic 4\n",
    "p.grp": "group product z2.grp z4.grp\n\n",
    "t.twr": "tower\nlevel z2.grp\n\nlevel z4.grp\nlevel p.grp\n"
             "embed 0 pairs 0->0 1->2\n  \nembed 1 pairs 0->0 1->2 2->4 3->6\n",
    "s.sft": "sft\n\ngroup z4.grp\nalphabet a b\nshape 1 0\nforbid b a\n \nforbid b b\n",
}


def _write_eol(directory, files_text, eol):
    directory.mkdir()
    for name, text in files_text.items():
        (directory / name).write_bytes(text.replace("\n", eol).encode())
    return directory


def _read_all(directory):
    return (files.read_group(str(directory / "p.grp")),
            files.read_sft_and_tower(str(directory / "s.sft"), str(directory / "t.twr")))


def test_line_endings_parse_to_equal_objects(tmp_path):
    read = {name: _read_all(_write_eol(tmp_path / name, EOL_FILES, eol))
            for name, eol in LINE_ENDINGS.items()}
    group, (spec, tower) = read["lf"]
    assert group.order == 8 and [g.order for g in tower.levels] == [2, 4, 8]
    assert {w.as_dict()[1] for w in spec.forbidden} == {1}
    assert read["crlf"] == read["lf"] and read["cr"] == read["lf"]


@pytest.mark.parametrize(
    "name, text, line, message",
    [
        ("s.sft", "sft\n\ngroup z4.grp\nalphabet a b\n\nshape 0\nforbid c\n", 7,
         "unknown symbol in ['c']"),
        # \udcff writes the byte 0xff; it sits on line 7 however the lines
        # end, and counting only \n put it on line 1 of a CR-only file
        ("s.sft", "sft\n\ngroup z4.grp\nalphabet a b\n\nshape 0\nforbid \udcff\n", 7,
         "not UTF-8 text"),
        ("g.grp", "group table 2\n\n0 1\n\n1 0\n0 1\n", 6, "extra line after the end of the group"),
        ("t.twr", "tower\nlevel z2.grp\n\nlevel z4.grp\n\nembed 0 pairs 0->0 1->1\n", 6,
         "not a homomorphism: witness pair (1,1)"),
    ],
    ids=["symbol", "not-utf8", "extra-row", "embed"],
)
@pytest.mark.parametrize("eol", LINE_ENDINGS)
def test_line_endings_give_the_same_error_lines(tmp_path, eol, name, text, line, message):
    directory = _write_eol(tmp_path / eol, EOL_FILES, LINE_ENDINGS[eol])
    path = directory / name
    path.write_bytes(text.replace("\n", LINE_ENDINGS[eol]).encode("utf-8", "surrogateescape"))
    read = {".sft": files.read_sft, ".grp": files.read_group, ".twr": files.read_tower}
    with pytest.raises(FormatError) as caught:
        read[path.suffix](str(path))
    assert (caught.value.path, caught.value.line) == (str(path), line)
    assert str(caught.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("eol", LINE_ENDINGS)
def test_a_byte_order_mark_is_read_as_no_text(tmp_path, eol):
    # editors that write CRLF often start a UTF-8 file with U+FEFF
    plain = _read_all(_write_eol(tmp_path / "plain", EOL_FILES, "\n"))
    marked = {name: "\ufeff" + text for name, text in EOL_FILES.items()}
    assert _read_all(_write_eol(tmp_path / eol, marked, LINE_ENDINGS[eol])) == plain


@pytest.mark.parametrize("eol", LINE_ENDINGS)
def test_a_byte_order_mark_keeps_the_line_numbers(tmp_path, eol, capsys):
    directory = _write_eol(tmp_path / eol, {
        "z2.grp": "\ufeffgroup cyclic 2\n",
        "bad.grp": "\ufeff\ngroup table 2\n\n0 1\n\n1 0\n0 1\n",
        "twice.grp": "\ufeff\ufeffgroup cyclic 2\n",
        "inner.grp": "group cyclic 2\n\ufeffgroup cyclic 2\n",
    }, LINE_ENDINGS[eol])
    assert cli.main(["group", "validate", str(directory / "z2.grp")]) == 0
    assert capsys.readouterr().out == "valid group of order 2\n"
    # only one leading mark is dropped; a mark anywhere else is text
    for name, line, message in [("bad.grp", 7, "extra line after the end of the group"),
                                ("twice.grp", 1, "expected a 'group <kind> ...' header"),
                                ("inner.grp", 2, "extra line after the end of the group")]:
        assert cli.main(["group", "validate", str(directory / name)]) == 2
        _assert_one_error_line(capsys, f"{directory / name}:{line}: {message}")


def _table_text(group):
    return f"group table {group.order}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in group.mul)


def _sft_text(spec, group_file):
    symbols = spec.alphabet.symbols
    rows = sorted(w.symbols for w in spec.forbidden)
    return "".join([f"sft\ngroup {group_file}\nalphabet {' '.join(symbols)}\n",
                    f"shape {' '.join(map(str, spec.forbidden_shape))}\n",
                    *(f"forbid {' '.join(symbols[s] for s in row)}\n" for row in rows)])


def test_cli_extend_and_extract_on_the_non_normal_tower_s3_in_s4(tmp_path, capsys):
    # S3 inside S4 as the permutations fixing the last point: not normal,
    # and both levels written out as tables
    s4_tower = symmetric_tower(4)
    s3, s4 = s4_tower.levels[2:]
    tower = build_tower([s3, s4], [s4_tower.embeddings[2]])
    ctx = tower_context(tower, 0, 1)
    _write(tmp_path, "s3.grp", _table_text(s3))
    _write(tmp_path, "s4.grp", _table_text(s4))
    twr = _write(tmp_path, "s.twr", "tower\nlevel s3.grp\nlevel s4.grp\nembed 0 pairs "
                 + " ".join(f"{a}->{b}" for a, b in enumerate(tower.embeddings[0])) + "\n")
    assert files.read_tower(twr) == tower
    for make in (golden_mean_like_spec, two_point_spec):
        base = make(s3)
        lifted = free_extension_spec(base, ctx)
        base_file = _write(tmp_path, "base.sft", _sft_text(base, "s3.grp"))
        lifted_file = _write(tmp_path, "lifted.sft", _sft_text(lifted, "s4.grp"))
        assert cli.main(["extend", base_file, twr, "0", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"{count_sft(lifted)} configurations"
        assert count_sft(lifted) == count_sft(base) ** 4  # four cosets of S3
        assert cli.main(["extract", lifted_file, twr, "0"]) == 0
        got = base_extract(lifted, ctx)
        assert got.ok
        assert capsys.readouterr().out == (
            "base spec on level 0 (group of order 6)\n"
            + _sft_text(got.spec, "s3.grp").split("\n", 3)[3])
    # a spec on S4 coupling a cell to one outside S3 is not a free extension
    outside = next(a for a in range(s4.order) if a not in tower.embeddings[0])
    coupled = _write(tmp_path, "coupled.sft", f"sft\ngroup s4.grp\nalphabet 0 1\n"
                     f"shape 0 {outside}\nforbid 0 1\nforbid 1 0\n")
    assert cli.main(["extract", coupled, twr, "0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: not a free extension")


def test_reading_opens_each_file_once(tmp_path, z2_power_tower_file, monkeypatch):
    opened = Counter()

    def counted(path, *args, **kwargs):
        opened[os.path.basename(path)] += 1
        return open(path, *args, **kwargs)

    monkeypatch.setattr(files, "open", counted, raising=False)
    # e2.sft names e2.grp, a tower level; every eK.grp names e1.grp
    sft = _write(tmp_path, "e2.sft", "sft\ngroup e2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n")
    files.read_sft_and_tower(sft, z2_power_tower_file)
    assert opened == Counter(["e2.sft", "e.twr", "e1.grp", "e2.grp", "e3.grp", "e4.grp",
                              "e5.grp"])
    # e3.grp named by two levels, and as a factor of e4.grp
    opened.clear()
    twice = _write(tmp_path, "twice.twr",
                   "tower\nlevel e3.grp\nlevel e3.grp\nlevel e4.grp\n"
                   "embed 0 pairs " + " ".join(f"{a}->{a}" for a in range(8)) + "\n"
                   "embed 1 pairs " + " ".join(f"{a}->{a}" for a in range(8)) + "\n")
    files.read_tower(twice)
    assert opened == Counter(["twice.twr", "e3.grp", "e4.grp", "e2.grp", "e1.grp"])


# valid files of every kind: cyclic, product and table groups, an SFT on
# each, and two towers; the mutation test edits one of them per run
MUTANT_FILES = {
    "z2.grp": "group cyclic 2\n",
    "z4.grp": "group cyclic 4\n",
    "v.grp": "group product z2.grp z2.grp\n",
    "c3.grp": "group table 3\n0 1 2\n1 2 0\n2 0 1\n",
    "s.sft": "sft\ngroup z4.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n",
    "v.sft": "sft\ngroup v.grp\nalphabet a b c\nshape 3 0\nforbid a b\nforbid c c\n",
    "c.sft": "sft\ngroup c3.grp\nalphabet 0 1\nshape 0 2\nforbid 0 1\n",
    "t.twr": "tower\nlevel z2.grp\nlevel z4.grp\nembed 0 pairs 0->0 1->2\n",
    "u.twr": "tower\nlevel z2.grp\nlevel v.grp\nembed 0 pairs 0->0 1->3\n",
}
MUTANT_COMMANDS = [
    ["group", "validate", ".grp"], ["sft", "enum", ".sft"], ["sft", "entropy", ".sft"],
    ["extend", ".sft", ".twr", "0", "1"], ["extract", ".sft", ".twr", "0"],
    ["check", "si", ".sft"], ["check", "aut", ".sft"],
    ["entropy-set", ".twr", "--max-level", "2", "--max-n", "3"],
]
# numbers first: small, negative, past a table's limit, past the digit
# limit, and digits from other scripts, which int() reads
MUTANT_NUMBERS = ["0", "3", "-1", str(10 ** 30), "9" * 5000, "\u0663", "\uff13", "\u0967"]
MUTANT_TOKENS = MUTANT_NUMBERS + ["group", "cyclic", "table", "shape", "forbid", "level",
                                  "embed", "pairs", "a", "1->2", "->", "z2.grp", "\ufeff"]


def mutated(text, rng):
    """``text`` after one drawn edit: a token swapped, deleted, inserted or
    replaced by a number, a line duplicated or dropped, a byte changed, a
    byte-order mark put in front, or every line ended by CR alone.  Text
    holds bytes that are not UTF-8 as surrogates."""
    kind = rng.choice(["swap", "delete", "insert", "number", "duplicate", "drop", "byte",
                       "mark", "cr"])
    lines = text.split("\n")
    rows = [line.split() for line in lines]
    spots = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if kind in ("swap", "delete", "insert", "number") and spots:
        i, j = rng.choice(spots)
        if kind == "swap":
            k, m = rng.choice(spots)
            rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
        elif kind == "delete":
            del rows[i][j]
        elif kind == "insert":
            rows[i].insert(j, rng.choice(MUTANT_TOKENS))
        else:
            rows[i][j] = rng.choice(MUTANT_NUMBERS)
        return "\n".join(map(" ".join, rows))
    if kind == "duplicate":
        i = rng.randrange(len(lines))
        return "\n".join(lines[:i + 1] + lines[i:])
    if kind == "drop":
        i = rng.randrange(len(lines))
        return "\n".join(lines[:i] + lines[i + 1:])
    if kind == "mark":
        return "\ufeff" + text
    if kind == "cr":
        return text.replace("\n", "\r")
    data = bytearray(text.encode("utf-8", "surrogateescape") or b"\n")
    data[rng.randrange(len(data))] = rng.randrange(256)
    return data.decode("utf-8", "surrogateescape")


def test_mutated_files_exit_0_or_with_one_error_line(tmp_path, capsys):
    # no bad input may end in a raw exception: each run prints its answer,
    # or exits 2 with one error line; extract may also find no free extension
    for name, text in MUTANT_FILES.items():
        _write(tmp_path, name, text)
    rng, kinds, files_of = random.Random(27), Counter(), sorted(MUTANT_FILES)
    for _ in range(1000):
        name = rng.choice(files_of)
        text = MUTANT_FILES[name]
        for _ in range(rng.choice([1, 1, 2])):
            text = mutated(text, rng)
        (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        # each file argument is the mutated file, or a drawn one of its kind
        argv = [a if not a.startswith(".") else str(tmp_path / (
            name if name.endswith(a) else rng.choice([f for f in files_of if f.endswith(a)])))
            for a in rng.choice(MUTANT_COMMANDS)]
        rc = cli.main(["--budget", "300", *argv])
        out, err = capsys.readouterr()
        case = (argv, text, rc, out, err)
        if rc == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), case
        elif rc == 1:
            assert argv[0] == "extract" and out.startswith("FAIL: not a free extension"), case
        else:
            assert rc == 0 and err == "", case
        kinds[rc] += 1
        (tmp_path / name).write_text(MUTANT_FILES[name], encoding="utf-8")
    assert kinds[0] > 300 and kinds[2] > 300, kinds
