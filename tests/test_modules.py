"""Module boundaries: no finshift module uses another module's private
names, and every budget has the one default."""

import ast
import importlib
import inspect
from pathlib import Path

import finshift
from finshift import shiftspace

PACKAGE = Path(finshift.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source):
    """The ``_``-prefixed names of other finshift modules that ``source``
    imports, or reads as attributes of a finshift module it imported."""
    tree = ast.parse(source)
    modules, found = set(), []  # local names bound to finshift modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if not (node.level > 0 or (node.module or "").startswith("finshift")):
                continue
            for alias in node.names:
                if node.module in (None, "finshift"):  # names modules
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("finshift.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_guard_finds_imports_and_attribute_reads():
    source = (
        "from . import zline, files as f\n"
        "from .shiftspace import _picker, project\n"
        "from finshift.groups import _close_under\n"
        "import finshift.dynprops as dp\n"
        "zline._cover_words(3), f._read, dp._si_test, zline.__name__, zline.sft_gap_witness\n"
    )
    assert sorted(foreign_private_names(source)) == sorted(
        ["_picker", "_close_under", "zline._cover_words", "f._read", "dp._si_test"]
    )


def test_no_module_uses_another_modules_private_names():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := foreign_private_names(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def budget_defaults():
    """Each public function of a finshift module that takes ``budget``,
    by qualified name, with that parameter's default."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"finshift.{path.stem}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            param = inspect.signature(fn).parameters.get("budget")
            if param is not None:
                found[f"{fn.__module__}.{name}"] = param.default
    return found


def test_every_budget_defaults_to_the_one_default_budget():
    found = budget_defaults()
    for name in ("shiftspace.enumerate_sft", "shiftspace.count_sft", "groups.all_subgroups",
                 "groups.subgroups_and_closures", "dynprops.entropy_set",
                 "dynprops.automorphism_group", "zline.even_cover_factor_check",
                 "zline.even_cover_factor_counts",
                 "zline.golden_mean_cyclic_count", "zline.golden_mean_entropy_estimate",
                 "zline.sft_gap_witness"):
        assert f"finshift.{name}" in found
    # the very object, so that a copy of its value is caught as well
    assert {
        name: default for name, default in found.items()
        if default is not shiftspace.DEFAULT_CANDIDATE_BUDGET
    } == {}
