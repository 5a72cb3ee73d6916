"""Module boundaries: no finshift module uses another module's private names."""

import ast
from pathlib import Path

import finshift

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
