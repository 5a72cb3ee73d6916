"""Module boundaries: no finshift module uses another module's private
names, every budget has the one default, the package root provides each
public name from its module, every finshift name the benchmark asks for
exists, and the CLI loads only the layers its command uses."""

import ast
import importlib
import inspect
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

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
    for name in ("shiftspace.enumerate_sft", "shiftspace.count_sft",
                 "groups.subgroups_and_closures", "dynprops.entropy_set",
                 "dynprops.automorphism_group", "zline.even_cover_factor_counts",
                 "zline.golden_mean_cyclic_count", "zline.golden_mean_entropy_estimate",
                 "zline.sft_gap_witness"):
        assert f"finshift.{name}" in found
    # the very object, so that a copy of its value is caught as well
    assert {
        name: default for name, default in found.items()
        if default is not shiftspace.DEFAULT_CANDIDATE_BUDGET
    } == {}


def top_level_names(source):
    """The names a module's source binds at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_package_root_gives_each_public_name_from_its_module():
    defined = {
        path.stem: top_level_names(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    }
    assert finshift.__all__ and len(set(finshift.__all__)) == len(finshift.__all__)
    listed = dir(finshift)
    for name in finshift.__all__:
        (home,) = [m for m, names in defined.items() if name in names]
        module = importlib.import_module(f"finshift.{home}")
        # the first read loads the module, later ones find the name bound
        assert getattr(finshift, name) is getattr(module, name) is getattr(finshift, name)
        assert name in listed
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(finshift, "no_such_name")
    with pytest.raises(ImportError):
        from finshift import no_such_name


def _from_finshift(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "finshift"


def referenced_names(source):
    """The finshift names ``source`` uses: names it imports from finshift,
    attributes of a finshift module it imports, and reads of a function or
    class it defines that resolve to that definition.  A local that shadows
    such a name is not a use, nor is a name imported from elsewhere."""
    tree = ast.parse(source)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_finshift(node):
            names.update(alias.name for alias in node.names)
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name in modules)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "finshift")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                names.add(node.attr)
    top = symtable.symtable(source, "<source>", "exec")
    defined = {sym.get_name() for sym in top.get_symbols() if sym.is_namespace()}

    def global_reads(table):
        reads = {sym.get_name() for sym in table.get_symbols()
                 if sym.is_referenced() and sym.is_global()}
        return reads.union(*map(global_reads, table.get_children()))

    return names | (global_reads(top) & defined)


def test_the_usage_guard_reads_names_attributes_and_imports():
    source = ("from .groups import cyclic as c\nfrom itertools import product\n"
              "import finshift.zline as z\nfrom . import dynprops\n"
              "def suite_names(): return []\n"
              "def entropy(): return suite_names()\n"
              "def unused(orbits, mme):\n"
              "    entropy = product(orbits)\n"
              "    return z.sft_gap_witness(entropy), dynprops.mme_check, mme.mme_unique\n")
    assert referenced_names(source) == {"cyclic", "dynprops", "sft_gap_witness",
                                        "mme_check", "suite_names"}


def test_every_public_name_is_used_outside_the_tests():
    # a public name that only the tests read belongs in the tests; the
    # benchmark imports enumerate_sft_naive as its enumeration oracle
    demos = PACKAGE.parent.parent / "demos"
    used = set()
    for path in [*PACKAGE.glob("*.py"), *demos.glob("*.py")]:
        if path != PACKAGE / "__init__.py":
            used |= referenced_names(path.read_text(encoding="utf-8"))
    assert sorted(set(finshift.__all__) - used) == ["enumerate_sft_naive"]


def benchmark_references(source):
    """The finshift names ``source`` asks for, as (module, name): each
    ``from finshift.<m> import <name>``, each ``import_module("finshift.<m>")``
    as (m, None), and an attribute read straight off such a call as (m, attr).
    A module named by a computed string is not followed."""

    def imported(node):
        if (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "import_module"
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("finshift.")):
            return node.args[0].value
        return None

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("finshift."):
            found.update((node.module, alias.name) for alias in node.names)
        elif (module := imported(node)) is not None:
            found.add((module, None))
        elif isinstance(node, ast.Attribute) and (module := imported(node.value)) is not None:
            found.add((module, node.attr))
    return found


def test_the_benchmark_guard_reads_imports_and_import_module():
    source = ("import importlib\nfrom importlib import import_module\n"
              "def f(layer):\n"
              "    from finshift.groups import cyclic, product as p\n"
              "    importlib.import_module('finshift.cli').main, import_module('finshift.zline')\n"
              "    return importlib.import_module(f'finshift.{layer}'), import_module('json')\n")
    assert benchmark_references(source) == {
        ("finshift.groups", "cyclic"), ("finshift.groups", "product"), ("finshift.cli", None),
        ("finshift.cli", "main"), ("finshift.zline", None)}


def test_every_finshift_name_the_benchmark_asks_for_exists():
    # a removal from finshift must not quietly break the benchmark's oracles
    found = set()
    for path in sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")):
        found |= benchmark_references(path.read_text(encoding="utf-8"))
    assert ("finshift.shiftspace", "enumerate_sft_naive") in found
    assert ("finshift.cli", None) in found
    for module, name in sorted(found, key=str):
        loaded = importlib.import_module(module)
        assert name is None or hasattr(loaded, name), f"{module}.{name}"


def _fresh_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'finshift'))"
SHARED = ["finshift", "finshift.cli", "finshift.errors", "finshift.files", "finshift.groups",
          "finshift.patterns", "finshift.shiftspace"]


def test_importing_the_cli_loads_only_the_shared_layers():
    assert _fresh_python("-c", f"import sys, finshift.cli; {LOADED}").split() == SHARED
    # the package root alone loads nothing; the library tour's names load
    # their modules and what those import
    assert _fresh_python("-c", f"import sys, finshift; {LOADED}").split() == ["finshift"]
    tour = ("from finshift import (cyclic, z2_power_tower, SftSpec, BINARY, Pattern, "
            "enumerate_sft, entropy, free_extension, tower_context)")
    assert _fresh_python("-c", f"import sys; {tour}; {LOADED}").split() == [
        "finshift", "finshift.dynprops", "finshift.errors", "finshift.freext",
        "finshift.groups", "finshift.patterns", "finshift.shiftspace"]


@pytest.mark.parametrize("module", ["finshift.cli", "finshift.suites"])
def test_importing_finshift_loads_neither_dataclasses_nor_inspect(module):
    # the records are plain slotted classes, so start-up generates no
    # methods; finshift.suites loads every other module of the package
    probe = f"import sys, {module}; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    assert _fresh_python("-c", probe).split() == ["False", "False"]


@pytest.mark.parametrize("argv, loads", [
    (["group", "validate", "z4.grp"], []),
    (["sft", "enum", "golden.sft"], []),
    (["sft", "entropy", "golden.sft"], ["finshift.dynprops"]),
    (["extend", "golden.sft", "t.twr", "0", "1"], ["finshift.dynprops", "finshift.freext"]),
    (["extract", "full.sft", "t.twr", "0"], ["finshift.freext"]),
    (["check", "aut", "golden.sft"], ["finshift.dynprops"]),
    (["check", "si", "golden.sft"], ["finshift.dynprops"]),
    (["entropy-set", "t.twr", "--max-level", "2", "--max-n", "3"], ["finshift.dynprops"]),
    (["zline", "golden", "5"], ["finshift.zline"]),
    (["verify", "theorem-1"], ["finshift.dynprops", "finshift.fixtures", "finshift.freext",
                               "finshift.suites", "finshift.zline"]),
], ids=["group-validate", "sft-enum", "sft-entropy", "extend", "extract", "check-aut",
        "check-si", "entropy-set", "zline", "verify"])
def test_each_command_imports_its_own_layers(tmp_path, argv, loads):
    (tmp_path / "z2.grp").write_text("group cyclic 2\n", encoding="utf-8")
    (tmp_path / "z4.grp").write_text("group cyclic 4\n", encoding="utf-8")
    (tmp_path / "t.twr").write_text(
        "tower\nlevel z2.grp\nlevel z4.grp\nembed 0 pairs 0->0 1->2\n", encoding="utf-8")
    (tmp_path / "golden.sft").write_text(
        "sft\ngroup z2.grp\nalphabet 0 1\nshape 0 1\nforbid 1 1\n", encoding="utf-8")
    (tmp_path / "full.sft").write_text(
        "sft\ngroup z4.grp\nalphabet 0 1\nshape 0\n", encoding="utf-8")
    run = ("import sys; from finshift import cli; rc = cli.main(sys.argv[1:]); "
           f"assert rc == 0, rc; {LOADED}")
    out = _fresh_python("-c", run, *argv, cwd=tmp_path)
    assert out.splitlines()[-1].split() == sorted(SHARED + loads)
