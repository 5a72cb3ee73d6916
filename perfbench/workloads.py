"""Seeded inputs for the three benchmark workloads.

Every workload has a fixed catalogue of input shapes, drawn once from
``CATALOG_SEED``: group orders, shapes, forbidden sets, grid sizes and op
kinds.  The workload seed then chooses how each catalogue entry is presented
to the program: a translation of the shape by a group element, a permutation
of the symbols, the order of the shape cells in the file and the symbol
names.  None of these change the answer's
size or the search the program does, so every seed costs about the same and
the figures of two seeds can be compared.

Inputs are plain data (:class:`Group`, :class:`Spec`) written to text files;
the program only ever sees the files, through ``finshift.cli.main``.  The
oracles in ``oracles.py`` check outputs against the same plain data.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from model import CYCLIC_TOWER, E2_TOWERS, Group, Spec, Tower

CATALOG_SEED = 20230417
# the suites cheap enough to run in every check pass; the theorem-2 and
# zline suites take seconds each, one op that would swamp the rest
SUITES = ("free-extension", "theorem-1")
ALPHABETS = {2: (("0", "1"), ("a", "b"), ("x", "y")), 3: (("0", "1", "2"), ("a", "b", "c"))}


@dataclass
class Op:
    """One CLI invocation and the oracle that judges its outcome.

    ``check(rc, out, err)`` returns ``(units, failures)``: the number of
    checked units the op stands for (1, or the suite's checks for
    ``verify``) and the reasons of those that failed.
    """

    name: str
    kind: str
    argv: list
    check: Callable
    error_path: bool = False


@dataclass
class Inputs:
    """Everything a workload needs: ops in run order, plus ops that probe
    known defects, run once outside the timed loop."""

    ops: list
    known_defects: list = field(default_factory=list)


class Writer:
    """Collects input files in memory; :meth:`flush` writes them under
    ``root``, so that generating inputs and writing them are timed apart."""

    def __init__(self, root: str):
        self.root = root
        self.files = {}

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def text(self, name: str, text: str) -> str:
        self.files.setdefault(name, text)
        return self.path(name)

    def group(self, g: Group) -> str:
        for part in g.parts():
            self.text(f"{part.name}.grp", part.file_text())
        return self.path(f"{g.name}.grp")

    def tower(self, t: Tower) -> str:
        for g in t.levels:
            self.group(g)
        return self.text(f"{t.name}.twr", t.file_text())

    def spec(self, name: str, s: Spec) -> str:
        self.group(s.group)
        return self.text(f"{name}.sft", s.file_text())

    def flush(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        for name, text in self.files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)


# ---------------------------------------------------------------- catalogue


def _forbid_rows(rng, size: int, k: int, pair) -> frozenset:
    """Forbidden rows with a hard-core part on the cell pair ``pair``.

    Binary: both pair cells 1.  Ternary: both pair cells nonzero.  The core
    keeps the space no larger than a golden-mean-like shift, so no op grows
    past a few tens of thousands of configurations; extra rows are added at
    random, except constant rows, so the constant-0 point always survives.
    """
    a, b = pair
    rows = set()
    for row in itertools.product(range(k), repeat=size):
        core = row[a] != 0 and row[b] != 0 if k == 3 else row[a] == row[b] == 1
        if core:
            rows.add(row)
        elif len(set(row)) > 1 and rng.random() < 0.25:
            rows.add(row)
    return frozenset(rows)


def _window_cells(rng, group: Group, size: int) -> tuple:
    """``size`` cells close together: inside a window of four steps on a
    cyclic group; on a product, anywhere along the other factors and within
    two steps along the last one."""
    *rest, last = group.moduli
    span = min(4 if not rest else 2, last)
    while True:
        cells = set()
        for _ in range(size):
            digits = [rng.randrange(m) for m in rest] + [rng.randrange(span)]
            cells.add(group.element(digits))
        if len(cells) == size and 0 in {group.digits(c)[-1] for c in cells}:
            return tuple(sorted(cells))


def _random_spec(rng, group: Group, k: int, size: int) -> Spec:
    cells = _window_cells(rng, group, size)
    pair = tuple(sorted(rng.sample(range(size), 2)))
    return Spec(group, ALPHABETS[k][0], cells, _forbid_rows(rng, size, k, pair))


def _count_catalogue():
    rng = random.Random(CATALOG_SEED)
    specs = []
    for n in range(8, 21):
        for _ in range(4):
            specs.append(_random_spec(rng, Group((n,)), 2, rng.choice((2, 3))))
    for a in (2, 3, 4):
        for b in range(2, 11):
            if 8 <= a * b <= 20:
                for _ in range(2):
                    specs.append(_random_spec(rng, Group((a, b)), 2, rng.choice((2, 3))))
    for _ in range(8):
        specs.append(_random_spec(rng, Group((2, 2, 2)), 2, rng.choice((2, 3))))
    for _ in range(3):
        specs.append(_random_spec(rng, Group((2, 2, 2, 2)), 2, 2))
    for n in range(6, 13):
        for _ in range(2):
            specs.append(_random_spec(rng, Group((n,)), 3, rng.choice((2, 3))))
    for moduli in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)):
        specs.append(_random_spec(rng, Group(moduli), 3, 2))
    for _ in range(2):
        specs.append(_random_spec(rng, Group((2, 2, 2)), 3, 2))
    return specs


def _small_catalogue(rng, quota: dict, accept) -> list:
    """Draw binary specs on groups of order <= 6 until each size class of
    ``accept(spec)`` (None to reject) has its quota."""
    groups = [Group(m) for m in ((2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3))]
    need = dict(quota)
    out = []
    while any(need.values()):
        g = rng.choice(groups)
        size = rng.randint(1, min(3, g.order))
        cells = tuple(sorted(rng.sample(range(g.order), size)))
        rows = frozenset(
            r for r in itertools.product((0, 1), repeat=size) if rng.random() < 0.4
        )
        if not rows:
            continue
        spec = Spec(g, ALPHABETS[2][0], cells, rows)
        cls = accept(spec)
        if cls is not None and need.get(cls, 0) > 0:
            need[cls] -= 1
            out.append(spec)
    return out


def _orbit_count(spec: Spec) -> int:
    g = spec.group
    left = spec.configs()
    count = 0
    while left:
        x = min(left)
        left -= {tuple(x[g.add(h, t)] for h in range(g.order)) for t in range(g.order)}
        count += 1
    return count


def _check_catalogue():
    rng = random.Random(CATALOG_SEED + 2)
    aut = _small_catalogue(rng, {5: 2, 6: 3, 7: 3, 8: 3, 9: 1},
                           lambda s: len(s.configs()))
    mme = _small_catalogue(
        rng, {2: 3, 3: 3},
        lambda s: _orbit_count(s) if s.group.order <= 5 and len(s.configs()) > 1 else None,
    )
    small = _small_catalogue(
        rng, {2: 20, 3: 16, 4: 14, 5: 4},
        lambda s: s.group.order if s.configs() and s.group.order <= 5 else None,
    )
    singletons = [
        Spec(Group((n,)), ALPHABETS[2][0], (0, 1),
             frozenset({(0, 1), (1, 0), (1, 1)}))
        for n in (2, 3, 4, 5)
    ]
    grids = [rng.randrange(20, 61) for _ in mme]
    return aut, list(zip(mme, grids)), small + singletons


# ----------------------------------------------------------- presentation


class Presenter:
    """Per-seed presentation of catalogue specs (see the module docstring)."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.names = {k: self.rng.choice(v) for k, v in ALPHABETS.items()}

    def spec(self, s: Spec) -> Spec:
        rng = self.rng
        t = rng.randrange(s.group.order)
        perm = list(range(s.k))
        rng.shuffle(perm)
        cells = [s.group.add(c, t) for c in s.cells]
        order = list(range(len(cells)))
        rng.shuffle(order)
        forbid = frozenset(tuple(perm[row[i]] for i in order) for row in s.forbid)
        return Spec(s.group, self.names[s.k], tuple(cells[i] for i in order), forbid)


def lift(spec: Spec, tower: Tower, i: int, j: int) -> Spec:
    """The base spec on level i read as a spec on level j (same symbols,
    shape carried through the embedding)."""
    cells = tuple(tower.embed(i, j, c) for c in spec.cells)
    return Spec(tower.levels[j], spec.symbols, cells, spec.forbid)


# ---------------------------------------------------------------- workloads


def _shuffled(ops):
    """The ops in one fixed mixed order.  The order is not seeded: which ops
    run before an op decides how fragmented the heap is when it runs, and so
    the peak resident memory."""
    random.Random(CATALOG_SEED).shuffle(ops)
    return ops


def _error_op(w: Writer, name: str, filename: str, text: str, argv_of) -> Op:
    path = w.text(filename, text)
    return Op(name, "error", argv_of(path), oracles.check_error, error_path=True)


def build_count(seed: int, w: Writer) -> Inputs:
    p = Presenter(seed, "count")
    ops = []
    groups = {}
    for idx, base in enumerate(_count_catalogue()):
        s = p.spec(base)
        path = w.spec(f"c{idx:03d}", s)
        ops.append(Op(f"entropy/{s.group.name}#{idx}", "sft entropy",
                      ["sft", "entropy", path],
                      functools.partial(oracles.check_entropy, s)))
        if s.k ** s.group.order <= 4096:
            ops.append(Op(f"enum/{s.group.name}#{idx}", "sft enum",
                          ["sft", "enum", path],
                          functools.partial(oracles.check_enum, s)))
        groups[s.group.name] = s.group
    for g in groups.values():
        ops.append(Op(f"validate/{g.name}", "group validate",
                      ["group", "validate", w.group(g)],
                      functools.partial(oracles.check_validate, g.order)))
    for name, rows in (("s3", oracles.s3_table()), ("t7", oracles.cyclic_table(7))):
        text = f"group table {len(rows)}\n" + "".join(
            " ".join(map(str, r)) + "\n" for r in rows)
        ops.append(Op(f"validate/{name}", "group validate",
                      ["group", "validate", w.text(f"{name}.grp", text)],
                      functools.partial(oracles.check_validate, len(rows))))
    w.group(Group((8,)))
    sym = p.names[2]
    sft = lambda path: ["sft", "entropy", path]  # noqa: E731
    grp = lambda path: ["group", "validate", path]  # noqa: E731
    head = f"sft\ngroup z8.grp\nalphabet {' '.join(sym)}\n"
    ops += [
        _error_op(w, "error/forbid-row-length", "bad_row.sft",
                  head + f"shape 0 1\nforbid {sym[1]} {sym[1]} {sym[1]}\n", sft),
        _error_op(w, "error/unknown-symbol", "bad_symbol.sft",
                  head + "shape 0 1\nforbid q q\n", sft),
        _error_op(w, "error/shape-outside-group", "bad_shape.sft",
                  head + f"shape 0 9\nforbid {sym[1]} {sym[1]}\n", sft),
        _error_op(w, "error/empty-sft", "empty.sft", "", sft),
        _error_op(w, "error/non-associative-table", "nonassoc.grp",
                  "group table 3\n0 1 2\n1 2 0\n2 0 0\n", grp),
        _error_op(w, "error/cyclic-order-0", "z0.grp", "group cyclic 0\n", grp),
    ]
    return Inputs(_shuffled(ops))


def _tower_base(rng, tower: Tower, i: int) -> Spec:
    """A seeded base spec on tower level i.  Level 0 has at most 3
    configurations, level 1 at most 9 and level 2 at most 81, so any
    extension to level 3 has at most 6561."""
    g = tower.levels[i]
    if g.order == 2:
        return Spec(g, ALPHABETS[2][0], (0, 1), frozenset({rng.choice(((1, 1), (0, 1)))}))
    return _random_spec(rng, g, 2, rng.choice((2, 3)))


def _coupling_spec(rng, tower: Tower, i: int, j: int) -> Spec:
    """A spec on level j tying each cell to a cell outside the level-i
    subgroup's coset: never a free extension of level i."""
    g = tower.levels[j]
    image = {tower.embed(i, j, a) for a in range(tower.levels[i].order)}
    t = rng.choice([a for a in range(g.order) if a not in image])
    return Spec(g, ALPHABETS[2][0], (0, t), frozenset({(0, 1), (1, 0)}))


def build_extend(seed: int, w: Writer) -> Inputs:
    p = Presenter(seed, "extend")
    cat = random.Random(CATALOG_SEED + 1)
    ops = []
    towers = (CYCLIC_TOWER, E2_TOWERS[4])
    for tower in towers:
        tpath = w.tower(tower)
        for idx in range(66):
            i = idx % 3
            j = cat.randint(i + 1, 3)
            s = p.spec(_tower_base(cat, tower, i))
            path = w.spec(f"{tower.name}_b{idx:02d}", s)
            ops.append(Op(f"extend/{tower.name}/{i}->{j}#{idx}", "extend",
                          ["extend", path, tpath, str(i), str(j)],
                          functools.partial(oracles.check_extend, s, tower, i, j)))
        for idx in range(34):
            # ambient spaces of at most 81 configurations below level 3 and
            # at most 256 on level 3: extraction enumerates the ambient space
            # twice and reads its every pattern, so larger ones would swamp
            # the free-extension work.  Inputs that are not free extensions
            # stay below level 3: extraction re-enumerates the extension of
            # what it recovers, whose size then depends on the seed's shape
            # translation, up to 2^16 configurations on level 3
            not_free = idx % 3 == 0
            j = min(1 + idx // 3 % 3, 2 if not_free else 3)
            i = cat.randrange(j)
            if not_free:
                amb = _coupling_spec(cat, tower, i, j)
            elif j == 3:
                i = 0
                amb = lift(Spec(tower.levels[0], ALPHABETS[2][0], (0, 1),
                                frozenset({(0, 1)})), tower, 0, 3)
            else:
                amb = lift(_tower_base(cat, tower, i), tower, i, j)
            s = p.spec(amb)
            path = w.spec(f"{tower.name}_x{idx:02d}", s)
            ops.append(Op(f"extract/{tower.name}/{j}->{i}#{idx}", "extract",
                          ["extract", path, tpath, str(i)],
                          functools.partial(oracles.check_extract, s, tower, i)))
    w.group(Group((3,)))
    base1 = w.spec("lvl1", p.spec(_tower_base(cat, CYCLIC_TOWER, 1)))
    z3 = w.spec("z3", Spec(Group((3,)), p.names[2], (0, 1), frozenset({(1, 1)})))
    cyc = w.path("cyc.twr")
    ext = lambda path: ["extend", base1, path, "1", "2"]  # noqa: E731
    ops += [
        Op("error/level-group-mismatch", "error", ["extend", base1, cyc, "0", "2"],
           oracles.check_error, error_path=True),
        Op("error/space-not-on-tower", "error", ["extract", z3, cyc, "0"],
           oracles.check_error, error_path=True),
        _error_op(w, "error/embedding-not-homomorphism", "nonhom.twr",
                  "tower\nlevel z2.grp\nlevel z4.grp\nembed 0 pairs 0->0 1->1\n", ext),
        _error_op(w, "error/embed-before-levels", "early.twr",
                  "tower\nlevel z2.grp\nembed 0 pairs 0->0 1->2\nlevel z4.grp\n", ext),
        _error_op(w, "error/unknown-tower-directive", "directive.twr",
                  "tower\nlevel z2.grp\nstep z4.grp\n", ext),
    ]
    known_defects = [
        Op("defect/extend-downward-accepted", "defect", ["extend", base1, cyc, "1", "0"],
           oracles.check_error),
        Op("defect/negative-level-index-error", "defect",
           ["extend", w.spec("lvl0", p.spec(_tower_base(cat, CYCLIC_TOWER, 0))),
            cyc, "-4", "0"],
           oracles.check_error),
    ]
    return Inputs(_shuffled(ops), known_defects)


def build_check(seed: int, w: Writer) -> Inputs:
    p = Presenter(seed, "check")
    cat = random.Random(CATALOG_SEED + 3)
    aut, mme, small = _check_catalogue()
    ops = []

    def add(name, kind, argv, check):
        ops.append(Op(name, kind, argv, check))

    for idx, base in enumerate(aut):
        s = p.spec(base)
        path = w.spec(f"aut{idx:02d}", s)
        add(f"aut/{s.group.name}#{idx}", "check aut", ["check", "aut", path],
            functools.partial(oracles.check_aut, s))
    for idx, (base, grid) in enumerate(mme):
        s = p.spec(base)
        path = w.spec(f"mme{idx:02d}", s)
        add(f"mme/{s.group.name}/grid{grid}#{idx}", "check mme",
            ["check", "mme", path, "--grid", str(grid)],
            functools.partial(oracles.check_mme, s))
    for idx, base in enumerate(small):
        s = p.spec(base)
        path = w.spec(f"small{idx:02d}", s)
        add(f"zero/{s.group.name}#{idx}", "check zero", ["check", "zero", path],
            functools.partial(oracles.check_zero, s))
        add(f"entmin/{s.group.name}#{idx}", "check entmin", ["check", "entmin", path],
            functools.partial(oracles.check_entmin, s))
        if idx % 4 == 0:
            add(f"si/{s.group.name}#{idx}", "check si", ["check", "si", path],
                functools.partial(oracles.check_si, s))
    for depth, level, max_n in [(4, 4, 4)] + [
        (d, cat.randint(1, d), cat.randint(2, 8)) for d in (2, 3) * 4
    ]:
        tower = E2_TOWERS[depth]
        add(f"entropy-set/{tower.name}/L{level}n{max_n}", "entropy-set",
            ["entropy-set", w.tower(tower), "--max-level", str(level), "--max-n", str(max_n)],
            functools.partial(oracles.check_entropy_set, level, max_n))
    for n in [cat.randint(3, 12) for _ in range(30)]:
        add(f"zline-golden/{n}", "zline golden", ["zline", "golden", str(n)],
            functools.partial(oracles.check_golden, n))
    for n in [cat.randint(2, 12) for _ in range(30)]:
        add(f"zline-gap/{n}", "zline gap", ["zline", "gap", str(n)],
            functools.partial(oracles.check_gap, n))
    for n in [cat.randint(4, 8) for _ in range(8)] + [10]:
        add(f"zline-even/{n}", "zline even", ["zline", "even", str(n)],
            functools.partial(oracles.check_even, n))
    for suite in SUITES:
        add(f"verify/{suite}", "verify", ["--seed", str(seed), "verify", suite],
            functools.partial(oracles.check_suite, suite))
    return Inputs(_shuffled(ops))


BUILDERS = {
    "count": build_count,
    "extend": build_extend,
    "check": build_check,
}


def build(workload: str, seed: int, root: str) -> tuple[Inputs, Writer]:
    """The workload's ops and, unwritten, the input files they read from
    ``root``."""
    w = Writer(root)
    return BUILDERS[workload](seed, w), w
