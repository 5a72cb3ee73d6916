"""Command-line entry point.

Subcommands parse the text file formats, run one operation or a named
verification suite, and print text or TSV tables.  Identical inputs and
seed produce identical reports; the exit code is 0 exactly when every
check passes.

Only the layers every command uses are imported here; ``extend`` and
``extract`` import ``freext``, ``zline`` imports ``zline``, ``verify``
imports ``suites``, and ``sft entropy``, ``extend``, ``check`` and
``entropy-set`` import ``dynprops`` when they run, so a process loads only
what its command needs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import repeat

from . import files
from .errors import FinshiftError, InputError, ResourceError
from .shiftspace import DEFAULT_CANDIDATE_BUDGET, enumerate_sft


def _text(value, *what) -> str:
    """``str(value)``, refused if value has more digits than the interpreter
    prints; the words of ``what`` name it in the refusal."""
    try:
        return str(value)
    except ValueError:
        name = " ".join(map(str, what))
        raise ResourceError(f"{name} has more than {sys.get_int_max_str_digits()} digits, "
                            "the interpreter's limit for printing an integer") from None


def _entropy_line(value: dynprops.EntropyValue) -> str:
    return f"{_text(value, 'the configuration count')} ≈ {float(value):.6f}"


def _emit_table(rows, fmt: str) -> None:
    """Print a list of equally long rows of at least one cell, in one
    write: every cell is converted, a column at a time, before any line
    is printed."""
    try:
        columns = [list(map(str, column)) for column in zip(*rows)]
    except ValueError:  # name the first cell, row by row, that cannot print
        for row in rows:
            name = _text(row[0], "the first cell of a row")
            for cell in row:
                _text(cell, "row", name)
        raise
    if fmt == "tsv":
        lines = map("\t".join, zip(*columns))
    else:  # pad every column but the last; each line is stripped on the right
        padded = [map(str.ljust, c, repeat(max(map(len, c)))) for c in columns[:-1]]
        lines = map(str.rstrip, map("  ".join, zip(*padded, *columns[-1:])))
    if columns:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_group(args) -> int:
    g = files.read_group(args.file)
    print(f"valid group of order {g.order}")
    return 0


def _cmd_sft(args) -> int:
    spec = files.read_sft(args.file)
    if args.sft_action == "entropy":
        from .dynprops import spec_entropy

        print(_entropy_line(spec_entropy(spec, budget=args.budget)))
        return 0
    space = enumerate_sft(spec, budget=args.budget)
    symbol = spec.alphabet.symbols.__getitem__
    configs = (" ".join(map(symbol, c)) for c in sorted(space.configs))
    _emit_table([("index", "configuration"), *enumerate(configs)], args.format)
    print(f"{len(space.configs)} configurations")
    return 0


def _cmd_extend(args) -> int:
    from .dynprops import count_entropy
    from .freext import tower_extension_count

    spec, tower = files.read_sft_and_tower(args.sft, args.tower)
    count = tower_extension_count(spec, tower, args.frm, args.to, budget=args.budget)
    h = count_entropy(count, tower.levels[args.to].order)
    # h's count is a root of count, so once count prints, so does h
    configs = _text(count, "the configuration count")
    print(f"extended from level {args.frm} to level {args.to}")
    print(f"{configs} configurations")
    print(_entropy_line(h))
    return 0


def _cmd_extract(args) -> int:
    from .freext import base_extract, tower_context

    spec, tower = files.read_sft_and_tower(args.space, args.tower)
    # a tower may repeat a group: the space lives on the first such level
    # at or above the base level
    ambient_level = next(
        (j for j, lvl in enumerate(tower.levels) if j >= args.level and lvl == spec.group),
        None,
    )
    if ambient_level is None:
        raise InputError(f"the space's group is not a tower level from {args.level} up")
    ctx = tower_context(tower, args.level, ambient_level)
    result = base_extract(spec, ctx, budget=args.budget)
    if not result.ok:
        print(f"FAIL: not a free extension; witness {result.witness}")
        return 1
    print(f"base spec on level {args.level} "
          f"(group of order {ctx.base_group.order})")
    print(" ".join(["shape", *map(str, result.spec.forbidden_shape)]))
    for w in sorted(result.spec.forbidden, key=lambda w: w.symbols):
        print("forbid " + " ".join(spec.alphabet.symbols[s] for s in w.symbols))
    return 0


def _cmd_check(args) -> int:
    from . import dynprops

    kind = args.check_kind
    if kind in ("zero", "entmin", "mme"):
        # on a finite group these follow from the count: log|X|/|G| is zero
        # exactly when X is one point, which, being shift-invariant, is a
        # fixed point; it drops when an orbit is removed; and the uniform
        # measure is the only one that attains it (see dynprops.mme)
        h = dynprops.spec_entropy(files.read_sft(args.sft), budget=args.budget)
        if kind == "zero":
            print("zero-and-singleton-fixed-point" if h.is_zero() else "positive-entropy")
        elif kind == "entmin":
            print("entropy minimal")
        else:
            if args.grid < 1:
                raise InputError(f"grid must be >= 1, not {args.grid}")
            print(f"max measure entropy {float(h):.6f}")
            print("uniform attains the maximum: True")
            print("unique maximizer: True")
        return 0
    if kind == "si":
        # decided on the subgroup the shape spans, never enumerating on G
        spec = files.read_sft(args.sft)
        if args.witness is not None:
            items = args.witness.split(",") if args.witness else []
            k = [_integer(t, "--witness") for t in items]
            (verdict,) = dynprops.spec_si_verdicts(spec, [k], budget=args.budget)
            if verdict.ok:
                print(f"strongly irreducible with witness set {sorted(set(k))}")
                return 0
            u, v = verdict.counterexample
            print(f"FAIL: counterexample patterns {u.as_dict()} and {v.as_dict()}")
            return 1
        minimal = dynprops.spec_minimal_si_witnesses(spec, budget=args.budget)
        rows = [("witness",), *((" ".join(map(str, k)) or "(empty)",) for k in minimal)]
        _emit_table(rows, args.format)
        return 0 if minimal else 1
    space = enumerate_sft(files.read_sft(args.sft), budget=args.budget)
    aut = dynprops.automorphism_group(space, budget=args.budget)
    print(f"automorphism group order {aut.order}")
    _emit_table([row for row in aut.composition], args.format)
    return 0


def _cmd_entropy_set(args) -> int:
    from .dynprops import entropy_set

    tower = files.read_tower(args.tower)
    values = entropy_set(tower, max_level=args.max_level, max_n=args.max_n, budget=args.budget)
    rows = [("count", "denom", "value")]
    for v in sorted(values, key=lambda v: (float(v), v.count)):
        rows.append((v.count, v.denom, f"{float(v):.6f}"))
    _emit_table(rows, args.format)
    return 0


def _cmd_zline(args) -> int:
    from . import zline

    # each table runs from its first row to n, and has at least that row
    first, default = {"golden": (3, 20), "even": (1, 12), "gap": (2, 10)}[args.zline_kind]
    n = args.n if args.n is not None else default
    if n < first:
        raise InputError(f"zline {args.zline_kind} needs n >= {first}, not {n}")
    if args.zline_kind == "golden":
        rows = [("n", "estimate")]
        for m, count in enumerate(zline.golden_mean_cyclic_counts(n, budget=args.budget), 1):
            if m >= first:
                rows.append((m, f"{math.log(count) / m:.6f}"))
        _emit_table(rows, args.format)
        print(f"reference log(phi) = {zline.LOG_GOLDEN:.6f}")
        return 0
    if args.zline_kind == "even":
        counts = zline.even_cover_factor_counts(n, budget=args.budget)
        rows = [("n", "admissible-words")]
        for m in range(first, n + 1):
            rows.append((m, counts[m]))
        _emit_table(rows, args.format)
        print("cover and oracle agree at every length")
        return 0
    # the budget bounds the whole table: row m checks (m + 4)·m window
    # cells, and these sum to n(n + 1)(2n + 1)/6 + 2n(n + 1) - 5 over m = 2..n
    cells = n * (n + 1) * (2 * n + 1) // 6 + 2 * n * (n + 1) - 5
    if cells > args.budget:
        raise ResourceError(f"gap witness table needs {cells} window cells "
                            f"for window sizes {first} to {n} (budget {args.budget})")
    rows = [("k", "witness")]
    for m in range(first, n + 1):
        word = zline.sft_gap_witness(m, budget=args.budget)
        rows.append((m, "".join(str(s) for s in word)))
    _emit_table(rows, args.format)
    return 0


def _cmd_verify(args) -> int:
    from . import suites

    # an unknown suite is refused by run_suite, which names the known ones
    report = suites.run_suite(args.suite, seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="finshift",
        description="symbolic dynamics on finite groups and towers",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_CANDIDATE_BUDGET,
                        help="most units of work one step may do; must be >= 1")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group file operations")
    gsub = p.add_subparsers(dest="group_action", required=True)
    pv = gsub.add_parser("validate", help="parse and validate a group file")
    pv.add_argument("file")
    pv.set_defaults(fn=_cmd_group)

    p = sub.add_parser("sft", help="SFT file operations")
    ssub = p.add_subparsers(dest="sft_action", required=True)
    pe = ssub.add_parser("enum", help="enumerate the configurations")
    pe.add_argument("file")
    pe.set_defaults(fn=_cmd_sft)
    ph = ssub.add_parser("entropy", help="exact entropy with approximation")
    ph.add_argument("file")
    ph.set_defaults(fn=_cmd_sft)

    p = sub.add_parser("extend", help="free extension along a tower")
    p.add_argument("sft")
    p.add_argument("tower")
    p.add_argument("frm", type=int, metavar="from")
    p.add_argument("to", type=int)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("extract", help="recover a base spec from an extension")
    p.add_argument("space")
    p.add_argument("tower")
    p.add_argument("level", type=int)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("check", help="dynamical property checks")
    p.add_argument("check_kind", choices=("si", "entmin", "zero", "aut", "mme"))
    p.add_argument("sft")
    p.add_argument("--witness", default=None,
                   help="comma-separated witness set for the si check")
    p.add_argument("--grid", type=int, default=100,
                   help="no effect: the mme check is decided exactly; must be >= 1")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("entropy-set", help="truncated entropy set of a tower")
    p.add_argument("tower")
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=_cmd_entropy_set)

    p = sub.add_parser("zline", help="integer-line truncation demos")
    p.add_argument("zline_kind", choices=("golden", "even", "gap"))
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(fn=_cmd_zline)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name; an unknown one is refused with the list")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _integer(text, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{name}: {text!r} is not an integer") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget < 1:
            raise InputError(f"--budget must be >= 1, not {args.budget}")
        return args.fn(args)
    except FinshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
