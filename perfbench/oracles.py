"""Output oracles, run after the timed loop so their cost enters no metric.

Each ``check_*`` takes the op's plain-data inputs and its outcome
``(rc, out, err)`` and returns ``(units, failures)``.  Expected answers come
from routes independent of the command under test:

- configuration counts from a transfer-matrix trace (cyclic groups and
  products with small columns), else from ``enumerate_sft_naive``;
- free extensions from the family count |Y|^[G:H] and the direct
  ``tower_context`` extension, extraction by re-extension equality;
- automorphism group orders from the orbit-type formula for abelian groups,
  SI witness sets from a projection test, and closed forms for the rest.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

from model import Group, Spec

FLOAT_TOL = 1e-6
MAX_TRANSFER_STATES = 64


def _result(failures) -> tuple:
    return 1, [f for f in failures if f]


def _expect_rc(rc, want) -> str | None:
    return None if rc == want else f"exit {rc!r}, expected {want}"


# ------------------------------------------------------------ finshift side


@functools.cache
def fs_group(g: Group):
    from finshift.groups import cyclic, product

    out = cyclic(g.moduli[0])
    for m in g.moduli[1:]:
        out = product(out, cyclic(m))
    return out


@functools.cache
def fs_tower(tower):
    from finshift.groups import build_tower

    levels = [fs_group(g) for g in tower.levels]
    embeds = [tuple(a * tower.scale for a in range(g.order)) for g in tower.levels[:-1]]
    return build_tower(levels, embeds)


@functools.cache
def space(spec: Spec):
    """The spec's shift space by the naive oracle (orders <= 16 binary)."""
    from finshift.patterns import Alphabet, Pattern
    from finshift.shiftspace import SftSpec, enumerate_sft_naive

    g = fs_group(spec.group)
    order = sorted(range(len(spec.cells)), key=lambda i: spec.cells[i])
    shape = tuple(spec.cells[i] for i in order)
    forbidden = frozenset(
        Pattern(g, shape, tuple(row[i] for i in order)) for row in spec.forbid
    )
    sft = SftSpec(g, Alphabet(spec.symbols), shape, forbidden)
    return enumerate_sft_naive(sft, budget=1 << 16)


def extension(base: Spec, tower, i: int, j: int) -> frozenset:
    from finshift.freext import free_extension, tower_context

    return free_extension(space(base), tower_context(fs_tower(tower), i, j)).configs


# ------------------------------------------------------------- transfer count


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _trace_power(m, e: int) -> int:
    result = None
    while e:
        if e & 1:
            result = m if result is None else _matmul(result, m)
        e >>= 1
        if e:
            m = _matmul(m, m)
    return sum(result[i][i] for i in range(len(result)))


def transfer_count(spec: Spec) -> int | None:
    """|Y| as the trace of the column transfer matrix to the power b.

    The group is K x Z/b (b the last factor); a configuration is a cyclic
    word of b columns, each a configuration on K.  Returns None when the
    window along Z/b is too wide or the state space too large.
    """
    g = spec.group
    b = g.moduli[-1]
    col = Group(g.moduli[:-1]) if len(g.moduli) > 1 else None
    a = g.order // b
    cells = [(c % a, c // a) for c in spec.cells]
    span, t = min((max((j - t) % b for _, j in cells), t) for t in {j for _, j in cells})
    w = span + 1
    if b < w or spec.k ** (a * max(w - 1, 1)) > MAX_TRANSFER_STATES:
        return None
    offs = [(i, (j - t) % b) for i, j in cells]
    columns = list(itertools.product(range(spec.k), repeat=a))

    def allowed(block) -> bool:
        return all(
            tuple(block[o][col.add(i, gi) if col else 0] for i, o in offs) not in spec.forbid
            for gi in range(a)
        )

    if w == 1:
        return sum(allowed((c,)) for c in columns) ** b
    states = list(itertools.product(columns, repeat=w - 1))
    index = {s: n for n, s in enumerate(states)}
    m = [[0] * len(states) for _ in states]
    for s in states:
        for c in columns:
            if allowed(s + (c,)):
                m[index[s]][index[s[1:] + (c,)]] += 1
    return _trace_power(m, b)


@functools.cache
def count(spec: Spec) -> int:
    n = transfer_count(spec)
    return len(space(spec).configs) if n is None else n


# ----------------------------------------------------------------- parsing

_ENTROPY = re.compile(r"log\((\d+)\)/(\d+) ≈ (-?\d+\.\d+)")


def _entropy_line(line: str, n_configs: int, order: int) -> str | None:
    m = _ENTROPY.fullmatch(line)
    if not m:
        return f"bad entropy line {line!r}"
    c, d, approx = int(m[1]), int(m[2]), float(m[3])
    if c ** order != n_configs ** d:
        return f"{line!r} is not log({n_configs})/{order}"
    if abs(approx - math.log(n_configs) / order) > FLOAT_TOL:
        return f"approximation {approx} off"
    return None


def _table(out: str) -> list[list[str]]:
    return [line.split() for line in out.splitlines()]


def _configs_from_rows(rows, symbols):
    return {tuple(symbols.index(s) for s in row[1:]) for row in rows}


# ------------------------------------------------------------------ checks


def check_error(rc, out, err):
    """Malformed input: exit 2, nothing on stdout, one ``error:`` line."""
    lines = err.splitlines()
    ok_err = len(lines) == 1 and lines[0].startswith("error: ")
    return _result([
        _expect_rc(rc, 2),
        None if out == "" else f"stdout {out[:60]!r}",
        None if ok_err else f"stderr {err[-120:]!r}",
    ])


def check_validate(order: int, rc, out, err):
    want = f"valid group of order {order}\n"
    return _result([_expect_rc(rc, 0), None if out == want else f"output {out!r}"])


def check_entropy(spec: Spec, rc, out, err):
    if rc != 0:
        return _result([_expect_rc(rc, 0)])
    return _result([_entropy_line(out.rstrip("\n"), count(spec), spec.group.order)])


def check_enum(spec: Spec, rc, out, err):
    want = space(spec).configs
    lines = out.splitlines()
    if rc != 0 or len(lines) < 2:
        return _result([_expect_rc(rc, 0) or f"output {out[:60]!r}"])
    rows = _table("\n".join(lines[1:-1]))
    got = _configs_from_rows(rows, spec.symbols)
    return _result([
        None if lines[-1] == f"{len(want)} configurations" else f"footer {lines[-1]!r}",
        None if got == want and len(rows) == len(want) else "configurations differ",
        None if [r[0] for r in rows] == [str(i) for i in range(len(rows))] else "bad index",
    ])


def check_extend(spec: Spec, tower, i: int, j: int, rc, out, err):
    index = tower.levels[j].order // tower.levels[i].order
    families = len(space(spec).configs) ** index
    direct = len(extension(spec, tower, i, j))
    lines = out.splitlines()
    if rc != 0 or len(lines) != 3:
        return _result([_expect_rc(rc, 0) or f"output {out[:60]!r}"])
    return _result([
        None if direct == families else f"oracles disagree: {direct} != {families}",
        None if lines[0] == f"extended from level {i} to level {j}" else f"{lines[0]!r}",
        None if lines[1] == f"{families} configurations" else f"{lines[1]!r}",
        _entropy_line(lines[2], families, tower.levels[j].order),
    ])


def _is_free_extension(spec: Spec, tower, i: int, j: int) -> bool:
    """|X| == |Y|^[G:H] where Y is every coset's restriction of X."""
    g = tower.levels[j]
    image = [tower.embed(i, j, a) for a in range(tower.levels[i].order)]
    reps = sorted({min(g.add(h, c) for h in image) for c in range(g.order)})
    x = space(spec).configs
    members = {tuple(cfg[g.add(h, c)] for h in image) for cfg in x for c in reps}
    return len(x) == len(members) ** len(reps)


def check_extract(spec: Spec, tower, i: int, rc, out, err):
    j = tower.levels.index(spec.group)
    lines = out.splitlines()
    if not _is_free_extension(spec, tower, i, j):
        ok = rc == 1 and len(lines) == 1 and lines[0].startswith(
            "FAIL: not a free extension; witness (")
        return _result([None if ok else f"exit {rc!r}, output {out[:80]!r}"])
    if rc != 0 or len(lines) < 2:
        return _result([_expect_rc(rc, 0) or f"output {out[:60]!r}"])
    base_group = tower.levels[i]
    head = f"base spec on level {i} (group of order {base_group.order})"
    shape = tuple(int(c) for c in lines[1].split()[1:])
    forbid = frozenset(
        tuple(spec.symbols.index(s) for s in line.split()[1:]) for line in lines[2:]
    )
    base = Spec(base_group, spec.symbols, shape, forbid)
    return _result([
        None if lines[0] == head else f"{lines[0]!r}",
        None if extension(base, tower, i, j) == space(spec).configs
        else "re-extension differs from the input space",
    ])


def _shift(g: Group, x, t: int):
    return tuple(x[g.add(h, t)] for h in range(g.order))


def aut_order(spec: Spec) -> int:
    """|Aut| of a finite G-set, G abelian: prod over stabilizers S of
    (|G|/|S|)^k_S * k_S!, where k_S orbits have stabilizer S."""
    g = spec.group
    left = set(space(spec).configs)
    per_stab = {}
    while left:
        x = min(left)
        orbit = {_shift(g, x, t) for t in range(g.order)}
        stab = frozenset(t for t in range(g.order) if _shift(g, x, t) == x)
        per_stab[stab] = per_stab.get(stab, 0) + 1
        left -= orbit
    order = 1
    for stab, k in per_stab.items():
        order *= (g.order // len(stab)) ** k * math.factorial(k)
    return order


def check_aut(spec: Spec, rc, out, err):
    want = aut_order(spec)
    lines = out.splitlines()
    if rc != 0 or not lines:
        return _result([_expect_rc(rc, 0)])
    rows = [[int(v) for v in r] for r in _table("\n".join(lines[1:]))]
    full = list(range(want))
    latin = len(rows) == want and all(sorted(r) == full for r in rows) and all(
        sorted(c) == full for c in zip(*rows))
    return _result([
        None if lines[0] == f"automorphism group order {want}" else f"{lines[0]!r}",
        None if latin and rows[0] == full else "composition table is not a group table",
    ])


def check_mme(spec: Spec, rc, out, err):
    h = math.log(len(space(spec).configs)) / spec.group.order
    lines = out.splitlines()
    want = ["uniform attains the maximum: True", "unique maximizer: True"]
    m = re.fullmatch(r"max measure entropy (\d+\.\d+)", lines[0]) if lines else None
    return _result([
        _expect_rc(rc, 0),
        None if m and abs(float(m[1]) - h) <= FLOAT_TOL else f"output {out[:60]!r}",
        None if lines[1:] == want else f"verdict {lines[1:]!r}",
    ])


def check_zero(spec: Spec, rc, out, err):
    n = len(space(spec).configs)
    want = "positive-entropy" if n > 1 else "zero-and-singleton-fixed-point"
    return _result([_expect_rc(rc, 0), None if out == want + "\n" else f"output {out!r}"])


def check_entmin(spec: Spec, rc, out, err):
    # every proper subshift of a finite space has fewer points
    return _result([_expect_rc(rc, 0), None if out == "entropy minimal\n" else f"{out!r}"])


def si_witnesses(spec: Spec) -> list[tuple]:
    """Inclusion-minimal K for which every pair of patterns on shapes U, V
    with U disjoint from K+V occurs together in some configuration."""
    g = spec.group
    x = space(spec).configs
    shapes = [s for r in range(g.order + 1) for s in itertools.combinations(range(g.order), r)]
    lang = {s: len({tuple(c[i] for i in s) for c in x}) for s in shapes}
    fillable = {
        (u, v): len({(tuple(c[i] for i in u), tuple(c[i] for i in v)) for c in x})
        == lang[u] * lang[v]
        for u in shapes for v in shapes
    }
    good = [
        k for k in shapes
        if all(ok for (u, v), ok in fillable.items()
               if not set(u) & {g.add(a, f) for a in k for f in v})
    ]
    return [k for k in good if not any(set(m) < set(k) for m in good)]


def check_si(spec: Spec, rc, out, err):
    want = [" ".join(str(a) for a in k) or "(empty)" for k in si_witnesses(spec)]
    lines = out.splitlines()
    return _result([
        _expect_rc(rc, 0),
        None if lines[:1] == ["witness"] and [ln.strip() for ln in lines[1:]] == want
        else f"witnesses {lines[1:]!r}, expected {want!r}",
    ])


def _same_value(a, b) -> bool:
    return a[0] ** b[1] == b[0] ** a[1]


def check_entropy_set(level: int, max_n: int, rc, out, err):
    """Values log(n)/2^m, n <= max_n, m <= level: (Z/2)^L has subgroups of
    every order 2^m."""
    targets = [(n, 2 ** m) for n in range(1, max_n + 1) for m in range(level + 1)]
    distinct = []
    for t in targets:
        if not any(_same_value(t, d) for d in distinct):
            distinct.append(t)
    rows = _table(out)[1:]
    try:
        got = [(int(c), int(d), float(v)) for c, d, v in rows]
    except ValueError:
        return _result([f"output {out[:60]!r}"])
    return _result([
        _expect_rc(rc, 0),
        None if len(got) == len(distinct) else f"{len(got)} values, expected {len(distinct)}",
        None if all(any(_same_value(t, g[:2]) for g in got) for t in distinct)
        else "missing values",
        None if all(abs(v - math.log(c) / d) <= FLOAT_TOL for c, d, v in got) else "bad value",
        None if got == sorted(got, key=lambda g: (g[2], g[0])) else "not sorted",
    ])


def lucas(n: int) -> int:
    """Binary cyclic words of length n with no two adjacent ones."""
    return _trace_power([[1, 1], [1, 0]], n)


def check_golden(n: int, rc, out, err):
    rows = _table(out)
    got = rows[1:-1]
    want = [(m, math.log(lucas(m)) / m) for m in range(3, n + 1)]
    ok = len(got) == len(want) and all(
        r[0] == str(m) and abs(float(r[1]) - v) <= FLOAT_TOL for r, (m, v) in zip(got, want))
    ref = f"reference log(phi) = {math.log((1 + math.sqrt(5)) / 2):.6f}"
    return _result([
        _expect_rc(rc, 0),
        None if ok else "estimates differ",
        None if out.splitlines()[-1:] == [ref] else "reference line",
    ])


def even_words(n: int) -> int:
    """Binary words of length n read along the even shift's two-state
    cover (A -0-> A, A -1-> B, B -1-> A) from either start state."""
    step = {("A", 0): "A", ("A", 1): "B", ("B", 1): "A"}

    def accepted(word, state):
        for s in word:
            state = step.get((state, s))
            if state is None:
                return False
        return True

    return sum(
        accepted(w, "A") or accepted(w, "B") for w in itertools.product((0, 1), repeat=n)
    )


def check_even(n: int, rc, out, err):
    rows = _table(out)[1:-1]
    want = [[str(m), str(even_words(m))] for m in range(1, n + 1)]
    return _result([
        _expect_rc(rc, 0),
        None if rows == want else "word counts differ",
        None if out.splitlines()[-1:] == ["cover and oracle agree at every length"]
        else "verdict line",
    ])


def check_gap(n: int, rc, out, err):
    want = [[str(k), "0" + "1" * (2 * k + 1) + "0"] for k in range(2, n + 1)]
    return _result([_expect_rc(rc, 0), None if _table(out)[1:] == want else "witnesses differ"])


_CHECK = re.compile(r"CHECK (\S+) (PASS|FAIL) \((\d+\.\d+)s\)")


def check_suite(suite: str, rc, out, err):
    """One unit per CHECK line; a failed check is a failed unit."""
    lines = out.splitlines()
    checks = [m for m in map(_CHECK.fullmatch, lines) if m]
    failures = [f"check {m[1]} failed" for m in checks if m[2] == "FAIL"]
    framed = lines[:1] == [f"suite {suite}"] and lines[-1:] == [f"suite {suite} PASS"]
    if not checks or rc != 0 or not framed:
        failures.append(f"exit {rc!r}, {len(checks)} checks, output {out[-80:]!r}")
    return max(len(checks), len(failures)), failures


def s3_table() -> list[list[int]]:
    perms = sorted(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]
