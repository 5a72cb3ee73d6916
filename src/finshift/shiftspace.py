"""SFT specifications and fully enumerated shift spaces on finite groups.

An :class:`SftSpec` is declarative (forbidden patterns on a fixed shape);
a :class:`ShiftSpace` is the enumerated, shift-invariant set of
configurations.  Both sweeps read a window hypergraph: cells 0..n-1, set
in that numbering, and windows, tuples of cells that each forbidden word
is matched against, checked at their last cell (:func:`_by_last`).
:func:`enumerate_hypergraph` keeps whole prefixes, :func:`frontier_count`
only the symbols later windows read.  :func:`count_sft` counts on the
windows inside the subgroup the shape spans (:func:`shape_base`); the
count on the whole group's windows, :func:`enumerate_sft` and a naive
filter (:func:`enumerate_sft_naive`) are its oracles.  :func:`project`
reads the symbols that configurations carry on a shape.
"""

from __future__ import annotations

from itertools import chain
from itertools import product as iproduct
from operator import lshift

from .errors import DEFAULT_CANDIDATE_BUDGET, InputError, Record, ResourceError, ValidationError
from .groups import FiniteGroup, generated_subgroup
from .patterns import Alphabet, Pattern, picker


def _group_cells(group: FiniteGroup, cells, what: str) -> tuple[int, ...]:
    """``cells`` sorted, without repeats, if each is an element index of
    ``group``; else an :class:`InputError` naming ``what``."""
    if (cells := set(cells)) and not ({int}.issuperset(map(type, cells))
                                      and 0 <= min(cells) and max(cells) < group.order):
        raise InputError(f"{what} contains indices outside the group")
    return tuple(sorted(cells))


class SftSpec(Record):
    """An SFT by ``group``, ``alphabet``, ``forbidden_shape`` (stored sorted,
    without repeats) and the ``forbidden`` patterns on that shape."""

    __slots__ = ("group", "alphabet", "forbidden_shape", "forbidden")

    def __init__(self, group: FiniteGroup, alphabet: Alphabet,
                 forbidden_shape: tuple[int, ...], forbidden: frozenset[Pattern]):
        shape = _group_cells(group, forbidden_shape, "forbidden shape")
        k = alphabet.size
        for w in forbidden:
            if w.shape != shape:
                raise InputError("every forbidden pattern must live exactly on the spec shape")
            for s in w.symbols:
                if type(s) is not int or not 0 <= s < k:
                    raise InputError(f"forbidden symbol {s!r} is outside the alphabet of size {k}")
        super().__init__(group, alphabet, shape, forbidden)


class ShiftSpace(Record):
    """A shift on ``group`` over ``alphabet``: its ``configs``, symbol tuples."""

    __slots__ = ("group", "alphabet", "configs")

    def __len__(self):
        return len(self.configs)


def full_shift(group: FiniteGroup, alphabet: Alphabet) -> ShiftSpace:
    configs = frozenset(iproduct(range(alphabet.size), repeat=group.order))
    return ShiftSpace(group, alphabet, configs)


def is_shift_invariant(y: ShiftSpace) -> bool:
    """Whether every shift, column g of the table, maps ``y`` into itself."""
    return all(y.configs.issuperset(map(picker(column), y.configs))
               for column in zip(*y.group.mul))


def _windows(group: FiniteGroup, shape):
    """The whole group's windows of the shape: cell k of window g is
    ``f_k * g``, column g of row f_k of the table, so that matching a
    pattern on the shape against it realizes the condition on
    ``(shifted x)|_F``."""
    return list(zip(*(group.mul[f] for f in shape))) if shape else [()] * group.order


def _by_last(n: int, windows, forbidden, k: int) -> list[list[tuple[int, ...]]]:
    """For each cell p, the windows whose last cell is p: both sweeps
    check a window when they set its last cell.  The empty window is
    checked at the first cell, so forbidding it kills all.  Refuses
    (:class:`InputError`) n or k below 1, a cell outside 0..n-1, a symbol
    outside 0..k-1, and words not as long as every window's distinct cells."""
    if not (type(n) is type(k) is int and n >= 1 and k >= 1):
        raise InputError(f"a hypergraph needs n, k >= 1 cells and symbols, not {n!r}, {k!r}")
    cells, symbols = set().union(*windows), set().union(*forbidden)
    if not {int}.issuperset(map(type, chain(*windows, *forbidden))):
        raise InputError("window cells and forbidden symbols must be integers")
    if cells and not (0 <= min(cells) and max(cells) < n):
        raise InputError(f"a window reads a cell outside 0..{n - 1}")
    if symbols and not (0 <= min(symbols) and max(symbols) < k):
        raise InputError(f"a forbidden word holds a symbol outside 0..{k - 1}")
    if forbidden and len({*map(len, windows), *map(len, map(set, windows)),
                          *map(len, forbidden)}) > 1:
        raise InputError("every window must read as many distinct cells as a word has symbols")
    by_last = [[] for _ in range(n)]
    for cells in windows:
        by_last[max(cells, default=0)].append(cells)
    return by_last


def enumerate_hypergraph(n: int, windows, forbidden, k: int,
                         budget: int = DEFAULT_CANDIDATE_BUDGET) -> frozenset:
    """The configurations of :func:`frontier_count`'s hypergraph, by its
    sweep with no cell leaving the state: the layer after cell p holds the
    prefixes on cells 0..p that no window ending by p forbids.  ``budget``
    bounds the nodes visited, one per symbol tried on a prefix; a layer
    that would pass it is refused before it starts (:class:`ResourceError`)."""
    by_last = _by_last(n, windows, forbidden, k)  # refuses a k that range() cannot take
    symbols = [(s,) for s in range(k)]
    layer, nodes = [()], 0
    for closing in by_last:
        checks = [picker(cells) for cells in closing]
        one = checks[0] if len(checks) == 1 else None  # most cells close one window
        nodes += k * len(layer)
        if nodes > budget:  # the symbols of some prefix of this layer would pass it
            raise ResourceError(f"SFT enumeration stopped after {budget} nodes (budget {budget})")
        nxt = []
        append = nxt.append
        while layer:  # the old layer shrinks as the new one grows
            prefix = layer.pop()
            if one:
                for s in symbols:
                    full = prefix + s
                    if one(full) not in forbidden:
                        append(full)
            else:
                for s in symbols:
                    full = prefix + s
                    for check in checks:
                        if check(full) in forbidden:
                            break
                    else:
                        append(full)
        layer = nxt
    return frozenset(layer)


def enumerate_sft(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> ShiftSpace:
    """The spec's SFT: :func:`enumerate_hypergraph` on the whole group's
    windows (``budget`` bounds its nodes)."""
    g, words = spec.group, {w.symbols for w in spec.forbidden}
    configs = enumerate_hypergraph(g.order, _windows(g, spec.forbidden_shape), words,
                                   spec.alphabet.size, budget)
    return ShiftSpace(g, spec.alphabet, configs)


def project(y: ShiftSpace, cells) -> set[tuple]:
    """The symbols each configuration of ``y`` carries on ``cells``, in the
    order given: the language of ``y`` on that shape, as symbol tuples."""
    cells = tuple(cells)
    if any(not 0 <= c < y.group.order for c in cells):
        raise InputError("shape contains indices outside the group")
    return set(map(picker(cells), y.configs))


def frontier_count(n: int, windows, forbidden, k: int,
                   budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Number of configurations on cells 0..n-1 over ``k`` symbols in which
    no window reads a word of ``forbidden``, a set of symbol tuples.

    A frontier dynamic program over the cells, the general form of the
    transfer-matrix trace (Lind and Marcus, *An Introduction to Symbolic
    Dynamics and Coding*, ch. 4).  After cell p is set, a state is the
    symbols on the cells some window ending after p still reads, packed in
    one int, and carries the number of partial assignments that reach it.
    Each cell in the state owns a slot of ``(k-1).bit_length()`` bits, the
    lowest one freed by a cell that left the state after the last window
    reading it; each window is a mask and a set of packed words.
    ``budget`` bounds the number of states visited; a
    :class:`ResourceError` reports how many were.
    """
    by_last = _by_last(n, windows, forbidden, k)
    if not forbidden:
        return k ** n
    # a cell leaves the state after the last window that reads it, as
    # windows come in end order; a cell that no window reads leaves at once
    last_read = {c: end for end, closing in enumerate(by_last) for w in closing for c in w}
    leaving = [[] for _ in by_last]
    for c in range(n):
        leaving[last_read.get(c, c)].append(c)
    top = (1 << (k - 1).bit_length()) - 1  # the mask of the slot at offset 0
    offset = {}  # the cells a state holds -> the bit offset of their slot
    free = []  # the offsets that cells leaving the state freed
    keep = 0  # the mask of the slots that cells in the state own
    layer = {0: 1}  # packed frontier symbols -> number of partial assignments
    visited = 1
    for p, closing in enumerate(by_last):
        offset[p] = o = free.pop(free.index(min(free))) if free else len(offset) * top.bit_length()
        keep |= top << o
        symbols = [s << o for s in range(k)]
        checks = []  # per window, the mask of its slots and its forbidden words packed
        for w in closing:
            shifts = [offset[c] for c in w]
            checks.append((sum(map(top.__lshift__, shifts)),
                           {sum(map(lshift, word, shifts)) for word in forbidden}))
        one = checks[0] if len(checks) == 1 else None
        for c in leaving[p]:
            free.append(offset.pop(c))
            keep ^= top << free[-1]
        nxt = {}
        get = nxt.get
        for state, ways in layer.items():
            if one:
                mask, bad = one
                for s in symbols:
                    full = state | s
                    if full & mask not in bad:
                        key = full & keep
                        nxt[key] = get(key, 0) + ways
            else:
                for s in symbols:
                    full = state | s
                    for mask, bad in checks:
                        if full & mask in bad:
                            break
                    else:
                        key = full & keep
                        nxt[key] = get(key, 0) + ways
            if visited + len(nxt) > budget:
                raise ResourceError(f"SFT count stopped after {visited + len(nxt)} states "
                                    f"(budget {budget})")
        visited += len(nxt)
        layer = nxt
    return layer.get(0, 0)


def shape_base(spec: SftSpec, within=()) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The subgroup L = <within ∪ F·f0^-1> that the spec's shape F spans,
    and the windows of F inside it; f0 is the least shape cell.

    The window F·g is the window of F·f0^-1 at f0·g, inside the right coset
    L·f0·g, so it lies inside L exactly when f0·g does, and the spec's SFT
    X on G is the free extension of X_L, read on those windows: |X| =
    |X_L|^[G:L].  Returns ``(embed, windows)``: cell i of L is the element
    ``embed[i]`` of G, in sorted order, and ``windows[i]`` is the window
    F·f0^-1·embed[i] on L's cells, in the shape's order, so the spec's
    forbidden words apply to it unchanged."""
    g = spec.group
    shape = spec.forbidden_shape
    offsets = [g.mul[f][g.inv[shape[0]]] for f in shape]
    embed = generated_subgroup(g, [*within, *offsets]).members
    cell = dict(zip(embed, range(len(embed)))).__getitem__
    read = picker(embed)  # row a read at L's members: a·l for each l
    rows = [map(cell, read(g.mul[a])) for a in offsets]
    return embed, list(zip(*rows)) if rows else [()] * len(embed)


def count_sft(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Number of configurations of the spec's SFT, without listing them:
    :func:`frontier_count` on the windows inside the subgroup L the shape
    spans, raised to the index [G:L] (:func:`shape_base`).  ``budget``
    bounds the states visited on L."""
    embed, windows = shape_base(spec)
    words = {w.symbols for w in spec.forbidden}
    count = frontier_count(len(embed), windows, words, spec.alphabet.size, budget)
    return count ** (spec.group.order // len(embed))


def enumerate_sft_naive(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> ShiftSpace:
    """Brute-force oracle: filter all |A|^|G| configurations directly."""
    n = spec.group.order
    k = spec.alphabet.size
    if k ** n > budget:
        raise ResourceError(
            f"search space {k}^{n} exceeds the candidate budget {budget}"
        )
    forbidden = {w.symbols for w in spec.forbidden}
    windows = [picker(cells) for cells in _windows(spec.group, spec.forbidden_shape)]
    keep = []
    for config in iproduct(range(k), repeat=n):
        if all(window(config) not in forbidden for window in windows):
            keep.append(config)
    return ShiftSpace(spec.group, spec.alphabet, frozenset(keep))


def spec_from_space(y: ShiftSpace, f) -> SftSpec:
    """Present ``y`` by forbidding exactly the non-occurring f-patterns."""
    f = tuple(sorted(set(f)))
    lang = project(y, f)
    forbidden = frozenset(
        Pattern(y.group, f, sym)
        for sym in iproduct(range(y.alphabet.size), repeat=len(f))
        if sym not in lang
    )
    return SftSpec(y.group, y.alphabet, f, forbidden)


def orbits(y: ShiftSpace) -> list[frozenset]:
    """Partition of the configurations into shift orbits, sorted by their
    least member: the least configuration no earlier orbit holds starts
    the next one."""
    shifts = [picker(column) for column in zip(*y.group.mul)]
    parts, seen = [], set()
    for x in sorted(y.configs):
        if x not in seen:
            parts.append(orb := frozenset([shift(x) for shift in shifts]))
            seen |= orb
    return parts


def shift_permutations(y: ShiftSpace) -> list[tuple[int, ...]]:
    """Each shift map, by group element, as a permutation of the indices of
    the sorted configurations."""
    configs = sorted(y.configs)
    pos = {c: i for i, c in enumerate(configs)}.__getitem__
    return [tuple(map(pos, map(picker(column), configs))) for column in zip(*y.group.mul)]


class BlockMap(Record):
    """A local rule, fields ``domain``, ``window``, ``table`` and
    ``target_alphabet``: ``table`` maps a symbol tuple (aligned with the
    window, cells of the domain's group stored sorted, without repeats) to
    a target symbol index.
    """

    __slots__ = ("domain", "window", "table", "target_alphabet")

    def __init__(self, domain: ShiftSpace, window: tuple[int, ...], table: dict,
                 target_alphabet: Alphabet):
        window = _group_cells(domain.group, window, "block map window")
        super().__init__(domain, window, table, target_alphabet)


def apply_block_code(x: ShiftSpace, b: BlockMap) -> ShiftSpace:
    """Image of ``x`` under the code induced by the local rule.

    Output symbol at g is the rule applied to the window of the g-shifted
    configuration, i.e. to the cells ``f*g`` for f in the window.
    """
    if b.domain != x:
        raise InputError("block map domain does not match the space")
    windows = [picker(cells) for cells in _windows(x.group, b.window)]
    images = set()
    for config in x.configs:
        out = []
        for window in windows:
            key = window(config)
            if key not in b.table:
                raise ValidationError(
                    f"window pattern {key} missing from the block map table"
                )
            out.append(b.table[key])
        images.add(tuple(out))
    return ShiftSpace(x.group, b.target_alphabet, frozenset(images))
