"""SFT specifications and fully enumerated shift spaces on finite groups.

An :class:`SftSpec` is declarative (forbidden patterns on a fixed shape);
a :class:`ShiftSpace` is the enumerated, shift-invariant set of
configurations.  One sweep sets the cells in index order and checks each
window at its last cell (:func:`_by_last`): :func:`enumerate_sft` keeps
whole prefixes, :func:`frontier_count` only the symbols later windows read.
:func:`count_sft` counts on the subgroup the shape spans
(:func:`shape_base`); the count on the whole group, the enumeration and a
naive filter over all configurations (:func:`enumerate_sft_naive`) are its
oracles.
:func:`project` reads the symbols that configurations carry on a shape,
which is how presentations and the other modules read a space's language.
"""

from __future__ import annotations

from itertools import product as iproduct
from operator import lshift

from .errors import DEFAULT_CANDIDATE_BUDGET, InputError, Record, ResourceError, ValidationError
from .groups import FiniteGroup, generated_subgroup
from .patterns import Alphabet, Pattern, picker


class SftSpec(Record):
    """Forbidden-pattern presentation of an SFT on a finite group; the
    shape is stored sorted, without repeats."""

    __slots__ = ("group", "alphabet", "forbidden_shape", "forbidden")

    def __init__(self, group: FiniteGroup, alphabet: Alphabet,
                 forbidden_shape: tuple[int, ...], forbidden: frozenset[Pattern]):
        shape = tuple(sorted(set(forbidden_shape)))
        if shape and not (0 <= shape[0] and shape[-1] < group.order):
            raise InputError("forbidden shape contains indices outside the group")
        k = alphabet.size
        for w in forbidden:
            if w.shape != shape:
                raise InputError("every forbidden pattern must live exactly on the spec shape")
            for s in w.symbols:
                if not 0 <= s < k:
                    raise InputError(f"forbidden symbol {s} is outside the alphabet of size {k}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "forbidden_shape", shape)
        object.__setattr__(self, "forbidden", forbidden)


class ShiftSpace(Record):
    """A shift-invariant set of full configurations (symbol tuples)."""

    __slots__ = ("group", "alphabet", "configs")

    def __init__(self, group: FiniteGroup, alphabet: Alphabet, configs: frozenset):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "configs", configs)

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
    """For each group element g, the cells read by the shape shifted by g.

    Cell k of window g is ``f_k * g``, column g of row f_k of the table, so
    that matching a pattern on the shape against the window realizes the
    condition on ``(shifted x)|_F``.
    """
    return list(zip(*(group.mul[f] for f in shape))) if shape else [()] * group.order


def _by_last(spec: SftSpec) -> list[list[tuple[int, ...]]]:
    """For each cell p, the windows of the spec's shape whose last cell is p:
    both sweeps check a window when they set its last cell.  The empty
    window is checked at the first cell, so forbidding it kills all."""
    by_last = [[] for _ in range(spec.group.order)]
    for cells in _windows(spec.group, spec.forbidden_shape):
        by_last[max(cells, default=0)].append(cells)
    return by_last


def enumerate_sft(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> ShiftSpace:
    """Enumerate the configurations avoiding every shifted forbidden pattern.

    The sweep of :func:`frontier_count` in which no cell leaves the state:
    the layer after cell p holds the prefixes on cells 0..p that no window
    ending by p forbids, and the last layer is the space.  ``budget``
    bounds the nodes visited, one per symbol tried on a prefix; a layer
    that would pass it is refused before it starts, by a
    :class:`ResourceError`.
    """
    k = spec.alphabet.size
    forbidden = {w.symbols for w in spec.forbidden}
    symbols = [(s,) for s in range(k)]
    layer = [()]
    nodes = 0
    for windows in _by_last(spec):
        checks = [picker(cells) for cells in windows]
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
    return ShiftSpace(spec.group, spec.alphabet, frozenset(layer))


def project(y: ShiftSpace, cells) -> set[tuple]:
    """The symbols each configuration of ``y`` carries on ``cells``, in the
    order given: the language of ``y`` on that shape, as symbol tuples."""
    cells = tuple(cells)
    if any(not 0 <= c < y.group.order for c in cells):
        raise InputError("shape contains indices outside the group")
    return set(map(picker(cells), y.configs))


def frontier_count(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Number of configurations of the spec's SFT, counted on the whole group.

    A frontier dynamic program over element indices ascending, the general
    form of the transfer-matrix trace (Lind and Marcus, *An Introduction to
    Symbolic Dynamics and Coding*, ch. 4).  After cell p is set, a state is
    the symbols on the cells some window ending after p still reads, packed
    in one int, and carries the number of partial assignments that reach
    it.  Each cell in the state owns a slot of ``(k-1).bit_length()`` bits,
    the lowest one freed by a cell that left the state after the last
    window reading it; each window is a mask and a set of packed words.
    ``budget`` bounds the number of states visited; a
    :class:`ResourceError` reports how many were.
    """
    n = spec.group.order
    k = spec.alphabet.size
    forbidden = {w.symbols for w in spec.forbidden}
    if not forbidden:
        return k ** n
    by_last = _by_last(spec)
    # a cell leaves the state after the last window that reads it, as
    # windows come in end order; a cell that no window reads leaves at once
    last_read = {c: end for end, windows in enumerate(by_last) for w in windows for c in w}
    leaving = [[] for _ in by_last]
    for c in range(n):
        leaving[last_read.get(c, c)].append(c)
    top = (1 << (k - 1).bit_length()) - 1  # the mask of the slot at offset 0
    offset = {}  # the cells a state holds -> the bit offset of their slot
    free = []  # the offsets that cells leaving the state freed
    keep = 0  # the mask of the slots that cells in the state own
    layer = {0: 1}  # packed frontier symbols -> number of partial assignments
    visited = 1
    for p, windows in enumerate(by_last):
        offset[p] = o = free.pop(free.index(min(free))) if free else len(offset) * top.bit_length()
        keep |= top << o
        symbols = [s << o for s in range(k)]
        checks = []  # per window, the mask of its slots and its forbidden words packed
        for w in windows:
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


def carry_spec(spec: SftSpec, group: FiniteGroup, cells) -> SftSpec:
    """The spec's forbidden words on ``group``, with shape cell k moved to
    ``cells[k]`` (distinct cells); the symbols are re-ordered to the sorted
    new shape."""
    sort = picker(sorted(range(len(cells)), key=cells.__getitem__))
    shape = sort(cells)
    forbidden = frozenset(Pattern(group, shape, sort(w.symbols)) for w in spec.forbidden)
    return SftSpec(group, spec.alphabet, shape, forbidden)


def shape_base(spec: SftSpec, within=()) -> tuple[tuple[int, ...], SftSpec]:
    """The subgroup L = <within ∪ F·f0^-1> that the spec's shape F spans,
    and the spec read on L; f0 is the least shape cell.

    The window F·g is the window of F·f0^-1 at f0·g, inside the right coset
    L·f0·g.  So the spec's SFT X on G is the free extension of the same
    forbidden words on L, and |X| = |X_L|^[G:L].  Returns ``(embed,
    base)``: ``embed[i]`` is the element of G that L's element i is, in
    sorted order, and ``base`` is the spec on L, its symbols re-ordered to
    the sorted shape (:func:`carry_spec`).  When L is all of G, ``base`` is
    the spec itself.
    """
    g = spec.group
    shape = spec.forbidden_shape
    offsets = [g.mul[f][g.inv[shape[0]]] for f in shape]
    sub = generated_subgroup(g, [*within, *offsets])
    if sub.order == g.order:
        return tuple(g.elements()), spec
    group, embed = sub.as_group()
    pos = {a: i for i, a in enumerate(embed)}
    return embed, carry_spec(spec, group, [pos[a] for a in offsets])


def count_sft(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> int:
    """Number of configurations of the spec's SFT, without listing them:
    :func:`frontier_count` on the subgroup L the shape spans, raised to the
    index [G:L] (:func:`shape_base`).  ``budget`` bounds the states visited
    on L."""
    embed, base = shape_base(spec)
    return frontier_count(base, budget=budget) ** (spec.group.order // len(embed))


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
    """A local rule: window patterns of the domain to target symbols.

    ``table`` maps a symbol tuple (aligned with the sorted window) to a
    target symbol index; the window is stored sorted, without repeats.
    """

    __slots__ = ("domain", "window", "table", "target_alphabet")

    def __init__(self, domain: ShiftSpace, window: tuple[int, ...], table: dict,
                 target_alphabet: Alphabet):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "window", tuple(sorted(set(window))))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "target_alphabet", target_alphabet)


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
