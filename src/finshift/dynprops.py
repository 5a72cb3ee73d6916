"""Dynamical properties of shift spaces on a finite group.

Entropy on a finite group is log(#configs)/|group| and is kept exact as an
integer pair, ordered by big-integer cross powers and compared for equality
by its canonical form, never by floats.  It is counted from the spec, and it
alone settles zero entropy, entropy minimality and the measure of maximal
entropy.  Strong irreducibility is decided on one table of projection
counts per enumerated space, for a spec on the subgroup its shape spans;
automorphisms and measures work on enumerated spaces.
Measures are exact rationals until a final logarithm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, InputError, Record, ResourceError
from .groups import GroupTower, Subgroup, subgroups_and_closures
from .patterns import Pattern, picker
from .shiftspace import (
    DEFAULT_CANDIDATE_BUDGET,
    SftSpec,
    ShiftSpace,
    count_sft,
    enumerate_hypergraph,
    orbits,
    shape_base,
    shift_permutations,
)


def _int_root(n: int, d: int):
    """Exact d-th root of n >= 1, or None if n is not a perfect d-th power."""
    lo, hi = 1, 1 << (n.bit_length() // d + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** d < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** d == n else None


class EntropyValue(Record):
    """Exact entropy log(count)/denom, fields ``count``, ``denom``, reduced.

    Canonicalization strips perfect powers whose exponent divides the
    denominator, so equal values have equal forms and ``==`` is exact:
    n1^m2 == n2^m1 makes n1 = r^a and n2 = r^b with a/b = m1/m2 in lowest
    terms, and a canonical form has a = b = 1.  log(1)/m becomes log(1)/1.
    """

    __slots__ = ("count", "denom")

    def __init__(self, count: int, denom: int):
        n, m = count, denom
        if not (type(n) is type(m) is int and n >= 1 and m >= 1):
            raise InputError("entropy parameters must be positive integers")
        # take the root for the largest d dividing m with n a perfect d-th
        # power (n = 1 gives d = m); were the root a perfect e-th power for
        # some e dividing m/d, d*e would be larger
        for d in range(m, 1, -1):
            if m % d == 0 and (r := _int_root(n, d)) is not None:
                n, m = r, m // d
                break
        super().__init__(n, m)

    def is_zero(self) -> bool:
        return self.count == 1

    # log(n1)/m1 <= log(n2)/m2  iff  n1^m2 <= n2^m1, exactly; Python
    # answers >= and > by reflecting these, and any other type by TypeError
    def __le__(self, other):
        if not isinstance(other, EntropyValue):
            return NotImplemented
        return self.count ** other.denom <= other.count ** self.denom

    def __lt__(self, other):
        if not isinstance(other, EntropyValue):
            return NotImplemented
        return self.count ** other.denom < other.count ** self.denom

    def __float__(self):
        return math.log(self.count) / self.denom

    def __str__(self):
        return f"log({self.count})/{self.denom}"


def count_entropy(count: int, order: int) -> EntropyValue:
    """Exact entropy log(count)/order of a shift with ``count`` points on a
    group of that order; the empty shift has none."""
    if count == 0:
        raise DomainError("entropy of the empty shift space is undefined")
    return EntropyValue(count, order)


def entropy(y: ShiftSpace) -> EntropyValue:
    """Exact topological entropy of a nonempty shift on a finite group."""
    return count_entropy(len(y.configs), y.group.order)


def spec_entropy(spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET) -> EntropyValue:
    """Exact entropy of the spec's SFT, counted by :func:`count_sft`
    without enumerating it."""
    return count_entropy(count_sft(spec, budget=budget), spec.group.order)


def entropy_set(
    tower: GroupTower,
    max_level: int,
    max_n: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> set[EntropyValue]:
    """All values log(n)/|H| for subgroups H of the tower levels up to
    ``max_level`` and n <= max_n.

    Each level embeds in the next by an injective homomorphism, checked
    when the tower is built, so a subgroup of a lower level maps onto a
    subgroup of the same order on every level above: only the subgroups of
    the top level, ``tower.levels[max_level - 1]``, are closed.  ``budget``
    bounds those closures plus the max_n·|orders| values, and the values
    are refused before any is built.
    """
    if max_level < 1 or max_level > len(tower.levels):
        raise InputError(f"max_level must be in [1, {len(tower.levels)}]")
    if max_n < 1:
        raise InputError("max_n must be >= 1")
    subs, closures = subgroups_and_closures(tower.levels[max_level - 1], budget=budget)
    orders = {sub.order for sub in subs}
    if closures + max_n * len(orders) > budget:
        raise ResourceError(
            f"entropy set needs {max_n * len(orders)} values after {closures} "
            f"subgroup closures (budget {budget})"
        )
    return {EntropyValue(n, m) for n in range(1, max_n + 1) for m in orders}


class SiVerdict(Record):
    """A strong-irreducibility verdict, fields ``ok`` and ``counterexample``."""

    __slots__ = ("ok", "counterexample")

    def __init__(self, ok: bool, counterexample: tuple[Pattern, Pattern] | None = None):
        super().__init__(ok, counterexample)


def _packed_table(y: ShiftSpace):
    """The counts |π_S(Y)| for every shape S ⊆ G, indexed by bitmask (bit g
    stands for element g), from Y packed into integers.

    Each configuration is one integer, b = max(1, ⌈log2 |A|⌉) bits per cell
    and element 0 in the highest bits, so that the integers sort as the
    symbol tuples do; S's mask keeps the bits of S's cells.  The shapes go
    from G down.  The parent of S adds the lowest cell S lacks, so it comes
    first, and the values under S's mask are its parent's values under that
    mask: a count costs a pass over its parent's values, not over Y.  A parent's
    values are dropped after its last child, so at most |G| sets are held
    at a time.  Returns ``(bits, packed, masks, counts)``.
    """
    n, full = y.group.order, (1 << y.group.order) - 1
    bits = max(1, (y.alphabet.size - 1).bit_length())
    packed = []
    for c in y.configs:
        word = 0
        for s in c:
            word = word << bits | s
        packed.append(word)
    cells = [((1 << bits) - 1) << (n - 1 - g) * bits for g in range(n)]
    masks, counts = [0] * (full + 1), [min(1, len(packed))] * (full + 1)
    masks[full] = sum(cells)
    held = {full: set(packed)}  # the values of each shape with children to come
    counts[full] = len(packed)
    for s in range(full - 1, 0, -1):
        lacks = ~s & (s + 1)
        parent = s | lacks
        masks[s] = mask = masks[parent] ^ cells[lacks.bit_length() - 1]
        values = set(map(mask.__and__, held[parent]))
        counts[s] = len(values)
        if not parent & lacks << 1:  # the parent's last child
            del held[parent]
        if s & 1:
            held[s] = values
    return bits, packed, masks, counts


def _si_test(y: ShiftSpace, budget: int):
    """The test of witness sets K on one table of :func:`_packed_table`.

    SI is monotone in U, so only U = G ∖ K·V matters for each V; there the
    U- and V-patterns that occur together are the patterns on U ∪ V (U and
    V overlap when e is not in K).  So K works exactly when
    |π_{U∪V}(Y)| = |π_U(Y)|·|π_V(Y)| for every V.  Returns the test, which
    gives the bitmasks (U, V) of the first failing V, ascending, or None,
    and the failing verdict for such (U, V): the least pair, sorted by
    symbols, of patterns on U and V that never occur together.
    ``budget`` bounds the projections, one per shape S, plus the product
    tests: the 2^|G| projections are charged before the table is built,
    and each K's product tests up to what is left.
    """
    n, mul, full = y.group.order, y.group.mul, (1 << y.group.order) - 1
    used = [0, 0]  # projections, product tests

    def refuse():
        raise ResourceError(f"SI check stopped after {used[0]} projections "
                            f"and {used[1]} product tests (budget {budget})")

    if full >= budget:
        used[0] = budget
        refuse()
    bits, packed, masks, counts = _packed_table(y)
    used[0] = full + 1
    kv = [0] * (full + 1)  # kv[V] is the bitmask of K·V, set before it is read
    bit_rows = [[1 << c for c in row] for row in mul]

    def test(k):
        # k_times[f] is the bitmask of K·f, whose elements a·f are distinct
        k_times = list(map(sum, zip(*(bit_rows[a] for a in k)))) or [0] * n
        room = min(full, budget - used[0] - used[1])
        for v in range(1, room + 1):
            low = v & -v
            kv[v] = kv[v ^ low] | k_times[low.bit_length() - 1]
            u = full ^ kv[v]
            if counts[u | v] != counts[u] * counts[v]:
                used[1] += v
                return u, v
        used[1] += room
        if room < full:
            refuse()
        return None

    def pattern(m, word):
        shape = tuple(g for g in range(n) if m >> g & 1)
        symbols = tuple(word >> (n - 1 - g) * bits & (1 << bits) - 1 for g in shape)
        return Pattern(y.group, shape, symbols)

    def counterexample(u, v):
        joint = {(p & masks[u], p & masks[v]) for p in packed}
        lang_u, lang_v = sorted({a for a, _ in joint}), sorted({b for _, b in joint})
        a, b = next((a, b) for a in lang_u for b in lang_v if (a, b) not in joint)
        return SiVerdict(False, (pattern(u, a), pattern(v, b)))

    return test, counterexample


def _witness_sets(group, witness_sets) -> list[set]:
    """Each witness set as a set, refused if it names a non-element."""
    sets, elements = [set(k) for k in witness_sets], set(group.elements())
    for k in sets:
        if not k <= elements:
            raise InputError(f"{min(k - elements)} is not an element index")
    return sets


def si_verdicts(
    y: ShiftSpace, witness_sets, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[SiVerdict]:
    """For each witness set K, whether any language patterns u on U and v on
    V, with U disjoint from K·V, occur together in some configuration, all
    from one table of :func:`_si_test`; a failure carries the least pair of
    patterns that never occur together on the first failing U and V."""
    sets = _witness_sets(y.group, witness_sets)
    test, counterexample = _si_test(y, budget)
    return [SiVerdict(True) if (f := test(k)) is None else counterexample(*f) for k in sets]


def minimal_si_witnesses(
    y: ShiftSpace, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[tuple[int, ...]]:
    """The inclusion-minimal witness sets K, by size, then lexicographically,
    on one table of :func:`_si_test`; supersets of a witness are skipped."""
    (test, _), good = _si_test(y, budget), []
    for r in range(y.group.order + 1):
        for k in combinations(y.group.elements(), r):
            if not any(set(m) <= set(k) for m in good) and test(k) is None:
                good.append(k)
    return good


def _on_shape_base(spec: SftSpec, budget: int) -> tuple[tuple[int, ...], ShiftSpace]:
    """L's members and X_L, as a space on L's table (:func:`shape_base`)."""
    embed, windows = shape_base(spec)
    words = {w.symbols for w in spec.forbidden}
    configs = enumerate_hypergraph(len(embed), windows, words, spec.alphabet.size, budget)
    return embed, ShiftSpace(Subgroup(spec.group, embed).as_group()[0], spec.alphabet, configs)


def spec_si_verdicts(
    spec: SftSpec, witness_sets, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[SiVerdict]:
    """:func:`si_verdicts` of the spec's SFT X on G, decided on X_L, the
    SFT enumerated on the subgroup L its shape spans (:func:`shape_base`).

    X is the free extension of X_L, so patterns on different right cosets
    of L are independent, and K is a witness set for X exactly when K ∩ L
    is one for X_L: for U and V inside L, K·V ∩ L = (K ∩ L)·V, and X read
    on L is X_L; U and V split by cosets otherwise, and witness sets are
    closed upward.  So elements of K outside L are dropped, and a
    counterexample on L, carried by the embedding, is one on G.  The
    elements are checked against G; ``budget`` bounds the enumeration of
    X_L in nodes and, apart from it, the 2^|L| projections plus product
    tests.
    """
    sets = _witness_sets(spec.group, witness_sets)
    embed, y = _on_shape_base(spec, budget)
    pos = {a: i for i, a in enumerate(embed)}
    verdicts = si_verdicts(y, [[pos[a] for a in k if a in pos] for k in sets], budget)
    carry = lambda w: Pattern(spec.group, tuple(embed[c] for c in w.shape), w.symbols)
    return [v if v.ok else SiVerdict(False, tuple(map(carry, v.counterexample)))
            for v in verdicts]


def spec_minimal_si_witnesses(
    spec: SftSpec, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[tuple[int, ...]]:
    """:func:`minimal_si_witnesses` of the spec's SFT X on G: those of X_L
    carried by the embedding, which keeps their order, since a minimal K
    lies inside L (see :func:`spec_si_verdicts`).  ``budget`` bounds the
    enumeration of X_L and, apart from it, the work on L's table."""
    embed, y = _on_shape_base(spec, budget)
    return [tuple(embed[a] for a in k) for k in minimal_si_witnesses(y, budget)]


class AutomorphismGroup(Record):
    """All self-conjugacies of ``space``, fields ``space``, ``elements`` and
    ``composition``: permutations of its sorted configurations, composed."""

    __slots__ = ("space", "elements", "composition")

    @property
    def order(self) -> int:
        return len(self.elements)


def automorphism_group(
    y: ShiftSpace, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> AutomorphismGroup:
    """All permutations of the configurations that commute with every shift
    map, by extension over orbit representatives.

    An equivariant bijection is fixed by where it sends one representative
    ``i`` per orbit, and ``i`` can go to exactly those ``j`` with the same
    stabilizer whose orbit no other representative took; then
    ``s_g[i] -> s_g[j]`` for every shift ``s_g`` (tom Dieck,
    *Transformation Groups*, §I.4).  Every partial choice completes, so the
    work grows with the group found.  ``budget`` bounds the partial choices
    built plus the order-squared entries of the composition table; the
    table is refused before it is built.
    """
    n = len(y.configs)
    shifts = shift_permutations(y)
    stabilizer = [
        frozenset(g for g, s in enumerate(shifts) if s[i] == i) for i in range(n)
    ]
    orbit_of = list(map(min, zip(*shifts)))
    reps = sorted(set(orbit_of))
    partial, choices = [()], 0  # images of the representatives chosen so far
    for i in reps:
        targets = [j for j in range(n) if stabilizer[j] == stabilizer[i]]
        grown = []
        for chosen in partial:
            used = {orbit_of[t] for t in chosen}
            for j in targets:
                if orbit_of[j] not in used:
                    if choices >= budget:
                        raise ResourceError(f"automorphism search stopped after {choices} "
                                            f"partial choices (budget {budget})")
                    choices += 1
                    grown.append(chosen + (j,))
        partial = grown
    order = len(partial)
    if choices + order ** 2 > budget:
        raise ResourceError(f"automorphism group of order {order} needs "
                            f"{order ** 2} table entries (budget {budget})")
    autos = []
    for chosen in partial:
        perm = [0] * n
        for i, j in zip(reps, chosen):
            for s in shifts:
                perm[s[i]] = s[j]
        autos.append(tuple(perm))
    autos.sort()
    index = {p: i for i, p in enumerate(autos)}.__getitem__
    # entry (p, q) is p after q, p read at q: column q maps q's picker over autos
    columns = [map(index, map(picker(q), autos)) for q in autos]
    return AutomorphismGroup(y, tuple(autos), tuple(zip(*columns)))


class InvariantMeasure(Record):
    """A shift-invariant probability vector, fields ``space`` and ``weights``.

    Weights are exact rationals keyed by configuration and must be constant
    on every orbit.
    """

    __slots__ = ("space", "weights")

    def __init__(self, space: ShiftSpace, weights: dict):
        total = sum(weights.values(), Fraction(0))
        if set(weights) != set(space.configs):
            raise InputError("weights must cover exactly the configurations")
        if any(w < 0 for w in weights.values()):
            raise InputError("weights must be non-negative")
        if total != 1:
            raise InputError(f"weights sum to {total}, expected 1")
        for orb in orbits(space):
            vals = {weights[c] for c in orb}
            if len(vals) != 1:
                raise InputError("measure is not constant on a shift orbit")
        super().__init__(space, weights)


def mme(y: ShiftSpace) -> InvariantMeasure:
    """The uniform measure, the unique measure of maximal entropy.

    An invariant measure is constant on each orbit ``o``, so it is fixed by
    its orbit masses ``m_o``, and its entropy is
    ``Σ m_o·log(|o|/m_o) / |G|`` over the orbits with ``m_o > 0``.  Since
    log is strictly concave, Gibbs' inequality gives
    ``Σ m_o·log(|o|/m_o) <= log Σ_{m_o > 0} |o| <= log |Y|``, with equality
    exactly when ``m_o = |o|/|Y|`` for every orbit.  The tests compare this
    with exact sweeps of the orbit-mass simplex.
    """
    if not y.configs:
        raise DomainError("the empty shift space carries no measure")
    w = Fraction(1, len(y.configs))
    return InvariantMeasure(y, {c: w for c in y.configs})


def measure_from_orbit_masses(y: ShiftSpace, masses) -> InvariantMeasure:
    """Spread one rational mass per orbit uniformly over that orbit."""
    parts = orbits(y)
    if len(masses) != len(parts):
        raise InputError(f"expected {len(parts)} orbit masses, got {len(masses)}")
    weights = {}
    for mass, orb in zip(masses, parts):
        share = Fraction(mass) / len(orb)
        for c in orb:
            weights[c] = share
    return InvariantMeasure(y, weights)


def measure_entropy(y: ShiftSpace, mu: InvariantMeasure) -> float:
    """-Σ w·log(w) over the configurations' weights, divided by |G|: on the
    whole group each configuration is its own cylinder.  Floats appear only
    in the log terms, and weights of zero are dropped (0·log 0 = 0)."""
    if mu.space != y:
        raise InputError("measure defined on a different space")
    return sum(-float(w) * math.log(w) for w in mu.weights.values() if w) / y.group.order
