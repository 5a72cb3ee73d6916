"""Finite groups, subgroups and subgroup towers.

Groups are explicit multiplication tables over element indices ``0..n-1``.
Countable locally finite groups are modeled at desk scale by towers of
finite groups connected by injective homomorphisms.
"""

from __future__ import annotations

from itertools import repeat

from .errors import DEFAULT_CANDIDATE_BUDGET, InputError, Record, ResourceError, ValidationError


class FiniteGroup(Record):
    """An explicit finite group: it is its table, so two groups with the
    same table are equal.

    ``mul[a][b]`` is the element index of the product ``a * b``.  Instances
    are immutable records (:class:`errors.Record`) and hash their table
    once, when first hashed, since every pattern hashes its group;
    :func:`from_table` validates tables from outside.
    """

    __slots__ = ("mul", "identity", "inv", "_hash")

    def __init__(self, mul: tuple[tuple[int, ...], ...], identity: int, inv: tuple[int, ...]):
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "_hash", None)

    def __hash__(self):
        if self._hash is None:  # the first hash of this group
            object.__setattr__(self, "_hash", hash(self._key(self)))
        return self._hash

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def from_table(table) -> FiniteGroup:
    """Build and validate a group from an explicit multiplication table.

    Raises :class:`ValidationError` naming the first violated group law:
    closure, identity, inverse, then associativity.  Associativity is
    exact at every order, by Light's test on a generating set: the elements
    ``s`` with ``(x*s)*y == x*(s*y)`` for all ``x, y`` are closed under
    products, so the table is associative when every generator passes
    (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2).
    That costs n^2 per generator and at most log2(n) generators.
    """
    n = len(table)
    if n == 0:
        raise ValidationError("empty table: a group needs at least one element")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        if not (all(map(isinstance, row, repeat(int))) and min(row) >= 0 and max(row) < n):
            j, v = next(
                (j, v) for j, v in enumerate(row) if not (isinstance(v, int) and 0 <= v < n)
            )
            raise ValidationError(
                f"closure violated: entry ({i},{j}) = {v!r} is not an "
                f"element index in [0,{n})"
            )
        rows.append(row)
    mul = tuple(rows)

    neutral = tuple(range(n))
    e = next(
        (e for e in range(n)
         if mul[e] == neutral and tuple(row[e] for row in mul) == neutral),
        None,
    )
    if e is None:
        raise ValidationError("no identity: no element acts neutrally on both sides")

    inv = []
    for a, row in enumerate(mul):
        b = row.index(e) if e in row else None
        if b is None or mul[b][a] != e:
            # a row that is not a permutation may hold e more than once
            b = next((b for b in range(n) if row[b] == e and mul[b][a] == e), None)
            if b is None:
                raise ValidationError(f"no inverse: element {a} has no two-sided inverse")
        inv.append(b)

    group = FiniteGroup(mul, e, tuple(inv))
    for s in _generators(group):
        srow = mul[s]
        for x, row in enumerate(mul):
            if mul[row[s]] != tuple(map(row.__getitem__, srow)):
                y = next(y for y in range(n) if mul[row[s]][y] != row[srow[y]])
                raise ValidationError(
                    f"non-associative: ({x}*{s})*{y} != {x}*({s}*{y})"
                )
    return group


def _table_fits(kind, n):
    if n * n > DEFAULT_CANDIDATE_BUDGET:
        raise ResourceError(f"{kind} group of order {n} needs {n * n} table entries "
                            f"(limit {DEFAULT_CANDIDATE_BUDGET})")


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order ``n`` (addition mod n), a group by
    construction: not validated, with identity 0 and inverses ``-a mod n``.
    A table over ``DEFAULT_CANDIDATE_BUDGET`` entries is refused before any
    is built."""
    if n < 1:
        raise InputError(f"cyclic group order must be >= 1, got {n}")
    _table_fits("cyclic", n)
    twice = tuple(range(n)) * 2
    mul = tuple(twice[a : a + n] for a in range(n))  # row a is 0..n-1 rotated by a
    inv = tuple(-a % n for a in range(n))
    return FiniteGroup(mul, 0, inv)


def product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with mixed-radix index encoding: index = i + |g1|*j.
    Not validated; identity and inverses are the factors', componentwise.
    A table over ``DEFAULT_CANDIDATE_BUDGET`` entries is refused before any
    is built."""
    n1 = g1.order
    _table_fits("product", n1 * g2.order)
    mul = tuple([
        tuple([k + n1 * l for l in row2 for k in row1])
        for row2 in g2.mul
        for row1 in g1.mul
    ])
    inv = tuple([i + n1 * j for j in g2.inv for i in g1.inv])
    return FiniteGroup(mul, g1.identity + n1 * g2.identity, inv)


class Subgroup(Record):
    """A subgroup given by its sorted member indices inside a parent group."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as a standalone group plus its embedding.

        Returns ``(group, embed)`` where ``embed[i]`` is the parent index of
        standalone element ``i``.  Standalone indices follow the sorted
        member order.  Closure is the only law checked: a nonempty finite
        subset closed under products is a subgroup.
        """
        members, parent = self.members, self.parent
        pos = {m: i for i, m in enumerate(members)}
        try:
            mul = tuple(
                tuple(pos[parent.mul[a][b]] for b in members) for a in members
            )
            identity = pos[parent.identity]
        except KeyError:
            raise InputError("member set is not closed under the group laws") from None
        inv = tuple(pos[parent.inv[m]] for m in members)
        return FiniteGroup(mul, identity, inv), members


def _close_under(parent: FiniteGroup, gens) -> tuple[int, ...]:
    """The subgroup generated by ``gens``: everything reachable from the
    identity by right multiplication with generators.  In a finite group
    every inverse is a positive power, so products alone close it."""
    seen = {parent.identity}
    frontier = [parent.identity]
    while frontier:
        row = parent.mul[frontier.pop()]
        for a in gens:
            c = row[a]
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return tuple(sorted(seen))


def _generators(g: FiniteGroup) -> list[int]:
    """A generating set of ``g``: each new generator is the least element
    outside the closure of the ones before.  In a group that closure is the
    subgroup they generate, which each new generator at least doubles, so
    there are at most log2(n) of them."""
    gens, span = [], {g.identity}
    for s in g.elements():
        if s not in span:
            gens.append(s)
            span = set(_close_under(g, gens))
    return gens


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup of ``g`` containing ``gens`` (worklist closure)."""
    gens = set(gens)
    for a in gens:
        if not (isinstance(a, int) and 0 <= a < g.order):
            raise InputError(f"generator {a!r} is not an element index of the group")
    return Subgroup(g, _close_under(g, gens))


def subgroups_and_closures(
    g: FiniteGroup, budget: int = DEFAULT_CANDIDATE_BUDGET
) -> tuple[list[Subgroup], int]:
    """Every subgroup of ``g``, sorted by order and then by members, and
    the number of closures it took.

    Cyclic extension (Neubüser; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, ch. 8): every subgroup is a join of cyclic
    subgroups, so closing each newly found subgroup together with each
    cyclic subgroup it does not contain reaches them all.  ``budget``
    bounds the number of closures; a :class:`ResourceError` reports how
    many were done when it ran out.
    """
    closures = 0

    def close(gens):
        nonlocal closures
        if closures >= budget:
            raise ResourceError(
                f"subgroup enumeration stopped after {closures} closures "
                f"(budget {budget})"
            )
        closures += 1
        return _close_under(g, gens)

    found = {}  # subgroup members -> generators it was closed from
    cyclics = {}  # cyclic subgroup -> one generator of it
    for a in g.elements():
        cyclics.setdefault(close((a,)), a)
    found.update((members, (a,)) for members, a in cyclics.items())
    frontier = list(found)
    while frontier:
        members = frontier.pop()
        inside, gens = set(members), found[members]
        for a in cyclics.values():
            if a not in inside:
                joined = close(gens + (a,))
                if joined not in found:
                    found[joined] = gens + (a,)
                    frontier.append(joined)
    return [Subgroup(g, m) for m in sorted(found, key=lambda m: (len(m), m))], closures


class GroupTower(Record):
    """A chain of finite groups with injective connecting homomorphisms.

    ``embeddings[i]`` maps element indices of ``levels[i]`` into
    ``levels[i+1]``.
    """

    __slots__ = ("levels", "embeddings")

    def __init__(self, levels: tuple[FiniteGroup, ...], embeddings: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "embeddings", embeddings)

    def embed_up(self, i: int, j: int) -> tuple[int, ...]:
        """The composed embedding of level ``i`` into level ``j >= i``."""
        if not (0 <= i <= j < len(self.levels)):
            raise InputError(f"invalid tower levels {i} -> {j}")
        emb = tuple(range(self.levels[i].order))
        for k in range(i, j):
            step = self.embeddings[k]
            emb = tuple(step[a] for a in emb)
        return emb


def check_embedding(levels, i: int, emb) -> None:
    """Check that ``emb`` is an injective homomorphism from ``levels[i]``
    into ``levels[i + 1]``.

    A map with ``emb(e) = e`` and ``emb(a*s) = emb(a)*emb(s)`` for every
    ``a`` and each generator ``s`` is a homomorphism, since every element
    of a finite group is a product of generators.
    """
    lo, hi = levels[i], levels[i + 1]
    if hi.order % lo.order != 0:
        raise ValidationError(
            f"level {i} order {lo.order} does not divide level {i+1} "
            f"order {hi.order}"
        )
    if len(emb) != lo.order:
        raise ValidationError(
            f"embedding must be total: got {len(emb)} entries for order {lo.order}"
        )
    if len(set(emb)) != len(emb):
        dup = next(a for a in emb if list(emb).count(a) > 1)
        raise ValidationError(f"embedding is not injective: image {dup} repeated")
    for a in emb:
        if not (0 <= a < hi.order):
            raise ValidationError(f"embedding image {a} outside the larger group")
    e = lo.identity
    if emb[e] != hi.identity:
        raise ValidationError(f"not a homomorphism: witness pair ({e},{e})")
    for s in _generators(lo):
        es = emb[s]
        for a in range(lo.order):
            if emb[lo.mul[a][s]] != hi.mul[emb[a]][es]:
                raise ValidationError(
                    f"not a homomorphism: witness pair ({a},{s})"
                )


def build_tower(levels, embeddings) -> GroupTower:
    """Validate and assemble a tower from groups and index maps."""
    levels = tuple(levels)
    embeddings = tuple(tuple(e) for e in embeddings)
    if len(embeddings) != max(len(levels) - 1, 0):
        raise InputError(
            f"{len(levels)} levels need {len(levels) - 1} embeddings, "
            f"got {len(embeddings)}"
        )
    for i, emb in enumerate(embeddings):
        check_embedding(levels, i, emb)
    return GroupTower(levels, embeddings)


def z2_power_tower(depth: int) -> GroupTower:
    """The tower Z/2 -> (Z/2)^2 -> ... -> (Z/2)^depth by coordinate inclusion."""
    levels = [cyclic(2)]
    for _ in range(depth - 1):
        levels.append(product(levels[-1], cyclic(2)))
    embeddings = [tuple(range(levels[i].order)) for i in range(depth - 1)]
    return build_tower(levels, embeddings)
