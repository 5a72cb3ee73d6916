"""Plain-data inputs shared by the workload generator and the oracles:
abelian groups in finshift's product encoding, SFT specs as written to
files, and subgroup towers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

@dataclass(frozen=True)
class Group:
    """Z/n1 x Z/n2 x ... with finshift's product encoding.

    Element ``i1 + n1*i2 + n1*n2*i3 + ...`` (first factor fastest), which is
    the index ``group product`` files give nested products.
    """

    moduli: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def name(self) -> str:
        if len(self.moduli) == 1:
            return f"z{self.moduli[0]}"
        return "g" + "x".join(str(m) for m in self.moduli)

    def digits(self, a: int) -> list[int]:
        out = []
        for m in self.moduli:
            out.append(a % m)
            a //= m
        return out

    def element(self, digits) -> int:
        a, scale = 0, 1
        for d, m in zip(digits, self.moduli):
            a += (d % m) * scale
            scale *= m
        return a

    def add(self, a: int, b: int) -> int:
        return self.element(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def file_text(self) -> str:
        if len(self.moduli) == 1:
            return f"group cyclic {self.moduli[0]}\n"
        left = Group(self.moduli[:-1])
        return f"group product {left.name}.grp z{self.moduli[-1]}.grp\n"

    def parts(self):
        """This group and every group its file refers to."""
        yield self
        if len(self.moduli) > 1:
            yield from Group(self.moduli[:-1]).parts()
            yield Group(self.moduli[-1:])


@dataclass(frozen=True)
class Spec:
    """An SFT spec as the benchmark writes it: cells in file order and
    forbidden symbol-index rows aligned with those cells."""

    group: Group
    symbols: tuple[str, ...]
    cells: tuple[int, ...]
    forbid: frozenset

    @property
    def k(self) -> int:
        return len(self.symbols)

    def file_text(self) -> str:
        lines = [
            "sft",
            f"group {self.group.name}.grp",
            "alphabet " + " ".join(self.symbols),
            "shape " + " ".join(str(c) for c in self.cells),
        ]
        for row in sorted(self.forbid):
            lines.append("forbid " + " ".join(self.symbols[s] for s in row))
        return "\n".join(lines) + "\n"

    def configs(self) -> set:
        """Brute-force configuration set; used only to choose catalogue
        entries on groups of order <= 6."""
        n = self.group.order
        windows = [
            tuple(self.group.add(c, g) for c in self.cells) for g in range(n)
        ]
        return {
            x
            for x in itertools.product(range(self.k), repeat=n)
            if all(tuple(x[c] for c in w) not in self.forbid for w in windows)
        }


@dataclass(frozen=True)
class Tower:
    """A chain of groups; ``scale[i]`` maps level i into level i+1 by
    multiplying the element index (2 for cyclic doubling, 1 for inclusion)."""

    name: str
    levels: tuple[Group, ...]
    scale: int

    def embed(self, i: int, j: int, a: int) -> int:
        return a * self.scale ** (j - i)

    def file_text(self) -> str:
        lines = ["tower"] + [f"level {g.name}.grp" for g in self.levels]
        for k, g in enumerate(self.levels[:-1]):
            pairs = " ".join(f"{a}->{a * self.scale}" for a in range(g.order))
            lines.append(f"embed {k} pairs {pairs}")
        return "\n".join(lines) + "\n"


CYCLIC_TOWER = Tower("cyc", tuple(Group((2 ** k,)) for k in range(1, 5)), 2)
E2_TOWERS = {d: Tower(f"e2_{d}", tuple(Group((2,) * k) for k in range(1, d + 1)), 1)
             for d in (2, 3, 4)}
