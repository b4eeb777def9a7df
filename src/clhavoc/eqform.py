"""Separating conjunctions of equalities, represented as variable partitions.

The variable set is recorded explicitly: a variable may sit in a singleton
class, which carries no equality but still counts as occurring.  Transducer
states rely on that distinction, because a begin/end marker must stay visible
even after every variable it was equated with has been projected away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Container, Hashable, Iterable

if TYPE_CHECKING:
    from .logic import Var


class Partition:
    """Union-find over hashable items, with path halving (Tarjan 1975).

    Each item is interned to an integer slot the first time it is seen, so
    the find loop compares integers instead of hashing items.
    """

    __slots__ = ("index", "items", "parent")

    def __init__(self, items: Iterable[Hashable] = (),
                 pairs: Iterable[tuple[Hashable, Hashable]] = ()) -> None:
        self.index: dict[Hashable, int] = {}
        self.items: list[Hashable] = []
        self.parent: list[int] = []
        for v in items:
            self.find(v)
        for a, b in pairs:
            self.union(a, b)

    def find(self, v: Hashable) -> int:
        """Root slot of v's class; an unseen v becomes a singleton."""
        i = self.index.get(v)
        if i is None:
            i = self.index[v] = len(self.parent)
            self.items.append(v)
            self.parent.append(i)
            return i
        return self._root(i)

    def _root(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: Hashable, b: Hashable) -> None:
        """Merge the classes of a and b; a's root goes under b's."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def roots(self) -> dict[Hashable, int]:
        """Item -> root slot, items in first-seen order."""
        return {v: self._root(i) for i, v in enumerate(self.items)}

    def classes(self, among: Container[Hashable] | None = None) -> list[list[Hashable]]:
        """Classes in ascending root slot, members in first-seen order; with
        `among`, each class cut down to its members in `among`, and classes
        left empty dropped."""
        by_root: dict[int, list[Hashable]] = {}
        for i, v in enumerate(self.items):
            if among is None or v in among:
                by_root.setdefault(self._root(i), []).append(v)
        return [by_root[r] for r in sorted(by_root)]


@dataclass(frozen=True)
class EqFormula:
    """A partition of a finite variable set, closed under =-reasoning."""

    classes: frozenset[frozenset[Var]]

    def __post_init__(self) -> None:
        seen: set[Var] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class")
            if seen & cls:
                raise ValueError("classes overlap")
            seen |= cls

    @staticmethod
    def make(vars: Iterable[Var] = (), pairs: Iterable[tuple[Var, Var]] = ()) -> "EqFormula":
        """Partition generated by `pairs` over `vars` plus the pair variables."""
        return EqFormula(frozenset(frozenset(c) for c in Partition(vars, pairs).classes()))

    def render(self, var_text) -> str:
        parts = sorted("=".join(sorted(var_text(v) for v in cls)) for cls in self.classes)
        return "{" + " | ".join(parts) + "}"

