"""Concrete semantic model: behaviors, configurations, composition, step and havoc.

Components are drawn from a countably infinite universe, represented here by
plain strings.  A configuration keeps its state map as a finite table over a
declared carrier set; the carrier always covers the present components and
every component bound by an interaction, so steps are fully determined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping


class StateMapMismatch(ValueError):
    """Two configurations disagree on the state of a shared carrier id."""


class UnknownInteraction(ValueError):
    """Stepping through an interaction that is not part of the configuration."""


@dataclass(frozen=True)
class Behavior:
    """The finite-state machine replicated by every component.

    Transitions are (state, port, state) triples and may be nondeterministic.
    """

    ports: frozenset[str]
    states: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    # the sorted targets per (state, port), derived from transitions once;
    # not part of equality, hashing or repr
    moves: dict[tuple[str, str], tuple[str, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        moves: dict[tuple[str, str], list[str]] = {}
        for q, p, q2 in self.transitions:
            if p not in self.ports:
                raise ValueError(f"transition uses undeclared port {p!r}")
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition uses undeclared state {q!r} or {q2!r}")
            moves.setdefault((q, p), []).append(q2)
        object.__setattr__(self, "moves", {qp: tuple(sorted(ts)) for qp, ts in moves.items()})

    @staticmethod
    def make(ports: Iterable[str], states: Iterable[str],
             transitions: Iterable[tuple[str, str, str]]) -> "Behavior":
        return Behavior(frozenset(ports), frozenset(states),
                        frozenset(tuple(t) for t in transitions))

    def targets(self, state: str, port: str) -> tuple[str, ...]:
        """All states reachable from `state` by a transition labeled `port`,
        sorted."""
        return self.moves.get((state, port), ())


@dataclass(frozen=True)
class Interaction:
    """A joint synchronization binding ports of pairwise distinct components."""

    bindings: tuple[tuple[str, str], ...]
    # derived from bindings once; not part of equality, hashing or repr
    components: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # the ordered port sequence (the interaction type)
    itype: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.bindings:
            raise ValueError("interaction must bind at least one port")
        comps = tuple(c for c, _ in self.bindings)
        if len(set(comps)) != len(comps):
            raise ValueError(f"interaction components must be pairwise distinct: {list(comps)}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "itype", tuple(p for _, p in self.bindings))

    @staticmethod
    def make(*bindings: tuple[str, str]) -> "Interaction":
        return Interaction(tuple((c, p) for c, p in bindings))

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}.{p}" for c, p in self.bindings)
        return f"<{inner}>"


@dataclass(frozen=True)
class Configuration:
    """A snapshot: present components, interactions, and a finite state table.

    `state_pairs` is the sorted (id, state) table; its domain is the carrier,
    which must contain every present component and every id bound by an
    interaction.  Absent carrier ids model the store values of variables that
    denote deleted or not-yet-created components.
    """

    components: frozenset[str]
    interactions: frozenset[Interaction]
    state_pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        carrier = {c for c, _ in self.state_pairs}
        if len(carrier) != len(self.state_pairs):
            raise ValueError("state map assigns two states to one id")
        missing = (self.components | {c for i in self.interactions
                                      for c in i.components}) - carrier
        if missing:
            raise ValueError(f"state map undefined on {sorted(missing)}")

    @staticmethod
    def make(components: Iterable[str], interactions: Iterable[Interaction],
             state_map: Mapping[str, str]) -> "Configuration":
        return Configuration(frozenset(components), frozenset(interactions),
                             tuple(sorted(state_map.items())))

    @property
    def state_map(self) -> dict[str, str]:
        return dict(self.state_pairs)

    @property
    def carrier(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.state_pairs)

    def with_states(self, updates: Mapping[str, str]) -> "Configuration":
        rho = self.state_map
        rho.update(updates)
        return Configuration(self.components, self.interactions, tuple(sorted(rho.items())))


def compose(g1: Configuration, g2: Configuration) -> Configuration | None:
    """Disjoint union of components and interactions under a shared state map.

    Returns None when the component or interaction sets overlap.  Raises
    StateMapMismatch when the two state tables disagree on a shared id;
    that is an ill-formed input, not an undefined composition.
    """
    r1, r2 = dict(g1.state_pairs), dict(g2.state_pairs)
    for c in r1.keys() & r2.keys():
        if r1[c] != r2[c]:
            raise StateMapMismatch(f"state maps disagree on {c!r}: {r1[c]!r} vs {r2[c]!r}")
    if g1.components & g2.components or g1.interactions & g2.interactions:
        return None
    r1.update(r2)
    return Configuration.make(g1.components | g2.components,
                              g1.interactions | g2.interactions, r1)


def step(behavior: Behavior, g: Configuration, inter: Interaction) -> frozenset[Configuration]:
    """All successors of `g` by firing `inter` (Def. of the step relation).

    Every bound component, present or absent, must take a transition labeled
    by its port; nondeterministic behaviors yield one successor per choice.
    """
    if inter not in g.interactions:
        raise UnknownInteraction(f"{inter!r} not in configuration")
    rho = g.state_map
    choices = [behavior.targets(rho[c], p) for c, p in inter.bindings]
    if any(not ts for ts in choices):
        return frozenset()
    out = set()
    for combo in itertools.product(*choices):
        out.add(g.with_states(dict(zip(inter.components, combo))))
    return frozenset(out)


def successors(behavior: Behavior, g: Configuration) -> frozenset[Configuration]:
    """One havoc step: the union of `step` over all interactions of `g`."""
    out: set[Configuration] = set()
    for inter in g.interactions:
        out |= step(behavior, g, inter)
    return frozenset(out)


def havoc_closure(behavior: Behavior, g: Configuration) -> frozenset[Configuration]:
    """Reflexive-transitive closure of one-step havoc; finite by construction."""
    seen = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for h2 in successors(behavior, h):
                if h2 not in seen:
                    seen.add(h2)
                    nxt.append(h2)
        frontier = nxt
    return frozenset(seen)


def degree(g: Configuration) -> int:
    """Maximum number of interactions incident to a single component."""
    counts: dict[str, int] = {}
    for inter in g.interactions:
        for c in set(inter.components):
            counts[c] = counts.get(c, 0) + 1
    return max(counts.values(), default=0)


def is_tight(g: Configuration) -> bool:
    """True iff every component bound by an interaction is present."""
    return all(c in g.components for i in g.interactions for c in i.components)

