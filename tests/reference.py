"""Reference semantics and shared helpers that only the tests use.

The paper's tree semantics live here: trees over the rule automaton's
alphabet and their characteristic formulas, whose variables are
superscripted by node addresses.  The lemma that the trees an automaton
accepts at a state denote exactly the models of that state's predicate is
a proof device, checked by the tests; the pipeline never builds a tree.
Next to them sit the brute-force references and the fixtures several test
modules share, so that no test module imports another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from clhavoc.automata import AlphabetSymbol, TaTransition, TreeAutomaton, symbol_text
from clhavoc.core import Behavior, Configuration, Interaction, degree
from clhavoc.eqform import EMPTY_EQ, EqFormula
from clhavoc.logic import (Comp, Eq, Formula, Pred, SID, StateAtom, UndefinedPredicate,
                           Var, atoms_of, exists, param, sep, substitute,
                           unfold_formula)
from clhavoc.oracle import enumerate_models


# ---------------------------------------------------------------------------
# formulas

def nodevar(addr: tuple[int, ...], j: int) -> Var:
    """Characteristic-formula parameter x_j superscripted with a tree address."""
    return Var("%x", (*addr, j))


def nodeex(addr: tuple[int, ...], j: int) -> Var:
    """Characteristic-formula existential y_j superscripted with an address."""
    return Var("%ya", (*addr, j))


def comp_in(x: Var, q: str) -> Formula:
    """The component-in-state shorthand: comp(x) * state(x, q)."""
    return sep(Comp(x), StateAtom(x, q))


def unfold(sid: SID, atom: Pred, depth: int) -> list[tuple[Formula, bool]]:
    """Partial and complete unfoldings of a single predicate atom, as formulas."""
    if atom.name not in sid.predicates:
        raise UndefinedPredicate(atom.name)
    return [(exists(binders, sep(*atoms)), complete)
            for (binders, atoms), complete in unfold_formula(sid, atom, depth)]


# ---------------------------------------------------------------------------
# trees and characteristic formulas

class BadAddress(KeyError):
    """Address outside the tree domain."""


Address = tuple[int, ...]


@dataclass(frozen=True)
class Tree:
    """A finite prefix-closed, rank-complete map from addresses to symbols."""

    labels: tuple[tuple[Address, AlphabetSymbol], ...]

    def __post_init__(self) -> None:
        dom = dict(self.labels)
        if len(dom) != len(self.labels):
            raise ValueError("duplicate addresses")
        if () not in dom:
            raise ValueError("tree has no root")
        for u, sym in dom.items():
            if u and u[:-1] not in dom:
                raise ValueError(f"domain not prefix-closed at {u}")
            children = {v[-1] for v in dom if len(v) == len(u) + 1 and v[:-1] == u}
            if children != set(range(1, sym.rank + 1)):
                raise ValueError(f"node {u} has children {sorted(children)}, "
                                 f"rank {sym.rank}")

    @staticmethod
    def node(sym: AlphabetSymbol, *children: "Tree") -> "Tree":
        if len(children) != sym.rank:
            raise ValueError(f"symbol of rank {sym.rank} given {len(children)} children")
        labels: list[tuple[Address, AlphabetSymbol]] = [((), sym)]
        for l, ch in enumerate(children, start=1):
            labels.extend(((l, *u), s) for u, s in ch.labels)
        return Tree(tuple(sorted(labels)))

    @property
    def dom(self) -> tuple[Address, ...]:
        return tuple(u for u, _ in self.labels)

    def label(self, u: Address) -> AlphabetSymbol:
        for v, s in self.labels:
            if v == u:
                return s
        raise BadAddress(u)

    def subtree(self, u: Address) -> "Tree":
        if u not in self.dom:
            raise BadAddress(u)
        k = len(u)
        return Tree(tuple(sorted((v[k:], s) for v, s in self.labels if v[:k] == u)))


def char_formula(t: Tree, u: Address = ()) -> Formula:
    """Quantifier- and predicate-free characteristic formula of the subtree at u.

    Every variable is superscripted by the absolute address of the node that
    introduces it, so formulas of sibling subtrees share no variables except
    through the equalities x^{v.l}_j = arg that follow each node's atoms,
    one per argument its symbol passes to child l.
    """
    sub = t.subtree(u)
    parts: list[Formula] = []
    for w, sym in sub.labels:
        addr = u + w
        mapping = {param(j): nodevar(addr, j) for j in range(1, sym.arity + 1)}
        mapping.update({v: nodeex(addr, k) for k, v in enumerate(sym.exvars, start=1)})
        parts.extend(substitute(a, mapping) for a in sym.atoms)
        parts.extend(Eq(nodevar((*addr, l), j), mapping[v])
                     for l, vs in enumerate(sym.args, start=1)
                     for j, v in enumerate(vs, start=1))
    return sep(*parts)


def char_formula_closed(t: Tree, u: Address = ()) -> Formula:
    """The existentially closed characteristic formula: only the root
    parameters x_j^u remain free."""
    sub = t.subtree(u)
    binders: list[Var] = []
    for w, sym in sub.labels:
        addr = u + w
        if w != ():
            binders.extend(nodevar(addr, j) for j in range(1, sym.arity + 1))
        binders.extend(nodeex(addr, k) for k in range(1, len(sym.exvars) + 1))
    return exists(binders, char_formula(t, u))


def enumerate_trees(ta: TreeAutomaton, state: object, max_nodes: int) -> list[Tree]:
    """All trees of at most max_nodes nodes accepted at `state` (brute force)."""
    by_result: dict[object, list[TaTransition]] = {}
    for tr in ta.transitions:
        by_result.setdefault(tr.result, []).append(tr)

    def gen(q: object, budget: int) -> Iterator[tuple[Tree, int]]:
        for tr in by_result.get(q, []):
            h = tr.symbol.rank
            if budget < 1 + h:
                continue
            if h == 0:
                yield Tree.node(tr.symbol), 1
                continue
            for combo in _child_combos(tr.children, budget - 1):
                trees, size = combo
                yield Tree.node(tr.symbol, *trees), size + 1

    def _child_combos(children: tuple, budget: int) -> Iterator[tuple[list[Tree], int]]:
        if not children:
            yield [], 0
            return
        head, rest = children[0], children[1:]
        min_rest = len(rest)
        for t0, s0 in gen(head, budget - min_rest):
            for ts, s in _child_combos(rest, budget - s0):
                yield [t0] + ts, s0 + s

    seen: dict[Tree, None] = {}
    for t, _ in gen(state, max_nodes):
        seen.setdefault(t)
    return list(seen)


def dump_ta(ta: TreeAutomaton, name_of: Callable[[object], str] = str) -> str:
    lines = [f"states: {', '.join(name_of(s) for s in ta.states)}"]
    if ta.finals:
        finals = sorted(name_of(s) for s in ta.finals)
        lines.append(f"finals: {', '.join(finals)}")
    for tr in ta.transitions:
        kids = ", ".join(name_of(c) for c in tr.children)
        lines.append(f"  {symbol_text(tr.symbol)}({kids}) -> {name_of(tr.result)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# brute-force references

def all_partitions(vars):
    """Every partition of `vars`, as a list of EqFormula."""
    vars = list(vars)
    if not vars:
        return [EMPTY_EQ]
    out = []

    def go(i, blocks):
        if i == len(vars):
            out.append(EqFormula(frozenset(frozenset(b) for b in blocks)))
            return
        v = vars[i]
        for b in blocks:
            b.add(v)
            go(i + 1, blocks)
            b.remove(v)
        blocks.append({v})
        go(i + 1, blocks)
        blocks.pop()

    go(0, [])
    return out


def models(phi: EqFormula, universe, domain_size):
    """All assignments of the universe consistent with the partition."""
    universe = sorted(universe)
    out = []
    for values in itertools.product(range(domain_size), repeat=len(universe)):
        nu = dict(zip(universe, values))
        if all(nu[x] == nu[y]
               for cls in phi.classes
               for x in cls for y in cls
               if x in nu and y in nu):
            out.append(tuple(nu[v] for v in universe))
    return set(out)


def brute_force_profile(sid, depth=4):
    """Position i survives for B iff no partial unfolding of any root passes a
    non-root-parameter variable at position i of a B atom."""
    alive = {p: set(range(1, sid.arity(p) + 1)) for p in sid.predicates}
    for root in sid.predicates:
        params = set(sid.atom(root).args)
        for formula, _ in unfold(sid, sid.atom(root), depth):
            for a in atoms_of(formula):
                if isinstance(a, Pred):
                    for i, v in enumerate(a.args, start=1):
                        if v not in params:
                            alive[a.name].discard(i)
    return {p: frozenset(s) for p, s in alive.items()}


def degree_sample(sid: SID, pred: str, depth: int) -> int:
    """Maximum degree over all bounded models; an empirical lower bound only."""
    best = 0
    for model in enumerate_models(sid, sid.atom(pred), depth).models():
        best = max(best, degree(model.config))
    return best


# ---------------------------------------------------------------------------
# the token ring

TOKEN = Behavior.make(["in", "out"], ["H", "T"],
                      [("T", "out", "H"), ("H", "in", "T")])


def ring_config(states):
    n = len(states)
    comps = [f"c{i+1}" for i in range(n)]
    inters = [Interaction.make((comps[i], "out"), (comps[(i + 1) % n], "in"))
              for i in range(n)]
    return Configuration.make(comps, inters, dict(zip(comps, states)))
