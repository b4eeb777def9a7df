"""Ranked trees over formula-labeled alphabets and the SID <-> TA translations.

An alphabet symbol packages a predicate-free formula over canonical variables
(parameters and positional existentials) with the arity of its head and, per
child, the variables a rule passes to the child's parameters.  Trees of
symbols denote characteristic formulas whose variables are superscripted by
node addresses; a tree automaton over such symbols recognizes exactly the
unfolding trees of a SID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .core import Behavior
from .logic import (Atom, Eq, Formula, Pred, Rule, SID, Var, atom_text,
                    boundvar, exists, free_vars, nodeex, nodevar, param, sep,
                    substitute, var_text)


class BadAddress(KeyError):
    """Address outside the tree domain."""


class NotSidCompatible(ValueError):
    """Tree automaton states carry inconsistent arity annotations."""


Address = tuple[int, ...]


@dataclass(frozen=True)
class AlphabetSymbol:
    """A predicate-free formula with canonical variables, the arity of its
    head and, per child, the parameters and binders passed to the child's
    parameters."""

    exvars: tuple[Var, ...]
    atoms: tuple[Atom, ...]
    arity: int
    args: tuple[tuple[Var, ...], ...]
    # the dataclass hash of the fields, computed once: symbols key the
    # product's dicts and sets, and rehashing the atom tree dominated them
    _hash: int = field(init=False, repr=False, compare=False)
    # the step plans of `transducer`, which alone reads and fills it, keyed by
    # (type, behavior, maxarity); a symbol never changes, so they hold as long
    # as it lives
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.exvars, self.atoms, self.arity, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arities(self) -> tuple[int, ...]:
        """The head's arity, then each child's."""
        return (self.arity, *map(len, self.args))

    @property
    def rank(self) -> int:
        return len(self.args)


def make_symbol(binders: Sequence[Var], atoms: Sequence[Atom], arity: int,
                args: Sequence[Sequence[Var]] = ()) -> AlphabetSymbol:
    """Canonicalize binder names positionally and validate the variable layout."""
    ren = {b: boundvar(k) for k, b in enumerate(binders, start=1)}
    if len(ren) != len(binders):
        raise ValueError("duplicate existential binders")
    catoms = tuple(substitute(a, ren) for a in atoms)
    cargs = tuple(tuple(ren.get(v, v) for v in vs) for vs in args)
    # a parameter may be unused (leaf rules often ignore trailing parameters),
    # but no variable outside the parameters and binders may occur
    extra = set().union(*map(free_vars, catoms), *cargs) - set(ren.values())
    extra -= {param(i) for i in range(1, arity + 1)}
    if extra:
        raise ValueError(f"symbol variables exceed arity {arity}: "
                         f"{sorted(var_text(v) for v in extra)}")
    return AlphabetSymbol(tuple(ren.values()), catoms, arity, cargs)


def symbol_text(sym: AlphabetSymbol) -> str:
    prefix = ""
    if sym.exvars:
        prefix = "E " + ",".join(var_text(v) for v in sym.exvars) + " . "
    body = " * ".join(atom_text(a, var_text, "") for a in sym.atoms) or "emp"
    args = "".join(f" ({','.join(map(var_text, vs))})" for vs in sym.args)
    return f"<{prefix}{body} | {sym.arity}{args}>"


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


# ---------------------------------------------------------------------------
# tree automata

@dataclass(frozen=True)
class TaTransition:
    symbol: AlphabetSymbol
    children: tuple[object, ...]
    result: object
    # the dataclass hash of the fields, computed once (see AlphabetSymbol):
    # product transitions key the image's witness dicts
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.symbol, self.children, self.result)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class TreeAutomaton:
    states: tuple[object, ...]
    finals: frozenset
    transitions: tuple[TaTransition, ...]

    @staticmethod
    def make(transitions: Iterable[TaTransition], finals: Iterable = (),
             states: Iterable = ()) -> "TreeAutomaton":
        transitions = tuple(transitions)
        ordered: dict[object, None] = {}
        for s in states:
            ordered.setdefault(s)
        for tr in transitions:
            for s in tr.children:
                ordered.setdefault(s)
            ordered.setdefault(tr.result)
        return TreeAutomaton(tuple(ordered), frozenset(finals), transitions)

    @property
    def alphabet(self) -> frozenset[AlphabetSymbol]:
        return frozenset(tr.symbol for tr in self.transitions)


def sid_to_ta(sid: SID) -> tuple[TreeAutomaton, dict[str, object]]:
    """One symbol and transition per rule, one state per defined predicate.

    The symbol keeps the arguments of the rule's predicate atoms as its
    `args`; structurally equal symbols are shared across rules.
    """
    transitions: list[TaTransition] = []
    symcache: dict[AlphabetSymbol, AlphabetSymbol] = {}
    for rule in sid.rules:
        preds = rule.preds
        mapping = {x: param(j) for j, x in enumerate(rule.params, start=1)}
        atoms = [substitute(a, mapping) for a in rule.pf_atoms]
        args = [[mapping.get(z, z) for z in pa.args] for pa in preds]
        sym = make_symbol(rule.binders, atoms, len(rule.params), args)
        sym = symcache.setdefault(sym, sym)
        transitions.append(TaTransition(sym, tuple(p.name for p in preds), rule.head))
    ta = TreeAutomaton.make(transitions, states=tuple(sid.predicates))
    return ta, {p: p for p in sid.predicates}


def is_sid_compatible(ta: TreeAutomaton) -> bool:
    """Each state must be annotated with one arity across all its occurrences."""
    arity: dict[object, int] = {}
    for tr in ta.transitions:
        for s, a in zip((tr.result, *tr.children), tr.symbol.arities):
            if arity.setdefault(s, a) != a:
                return False
    return True


def ta_to_sid(ta: TreeAutomaton, behavior: Behavior,
              name_of: Callable[[object], str] = str) -> SID:
    """One rule per transition, with parameters x_j and binders z_k; the
    inverse of `sid_to_ta` on its outputs."""
    if not is_sid_compatible(ta):
        raise NotSidCompatible("states carry inconsistent arities")
    rules = []
    for tr in ta.transitions:
        sym = tr.symbol
        params = tuple(Var(f"x{j}") for j in range(1, sym.arity + 1))
        binders = tuple(Var(f"z{k}") for k in range(1, len(sym.exvars) + 1))
        mapping = dict(zip(map(param, range(1, sym.arity + 1)), params))
        mapping.update(zip(sym.exvars, binders))
        atoms = [substitute(a, mapping) for a in sym.atoms]
        atoms += [Pred(name_of(q), tuple(mapping[v] for v in vs))
                  for q, vs in zip(tr.children, sym.args)]
        rules.append(Rule(name_of(tr.result), params, binders, tuple(atoms)))
    return SID(tuple(rules), behavior)


def ta_membership(ta: TreeAutomaton, t: Tree, state: object) -> bool:
    """Standard bottom-up run existence."""
    return state in _reachable_states(ta, t)[()]


def _reachable_states(ta: TreeAutomaton, t: Tree) -> dict[Address, set]:
    by_symbol: dict[AlphabetSymbol, list[TaTransition]] = {}
    for tr in ta.transitions:
        by_symbol.setdefault(tr.symbol, []).append(tr)
    out: dict[Address, set] = {}
    for u, sym in sorted(t.labels, key=lambda x: (-len(x[0]), x[0])):
        got: set = set()
        for tr in by_symbol.get(sym, []):
            if all(tr.children[l - 1] in out[(*u, l)] for l in range(1, sym.rank + 1)):
                got.add(tr.result)
        out[u] = got
    return out


def ta_trim(ta: TreeAutomaton) -> TreeAutomaton:
    """Drop non-productive states; with final states, also drop useless ones.

    Both passes are worklists (TATA, ch. 1): a transition becomes usable once
    its count of non-productive child slots drops to zero.
    """
    missing = [len(tr.children) for tr in ta.transitions]
    waiting: dict[object, list[int]] = {}
    by_result: dict[object, list[int]] = {}
    for t, tr in enumerate(ta.transitions):
        for c in tr.children:
            waiting.setdefault(c, []).append(t)
        by_result.setdefault(tr.result, []).append(t)
    productive: set = set()
    work = [tr.result for tr in ta.transitions if not tr.children]
    while work:
        s = work.pop()
        if s not in productive:
            productive.add(s)
            for t in waiting.get(s, ()):
                missing[t] -= 1
                if not missing[t]:
                    work.append(ta.transitions[t].result)
    keep = productive
    if ta.finals:
        useful: set = set()
        work = [s for s in ta.finals if s in productive]
        while work:
            s = work.pop()
            if s not in useful:
                useful.add(s)
                for t in by_result.get(s, ()):
                    if not missing[t]:
                        work.extend(ta.transitions[t].children)
        keep = useful
    transitions = tuple(tr for tr in ta.transitions
                        if tr.result in keep and all(c in keep for c in tr.children))
    states = tuple(s for s in ta.states if s in keep)
    return TreeAutomaton(states, frozenset(s for s in ta.finals if s in keep), transitions)


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
