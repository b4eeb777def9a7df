"""Tree automata over formula-labeled alphabets and the SID <-> TA translations.

An alphabet symbol packages a predicate-free formula over canonical variables
(parameters and positional existentials) with the arity of its head and, per
child, the variables a rule passes to the child's parameters.  A tree
automaton over such symbols recognizes exactly the unfolding trees of a SID;
the tests check that lemma against the tree semantics of `tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import Behavior
from .logic import (Atom, Pred, Rule, SID, Var, atom_text, boundvar, derive, param,
                    substitute, var_text)


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
    def rank(self) -> int:
        return len(self.args)


def symbol_text(sym: AlphabetSymbol) -> str:
    prefix = ""
    if sym.exvars:
        prefix = "E " + ",".join(var_text(v) for v in sym.exvars) + " . "
    body = " * ".join(atom_text(a, var_text, "") for a in sym.atoms) or "emp"
    args = "".join(f" ({','.join(map(var_text, vs))})" for vs in sym.args)
    return f"<{prefix}{body} | {sym.arity}{args}>"


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

    A symbol is its rule under one renaming, of parameter j to `param(j)`
    and binder k to `boundvar(k)`: its atoms are the renamed predicate-free
    atoms, and its `args` the renamed arguments of the predicate atoms.
    `Rule` has refused repeated names and unbound variables, so no other
    variable occurs.  Structurally equal symbols are shared across rules.
    """
    transitions: list[TaTransition] = []
    symcache: dict[AlphabetSymbol, AlphabetSymbol] = {}
    for rule in sid.rules:
        preds = rule.preds
        exvars = tuple(map(boundvar, range(1, len(rule.binders) + 1)))
        ren = {x: param(j) for j, x in enumerate(rule.params, start=1)}
        ren.update(zip(rule.binders, exvars))
        atoms = tuple(substitute(a, ren) for a in rule.pf_atoms)
        args = tuple(tuple(ren[v] for v in p.args) for p in preds)
        sym = AlphabetSymbol(exvars, atoms, len(rule.params), args)
        sym = symcache.setdefault(sym, sym)
        transitions.append(TaTransition(sym, tuple(p.name for p in preds), rule.head))
    ta = TreeAutomaton.make(transitions, states=tuple(sid.predicates))
    return ta, {p: p for p in sid.predicates}


def ta_to_sid(ta: TreeAutomaton, behavior: Behavior,
              name_of: Callable[[object], str] = str) -> SID:
    """One rule per transition, with parameters x_j and binders z_k; the
    inverse of `sid_to_ta` on its outputs.  A state used with two arities
    makes no SID: its arity check raises ValueError.

    Transitions share few symbols (394 trimmed transitions of `Ring_5_5`
    carry 6), so one checked rule is built per distinct symbol, and each
    other transition of that symbol renames its head and calls
    (`Rule.renamed`); `SID` checks every call name and arity."""
    templates: dict[AlphabetSymbol, Rule] = {}
    rules = []
    for tr in ta.transitions:
        sym = tr.symbol
        head, callees = name_of(tr.result), [name_of(q) for q in tr.children]
        rule = templates.get(sym)
        if rule is None:
            params = tuple(Var(f"x{j}") for j in range(1, sym.arity + 1))
            binders = tuple(Var(f"z{k}") for k in range(1, len(sym.exvars) + 1))
            mapping = dict(zip(map(param, range(1, sym.arity + 1)), params))
            mapping.update(zip(sym.exvars, binders))
            atoms = tuple(substitute(a, mapping) for a in sym.atoms)
            calls = tuple(Pred(name, tuple(mapping[v] for v in vs))
                          for name, vs in zip(callees, sym.args))
            rule = templates[sym] = Rule(head, params, binders, atoms + calls)
        else:
            rule = rule.renamed(head, callees)
        rules.append(rule)
    return SID(tuple(rules), behavior)


def useful_states(finals: Iterable, edges: Iterable[tuple[Iterable, object]]) -> dict:
    """The states on a run that ends in one of `finals`, by one `derive`
    (TATA, ch. 1): each final state, and each child of an edge
    (children, result) whose result is useful.  Every child of an edge must
    be productive; `ta_trim` and `transducer.image` both trim through it."""
    return derive(finals, [(c, (result,)) for children, result in edges for c in children])


def ta_trim(ta: TreeAutomaton) -> TreeAutomaton:
    """Drop non-productive states; with final states, also drop useless ones.

    Two passes (TATA, ch. 1): one `derive` finds the productive states, each
    with a transition whose children are all productive, and
    `useful_states` keeps those on a run to a productive final state.
    """
    keep = productive = derive((), [(tr.result, tr.children) for tr in ta.transitions])
    if ta.finals:
        keep = useful_states([s for s in ta.finals if s in productive],
                             [(tr.children, tr.result) for tr in ta.transitions
                              if all(map(productive.__contains__, tr.children))])
    transitions = tuple(tr for tr in ta.transitions
                        if tr.result in keep and all(c in keep for c in tr.children))
    states = tuple(s for s in ta.states if s in keep)
    return TreeAutomaton(states, frozenset(s for s in ta.finals if s in keep), transitions)
