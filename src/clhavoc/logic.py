"""Configuration logic: syntax, inductive definitions, satisfaction, unfolding.

A formula is a prenex form `exists binders . atom_1 * ... * atom_n` over six
immutable atom kinds; no atoms is emp.  Satisfaction of predicate-free forms
is decided by bijective matching: component atoms must cover the present
components exactly once, interaction atoms the interactions, while state and
(dis)equality atoms hold on empty sub-configurations and only constrain the
store and the state table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import Behavior, Configuration
from .eqform import Partition


class UnboundVariable(KeyError):
    """A free variable of the evaluated formula is missing from the store."""


class UndefinedPredicate(ValueError):
    """A predicate atom refers to a name with no defining rule."""


# ---------------------------------------------------------------------------
# variables

class Var(NamedTuple):
    """A logical variable; the tag distinguishes canonical indexed families.

    A variable is its (name, tag) tuple, so it hashes, compares and sorts in
    C, and equals that plain pair: no container mixes the two."""

    name: str
    tag: tuple[int, ...] = ()


def param(j: int) -> Var:
    """Canonical parameter variable of an alphabet symbol (left-hand side)."""
    return Var("%in", (j,))


def beginvar(i: int) -> Var:
    """Walk marker: the component atom of walk i has been consumed."""
    return Var("%begin", (i,))


def endvar(i: int) -> Var:
    """Walk marker: the fired interaction atom binds position i."""
    return Var("%end", (i,))


def boundvar(k: int) -> Var:
    """Canonical existential binder of an alphabet symbol."""
    return Var("%y", (k,))


def var_text(v: Var) -> str:
    """Stable printable name, for debug dumps and partition rendering."""
    if v.name == "%in":
        return f"p{v.tag[0]}"
    if v.name == "%begin":
        return f"b{v.tag[0]}"
    if v.name == "%end":
        return f"e{v.tag[0]}"
    if v.name == "%y":
        return f"y{v.tag[0]}"
    if v.tag:
        return f"{v.name}_{'_'.join(map(str, v.tag))}"
    return v.name


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Comp:
    var: Var


@dataclass(frozen=True)
class StateAtom:
    var: Var
    state: str


@dataclass(frozen=True)
class Inter:
    bindings: tuple[tuple[Var, str], ...]


@dataclass(frozen=True)
class Eq:
    left: Var
    right: Var


@dataclass(frozen=True)
class Neq:
    left: Var
    right: Var


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple[Var, ...]


Atom = Comp | StateAtom | Inter | Eq | Neq | Pred
# exists binders . *atoms, the one form of a formula; no atoms is emp
Prenex = tuple[tuple[Var, ...], tuple[Atom, ...]]


def atom_vars(a: Atom) -> tuple[Var, ...]:
    """The variables of an atom in position order, repeats kept."""
    if isinstance(a, (Comp, StateAtom)):
        return (a.var,)
    if isinstance(a, Inter):
        return tuple(v for v, _ in a.bindings)
    if isinstance(a, (Eq, Neq)):
        return (a.left, a.right)
    if isinstance(a, Pred):
        return a.args
    raise TypeError(a)


def atom_text(a: Atom, name: Callable[[Var], str], sp: str) -> str:
    """An atom as text; `name` prints a variable and `sp` pads the `:` of a
    state atom and the `=`/`!=` of a (dis)equality."""
    if isinstance(a, Comp):
        return f"comp({name(a.var)})"
    if isinstance(a, StateAtom):
        return f"state({name(a.var)}{sp}:{sp}{a.state})"
    if isinstance(a, Inter):
        return "<" + ", ".join(f"{name(v)}.{p}" for v, p in a.bindings) + ">"
    if isinstance(a, Eq):
        return f"{name(a.left)}{sp}={sp}{name(a.right)}"
    if isinstance(a, Neq):
        return f"{name(a.left)}{sp}!={sp}{name(a.right)}"
    if isinstance(a, Pred):
        return f"{a.name}({', '.join(name(v) for v in a.args)})"
    raise TypeError(a)


def substitute(a: Atom, mapping: Mapping[Var, Var]) -> Atom:
    """Simultaneous substitution of an atom's variables."""
    get = mapping.get
    if isinstance(a, Comp):
        return Comp(get(a.var, a.var))
    if isinstance(a, StateAtom):
        return StateAtom(get(a.var, a.var), a.state)
    if isinstance(a, Inter):
        return Inter(tuple((get(v, v), p) for v, p in a.bindings))
    if isinstance(a, Eq):
        return Eq(get(a.left, a.left), get(a.right, a.right))
    if isinstance(a, Neq):
        return Neq(get(a.left, a.left), get(a.right, a.right))
    if isinstance(a, Pred):
        return Pred(a.name, tuple(get(v, v) for v in a.args))
    raise TypeError(a)


def prenex(f: Prenex, counter: itertools.count | None = None) -> Prenex:
    """f with its binders renamed apart, in order, to fresh `%u` variables."""
    binders, atoms = f
    if counter is None:
        counter = itertools.count()
    fresh = tuple(Var("%u", (next(counter),)) for _ in binders)
    mapping = dict(zip(binders, fresh))
    return fresh, tuple(substitute(a, mapping) for a in atoms)


# ---------------------------------------------------------------------------
# rules and SIDs

@dataclass(frozen=True)
class Rule:
    """head(params) <- exists binders . *atoms, the one form of a rule.

    Binders keep their written names.  The body is read once, when the rule
    is built, with each variable as its position among params + binders; an
    unbound variable is refused.  `calls` holds the positions of the
    predicate atoms among `atoms`.  `skeleton` is the rule's positional key:
    its parameter and binder counts, then each non-state atom in body order
    as its kind, the positions of its variables and its ports.  A predicate
    atom is its positions only, so rules that differ only in state atoms and
    predicate names have one key.  `state_slots` holds each state atom as
    the position of its variable (an index into `Node.fills`) and its
    state."""

    head: str
    params: tuple[Var, ...]
    binders: tuple[Var, ...]
    atoms: tuple[Atom, ...]
    calls: tuple[int, ...] = field(init=False, repr=False, compare=False)
    skeleton: tuple = field(init=False, repr=False, compare=False)
    state_slots: tuple[tuple[int, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = self.params + self.binders
        at = {v: i for i, v in enumerate(names)}
        if len(at) != len(names):
            raise ValueError(f"rule for {self.head}: parameters and binders must be distinct")
        calls, body, slots = [], [], []
        try:
            for i, a in enumerate(self.atoms):
                kind = type(a)
                if kind is StateAtom:
                    slots.append((at[a.var], a.state))
                elif kind is Comp:
                    body.append((kind, (at[a.var],), ()))
                elif kind is Inter:
                    body.append((kind, tuple([at[v] for v, _ in a.bindings]),
                                 tuple([p for _, p in a.bindings])))
                elif kind is Pred:
                    calls.append(i)
                    body.append((kind, tuple([at[v] for v in a.args]), ()))
                else:
                    body.append((kind, tuple([at[v] for v in atom_vars(a)]), ()))
        except KeyError:
            extra = {v for a in self.atoms for v in atom_vars(a)}.difference(names)
            raise ValueError(f"rule for {self.head}: unbound body variables "
                             f"{sorted(var_text(v) for v in extra)}") from None
        object.__setattr__(self, "calls", tuple(calls))
        object.__setattr__(self, "skeleton", (len(self.params), len(self.binders), tuple(body)))
        object.__setattr__(self, "state_slots", tuple(slots))

    def renamed(self, head: str, callees: Iterable[str]) -> Rule:
        """This rule with another head and its predicate atoms, in order,
        calling `callees`.  Its checks and positional form read only the
        parameters, binders and variables, which stay, so the copy shares
        them instead of reading the body again."""
        atoms = list(self.atoms)
        for i, name in zip(self.calls, callees, strict=True):
            atoms[i] = Pred(name, atoms[i].args)
        rule = object.__new__(Rule)
        rule.__dict__.update(self.__dict__, head=head, atoms=tuple(atoms))
        return rule

    @property
    def preds(self) -> tuple[Pred, ...]:
        """The predicate atoms of the body, in order."""
        return tuple(self.atoms[i] for i in self.calls)

    @property
    def pf_atoms(self) -> tuple[Atom, ...]:
        """The predicate-free atoms of the body, in order."""
        return tuple(a for i, a in enumerate(self.atoms) if i not in self.calls)


@dataclass(frozen=True)
class SID:
    """A finite set of inductive definitions over a fixed behavior."""

    rules: tuple[Rule, ...]
    behavior: Behavior
    # each predicate's rules, in order, keyed by head in order of first
    # definition
    _by_head: dict[str, tuple[Rule, ...]] = field(init=False, repr=False, compare=False)
    # bounded model sets built by `oracle`, which alone reads and fills it;
    # an SID never changes, so they hold as long as it lives
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the SID this one extends (see `extend`); its predicates unfold here as
    # there, so `oracle` keeps their model sets in the base's memo
    _base: SID | None = field(default=None, init=False, repr=False, compare=False)
    # the skeleton tries of `complete_unfoldings`, one root `Node` per formula
    # skeleton, in the root of the `_base` chain only: a node is a function
    # of its root and the positional keys of the rules expanded below it, so
    # extensions, other depths and other predicate names share it, and with
    # it the oracle's plan and the shapes and keys the plan holds
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # how many leading rules are known to be checked (see `extend`)
    _checked: InitVar[int] = 0

    def __post_init__(self, _checked: int) -> None:
        arity: dict[str, int] = {}
        by_head: dict[str, list[Rule]] = {}
        try:
            for k, r in enumerate(self.rules):
                prev = arity.setdefault(r.head, len(r.params))
                if prev != len(r.params):
                    raise ValueError(f"{r.head} defined with arities {prev} and {len(r.params)}")
                by_head.setdefault(r.head, []).append(r)
            states, ports = self.behavior.states, self.behavior.ports
            for k, r in enumerate(self.rules[_checked:], _checked):
                for i in r.calls:
                    a = r.atoms[i]
                    if a.name not in arity:
                        raise UndefinedPredicate(f"{a.name} used in {r.head} but never defined")
                    if len(a.args) != arity[a.name]:
                        raise ValueError(f"{a.name} used with arity {len(a.args)}, "
                                         f"defined with {arity[a.name]}")
                for _, q in r.state_slots:
                    if q not in states:
                        raise ValueError(f"undeclared state {q!r} in rule for {r.head}")
                for _, _, used in r.skeleton[2]:
                    for p in used:
                        if p not in ports:
                            raise ValueError(f"undeclared port {p!r} in rule for {r.head}")
        except ValueError as e:
            e.rule = k  # the offending rule's position in `rules`
            raise
        object.__setattr__(self, "_by_head", {h: tuple(rs) for h, rs in by_head.items()})

    @property
    def predicates(self) -> tuple[str, ...]:
        return tuple(self._by_head)

    @property
    def root(self) -> SID:
        """The root of this SID's `_base` chain."""
        sid = self
        while sid._base is not None:
            sid = sid._base
        return sid

    def arity(self, name: str) -> int:
        if name not in self._by_head:
            raise UndefinedPredicate(name)
        return len(self._by_head[name][0].params)

    def rules_of(self, name: str) -> tuple[Rule, ...]:
        return self._by_head.get(name, ())

    @cached_property
    def heights(self) -> dict[str, float]:
        """Each predicate's least completion height (`least_heights`)."""
        return least_heights(self)

    def atom(self, name: str) -> Pred:
        """The predicate atom over canonical parameters x1..xN."""
        return Pred(name, tuple(Var(f"x{i}") for i in range(1, self.arity(name) + 1)))

    def extend(self, rules: Iterable[Rule]) -> SID:
        """This SID plus rules for new predicates, linked back to this one.

        A new rule may call this SID's predicates but not define one, so each
        of them keeps its rules and unfolds in the extension as here.  This
        SID's rules were checked when it was built, and none of them can call
        a new predicate, so the extension checks only the new rules' calls,
        states and ports."""
        rules = tuple(rules)
        clash = sorted({r.head for r in rules if r.head in self._by_head})
        if clash:
            raise ValueError(f"extension redefines {', '.join(clash)}")
        ext = SID(self.rules + rules, self.behavior, len(self.rules))
        object.__setattr__(ext, "_base", self)
        return ext


# ---------------------------------------------------------------------------
# satisfaction of predicate-free formulas

def split_atoms(atoms: Iterable[Atom]) -> tuple[list[Var], list[Inter], list[StateAtom],
                                                list[tuple[Var, Var]], list[tuple[Var, Var]]]:
    """Sort atoms by kind into component variables, interaction atoms, state
    atoms, equalities and disequalities; predicate atoms are rejected."""
    kinds: tuple = ([], [], [], [], [])
    comps, inters, states, eqs, neqs = kinds
    for a in atoms:
        if isinstance(a, Comp):
            comps.append(a.var)
        elif isinstance(a, Inter):
            inters.append(a)
        elif isinstance(a, StateAtom):
            states.append(a)
        elif isinstance(a, Eq):
            eqs.append((a.left, a.right))
        elif isinstance(a, Neq):
            neqs.append((a.left, a.right))
        elif isinstance(a, Pred):
            raise ValueError("formula still contains predicate atoms")
    return kinds


def eval_pf(g: Configuration, nu: Mapping[Var, str], f: Prenex) -> bool:
    """Does (g, nu) satisfy the predicate-free prenex form f = (binders, atoms)?

    Equalities join the variables into classes, and the store gives the
    classes of the free variables (those that occur in an atom and are not
    bound) their values; a free variable missing from the store raises
    UnboundVariable.  Each interaction atom then takes a distinct
    interaction of its port tuple and each component atom a distinct present
    component, consistently per class (`_match`); equal counts make the
    cover exact.  A class left without a value is a fresh id from the
    infinite pool of absent components.
    """
    binders, atoms = f
    comps, inters, states, eqs, neqs = split_atoms(atoms)
    allvars = set(binders)
    for a in atoms:
        allvars.update(atom_vars(a))
    free = allvars.difference(binders)
    missing = free.difference(nu)
    if missing:
        raise UnboundVariable(f"store misses {sorted(var_text(v) for v in missing)}")
    if len(g.components) != len(comps) or len(g.interactions) != len(inters):
        return False
    cls = Partition(allvars, eqs).roots()
    value: dict[int, str] = {}
    for v in free:
        if value.setdefault(cls[v], nu[v]) != nu[v]:
            return False
    # per spatial atom, its classes and its candidates (key, ids); interaction
    # atoms go first, as each binds several classes.  A key is an Interaction
    # or a component id, and the two never compare equal, so a unary
    # interaction does not use up the component it binds.
    spatial = []
    for a in inters:
        ports = tuple(p for _, p in a.bindings)
        spatial.append(([cls[v] for v, _ in a.bindings],
                        [(i, i.components) for i in g.interactions if i.itype == ports]))
    spatial += [([cls[v]], [(c, (c,)) for c in g.components]) for v in comps]
    pure = ([(cls[a.var], a.state) for a in states],
            [(cls[x], cls[y]) for x, y in neqs], g.state_map)
    return _match(spatial, 0, value, frozenset(), pure)


def _match(spatial: list, k: int, value: dict[int, str], used: frozenset,
           pure: tuple) -> bool:
    """Match spatial[k:] on top of the class values so far, then check the
    state atoms and disequalities."""
    if k == len(spatial):
        states, neqs, rho = pure
        fresh: dict[int, str] = {}
        for s, q in states:
            if s in value:
                if rho.get(value[s]) != q:
                    return False
            elif fresh.setdefault(s, q) != q:
                return False
        return all(a != b and (a not in value or value[a] != value.get(b))
                   for a, b in neqs)
    classes, cands = spatial[k]
    for key, ids in cands:
        if key in used:
            continue
        new = dict(value)
        if (all(new.setdefault(s, c) == c for s, c in zip(classes, ids))
                and _match(spatial, k + 1, new, used | {key}, pure)):
            return True
    return False


# ---------------------------------------------------------------------------
# unfolding

# A walk state: the prenex form of an unfolding and the (index, budget) of
# its predicate atoms, leftmost first; the leftmost one is expanded next.
_State = tuple[tuple[Var, ...], tuple[Atom, ...], tuple[tuple[int, int], ...]]


def _start(sid: SID, f: Prenex, depth: int, counter: itertools.count) -> _State:
    """The state an unfolding walk of f starts from."""
    binders, atoms = prenex(f, counter)
    defined = set(sid.predicates)
    for a in atoms:
        if isinstance(a, Pred) and a.name not in defined:
            raise UndefinedPredicate(a.name)
    return binders, atoms, tuple((i, depth) for i, a in enumerate(atoms)
                                 if isinstance(a, Pred))


def _expand(state: _State, rule: Rule, counter: itertools.count) -> _State:
    """Replace the state's leftmost predicate atom by the rule's prenex body:
    parameters go to the atom's arguments and binders to fresh `%u`
    variables, in one simultaneous substitution."""
    binders, atoms, pending = state
    (at, budget), rest = pending[0], pending[1:]
    fresh = tuple(Var("%u", (next(counter),)) for _ in rule.binders)
    mapping = dict(zip(rule.params, atoms[at].args))
    mapping.update(zip(rule.binders, fresh))
    shift = len(rule.atoms) - 1
    return (binders + fresh,
            atoms[:at] + tuple(substitute(a, mapping) for a in rule.atoms) + atoms[at + 1:],
            tuple((at + i, budget - 1) for i in rule.calls)
            + tuple((i + shift, b) for i, b in rest))


def unfold_formula(sid: SID, f: Prenex, depth: int) -> list[tuple[Prenex, bool]]:
    """All partial unfoldings of f, each predicate atom expanded to height <= depth.

    Results are ((binders, atoms), complete) pairs, the prenex form of each
    unfolding, in deterministic leftmost-innermost order; complete means no
    predicate atom remains.  An expansion instantiates a rule's prenex body
    (`Rule.atoms`) with one simultaneous substitution that also renames the
    binders apart.  The oracle walks `complete_unfoldings`; this full walk
    is its reference.
    """
    counter = itertools.count()
    results: list[tuple[Prenex, bool]] = []
    stack = [_start(sid, f, depth, counter)]
    while stack:
        state = stack.pop()
        binders, atoms, pending = state
        results.append(((binders, atoms), not pending))
        if not pending or pending[0][1] == 0:
            continue
        rules = sid.rules_of(atoms[pending[0][0]].name)
        stack.extend(reversed([_expand(state, r, counter) for r in rules]))
    return results


def derive(facts: Iterable, rules: Iterable[tuple[object, Sequence]]) -> dict:
    """The atoms that the facts and the Horn rules (head, body) derive.

    Unit propagation (Dowling & Gallier 1984): each rule counts the body
    atoms not yet derived, once per occurrence, and fires when the count
    reaches zero.  The queue is first in, first out.  The result maps each
    derived atom, in derivation order, to the index of the first rule that
    derived it, or None for a fact.  Heights (a fact 0, a rule's head one more
    than its highest body atom) reach the queue in non-decreasing order, so
    the first rule to derive an atom gives it its least height.
    """
    rules = list(rules)
    missing = [len(body) for _, body in rules]
    waiting: dict[object, list[int]] = {}  # atom -> rules, once per occurrence
    derived = dict.fromkeys(facts)
    for k, (head, body) in enumerate(rules):
        for a in body:
            waiting.setdefault(a, []).append(k)
        if not body:
            derived.setdefault(head, k)
    queue = list(derived)
    for a in queue:  # the loop also visits what it appends
        for k in waiting.get(a, ()):
            missing[k] -= 1
            head = rules[k][0]
            if not missing[k] and head not in derived:
                derived[head] = k
                queue.append(head)
    return derived


def least_heights(sid: SID) -> dict[str, float]:
    """The least completion height of each predicate of sid.

    A rule with no predicate atom has height 1, any other 1 + the largest
    height of its body predicates; a predicate takes the least height of
    its rules, or inf when none of them ever completes.  A height does not
    depend on who calls the predicate, so one `derive` over every rule
    derives the heads; heights follow in derivation order from each head's
    first deriving rule.  `SID.heights` keeps the result per SID.
    """
    rules = [(r.head, tuple([r.atoms[i].name for i in r.calls])) for r in sid.rules]
    heights: dict[str, float] = {}
    for head, k in derive((), rules).items():
        heights[head] = 1 + max(map(heights.__getitem__, rules[k][1]), default=0)
    return {name: heights.get(name, math.inf) for name in sid.predicates}


class Node:
    """A skeleton: a partial unfolding without its state atoms.

    `binders` are `%u`0, `%u`1, ... by position, and `atoms` the
    unfolding's other atoms in order, each pending predicate atom as the
    tuple of its arguments: its name, like its budget and the state atoms,
    belongs to the walk's path (`complete_unfoldings`).  `free` are the
    root's variables that no binder binds, in argument order, and `fills`
    the variables that the expansion making this node put in for the rule's
    parameters and binders, in that order.  `children` maps a rule's positional key
    (`Rule.skeleton`) to the node that expanding the first pending atom by
    that rule makes, materialised with one substitution on first use; equal
    keys give equal atoms in equal order.  `plan` is the bounded oracle's,
    built on first use, with the shape of each merge's candidates."""

    __slots__ = ("binders", "atoms", "free", "fills", "at", "children", "plan")

    def __init__(self, binders: tuple[Var, ...], atoms: tuple, free: tuple[Var, ...],
                 fills: tuple[Var, ...] = ()) -> None:
        self.binders, self.atoms, self.free, self.fills = binders, atoms, free, fills
        # the first pending predicate atom, which the walk expands next
        self.at = next((i for i, a in enumerate(atoms) if type(a) is tuple), None)
        self.children: dict[tuple, Node] = {}
        self.plan = None

    def child(self, rule: Rule) -> Node:
        """The node that expanding the first pending atom by the rule makes:
        parameters go to the atom's arguments and binders to the next `%u`
        variables."""
        key = rule.skeleton
        node = self.children.get(key)
        if node is None:
            _, nbinders, body = key
            n, at = len(self.binders), self.at
            fresh = tuple(Var("%u", (k,)) for k in range(n, n + nbinders))
            fills = self.atoms[at] + fresh
            made = []
            for kind, slots, ports in body:
                args = tuple(map(fills.__getitem__, slots))
                made.append(args if kind is Pred else
                            Inter(tuple(zip(args, ports))) if kind is Inter else kind(*args))
            node = self.children[key] = Node(
                self.binders + fresh, self.atoms[:at] + tuple(made) + self.atoms[at + 1:],
                self.free, fills)
        return node

    def form(self, states: Iterable[tuple[Var, str]]) -> Prenex:
        """The prenex form of this complete node under the given state atoms."""
        return self.binders, self.atoms + tuple(StateAtom(v, q) for v, q in states)


def complete_unfoldings(sid: SID, f: Prenex,
                        depth: int) -> list[tuple[Node, tuple[tuple[Var, str], ...]]]:
    """The complete unfoldings of f at height <= depth, each as its skeleton
    node and its state atoms, as (variable, state) pairs.

    They come in the order of the complete entries of `unfold_formula`, but
    the walk keeps only paths from which one is still reachable: it expands
    an atom with budget b only by rules whose body predicates have least
    completion heights <= b - 1 (`SID.heights`).  A path is a node, the
    names and budgets of its pending predicate atoms and the state atoms so
    far.  Nodes live in the root SID's `_nodes`, under f's skeleton, so the
    source, the targets of a reduction and every depth walk the same trie.
    Binder k of each unfolding is `%u`k, so `node.form(states)` has the
    atoms of the matching complete entry of `unfold_formula`, and binders
    that rank as its do.
    """
    binders, atoms = prenex(f)
    for a in atoms:
        if type(a) is Pred and a.name not in sid._by_head:
            raise UndefinedPredicate(a.name)
    heights = sid.heights
    pending = tuple((a.name, depth) for a in atoms if type(a) is Pred)
    if any(heights[name] > depth for name, _ in pending):
        return []
    skeleton = tuple(a.args if type(a) is Pred else a for a in atoms if type(a) is not StateAtom)
    nodes = sid.root._nodes
    root = nodes.get((binders, skeleton))
    if root is None:
        root = nodes[binders, skeleton] = Node(binders, skeleton, tuple(
            v for a in skeleton for v in (a if type(a) is tuple else atom_vars(a))
            if v not in binders))
    # per (predicate, budget) reached, the rules that may expand it, last
    # first, each with its positional key, its state atoms and the pending
    # atoms its body calls
    ranked: dict[tuple[str, int], list] = {}
    results = []
    stack = [(root, pending, tuple((a.var, a.state) for a in atoms if type(a) is StateAtom))]
    while stack:
        node, pending, states = stack.pop()
        if not pending:
            results.append((node, states))
            continue
        steps = ranked.get(pending[0])
        if steps is None:
            name, budget = pending[0]
            steps = ranked[pending[0]] = []
            for r in reversed(sid.rules_of(name)):
                calls = tuple(r.atoms[i].name for i in r.calls)
                if 1 + max(map(heights.__getitem__, calls), default=0) <= budget:
                    steps.append((r, r.skeleton, r.state_slots,
                                  tuple((c, budget - 1) for c in calls)))
        rest = pending[1:]
        for r, key, slots, called in steps:
            child = node.children.get(key) or node.child(r)
            fills = child.fills
            stack.append((child, called + rest,
                          states + tuple([(fills[i], q) for i, q in slots])))
    return results


def eval_bounded(g: Configuration, nu: Mapping[Var, str], f: Prenex,
                 sid: SID, depth: int) -> bool:
    """True iff some complete unfolding of f at height <= depth is satisfied.

    Sound for satisfaction; a False answer only rules out models arising
    from unfoldings within the depth bound.
    """
    return any(eval_pf(g, nu, node.form(states))
               for node, states in complete_unfoldings(sid, f, depth))
