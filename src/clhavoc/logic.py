"""Configuration logic: syntax, inductive definitions, satisfaction, unfolding.

Formulas are immutable trees over six atom kinds plus separating conjunction
and existential quantification.  Satisfaction of predicate-free formulas is
decided by bijective matching: component atoms must cover the present
components exactly once, interaction atoms the interactions, while state and
(dis)equality atoms hold on empty sub-configurations and only constrain the
store and the state table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import Behavior, Configuration
from .eqform import Partition


class UnboundVariable(KeyError):
    """A free variable of the evaluated formula is missing from the store."""


class UndefinedPredicate(ValueError):
    """A predicate atom refers to a name with no defining rule."""


# ---------------------------------------------------------------------------
# variables

@dataclass(frozen=True, order=True)
class Var:
    """A logical variable; the tag distinguishes canonical indexed families."""

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
class Emp:
    pass


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


@dataclass(frozen=True)
class SepConj:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Exists:
    vars: tuple[Var, ...]
    body: "Formula"


Formula = Emp | Comp | StateAtom | Inter | Eq | Neq | Pred | SepConj | Exists
Atom = Emp | Comp | StateAtom | Inter | Eq | Neq | Pred
# exists binders . *atoms, the form `prenex` returns
Prenex = tuple[tuple[Var, ...], tuple[Atom, ...]]


def sep(*parts: Formula) -> Formula:
    """Flattened separating conjunction; emp units are dropped."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, SepConj):
            flat.extend(p.parts)
        elif not isinstance(p, Emp):
            flat.append(p)
    if not flat:
        return Emp()
    if len(flat) == 1:
        return flat[0]
    return SepConj(tuple(flat))


def exists(vars: Sequence[Var], body: Formula) -> Formula:
    vars = tuple(vars)
    if not vars:
        return body
    if isinstance(body, Exists):
        return Exists(vars + body.vars, body.body)
    return Exists(vars, body)


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
    if isinstance(a, Emp):
        return ()
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
    if isinstance(a, Emp):
        return "emp"
    raise TypeError(a)


def free_vars(f: Formula) -> frozenset[Var]:
    if isinstance(f, SepConj):
        out: frozenset[Var] = frozenset()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, Exists):
        return free_vars(f.body) - set(f.vars)
    return frozenset(atom_vars(f))


def substitute(f: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Simultaneous, capture-avoiding substitution of free occurrences."""
    get = mapping.get
    if isinstance(f, Emp):
        return f
    if isinstance(f, Comp):
        return Comp(get(f.var, f.var))
    if isinstance(f, StateAtom):
        return StateAtom(get(f.var, f.var), f.state)
    if isinstance(f, Inter):
        return Inter(tuple((get(v, v), p) for v, p in f.bindings))
    if isinstance(f, Eq):
        return Eq(get(f.left, f.left), get(f.right, f.right))
    if isinstance(f, Neq):
        return Neq(get(f.left, f.left), get(f.right, f.right))
    if isinstance(f, Pred):
        return Pred(f.name, tuple(get(v, v) for v in f.args))
    if isinstance(f, SepConj):
        return SepConj(tuple(substitute(p, mapping) for p in f.parts))
    if isinstance(f, Exists):
        inner = {k: v for k, v in mapping.items() if k not in f.vars}
        targets = set(inner.values())
        binders = list(f.vars)
        body = f.body
        if targets & set(binders):
            # rename binders that would capture a substituted variable
            taken = {v.name for v in targets | free_vars(f.body) | set(binders)}
            renames: dict[Var, Var] = {}
            for i, b in enumerate(binders):
                if b in targets:
                    k = 0
                    while f"{b.name}~{k}" in taken:
                        k += 1
                    nb = Var(f"{b.name}~{k}", b.tag)
                    taken.add(nb.name)
                    renames[b] = nb
                    binders[i] = nb
            body = substitute(body, renames)
        return Exists(tuple(binders), substitute(body, inner))
    raise TypeError(f)


def atoms_of(f: Formula) -> Iterator[Atom]:
    """Leaf atoms of a formula in syntactic order (quantifiers transparent)."""
    if isinstance(f, SepConj):
        for p in f.parts:
            yield from atoms_of(p)
    elif isinstance(f, Exists):
        yield from atoms_of(f.body)
    else:
        yield f


def prenex(f: Formula, counter: itertools.count | None = None,
           prefix: str = "%q") -> Prenex:
    """Pull every existential to the front, freshly renaming all binders."""
    binders: list[Var] = []
    atoms: list[Atom] = []
    _prenex_into(f, {}, prefix, itertools.count() if counter is None else counter,
                 binders, atoms)
    return tuple(binders), tuple(atoms)


def _prenex_into(g: Formula, env: dict[Var, Var], prefix: str,
                 counter: itertools.count, binders: list[Var],
                 atoms: list[Atom]) -> None:
    """Append g's binders, renamed apart, and its atoms, renamed by env."""
    if isinstance(g, Exists):
        env = dict(env)
        for b in g.vars:
            nb = Var(prefix, (next(counter),))
            env[b] = nb
            binders.append(nb)
        _prenex_into(g.body, env, prefix, counter, binders, atoms)
    elif isinstance(g, SepConj):
        for p in g.parts:
            _prenex_into(p, env, prefix, counter, binders, atoms)
    elif not isinstance(g, Emp):
        atoms.append(substitute(g, env))


# ---------------------------------------------------------------------------
# rules and SIDs

@dataclass(frozen=True)
class Rule:
    """head(params) <- exists binders . *atoms, the one form of a rule.

    Binders keep their written names; `calls` holds the positions of the
    predicate atoms among `atoms`."""

    head: str
    params: tuple[Var, ...]
    binders: tuple[Var, ...]
    atoms: tuple[Atom, ...]
    calls: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = self.params + self.binders
        if len(set(names)) != len(names):
            raise ValueError(f"rule for {self.head}: parameters and binders must be distinct")
        object.__setattr__(self, "calls", tuple(i for i, a in enumerate(self.atoms)
                                                if isinstance(a, Pred)))
        extra = {v for a in self.atoms for v in atom_vars(a)}.difference(names)
        if extra:
            raise ValueError(f"rule for {self.head}: unbound body variables "
                             f"{sorted(var_text(v) for v in extra)}")

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
    # canonical keys of bounded-model candidates by exact form, which
    # `oracle` alone reads and fills, in the root of the `_base` chain only:
    # a key is a function of the candidate, so extensions share it
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arities: dict[str, int] = {}
        by_head: dict[str, list[Rule]] = {}
        try:
            for k, r in enumerate(self.rules):
                prev = arities.setdefault(r.head, len(r.params))
                if prev != len(r.params):
                    raise ValueError(f"{r.head} defined with arities {prev} and {len(r.params)}")
                by_head.setdefault(r.head, []).append(r)
            for k, r in enumerate(self.rules):
                for a in r.atoms:
                    if isinstance(a, Pred):
                        if a.name not in arities:
                            raise UndefinedPredicate(
                                f"{a.name} used in {r.head} but never defined")
                        if len(a.args) != arities[a.name]:
                            raise ValueError(f"{a.name} used with arity {len(a.args)}, "
                                             f"defined with {arities[a.name]}")
                    if isinstance(a, StateAtom) and a.state not in self.behavior.states:
                        raise ValueError(f"undeclared state {a.state!r} in rule for {r.head}")
                    if isinstance(a, Inter):
                        for _, p in a.bindings:
                            if p not in self.behavior.ports:
                                raise ValueError(f"undeclared port {p!r} in rule for {r.head}")
        except ValueError as e:
            e.rule = k  # the offending rule's position in `rules`
            raise
        object.__setattr__(self, "_by_head", {h: tuple(rs) for h, rs in by_head.items()})

    @property
    def predicates(self) -> tuple[str, ...]:
        return tuple(self._by_head)

    def arity(self, name: str) -> int:
        if name not in self._by_head:
            raise UndefinedPredicate(name)
        return len(self._by_head[name][0].params)

    def rules_of(self, name: str) -> tuple[Rule, ...]:
        return self._by_head.get(name, ())

    def atom(self, name: str) -> Pred:
        """The predicate atom over canonical parameters x1..xN."""
        return Pred(name, tuple(Var(f"x{i}") for i in range(1, self.arity(name) + 1)))

    def extend(self, rules: Iterable[Rule]) -> SID:
        """This SID plus rules for new predicates, linked back to this one.

        A new rule may call this SID's predicates but not define one, so each
        of them keeps its rules and unfolds in the extension as here."""
        rules = tuple(rules)
        own = set(self.predicates)
        clash = sorted({r.head for r in rules if r.head in own})
        if clash:
            raise ValueError(f"extension redefines {', '.join(clash)}")
        ext = SID(self.rules + rules, self.behavior)
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


def satisfies(g: Configuration, nu: Mapping[Var, str], binders: Sequence[Var],
              atoms: Sequence[Atom]) -> bool:
    """Does (g, nu) satisfy the predicate-free prenex form `exists binders . *atoms`?

    Equalities join the variables into classes, and the store gives the
    classes of the free variables (those that occur in an atom and are not
    bound) their values; a free variable missing from the store raises
    UnboundVariable.  Each interaction atom then takes a distinct
    interaction of its port tuple and each component atom a distinct present
    component, consistently per class (`_match`); equal counts make the
    cover exact.  A class left without a value is a fresh id from the
    infinite pool of absent components.
    """
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


def eval_pf(g: Configuration, nu: Mapping[Var, str], f: Formula) -> bool:
    """Does (g, nu) satisfy the predicate-free formula f?"""
    return satisfies(g, nu, *prenex(f))


# ---------------------------------------------------------------------------
# unfolding

# A walk state: the prenex form of an unfolding and the (index, budget) of
# its predicate atoms, leftmost first; the leftmost one is expanded next.
_State = tuple[tuple[Var, ...], tuple[Atom, ...], tuple[tuple[int, int], ...]]


def _start(sid: SID, f: Formula, depth: int, counter: itertools.count) -> _State:
    """The state an unfolding walk of f starts from."""
    binders, atoms = prenex(f, counter, prefix="%u")
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


def unfold_formula(sid: SID, f: Formula, depth: int) -> list[tuple[Prenex, bool]]:
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


def least_heights(sid: SID, roots: Iterable[str]) -> dict[str, float]:
    """The least completion height of each predicate reachable from roots.

    A rule with no predicate atom has height 1, any other 1 + the largest
    height of its body predicates; a predicate takes the least height of
    its rules, or inf when none of them ever completes.  Heights are found
    level by level: each rule counts its body predicates still without one.
    """
    callers: dict[str, list[int]] = {}  # predicate -> rules calling it
    waiting: list[int] = []  # per rule, its body predicates without a height
    heads: list[str] = []
    heights: dict[str, float] = {}
    level: list[str] = []
    seen = dict.fromkeys(roots)
    todo = list(seen)
    while todo:
        for r in sid.rules_of(todo.pop()):
            called = {a.name for a in r.preds}
            for name in called:
                callers.setdefault(name, []).append(len(heads))
                if name not in seen:
                    seen[name] = None
                    todo.append(name)
            waiting.append(len(called))
            heads.append(r.head)
            if not called and r.head not in heights:
                heights[r.head] = 1
                level.append(r.head)
    h = 1
    while level:
        h += 1
        done, level = level, []
        for name in done:
            for k in callers.get(name, ()):
                waiting[k] -= 1
                if waiting[k] == 0 and heads[k] not in heights:
                    heights[heads[k]] = h
                    level.append(heads[k])
    return {name: heights.get(name, math.inf) for name in seen}


def complete_unfoldings(sid: SID, f: Formula, depth: int) -> list[Prenex]:
    """The complete unfoldings of f at height <= depth, as prenex forms.

    They come in the order of the complete entries of `unfold_formula`, but
    the walk keeps only states from which one is still reachable: it expands
    an atom with budget b only by rules whose body predicates have least
    completion heights <= b - 1 (`least_heights`).  Pruned branches draw no
    fresh names, so binder numbers differ from `unfold_formula`'s.
    """
    counter = itertools.count()
    start = _start(sid, f, depth, counter)
    _, atoms0, pending0 = start
    roots = [atoms0[i].name for i, _ in pending0]
    heights = least_heights(sid, roots)
    if any(heights[name] > depth for name in roots):
        return []
    # for each predicate reached, its rules with their heights
    ranked: dict[str, list[tuple[float, Rule]]] = {}
    results: list[Prenex] = []
    stack = [start]
    while stack:
        state = stack.pop()
        binders, atoms, pending = state
        if not pending:
            results.append((binders, atoms))
            continue
        at, budget = pending[0]
        name = atoms[at].name
        if name not in ranked:
            ranked[name] = [(1 + max((heights[a.name] for a in r.preds), default=0), r)
                            for r in sid.rules_of(name)]
        stack.extend(reversed([_expand(state, r, counter)
                               for h, r in ranked[name] if h <= budget]))
    return results


def eval_bounded(g: Configuration, nu: Mapping[Var, str], f: Formula,
                 sid: SID, depth: int) -> bool:
    """True iff some complete unfolding of f at height <= depth is satisfied.

    Sound for satisfaction; a False answer only rules out models arising
    from unfoldings within the depth bound.
    """
    return any(satisfies(g, nu, *u) for u in complete_unfoldings(sid, f, depth))
