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
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from clhavoc.automata import AlphabetSymbol, TaTransition, TreeAutomaton, symbol_text
from clhavoc.core import Behavior, Configuration, Interaction, degree, step
from clhavoc.eqform import EqFormula, Partition
from clhavoc.frontend import ParseError, Tok
from clhavoc.logic import (Atom, Comp, Eq, Inter, Neq, Node, Pred, Prenex, Rule, SID, StateAtom,
                           UndefinedPredicate, Var, atom_vars, beginvar, boundvar, endvar,
                           param, prenex, split_atoms, substitute, unfold_formula, var_text)
from clhavoc.oracle import (Model, Shape, _instantiate, _node_plan, canonical_model,
                            enumerate_models)
from clhavoc.reduction import ClassEquivResult
from clhavoc.transducer import (ArityMismatch, ImageResult, InteractionType, ProductState,
                                Witness, interaction_types)


# ---------------------------------------------------------------------------
# formulas

def nodevar(addr: tuple[int, ...], j: int) -> Var:
    """Characteristic-formula parameter x_j superscripted with a tree address."""
    return Var("%x", (*addr, j))


def nodeex(addr: tuple[int, ...], j: int) -> Var:
    """Characteristic-formula existential y_j superscripted with an address."""
    return Var("%ya", (*addr, j))


def comp_in(x: Var, q: str) -> tuple[Atom, Atom]:
    """The atoms of the component-in-state shorthand: comp(x) * state(x, q)."""
    return Comp(x), StateAtom(x, q)


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


def char_formula(t: Tree, u: Address = ()) -> Prenex:
    """Quantifier- and predicate-free characteristic formula of the subtree at u.

    Every variable is superscripted by the absolute address of the node that
    introduces it, so formulas of sibling subtrees share no variables except
    through the equalities x^{v.l}_j = arg that follow each node's atoms,
    one per argument its symbol passes to child l.
    """
    sub = t.subtree(u)
    parts: list[Atom] = []
    for w, sym in sub.labels:
        addr = u + w
        mapping = {param(j): nodevar(addr, j) for j in range(1, sym.arity + 1)}
        mapping.update({v: nodeex(addr, k) for k, v in enumerate(sym.exvars, start=1)})
        parts.extend(substitute(a, mapping) for a in sym.atoms)
        parts.extend(Eq(nodevar((*addr, l), j), mapping[v])
                     for l, vs in enumerate(sym.args, start=1)
                     for j, v in enumerate(vs, start=1))
    return (), tuple(parts)


def char_formula_closed(t: Tree, u: Address = ()) -> Prenex:
    """The existentially closed characteristic formula: only the root
    parameters x_j^u remain free."""
    sub = t.subtree(u)
    binders: list[Var] = []
    for w, sym in sub.labels:
        addr = u + w
        if w != ():
            binders.extend(nodevar(addr, j) for j in range(1, sym.arity + 1))
        binders.extend(nodeex(addr, k) for k in range(1, len(sym.exvars) + 1))
    return tuple(binders), char_formula(t, u)[1]


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


def make_symbol(binders: Sequence[Var], atoms: Sequence[Atom], arity: int,
                args: Sequence[Sequence[Var]] = ()) -> AlphabetSymbol:
    """A symbol whose binders are renamed positionally to `boundvar(k)`;
    atoms and arguments are otherwise taken as written."""
    ren = {b: boundvar(k) for k, b in enumerate(binders, start=1)}
    return AlphabetSymbol(tuple(ren.values()), tuple(substitute(a, ren) for a in atoms),
                          arity, tuple(tuple(ren.get(v, v) for v in vs) for vs in args))


def reference_sid_to_ta(sid: SID) -> TreeAutomaton:
    """`sid_to_ta` in two renamings: the parameters first, then the binders
    through `make_symbol`."""
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
    return TreeAutomaton.make(transitions, states=tuple(sid.predicates))


def reference_ta_to_sid(ta: TreeAutomaton, behavior: Behavior,
                        name_of: Callable[[object], str] = str) -> SID:
    """`ta_to_sid` as one instantiation per transition: each rule renames
    its symbol's canonical variables to x_j and z_k afresh."""
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


# ---------------------------------------------------------------------------
# the lexer, one character at a time

_PUNCT = ["<-", "->", "!=", "|=", "..", "{", "}", "(", ")", "<", ">", "[", "]",
          ",", ";", ".", ":", "*", "=", "-", "+"]
# index literals are ASCII: str.isdigit also holds for "²", which int()
# refuses, and for "٣", which int() reads as 3
_DIGITS = frozenset("0123456789")


def reference_lex(text: str) -> list[Tok]:
    """`frontend._lex` as a loop over characters that tries each
    punctuation string in turn."""
    toks: list[Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# brute-force references

def all_partitions(vars):
    """Every partition of `vars`, as a list of EqFormula."""
    vars = list(vars)
    if not vars:
        return [EqFormula(frozenset())]
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


def eq_class(phi: EqFormula, v: Var) -> frozenset[Var]:
    """The class of v in the partition; empty when v does not occur."""
    return next((cls for cls in phi.classes if v in cls), frozenset())


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


def reference_derive(facts, rules) -> dict:
    """Each atom that the facts and the Horn rules (head, body) derive, with
    its least height: a fact 0, a rule's head one more than its highest body
    atom.  Every rule is re-scanned until no height changes."""
    heights = dict.fromkeys(facts, 0)
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if all(b in heights for b in body):
                h = 1 + max((heights[b] for b in body), default=0)
                if h < heights.get(head, math.inf):
                    heights[head] = h
                    changed = True
    return heights


def brute_force_profile(sid, depth=4):
    """Position i survives for B iff no partial unfolding of any root passes a
    non-root-parameter variable at position i of a B atom."""
    alive = {p: set(range(1, sid.arity(p) + 1)) for p in sid.predicates}
    for root in sid.predicates:
        params = set(sid.atom(root).args)
        for (_, atoms), _ in unfold_formula(sid, ((), (sid.atom(root),)), depth):
            for a in atoms:
                if isinstance(a, Pred):
                    for i, v in enumerate(a.args, start=1):
                        if v not in params:
                            alive[a.name].discard(i)
    return {p: frozenset(s) for p, s in alive.items()}


def assert_heights_match_brute_force(sid, max_depth=5):
    """`SID.heights` against the least depth at which the full unfolding
    walk completes each predicate, up to max_depth."""
    heights = sid.heights
    assert list(heights) == list(sid.predicates)
    for pred in sid.predicates:
        least = next((d for d in range(max_depth + 1)
                      if any(done for _, done in
                             unfold_formula(sid, ((), (sid.atom(pred),)), d))),
                     None)
        if least is None:
            assert heights[pred] > max_depth, pred
        else:
            assert heights[pred] == least, pred


def models_by_key(ms: dict[tuple, Model]) -> list[Model]:
    """The models of a bounded model set (`oracle.enumerate_models`), in
    order of their canonical keys."""
    return [ms[key] for key in sorted(ms)]


def trie_shapes(sid: SID) -> list[Shape]:
    """The shapes of a root SID's planned skeleton nodes, one per merge of
    each node's plan (`oracle._plan`), over every trie in `SID._nodes`."""
    shapes, stack = [], list(sid._nodes.values())
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        if node.plan is not None:
            shapes += [shape for _, _, shape in node.plan[1]]
    return shapes


def degree_sample(sid: SID, pred: str, depth: int) -> int:
    """Maximum degree over all bounded models; an empirical lower bound only."""
    best = 0
    for model in enumerate_models(sid, ((), (sid.atom(pred),)), depth).values():
        best = max(best, degree(model.config))
    return best


# ---------------------------------------------------------------------------
# exact forms and one-step successors

def exact_form(components: Iterable[str], bindings: Iterable[tuple[tuple[str, str], ...]],
               state_pairs: Iterable[tuple[str, str]],
               store: Iterable[tuple[Var, str]]) -> tuple:
    """A candidate (configuration, store) as the oracle writes it: its
    present ids, interaction bindings and state pairs, each sorted as text,
    and its store items in argument order.  Equal forms are equal
    candidates, so they have one canonical key."""
    return (tuple(sorted(components)), tuple(sorted(bindings)),
            tuple(sorted(state_pairs)), tuple(store))


def exact_of(candidate: tuple) -> tuple:
    """The exact form of a candidate as the oracle enumerates it, its shape
    and its column: the column's states go to the shape's carrier ids."""
    shape, column = candidate
    return shape.comps, shape.bindings, tuple(zip(shape.carrier, column)), shape.store


def from_exact(exact: tuple) -> tuple[Configuration, dict[Var, str]]:
    """The configuration and store that an exact form writes out."""
    comps, bindings, state_pairs, store = exact
    return (Configuration(frozenset(comps), frozenset(map(Interaction, bindings)), state_pairs),
            dict(store))


def reference_successors(behavior: Behavior, model: Model,
                         inter: Interaction) -> list[Configuration]:
    """The successors of firing inter in a model, built by `core.step` and
    sorted by `state_pairs`: the order in which `oracle._successor_keys`
    keys them."""
    return sorted(step(behavior, model.config, inter), key=lambda c: c.state_pairs)


def enumerate_pf_models(binders: Sequence[Var], atoms: Sequence[Atom], free: Sequence[Var],
                        states: Iterable[str]) -> Iterator[tuple[Shape, tuple]]:
    """All models of an exists-prefixed qpf formula, up to component renaming;
    each variable of the formula is free or bound.

    Yields each candidate, whose carrier covers the store range, as
    `oracle.enumerate_models` instantiates it, its shape and its column;
    junk existentials (classes touching no spatial atom and no free
    variable) are dropped, since the infinite pool always satisfies them.
    The formula's skeleton, its atoms but the state atoms, is a `Node` of
    its own, planned for this call.
    """
    node = Node(tuple(binders), tuple(a for a in atoms if type(a) is not StateAtom),
                tuple(free))
    pins = [(a.var, a.state) for a in atoms if type(a) is StateAtom]
    return _instantiate(_node_plan(node), pins, sorted(states))


def reference_pf_models(binders: Sequence[Var], atoms: Sequence[Atom],
                        free: Sequence[Var], states: Iterable[str]) -> Iterator[tuple]:
    """All models of an exists-prefixed qpf formula, up to component renaming:
    `enumerate_pf_models` as it was before it planned each skeleton once,
    which builds the classes, merges and interactions per formula.

    Yields the exact forms of (configuration, store) pairs whose carrier
    covers the store range (see `from_exact`); junk existentials (classes
    touching no spatial atom and no free variable) are dropped, since the
    infinite pool always satisfies them.
    """
    states = sorted(states)
    comp_atoms, inter_atoms, state_atoms, eqs, neqs = split_atoms(atoms)

    # free variables and binders first, then each atom's other variables
    # sorted (none, for an unfolding)
    allvars = dict.fromkeys([*free, *binders])
    for a in atoms:
        new = {v for v in atom_vars(a) if v not in allvars}
        if new:
            allvars.update(dict.fromkeys(sorted(new)))
    classes = Partition(allvars, eqs).classes()

    cls_of: dict[Var, int] = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            cls_of[v] = ci

    comp_classes: list[int] = []
    seen_comp: set[int] = set()
    for v in comp_atoms:
        ci = cls_of[v]
        if ci in seen_comp:
            return  # two component atoms forced equal: unsatisfiable
        seen_comp.add(ci)
        comp_classes.append(ci)
    other_classes = [ci for ci in range(len(classes)) if ci not in seen_comp]

    neq_cls = []
    for a, b in neqs:
        ca, cb = cls_of[a], cls_of[b]
        if ca == cb:
            return  # x != x
        neq_cls.append((ca, cb))

    ncomp = len(comp_classes)
    for assign in _reference_merges(other_classes, ncomp, 0, {}, 0):
        bucket = {ci: k for k, ci in enumerate(comp_classes)}
        bucket.update(assign)
        yield from _reference_instantiate(bucket, cls_of, inter_atoms, state_atoms,
                                neq_cls, free, states, ncomp)


def _reference_merges(other_classes: Sequence[int], ncomp: int, i: int,
            assign: dict[int, int], nabs: int) -> Iterator[dict[int, int]]:
    """Merges of other_classes[i:]: each non-component class joins a component
    bucket, an earlier absent bucket, or opens a fresh absent bucket
    (restricted growth)."""
    if i == len(other_classes):
        yield assign
        return
    ci = other_classes[i]
    for b in range(ncomp + nabs + 1):
        yield from _reference_merges(other_classes, ncomp, i + 1, {**assign, ci: b},
                           nabs + (1 if b == ncomp + nabs else 0))


def _reference_instantiate(bucket, cls_of, inter_atoms, state_atoms, neq_cls, free,
                 states, ncomp):
    def bucket_of_var(v: Var) -> int:
        return bucket[cls_of[v]]

    for ca, cb in neq_cls:
        if bucket[ca] == bucket[cb]:
            return

    # interactions: within-atom distinct, across atoms distinct
    tuples = []
    for a in inter_atoms:
        t = tuple((bucket_of_var(v), p) for v, p in a.bindings)
        comps = [b for b, _ in t]
        if len(set(comps)) != len(comps):
            return
        tuples.append(t)
    if len(set(tuples)) != len(tuples):
        return

    pins: dict[int, str] = {}
    for a in state_atoms:
        b = bucket_of_var(a.var)
        if pins.setdefault(b, a.state) != a.state:
            return

    present = set(range(ncomp))
    relevant = set(present)
    for t in tuples:
        relevant |= {b for b, _ in t}
    relevant |= {bucket_of_var(v) for v in free}

    # junk buckets (absent, untouched by interactions and store) are sound to
    # drop: the infinite pool supplies them in any pinned state
    names = {b: f"n{b}" for b in relevant}
    comps = [names[b] for b in present]
    bindings = [tuple((names[b], p) for b, p in t) for t in tuples]
    store = [(v, names[bucket_of_var(v)]) for v in free]
    pinned = [(names[b], q) for b, q in pins.items() if b in relevant]
    unpinned = [names[b] for b in sorted(relevant) if b not in pins]
    for choice in itertools.product(states, repeat=len(unpinned)):
        yield exact_form(comps, bindings, [*pinned, *zip(unpinned, choice)], store)


# ---------------------------------------------------------------------------
# rule positions

def reference_skeleton(rule: Rule) -> tuple[tuple, tuple[tuple[int, str], ...]]:
    """`Rule.skeleton` and `Rule.state_slots` as two separate walks over the
    atoms, each with its own map from a variable to its position among
    params + binders."""
    at = {v: i for i, v in enumerate(rule.params + rule.binders)}.__getitem__
    body = []
    for a in rule.atoms:
        kind = type(a)
        if kind is Inter:
            body.append((kind, tuple([at(v) for v, _ in a.bindings]),
                         tuple([p for _, p in a.bindings])))
        elif kind is not StateAtom:
            body.append((kind, tuple(map(at, atom_vars(a))), ()))
    skeleton = len(rule.params), len(rule.binders), tuple(body)
    at = {v: i for i, v in enumerate(rule.params + rule.binders)}
    slots = tuple((at[a.var], a.state) for a in rule.atoms if type(a) is StateAtom)
    return skeleton, slots


# ---------------------------------------------------------------------------
# canonical keys

def reference_state_key(skel: tuple, state_pairs: Iterable[tuple[str, str]]) -> tuple:
    """`oracle.state_key` as it was when a candidate was its state pairs,
    sorted by id: per part of the skeleton form (`oracle.skeleton_form`),
    the least (label, state) table over the part's labellings, where each
    twin group's states, sorted, go to its labels, sorted."""
    rho = dict(state_pairs)
    key = []
    for form, labels, groups, labellings in skel:
        flat = [q for grp in groups for q in sorted(rho[c] for c in grp)]
        table = min(tuple(map(flat.__getitem__, slots)) for slots in labellings)
        key.append((form, tuple(zip(labels, table))))
    return tuple(sorted(key))


def reference_key(g, nu):
    """The least serialization over every id order that keeps each group of
    equal three-round signatures together, groups in signature order."""
    ids = sorted(g.carrier)
    rho = g.state_map
    sig = {c: (c in g.components, rho[c],
               tuple(sorted((i.itype, pos) for i in g.interactions
                            for pos, cid in enumerate(i.components) if cid == c)),
               tuple(sorted(var_text(v) for v, cid in nu.items() if cid == c)))
           for c in ids}
    for _ in range(2):
        sig = {c: (sig[c], tuple(sorted(tuple(sig[d] for d in i.components)
                                        for i in g.interactions if c in i.components)))
               for c in ids}
    groups = {}
    for c in ids:
        groups.setdefault(sig[c], []).append(c)
    best = None
    for perm_choice in itertools.product(*[itertools.permutations(groups[k])
                                           for k in sorted(groups)]):
        order = [c for grp in perm_choice for c in grp]
        ren = {c: f"m{i}" for i, c in enumerate(order)}
        key = (
            tuple(sorted(ren[c] for c in g.components)),
            tuple(sorted(tuple((ren[c], p) for c, p in i.bindings)
                         for i in g.interactions)),
            tuple(sorted((ren[c], q) for c, q in g.state_pairs)),
            tuple(sorted((var_text(v), ren[c]) for v, c in nu.items())),
        )
        if best is None or key < best:
            best = key
    return best

# ---------------------------------------------------------------------------
# unfolding

# The formula-building unfolding that the template-based one replaced, kept
# as the reference for names, order and completeness of every unfolding.

@dataclass(frozen=True)
class _Pending:
    atom: Pred
    budget: int


def reference_unfold_formula(sid, f, depth):
    counter = itertools.count()
    binders0, atoms0 = prenex(f, counter)
    defined = set(sid.predicates)

    def wrap(items):
        out = []
        for a in items:
            if isinstance(a, Pred):
                if a.name not in defined:
                    raise UndefinedPredicate(a.name)
                out.append(_Pending(a, depth))
            else:
                out.append(a)
        return out

    results = []
    stack = [(binders0, wrap(atoms0))]
    while stack:
        binders, items = stack.pop()
        pend_at = next((i for i, a in enumerate(items) if isinstance(a, _Pending)), None)
        plain = [a.atom if isinstance(a, _Pending) else a for a in items]
        results.append(((binders, tuple(plain)), pend_at is None))
        if pend_at is None:
            continue
        pend = items[pend_at]
        if pend.budget == 0:
            continue
        successors = []
        for rule in sid.rules_of(pend.atom.name):
            rbinders, ratoms = prenex((rule.binders, rule.atoms), counter)
            mapping = dict(zip(rule.params, pend.atom.args))
            spliced = []
            for a in ratoms:
                a2 = substitute(a, mapping)
                if isinstance(a2, Pred):
                    spliced.append(_Pending(a2, pend.budget - 1))
                else:
                    spliced.append(a2)
            successors.append((binders + rbinders,
                               items[:pend_at] + spliced + items[pend_at + 1:]))
        stack.extend(reversed(successors))
    return results


# ---------------------------------------------------------------------------
# bounded models

def reference_models(sid, f, depth):
    """enumerate_models' entries as they were when each candidate was
    keyed afresh, with no shape, no memo, no skeleton node and no plan:
    the reference walk's complete unfoldings, each enumerated on its own,
    and per key the first candidate's (key, configuration, store items,
    provenance)."""
    closed, (atom,) = f
    free = [v for v in atom.args if v not in closed]
    entries = {}
    complete = [u for u, done in unfold_formula(sid, f, depth) if done]
    for k, (binders, atoms) in enumerate(complete):
        for c in reference_pf_models(binders, atoms, free, sid.behavior.states):
            g, nu = from_exact(c)
            key = canonical_model(g, nu)
            if key not in entries:
                entries[key] = (key, g, list(nu.items()), f"unfolding#{k}")
    return entries


# ---------------------------------------------------------------------------
# the reference: the rule-pairing search that class_equiv's key lookup
# replaced.  It normalises each body through its equalities and matches atoms
# as multisets under a bijection of the binders.  Each call joins the atoms
# as a predicate atom named by its position, so calls pair position by
# position, as their predicates do, and their arguments match under the same
# bijection.

def _norm_body(rule: Rule):
    pmap = {p: Var(f"x{i}") for i, p in enumerate(rule.params, start=1)}
    calls = [Pred(str(k), p.args) for k, p in enumerate(rule.preds)]
    qpf = [substitute(a, pmap) for a in (*rule.pf_atoms, *calls)
           if not isinstance(a, StateAtom)]
    eqs = [a for a in qpf if isinstance(a, Eq)]
    rest = [a for a in qpf if not isinstance(a, Eq)]

    # collapse existentials through equalities; free variables are kept
    bset = set(rule.binders)
    rep: dict[Var, Var] = {}
    canon_eqs: list[tuple[Var, Var]] = []
    for c in Partition(pairs=[(a.left, a.right) for a in eqs]).classes():
        freevs = sorted(v for v in c if v not in bset)
        r = freevs[0] if freevs else min(c)
        for w in c:
            rep[w] = r
        for w in freevs[1:]:
            canon_eqs.append((r, w))

    out_atoms = []
    for a in rest:
        a = substitute(a, rep)
        out_atoms.append(Neq(*sorted((a.left, a.right))) if isinstance(a, Neq) else a)
    out_atoms.extend(Eq(x, y) for x, y in sorted(canon_eqs))
    live = {v for a in out_atoms for v in atom_vars(a)}
    kept_binders = tuple(sorted({rep.get(b, b) for b in rule.binders} & live & bset))
    pred_heads = tuple((p.name, len(p.args)) for p in rule.preds)
    return kept_binders, tuple(out_atoms), pred_heads


def _atoms_match(atoms1, atoms2, binders1, binders2) -> bool:
    """Multiset equality of atom lists under a bijection of the binders."""
    if len(atoms1) != len(atoms2):
        return False
    if len(binders1) != len(binders2):
        return False
    return _match(0, atoms1, atoms2, set(binders1), set(binders2), set(), {}, {})


def _match(i: int, atoms1, atoms2, bset1: set[Var], bset2: set[Var],
           used: set[int], bij: dict[Var, Var], inv: dict[Var, Var]) -> bool:
    """Match atoms1[i:] into the unused atoms2, extending the bijection."""
    if i == len(atoms1):
        return True
    a = atoms1[i]
    for j, b in enumerate(atoms2):
        if j in used or type(a) is not type(b):
            continue
        pairs = _var_pairs(a, b)
        if pairs is None:
            continue
        added = []
        ok = True
        for x, y in pairs:
            bx, by = x in bset1, y in bset2
            if bx != by:
                ok = False
                break
            if not bx:
                if x != y:
                    ok = False
                    break
                continue
            if bij.get(x, y) != y or inv.get(y, x) != x:
                ok = False
                break
            if x not in bij:
                bij[x] = y
                inv[y] = x
                added.append((x, y))
        if ok and _match(i + 1, atoms1, atoms2, bset1, bset2, used | {j}, bij, inv):
            return True
        for x, y in added:
            del bij[x]
            del inv[y]
    return False


def _var_pairs(a, b):
    """Positional variable pairs of two atoms of one kind; None if they are
    interaction atoms over different ports or calls at different positions."""
    if isinstance(a, Inter) and [p for _, p in a.bindings] != [p for _, p in b.bindings]:
        return None
    if isinstance(a, Pred) and a.name != b.name:
        return None
    return list(zip(atom_vars(a), atom_vars(b)))


def _solve(k: int, all_c: list[list[int]], n1: int, heads1, heads2,
           arity: dict, part: Partition, pairing: list[tuple[int, int]],
           steps: Iterator[int]) -> bool:
    """Choose a candidate for rule k onwards (the first n1 rules of all_c are
    d1's), uniting the paired predicates in part; raises TimeoutError after
    200000 steps."""
    if next(steps) > 200000:
        raise TimeoutError
    if k == len(all_c):
        return True
    saved = part.parent[:]
    if k < n1:
        side1, side2, own, other = "1", "2", heads1[k], heads2
    else:
        side1, side2, own, other = "2", "1", heads2[k - n1], heads1
    for j in all_c[k]:
        ok = True
        for p1, p2 in zip(own, other[j]):
            # each class keeps one arity, so comparing the two predicates
            # compares their classes
            x, y = (side1, p1), (side2, p2)
            if arity[x] != arity[y]:
                ok = False
                break
            part.union(x, y)
        if ok:
            if k < n1:
                pairing.append((k, j))
            if _solve(k + 1, all_c, n1, heads1, heads2, arity, part, pairing, steps):
                return True
            if k < n1:
                pairing.pop()
        part.parent[:] = saved
    return False


def reference_class_equiv(d1: SID, d2: SID) -> ClassEquivResult:
    """Decide Def.-class equivalence by canonical rule matching.

    Searches a rule pairing in both directions together with an
    arity-preserving predicate correspondence; complete for SIDs whose rule
    bodies differ by state renaming plus equalities on quantified variables,
    which covers everything the reduction emits.
    """
    # rules share few distinct normalised bodies: number each (binders,
    # atoms) pair once and match each pair of numbers once
    body_ids: dict[tuple, int] = {}
    matches: dict[tuple[int, int], bool] = {}

    def norms(sid: SID) -> tuple[list, dict[tuple, list[int]]]:
        out, by_shape = [], {}
        for j, r in enumerate(sid.rules):
            b, a, ph = _norm_body(r)
            shape = (len(r.params), tuple(n for _, n in ph))
            out.append((b, a, ph, body_ids.setdefault((b, a), len(body_ids)), shape))
            # only rules of one shape (parameter count, head arities) can
            # pair; each shape lists its rules in ascending order
            by_shape.setdefault(shape, []).append(j)
        return out, by_shape

    (norm1, shapes1), (norm2, shapes2) = norms(d1), norms(d2)

    def rule_candidates(i: int, norms1, norms2, shapes) -> list[int]:
        b1, a1, _, id1, shape1 = norms1[i]
        out = []
        for j in shapes.get(shape1, ()):
            b2, a2, _, id2, _ = norms2[j]
            if (id1, id2) not in matches:
                matches[id1, id2] = _atoms_match(a1, a2, b1, b2)
            if matches[id1, id2]:
                out.append(j)
        return out

    cand1 = [rule_candidates(i, norm1, norm2, shapes2) for i in range(len(d1.rules))]
    cand2 = [rule_candidates(j, norm2, norm1, shapes1) for j in range(len(d2.rules))]
    if any(not c for c in cand1) or any(not c for c in cand2):
        return ClassEquivResult("inequivalent", None, None)

    arity = {}
    for sid, side in ((d1, "1"), (d2, "2")):
        for p in sid.predicates:
            arity[(side, p)] = sid.arity(p)

    # every predicate is registered now (SIDs reject undefined ones), so a
    # snapshot of the parent slots restores the partition exactly
    part = Partition(arity)

    # each rule's head, then its predicate atoms: paired position by position
    # with a candidate's, they are the constraints of choosing it
    def heads(sid: SID, norms) -> list[tuple[str, ...]]:
        return [(r.head, *(p for p, _ in ph)) for r, (_, _, ph, _, _) in zip(sid.rules, norms)]

    pairing: list[tuple[int, int]] = []
    try:
        if _solve(0, cand1 + cand2, len(cand1), heads(d1, norm1), heads(d2, norm2),
                  arity, part, pairing, itertools.count(1)):
            rel = sorted({(str(x[1]), str(part.items[r][1]))
                          for x, r in part.roots().items() if part.items[r] != x})
            return ClassEquivResult("equivalent", list(pairing), rel)
        return ClassEquivResult("inequivalent", None, None)
    except TimeoutError:
        return ClassEquivResult("unknown", None, None)


# ---------------------------------------------------------------------------
# the step against its plain form: the step before its per-symbol plan, its
# marker signatures and its one-pass marker check, kept verbatim; it reads a
# symbol's call arguments as trailing equalities on child-parameter variables

def childparam(l: int, j: int) -> Var:
    """The variable for parameter j of child l in the glued encoding."""
    return Var("%out", (l, j))


@dataclass(frozen=True)
class GluedSymbol:
    """A symbol in the encoding the reference step reads: the call arguments
    as trailing equalities childparam(l, j) = arg, and the arity tuple."""

    exvars: tuple[Var, ...]
    atoms: tuple
    arities: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.arities) - 1


def glue(alpha: AlphabetSymbol) -> GluedSymbol:
    eqs = tuple(Eq(childparam(l, j), v) for l, vs in enumerate(alpha.args, start=1)
                for j, v in enumerate(vs, start=1))
    return GluedSymbol(alpha.exvars, alpha.atoms + eqs, (alpha.arity, *map(len, alpha.args)))


def unglue(out: GluedSymbol, alpha: AlphabetSymbol) -> AlphabetSymbol:
    """An output of the reference step on glue(alpha) as a symbol with
    alpha's arguments; a step rewrites state atoms only, so the glue stays."""
    k = len(alpha.atoms)
    assert out.atoms[k:] == glue(alpha).atoms[k:]
    return AlphabetSymbol(out.exvars, out.atoms[:k], alpha.arity, alpha.args)


def reference_step(tau: InteractionType, alpha: AlphabetSymbol,
                   child_states: Sequence[EqFormula], behavior: Behavior,
                   maxarity: int, live_only: bool = True,
                   ) -> list[tuple[AlphabetSymbol, EqFormula, Witness]]:
    """`glued_reference_step` on alpha with its arguments glued back."""
    return [(unglue(out, alpha), phi, wit) for out, phi, wit in
            glued_reference_step(tau, glue(alpha), child_states, behavior, maxarity,
                                 live_only)]

def ttvars(tau: InteractionType, maxarity: int) -> frozenset[Var]:
    """The tracking variables of type tau: param(1..maxarity), begin(i)
    and end(i) per position."""
    vs = {param(i) for i in range(1, maxarity + 1)}
    vs |= {beginvar(i) for i in range(1, len(tau) + 1)}
    vs |= {endvar(i) for i in range(1, len(tau) + 1)}
    return frozenset(vs)


def reference_state_ok(phi: EqFormula, n: int) -> bool:
    """The non-entailment conditions on transducer states."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (beginvar(j) in eq_class(phi, beginvar(i))
                           or endvar(j) in eq_class(phi, endvar(i))
                           or endvar(j) in eq_class(phi, beginvar(i))):
                return False
    return True


def reference_state_live(phi: EqFormula, n: int, maxarity: int) -> bool:
    """Every open walk marker, a begin(i) or end(i) of phi with begin(i) and
    end(i) not proven equal, is proven equal to a node parameter."""
    for i in range(1, n + 1):
        if endvar(i) in eq_class(phi, beginvar(i)):
            continue
        for m in (beginvar(i), endvar(i)):
            cls = eq_class(phi, m)
            if cls and not any(param(j) in cls for j in range(1, maxarity + 1)):
                return False
    return True


def _reference_canonical_state(phi: EqFormula) -> EqFormula:
    # singleton parameter classes carry no information; marker singletons do
    keep = []
    for cls in phi.classes:
        if len(cls) > 1 or next(iter(cls)).name in ("%begin", "%end"):
            keep.append(cls)
    return EqFormula(frozenset(keep))


def glued_reference_step(tau: InteractionType, alpha: GluedSymbol,
                         child_states: Sequence[EqFormula], behavior: Behavior,
                         maxarity: int, live_only: bool = True,
                         ) -> list[tuple[GluedSymbol, EqFormula, Witness]]:
    """All transitions (alpha, alpha')(child_states) -> state for the type tau.

    Enumerates the choice of rewritten component atoms (one per fresh walk
    position, each backed by a behavior transition over the matching port),
    the optional guess of the fired interaction atom, and discards any result
    that would merge distinct walk markers and, when live_only, any result
    with an open walk marker not equal to a node parameter.
    """
    n = len(tau)
    h = alpha.rank
    if len(child_states) != h:
        raise ArityMismatch(f"symbol of rank {h} given {len(child_states)} child states")
    if alpha.arities[0] > maxarity:
        raise ArityMismatch(f"symbol arity {alpha.arities[0]} exceeds maxarity {maxarity}")

    # the walk positions whose begin/end markers each child state carries
    begin_sets: list[set[int]] = []
    end_sets: list[set[int]] = []
    for st in child_states:
        begins, ends = set(), set()
        for v in itertools.chain.from_iterable(st.classes):
            if v.name == "%begin" and v.tag[0] <= n:
                begins.add(v.tag[0])
            elif v.name == "%end" and v.tag[0] <= n:
                ends.add(v.tag[0])
        begin_sets.append(begins)
        end_sets.append(ends)
    for s1, s2 in itertools.combinations(begin_sets, 2):
        if s1 & s2:
            return []
    if sum(1 for s in end_sets if s) > 1:
        return []
    used_begin = set().union(*begin_sets) if begin_sets else set()
    ends_present = any(end_sets)

    # rewrite candidates: variables carrying both a component and a state atom
    state_idx: dict[Var, list[int]] = {}
    comp_vars: set[Var] = set()
    fired_candidates: list[int] = []
    eq_pairs: list[tuple[Var, Var]] = []
    for idx, a in enumerate(alpha.atoms):
        if isinstance(a, Comp):
            comp_vars.add(a.var)
        elif isinstance(a, StateAtom):
            state_idx.setdefault(a.var, []).append(idx)
        elif isinstance(a, Inter) and tuple(p for _, p in a.bindings) == tau:
            fired_candidates.append(idx)
        elif isinstance(a, Eq):
            eq_pairs.append((a.left, a.right))
    candidates: dict[Var, str] = {}
    for v in sorted(comp_vars):
        states = {alpha.atoms[i].state for i in state_idx.get(v, [])}
        if len(states) == 1:
            candidates[v] = states.pop()

    avail = [i for i in range(1, n + 1) if i not in used_begin]

    # the equalities of the base conjunction shared by all choices: those of
    # the symbol itself, plus child states with their parameters rebased
    # onto this node's childparam variables
    base = list(eq_pairs)
    for l, st in enumerate(child_states, start=1):
        al = alpha.arities[l]
        ren = {param(j): childparam(l, j) for j in range(1, al + 1)}
        for cls in st.classes:
            members = [ren.get(v, v) for v in cls]
            if any(v.name == "%in" for v in members):
                raise ArityMismatch(f"child state mentions parameter beyond arity {al}")
            base += [(members[0], v) for v in members]

    keepvars = ttvars(tau, maxarity)
    results: list[tuple[AlphabetSymbol, EqFormula, Witness]] = []

    fired_opts: list[int | None] = [None]
    if not ends_present:
        fired_opts += fired_candidates
    for rewrites in _reference_rewrite_choices(tau, avail, candidates, behavior, 0, (), frozenset()):
        for fired in fired_opts:
            conj = Partition((), base)
            for i, xi, _, _ in rewrites:
                conj.union(beginvar(i), xi)
            if fired is not None:
                atom = alpha.atoms[fired]
                for pos, (z, _) in enumerate(atom.bindings, start=1):
                    conj.union(endvar(pos), z)
            # project onto the tracking variables
            phi = _reference_canonical_state(EqFormula(frozenset(
                kept for cls in conj.classes() if (kept := keepvars.intersection(cls)))))
            if not reference_state_ok(phi, n):
                continue
            if live_only and not reference_state_live(phi, n, maxarity):
                continue
            out_atoms = list(alpha.atoms)
            for _, xi, q, q2 in rewrites:
                out_atoms[state_idx[xi][0]] = StateAtom(xi, q2)
            out = GluedSymbol(alpha.exvars, tuple(out_atoms), alpha.arities)
            results.append((out, phi, Witness(tau, rewrites, fired)))
    return results


def _reference_rewrite_choices(tau: InteractionType, avail: Sequence[int],
                               candidates: dict[Var, str], behavior: Behavior, idx: int,
                               chosen: tuple[tuple[int, Var, str, str], ...],
                               used_vars: frozenset[Var]) -> Iterator[tuple[tuple[int, Var, str, str], ...]]:
    """`chosen` extended by every subset of the positions avail[idx:], each
    mapped to a distinct rewritable variable with an enabled behavior
    transition, as (position, var, q, q') rewrites; a choice comes before its
    extensions."""
    yield chosen
    for k in range(idx, len(avail)):
        i = avail[k]
        port = tau[i - 1]
        for xi in sorted(set(candidates) - used_vars):
            q = candidates[xi]
            for q2 in behavior.targets(q, port):
                yield from _reference_rewrite_choices(tau, avail, candidates, behavior, k + 1,
                                                      (*chosen, (i, xi, q, q2)),
                                                      used_vars | {xi})


# ---------------------------------------------------------------------------
# the image

def reference_image(ta, root_state, sid, behavior):
    """The round-robin image loop that re-enumerates every pool each round
    and steps every rule transition with the reference step that keeps dead
    states: the reference for the semi-naive, pruned one."""
    maxarity = max((sid.arity(p) for p in sid.predicates), default=0)
    taus = sorted(interaction_types(sid))
    transitions = {}
    discovered = {}
    finals = []

    for tau in taus:
        n = len(tau)
        by_base = {}
        done = set()
        steps = {}
        changed = True
        while changed:
            changed = False
            for ti, tr in enumerate(ta.transitions):
                pools = [by_base.get(c, []) for c in tr.children]
                if any(not p for p in pools):
                    continue
                for combo in itertools.product(*pools):
                    key = (ti, combo)
                    if key in done:
                        continue
                    done.add(key)
                    skey = (tr.symbol, combo)
                    if skey not in steps:
                        steps[skey] = reference_step(tau, tr.symbol, list(combo),
                                                     behavior, maxarity, live_only=False)
                    for out_sym, phi, wit in steps[skey]:
                        ps = ProductState(tr.result, phi, tau)
                        if ps not in discovered:
                            discovered[ps] = None
                            by_base.setdefault(tr.result, []).append(phi)
                            changed = True
                            if tr.result == root_state and all(
                                    endvar(i) in eq_class(phi, beginvar(i))
                                    for i in range(1, n + 1)):
                                finals.append(ps)
                        kids = tuple(ProductState(c, combo[l], tau)
                                     for l, c in enumerate(tr.children))
                        ptr = TaTransition(out_sym, kids, ps)
                        transitions.setdefault(ptr, []).append(wit)

    product = TreeAutomaton.make(transitions, finals=finals, states=tuple(discovered))
    per_tau = {tau: sum(1 for s in discovered if s.tau == tau) for tau in taus}
    return ImageResult(product, {tr: tuple(ws) for tr, ws in transitions.items()}, per_tau)


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
