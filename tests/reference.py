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
from clhavoc.logic import (Atom, Comp, Eq, Inter, Node, Pred, Prenex, Rule, SID, StateAtom, Var,
                           atom_vars, boundvar, param, split_atoms, substitute,
                           unfold_formula, var_text)
from clhavoc.oracle import Model, Shape, _instantiate, _node_plan, enumerate_models


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
# the token ring

TOKEN = Behavior.make(["in", "out"], ["H", "T"],
                      [("T", "out", "H"), ("H", "in", "T")])


def ring_config(states):
    n = len(states)
    comps = [f"c{i+1}" for i in range(n)]
    inters = [Interaction.make((comps[i], "out"), (comps[(i + 1) % n], "in"))
              for i in range(n)]
    return Configuration.make(comps, inters, dict(zip(comps, states)))
