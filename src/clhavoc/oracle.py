"""Brute-force ground truth at desk scale.

Models of a predicate atom are enumerated from its complete unfoldings: the
equalities fix a base partition of the variables, the remaining classes are
optionally merged (a store may identify variables that no atom separates),
and unpinned carrier ids range over the behavior's states.  The state-free
part of that work is a plan per skeleton, the unfolding without its state
atoms.  `complete_unfoldings` walks a trie of skeleton nodes and yields each
complete unfolding as its node and its state atoms; a node's plan is built
on first use and kept on the node, which lives in the root SID, so the
source predicate, the reduction's targets and every depth share it.  Model
sets are kept canonical up to a component renaming that also rewrites the
store, so the havoc and entailment checks decide membership by canonical
key.  Each model keeps the keys of its one-step successors, so the direct
check and cross-validation key each successor once.  A successor is fired on its
model's column (`_fire`): it keeps its model's components, bindings,
store and skeleton form, so no configuration is built for it, and
`core.step` does not run.

A key has two halves.  The skeleton form (`skeleton_form`) is the
candidate without its states, searched once per connected part of its
carrier; `state_key` reads a candidate's states through the labellings
that reach each part's least form, laid over the carrier (`column_layout`).
`canonical_model` computes both halves at once from a configuration.

A candidate is a `Shape`, its components, bindings and store, with a
column: the state of each carrier id, in carrier order.  Each merge of a
node's plan holds the shape of its candidates, so each shape's skeleton
form is searched once, and each shape keys each of its columns once
(`Shape.key`), for enumeration and successors alike.  A key depends only
on the candidate, so the shapes on the root SID's trie serve every
extension of the root, while model sets stay per SID.  A model builds its
configuration on first read, so only a counterexample, the command line
and the tests build one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Behavior, Configuration, Interaction
from .eqform import Partition
from .logic import (Inter, Node, Prenex, SID, Var, complete_unfoldings, split_atoms,
                    var_text)


# ---------------------------------------------------------------------------
# canonical forms

def canonical_model(g: Configuration, nu: Mapping[Var, str]) -> tuple:
    """The canonical key of a configuration and store: its states written
    through the labellings of its skeleton form.

    The checks key candidates from their shapes instead; this is the entry
    point for keying a configuration as it stands, carrier included, which
    the tests and the benchmark tracer use."""
    carrier = [c for c, _ in g.state_pairs]
    skel = skeleton_form(g.components, (i.bindings for i in g.interactions), carrier, nu.items())
    return state_key(column_layout(skel, carrier), [q for _, q in g.state_pairs])


def skeleton_form(components: Iterable[str],
                  bindings: Iterable[tuple[tuple[str, str], ...]],
                  carrier: Iterable[str], store: Iterable[tuple[Var, str]]) -> tuple:
    """The state-free half of a canonical key, one entry per connected part
    of the carrier (ids are linked when one interaction binds them): the
    part's least serialized form (components, bindings, store) over the
    leaves of an individualisation-refinement search (McKay & Piperno,
    Practical Graph Isomorphism II, 2014), and every leaf labelling that
    reaches it.

    Colours are isomorphism-invariant: refinement ranks the distinct colour
    values, and the search branches on the members of an invariantly chosen
    cell.  So renamed copies reach the same set of leaves.  Two ids of a part
    are twins when they are both present or both absent, are named by the
    same store variables and have equal incidences with the id itself
    masked.  Twins share no interaction, so swapping two of them is an
    automorphism that fixes every other id, and the search branches on one
    member per twin group: the leaves below a skipped member are those below
    a kept one composed with twin swaps, which `state_key` cannot tell apart.

    A part is (form, labels, groups, labellings): its labels in sorted
    order, its twin groups, and per labelling, for each label in that
    order, the index of its state among the groups' sorted states laid end
    to end.
    """
    comps = set(components)
    carrier = list(carrier)
    inc: dict[str, list] = {c: [] for c in carrier}
    names: dict[str, list] = {c: [] for c in carrier}
    links = Partition(carrier)
    for b in bindings:
        ids = tuple(c for c, _ in b)
        itype = tuple(p for _, p in b)
        for pos, c in enumerate(ids):
            inc[c].append((itype, pos, ids))
            links.union(c, ids[0])
    for v, c in store:
        names[c].append(var_text(v))
    parts = []
    for ids in links.classes():
        # the part's interactions, each from its first id
        own = [tuple(zip(d, t)) for c in ids for t, pos, d in inc[c] if pos == 0]
        col, by_signature = {}, {}
        for c in ids:
            present, named = c in comps, tuple(sorted(names[c]))
            col[c] = (present, tuple(sorted((t, pos) for t, pos, _ in inc[c])), named)
            masked = tuple(sorted((t, pos, d[:pos] + d[pos + 1:]) for t, pos, d in inc[c]))
            by_signature.setdefault((present, named, masked), []).append(c)
        groups = tuple(by_signature.values())
        twin = {c: k for k, grp in enumerate(groups) for c in grp}
        best, labellings = None, set()
        for leaf in _leaves(ids, inc, _refine(ids, inc, col), twin):
            ren = {c: f"m{leaf[c]}" for c in ids}
            form = (tuple(sorted(ren[c] for c in ids if c in comps)),
                    tuple(sorted(tuple((ren[d], p) for d, p in b) for b in own)),
                    tuple(sorted((x, ren[c]) for c in ids for x in names[c])))
            if best is None or form < best:
                best, labellings = form, set()
            if form == best:
                flat = [label for grp in groups for label in sorted(ren[c] for c in grp)]
                labellings.add(tuple(k for _, k in sorted(zip(flat, itertools.count()))))
        parts.append((best, tuple(sorted(f"m{k}" for k in range(len(ids)))), groups,
                      tuple(labellings)))
    return tuple(parts)


def column_layout(skel: tuple, carrier: Sequence[str]) -> tuple:
    """A skeleton form laid over a column, the state of each carrier id in
    carrier order: per part (form, labels, twins, perms), its twin groups of
    more than one id as sorted column indices, and per labelling the column
    index of each label's state once each twin group's states are sorted
    into the group's indices."""
    at = {c: i for i, c in enumerate(carrier)}
    layout = []
    for form, labels, groups, labellings in skel:
        groups = [sorted(map(at.__getitem__, grp)) for grp in groups]
        index = [i for grp in groups for i in grp]
        layout.append((form, labels, tuple(tuple(grp) for grp in groups if len(grp) > 1),
                       tuple(tuple(map(index.__getitem__, slots)) for slots in labellings)))
    return tuple(layout)


def state_key(layout: tuple, column: Sequence[str]) -> tuple:
    """A candidate's canonical key from its skeleton form, laid over its
    carrier (`column_layout`), and its column: per part, the least (label,
    state) table over the part's labellings, where each twin group's
    states, sorted, go to its labels, sorted.

    Keys are equal exactly for renamed copies.  A renaming maps the leaves
    of a part onto the leaves of its copy's part, and twin groups onto twin
    groups, so the least table is the same; a disjoint union is fixed by the
    multiset of its parts.  Conversely, a table is the part's states moved
    by a permutation of twins, an automorphism of the skeleton, and written
    through a labelling, so the (form, table) pairs describe the candidate
    up to renaming.
    """
    key = []
    for form, labels, twins, perms in layout:
        if twins:
            column = list(column)
            for grp in twins:
                for i, q in zip(grp, sorted(column[i] for i in grp)):
                    column[i] = q
        table = min(tuple(map(column.__getitem__, perm)) for perm in perms)
        key.append((form, tuple(zip(labels, table))))
    return tuple(sorted(key))


def _refine(ids: list[str], inc: dict[str, list], col: dict) -> dict[str, int]:
    """Rank the distinct colour values, then split each cell by its
    neighbourhood; the partition only splits, so it is stable once the number
    of cells holds."""
    n = 0
    while True:
        order = {x: k for k, x in enumerate(sorted(set(col.values())))}
        col = {c: order[col[c]] for c in ids}
        if len(order) in (n, len(ids)):
            return col
        n = len(order)
        col = {c: (col[c], tuple(sorted((t, pos, tuple(col[d] for d in comps))
                                        for t, pos, comps in inc[c])))
               for c in ids}


def _leaves(ids: list[str], inc: dict[str, list], col: dict[str, int],
            twin: dict[str, int]) -> Iterator[dict[str, int]]:
    """The discrete colourings below the refined colouring col, branching on
    one member of each twin group in the target cell."""
    cells: dict[int, list[str]] = {}
    for c in ids:
        cells.setdefault(col[c], []).append(c)
    if len(cells) == len(ids):
        yield col
        return
    # smallest non-singleton cell, ties broken by colour
    _, k = min((len(m), k) for k, m in cells.items() if len(m) > 1)
    tried = set()
    for v in cells[k]:
        if twin[v] not in tried:
            tried.add(twin[v])
            yield from _leaves(ids, inc, _refine(ids, inc, {c: 2 * col[c] + (c == v)
                                                            for c in ids}), twin)


@dataclass(eq=False)
class Shape:
    """What the candidates of one merge of a node's plan share (`_plan`):
    their components, bindings and store, sorted as text but the store in
    argument order, and, each formed on first use, their carrier, their
    component and interaction sets, their skeleton form laid over the
    carrier and their firing plan.  The carrier is the present ids, the
    bound ids and the store range, sorted; a candidate of the shape is its
    column, the state of each carrier id in carrier order.  `keys` holds the
    canonical key of each column keyed so far."""

    comps: tuple[str, ...]
    bindings: tuple[tuple[tuple[str, str], ...], ...]
    store: tuple[tuple[Var, str], ...]
    keys: dict[tuple[str, ...], tuple] = field(default_factory=dict, repr=False)

    @cached_property
    def carrier(self) -> tuple[str, ...]:
        return tuple(sorted({*self.comps, *(c for b in self.bindings for c, _ in b),
                             *(c for _, c in self.store)}))

    @cached_property
    def components(self) -> frozenset[str]:
        return frozenset(self.comps)

    @cached_property
    def interactions(self) -> frozenset[Interaction]:
        return frozenset(map(Interaction, self.bindings))

    @cached_property
    def layout(self) -> tuple:
        return column_layout(skeleton_form(self.comps, self.bindings, self.carrier, self.store),
                             self.carrier)

    @cached_property
    def firing(self) -> dict[Interaction, tuple[tuple[int, ...], tuple[str, ...], bool]]:
        """Per interaction, in text order: the indices of its components in
        the column, its ports, and whether all its components are present."""
        at = {c: i for i, c in enumerate(self.carrier)}
        return {inter: (tuple(map(at.__getitem__, inter.components)), inter.itype,
                        all(c in self.components for c in inter.components))
                for inter in sorted(self.interactions, key=repr)}

    def key(self, column: tuple[str, ...]) -> tuple:
        """The canonical key of the candidate with this column, keyed
        once."""
        key = self.keys.get(column)
        if key is None:
            key = self.keys[column] = state_key(self.layout, column)
        return key


@dataclass(eq=False)
class Model:
    """A kept candidate, its shape and column, and the unfolding it came
    from.  Its configuration is built on first read; two models are equal
    when their configurations and provenances are."""

    provenance: str
    # its key in its set, which stored successor keys share
    key: tuple = field(repr=False)
    # what it shares with the other candidates of its shape, its store too
    shape: Shape = field(repr=False)
    column: tuple[str, ...]
    # canonical keys of the one-step successors, per fired interaction,
    # filled by `_successor_keys` and freed with the model's set
    steps: dict[Interaction, tuple[tuple, ...]] = field(default_factory=dict, repr=False)

    @cached_property
    def config(self) -> Configuration:
        shape = self.shape
        return Configuration(shape.components, shape.interactions,
                             tuple(zip(shape.carrier, self.column)))

    @property
    def store(self) -> dict[Var, str]:
        return dict(self.shape.store)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Model:
            return NotImplemented
        return (self.config, self.provenance) == (other.config, other.provenance)


# ---------------------------------------------------------------------------
# model enumeration

def _node_plan(node: Node) -> tuple[dict, list]:
    """The node's plan, built on first use and kept on the node."""
    if node.plan is None:
        comps, inters, _, eqs, neqs = split_atoms(node.atoms)
        node.plan = _plan(node.free, node.binders, comps, inters, eqs, neqs)
    return node.plan


def _plan(free: Sequence[Var], binders: Sequence[Var], comp_vars: Sequence[Var],
          inter_atoms: Sequence[Inter], eqs: Sequence[tuple[Var, Var]],
          neqs: Sequence[tuple[Var, Var]]) -> tuple[dict, list]:
    """The class of each variable, and per merge of the classes that the
    disequalities and interaction atoms allow: the bucket of each class, the
    carrier index of each relevant bucket, in bucket order, and the `Shape`
    of its candidates, their components, bindings and store.

    Equalities fix the classes, free variables first, then binders; each
    component atom opens a present bucket, and every other class joins one
    (`_merges`).  Interaction atoms bind distinct buckets within an atom
    and distinct tuples across atoms.  Relevant buckets are the present
    ones and those an interaction or the store touches."""
    classes = Partition([*free, *binders], eqs).classes()
    cls_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    comp_classes: list[int] = []
    for v in comp_vars:
        if cls_of[v] in comp_classes:
            return cls_of, []  # two component atoms forced equal: unsatisfiable
        comp_classes.append(cls_of[v])
    other_classes = [ci for ci in range(len(classes)) if ci not in comp_classes]
    neq_cls = [(cls_of[a], cls_of[b]) for a, b in neqs]
    if any(ca == cb for ca, cb in neq_cls):
        return cls_of, []  # x != x

    ncomp = len(comp_classes)
    merges = []
    for assign in _merges(other_classes, ncomp, 0, {}, 0):
        bucket = {ci: k for k, ci in enumerate(comp_classes)}
        bucket.update(assign)
        if any(bucket[ca] == bucket[cb] for ca, cb in neq_cls):
            continue
        tuples = [tuple((bucket[cls_of[v]], p) for v, p in a.bindings) for a in inter_atoms]
        if (len(set(tuples)) != len(tuples)
                or any(len({b for b, _ in t}) != len(t) for t in tuples)):
            continue
        relevant = sorted({*range(ncomp), *(b for t in tuples for b, _ in t),
                           *(bucket[cls_of[v]] for v in free)})
        # junk buckets (absent, untouched by interactions and store) are
        # sound to drop: the infinite pool supplies them in any pinned state
        names = {b: f"n{b}" for b in relevant}
        carrier = sorted(names.values())
        merges.append((bucket, {b: carrier.index(names[b]) for b in relevant},
                       Shape(tuple(sorted(names[b] for b in range(ncomp))),
                             tuple(sorted(tuple((names[b], p) for b, p in t) for t in tuples)),
                             tuple((v, names[bucket[cls_of[v]]]) for v in free))))
    return cls_of, merges


def _merges(other_classes: Sequence[int], ncomp: int, i: int,
            assign: dict[int, int], nabs: int) -> Iterator[dict[int, int]]:
    """Merges of other_classes[i:]: each non-component class joins a component
    bucket, an earlier absent bucket, or opens a fresh absent bucket
    (restricted growth)."""
    if i == len(other_classes):
        yield assign
        return
    ci = other_classes[i]
    for b in range(ncomp + nabs + 1):
        yield from _merges(other_classes, ncomp, i + 1, {**assign, ci: b},
                           nabs + (1 if b == ncomp + nabs else 0))


def _instantiate(plan: tuple[dict, list], state_atoms: Iterable[tuple[Var, str]],
                 states: list[str]) -> Iterator[tuple[Shape, tuple]]:
    """The candidates of a plan under a formula's state atoms, given as
    (variable, state) pairs, each as its merge's shape and its column: per
    merge, the state atoms pin their buckets (a bucket pinned to two states
    drops the merge), and the other relevant buckets range over the states,
    in bucket order."""
    cls_of, merges = plan
    pin_cls = [(cls_of[v], q) for v, q in state_atoms]
    for bucket, at, shape in merges:
        pins: dict[int, str] = {}
        if any(pins.setdefault(bucket[ci], q) != q for ci, q in pin_cls):
            continue
        column = [""] * len(at)
        for b, q in pins.items():
            if b in at:
                column[at[b]] = q
        unpinned = [i for b, i in at.items() if b not in pins]
        for choice in itertools.product(states, repeat=len(unpinned)):
            for i, q in zip(unpinned, choice):
                column[i] = q
            yield shape, tuple(column)


def enumerate_models(sid: SID, f: Prenex, depth: int) -> dict[tuple, Model]:
    """Canonical models over all complete unfoldings of f = (closed, (atom,)),
    one predicate atom with some of its arguments existentially closed; the
    store ranges over the atom's other arguments, in argument order.  The
    set maps each model's canonical key to the model, in order of first
    enumeration.

    Built once per SID object, formula and depth, in the SID's memo, or in
    its base's memo for a predicate of the base (see `SID.extend`), which
    unfolds there alike; sets are shared between callers, so do not modify
    one (successor keys are filled in as they are first asked for).  Each
    complete unfolding comes as its skeleton node and its state atoms
    (`complete_unfoldings`); a node, and so its plan, lives in the root
    SID, so each skeleton is planned once per root SID, for every depth,
    predicate name and extension.  Each candidate comes as its merge's
    shape, which keys it once per root SID, and its column; a model keeps
    both and builds no configuration until one is read."""
    _, (atom,) = f
    while sid._base is not None and atom.name in sid._base.predicates:
        sid = sid._base
    memo = sid._memo
    if (f, depth) not in memo:
        states = sorted(sid.behavior.states)
        ms: dict[tuple, Model] = {}
        for k, (node, pins) in enumerate(complete_unfoldings(sid, f, depth)):
            for shape, column in _instantiate(_node_plan(node), pins, states):
                key = shape.key(column)
                if key not in ms:
                    ms[key] = Model(f"unfolding#{k}", key, shape, column)
        memo[f, depth] = ms
    return memo[f, depth]


# ---------------------------------------------------------------------------
# havoc invariance, entailment, reduction cross-validation

@dataclass
class Counterexample:
    config: Configuration
    store: dict[Var, str]
    interaction: Interaction | None
    successor: Configuration | None


@dataclass
class HavocReport:
    invariant: bool
    depth: int
    models: int
    counterexample: Counterexample | None


def _model_order(ms: dict[tuple, Model]) -> list[tuple[tuple, Model]]:
    return sorted(ms.items(), key=lambda kv: (len(kv[1].shape.comps), kv[0]))


def _fire(behavior: Behavior, model: Model, inter: Interaction) -> list[tuple]:
    """The columns of the successors of firing inter in the model, distinct
    and sorted: copies of the model's column with each bound component's
    state replaced by a target of its port, one column per choice of
    targets."""
    column = model.column
    idx, ports, _ = model.shape.firing[inter]
    columns = set()
    for combo in itertools.product(*(behavior.targets(column[i], p)
                                     for i, p in zip(idx, ports))):
        successor = list(column)
        for i, q in zip(idx, combo):
            successor[i] = q
        columns.add(tuple(successor))
    return sorted(columns)


def _successor_keys(sid: SID, ms: dict[tuple, Model], model: Model,
                    inter: Interaction) -> tuple[tuple, ...]:
    """Canonical keys of the successors of firing inter in the model, a
    member of sid's set ms, in the order of `core.step`'s successors sorted
    by `state_pairs`; computed once per model and interaction.  A key that
    ms holds is stored as its member's own key, so the stored keys copy none
    of ms's.

    Firing changes states and never ids, so a successor has its model's
    components, bindings, store and carrier: its model's shape.  So each
    column `_fire` returns is its successor's column, which the shape keys
    (`Shape.key`), and zipped with the carrier it is its successor's
    sorted `state_pairs`.  `core.step` returns one configuration per
    distinct column, and configurations of one shape order as their
    columns, so sorting the distinct columns gives its successors in the
    order of their sorted `state_pairs`."""
    keys = model.steps.get(inter)
    if keys is None:
        keys = []
        for column in _fire(sid.behavior, model, inter):
            key = model.shape.key(column)
            member = ms.get(key)
            keys.append(key if member is None else member.key)
        keys = model.steps[inter] = tuple(keys)
    return keys


def havoc_invariant_bounded(sid: SID, pred: str, depth: int) -> HavocReport:
    """Check closure of the bounded model set under single steps.

    One step suffices: multi-step closure follows inductively once every
    one-step successor stays in the model set, which its canonical key
    decides.
    """
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    for _, model in _model_order(ms):
        for inter in model.shape.firing:
            for k, key in enumerate(_successor_keys(sid, ms, model, inter)):
                if key not in ms:
                    g = model.config
                    g2 = Configuration(g.components, g.interactions, tuple(
                        zip(model.shape.carrier, _fire(sid.behavior, model, inter)[k])))
                    return HavocReport(False, depth, len(ms),
                                       Counterexample(g, model.store, inter, g2))
    return HavocReport(True, depth, len(ms), None)


@dataclass
class EntailReport:
    holds: bool
    depth: int
    lhs_models: int
    counterexample: Counterexample | None


def entails_bounded(sid: SID, lhs: str, rhs: str, depth: int) -> EntailReport:
    """Does every bounded model of lhs satisfy rhs (bounded)?

    The right-hand side's extra parameters are existentially closed, so its
    models are over lhs's parameters and a left model holds iff its key is
    among them."""
    na, nb = sid.arity(lhs), sid.arity(rhs)
    if nb < na:
        raise ValueError(f"{rhs} has smaller arity than {lhs}")
    ms = enumerate_models(sid, ((), (sid.atom(lhs),)), depth)
    if not ms:  # no model to check: skip unfolding the right-hand side
        return EntailReport(True, depth, 0, None)
    rhs_atom = sid.atom(rhs)
    rhs_models = enumerate_models(sid, (rhs_atom.args[na:], (rhs_atom,)), depth)
    for key, model in _model_order(ms):
        if key not in rhs_models:
            return EntailReport(False, depth, len(ms),
                                Counterexample(model.config, model.store, None, None))
    return EntailReport(True, depth, len(ms), None)


@dataclass
class CrossReport:
    equal: bool
    depth: int
    left_size: int
    right_size: int
    left_only: list[tuple]
    right_only: list[tuple]


def cross_validate_reduction(sid: SID, pred: str, depth: int,
                             result) -> CrossReport:
    """Set-equality between one-step successors of the predicate's bounded
    models (all stepped components present) and the bounded models of the
    derived target predicates, modulo component renaming.

    Targets are enumerated over the combined SID, reusing the model sets the
    entailments built there; no derived rule calls a source predicate, so a
    target unfolds there as in the derived SID.  Successor keys are those
    the direct check stored, where it has run."""
    left: set[tuple] = set()
    ms = enumerate_models(sid, ((), (sid.atom(pred),)), depth)
    for model in ms.values():
        for inter, (_, _, present) in model.shape.firing.items():
            if present:
                left.update(_successor_keys(sid, ms, model, inter))
    right: dict[tuple, Model] = {}
    for target in result.targets:
        right.update(enumerate_models(result.combined_sid,
                                      ((), (result.combined_sid.atom(target),)),
                                      depth))
    left_only = sorted(k for k in left if k not in right)
    right_only = sorted(k for k in right if k not in left)
    return CrossReport(not left_only and not right_only, depth,
                       len(left), len(right), left_only, right_only)
