"""The interaction-typed havoc transducer and its image computation.

A transducer state is a partition of the type's tracking variables: the
node parameters param(1..maxarity) plus one begin/end marker per position of
the interaction type.  begin(i) enters the state when the component atom
serving position i is rewritten, end(i) when the fired interaction atom is
guessed; both stay visible afterwards, even as singletons, because their
presence is what rules out consuming the same walk twice.  A run accepts when
every begin(i) has been proven equal to end(i).  A step renames each child
state's parameters to the arguments its symbol passes that child.

The step and the image hold a state as its key: one integer per tracking
slot, param(1..maxarity), begin(1..n) and end(1..n) in that order, holding
the slot's class label, classes numbered in order of first occurrence, or -1
when the slot is absent.  A parameter alone in its class is absent; a marker
alone in its class is kept.  Equal partitions have equal keys.  An
`EqFormula` is built only for a state the image keeps (`formula_of`;
`key_of` goes the other way).

The product with the rule automaton is built on the fly: only live transducer
states reachable from the trees below the checked predicate are ever
materialized.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import Behavior
from .eqform import EqFormula
from .logic import Comp, Eq, Inter, SID, StateAtom, Var, beginvar, derive, endvar, param
from .automata import AlphabetSymbol, TaTransition, TreeAutomaton, useful_states


class ArityMismatch(ValueError):
    pass


InteractionType = tuple[str, ...]


def interaction_types(sid: SID) -> frozenset[InteractionType]:
    """All ordered port tuples of interaction atoms occurring in the rules."""
    return frozenset(ports for rule in sid.rules
                     for kind, _, ports in rule.skeleton[2] if kind is Inter)


Key = tuple[int, ...]


def _tracking(n: int, maxarity: int) -> tuple[Var, ...]:
    """The tracking variables of a type of length n, in slot order."""
    return (*map(param, range(1, maxarity + 1)), *map(beginvar, range(1, n + 1)),
            *map(endvar, range(1, n + 1)))


def _canonical(roots: list[int], maxarity: int) -> Key:
    """The key of the tracking slots' class roots, a negative root marking
    an absent slot: a parameter alone in its class is absent, and the other
    classes are numbered in order of first occurrence."""
    labels: dict[int, int] = {}
    return tuple([-1 if r < 0 or (t < maxarity and roots.count(r) == 1)
                  else labels.setdefault(r, len(labels)) for t, r in enumerate(roots)])


def key_of(phi: EqFormula, n: int, maxarity: int) -> Key:
    """The key of transducer state phi under a type of length n."""
    slot = {v: t for t, v in enumerate(_tracking(n, maxarity))}
    roots = [-1] * len(slot)
    for label, cls in enumerate(phi.classes):
        for v in cls:
            roots[slot[v]] = label
    return _canonical(roots, maxarity)


def _classes(key: Key, maxarity: int) -> Iterable[list[Var]]:
    by_label: dict[int, list[Var]] = {}
    for v, label in zip(_tracking((len(key) - maxarity) // 2, maxarity), key):
        if label >= 0:
            by_label.setdefault(label, []).append(v)
    return by_label.values()


def formula_of(key: Key, maxarity: int) -> EqFormula:
    """The transducer state with this key; `key_of` inverts it."""
    return EqFormula(frozenset(map(frozenset, _classes(key, maxarity))))


MarkerSignature = tuple[int, bool]
MarkerStatus = tuple[int, bool, int]


def marker_status(classes: Iterable[Iterable[Var]], n: int) -> MarkerStatus | None:
    """The walk markers a state's classes carry for positions 1..n: a bitmask
    with bit i set for each begin(i), whether any end(i) occurs, and how many
    positions have begin(i) and end(i) in one class; None for a dead state.

    A state is live when its classes keep the walk markers apart (no two
    begins, no two ends, no begin(i) with end(j) for i != j share a class)
    and every open class, one with begin(i) or end(i) but not both, holds a
    node parameter.  An open class without one is dead: a parent step
    renames only parameters, unites begin(j) only for positions not yet
    begun and end(j) only while no end is present, so nothing can ever close
    it and no run above it accepts."""
    mask, ends, closed = 0, False, 0
    for cls in classes:
        begins, cends, has_param = [], [], False
        for v in cls:
            if v.name == "%begin" and v.tag[0] <= n:
                begins.append(v.tag[0])
            elif v.name == "%end" and v.tag[0] <= n:
                cends.append(v.tag[0])
            elif v.name == "%in":
                has_param = True
        if begins or cends:
            if len(begins) > 1 or len(cends) > 1 or (begins and cends and begins != cends):
                return None
            if begins != cends and not has_param:
                return None
            if begins:
                mask |= 1 << begins[0]
            ends = ends or bool(cends)
            closed += begins == cends
    return mask, ends, closed


@functools.lru_cache(maxsize=4096)
def key_status(key: Key, maxarity: int) -> MarkerStatus | None:
    """`marker_status` of the state with this key, computed once per key."""
    return marker_status(_classes(key, maxarity), (len(key) - maxarity) // 2)


def join_markers(sigs: Iterable[MarkerSignature]) -> MarkerSignature | None:
    """The markers of child states taken together, or None when two children
    carry the same begin(i) or more than one carries an end: a walk is then
    consumed twice, and no transducer step applies."""
    used, ends = 0, False
    for begins, end in sigs:
        if used & begins or (end and ends):
            return None
        used |= begins
        ends = ends or end
    return used, ends


@dataclass(frozen=True)
class Witness:
    """The choices behind one transducer transition, for tracing."""

    tau: InteractionType
    rewrites: tuple[tuple[int, Var, str, str], ...]  # (position, var, q, q')
    fired_atom: int | None                           # atom index of the guessed interaction


Rewrites = tuple[tuple[int, Var, str, str], ...]
SlotPairs = tuple[tuple[int, int], ...]
# a choice of rewrites, its output symbol (None: the input symbol itself), its
# witnesses for fired atom None and then each fired candidate, and the
# (begin slot, variable slot) pair of each rewrite
Choice = tuple[Rewrites, AlphabetSymbol | None, tuple[Witness, ...], SlotPairs]


def _unite(roots: list[int], a: int, b: int) -> None:
    """Merge the class of slot a into that of slot b."""
    ra, rb = roots[a], roots[b]
    if ra != rb:
        roots[:] = [rb if r == ra else r for r in roots]


class _StepPlan:
    """What a step needs of its symbol under one type, behavior and maxarity,
    built once and kept in the symbol's `_plans`.

    The symbol's variables are numbered once: the tracking slots of a key
    come first, then the symbol's other variables.  It holds no reference
    to the symbol, so the memo makes no cycle.
    """

    def __init__(self, tau: InteractionType, alpha: AlphabetSymbol,
                 behavior: Behavior, maxarity: int) -> None:
        self.tau = tau
        self.exvars, self.atoms = alpha.exvars, alpha.atoms
        self.arity, self.args = alpha.arity, alpha.args
        slot = self.slot = {v: t for t, v in enumerate(_tracking(len(tau), maxarity))}
        self.tracked = tracked = len(slot)

        def at(v: Var) -> int:
            return slot.setdefault(v, len(slot))
        # rewrite candidates: variables carrying a component atom and state
        # atoms that all name one state; a rewrite changes every one of them
        state_idx: dict[Var, list[int]] = {}
        comp_vars: set[Var] = set()
        eq_pairs: list[tuple[int, int]] = []
        # fired atom None, then each candidate with its (end slot, variable
        # slot) pairs
        self.fired: list[tuple[int | None, SlotPairs]] = [(None, ())]
        for idx, a in enumerate(alpha.atoms):
            if isinstance(a, Comp):
                comp_vars.add(a.var)
            elif isinstance(a, StateAtom):
                state_idx.setdefault(a.var, []).append(idx)
            elif isinstance(a, Inter) and tuple(p for _, p in a.bindings) == tau:
                self.fired.append((idx, tuple((slot[endvar(pos)], at(z)) for pos, (z, _)
                                              in enumerate(a.bindings, start=1))))
            elif isinstance(a, Eq):
                eq_pairs.append((at(a.left), at(a.right)))
        self.state_idx = state_idx
        # per candidate in sorted order: its state and, per port of tau, the
        # states the behavior moves it to
        self.candidates: dict[Var, tuple[str, dict[str, tuple[str, ...]]]] = {}
        for v in sorted(comp_vars):
            states = {alpha.atoms[i].state for i in state_idx.get(v, [])}
            if len(states) == 1:
                q = states.pop()
                self.candidates[v] = (q, {p: behavior.targets(q, p) for p in tau})
                at(v)
        # per child, the slot each slot of its key goes to: its parameter j
        # to the variable this symbol passes it (None beyond its arity), a
        # marker to itself
        self.child_slots = [[at(v) for v in vs[:maxarity]] + [None] * (maxarity - len(vs))
                            + list(range(maxarity, tracked)) for vs in alpha.args]
        # each slot's class root under the symbol's equalities; a marker and
        # a parameter beyond the arity start absent, with a negative root
        roots = [-1 - t if alpha.arity <= t < tracked else t for t in range(len(slot))]
        for a, b in eq_pairs:
            _unite(roots, a, b)
        self.roots = roots
        self._choices: dict[int, list[Choice]] = {}  # by used begin mask

    def choices(self, used_begin: int) -> list[Choice]:
        """The choices of rewrites at the positions not in `used_begin`, in
        `_rewrite_choices` order."""
        out = self._choices.get(used_begin)
        if out is None:
            avail = [i for i in range(1, len(self.tau) + 1) if not used_begin >> i & 1]
            out = self._choices[used_begin] = []
            for rewrites in _rewrite_choices(self.tau, avail, self.candidates, 0, (),
                                             frozenset()):
                sym = None
                if rewrites:
                    atoms = list(self.atoms)
                    for _, xi, _, q2 in rewrites:
                        for idx in self.state_idx[xi]:
                            atoms[idx] = StateAtom(xi, q2)
                    sym = AlphabetSymbol(self.exvars, tuple(atoms), self.arity, self.args)
                wits = tuple(Witness(self.tau, rewrites, fired) for fired, _ in self.fired)
                begins = tuple((self.slot[beginvar(i)], self.slot[xi])
                               for i, xi, _, _ in rewrites)
                out.append((rewrites, sym, wits, begins))
        return out


def transducer_step(tau: InteractionType, alpha: AlphabetSymbol,
                    child_states: Sequence[Key], behavior: Behavior,
                    maxarity: int) -> list[tuple[AlphabetSymbol, Key, Witness]]:
    """All transitions (alpha, alpha')(child_states) -> state for the type
    tau, states given and returned as keys.

    Enumerates the choice of rewritten component atoms (one per fresh walk
    position, each backed by a behavior transition over the matching port),
    the optional guess of the fired interaction atom, and discards any result
    that would merge distinct walk markers or leave a walk that can no longer
    close (see `marker_status`).  What depends on the symbol and the type
    alone comes from the symbol's step plan, built on first use.  A step
    unites the children's classes into the plan's slot roots once; each
    choice then only sets the roots of the markers it adds, which no child
    carries, and reads the tracking slots off as a key.
    """
    h = alpha.rank
    if len(child_states) != h:
        raise ArityMismatch(f"symbol of rank {h} given {len(child_states)} child states")
    if alpha.arity > maxarity:
        raise ArityMismatch(f"symbol arity {alpha.arity} exceeds maxarity {maxarity}")

    plan = alpha._plans.get((tau, behavior, maxarity))
    if plan is None:
        plan = alpha._plans[tau, behavior, maxarity] = _StepPlan(tau, alpha, behavior, maxarity)
    statuses = [key_status(key, maxarity) for key in child_states]
    # nothing above a dead child is live
    if None in statuses:
        return []
    joined = join_markers(st[:2] for st in statuses)
    if joined is None:
        return []
    used_begin, ends_present = joined

    # the roots shared by all choices: the equalities of the symbol itself,
    # plus child states with their parameters renamed to the variables this
    # node passes them
    roots = list(plan.roots)
    for slots, key in zip(plan.child_slots, child_states):
        first: dict[int, int] = {}
        for c, label in enumerate(key):
            if label < 0:
                continue
            s = slots[c]
            if s is None:
                raise ArityMismatch(f"child state mentions parameter {c + 1} beyond its arity")
            f = first.setdefault(label, s)
            if f != s:
                _unite(roots, s, f)
            elif roots[s] < 0:  # a marker enters
                roots[s] = s

    tracked = plan.tracked
    results: list[tuple[AlphabetSymbol, Key, Witness]] = []
    fired_opts = plan.fired[:1] if ends_present else plan.fired
    for rewrites, sym, wits, begins in plan.choices(used_begin):
        out = alpha if sym is None else sym
        for k, (_, ends) in enumerate(fired_opts):
            # each added marker joins the class of its variable
            conj = roots[:tracked]
            for s, v in begins:
                conj[s] = roots[v]
            for s, v in ends:
                conj[s] = roots[v]
            key = _canonical(conj, maxarity)
            if key_status(key, maxarity) is not None:
                results.append((out, key, wits[k]))
    return results


def _rewrite_choices(tau: InteractionType, avail: Sequence[int],
                     candidates: dict[Var, tuple[str, dict[str, tuple[str, ...]]]],
                     idx: int, chosen: Rewrites,
                     used_vars: frozenset[Var]) -> Iterator[Rewrites]:
    """`chosen` extended by every subset of the positions avail[idx:], each
    mapped to a distinct rewritable variable with an enabled behavior
    transition, as (position, var, q, q') rewrites; a choice comes before its
    extensions."""
    yield chosen
    for k in range(idx, len(avail)):
        i = avail[k]
        port = tau[i - 1]
        for xi, (q, moves) in candidates.items():
            if xi in used_vars:
                continue
            for q2 in moves[port]:
                yield from _rewrite_choices(tau, avail, candidates, k + 1,
                                            (*chosen, (i, xi, q, q2)), used_vars | {xi})


@dataclass(frozen=True)
class ProductState:
    base: object
    phi: EqFormula
    tau: InteractionType
    # the dataclass hash of the fields, computed once (see AlphabetSymbol)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.base, self.phi, self.tau)))

    def __hash__(self) -> int:
        return self._hash


@dataclass
class ImageResult:
    automaton: TreeAutomaton
    witnesses: dict[TaTransition, tuple[Witness, ...]]
    per_tau_states: dict[InteractionType, int]


def new_combos(pools: Sequence[Sequence], seen: Sequence[int] | None) -> Iterator[tuple]:
    """The tuples of product(*pools) outside the product of the pool prefixes
    of lengths `seen`, in product order; every tuple when `seen` is None.

    A tuple is new iff some child index is at or past its pool's seen length.
    """
    if seen is None:
        yield from itertools.product(*pools)
        return
    if not pools:
        return
    head, rest = pools[0], pools[1:]
    if not rest:
        for x in head[seen[0]:]:
            yield (x,)
        return
    for i, x in enumerate(head):
        tails = itertools.product(*rest) if i >= seen[0] else new_combos(rest, seen[1:])
        for t in tails:
            yield (x, *t)


def image(ta: TreeAutomaton, root_state: object, sid: SID) -> ImageResult:
    """The useful part of the image of the trees accepted at root_state
    under the union transducer of sid's behavior.

    One product component per interaction type occurring in the SID; states
    are (rule-automaton state, transducer state) pairs discovered from the
    leaves up.  Final states pair root_state with an accepting partition.
    Only the rule transitions whose result lies below root_state are
    stepped, and only live states are built: no other state is on a run
    accepted at root_state.

    Rounds are semi-naive: each rule transition remembers how long its child
    pools were at its last visit and combines only tuples with at least one
    newer child.  Pools only grow, so states, transitions and witnesses come
    out in the order a full re-enumeration per round would give.

    The fixpoint runs on integer ids: symbols, partition keys and product
    states are numbered the first time they are seen, and the pools, the
    step memo and the transition table hold only ids.  Every state built is
    productive, since it is built from built children, so one
    `useful_states` pass over the id-level transitions trims the product,
    and only what it keeps becomes a `ProductState` or `TaTransition`, in
    discovery order: the result is `ta_trim` of the whole image.  An
    `EqFormula` is built once per distinct key among the kept states.
    `per_tau_states` still counts every state built.
    """
    maxarity = max((sid.arity(p) for p in sid.predicates), default=0)
    taus = sorted(interaction_types(sid))
    below = derive([root_state], [(c, (tr.result,)) for tr in ta.transitions
                                  for c in tr.children])
    rules = [tr for tr in ta.transitions if tr.result in below]
    # symbols by equality, input and output alike
    sym_ids: dict[AlphabetSymbol, int] = {}
    rule_syms = [sym_ids.setdefault(tr.symbol, len(sym_ids)) for tr in rules]
    # per state id, in discovery order: (base, key, tau), its key's id in
    # its type and its walk markers
    states: list[tuple[object, Key, InteractionType]] = []
    key_id_of: list[int] = []
    marks: list[MarkerSignature] = []
    finals: list[int] = []
    # (output symbol, child states, result state) -> witnesses
    edges: dict[tuple[int, tuple[int, ...], int], list[Witness]] = {}
    per_tau: dict[InteractionType, int] = {}

    for tau in taus:
        n = len(tau)
        by_base: dict[object, list[int]] = {}
        # each state by (base, key id), so equal states share one id
        found: dict[tuple[object, int], int] = {}
        # keys by id: states of many bases share one
        key_ids: dict[Key, int] = {}
        keys: list[Key] = []
        seen: dict[int, tuple[int, ...]] = {}
        # a step depends on the symbol and child states only, not on the
        # transition's result state, so equal symbols share one computation
        steps: dict[tuple[int, tuple[int, ...]], list[tuple[int, int, Witness]]] = {}
        changed = True
        while changed:
            changed = False
            for ti, tr in enumerate(rules):
                # a snapshot, as product() takes: states found below join next round
                pools = [tuple(by_base.get(c, ())) for c in tr.children]
                combos = new_combos(pools, seen.get(ti))
                seen[ti] = tuple(map(len, pools))
                for combo in combos:
                    # children whose walk markers clash step to nothing
                    if len(combo) > 1 and join_markers([marks[s] for s in combo]) is None:
                        continue
                    skey = (rule_syms[ti], tuple([key_id_of[s] for s in combo]))
                    results = steps.get(skey)
                    if results is None:
                        results = steps[skey] = []
                        for out_sym, key, wit in transducer_step(
                                tau, tr.symbol, [keys[k] for k in skey[1]],
                                sid.behavior, maxarity):
                            k = key_ids.get(key)
                            if k is None:
                                k = key_ids[key] = len(keys)
                                keys.append(key)
                            results.append((sym_ids.setdefault(out_sym, len(sym_ids)), k, wit))
                    for out, k, wit in results:
                        s = found.get((tr.result, k))
                        if s is None:
                            s = found[tr.result, k] = len(states)
                            states.append((tr.result, keys[k], tau))
                            key_id_of.append(k)
                            begins, ends, closed = key_status(keys[k], maxarity)
                            marks.append((begins, ends))
                            by_base.setdefault(tr.result, []).append(s)
                            changed = True
                            # final: every walk's begin is proven equal to its end
                            if tr.result == root_state and closed == n:
                                finals.append(s)
                        edges.setdefault((out, combo, s), []).append(wit)
        per_tau[tau] = len(found)

    # without a final state every state is useful, as in `ta_trim`
    useful = (useful_states(finals, [(kids, s) for _, kids, s in edges]) if finals
              else range(len(states)))
    # one EqFormula per distinct key among the kept states, which share it
    formulas = {key: formula_of(key, maxarity) for key in {states[s][1] for s in useful}}
    made = {}
    for s in sorted(useful):
        base, key, tau = states[s]
        made[s] = ProductState(base, formulas[key], tau)
    symbols = list(sym_ids)
    witnesses = {TaTransition(symbols[out], tuple([made[c] for c in kids]), made[s]): tuple(ws)
                 for (out, kids, s), ws in edges.items() if s in made}
    product = TreeAutomaton(tuple(made.values()), frozenset(made[s] for s in finals),
                            tuple(witnesses))
    return ImageResult(product, witnesses, per_tau)
