"""The interaction-typed havoc transducer and its image computation.

A transducer state is a partition of the type's tracking variables: the
node parameters param(1..maxarity) plus one begin/end marker per position of
the interaction type.  begin(i) enters the state when the component atom
serving position i is rewritten, end(i) when the fired interaction atom is
guessed; both stay visible afterwards, even as singletons, because their
presence is what rules out consuming the same walk twice.  A run accepts when
every begin(i) has been proven equal to end(i).  A step renames each child
state's parameters to the arguments its symbol passes that child.

The product with the rule automaton is built on the fly: only live transducer
states reachable from the trees below the checked predicate are ever
materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .core import Behavior
from .eqform import EqFormula, Partition
from .logic import Comp, Eq, Inter, SID, StateAtom, Var, beginvar, derive, endvar, param
from .automata import AlphabetSymbol, TaTransition, TreeAutomaton


class ArityMismatch(ValueError):
    pass


InteractionType = tuple[str, ...]


def interaction_types(sid: SID) -> frozenset[InteractionType]:
    """All ordered port tuples of interaction atoms occurring in the rules."""
    return frozenset(ports for rule in sid.rules
                     for kind, _, ports in rule.skeleton[2] if kind is Inter)


def ttvars(tau: InteractionType, maxarity: int) -> frozenset[Var]:
    vs = {param(i) for i in range(1, maxarity + 1)}
    vs |= {beginvar(i) for i in range(1, len(tau) + 1)}
    vs |= {endvar(i) for i in range(1, len(tau) + 1)}
    return frozenset(vs)


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
# a choice of rewrites, its output symbol (None: the input symbol itself) and
# its witnesses for fired atom None and then each fired candidate
Choice = tuple[Rewrites, AlphabetSymbol | None, tuple[Witness, ...]]


class _StepPlan:
    """What a step needs of its symbol under one type, behavior and maxarity,
    built once and kept in the symbol's `_plans`.

    It holds no reference to the symbol, so the memo makes no cycle.
    """

    def __init__(self, tau: InteractionType, alpha: AlphabetSymbol,
                 behavior: Behavior, maxarity: int) -> None:
        self.tau = tau
        self.exvars, self.atoms = alpha.exvars, alpha.atoms
        self.arity, self.args = alpha.arity, alpha.args
        # rewrite candidates: variables carrying a component atom and state
        # atoms that all name one state; a rewrite changes every one of them
        state_idx: dict[Var, list[int]] = {}
        comp_vars: set[Var] = set()
        self.fired: list[int] = []
        eq_pairs: list[tuple[Var, Var]] = []
        for idx, a in enumerate(alpha.atoms):
            if isinstance(a, Comp):
                comp_vars.add(a.var)
            elif isinstance(a, StateAtom):
                state_idx.setdefault(a.var, []).append(idx)
            elif isinstance(a, Inter) and tuple(p for _, p in a.bindings) == tau:
                self.fired.append(idx)
            elif isinstance(a, Eq):
                eq_pairs.append((a.left, a.right))
        self.state_idx = state_idx
        # per candidate in sorted order: its state and, per port of tau, the
        # states the behavior moves it to
        self.candidates: dict[Var, tuple[str, dict[str, tuple[str, ...]]]] = {}
        for v in sorted(comp_vars):
            states = {alpha.atoms[i].state for i in state_idx.get(v, [])}
            if len(states) == 1:
                q = states.pop()
                self.candidates[v] = (q, {p: behavior.targets(q, p) for p in tau})
        self.eqs = Partition((), eq_pairs)
        # child l's parameter j is the variable the symbol passes it
        self.renamings = [{param(j): v for j, v in enumerate(vs, start=1)}
                          for vs in alpha.args]
        self.keepvars = ttvars(tau, maxarity)
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
                wits = tuple(Witness(self.tau, rewrites, fired)
                             for fired in (None, *self.fired))
                out.append((rewrites, sym, wits))
        return out


def transducer_step(tau: InteractionType, alpha: AlphabetSymbol,
                    child_states: Sequence[EqFormula], behavior: Behavior,
                    maxarity: int) -> list[tuple[AlphabetSymbol, EqFormula, Witness]]:
    """All transitions (alpha, alpha')(child_states) -> state for the type tau.

    Enumerates the choice of rewritten component atoms (one per fresh walk
    position, each backed by a behavior transition over the matching port),
    the optional guess of the fired interaction atom, and discards any result
    that would merge distinct walk markers or leave a walk that can no longer
    close (see `marker_status`).  What depends on the symbol and the type
    alone comes from the symbol's step plan, built on first use.
    """
    n = len(tau)
    h = alpha.rank
    if len(child_states) != h:
        raise ArityMismatch(f"symbol of rank {h} given {len(child_states)} child states")
    if alpha.arity > maxarity:
        raise ArityMismatch(f"symbol arity {alpha.arity} exceeds maxarity {maxarity}")

    statuses = [marker_status(st.classes, n) for st in child_states]
    # nothing above a dead child is live
    if None in statuses:
        return []
    joined = join_markers(st[:2] for st in statuses)
    if joined is None:
        return []
    used_begin, ends_present = joined
    plan = alpha._plans.get((tau, behavior, maxarity))
    if plan is None:
        plan = alpha._plans[tau, behavior, maxarity] = _StepPlan(tau, alpha, behavior, maxarity)

    # base conjunction shared by all choices: the equalities of the symbol
    # itself, plus child states with their parameters renamed to the
    # variables this node passes them
    base = plan.eqs.copy()
    for ren, st in zip(plan.renamings, child_states):
        for cls in st.classes:
            if any(v.name == "%in" and v not in ren for v in cls):
                raise ArityMismatch(f"child state mentions parameter beyond arity {len(ren)}")
            members = [ren.get(v, v) for v in cls]
            for v in members:
                base.union(members[0], v)

    keepvars = plan.keepvars
    results: list[tuple[AlphabetSymbol, EqFormula, Witness]] = []
    fired_opts = list(enumerate((None, *plan.fired)))
    if ends_present:
        fired_opts = fired_opts[:1]
    for rewrites, sym, wits in plan.choices(used_begin):
        out = alpha if sym is None else sym
        for k, fired in fired_opts:
            conj = base.copy()
            for i, xi, _, _ in rewrites:
                conj.union(beginvar(i), xi)
            if fired is not None:
                for pos, (z, _) in enumerate(alpha.atoms[fired].bindings, start=1):
                    conj.union(endvar(pos), z)
            # project onto the tracking variables; singleton parameter classes
            # carry no information, marker singletons do
            classes = [cls for cls in conj.classes(keepvars)
                       if len(cls) > 1 or cls[0].name in ("%begin", "%end")]
            if marker_status(classes, n) is None:
                continue
            phi = EqFormula(frozenset(map(frozenset, classes)))
            results.append((out, phi, wits[k]))
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
    """Image of the trees accepted at root_state under the union transducer
    of sid's behavior.

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
    """
    maxarity = max((sid.arity(p) for p in sid.predicates), default=0)
    taus = sorted(interaction_types(sid))
    below = derive([root_state], [(c, (tr.result,)) for tr in ta.transitions
                                  for c in tr.children])
    rules = [tr for tr in ta.transitions if tr.result in below]
    transitions: dict[TaTransition, list[Witness]] = {}
    discovered: list[ProductState] = []
    finals: list[ProductState] = []
    per_tau: dict[InteractionType, int] = {}

    for tau in taus:
        n = len(tau)
        by_base: dict[object, list[ProductState]] = {}
        # each discovered state by (base, phi), so equal states share one object
        found: dict[tuple[object, EqFormula], ProductState] = {}
        marks: dict[ProductState, MarkerSignature] = {}
        seen: dict[int, tuple[int, ...]] = {}
        # a step depends on the symbol and child states only, not on the
        # transition's result state, so equal symbols share one computation
        steps: dict[tuple[AlphabetSymbol, tuple[EqFormula, ...]], list] = {}
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
                    if len(combo) > 1 and join_markers([marks[ps] for ps in combo]) is None:
                        continue
                    phis = tuple(ps.phi for ps in combo)
                    skey = (tr.symbol, phis)
                    results = steps.get(skey)
                    if results is None:
                        results = steps[skey] = transducer_step(tau, tr.symbol, list(phis),
                                                                sid.behavior, maxarity)
                    for out_sym, phi, wit in results:
                        ps = found.get((tr.result, phi))
                        if ps is None:
                            ps = found[tr.result, phi] = ProductState(tr.result, phi, tau)
                            discovered.append(ps)
                            begins, ends, closed = marker_status(phi.classes, n)
                            marks[ps] = begins, ends
                            by_base.setdefault(tr.result, []).append(ps)
                            changed = True
                            # final: every walk's begin is proven equal to its end
                            if tr.result == root_state and closed == n:
                                finals.append(ps)
                        ptr = TaTransition(out_sym, combo, ps)
                        transitions.setdefault(ptr, []).append(wit)
        per_tau[tau] = len(found)

    product = TreeAutomaton.make(transitions, finals=finals, states=discovered)
    return ImageResult(product, {tr: tuple(ws) for tr, ws in transitions.items()}, per_tau)
