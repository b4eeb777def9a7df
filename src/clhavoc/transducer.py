"""The interaction-typed havoc transducer and its image computation.

A transducer state is a partition of the type's tracking variables: the
node parameters param(1..maxarity) plus one begin/end marker per position of
the interaction type.  begin(i) enters the state when the component atom
serving position i is rewritten, end(i) when the fired interaction atom is
guessed; both stay visible afterwards, even as singletons, because their
presence is what rules out consuming the same walk twice.  A run accepts when
every begin(i) has been proven equal to end(i).

The product with the rule automaton is built on the fly: only transducer
states reachable from the SID's own trees are ever materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import Behavior
from .eqform import EqFormula, Partition
from .logic import (Comp, Eq, Inter, SID, StateAtom, Var, atoms_of,
                    beginvar, childparam, endvar, param)
from .automata import AlphabetSymbol, TaTransition, TreeAutomaton


class ArityMismatch(ValueError):
    pass


InteractionType = tuple[str, ...]


def interaction_types(sid: SID) -> frozenset[InteractionType]:
    """All ordered port tuples of interaction atoms occurring in the rules."""
    out = set()
    for rule in sid.rules:
        for a in atoms_of(rule.body):
            if isinstance(a, Inter):
                out.add(tuple(p for _, p in a.bindings))
    return frozenset(out)


def ttvars(tau: InteractionType, maxarity: int) -> frozenset[Var]:
    vs = {param(i) for i in range(1, maxarity + 1)}
    vs |= {beginvar(i) for i in range(1, len(tau) + 1)}
    vs |= {endvar(i) for i in range(1, len(tau) + 1)}
    return frozenset(vs)


def state_ok(phi: EqFormula, n: int) -> bool:
    """The non-entailment conditions on transducer states."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (phi.entails(beginvar(i), beginvar(j))
                           or phi.entails(endvar(i), endvar(j))
                           or phi.entails(beginvar(i), endvar(j))):
                return False
    return True


def is_final(phi: EqFormula, n: int) -> bool:
    return all(phi.entails(beginvar(i), endvar(i)) for i in range(1, n + 1))


@dataclass(frozen=True)
class Witness:
    """The choices behind one transducer transition, for tracing."""

    tau: InteractionType
    rewrites: tuple[tuple[int, Var, str, str], ...]  # (position, var, q, q')
    fired_atom: int | None                           # atom index of the guessed interaction


def _canonical_state(phi: EqFormula) -> EqFormula:
    # singleton parameter classes carry no information; marker singletons do
    keep = []
    for cls in phi.classes:
        if len(cls) > 1 or next(iter(cls)).name in ("%begin", "%end"):
            keep.append(cls)
    return EqFormula(frozenset(keep))


def transducer_step(tau: InteractionType, alpha: AlphabetSymbol,
                    child_states: Sequence[EqFormula], behavior: Behavior,
                    maxarity: int) -> list[tuple[AlphabetSymbol, EqFormula, Witness]]:
    """All transitions (alpha, alpha')(child_states) -> state for the type tau.

    Enumerates the choice of rewritten component atoms (one per fresh walk
    position, each backed by a behavior transition over the matching port),
    the optional guess of the fired interaction atom, and discards any result
    that would merge distinct walk markers.
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

    # base conjunction shared by all choices: the equalities of the symbol
    # itself, plus child states with their parameters rebased onto this
    # node's childparam variables
    base = Partition((), eq_pairs)
    for l, st in enumerate(child_states, start=1):
        al = alpha.arities[l]
        ren = {param(j): childparam(l, j) for j in range(1, al + 1)}
        for cls in st.classes:
            members = [ren.get(v, v) for v in cls]
            if any(v.name == "%in" for v in members):
                raise ArityMismatch(f"child state mentions parameter beyond arity {al}")
            for v in members:
                base.union(members[0], v)

    keepvars = ttvars(tau, maxarity)
    results: list[tuple[AlphabetSymbol, EqFormula, Witness]] = []

    fired_opts: list[int | None] = [None]
    if not ends_present:
        fired_opts += fired_candidates
    for rewrites in _rewrite_choices(tau, avail, candidates, behavior, 0, (), frozenset()):
        for fired in fired_opts:
            conj = base.copy()
            for i, xi, _, _ in rewrites:
                conj.union(beginvar(i), xi)
            if fired is not None:
                atom = alpha.atoms[fired]
                for pos, (z, _) in enumerate(atom.bindings, start=1):
                    conj.union(endvar(pos), z)
            # project onto the tracking variables
            phi = _canonical_state(EqFormula(frozenset(
                kept for cls in conj.classes() if (kept := keepvars.intersection(cls)))))
            if not state_ok(phi, n):
                continue
            out_atoms = list(alpha.atoms)
            for _, xi, q, q2 in rewrites:
                out_atoms[state_idx[xi][0]] = StateAtom(xi, q2)
            out = AlphabetSymbol(alpha.exvars, tuple(out_atoms), alpha.arities)
            results.append((out, phi, Witness(tau, rewrites, fired)))
    return results


def _rewrite_choices(tau: InteractionType, avail: Sequence[int],
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
                yield from _rewrite_choices(tau, avail, candidates, behavior, k + 1,
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


def image(ta: TreeAutomaton, root_state: object, sid: SID,
          behavior: Behavior) -> ImageResult:
    """Image of the trees accepted at root_state under the union transducer.

    One product component per interaction type occurring in the SID; states
    are (rule-automaton state, transducer state) pairs discovered from the
    leaves up.  Final states pair root_state with an accepting partition.

    Rounds are semi-naive: each rule transition remembers how long its child
    pools were at its last visit and combines only tuples with at least one
    newer child.  Pools only grow, so states, transitions and witnesses come
    out in the order a full re-enumeration per round would give.
    """
    maxarity = max((sid.arity(p) for p in sid.predicates), default=0)
    taus = sorted(interaction_types(sid))
    transitions: dict[TaTransition, list[Witness]] = {}
    # each discovered state maps to itself, so equal states share one object
    discovered: dict[ProductState, ProductState] = {}
    finals: list[ProductState] = []

    for tau in taus:
        n = len(tau)
        by_base: dict[object, list[ProductState]] = {}
        seen: dict[int, tuple[int, ...]] = {}
        # a step depends on the symbol and child states only, not on the
        # transition's result state, so equal symbols share one computation
        steps: dict[tuple[AlphabetSymbol, tuple[EqFormula, ...]], list] = {}
        changed = True
        while changed:
            changed = False
            for ti, tr in enumerate(ta.transitions):
                # a snapshot, as product() takes: states found below join next round
                pools = [tuple(by_base.get(c, ())) for c in tr.children]
                combos = new_combos(pools, seen.get(ti))
                seen[ti] = tuple(map(len, pools))
                for combo in combos:
                    phis = tuple(ps.phi for ps in combo)
                    skey = (tr.symbol, phis)
                    if skey not in steps:
                        steps[skey] = transducer_step(tau, tr.symbol, list(phis),
                                                      behavior, maxarity)
                    for out_sym, phi, wit in steps[skey]:
                        new = ProductState(tr.result, phi, tau)
                        ps = discovered.setdefault(new, new)
                        if ps is new:
                            by_base.setdefault(tr.result, []).append(ps)
                            changed = True
                            if tr.result == root_state and is_final(phi, n):
                                finals.append(ps)
                        ptr = TaTransition(out_sym, combo, ps)
                        transitions.setdefault(ptr, []).append(wit)

    product = TreeAutomaton.make(transitions, finals=finals, states=tuple(discovered))
    per_tau = {tau: sum(1 for s in discovered if s.tau == tau) for tau in taus}
    return ImageResult(product, {tr: tuple(ws) for tr, ws in transitions.items()}, per_tau)
