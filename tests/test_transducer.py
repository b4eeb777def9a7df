"""The interaction-typed transducer: single steps, constraints, image."""

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest
from conftest import FIXTURES
from reference import enumerate_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc import transducer
from clhavoc.automata import (AlphabetSymbol, TaTransition, TreeAutomaton,
                              make_symbol, sid_to_ta, ta_trim)
from clhavoc.core import Behavior
from clhavoc.eqform import EMPTY_EQ, EqFormula, Partition
from clhavoc.frontend import parse_system
from clhavoc.logic import (Comp, Eq, Inter, StateAtom, Var, beginvar, endvar,
                           param)
from clhavoc.transducer import (ArityMismatch, ImageResult, InteractionType,
                                ProductState, Witness, image, interaction_types,
                                join_markers, marker_status, new_combos,
                                transducer_step, ttvars)


def test_interaction_types_ring(ring):
    assert interaction_types(ring.sid) == {("out", "in")}


def test_interaction_types_tll(tll):
    # the ring-closing atom, the parent/children atom, and the leaf links;
    # types are order-sensitive, so (out,in) and (in,out) are distinct
    assert interaction_types(tll.sid) == {("out", "in"),
                                          ("req", "reply", "reply"),
                                          ("in", "out")}


def test_interaction_types_empty():
    from clhavoc.logic import Rule, SID, Emp
    sid = SID((Rule("A", (Var("x"),), (), (Comp(Var("x")),)),),
              Behavior.make(["p"], ["q"], []))
    assert interaction_types(sid) == frozenset()


# ---------------------------------------------------------------------------
# single transducer steps

LEAF_Q1 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3)
LEAF_Q0 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q0")], 3)
TOGGLE = Behavior.make(["in", "out"], ["q0", "q1"],
                       [("q1", "out", "q0"), ("q0", "in", "q1")])


def test_leaf_rewrite_spec_example():
    # out at position 1: the q1 leaf becomes a q0 leaf, begin(1) = param(1)
    results = transducer_step(("out", "in"), LEAF_Q1, [], TOGGLE, 3)
    rewrites = [(sym, phi) for sym, phi, wit in results
                if wit.rewrites and wit.rewrites[0][0] == 1]
    assert rewrites
    sym, phi = rewrites[0]
    assert sym == LEAF_Q0
    assert phi.entails(beginvar(1), param(1))


def test_rewrite_changes_every_state_atom_of_its_variable():
    pinned = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1"),
                              StateAtom(param(1), "q1")], 3)
    rewritten = {sym for sym, _, wit in transducer_step(("out", "in"), pinned, [], TOGGLE, 3)
                 if wit.rewrites}
    assert rewritten == {make_symbol([], [Comp(param(1)), StateAtom(param(1), "q0"),
                                          StateAtom(param(1), "q0")], 3)}


def test_bookkeeping_step_is_identity():
    y = Var("y")
    child = EqFormula.make(pairs=[(param(1), param(2))])
    sym = make_symbol([y], [Comp(param(1)), StateAtom(param(1), "q1")], 2,
                      [(param(1), y)])
    results = transducer_step(("out", "in"), sym, [child], TOGGLE, 2)
    plain = [(s, phi) for s, phi, wit in results
             if not wit.rewrites and wit.fired_atom is None]
    assert len(plain) == 1
    s, phi = plain[0]
    assert s == sym
    # the child's param(1)=param(2) class becomes param(1)=y, and the binder
    # is projected away
    assert phi == EMPTY_EQ


def test_used_begin_cannot_be_rechosen():
    child = EqFormula.make(vars=[beginvar(1)])
    results = transducer_step(("out", "in"), LEAF_Q1, [], TOGGLE, 3)
    # leaf has no children; simulate the constraint on a unary symbol instead
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3, [(param(1),)])
    results = transducer_step(("out", "in"), sym, [child], TOGGLE, 3)
    for _, _, wit in results:
        assert all(i != 1 for i, *_ in wit.rewrites)


def test_two_children_sharing_begin_blocks_everything():
    child = EqFormula.make(vars=[beginvar(1)])
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], 3,
                      [(param(1),), (param(1),)])
    assert transducer_step(("out", "in"), sym, [child, child], TOGGLE, 3) == []


def test_second_fired_atom_blocked_by_child_ends():
    child = EqFormula.make(pairs=[(endvar(1), param(1)), (endvar(2), param(2))])
    sym = make_symbol([], [Inter(((param(1), "out"), (param(2), "in")))], 2,
                      [(param(1), param(2))])
    results = transducer_step(("out", "in"), sym, [child], TOGGLE, 2)
    assert results
    for _, _, wit in results:
        assert wit.fired_atom is None


def test_step_above_a_dead_child_is_empty():
    """A child class with end(1) alone and no node parameter can never close:
    every result above it keeps that class, so the step emits nothing."""
    child = EqFormula.make(vars=[endvar(1)])
    sym = make_symbol([], [Inter(((param(1), "out"), (param(2), "in")))], 2,
                      [(param(1),)])
    assert marker_status(child.classes, 2) is None
    assert reference_step(("out", "in"), sym, [child], TOGGLE, 2, live_only=False)
    assert reference_step(("out", "in"), sym, [child], TOGGLE, 2) == []
    assert transducer_step(("out", "in"), sym, [child], TOGGLE, 2) == []


def state_ok(phi: EqFormula, n: int) -> bool:
    """The step's own check that a state is live: its walk markers stay apart
    and every open marker class holds a node parameter."""
    return marker_status(phi.classes, n) is not None


def test_generated_states_satisfy_invariants(ring):
    ta, _ = sid_to_ta(ring.sid)
    info = image(ta, "Ring_1_1", ring.sid, ring.sid.behavior)
    n = 2
    for s in info.automaton.states:
        assert state_ok(s.phi, n)


def test_repeated_variable_interaction_is_rejected():
    # <x.out, x.in> would force end(1)=end(2); no valid component model exists
    from clhavoc.logic import Inter
    sym = make_symbol([], [Inter(((param(1), "out"), (param(1), "in")))], 1)
    for _, phi, wit in transducer_step(("out", "in"), sym, [], TOGGLE, 1):
        assert wit.fired_atom is None


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        transducer_step(("out", "in"), LEAF_Q1, [EMPTY_EQ], TOGGLE, 3)


# ---------------------------------------------------------------------------
# the two-leaf walkthrough on the linked-leaves tree

def test_tll_two_leaf_rewrite_run(tll):
    ta, _ = sid_to_ta(tll.sid)
    alpha = next(tr.symbol for tr in ta.transitions if tr.result == "Root")
    beta = next(tr.symbol for tr in ta.transitions
                if tr.result == "Node" and tr.symbol.rank == 2)
    leaf = {s.atoms[-1].state: s for s in
            (tr.symbol for tr in ta.transitions
             if tr.result == "Node" and tr.symbol.rank == 0)}
    tau = ("out", "in")
    behavior = tll.sid.behavior

    # leftmost leaf sits on the in side (position 2), rightmost on out (1)
    left = [r for r in transducer_step(tau, leaf["q1"], [], behavior, 3)
            if r[2].rewrites and r[2].rewrites[0][0] == 2]
    right = [r for r in transducer_step(tau, leaf["q0"], [], behavior, 3)
             if r[2].rewrites and r[2].rewrites[0][0] == 1]
    assert left and right
    lsym, lphi, _ = left[0]
    rsym, rphi, _ = right[0]
    assert lsym == leaf["q0"] and rsym == leaf["q1"]

    mids = [r for r in transducer_step(tau, beta, [lphi, rphi], behavior, 3)
            if not r[2].rewrites and r[2].fired_atom is None]
    assert mids
    bsym, bphi, _ = mids[0]
    assert bsym == beta
    assert bphi.entails(beginvar(2), param(2))
    assert bphi.entails(beginvar(1), param(3))

    roots = [r for r in transducer_step(tau, alpha, [bphi], behavior, 3)
             if r[2].fired_atom is not None]
    assert roots
    asym, aphi, wit = roots[0]
    assert asym == alpha  # the interaction atom itself is not rewritten
    assert marker_status(aphi.classes, 2)[2] == 2
    # exactly one node of the run guessed the fired interaction
    fired_nodes = [w for w in (wit,) if w.fired_atom is not None]
    assert len(fired_nodes) == 1


def test_image_empty_without_interactions():
    from clhavoc.logic import Rule, SID
    sid = SID((Rule("A", (Var("x"),), (), (Comp(Var("x")),)),),
              Behavior.make(["p"], ["q"], []))
    ta, _ = sid_to_ta(sid)
    info = image(ta, "A", sid, sid.behavior)
    assert info.automaton.transitions == ()
    assert not info.automaton.finals


def test_image_accepts_some_output_tree(tll):
    ta, _ = sid_to_ta(tll.sid)
    info = image(ta, "Root", tll.sid, tll.behavior)
    trimmed = ta_trim(info.automaton)
    finals = [s for s in trimmed.finals if s.tau == ("out", "in")]
    assert finals
    leaves_swapped = False
    for s in finals:
        for t in enumerate_trees(trimmed, s, 5):
            states = sorted(a.state for _, sym in t.labels for a in sym.atoms
                            if isinstance(a, StateAtom))
            if states == ["q0", "q1"]:
                leaves_swapped = True
    assert leaves_swapped


def test_image_deterministic(ring):
    ta, _ = sid_to_ta(ring.sid)
    a = image(ta, "Ring_1_1", ring.sid, ring.sid.behavior)
    b = image(ta, "Ring_1_1", ring.sid, ring.sid.behavior)
    assert a.automaton == b.automaton


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
                                    phi.entails(beginvar(i), endvar(i))
                                    for i in range(1, n + 1)):
                                finals.append(ps)
                        kids = tuple(ProductState(c, combo[l], tau)
                                     for l, c in enumerate(tr.children))
                        ptr = TaTransition(out_sym, kids, ps)
                        transitions.setdefault(ptr, []).append(wit)

    product = TreeAutomaton.make(transitions, finals=finals, states=tuple(discovered))
    per_tau = {tau: sum(1 for s in discovered if s.tau == tau) for tau in taus}
    return ImageResult(product, {tr: tuple(ws) for tr, ws in transitions.items()}, per_tau)


IMAGE_SYSTEMS = {p.name: p.read_text() for p in FIXTURES.glob("*.clsys")
                 if "reduced" not in p.name}
IMAGE_SYSTEMS.update({f"ring{k}": IMAGE_SYSTEMS["ring.clsys"].replace("=0..1", f"=0..{k}")
                      for k in (2, 3)})


@pytest.mark.parametrize("name", sorted(IMAGE_SYSTEMS))
def test_image_matches_reference_fixpoint(name):
    """The pruned image builds a subset of the reference's states, and once
    trimmed it keeps the same states, transitions, finals and witnesses, in
    the same order, for every predicate with a final state; no state of the
    trimmed reference has an open walk-marker class without a parameter.
    tll's rank-2 rules take 15 rounds over its three interaction types."""
    sid = parse_system(IMAGE_SYSTEMS[name]).sid
    ta, _ = sid_to_ta(sid)
    maxarity = max(sid.arity(p) for p in sid.predicates)
    for pred in sid.predicates:
        got = image(ta, pred, sid, sid.behavior)
        want = reference_image(ta, pred, sid, sid.behavior)
        assert set(got.automaton.states) <= set(want.automaton.states)
        if not want.automaton.finals:
            continue
        kept, want_kept = ta_trim(got.automaton), ta_trim(want.automaton)
        assert kept.states == want_kept.states
        assert kept.transitions == want_kept.transitions
        assert kept.finals == want_kept.finals
        assert ([got.witnesses[tr] for tr in kept.transitions]
                == [want.witnesses[tr] for tr in want_kept.transitions])
        for s in want_kept.states:
            assert reference_state_live(s.phi, len(s.tau), maxarity)


@st.composite
def _pool_growth(draw):
    """Pools of rank 0..2 and the pool lengths at an earlier visit (None for
    a first visit); pools only grow, so the earlier lengths are prefixes."""
    rank = draw(st.integers(0, 2))
    pools = [[(l, i) for i in range(draw(st.integers(0, 4)))] for l in range(rank)]
    if draw(st.booleans()):
        return pools, None
    return pools, tuple(draw(st.integers(0, len(p))) for p in pools)


@settings(max_examples=300, deadline=None)
@given(_pool_growth())
def test_new_combos_is_product_minus_old_product(case):
    pools, seen = case
    old = set() if seen is None else set(itertools.product(*(p[:k] for p, k in zip(pools, seen))))
    want = [c for c in itertools.product(*pools) if c not in old]
    assert list(new_combos(pools, seen)) == want


def test_new_combos_edge_cases():
    assert list(new_combos([], None)) == [()]
    assert list(new_combos([], ())) == []
    assert list(new_combos([[1, 2]], (2,))) == []
    assert list(new_combos([[1, 2], [3]], (1, 1))) == [(2, 3)]


def test_cached_hash_stays_out_of_identity(ring):
    ta, _ = sid_to_ta(ring.sid)
    sym = ta.transitions[0].symbol
    assert hash(sym) == sym._hash == hash((sym.exvars, sym.atoms, sym.arity, sym.args))
    twin = AlphabetSymbol(sym.exvars, sym.atoms, sym.arity, sym.args)
    object.__setattr__(twin, "_hash", sym._hash + 1)
    assert twin == sym
    assert "_hash" not in repr(sym)

    phi = EqFormula.make([beginvar(1), endvar(1)], [(beginvar(1), endvar(1))])
    ps = ProductState("Ring_1_1", phi, ("out", "in"))
    assert hash(ps) == ps._hash == hash((ps.base, ps.phi, ps.tau))
    other = ProductState("Ring_1_1", phi, ("out", "in"))
    object.__setattr__(other, "_hash", ps._hash + 1)
    assert other == ps
    assert "_hash" not in repr(ps)
    assert repr(ps) == f"ProductState(base='Ring_1_1', phi={phi!r}, tau=('out', 'in'))"


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
    return GluedSymbol(alpha.exvars, alpha.atoms + eqs, alpha.arities)


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

def reference_state_ok(phi: EqFormula, n: int) -> bool:
    """The non-entailment conditions on transducer states."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (phi.entails(beginvar(i), beginvar(j))
                           or phi.entails(endvar(i), endvar(j))
                           or phi.entails(beginvar(i), endvar(j))):
                return False
    return True


def reference_state_live(phi: EqFormula, n: int, maxarity: int) -> bool:
    """Every open walk marker, a begin(i) or end(i) of phi with begin(i) and
    end(i) not proven equal, is proven equal to a node parameter."""
    for i in range(1, n + 1):
        if phi.entails(beginvar(i), endvar(i)):
            continue
        for m in (beginvar(i), endvar(i)):
            if m in phi.vars and not any(phi.entails(m, param(j))
                                         for j in range(1, maxarity + 1)):
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
    for rewrites in _reference_rewrite_choices(tau, avail, candidates, behavior, 0, (), frozenset()):
        for fired in fired_opts:
            conj = base.copy()
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


@pytest.mark.parametrize("name", sorted(IMAGE_SYSTEMS))
def test_step_matches_reference_on_every_reached_input(name):
    """Every (symbol, child states) tuple the image reaches, in the product of
    the final pools, steps to the reference's results in the same order; the
    tuples that image skips for clashing walk markers step to nothing."""
    sid = parse_system(IMAGE_SYSTEMS[name]).sid
    ta, _ = sid_to_ta(sid)
    maxarity = max(sid.arity(p) for p in sid.predicates)
    stepped, skipped = set(), 0
    for pred in sid.predicates:
        pools = {}
        for s in image(ta, pred, sid, sid.behavior).automaton.states:
            pools.setdefault((s.tau, s.base), []).append(s.phi)
        for tau in sorted(interaction_types(sid)):
            for tr in ta.transitions:
                for phis in itertools.product(*(pools.get((tau, c), []) for c in tr.children)):
                    if (tau, tr.symbol, phis) in stepped:
                        continue
                    stepped.add((tau, tr.symbol, phis))
                    want = reference_step(tau, tr.symbol, list(phis), sid.behavior, maxarity)
                    got = transducer_step(tau, tr.symbol, list(phis), sid.behavior, maxarity)
                    assert got == want
                    if join_markers(marker_status(phi.classes, len(tau))[:2]
                                    for phi in phis) is None:
                        assert want == []
                        skipped += 1
    if name == "tll.clsys":
        assert (len(stepped), skipped) == (590, 350)


def test_image_steps_only_children_whose_markers_fit(tll, monkeypatch):
    calls = []
    real_step = transducer.transducer_step
    monkeypatch.setattr(transducer, "transducer_step",
                        lambda *args: calls.append(args) or real_step(*args))
    ta, _ = sid_to_ta(tll.sid)
    image(ta, "Root", tll.sid, tll.behavior)
    assert len(calls) == 240


def test_join_markers():
    assert join_markers([]) == (0, False)
    assert join_markers([(0b10, False), (0b100, True)]) == (0b110, True)
    assert join_markers([(0b10, False), (0b110, False)]) is None
    assert join_markers([(0, True), (0b10, True)]) is None
    phi = EqFormula.make([beginvar(1), endvar(2), beginvar(3)],
                         [(beginvar(1), param(1)), (endvar(2), param(2)), (beginvar(3), param(3))])
    assert marker_status(phi.classes, 2) == (0b10, True, 0)
    assert marker_status(phi.classes, 3) == (0b1010, True, 0)


def test_marker_checks_match_entailment_form():
    """Over every set of present markers and up to two equalities among them
    and param(1), param(2): a state is live iff its markers stay apart and
    each open marker is proven equal to a parameter."""
    markers = [beginvar(1), beginvar(2), endvar(1), endvar(2)]
    dead = 0
    for k in range(len(markers) + 1):
        for present in itertools.combinations(markers, k):
            vs = [*present, param(1), param(2)]
            for m in range(3):
                for pairs in itertools.combinations(itertools.combinations(vs, 2), m):
                    phi = EqFormula.make(vs, pairs)
                    for n in (1, 2):
                        apart = reference_state_ok(phi, n)
                        live = reference_state_live(phi, n, 2)
                        assert state_ok(phi, n) == (apart and live)
                        dead += apart and not live
                        status = marker_status(phi.classes, n)
                        if status is not None:
                            begins = sum(1 << i for i in range(1, n + 1)
                                         if beginvar(i) in phi.vars)
                            ends = any(endvar(i) in phi.vars for i in range(1, n + 1))
                            assert status[:2] == (begins, ends)
                            assert (status[2] == n) == all(phi.entails(beginvar(i), endvar(i))
                                                           for i in range(1, n + 1))
    assert dead


def test_step_plan_memo_stays_out_of_identity(ring):
    ta, _ = sid_to_ta(ring.sid)
    leaf = next(tr.symbol for tr in ta.transitions if not tr.children)
    twin = AlphabetSymbol(leaf.exvars, leaf.atoms, leaf.arity, leaf.args)
    results = transducer_step(("out", "in"), leaf, [], ring.behavior, 2)
    assert leaf._plans and not twin._plans
    assert twin == leaf and hash(twin) == hash(leaf) and repr(twin) == repr(leaf)
    assert "_plans" not in repr(leaf)
    assert transducer_step(("out", "in"), twin, [], ring.behavior, 2) == results
    # a step that rewrites nothing emits the symbol itself
    assert any(out is leaf for out, _, wit in results if not wit.rewrites)
