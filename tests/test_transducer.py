"""The interaction-typed transducer: single steps, constraints, image."""

import itertools

import pytest
from conftest import FIXTURES
from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.automata import (AlphabetSymbol, TaTransition, TreeAutomaton,
                              make_symbol, sid_to_ta, enumerate_trees, ta_trim)
from clhavoc.core import Behavior
from clhavoc.eqform import EMPTY_EQ, EqFormula
from clhavoc.frontend import parse_system
from clhavoc.logic import Comp, StateAtom, Var, beginvar, endvar, param
from clhavoc.transducer import (ArityMismatch, ImageResult, ProductState,
                                image, interaction_types, is_final, new_combos,
                                state_ok, transducer_step)


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
    sid = SID((Rule("A", (Var("x"),), Comp(Var("x"))),),
              Behavior.make(["p"], ["q"], []))
    assert interaction_types(sid) == frozenset()


# ---------------------------------------------------------------------------
# single transducer steps

LEAF_Q1 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1")], [3])
LEAF_Q0 = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q0")], [3])
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


def test_bookkeeping_step_is_identity():
    child = EqFormula.make(pairs=[(param(1), param(2))])
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1"),
                           _eq(1, 1, param(1))], [2, 2])
    results = transducer_step(("out", "in"), sym, [child], TOGGLE, 2)
    plain = [(s, phi) for s, phi, wit in results
             if not wit.rewrites and wit.fired_atom is None]
    assert len(plain) == 1
    s, phi = plain[0]
    assert s == sym
    # the child's param(1)=param(2) class maps through childparam(1,1)=param(1)
    assert phi.entails(param(1), param(1))


def _eq(l, i, z):
    from clhavoc.logic import Eq, childparam
    return Eq(childparam(l, i), z)


def test_used_begin_cannot_be_rechosen():
    child = EqFormula.make(vars=[beginvar(1)])
    results = transducer_step(("out", "in"), LEAF_Q1, [], TOGGLE, 3)
    # leaf has no children; simulate the constraint on a unary symbol instead
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1"),
                           _eq(1, 1, param(1))], [3, 3])
    results = transducer_step(("out", "in"), sym, [child], TOGGLE, 3)
    for _, _, wit in results:
        assert all(i != 1 for i, *_ in wit.rewrites)


def test_two_children_sharing_begin_blocks_everything():
    child = EqFormula.make(vars=[beginvar(1)])
    sym = make_symbol([], [Comp(param(1)), StateAtom(param(1), "q1"),
                           _eq(1, 1, param(1)), _eq(2, 1, param(1))], [3, 3, 3])
    assert transducer_step(("out", "in"), sym, [child, child], TOGGLE, 3) == []


def test_second_fired_atom_blocked_by_child_ends():
    child = EqFormula.make(vars=[endvar(1), endvar(2)])
    from clhavoc.logic import Inter
    sym = make_symbol([], [Inter(((param(1), "out"), (param(2), "in"))),
                           _eq(1, 1, param(1))], [2, 2])
    for _, _, wit in transducer_step(("out", "in"), sym, [child], TOGGLE, 2):
        assert wit.fired_atom is None


def test_generated_states_satisfy_invariants(ring):
    ta, _ = sid_to_ta(ring.sid)
    info = image(ta, "Ring_1_1", ring.sid, ring.sid.behavior)
    n = 2
    for s in info.automaton.states:
        assert state_ok(s.phi, n)


def test_repeated_variable_interaction_is_rejected():
    # <x.out, x.in> would force end(1)=end(2); no valid component model exists
    from clhavoc.logic import Inter
    sym = make_symbol([], [Inter(((param(1), "out"), (param(1), "in")))], [1])
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
    assert is_final(aphi, 2)
    # exactly one node of the run guessed the fired interaction
    fired_nodes = [w for w in (wit,) if w.fired_atom is not None]
    assert len(fired_nodes) == 1


def test_image_empty_without_interactions():
    from clhavoc.logic import Rule, SID
    sid = SID((Rule("A", (Var("x"),), Comp(Var("x"))),),
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
    """The round-robin image loop that re-enumerates every pool each round,
    kept verbatim as the reference for the semi-naive one."""
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
                        steps[skey] = transducer_step(tau, tr.symbol, list(combo),
                                                      behavior, maxarity)
                    for out_sym, phi, wit in steps[skey]:
                        ps = ProductState(tr.result, phi, tau)
                        if ps not in discovered:
                            discovered[ps] = None
                            by_base.setdefault(tr.result, []).append(phi)
                            changed = True
                            if tr.result == root_state and is_final(phi, n):
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
    """Same states, transitions, finals, witnesses and per-type counts, in the
    same order, for every predicate; tll's rank-2 rules take 15 rounds over
    its three interaction types."""
    sid = parse_system(IMAGE_SYSTEMS[name]).sid
    ta, _ = sid_to_ta(sid)
    for pred in sid.predicates:
        got = image(ta, pred, sid, sid.behavior)
        want = reference_image(ta, pred, sid, sid.behavior)
        assert got.automaton.states == want.automaton.states
        assert got.automaton.transitions == want.automaton.transitions
        assert got.automaton.finals == want.automaton.finals
        assert list(got.witnesses.items()) == list(want.witnesses.items())
        assert list(got.per_tau_states.items()) == list(want.per_tau_states.items())


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
    assert hash(sym) == sym._hash == hash((sym.exvars, sym.atoms, sym.arities))
    twin = AlphabetSymbol(sym.exvars, sym.atoms, sym.arities)
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
